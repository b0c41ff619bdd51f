//! Per-accelerator analytical performance/power models.
//!
//! Following the paper's methodology (§4.2), each accelerator is priced
//! by an analytical model fed with (a) the achieved memory bandwidth and
//! energy from the DRAM model and (b) synthesis-style power constants.
//! Execution time is `max(memory time, compute time)` plus a fixed
//! configuration latency; the functional result is computed separately by
//! the `mealib-kernels` implementations.

use mealib_memsim::{analytic, AccessPattern, MemoryConfig, TraceStats};
use mealib_tdl::AcceleratorKind;
use mealib_types::{Bytes, Cycles, Gflops, Joules, Seconds, Watts};

use crate::hw::AccelHwConfig;
use crate::params::AccelParams;
use crate::power::profile_at;

/// Fixed per-invocation configuration latency inside the layer (switch
/// setup + accelerator init), once the descriptor has been decoded.
pub const CONFIG_LATENCY: Seconds = Seconds::new(0.5e-6);

/// Result of modeling one accelerator invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Which accelerator ran.
    pub kind: AcceleratorKind,
    /// End-to-end time (memory/compute overlap + configuration).
    pub time: Seconds,
    /// Time the memory system needed in isolation.
    pub mem_time: Seconds,
    /// Time the PE array needed in isolation.
    pub compute_time: Seconds,
    /// Total energy: DRAM + accelerator datapath + leakage.
    pub energy: Joules,
    /// DRAM share of the energy.
    pub mem_energy: Joules,
    /// FLOPs executed.
    pub flops: u64,
    /// Memory-system statistics of the invocation.
    pub mem: TraceStats,
}

impl ExecReport {
    /// Achieved floating-point throughput.
    pub fn gflops(&self) -> Gflops {
        Gflops::from_flops(self.flops as f64, self.time)
    }

    /// Average power over the invocation.
    pub fn power(&self) -> Watts {
        self.energy.over(self.time)
    }

    /// Energy efficiency in GFLOPS per watt.
    pub fn gflops_per_watt(&self) -> f64 {
        self.gflops().per_watt(self.power())
    }

    /// For `RESHP` (no FLOPs) the paper reports GB/s instead; this is the
    /// matching throughput metric.
    pub fn gbytes_per_sec(&self) -> f64 {
        self.mem.bytes_moved().get() as f64 / self.time.get() * 1e-9
    }

    /// Scales the report by `count` back-to-back repetitions (hardware
    /// `LOOP` execution: configuration already paid, the body re-runs),
    /// or `None` if a cycle, byte, command or FLOP count passes `u64`.
    pub fn checked_repeat(&self, count: u64) -> Option<ExecReport> {
        let n = count as f64;
        let m = &self.mem;
        let mem = TraceStats {
            elapsed: m.elapsed * n,
            cycles: Cycles::new(m.cycles.get().checked_mul(count)?),
            bytes_read: Bytes::new(m.bytes_read.get().checked_mul(count)?),
            bytes_written: Bytes::new(m.bytes_written.get().checked_mul(count)?),
            activations: m.activations.checked_mul(count)?,
            precharges: m.precharges.checked_mul(count)?,
            row_hits: m.row_hits.checked_mul(count)?,
            row_misses: m.row_misses.checked_mul(count)?,
            refreshes: m.refreshes,
            energy: m.energy * n,
        };
        Some(ExecReport {
            kind: self.kind,
            time: self.time * n,
            mem_time: self.mem_time * n,
            compute_time: self.compute_time * n,
            energy: self.energy * n,
            mem_energy: self.mem_energy * n,
            flops: self.flops.checked_mul(count)?,
            mem,
        })
    }

    /// Sequential composition of two reports (e.g. software chaining),
    /// or `None` if a cycle, byte, command or FLOP count passes `u64`.
    pub fn checked_then(&self, other: &ExecReport) -> Option<ExecReport> {
        Some(ExecReport {
            kind: other.kind,
            time: self.time + other.time,
            mem_time: self.mem_time + other.mem_time,
            compute_time: self.compute_time + other.compute_time,
            energy: self.energy + other.energy,
            mem_energy: self.mem_energy + other.mem_energy,
            flops: self.flops.checked_add(other.flops)?,
            mem: self.mem.checked_merge_sequential(&other.mem)?,
        })
    }

    /// [`ExecReport::checked_then`] for reports whose sums are known to
    /// fit, such as the stages of one pass iteration.
    ///
    /// # Panics
    ///
    /// Panics if a count passes `u64`.
    pub fn then(&self, other: &ExecReport) -> ExecReport {
        self.checked_then(other)
            .expect("sequential counts fit in u64")
    }
}

/// The analytical model of one accelerator kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelModel {
    kind: AcceleratorKind,
}

impl AccelModel {
    /// Creates the model for an accelerator kind.
    pub fn new(kind: AcceleratorKind) -> Self {
        Self { kind }
    }

    /// The accelerator kind this model prices.
    pub fn kind(&self) -> AcceleratorKind {
        self.kind
    }

    /// The DRAM traffic of one invocation.
    ///
    /// # Panics
    ///
    /// Panics if `params` is for a different accelerator or a byte
    /// count passes `u64` (which [`AccelParams::validate`] refuses).
    pub fn access_pattern(&self, params: &AccelParams, hw: &AccelHwConfig) -> AccessPattern {
        self.checked_access_pattern(params, hw)
            .expect("validated parameters: byte counts fit in u64")
    }

    /// [`AccelModel::access_pattern`], or `None` if a byte count passes
    /// `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `params` is for a different accelerator.
    pub(crate) fn checked_access_pattern(
        &self,
        params: &AccelParams,
        hw: &AccelHwConfig,
    ) -> Option<AccessPattern> {
        assert_eq!(params.kind(), self.kind, "parameter/accelerator mismatch");
        Some(match *params {
            AccelParams::Axpy { n, incx, incy, .. } => {
                if incx == 1 && incy == 1 {
                    // Read x and y, write y.
                    AccessPattern::sequential_rw(n.checked_mul(8)?, n.checked_mul(4)?)
                } else {
                    AccessPattern::Then(vec![
                        AccessPattern::Strided {
                            stride: 4 * incx as u64,
                            elem_bytes: 4,
                            count: n,
                            write: false,
                        },
                        AccessPattern::Strided {
                            stride: 4 * incy as u64,
                            elem_bytes: 4,
                            count: n.checked_mul(2)?, // y read + write
                            write: false,
                        },
                    ])
                }
            }
            AccelParams::Dot {
                n,
                incx,
                incy,
                complex,
            } => {
                let elem = if complex { 8 } else { 4 };
                if incx == 1 && incy == 1 {
                    AccessPattern::sequential_read(n.checked_mul(2 * elem)?)
                } else {
                    AccessPattern::Then(vec![
                        AccessPattern::Strided {
                            stride: elem * incx as u64,
                            elem_bytes: elem,
                            count: n,
                            write: false,
                        },
                        AccessPattern::Strided {
                            stride: elem * incy as u64,
                            elem_bytes: elem,
                            count: n,
                            write: false,
                        },
                    ])
                }
            }
            AccelParams::Gemv { m, n } => {
                // Matrix streamed once; x held in LM; y written once.
                let read = m.checked_mul(n)?.checked_add(n)?.checked_mul(4)?;
                AccessPattern::sequential_rw(read, m.checked_mul(4)?)
            }
            AccelParams::Spmv { rows, cols, nnz } => AccessPattern::Then(vec![
                // CSR arrays stream sequentially...
                AccessPattern::sequential_read(
                    nnz.checked_mul(8)?
                        .checked_add(rows.checked_add(1)?.checked_mul(4)?)?,
                ),
                // ...while x is gathered randomly...
                AccessPattern::Random {
                    elem_bytes: 4,
                    count: nnz,
                    region_bytes: cols.checked_mul(4)?,
                },
                // ...and y streams out.
                AccessPattern::sequential_write(rows.checked_mul(4)?),
            ]),
            AccelParams::Resmp {
                blocks,
                in_per_block,
                out_per_block,
            } => AccessPattern::sequential_rw(
                blocks.checked_mul(in_per_block)?.checked_mul(4)?,
                blocks.checked_mul(out_per_block)?.checked_mul(4)?,
            ),
            AccelParams::Fft { n, batch } => {
                let bytes = n.checked_mul(batch)?.checked_mul(8)?;
                if n.checked_mul(8)? <= hw.local_mem_bytes {
                    // Whole transform fits in a tile's LM: one pass.
                    AccessPattern::sequential_rw(bytes, bytes)
                } else {
                    // DRAM-optimized two-pass decomposition.
                    AccessPattern::Then(vec![
                        AccessPattern::sequential_rw(bytes, bytes),
                        AccessPattern::sequential_rw(bytes, bytes),
                    ])
                }
            }
            AccelParams::Reshp {
                rows,
                cols,
                elem_bytes,
            } => {
                // The data-reshape infrastructure buffers row-buffer-sized
                // tiles, so both the read and the write stream.
                let bytes = rows.checked_mul(cols)?.checked_mul(elem_bytes as u64)?;
                AccessPattern::sequential_rw(bytes, bytes)
            }
        })
    }

    /// FLOPs of one invocation.
    ///
    /// # Panics
    ///
    /// Panics if `params` is for a different accelerator or the count
    /// passes `u64` (which [`AccelParams::validate`] refuses).
    pub fn flops(&self, params: &AccelParams) -> u64 {
        self.checked_flops(params)
            .expect("validated parameters: FLOPs fit in u64")
    }

    /// [`AccelModel::flops`], or `None` if the count passes `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `params` is for a different accelerator.
    pub(crate) fn checked_flops(&self, params: &AccelParams) -> Option<u64> {
        assert_eq!(params.kind(), self.kind, "parameter/accelerator mismatch");
        match *params {
            AccelParams::Axpy { n, .. } => n.checked_mul(2),
            AccelParams::Dot { n, complex, .. } => n.checked_mul(if complex { 8 } else { 2 }),
            AccelParams::Gemv { m, n } => m.checked_mul(n)?.checked_mul(2),
            AccelParams::Spmv { nnz, .. } => nnz.checked_mul(2),
            AccelParams::Resmp {
                blocks,
                out_per_block,
                ..
            } => blocks.checked_mul(out_per_block)?.checked_mul(4),
            AccelParams::Fft { n, batch } => n
                .checked_mul(63 - n.leading_zeros() as u64)?
                .checked_mul(batch)?
                .checked_mul(5),
            AccelParams::Reshp { .. } => Some(0),
        }
    }

    /// Peak compute rate of the PE array for this operation, FLOP/s.
    pub fn compute_rate(&self, hw: &AccelHwConfig) -> f64 {
        let per_core_lane = hw.frequency.get() * hw.cores as f64 * hw.lanes_per_core as f64;
        match self.kind {
            // Streaming MACs: one FMA per lane per cycle.
            AcceleratorKind::Axpy | AcceleratorKind::Dot | AcceleratorKind::Gemv => {
                per_core_lane * 2.0
            }
            // One nonzero per core per cycle (index decode limits lanes).
            AcceleratorKind::Spmv => hw.frequency.get() * hw.cores as f64 * 2.0,
            // One interpolated output per core per cycle (4 FLOPs each).
            AcceleratorKind::Resmp => hw.frequency.get() * hw.cores as f64 * 4.0,
            // Dedicated radix pipelines: lanes butterflies/cycle, 10
            // FLOPs per butterfly.
            AcceleratorKind::Fft => per_core_lane * 10.0,
            // Pure data movement.
            AcceleratorKind::Reshp => f64::INFINITY,
        }
    }

    /// Fraction of the stack's peak bandwidth this accelerator's DMA
    /// engines sustain on their dominant stream (vault-conflict and
    /// double-buffering losses).
    pub fn bandwidth_efficiency(&self) -> f64 {
        match self.kind {
            AcceleratorKind::Axpy => 0.62,
            AcceleratorKind::Dot => 0.52,
            AcceleratorKind::Gemv => 0.90,
            AcceleratorKind::Spmv => 1.0, // gather pattern already priced
            AcceleratorKind::Resmp => 0.55,
            AcceleratorKind::Fft => 0.85,
            AcceleratorKind::Reshp => 0.88,
        }
    }

    /// Prices one invocation on the given hardware and memory device.
    ///
    /// # Panics
    ///
    /// Panics if `params` is for a different accelerator or a
    /// configuration fails validation.
    pub fn execute(
        &self,
        params: &AccelParams,
        hw: &AccelHwConfig,
        mem: &MemoryConfig,
    ) -> ExecReport {
        self.execute_scaled(params, hw, mem, 1.0)
    }

    /// Like [`AccelModel::execute`], with the DMA efficiency scaled by
    /// `dma_scale` (capped at 0.95 absolute). Processor-side deployments
    /// (PSAS) stream through the host's memory controller and prefetch
    /// queues, recovering most of the standalone-DMA derate.
    ///
    /// # Panics
    ///
    /// Panics on invalid parameters or hardware configuration.
    pub fn execute_scaled(
        &self,
        params: &AccelParams,
        hw: &AccelHwConfig,
        mem: &MemoryConfig,
        dma_scale: f64,
    ) -> ExecReport {
        hw.validate()
            .expect("invalid accelerator hardware configuration");
        params.validate().expect("invalid accelerator parameters");
        let pattern = self.access_pattern(params, hw);
        let mut mem_stats = analytic::try_estimate(mem, &pattern).expect("validated memory config");
        // Apply the DMA-efficiency derate to the memory time.
        let eff = (self.bandwidth_efficiency() * dma_scale).min(0.95);
        mem_stats.elapsed = mem_stats.elapsed / eff;
        let flops = self.flops(params);
        let compute_time = if flops == 0 {
            Seconds::ZERO
        } else {
            Seconds::new(flops as f64 / self.compute_rate(hw))
        };
        let busy = mem_stats.elapsed.max(compute_time);
        let time = busy + CONFIG_LATENCY;

        // Recharge DRAM background power over the stretched interval.
        let mem_energy =
            mem.energy
                .trace_energy(mem_stats.activations, mem_stats.bytes_moved().get(), busy);
        mem_stats.energy = mem_energy;

        let prof = profile_at(self.kind, hw.frequency);
        let core_energy = prof.e_byte_datapath * mem_stats.bytes_moved().get() as f64
            + prof.e_flop * flops as f64
            + prof.p_leakage.for_duration(time);

        ExecReport {
            kind: self.kind,
            time,
            mem_time: mem_stats.elapsed,
            compute_time,
            energy: mem_energy + core_energy,
            mem_energy,
            flops,
            mem: mem_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(params: AccelParams) -> ExecReport {
        AccelModel::new(params.kind()).execute(
            &params,
            &AccelHwConfig::mealib_default(),
            &MemoryConfig::hmc_stack(),
        )
    }

    #[test]
    fn axpy_is_memory_bound_on_the_stack() {
        let r = run(AccelParams::Axpy {
            n: 1 << 28,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        });
        assert!(r.mem_time > r.compute_time, "AXPY must be memory-bound");
        // 12 bytes per 2 flops at ~300+ GB/s → tens of GFLOPS.
        let g = r.gflops().get();
        assert!((20.0..200.0).contains(&g), "AXPY {g:.1} GFLOPS");
    }

    #[test]
    fn reshp_throughput_tracks_bandwidth() {
        let r = run(AccelParams::Reshp {
            rows: 16384,
            cols: 16384,
            elem_bytes: 4,
        });
        assert_eq!(r.flops, 0);
        let gbs = r.gbytes_per_sec();
        assert!((200.0..512.0).contains(&gbs), "RESHP {gbs:.0} GB/s");
    }

    #[test]
    fn spmv_is_slowest_per_byte() {
        let dense = run(AccelParams::Dot {
            n: 1 << 26,
            incx: 1,
            incy: 1,
            complex: false,
        });
        let sparse = run(AccelParams::Spmv {
            rows: 1 << 20,
            cols: 1 << 20,
            nnz: 12 << 20,
        });
        let dense_bw = dense.mem.bytes_moved().get() as f64 / dense.time.get();
        let sparse_bw = sparse.mem.bytes_moved().get() as f64 / sparse.time.get();
        assert!(
            sparse_bw < 0.5 * dense_bw,
            "gather must be far below streaming: {sparse_bw:.2e} vs {dense_bw:.2e}"
        );
    }

    #[test]
    fn fft_hits_the_fig11_throughput_scale() {
        let r = run(AccelParams::Fft {
            n: 8192,
            batch: 8192,
        });
        let g = r.gflops().get();
        // Fig 11a: the FFT design space tops out around 2000+ GFLOPS.
        assert!((500.0..3000.0).contains(&g), "FFT {g:.0} GFLOPS");
        let eff = r.gflops_per_watt();
        assert!((10.0..80.0).contains(&eff), "FFT {eff:.1} GFLOPS/W");
    }

    #[test]
    fn table5_power_scale_is_respected() {
        // Table 5 lists per-accelerator (incl. DRAM) powers between ~8 W
        // (RESMP) and ~24 W (GEMV). Our computed powers must land in that
        // decade, and GEMV must exceed RESMP.
        let gemv = run(AccelParams::Gemv { m: 16384, n: 16384 });
        let resmp = run(AccelParams::Resmp {
            blocks: 16384,
            in_per_block: 16384,
            out_per_block: 16384,
        });
        let pg = gemv.power().get();
        let pr = resmp.power().get();
        assert!((5.0..40.0).contains(&pg), "GEMV power {pg:.1} W");
        assert!((3.0..40.0).contains(&pr), "RESMP power {pr:.1} W");
        assert!(pg > pr, "GEMV ({pg:.1} W) must out-draw RESMP ({pr:.1} W)");
    }

    #[test]
    fn strided_dot_is_slower_than_unit_stride() {
        let unit = run(AccelParams::Dot {
            n: 1 << 22,
            incx: 1,
            incy: 1,
            complex: true,
        });
        let strided = run(AccelParams::Dot {
            n: 1 << 22,
            incx: 1,
            incy: 64,
            complex: true,
        });
        assert!(strided.time > unit.time);
    }

    #[test]
    fn config_latency_floors_small_invocations() {
        let tiny = run(AccelParams::Axpy {
            n: 16,
            alpha: 1.0,
            incx: 1,
            incy: 1,
        });
        assert!(tiny.time >= CONFIG_LATENCY);
    }

    #[test]
    fn report_composition() {
        let a = run(AccelParams::Axpy {
            n: 1 << 20,
            alpha: 1.0,
            incx: 1,
            incy: 1,
        });
        let b = run(AccelParams::Dot {
            n: 1 << 20,
            incx: 1,
            incy: 1,
            complex: false,
        });
        let c = a.then(&b);
        assert_eq!(c.flops, a.flops + b.flops);
        assert!((c.time.get() - (a.time + b.time).get()).abs() < 1e-15);
        assert_eq!(c.kind, b.kind);
    }

    #[test]
    #[should_panic(expected = "parameter/accelerator mismatch")]
    fn mismatched_params_panic() {
        let model = AccelModel::new(AcceleratorKind::Fft);
        let _ = model.flops(&AccelParams::Gemv { m: 4, n: 4 });
    }

    #[test]
    fn energy_split_is_consistent() {
        let r = run(AccelParams::Gemv { m: 8192, n: 8192 });
        assert!(r.mem_energy.get() > 0.0);
        assert!(
            r.energy.get() > r.mem_energy.get(),
            "core energy must be nonzero"
        );
    }
}
