//! Roofline execution of library operations on a host platform.

use mealib_accel::AccelParams;
use mealib_memsim::{analytic, AccessPattern};
use mealib_types::{Gflops, Joules, Seconds, Watts};

use crate::platform::Platform;
use crate::profiles::{self, OpEfficiency};

pub use crate::profiles::CodeFlavor;

/// Result of one host-side execution.
#[derive(Debug, Clone, PartialEq)]
pub struct HostReport {
    /// Platform name.
    pub platform: String,
    /// End-to-end time.
    pub time: Seconds,
    /// Memory time in isolation.
    pub mem_time: Seconds,
    /// Compute time in isolation.
    pub compute_time: Seconds,
    /// Package + DRAM energy.
    pub energy: Joules,
    /// FLOPs executed.
    pub flops: u64,
    /// DRAM bytes moved.
    pub bytes: u64,
}

impl HostReport {
    /// Achieved floating-point throughput.
    pub fn gflops(&self) -> Gflops {
        Gflops::from_flops(self.flops as f64, self.time)
    }

    /// Average power over the execution.
    pub fn power(&self) -> Watts {
        self.energy.over(self.time)
    }

    /// Energy efficiency in GFLOPS/W.
    pub fn gflops_per_watt(&self) -> f64 {
        self.gflops().per_watt(self.power())
    }

    /// Useful data rate (the paper's RESHP metric), GB/s.
    pub fn gbytes_per_sec(&self) -> f64 {
        self.bytes as f64 / self.time.get() * 1e-9
    }

    /// Sequential composition.
    pub fn then(&self, other: &HostReport) -> HostReport {
        HostReport {
            platform: self.platform.clone(),
            time: self.time + other.time,
            mem_time: self.mem_time + other.mem_time,
            compute_time: self.compute_time + other.compute_time,
            energy: self.energy + other.energy,
            flops: self.flops + other.flops,
            bytes: self.bytes + other.bytes,
        }
    }

    /// `count` back-to-back repetitions.
    pub fn repeat(&self, count: u64) -> HostReport {
        let n = count as f64;
        HostReport {
            platform: self.platform.clone(),
            time: self.time * n,
            mem_time: self.mem_time * n,
            compute_time: self.compute_time * n,
            energy: self.energy * n,
            flops: self.flops * count,
            bytes: self.bytes * count,
        }
    }

    /// Splits this roofline interval into `compute` (the
    /// compute-limited portion) and `dma` (the remainder the memory
    /// system keeps the core waiting for), with energy attributed
    /// proportionally. The phase sums equal `time` / `energy` exactly.
    pub fn breakdown(&self) -> mealib_obs::Breakdown {
        use mealib_obs::Phase;
        let mut bd = mealib_obs::Breakdown::new();
        let compute = self.compute_time.min(self.time);
        let dma = self.time - compute;
        let compute_energy = if self.time.get() > 0.0 {
            self.energy * (compute.get() / self.time.get())
        } else {
            Joules::ZERO
        };
        bd.add_phase(Phase::Compute, compute, compute_energy);
        bd.add_phase(Phase::Dma, dma, self.energy - compute_energy);
        bd
    }

    /// Adds this run's host FLOP and byte counters to `bd`.
    pub fn add_counters(&self, bd: &mut mealib_obs::Breakdown) {
        use mealib_obs::{Counter, CounterKey};
        bd.add_count(CounterKey::total(Counter::HostFlops), self.flops);
        bd.add_count(CounterKey::total(Counter::HostBytes), self.bytes);
    }
}

/// Runs `op` on `platform` with the given code flavour.
///
/// Time is the roofline maximum of the memory and compute times; energy
/// is RAPL-style package power over the interval plus DRAM energy from
/// the memory model.
pub fn run_op(platform: &Platform, op: &AccelParams, flavor: CodeFlavor) -> HostReport {
    op.validate().expect("invalid operation parameters");
    let OpEfficiency {
        bw_fraction,
        compute_fraction,
    } = profiles::efficiency(platform.class, op.kind(), flavor);

    let bytes = profiles::traffic_bytes(op, flavor);
    let flops = profiles::flops(op);

    let bw = platform.peak_bandwidth().get() * bw_fraction;
    let mem_time = Seconds::new(bytes as f64 / bw);

    let thread_factor = match flavor {
        CodeFlavor::Library => platform.thread_efficiency.max(1.0 / platform.cores as f64),
        CodeFlavor::Naive => 1.0 / platform.cores as f64,
    };
    let compute_time = if flops == 0 {
        Seconds::ZERO
    } else {
        Seconds::new(flops as f64 / (platform.peak_flops() * compute_fraction * thread_factor))
    };

    let time = mem_time.max(compute_time);

    // Package power: memory-bound phases keep the cores partly busy
    // (stalled but clocked); compute-bound phases run flat out.
    let util = if time.is_zero() {
        0.0
    } else {
        let compute_share = compute_time / time;
        let threads_share = match flavor {
            CodeFlavor::Library => 1.0,
            CodeFlavor::Naive => 1.0 / platform.cores as f64,
        };
        (compute_share * 1.0 + (1.0 - compute_share) * 0.55) * threads_share
    };
    let package_energy = platform.package.at_utilization(util).for_duration(time);

    // DRAM energy for the same traffic.
    let dram = analytic::try_estimate(&platform.mem, &AccessPattern::sequential_read(bytes))
        .expect("validated platform memory config");
    let dram_energy = platform
        .mem
        .energy
        .trace_energy(dram.activations, bytes, time);

    HostReport {
        platform: platform.name.clone(),
        time,
        mem_time,
        compute_time,
        energy: package_energy + dram_energy,
        flops,
        bytes,
    }
}

/// Prices a custom host job from first principles: `flops` of arithmetic
/// and `bytes` of DRAM traffic at the given sustained fractions of the
/// platform peaks, plus `calls` invocations of fixed `per_call` overhead
/// (function-call and loop bookkeeping for fine-grained library calls).
///
/// Used by workloads whose phases are not Table 1 operations (e.g.
/// STAP's `cherk`/`ctrsm`, or host-side loops of millions of tiny
/// `cdotc` calls).
pub fn run_custom(
    platform: &Platform,
    flops: u64,
    bytes: u64,
    compute_fraction: f64,
    bw_fraction: f64,
    calls: u64,
    per_call: Seconds,
) -> HostReport {
    assert!(
        compute_fraction > 0.0 && bw_fraction > 0.0,
        "fractions must be positive"
    );
    let mem_time = Seconds::new(bytes as f64 / (platform.peak_bandwidth().get() * bw_fraction));
    let compute_time = if flops == 0 {
        Seconds::ZERO
    } else {
        Seconds::new(
            flops as f64 / (platform.peak_flops() * compute_fraction * platform.thread_efficiency),
        )
    };
    let overhead = per_call * calls as f64;
    let time = mem_time.max(compute_time) + overhead;
    let util = if time.is_zero() {
        0.0
    } else {
        let compute_share = compute_time / time;
        compute_share + (1.0 - compute_share) * 0.55
    };
    let package_energy = platform.package.at_utilization(util).for_duration(time);
    let dram = analytic::try_estimate(&platform.mem, &AccessPattern::sequential_read(bytes))
        .expect("validated platform memory config");
    let dram_energy = platform
        .mem
        .energy
        .trace_energy(dram.activations, bytes, time);
    HostReport {
        platform: platform.name.clone(),
        time,
        mem_time,
        compute_time,
        energy: package_energy + dram_energy,
        flops,
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn axpy(n: u64) -> AccelParams {
        AccelParams::Axpy {
            n,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        }
    }

    #[test]
    fn breakdown_partitions_the_roofline_interval() {
        use mealib_obs::{Counter, Phase};
        let r = run_op(&Platform::haswell(), &axpy(1 << 24), CodeFlavor::Library);
        let bd = r.breakdown();
        let t = bd.phase(Phase::Compute).time + bd.phase(Phase::Dma).time;
        let e = bd.phase(Phase::Compute).energy + bd.phase(Phase::Dma).energy;
        assert!((t.get() - r.time.get()).abs() <= 1e-12 * r.time.get());
        assert!((e.get() - r.energy.get()).abs() <= 1e-9 * r.energy.get());
        // AXPY is bandwidth-bound on the host: dma dominates.
        assert!(bd.phase(Phase::Dma).time > bd.phase(Phase::Compute).time);

        let mut got = mealib_obs::Breakdown::new();
        r.add_counters(&mut got);
        assert_eq!(got.counter(Counter::HostFlops), r.flops);
        assert_eq!(got.counter(Counter::HostBytes), r.bytes);
    }

    #[test]
    fn memory_bound_ops_are_bandwidth_limited_on_haswell() {
        let h = Platform::haswell();
        let r = run_op(&h, &axpy(1 << 28), CodeFlavor::Library);
        assert!(r.mem_time > r.compute_time, "AXPY is memory-bound");
        // ~3 GB at ~22.5 GB/s ≈ 0.14 s.
        assert!((0.05..0.5).contains(&r.time.get()), "{}", r.time);
    }

    #[test]
    fn library_beats_naive_substantially() {
        let h = Platform::haswell();
        // A compute-heavy op shows the full SIMD+threads gap (Fig. 1).
        let op = AccelParams::Fft {
            n: 8192,
            batch: 8192,
        };
        let lib = run_op(&h, &op, CodeFlavor::Library);
        let naive = run_op(&h, &op, CodeFlavor::Naive);
        let speedup = naive.time / lib.time;
        assert!(
            (4.0..80.0).contains(&speedup),
            "library speedup {speedup:.1}x out of Fig 1 range"
        );
    }

    #[test]
    fn haswell_fft_power_is_tens_of_watts() {
        let h = Platform::haswell();
        let r = run_op(
            &h,
            &AccelParams::Fft {
                n: 8192,
                batch: 8192,
            },
            CodeFlavor::Library,
        );
        let p = r.power().get();
        // Paper: 48 W for the FFT operation on Haswell.
        assert!((25.0..70.0).contains(&p), "Haswell FFT power {p:.1} W");
    }

    #[test]
    fn xeon_phi_draws_more_power_than_haswell() {
        let op = AccelParams::Fft {
            n: 8192,
            batch: 8192,
        };
        let h = run_op(&Platform::haswell(), &op, CodeFlavor::Library);
        let p = run_op(&Platform::xeon_phi(), &op, CodeFlavor::Library);
        assert!(
            p.power().get() > 1.5 * h.power().get(),
            "Phi {} vs Haswell {}",
            p.power(),
            h.power()
        );
    }

    #[test]
    fn phi_modestly_beats_haswell_on_axpy() {
        // Paper: 2.23x, the best Phi result.
        let op = axpy(1 << 28);
        let h = run_op(&Platform::haswell(), &op, CodeFlavor::Library);
        let p = run_op(&Platform::xeon_phi(), &op, CodeFlavor::Library);
        let ratio = h.time / p.time;
        assert!((1.2..4.0).contains(&ratio), "Phi AXPY speedup {ratio:.2}");
    }

    #[test]
    fn phi_loses_badly_on_reshp() {
        // Paper: Phi RESHP at 2.4% of Haswell.
        let op = AccelParams::Reshp {
            rows: 16384,
            cols: 16384,
            elem_bytes: 4,
        };
        let h = run_op(&Platform::haswell(), &op, CodeFlavor::Library);
        let p = run_op(&Platform::xeon_phi(), &op, CodeFlavor::Library);
        let relative = h.time / p.time;
        assert!(relative < 0.1, "Phi RESHP relative perf {relative:.3}");
    }

    #[test]
    fn report_algebra() {
        let h = Platform::haswell();
        let r = run_op(&h, &axpy(1 << 20), CodeFlavor::Library);
        let twice = r.repeat(2);
        assert!((twice.time.get() - 2.0 * r.time.get()).abs() < 1e-12);
        assert_eq!(twice.flops, 2 * r.flops);
        let chained = r.then(&r);
        assert_eq!(chained.bytes, twice.bytes);
    }

    #[test]
    fn run_custom_adds_call_overhead() {
        let h = Platform::haswell();
        let base = run_custom(&h, 1 << 20, 1 << 20, 0.5, 0.5, 0, Seconds::ZERO);
        let calls = run_custom(
            &h,
            1 << 20,
            1 << 20,
            0.5,
            0.5,
            1_000_000,
            Seconds::from_nanos(50.0),
        );
        assert!((calls.time.get() - base.time.get() - 0.05).abs() < 1e-6);
        assert!(calls.energy.get() > base.energy.get());
    }

    #[test]
    fn time_grows_with_problem_size() {
        let h = Platform::haswell();
        for (small, large) in [
            (axpy(1 << 20), axpy(1 << 24)),
            (
                AccelParams::Fft { n: 1024, batch: 64 },
                AccelParams::Fft {
                    n: 1024,
                    batch: 1024,
                },
            ),
            (
                AccelParams::Gemv { m: 1024, n: 1024 },
                AccelParams::Gemv { m: 8192, n: 8192 },
            ),
        ] {
            let ts = run_op(&h, &small, CodeFlavor::Library).time;
            let tl = run_op(&h, &large, CodeFlavor::Library).time;
            assert!(tl > ts, "{:?}: {tl} !> {ts}", large.kind());
        }
    }

    #[test]
    fn naive_never_beats_the_library() {
        let h = Platform::haswell();
        for op in [
            axpy(1 << 22),
            AccelParams::Dot {
                n: 1 << 22,
                incx: 1,
                incy: 1,
                complex: false,
            },
            AccelParams::Gemv { m: 4096, n: 4096 },
            AccelParams::Spmv {
                rows: 1 << 18,
                cols: 1 << 18,
                nnz: 13 << 18,
            },
            AccelParams::Resmp {
                blocks: 1024,
                in_per_block: 1024,
                out_per_block: 1024,
            },
            AccelParams::Fft {
                n: 4096,
                batch: 256,
            },
            AccelParams::Reshp {
                rows: 4096,
                cols: 4096,
                elem_bytes: 4,
            },
        ] {
            let lib = run_op(&h, &op, CodeFlavor::Library).time;
            let naive = run_op(&h, &op, CodeFlavor::Naive).time;
            assert!(naive.get() >= lib.get(), "{:?}", op.kind());
        }
    }

    #[test]
    fn reshp_reports_gbps_not_gflops() {
        let h = Platform::haswell();
        let op = AccelParams::Reshp {
            rows: 16384,
            cols: 16384,
            elem_bytes: 4,
        };
        let r = run_op(&h, &op, CodeFlavor::Library);
        assert_eq!(r.flops, 0);
        assert_eq!(r.gflops(), Gflops::ZERO);
        let gbs = r.gbytes_per_sec();
        assert!(
            (1.0..10.0).contains(&gbs),
            "Haswell transpose {gbs:.1} GB/s"
        );
    }
}
