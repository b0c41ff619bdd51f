//! Design-space exploration (§5.3, Figure 11).
//!
//! "Given a memory bandwidth of 510 GB/s, we explored various design
//! parameters, such as accelerator frequency, row buffer size, number of
//! accelerator cores, and block size." This module sweeps those knobs
//! for any accelerator and reports (performance, power) points, from
//! which the harness draws the Fig. 11 scatter plots for FFT and SPMV.
//!
//! Two sweep strategies share one grid:
//!
//! * [`sweep`] evaluates every point in full, including the optional
//!   cycle-engine bandwidth cross-check;
//! * [`sweep_pruned`] first prices every point with the closed-form
//!   static bounds from [`point_bounds`] plus the analytic model, then
//!   replays the cycle engine only for points no certified point
//!   dominates. Pruning is provably frontier-preserving: a point is
//!   skipped only when its certified price is dominated under the same
//!   tolerance [`pareto_frontier`] uses, so the pruned sweep's frontier
//!   is bit-identical to the full sweep's.

use mealib_memsim::{AccessPattern, MemoryConfig};
use mealib_tdl::AcceleratorKind;
use mealib_types::{Hertz, Interval};

use crate::hw::AccelHwConfig;
use crate::model::{AccelModel, CONFIG_LATENCY};
use crate::params::AccelParams;
use crate::power::profile_at;

/// A point `q` dominates `p` when `q.gflops >= p.gflops` and
/// `q.power_w < p.power_w * DOMINANCE_TOLERANCE`. Shared between
/// [`pareto_frontier`] and the [`sweep_pruned`] skip rule so pruning
/// can never disagree with frontier membership.
const DOMINANCE_TOLERANCE: f64 = 0.999;

/// One explored design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Accelerator clock.
    pub frequency: Hertz,
    /// Core count.
    pub cores: u32,
    /// Block size, elements.
    pub block_elems: u64,
    /// DRAM row-buffer size, bytes.
    pub row_bytes: u64,
    /// Achieved GFLOPS.
    pub gflops: f64,
    /// Average power, W.
    pub power_w: f64,
    /// Cycle-engine cross-check: achieved GB/s replaying a sequential
    /// stream over this point's memory configuration. `0.0` when the
    /// check is disabled ([`SweepOptions::engine_check_bytes`] = 0).
    pub engine_gbps: f64,
}

impl DesignPoint {
    /// Energy efficiency of the point.
    pub fn gflops_per_watt(&self) -> f64 {
        if self.power_w > 0.0 {
            self.gflops / self.power_w
        } else {
            0.0
        }
    }
}

/// The sweep grid. Defaults mirror the paper's axes: frequencies
/// 0.8/1.2/1.6/2.0 GHz, core counts 4-32, two block sizes, two row-buffer
/// sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepGrid {
    /// Clock frequencies to explore.
    pub frequencies_ghz: Vec<f64>,
    /// Core counts to explore.
    pub cores: Vec<u32>,
    /// Block sizes to explore.
    pub block_elems: Vec<u64>,
    /// DRAM row-buffer sizes to explore.
    pub row_bytes: Vec<u64>,
}

impl Default for SweepGrid {
    fn default() -> Self {
        Self {
            frequencies_ghz: vec![0.8, 1.2, 1.6, 2.0],
            cores: vec![4, 8, 16, 32],
            block_elems: vec![1024, 4096],
            row_bytes: vec![2048, 4096],
        }
    }
}

/// Execution options for [`sweep`] and [`sweep_pruned`]: worker-pool
/// width and the optional cycle-engine cross-check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOptions {
    /// Worker threads for the design-point fan-out (`1` = serial).
    /// Points are independent, so the output is identical for any
    /// value — only wall-clock time changes.
    pub jobs: usize,
    /// Bytes of sequential traffic to replay through the cycle engine
    /// at every point (fills [`DesignPoint::engine_gbps`]); `0` skips
    /// the replay.
    pub engine_check_bytes: u64,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            jobs: 1,
            engine_check_bytes: 0,
        }
    }
}

/// Sweeps the design space of one accelerator over the grid, pricing
/// `workload` at every point. Design points are priced on up to
/// `opts.jobs` worker threads (grid order is preserved regardless), and
/// when `opts.engine_check_bytes > 0` each point additionally replays
/// that much sequential traffic through the cycle engine to cross-check
/// the analytic bandwidth model. `SweepOptions::default()` is serial
/// with no cross-check.
///
/// # Panics
///
/// Panics if `workload` does not belong to `kind`.
pub fn sweep(
    kind: AcceleratorKind,
    workload: &AccelParams,
    grid: &SweepGrid,
    base_mem: &MemoryConfig,
    opts: &SweepOptions,
) -> Vec<DesignPoint> {
    assert_eq!(workload.kind(), kind, "workload/accelerator mismatch");
    let model = AccelModel::new(kind);
    let cells = grid_cells(grid);
    mealib_types::par_map(&cells, opts.jobs, |cell| {
        let (hw, mem) = configure(base_mem, *cell);
        let report = model.execute(workload, &hw, &mem);
        DesignPoint {
            frequency: hw.frequency,
            cores: cell.1,
            block_elems: cell.2,
            row_bytes: cell.3,
            gflops: report.gflops().get(),
            power_w: report.power().get(),
            engine_gbps: engine_check(&mem, opts.engine_check_bytes),
        }
    })
}

/// The Cartesian product of the grid axes, in grid order.
fn grid_cells(grid: &SweepGrid) -> Vec<(f64, u32, u64, u64)> {
    let mut cells = Vec::new();
    for &f in &grid.frequencies_ghz {
        for &cores in &grid.cores {
            for &block in &grid.block_elems {
                for &row in &grid.row_bytes {
                    cells.push((f, cores, block, row));
                }
            }
        }
    }
    cells
}

/// The hardware and memory configuration one grid cell evaluates.
fn configure(
    base_mem: &MemoryConfig,
    (f, cores, block, row): (f64, u32, u64, u64),
) -> (AccelHwConfig, MemoryConfig) {
    let hw = AccelHwConfig::mealib_default()
        .with_frequency(Hertz::from_ghz(f))
        .with_cores(cores)
        .with_block_elems(block);
    let mut mem = base_mem.clone();
    if let mealib_memsim::AddressMapping::Interleaved {
        ref mut row_bytes, ..
    } = mem.mapping
    {
        *row_bytes = row;
    }
    (hw, mem)
}

/// Replays `bytes` of sequential reads through the fast engine over
/// `mem` and returns the achieved bandwidth in GB/s (`0.0` when
/// `bytes == 0`). The request size is one row buffer, so the replay
/// exercises activate/precharge scheduling, not just the data bus.
fn engine_check(mem: &MemoryConfig, bytes: u64) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    let step = mem.mapping.row_bytes();
    let trace: mealib_memsim::TraceBuffer = (0..bytes.div_ceil(step))
        .map(|i| mealib_memsim::Request::read(i * step, step.min(bytes - i * step)))
        .collect();
    mealib_memsim::simulate(mem, &trace, &mealib_memsim::SimOptions::fast())
        .expect("validated memory configuration")
        .stats
        .achieved_bandwidth()
        .as_gb_per_sec()
}

/// Certified static bounds on one design point: closed-form intervals
/// on achieved GFLOPS and average power derived from the roofline of
/// the memory layer (peak bandwidth, worst-case per-burst timing), the
/// PE-array compute rate, and the Table-5 synthesis constants — without
/// running the analytic DRAM estimator or the cycle engine.
///
/// The intervals are proved (by the bounds tests and re-checked at
/// every [`sweep_pruned`] point) to contain the analytic model's price
/// for the point; that containment is what licenses dominance pruning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointBounds {
    /// Certified interval on achieved GFLOPS.
    pub gflops: Interval,
    /// Certified interval on average power, W.
    pub power_w: Interval,
}

impl PointBounds {
    /// Whether an evaluated `(gflops, power_w)` price lies inside both
    /// certified intervals.
    pub fn contains(&self, gflops: f64, power_w: f64) -> bool {
        self.gflops.contains(gflops) && self.power_w.contains(power_w)
    }
}

/// Worst-case DRAM burst commands a pattern can issue, plus the leaf
/// count (each leaf pays at most one startup sequence and one rounding
/// cycle in the analytic model).
fn burst_budget(pattern: &AccessPattern, burst_bytes: u64) -> (u64, u64) {
    match pattern {
        AccessPattern::Sequential { read, written } => ((read + written).div_ceil(burst_bytes), 1),
        AccessPattern::Strided {
            elem_bytes, count, ..
        }
        | AccessPattern::Random {
            elem_bytes, count, ..
        } => (count * elem_bytes.div_ceil(burst_bytes).max(1), 1),
        AccessPattern::Then(parts) => parts
            .iter()
            .map(|p| burst_budget(p, burst_bytes))
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1)),
    }
}

/// Computes the certified static bounds for one design point.
///
/// Lower time bound: the traffic cannot beat the layer's peak bandwidth
/// (derated by the accelerator's DMA efficiency) nor the PE array's
/// compute rate, and every invocation pays the configuration latency.
/// Upper time bound: every burst at worst pays a full
/// `max(tRC, tFAW) + tRCD + tCL + tBURST` window, stretched by refresh.
/// The power interval combines the exact datapath/byte/FLOP energies
/// with the leakage and background floors over those time bounds.
///
/// # Panics
///
/// Panics if `workload` does not belong to `kind`.
pub fn point_bounds(
    kind: AcceleratorKind,
    workload: &AccelParams,
    hw: &AccelHwConfig,
    mem: &MemoryConfig,
) -> PointBounds {
    let model = AccelModel::new(kind);
    let pattern = model.access_pattern(workload, hw);
    let bytes = pattern.useful_bytes() as f64;
    let flops = model.flops(workload);
    let eff = model.bandwidth_efficiency().min(0.95);
    let t = &mem.timing;

    let compute_s = if flops == 0 {
        0.0
    } else {
        flops as f64 / model.compute_rate(hw)
    };
    let mem_lo_s = bytes / mem.peak_bandwidth().get() / eff;
    let time_lo = CONFIG_LATENCY.get() + mem_lo_s.max(compute_s);

    let (bursts, leaves) = burst_budget(&pattern, t.burst_bytes);
    let delta = (t.t_rc().max(t.t_faw) + t.t_rcd + t.t_cl + t.t_burst) as f64;
    let refresh_factor = 1.0 + t.t_rfc as f64 / t.t_refi as f64;
    let worst_cycles = ((bursts + leaves) as f64 * delta) * refresh_factor + leaves as f64;
    let mem_hi_s = worst_cycles * t.t_ck.get() / eff;
    let time_hi = CONFIG_LATENCY.get() + mem_hi_s.max(compute_s);

    let gflops = if flops == 0 {
        Interval::exact(0.0)
    } else {
        Interval::new(flops as f64 / time_hi * 1e-9, flops as f64 / time_lo * 1e-9)
    };

    // Exact fixed energies: every useful byte pays the DRAM byte chain
    // and the accelerator datapath, every FLOP pays the FLOP energy.
    let prof = profile_at(kind, hw.frequency);
    let e = &mem.energy;
    let e_byte = (e.e_byte_core + e.e_byte_transport + e.e_byte_link + prof.e_byte_datapath).get();
    let e_fixed = e_byte * bytes + prof.e_flop.get() * flops as f64;
    let p_leak = prof.p_leakage.get();
    let p_bg = e.p_background.get();
    // Background power is charged over the busy interval, which is the
    // total time minus the configuration latency.
    let busy_frac_lo = ((time_lo - CONFIG_LATENCY.get()) / time_lo).max(0.0);
    let power_lo = e_fixed / time_hi + p_leak + p_bg * busy_frac_lo;
    // At most one activation per burst command.
    let power_hi = (e_fixed + e.e_act.get() * bursts as f64) / time_lo + p_leak + p_bg;

    PointBounds {
        gflops,
        power_w: Interval::new(power_lo, power_hi),
    }
}

/// Result of a bounds-pruned sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedSweep {
    /// The fully-evaluated design points, in grid order. Pruned points
    /// are absent: each is provably dominated by a point in this set,
    /// so it cannot sit on the Pareto frontier.
    pub points: Vec<DesignPoint>,
    /// Grid points fully evaluated, cycle-engine replay included.
    pub simulated: usize,
    /// Grid points whose cycle-engine replay was skipped.
    pub pruned: usize,
}

/// Like [`sweep`], but prunes the expensive cycle-engine replay
/// for provably-dominated grid points.
///
/// Every point is first priced statically: the closed-form
/// [`point_bounds`] interval plus the analytic model (no cycle engine).
/// A point whose certified price is dominated — under the exact
/// [`pareto_frontier`] tolerance — by an already-retained point is
/// skipped; a point whose analytic price escapes its certified interval
/// is never pruned (and never prunes others). Retained points then run
/// the same full evaluation as [`sweep`], so the pruned sweep's
/// Pareto frontier is bit-identical to the full sweep's, including the
/// engine cross-check values.
///
/// # Panics
///
/// Panics if `workload` does not belong to `kind`.
pub fn sweep_pruned(
    kind: AcceleratorKind,
    workload: &AccelParams,
    grid: &SweepGrid,
    base_mem: &MemoryConfig,
    opts: &SweepOptions,
) -> PrunedSweep {
    assert_eq!(workload.kind(), kind, "workload/accelerator mismatch");
    let model = AccelModel::new(kind);
    let cells = grid_cells(grid);

    // Static phase: price every cell with the analytic model and
    // certify the price against the closed-form bounds.
    let priced = mealib_types::par_map(&cells, opts.jobs, |cell| {
        let (hw, mem) = configure(base_mem, *cell);
        let report = model.execute(workload, &hw, &mem);
        let bounds = point_bounds(kind, workload, &hw, &mem);
        let gflops = report.gflops().get();
        let power_w = report.power().get();
        (gflops, power_w, bounds.contains(gflops, power_w))
    });

    // Prune phase: visit cells from cheapest upward so low-power
    // high-throughput points are retained before the points they
    // dominate are considered.
    let mut order: Vec<usize> = (0..cells.len()).collect();
    order.sort_by(|&a, &b| {
        priced[a]
            .1
            .total_cmp(&priced[b].1)
            .then(priced[b].0.total_cmp(&priced[a].0))
            .then(a.cmp(&b))
    });
    let mut retained: Vec<usize> = Vec::new();
    for idx in order {
        let (gflops, power_w, certified) = priced[idx];
        let dominated = certified
            && retained
                .iter()
                .any(|&q| priced[q].0 >= gflops && priced[q].1 < power_w * DOMINANCE_TOLERANCE);
        if !dominated {
            retained.push(idx);
        }
    }
    retained.sort_unstable();

    // Full evaluation (cycle-engine replay included) for the survivors.
    let points = mealib_types::par_map(&retained, opts.jobs, |&idx| {
        let (hw, mem) = configure(base_mem, cells[idx]);
        DesignPoint {
            frequency: hw.frequency,
            cores: cells[idx].1,
            block_elems: cells[idx].2,
            row_bytes: cells[idx].3,
            gflops: priced[idx].0,
            power_w: priced[idx].1,
            engine_gbps: engine_check(&mem, opts.engine_check_bytes),
        }
    });
    PrunedSweep {
        simulated: points.len(),
        pruned: cells.len() - points.len(),
        points,
    }
}

/// The Pareto frontier of a design space: points no other point
/// dominates (higher GFLOPS at lower power). Sorted by power.
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut frontier: Vec<DesignPoint> = points
        .iter()
        .filter(|p| {
            !points
                .iter()
                .any(|q| q.gflops >= p.gflops && q.power_w < p.power_w * DOMINANCE_TOLERANCE)
        })
        .cloned()
        .collect();
    frontier.sort_by(|a, b| a.power_w.total_cmp(&b.power_w));
    frontier
}

/// The best-performing point within a power budget, if any fits.
pub fn best_under_budget(points: &[DesignPoint], budget_w: f64) -> Option<&DesignPoint> {
    points
        .iter()
        .filter(|p| p.power_w <= budget_w)
        .max_by(|a, b| a.gflops.total_cmp(&b.gflops))
}

/// The reference FFT workload of Table 2 (8192×8192 batch).
pub fn fft_reference_workload() -> AccelParams {
    AccelParams::Fft {
        n: 8192,
        batch: 8192,
    }
}

/// The reference SPMV workload: an `rgg_n_2_20`-class matrix
/// (2²⁰ rows, average degree ~13).
pub fn spmv_reference_workload() -> AccelParams {
    AccelParams::Spmv {
        rows: 1 << 20,
        cols: 1 << 20,
        nnz: 13 * (1 << 20),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full FFT sweep over the default grid, serial, no engine
    /// cross-check.
    fn fft_sweep() -> Vec<DesignPoint> {
        sweep(
            AcceleratorKind::Fft,
            &fft_reference_workload(),
            &SweepGrid::default(),
            &MemoryConfig::hmc_stack(),
            &SweepOptions::default(),
        )
    }

    #[test]
    fn sweep_covers_the_grid() {
        assert_eq!(fft_sweep().len(), 4 * 4 * 2 * 2);
    }

    #[test]
    fn fft_efficiency_range_matches_fig11a() {
        // Paper: FFT energy efficiency varies from 10 to 56 GFLOPS/W
        // across the design space.
        let pts = fft_sweep();
        let effs: Vec<f64> = pts.iter().map(DesignPoint::gflops_per_watt).collect();
        let min = effs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = effs.iter().cloned().fold(0.0_f64, f64::max);
        assert!(
            max / min > 1.5,
            "design choices must matter: {min:.1}..{max:.1}"
        );
        assert!(
            max < 120.0 && min > 2.0,
            "efficiency decade: {min:.1}..{max:.1}"
        );
    }

    #[test]
    fn spmv_efficiency_is_an_order_below_fft() {
        // Paper: SPMV varies 0.18-1.76 GFLOPS/W — an order of magnitude
        // below FFT.
        let fft = fft_sweep();
        let spmv = sweep(
            AcceleratorKind::Spmv,
            &spmv_reference_workload(),
            &SweepGrid::default(),
            &MemoryConfig::hmc_stack(),
            &SweepOptions::default(),
        );
        let fft_best = fft
            .iter()
            .map(DesignPoint::gflops_per_watt)
            .fold(0.0_f64, f64::max);
        let spmv_best = spmv
            .iter()
            .map(DesignPoint::gflops_per_watt)
            .fold(0.0_f64, f64::max);
        assert!(
            fft_best / spmv_best > 8.0,
            "FFT {fft_best:.1} vs SPMV {spmv_best:.2} GFLOPS/W"
        );
    }

    #[test]
    fn pareto_frontier_is_monotone() {
        let pts = fft_sweep();
        let frontier = pareto_frontier(&pts);
        assert!(!frontier.is_empty());
        assert!(frontier.len() <= pts.len());
        // Along the frontier, more power must buy more performance.
        for w in frontier.windows(2) {
            assert!(w[1].power_w >= w[0].power_w);
            assert!(
                w[1].gflops >= w[0].gflops * 0.999,
                "dominated point on frontier"
            );
        }
        // Nothing in the space dominates a frontier point.
        for f in &frontier {
            assert!(!pts
                .iter()
                .any(|q| q.gflops > f.gflops && q.power_w < f.power_w * 0.999));
        }
    }

    #[test]
    fn budget_picker_respects_the_budget() {
        let pts = fft_sweep();
        let best = best_under_budget(&pts, 20.0).expect("something fits 20 W");
        assert!(best.power_w <= 20.0);
        let unlimited = best_under_budget(&pts, f64::INFINITY).unwrap();
        assert!(unlimited.gflops >= best.gflops);
        assert!(best_under_budget(&pts, 0.1).is_none());
    }

    #[test]
    fn parallel_sweep_is_identical_to_serial() {
        let grid = SweepGrid::default();
        let mem = MemoryConfig::hmc_stack();
        let opts = SweepOptions {
            jobs: 1,
            engine_check_bytes: 1 << 20,
        };
        let serial = sweep(
            AcceleratorKind::Fft,
            &fft_reference_workload(),
            &grid,
            &mem,
            &opts,
        );
        for jobs in [2usize, 4, 8] {
            let parallel = sweep(
                AcceleratorKind::Fft,
                &fft_reference_workload(),
                &grid,
                &mem,
                &SweepOptions {
                    jobs,
                    engine_check_bytes: 1 << 20,
                },
            );
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn static_bounds_certify_every_grid_point() {
        // The closed-form interval must contain the analytic price at
        // every point of the default grid, for a compute-heavy and a
        // gather-heavy workload alike — this is the containment the
        // pruner's dominance rule relies on.
        let mem = MemoryConfig::hmc_stack();
        for (kind, workload) in [
            (AcceleratorKind::Fft, fft_reference_workload()),
            (AcceleratorKind::Spmv, spmv_reference_workload()),
        ] {
            let model = AccelModel::new(kind);
            for cell in super::grid_cells(&SweepGrid::default()) {
                let (hw, mem) = super::configure(&mem, cell);
                let report = model.execute(&workload, &hw, &mem);
                let b = point_bounds(kind, &workload, &hw, &mem);
                assert!(b.gflops.lo <= b.gflops.hi && b.power_w.lo <= b.power_w.hi);
                assert!(b.power_w.lo > 0.0, "leakage floors the power bound");
                assert!(
                    b.contains(report.gflops().get(), report.power().get()),
                    "{kind:?} {cell:?}: ({:.3}, {:.3}) outside {:?}/{:?}",
                    report.gflops().get(),
                    report.power().get(),
                    b.gflops,
                    b.power_w,
                );
            }
        }
    }

    #[test]
    fn pruned_sweep_preserves_the_frontier_bit_for_bit() {
        let grid = SweepGrid::default();
        let mem = MemoryConfig::hmc_stack();
        let opts = SweepOptions {
            jobs: 2,
            engine_check_bytes: 1 << 20,
        };
        for (kind, workload) in [
            (AcceleratorKind::Fft, fft_reference_workload()),
            (AcceleratorKind::Spmv, spmv_reference_workload()),
        ] {
            let full = sweep(kind, &workload, &grid, &mem, &opts);
            let pruned = sweep_pruned(kind, &workload, &grid, &mem, &opts);
            assert_eq!(pruned.simulated + pruned.pruned, full.len());
            assert_eq!(pruned.simulated, pruned.points.len());
            assert!(
                pruned.pruned as f64 >= full.len() as f64 * 0.3,
                "{kind:?}: pruning must cut >=30% of simulations, cut {}/{}",
                pruned.pruned,
                full.len()
            );
            // Every retained point is the full sweep's point, bit for
            // bit — engine cross-check included.
            for p in &pruned.points {
                assert!(full.contains(p), "{kind:?}: retained point drifted");
            }
            assert_eq!(
                pareto_frontier(&full),
                pareto_frontier(&pruned.points),
                "{kind:?}: pruning perturbed the frontier"
            );
        }
    }

    #[test]
    fn pruned_sweep_is_deterministic_across_jobs() {
        let grid = SweepGrid::default();
        let mem = MemoryConfig::hmc_stack();
        let serial = sweep_pruned(
            AcceleratorKind::Fft,
            &fft_reference_workload(),
            &grid,
            &mem,
            &SweepOptions {
                jobs: 1,
                engine_check_bytes: 1 << 20,
            },
        );
        for jobs in [2usize, 8] {
            let parallel = sweep_pruned(
                AcceleratorKind::Fft,
                &fft_reference_workload(),
                &grid,
                &mem,
                &SweepOptions {
                    jobs,
                    engine_check_bytes: 1 << 20,
                },
            );
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn engine_check_reports_plausible_bandwidth() {
        let grid = SweepGrid {
            frequencies_ghz: vec![1.2],
            cores: vec![16],
            block_elems: vec![4096],
            row_bytes: vec![2048, 4096],
        };
        let mem = MemoryConfig::hmc_stack();
        let pts = sweep(
            AcceleratorKind::Fft,
            &fft_reference_workload(),
            &grid,
            &mem,
            &SweepOptions {
                jobs: 2,
                engine_check_bytes: 8 << 20,
            },
        );
        let peak = mem.peak_bandwidth().as_gb_per_sec();
        for p in &pts {
            assert!(
                p.engine_gbps > 0.0 && p.engine_gbps <= peak * 1.001,
                "engine check {} outside (0, {peak}]",
                p.engine_gbps
            );
        }
        // Disabled by default: the default options leave the field zero.
        let plain = sweep(
            AcceleratorKind::Fft,
            &fft_reference_workload(),
            &grid,
            &mem,
            &SweepOptions::default(),
        );
        assert!(plain.iter().all(|p| p.engine_gbps == 0.0));
    }

    #[test]
    fn higher_frequency_never_reduces_throughput() {
        let grid = SweepGrid {
            frequencies_ghz: vec![0.8, 2.0],
            cores: vec![16],
            block_elems: vec![4096],
            row_bytes: vec![4096],
        };
        let pts = sweep(
            AcceleratorKind::Fft,
            &fft_reference_workload(),
            &grid,
            &MemoryConfig::hmc_stack(),
            &SweepOptions::default(),
        );
        assert!(pts[1].gflops >= pts[0].gflops * 0.99);
        assert!(pts[1].power_w > pts[0].power_w, "speed costs power");
    }
}
