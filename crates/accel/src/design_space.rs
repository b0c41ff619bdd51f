//! Design-space exploration (§5.3, Figure 11).
//!
//! "Given a memory bandwidth of 510 GB/s, we explored various design
//! parameters, such as accelerator frequency, row buffer size, number of
//! accelerator cores, and block size." This module sweeps those knobs
//! for any accelerator and reports (performance, power) points, from
//! which the harness draws the Fig. 11 scatter plots for FFT and SPMV.
//!
//! Of the four axes only the row-buffer size reaches the memory model,
//! so [`sweep`] builds one memory configuration per row size and runs
//! the optional cycle-engine cross-check once for each, not once per
//! grid point.

use mealib_memsim::MemoryConfig;
use mealib_tdl::AcceleratorKind;
use mealib_types::Hertz;

use crate::hw::AccelHwConfig;
use crate::model::AccelModel;
use crate::params::AccelParams;

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
    /// check is disabled (`engine_check_bytes` = 0 in [`sweep`]).
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

/// Sweeps the design space of one accelerator over the grid, pricing
/// `workload` at every point, in grid order. When
/// `engine_check_bytes > 0`, each row-buffer size additionally replays
/// that much sequential traffic through the fast engine to cross-check
/// the analytic bandwidth model; every point with that row size carries
/// the result.
///
/// # Panics
///
/// Panics if `workload` does not belong to `kind`.
pub fn sweep(
    kind: AcceleratorKind,
    workload: &AccelParams,
    grid: &SweepGrid,
    base_mem: &MemoryConfig,
    engine_check_bytes: u64,
) -> Vec<DesignPoint> {
    assert_eq!(workload.kind(), kind, "workload/accelerator mismatch");
    let model = AccelModel::new(kind);
    let mems: Vec<(u64, MemoryConfig, f64)> = grid
        .row_bytes
        .iter()
        .map(|&row| {
            let mem = with_row_bytes(base_mem, row);
            let engine_gbps = engine_check(&mem, engine_check_bytes);
            (row, mem, engine_gbps)
        })
        .collect();
    let mut points = Vec::new();
    for &f in &grid.frequencies_ghz {
        for &cores in &grid.cores {
            for &block_elems in &grid.block_elems {
                let hw = AccelHwConfig::mealib_default()
                    .with_frequency(Hertz::from_ghz(f))
                    .with_cores(cores)
                    .with_block_elems(block_elems);
                for (row_bytes, mem, engine_gbps) in &mems {
                    let report = model.execute(workload, &hw, mem);
                    points.push(DesignPoint {
                        frequency: hw.frequency,
                        cores,
                        block_elems,
                        row_bytes: *row_bytes,
                        gflops: report.gflops().get(),
                        power_w: report.power().get(),
                        engine_gbps: *engine_gbps,
                    });
                }
            }
        }
    }
    points
}

/// `base_mem` with its interleaved row-buffer size set to `row`.
fn with_row_bytes(base_mem: &MemoryConfig, row: u64) -> MemoryConfig {
    let mut mem = base_mem.clone();
    if let mealib_memsim::AddressMapping::Interleaved {
        ref mut row_bytes, ..
    } = mem.mapping
    {
        *row_bytes = row;
    }
    mem
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

/// The Pareto frontier of a design space: points no other point
/// dominates (at least the GFLOPS at more than 0.1% less power).
/// Sorted by power.
pub fn pareto_frontier(points: &[DesignPoint]) -> Vec<DesignPoint> {
    let mut frontier: Vec<DesignPoint> = points
        .iter()
        .filter(|p| {
            !points
                .iter()
                .any(|q| q.gflops >= p.gflops && q.power_w < p.power_w * 0.999)
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

    /// The full FFT sweep over the default grid, no engine cross-check.
    fn fft_sweep() -> Vec<DesignPoint> {
        sweep(
            AcceleratorKind::Fft,
            &fft_reference_workload(),
            &SweepGrid::default(),
            &MemoryConfig::hmc_stack(),
            0,
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
            0,
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
    fn engine_check_reports_plausible_bandwidth() {
        // The replay runs once per row size: every point with that row
        // size carries the same bits, equal to a one-point sweep's.
        let grid = SweepGrid::default();
        let mem = MemoryConfig::hmc_stack();
        let bytes = 8 << 20;
        let pts = sweep(
            AcceleratorKind::Fft,
            &fft_reference_workload(),
            &grid,
            &mem,
            bytes,
        );
        let peak = mem.peak_bandwidth().as_gb_per_sec();
        for &row in &grid.row_bytes {
            let one = sweep(
                AcceleratorKind::Fft,
                &fft_reference_workload(),
                &SweepGrid {
                    frequencies_ghz: vec![1.2],
                    cores: vec![16],
                    block_elems: vec![4096],
                    row_bytes: vec![row],
                },
                &mem,
                bytes,
            );
            let want = one[0].engine_gbps;
            assert!(
                want > 0.0 && want <= peak * 1.001,
                "engine check {want} outside (0, {peak}]"
            );
            let same_row: Vec<&DesignPoint> = pts.iter().filter(|p| p.row_bytes == row).collect();
            assert_eq!(same_row.len(), pts.len() / grid.row_bytes.len());
            for p in same_row {
                assert_eq!(p.engine_gbps.to_bits(), want.to_bits(), "{p:?}");
            }
        }
        // A zero-byte check leaves the field zero.
        assert!(fft_sweep().iter().all(|p| p.engine_gbps == 0.0));
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
            0,
        );
        assert!(pts[1].gflops >= pts[0].gflops * 0.99);
        assert!(pts[1].power_w > pts[0].power_w, "speed costs power");
    }
}
