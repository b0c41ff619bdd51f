//! Figure 11: design-space analysis of the FFT and SPMV accelerators —
//! performance vs power across frequency, core count, block size, and
//! DRAM row-buffer size, at 510 GB/s of memory bandwidth.
//!
//! Each row-buffer size additionally replays a sequential stream
//! through the fast engine (the `engine` column) to cross-check the
//! analytic bandwidth model.

use mealib_accel::design_space::{
    fft_reference_workload, pareto_frontier, spmv_reference_workload, sweep, DesignPoint, SweepGrid,
};
use mealib_bench::{banner, section, write_profile, HarnessOpts, JsonSummary};
use mealib_memsim::engine::{sequential_trace, simulate, Op, SimOptions};
use mealib_memsim::MemoryConfig;
use mealib_obs::Profile;
use mealib_sim::TextTable;
use mealib_tdl::AcceleratorKind;
use mealib_types::Seconds;

fn point_table(points: &[DesignPoint]) -> TextTable {
    let mut t = TextTable::new(vec![
        "freq", "cores", "block", "row", "GFLOPS", "power", "GF/W", "engine",
    ]);
    for p in points {
        t.push_row(vec![
            format!("{:.1} GHz", p.frequency.as_ghz()),
            p.cores.to_string(),
            p.block_elems.to_string(),
            p.row_bytes.to_string(),
            format!("{:.1}", p.gflops),
            format!("{:.1} W", p.power_w),
            format!("{:.2}", p.gflops_per_watt()),
            format!("{:.0} GB/s", p.engine_gbps),
        ]);
    }
    t
}

fn eff_range(points: &[DesignPoint]) -> (f64, f64) {
    let min = points
        .iter()
        .map(DesignPoint::gflops_per_watt)
        .fold(f64::INFINITY, f64::min);
    let max = points
        .iter()
        .map(DesignPoint::gflops_per_watt)
        .fold(0.0_f64, f64::max);
    (min, max)
}

fn print_space(kind: AcceleratorKind, points: &[DesignPoint], paper_range: &str) {
    section(&format!("{kind} design space (one row per point)"));
    print!("{}", point_table(points));
    let (min, max) = eff_range(points);
    println!();
    println!("{kind} efficiency range: {min:.2} - {max:.2} GFLOPS/W (paper: {paper_range})");
}

/// Prints the Pareto frontier and records it in the summary with full
/// f64 precision.
fn report_frontier(kind: AcceleratorKind, points: &[DesignPoint], summary: &mut JsonSummary) {
    let frontier = pareto_frontier(points);
    section(&format!("{kind} Pareto frontier"));
    print!("{}", point_table(&frontier));
    let k = format!("{kind}").to_lowercase();
    summary.metric(&format!("{k}_frontier_points"), frontier.len() as f64);
    summary.metric(
        &format!("{k}_frontier_gflops_sum"),
        frontier.iter().map(|p| p.gflops).sum(),
    );
    summary.metric(
        &format!("{k}_frontier_power_sum"),
        frontier.iter().map(|p| p.power_w).sum(),
    );
    summary.metric(
        &format!("{k}_frontier_engine_sum"),
        frontier.iter().map(|p| p.engine_gbps).sum(),
    );
}

fn main() {
    let opts = HarnessOpts::from_env();
    banner(
        "Figure 11 — FFT and SPMV accelerator design spaces",
        "FFT 10-56 GFLOPS/W; SPMV 0.18-1.76 GFLOPS/W across design options",
    );
    let grid = SweepGrid::default();
    let mem = MemoryConfig::hmc_stack();
    let engine_check_bytes: u64 = if opts.small { 1 << 20 } else { 64 << 20 };

    // Deterministic modeled outputs only — no wall times.
    let mut summary = JsonSummary::new("fig11_design_space");

    let mut engine_max = 0.0_f64;
    for (kind, workload, paper_range) in [
        (
            AcceleratorKind::Fft,
            fft_reference_workload(),
            "10-56 GFLOPS/W",
        ),
        (
            AcceleratorKind::Spmv,
            spmv_reference_workload(),
            "0.18-1.76 GFLOPS/W",
        ),
    ] {
        let points = sweep(kind, &workload, &grid, &mem, engine_check_bytes);
        print_space(kind, &points, paper_range);
        report_frontier(kind, &points, &mut summary);
        let k = format!("{kind}").to_lowercase();
        let (min, max) = eff_range(&points);
        summary.metric(&format!("{k}_eff_min"), min);
        summary.metric(&format!("{k}_eff_max"), max);
        engine_max = points
            .iter()
            .map(|p| p.engine_gbps)
            .fold(engine_max, f64::max);
    }
    summary.metric("engine_check_max_gbps", engine_max);

    if opts.profile.is_some() {
        // Cycle-windowed replay of the engine cross-check stream: one
        // counter timeline per vault at 4096-cycle windows.
        let trace = sequential_trace(0, engine_check_bytes, 256, Op::Read);
        let timeline = simulate(&mem, &trace, &SimOptions::fast().profile(4096))
            .expect("preset config validates")
            .timeline
            .expect("profiled run carries a timeline");
        let mut p = Profile::new();
        p.push_timeline(
            "dram:engine-check",
            timeline,
            mem.timing.t_ck,
            Seconds::ZERO,
        );
        write_profile(&opts, &p);
    }
    summary.emit(&opts);
}
