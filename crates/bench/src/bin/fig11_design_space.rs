//! Figure 11: design-space analysis of the FFT and SPMV accelerators —
//! performance vs power across frequency, core count, block size, and
//! DRAM row-buffer size, at 510 GB/s of memory bandwidth.
//!
//! Every design point additionally replays a sequential stream through
//! the cycle engine (the `engine` column) to cross-check the analytic
//! bandwidth model; `--jobs N` fans the points across worker threads
//! with bit-identical output.
//!
//! With `--prune`, the static-bounds certifier prices every grid point
//! in closed form first and the cycle-engine replay runs only for
//! points no certified point dominates. The Pareto frontier (printed
//! and summarized in both modes) is bit-identical either way — the
//! smoke script asserts it — while the number of engine simulations
//! drops, which the prune-mode summary records.

use mealib_accel::design_space::{
    fft_reference_workload, pareto_frontier, spmv_reference_workload, sweep, sweep_pruned,
    DesignPoint, SweepGrid, SweepOptions,
};
use mealib_accel::AccelParams;
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
/// f64 precision: identical frontiers produce identical metric values,
/// which is how the smoke script asserts that `--prune` changed nothing.
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

/// Explores one accelerator's design space, pruned or full, and returns
/// the evaluated points plus `(simulated, pruned)` accounting.
fn explore(
    kind: AcceleratorKind,
    workload: &AccelParams,
    grid: &SweepGrid,
    mem: &MemoryConfig,
    sweep_opts: &SweepOptions,
    prune: bool,
) -> (Vec<DesignPoint>, usize, usize) {
    if prune {
        let s = sweep_pruned(kind, workload, grid, mem, sweep_opts);
        (s.points, s.simulated, s.pruned)
    } else {
        let points = sweep(kind, workload, grid, mem, sweep_opts);
        let n = points.len();
        (points, n, 0)
    }
}

fn main() {
    let opts = HarnessOpts::from_env();
    banner(
        "Figure 11 — FFT and SPMV accelerator design spaces",
        "FFT 10-56 GFLOPS/W; SPMV 0.18-1.76 GFLOPS/W across design options",
    );
    let grid = SweepGrid::default();
    let mem = MemoryConfig::hmc_stack();
    let sweep_opts = SweepOptions {
        jobs: opts.jobs,
        // The engine replay is what makes each point worth
        // parallelizing; keep it light in smoke-test mode.
        engine_check_bytes: if opts.small { 1 << 20 } else { 64 << 20 },
    };

    // Deterministic modeled outputs only — no wall times, so summaries
    // from different --jobs values must be byte-identical (the smoke
    // script asserts this). Prune mode uses its own record name: its
    // point set is a subset, so only the frontier metrics are
    // comparable against the full sweep.
    let mut summary = JsonSummary::new(if opts.prune {
        "fig11_design_space_prune"
    } else {
        "fig11_design_space"
    });

    let mut grid_points = 0usize;
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
        let (points, simulated, pruned) =
            explore(kind, &workload, &grid, &mem, &sweep_opts, opts.prune);
        grid_points = simulated + pruned;
        print_space(kind, &points, paper_range);
        report_frontier(kind, &points, &mut summary);
        let k = format!("{kind}").to_lowercase();
        if opts.prune {
            println!();
            println!(
                "{kind} bounds pruning: {simulated}/{grid_points} points simulated, {pruned} \
                 provably dominated"
            );
            summary.metric(&format!("{k}_simulated"), simulated as f64);
            summary.metric(&format!("{k}_pruned"), pruned as f64);
        } else {
            let (min, max) = eff_range(&points);
            summary.metric(&format!("{k}_eff_min"), min);
            summary.metric(&format!("{k}_eff_max"), max);
            engine_max = points
                .iter()
                .map(|p| p.engine_gbps)
                .fold(engine_max, f64::max);
        }
    }
    if opts.prune {
        summary.metric("grid_points", grid_points as f64);
    } else {
        summary.metric("engine_check_max_gbps", engine_max);
    }

    if opts.profile.is_some() {
        // Cycle-windowed replay of the engine cross-check stream: one
        // counter timeline per vault at 4096-cycle windows.
        let trace = sequential_trace(0, sweep_opts.engine_check_bytes, 256, Op::Read);
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
