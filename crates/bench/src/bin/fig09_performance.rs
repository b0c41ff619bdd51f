//! Figure 9 (plus Tables 1-3): performance of each Table 1 operation on
//! its Table 2 dataset across the five platforms, normalized to MKL on
//! Haswell.

use mealib_bench::{banner, fmt_gain, section, write_profile, HarnessOpts, JsonSummary};
use mealib_obs::{Obs, Profile, TraceRecorder};
use mealib_sim::{run_experiment, TextTable};
use mealib_types::stats::geometric_mean;
use mealib_workloads::datasets;

fn main() {
    let opts = HarnessOpts::from_env();
    banner(
        "Figure 9 — performance improvement over Intel MKL on Haswell",
        "MEALib 11x (SPMV) to 88x (RESHP), average 38x; PSAS 2.51x, MSAS 10.32x",
    );

    section("Table 1/2 — accelerated functions and data sets");
    let mut t = TextTable::new(vec!["function", "accelerator", "data set"]);
    for row in datasets::table2() {
        t.push_row(vec![
            row.function.to_string(),
            row.params.kind().to_string(),
            row.description.to_string(),
        ]);
    }
    print!("{t}");

    section("Table 3 — platforms");
    let mut t = TextTable::new(vec!["platform", "peak bandwidth"]);
    for (name, bw) in [
        ("Haswell i7-4770K", 25.6),
        ("Xeon Phi 5110P", 320.0),
        ("PSAS", 25.6),
        ("MSAS", 102.4),
        ("MEALib hardware", 510.0),
    ] {
        t.push_row(vec![name.to_string(), format!("{bw:.1} GB/s")]);
    }
    print!("{t}");

    section("Figure 9 — speedups over Haswell (GFLOPS; GB/s for RESHP)");
    let mut t = TextTable::new(vec!["op", "Haswell", "Xeon Phi", "PSAS", "MSAS", "MEALib"]);
    let mut mealib_gains = Vec::new();
    let mut summary = JsonSummary::new("fig09_performance");
    let rec = opts.profile.as_ref().map(|_| TraceRecorder::shared());
    let obs = rec.clone().map_or_else(Obs::off, Obs::new);
    for row in datasets::table2() {
        let cmp = run_experiment(&row.params, &obs)
            .expect("preflight clean")
            .comparison;
        let speedups = cmp.speedups();
        mealib_gains.push(cmp.mealib_speedup());
        summary.metric(
            &format!("speedup_{}", row.params.kind().keyword().to_lowercase()),
            cmp.mealib_speedup(),
        );
        t.push_row(vec![
            row.params.kind().to_string(),
            fmt_gain(speedups[0].1),
            fmt_gain(speedups[1].1),
            fmt_gain(speedups[2].1),
            fmt_gain(speedups[3].1),
            fmt_gain(speedups[4].1),
        ]);
    }
    print!("{t}");
    let avg = geometric_mean(&mealib_gains).expect("positive gains");
    println!();
    println!(
        "MEALib average speedup: {} (paper: 38x, range 11x-88x)",
        fmt_gain(avg)
    );
    summary.metric("avg_speedup", avg);
    if let Some(rec) = &rec {
        // Merged phase taxonomy across all seven MEALib runs.
        write_profile(
            &opts,
            &Profile::from_breakdown(&rec.breakdown(), "experiments"),
        );
    }
    summary.emit(&opts);
}
