//! Figure 10: energy efficiency (GFLOPS/W) of each operation across the
//! five platforms, normalized to MKL on Haswell.

use mealib_bench::{banner, fmt_gain, section, write_profile, HarnessOpts, JsonSummary};
use mealib_obs::{Obs, Profile, TraceRecorder};
use mealib_sim::{run_experiment, TextTable};
use mealib_types::stats::geometric_mean;
use mealib_workloads::datasets;

fn main() {
    let opts = HarnessOpts::from_env();
    banner(
        "Figure 10 — energy-efficiency improvement over Intel MKL on Haswell",
        "MEALib average 75x; e.g. FFT at 19 W vs Haswell 48 W, Phi 130 W, MSAS 41 W",
    );

    section("efficiency gains over Haswell (GFLOPS/W; GB/s/W for RESHP)");
    let mut t = TextTable::new(vec!["op", "Haswell", "Xeon Phi", "PSAS", "MSAS", "MEALib"]);
    let mut mealib_gains = Vec::new();
    let mut summary = JsonSummary::new("fig10_energy");
    let rec = opts.profile.as_ref().map(|_| TraceRecorder::shared());
    let obs = rec.clone().map_or_else(Obs::off, Obs::new);
    for row in datasets::table2() {
        let cmp = run_experiment(&row.params, &obs)
            .expect("preflight clean")
            .comparison;
        let gains = cmp.efficiency_gains();
        mealib_gains.push(cmp.mealib_efficiency_gain());
        summary.metric(
            &format!("ee_gain_{}", row.params.kind().keyword().to_lowercase()),
            cmp.mealib_efficiency_gain(),
        );
        t.push_row(vec![
            row.params.kind().to_string(),
            fmt_gain(gains[0].1),
            fmt_gain(gains[1].1),
            fmt_gain(gains[2].1),
            fmt_gain(gains[3].1),
            fmt_gain(gains[4].1),
        ]);
    }
    print!("{t}");

    section("absolute power during the FFT operation (the paper's example)");
    let fft = datasets::for_kind(mealib_tdl::AcceleratorKind::Fft);
    let cmp = run_experiment(&fft.params, &obs)
        .expect("preflight clean")
        .comparison;
    let mut t = TextTable::new(vec!["platform", "power", "paper"]);
    let paper = ["48 W", "130 W", "-", "41 W", "19 W"];
    for (row, p) in cmp.rows.iter().zip(paper) {
        t.push_row(vec![
            row.name.clone(),
            format!("{:.1} W", row.power().get()),
            p.to_string(),
        ]);
    }
    print!("{t}");

    let avg = geometric_mean(&mealib_gains).expect("positive gains");
    println!();
    println!(
        "MEALib average energy-efficiency gain: {} (paper: 75x)",
        fmt_gain(avg)
    );
    summary.metric("avg_ee_gain", avg);
    if let Some(rec) = &rec {
        // Merged phase taxonomy across the sweep plus the FFT rerun.
        write_profile(
            &opts,
            &Profile::from_breakdown(&rec.breakdown(), "experiments"),
        );
    }
    summary.emit(&opts);
}
