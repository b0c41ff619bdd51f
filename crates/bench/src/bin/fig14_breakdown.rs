//! Figure 14: execution time and energy breakdown of STAP on MEALib —
//! host vs accelerators vs invocation overhead, and the per-accelerator
//! split.

use mealib_bench::{banner, section, write_profile, HarnessOpts, JsonSummary};
use mealib_obs::{Obs, Profile};
use mealib_sim::TextTable;
use mealib_tdl::AcceleratorKind;
use mealib_types::{Joules, Seconds};
use mealib_workloads::stap::{self, Executor, StapConfig};

fn main() {
    let opts = HarnessOpts::from_env();
    banner(
        "Figure 14 — STAP time/energy breakdown on MEALib",
        "host ~75% time / ~90% energy; DOT ~60%/76% of accelerator share; invocation 3.3%/7.1%",
    );

    let cfg = if opts.small {
        StapConfig::small()
    } else {
        StapConfig::large()
    };
    let (run, breakdown) = stap::run_on_mealib_traced(&cfg, &Obs::off());

    section(&format!("per-phase costs ({} dataset)", cfg.name));
    let mut t = TextTable::new(vec!["phase", "executor", "time", "energy"]);
    for p in &run.phases {
        let exec = match p.executor {
            Executor::Host => "host".to_string(),
            Executor::Accelerator(k) => format!("accel:{k}"),
            Executor::Invocation => "invocation".to_string(),
        };
        t.push_row(vec![
            p.name.to_string(),
            exec,
            format!("{:.4} s", p.time.get()),
            format!("{:.3} J", p.energy.get()),
        ]);
    }
    print!("{t}");

    section("(a) host vs accelerators");
    let host_t = run.time_fraction(|p| p.executor == Executor::Host);
    let host_e = run.energy_fraction(|p| p.executor == Executor::Host);
    println!("host time share:   {:5.1}%   (paper: ~75%)", 100.0 * host_t);
    println!("host energy share: {:5.1}%   (paper: ~90%)", 100.0 * host_e);

    section("(b) accelerator and invocation split");
    let accel_time: Seconds = run
        .phases
        .iter()
        .filter(|p| !matches!(p.executor, Executor::Host))
        .map(|p| p.time)
        .sum();
    let accel_energy: Joules = run
        .phases
        .iter()
        .filter(|p| !matches!(p.executor, Executor::Host))
        .map(|p| p.energy)
        .sum();
    let mut t = TextTable::new(vec!["component", "time share", "energy share", "paper"]);
    for (kind, paper) in [
        (Some(AcceleratorKind::Reshp), "-"),
        (Some(AcceleratorKind::Fft), "(RESHP+FFT remainder)"),
        (Some(AcceleratorKind::Dot), "60% / 76%"),
        (Some(AcceleratorKind::Axpy), "3.1% / 3.8%"),
        (None, "3.3% / 7.1%"),
    ] {
        let (label, tt, ee): (String, Seconds, Joules) = match kind {
            Some(k) => {
                let tt = run
                    .phases
                    .iter()
                    .filter(|p| p.executor == Executor::Accelerator(k))
                    .map(|p| p.time)
                    .sum();
                let ee = run
                    .phases
                    .iter()
                    .filter(|p| p.executor == Executor::Accelerator(k))
                    .map(|p| p.energy)
                    .sum();
                (k.to_string(), tt, ee)
            }
            None => {
                let tt = run
                    .phases
                    .iter()
                    .filter(|p| p.executor == Executor::Invocation)
                    .map(|p| p.time)
                    .sum();
                let ee = run
                    .phases
                    .iter()
                    .filter(|p| p.executor == Executor::Invocation)
                    .map(|p| p.energy)
                    .sum();
                ("invocation".to_string(), tt, ee)
            }
        };
        t.push_row(vec![
            label,
            format!("{:5.1}%", (100.0 * (tt / accel_time)).max(0.0)),
            format!("{:5.1}%", (100.0 * ee.get() / accel_energy.get()).max(0.0)),
            paper.to_string(),
        ]);
    }
    print!("{t}");

    section("phase taxonomy (obs breakdown — reconciles with the totals)");
    let mut t = TextTable::new(vec!["phase", "time", "energy"]);
    for (phase, totals) in breakdown.phases() {
        t.push_row(vec![
            phase.name().to_string(),
            format!("{:.4} s", totals.time.get()),
            format!("{:.3} J", totals.energy.get()),
        ]);
    }
    print!("{t}");

    // The phase-taxonomy breakdown, laid out on one modeled-time track.
    write_profile(&opts, &Profile::from_breakdown(&breakdown, "stap"));

    let mut summary = JsonSummary::new("fig14_breakdown");
    summary.metric("total_time_s", run.total_time().get());
    summary.metric("total_energy_j", run.total_energy().get());
    summary.metric("host_time_share", host_t);
    summary.metric("host_energy_share", host_e);
    summary.metric("breakdown_time_s", breakdown.total_time().get());
    summary.metric("breakdown_energy_j", breakdown.total_energy().get());
    summary.emit(&opts);
}
