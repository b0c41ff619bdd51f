//! Traffic serving — the certified-admission scheduler, measured.
//!
//! Generates a seeded session stream over the full pipeline catalogue
//! (Poisson by default, `--mix diurnal` for the day-shaped load),
//! runs the `mealib-serve` loop end to end — certify, partition,
//! batch, replay, attribute — and reports per-class service-time
//! percentiles plus the serving counters. `admission_soundness` is
//! the fraction of completions whose measured service time stayed
//! inside the elapsed ceiling their admission proved; the perf gate
//! floors it at 1.0, because a serving layer that admits on proofs it
//! then violates is not faster, it is wrong.
//!
//! Extra flags (unknown to the shared harness, parsed here):
//! `--seed <n>`, `--mix poisson|diurnal`, `--epochs <n>`,
//! `--telemetry <prefix>` — run with live telemetry and write
//! `<prefix>.prom` (Prometheus exposition), `<prefix>.snapshots.jsonl`
//! (per-epoch counter deltas + sketch summaries),
//! `<prefix>.trace.json` (per-session lifecycle trace, Perfetto
//! loadable), and `<prefix>.alerts.jsonl` (structured SLO /
//! bounds-escape alerts). With telemetry the per-class percentiles in
//! the JSON summary come from the streaming sketches; without it the
//! run is byte-identical to the pre-telemetry harness.

use mealib_bench::{banner, section, HarnessOpts, JsonSummary};
use mealib_obs::{validate_exposition, AlertKind, Obs};
use mealib_serve::{
    generate, serve, serve_with_telemetry, ArrivalMix, Catalogue, ServeConfig, TelemetryConfig,
    TrafficSpec,
};
use mealib_sim::TextTable;
use mealib_verify::BoundsEnv;

/// Serving-specific flags; everything the shared harness knows is
/// handled by [`HarnessOpts`] (which ignores these).
struct ServeArgs {
    seed: u64,
    mix: String,
    epochs: Option<u64>,
    telemetry: Option<String>,
}

fn serve_args() -> ServeArgs {
    let mut out = ServeArgs {
        seed: 42,
        mix: "poisson".into(),
        epochs: None,
        telemetry: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                    out.seed = v;
                }
            }
            "--mix" => {
                if let Some(v) = args.next() {
                    out.mix = v;
                }
            }
            "--epochs" => {
                out.epochs = args.next().and_then(|v| v.parse().ok());
            }
            "--telemetry" => {
                out.telemetry = args.next();
            }
            _ => {}
        }
    }
    out
}

fn main() {
    let opts = HarnessOpts::from_env();
    let extra = serve_args();
    banner(
        "serve_traffic",
        "a multi-tenant serving layer can run on certified admission \
         alone: every resident set was proved isolated before it ran, \
         every completion lands inside its proved ceiling, and every \
         rejection carries the MEA3xx code that proved it",
    );

    let env = BoundsEnv::default();
    section("building the class catalogue");
    let catalogue = Catalogue::standard(&env);

    let epochs = extra.epochs.unwrap_or(if opts.small { 8 } else { 32 });
    let mean = if opts.small { 1.5 } else { 2.0 };
    let mut spec = TrafficSpec::poisson(&catalogue, extra.seed, epochs, mean);
    if opts.small {
        // The reduced mix the smoke gate replays: small classes only.
        spec.classes
            .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    }
    if extra.mix == "diurnal" {
        spec.mix = ArrivalMix::Diurnal {
            base: mean * 0.5,
            peak: mean * 2.0,
            period_epochs: 16,
        };
    }
    let traffic = generate(&catalogue, &spec);
    println!(
        "mix={} seed={} epochs={epochs}: {} sessions over {} classes",
        extra.mix,
        extra.seed,
        traffic.sessions.len(),
        spec.classes.len()
    );

    let config = ServeConfig::default();
    section("serving the stream");
    let (report, telemetry) = if extra.telemetry.is_some() {
        let tcfg = TelemetryConfig::standard(&catalogue);
        let (report, tele) =
            serve_with_telemetry(&catalogue, &traffic, &config, &env, &Obs::off(), &tcfg);
        (report, Some(tele))
    } else {
        (serve(&catalogue, &traffic, &config, &env), None)
    };

    let mut table = TextTable::new(vec![
        "class",
        "done",
        "p50_ms",
        "p95_ms",
        "p99_ms",
        "max_qd_ms",
        "MB",
        "mJ",
    ]);
    let class_stats = report.class_stats();
    for (class, s) in &class_stats {
        table.push_row(vec![
            class.clone(),
            s.count.to_string(),
            format!("{:.3}", s.p50_s * 1e3),
            format!("{:.3}", s.p95_s * 1e3),
            format!("{:.3}", s.p99_s * 1e3),
            format!("{:.3}", s.max_queue_delay_s * 1e3),
            format!("{:.2}", s.bytes as f64 / 1e6),
            format!("{:.3}", s.energy_j * 1e3),
        ]);
    }
    print!("{table}");
    let replays = report.epochs.iter().filter(|e| e.admitted > 0).count();
    println!(
        "\n{} completed, {} rejected (proved), {} shed over {} epochs; \
         modeled {:.3} ms, peak queue {}, plan cache {}/{} hits, certify memo {}/{} hits \
         ({:.1}%), replay memo {}/{} hits ({:.1}%)",
        report.completed.len(),
        report.rejected.len(),
        report.shed.len(),
        report.epochs.len(),
        report.modeled_s * 1e3,
        report.peak_queue_depth,
        report.plan_cache_hits,
        report.plans_planned,
        report.certify_memo_hits,
        report.certify_calls,
        100.0 * report.certify_memo_hits as f64 / report.certify_calls.max(1) as f64,
        report.replay_memo_hits,
        replays,
        100.0 * report.replay_memo_hits as f64 / replays.max(1) as f64,
    );

    let soundness = report.admission_soundness();
    let proved_rejections = report
        .rejected
        .iter()
        .filter(|r| !r.codes.is_empty())
        .count();

    if let (Some(prefix), Some(tele)) = (&extra.telemetry, &telemetry) {
        section("telemetry");
        tele.reconcile(&report)
            .expect("serve_traffic: telemetry must reconcile with the exact ledger");
        let exposition = tele.prometheus();
        let summary =
            validate_exposition(&exposition).expect("serve_traffic: exposition must validate");
        std::fs::write(format!("{prefix}.prom"), &exposition)
            .expect("serve_traffic: write exposition");
        std::fs::write(format!("{prefix}.snapshots.jsonl"), tele.snapshots_jsonl())
            .expect("serve_traffic: write snapshots");
        std::fs::write(format!("{prefix}.trace.json"), tele.chrome_trace())
            .expect("serve_traffic: write lifecycle trace");
        std::fs::write(format!("{prefix}.alerts.jsonl"), tele.alerts_jsonl())
            .expect("serve_traffic: write alerts");
        println!(
            "exposition: {} families, {} samples; {} snapshots; {} lifecycle events; \
             {} alerts ({} bounds escapes); slo_conformance {:.3}, \
             certified_bounds_conformance {:.3}",
            summary.families,
            summary.samples,
            tele.snapshots.len(),
            tele.profile.intervals.len(),
            tele.alerts.len(),
            tele.alert_count(AlertKind::BoundsEscape),
            tele.slo_conformance,
            tele.certified_bounds_conformance(),
        );
    }

    let mut summary = JsonSummary::new("serve_traffic");
    summary.metric("sessions", traffic.sessions.len() as f64);
    summary.metric("completed", report.completed.len() as f64);
    summary.metric("rejected", report.rejected.len() as f64);
    summary.metric("shed", report.shed.len() as f64);
    summary.metric("epochs", report.epochs.len() as f64);
    summary.metric("admission_soundness", soundness);
    summary.metric(
        "rejection_proof_rate",
        if report.rejected.is_empty() {
            1.0
        } else {
            proved_rejections as f64 / report.rejected.len() as f64
        },
    );
    summary.metric("modeled_s", report.modeled_s);
    summary.metric("peak_queue_depth", report.peak_queue_depth as f64);
    summary.metric("plan_cache_hits", report.plan_cache_hits as f64);
    summary.metric("plans_planned", report.plans_planned as f64);
    for (class, s) in &class_stats {
        let key = class.replace('-', "_");
        // With telemetry the percentiles come from the streaming
        // sketch (within its documented 1% relative bound of the
        // exact nearest-rank values the plain path reports).
        let (p50, p95, p99) = telemetry
            .as_ref()
            .and_then(|t| t.class_percentiles(class))
            .unwrap_or((s.p50_s, s.p95_s, s.p99_s));
        summary.metric(&format!("{key}_p50_s"), p50);
        summary.metric(&format!("{key}_p95_s"), p95);
        summary.metric(&format!("{key}_p99_s"), p99);
    }
    if let Some(tele) = &telemetry {
        summary.metric("slo_conformance", tele.slo_conformance);
        summary.metric(
            "certified_bounds_conformance",
            tele.certified_bounds_conformance(),
        );
        summary.metric("slo_evaluations", tele.slo_evaluations as f64);
        summary.metric(
            "slo_burn_alerts",
            tele.alert_count(AlertKind::SloBurn) as f64,
        );
        summary.metric(
            "bounds_escape_alerts",
            tele.alert_count(AlertKind::BoundsEscape) as f64,
        );
        summary.metric("telemetry_snapshots", tele.snapshots.len() as f64);
        summary.metric(
            "telemetry_sketch_buckets",
            tele.registry.total_buckets() as f64,
        );
    }
    summary.emit(&opts);

    report
        .check_conservation(&traffic, &catalogue)
        .expect("serve_traffic: conservation violated");
    assert!(
        (soundness - 1.0).abs() < f64::EPSILON,
        "serve_traffic: a completion exceeded its certified ceiling"
    );
    assert_eq!(
        proved_rejections,
        report.rejected.len(),
        "serve_traffic: a rejection without its MEA3xx proof"
    );
}
