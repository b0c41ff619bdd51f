//! Telemetry ↔ ledger reconciliation: the streaming telemetry is a
//! *view* of the exact serving ledger, never a second bookkeeping
//! system. Snapshot counter deltas sum exactly to the `ServeReport`
//! totals and `Breakdown`, the lifecycle trace round-trips through the
//! Chrome trace validator, every terminal REJECT marker carries the
//! same MEA3xx codes as its `RejectedSession`, and attaching telemetry
//! never changes the run it is watching.

use std::collections::BTreeMap;

use mealib_obs::json::{self, Value};
use mealib_obs::{validate_chrome_trace, validate_exposition, Obs, Phase};
use mealib_serve::{
    generate, serve, serve_with_telemetry, Catalogue, DecisionEvent, ServeConfig, ServeReport,
    TelemetryConfig, TelemetryReport, TrafficSpec,
};
use mealib_verify::BoundsEnv;

/// A small mix with a fat impossible tier so the REJECT path (and its
/// lifecycle markers) is exercised.
fn spec(catalogue: &Catalogue, seed: u64) -> TrafficSpec {
    let mut spec = TrafficSpec::poisson(catalogue, seed, 6, 2.0);
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    spec.p_impossible = 0.25;
    spec
}

fn run(seed: u64, tcfg: &TelemetryConfig) -> (ServeReport, TelemetryReport) {
    let env = BoundsEnv::default();
    let catalogue = Catalogue::standard(&env);
    let traffic = generate(&catalogue, &spec(&catalogue, seed));
    serve_with_telemetry(
        &catalogue,
        &traffic,
        &ServeConfig::default(),
        &env,
        &Obs::off(),
        tcfg,
    )
}

/// Sums each flat counter key across every snapshot's delta object.
fn summed_deltas(tele: &TelemetryReport) -> BTreeMap<String, u64> {
    let mut summed: BTreeMap<String, u64> = BTreeMap::new();
    for line in &tele.snapshots {
        let v = json::parse(line).expect("snapshot line parses");
        let obj = v
            .get("counters")
            .and_then(Value::as_object)
            .expect("snapshot carries a counters object");
        for (k, val) in obj {
            *summed.entry(k.clone()).or_default() += val.as_f64().expect("numeric") as u64;
        }
    }
    summed
}

fn prefix_total(summed: &BTreeMap<String, u64>, prefix: &str) -> u64 {
    summed
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| v)
        .sum()
}

#[test]
fn telemetry_reconciles_with_the_exact_ledger() {
    let (report, tele) = run(4242, &TelemetryConfig::default());
    tele.reconcile(&report).expect("reconciliation holds");
    validate_exposition(&tele.prometheus()).expect("exposition validates");

    // Snapshot deltas sum exactly to the ledger's terminal tallies.
    let summed = summed_deltas(&tele);
    assert_eq!(
        prefix_total(&summed, "serve_admitted_total"),
        report.completed.len() as u64
    );
    assert_eq!(
        prefix_total(&summed, "serve_rejected_total"),
        report.rejected.len() as u64
    );
    assert_eq!(
        prefix_total(&summed, "serve_shed_total"),
        report.shed.len() as u64
    );
    let ledger_bytes: u64 = report.completed.iter().map(|c| c.bytes).sum();
    assert_eq!(prefix_total(&summed, "serve_bytes_total"), ledger_bytes);

    // Per-class bytes reconcile too, not just the grand total.
    for class in ["stap-tiny", "sar-chain-256"] {
        let key = format!("serve_bytes_total{{class=\"{class}\"}}");
        let class_bytes: u64 = report
            .completed
            .iter()
            .filter(|c| c.class == class)
            .map(|c| c.bytes)
            .sum();
        assert_eq!(
            summed.get(&key).copied().unwrap_or(0),
            class_bytes,
            "{class}"
        );
    }

    // The replay accumulator is bit-equal to the modeled clock and to
    // the breakdown's Compute phase — same additions, same order.
    assert_eq!(tele.replay_total_s.to_bits(), report.modeled_s.to_bits());
    assert_eq!(
        tele.replay_total_s.to_bits(),
        report.breakdown.phase(Phase::Compute).time.get().to_bits()
    );

    // The service-time sketch saw exactly the completions, and its sum
    // is the same float the ledger's per-session times add to.
    let sketch_count: u64 = tele
        .registry
        .histograms()
        .filter(|(k, _)| k.flat().starts_with("serve_service_seconds"))
        .map(|(_, s)| s.count())
        .sum();
    assert_eq!(sketch_count, report.completed.len() as u64);
}

#[test]
fn reconcile_names_a_snapshot_key_absent_from_the_registry() {
    let (report, mut tele) = run(4242, &TelemetryConfig::default());
    tele.snapshots
        .push(r#"{"counters":{"serve_phantom_total":1}}"#.to_string());
    assert_eq!(
        tele.reconcile(&report),
        Err("snapshot key serve_phantom_total missing from final registry".to_string())
    );
}

#[test]
fn reconcile_names_a_delta_sum_off_by_one() {
    let (report, mut tele) = run(4242, &TelemetryConfig::default());
    let (key, value) = tele
        .registry
        .counters()
        .map(|(k, v)| (k.flat(), v))
        .next()
        .expect("the run moved a counter");
    let mut counters = json::Object::new();
    counters.int(&key, 1);
    let mut line = json::Object::new();
    line.raw("counters", counters.render());
    tele.snapshots.push(line.render());
    assert_eq!(
        tele.reconcile(&report),
        Err(format!(
            "{key}: snapshot deltas sum {} != counter {value}",
            value + 1
        ))
    );
}

#[test]
fn lifecycle_trace_round_trips_and_rejects_carry_their_proofs() {
    let (report, tele) = run(99, &TelemetryConfig::default());
    assert!(
        !report.rejected.is_empty(),
        "seed must exercise the REJECT path"
    );

    let summary = validate_chrome_trace(&tele.chrome_trace()).expect("trace round-trips");
    assert!(summary.spans > 0);

    // Every terminal rejection appears as a lifecycle marker whose
    // label is the decision's Display line — including the exact
    // MEA3xx code list the certifier proved.
    for r in &report.rejected {
        let expected = DecisionEvent::Reject {
            epoch: r.epoch,
            id: r.id,
            codes: r.codes.clone(),
            attempts: r.retries,
        }
        .to_string();
        let track = format!("{}/lifecycle", r.class);
        assert!(
            tele.profile
                .intervals
                .iter()
                .any(|ev| ev.track == track && ev.label == expected),
            "missing REJECT marker {expected:?} on {track}"
        );
    }

    // And every completion got an arrival and a completion marker.
    for c in &report.completed {
        let track = format!("{}/lifecycle", c.class);
        let arrive = format!("arrive s{}", c.id);
        assert!(
            tele.profile
                .intervals
                .iter()
                .any(|ev| ev.track == track && ev.label == arrive),
            "missing {arrive} on {track}"
        );
    }
}

#[test]
fn attaching_telemetry_never_changes_the_run() {
    let env = BoundsEnv::default();
    let catalogue = Catalogue::standard(&env);
    let traffic = generate(&catalogue, &spec(&catalogue, 2024));
    let config = ServeConfig::default();

    let plain = serve(&catalogue, &traffic, &config, &env);
    let (telemetered, tele) = serve_with_telemetry(
        &catalogue,
        &traffic,
        &config,
        &env,
        &Obs::off(),
        &TelemetryConfig::default(),
    );
    assert_eq!(plain.fingerprint(), telemetered.fingerprint());
    assert_eq!(plain, telemetered);
    tele.reconcile(&telemetered).expect("reconciliation holds");
}
