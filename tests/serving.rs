//! Cross-layer checks of the serving loop: `serve_with_telemetry` feeds the
//! `mealib-obs` pipeline (JSONL traces parse, phases are the known
//! ones), the recorder's view reconciles bit-for-bit with the report's
//! own breakdown, and the umbrella re-export path works end to end.

use mealib_obs::json;
use mealib_obs::{Obs, Phase, TraceRecorder};
use mealib_repro::serve::{
    generate, serve_with_telemetry, Catalogue, ServeConfig, TelemetryConfig, TrafficSpec,
};
use mealib_verify::BoundsEnv;

fn small_traffic(cat: &Catalogue, seed: u64) -> mealib_repro::serve::Traffic {
    let mut spec = TrafficSpec::poisson(cat, seed, 4, 1.5);
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    spec.p_impossible = 0.25;
    generate(cat, &spec)
}

#[test]
fn serve_trace_jsonl_parses_and_breakdown_reconciles() {
    let env = BoundsEnv::default();
    let cat = Catalogue::standard(&env);
    let traffic = small_traffic(&cat, 4242);
    assert!(!traffic.sessions.is_empty());

    let rec = TraceRecorder::shared();
    let (report, _) = serve_with_telemetry(
        &cat,
        &traffic,
        &ServeConfig::default(),
        &env,
        &Obs::new(rec.clone()),
        &TelemetryConfig::default(),
    );
    assert!(!report.completed.is_empty(), "some sessions complete");

    // Every JSONL line is a well-formed object of a known event type,
    // and the serving loop emits only admission (verify) and replay
    // (compute) spans.
    let jsonl = rec.to_jsonl();
    assert!(!jsonl.is_empty(), "trace captured events");
    let mut verify_spans = 0;
    let mut compute_spans = 0;
    for line in jsonl.lines() {
        let v = json::parse(line).expect("trace line parses as JSON");
        let obj = v.as_object().expect("trace line is an object");
        if obj["type"].as_str() == Some("span") {
            match obj["phase"].as_str() {
                Some("verify") => verify_spans += 1,
                Some("compute") => {
                    compute_spans += 1;
                    assert!(
                        obj["time_s"].as_f64().expect("span has modeled time") > 0.0,
                        "replay spans carry the epoch's modeled time"
                    );
                }
                other => panic!("serving loop emitted an unexpected phase {other:?}"),
            }
        }
    }
    assert!(verify_spans > 0, "admission spans recorded");
    assert!(compute_spans > 0, "replay spans recorded");
    assert_eq!(
        verify_spans, compute_spans,
        "each admitted epoch pairs one admission span with one replay"
    );

    // The recorder's accumulated view IS the report's breakdown: the
    // compute phase carries the whole modeled clock, bit for bit.
    let seen = rec.breakdown();
    assert_eq!(
        seen.phase(Phase::Compute).time.get().to_bits(),
        report.breakdown_compute_s().to_bits(),
        "recorder and report disagree on compute time"
    );
    assert_eq!(
        seen.phase(Phase::Compute).time.get().to_bits(),
        report.modeled_s.to_bits(),
        "breakdown compute time is not the modeled clock"
    );
    assert_eq!(
        seen.phase(Phase::Compute).energy.get().to_bits(),
        report
            .breakdown
            .phase(Phase::Compute)
            .energy
            .get()
            .to_bits(),
        "recorder and report disagree on replay energy"
    );
}

#[test]
fn observed_and_unobserved_runs_are_bit_identical() {
    // Instrumentation is read-only: hanging a recorder off the loop
    // must not perturb a single modeled bit.
    let env = BoundsEnv::default();
    let cat = Catalogue::standard(&env);
    let traffic = small_traffic(&cat, 777);
    let config = ServeConfig::default();

    let silent = mealib_repro::serve::serve(&cat, &traffic, &config, &env);
    let (observed, _) = serve_with_telemetry(
        &cat,
        &traffic,
        &config,
        &env,
        &Obs::new(TraceRecorder::shared()),
        &TelemetryConfig::default(),
    );
    assert_eq!(silent.fingerprint(), observed.fingerprint());
    assert_eq!(silent, observed);
}
