//! Cross-layer checks of the serving loop: `serve_with_telemetry` feeds the
//! `mealib-obs` pipeline (the lifecycle trace pairs every admission with
//! a completion), the recorder's view reconciles bit-for-bit with the
//! report's own breakdown, and the umbrella re-export path works end to
//! end.

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
    let (report, tele) = serve_with_telemetry(
        &cat,
        &traffic,
        &ServeConfig::default(),
        &env,
        &Obs::new(rec.clone()),
        &TelemetryConfig::default(),
    );
    assert!(!report.completed.is_empty(), "some sessions complete");

    // The lifecycle trace carries the admission decisions as `verify`
    // markers and the completions as `drain` markers: every admitted
    // session completes exactly once.
    let doc = json::parse(&tele.chrome_trace()).expect("lifecycle trace parses as JSON");
    let events = doc.get("traceEvents").and_then(json::Value::as_array);
    let mut admitted = Vec::new();
    let mut completed = Vec::new();
    for ev in events.expect("trace has events") {
        let name = ev.get("name").and_then(json::Value::as_str).unwrap_or("");
        let words: Vec<&str> = name.split_whitespace().collect();
        match ev.get("cat").and_then(json::Value::as_str) {
            Some("verify") if words.get(1) == Some(&"admit") => admitted.push(words[2].to_string()),
            Some("drain") if words.first() == Some(&"complete") => {
                completed.push(words[1].to_string());
            }
            Some(cat) => assert!(Phase::from_name(cat).is_some(), "unknown phase {cat:?}"),
            None => {}
        }
    }
    admitted.sort();
    completed.sort();
    let mut want: Vec<String> = report
        .completed
        .iter()
        .map(|c| format!("s{}", c.id))
        .collect();
    want.sort();
    assert_eq!(admitted, want, "admission markers vs completed sessions");
    assert_eq!(completed, want, "completion markers vs completed sessions");

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
