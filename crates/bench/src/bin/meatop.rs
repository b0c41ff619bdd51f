//! `meatop` — a top-style view over the serving telemetry.
//!
//! Three modes:
//!
//! * default: run a small telemetered serve in-process and render the
//!   live view (quick demo, no artifacts needed);
//! * `--from <snapshots.jsonl>`: render the view from a snapshot
//!   stream `serve_traffic --telemetry <prefix>` wrote;
//! * `--check <prefix>`: validate the full artifact set on disk — the
//!   Prometheus exposition parses, every JSONL snapshot parses, the
//!   per-key snapshot deltas sum *exactly* to the exposed cumulative
//!   counters, and the lifecycle trace round-trips through the Chrome
//!   trace validator. Exits nonzero (panics) on any violation; the
//!   smoke gate runs this against the bench artifacts.
//!
//! The view itself: one row per tenant class with sketch-derived
//! service percentiles, plus per-epoch sparklines of admissions and
//! queue depth in modeled time.

use std::collections::BTreeMap;

use mealib_bench::{banner, section, HarnessOpts, JsonSummary};
use mealib_obs::json::{self, Value};
use mealib_obs::{validate_chrome_trace, validate_exposition, Obs};
use mealib_serve::{
    generate, serve_with_telemetry, Catalogue, ServeConfig, TelemetryConfig, TrafficSpec,
};
use mealib_sim::{sparkline, TextTable};
use mealib_verify::BoundsEnv;

struct TopArgs {
    from: Option<String>,
    check: Option<String>,
    seed: u64,
}

fn top_args() -> TopArgs {
    let mut out = TopArgs {
        from: None,
        check: None,
        seed: 42,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--from" => out.from = args.next(),
            "--check" => out.check = args.next(),
            "--seed" => {
                if let Some(v) = args.next().and_then(|v| v.parse().ok()) {
                    out.seed = v;
                }
            }
            _ => {}
        }
    }
    out
}

/// Extracts the `class="..."` label value from a flat metric key.
fn class_of(flat_key: &str) -> Option<&str> {
    let start = flat_key.find("class=\"")? + "class=\"".len();
    let rest = &flat_key[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// One parsed snapshot line.
struct Snapshot {
    epoch: u64,
    clock_s: f64,
    queue_depth: f64,
    alerts: u64,
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Value>,
}

fn parse_snapshots(doc: &str) -> Result<Vec<Snapshot>, String> {
    let mut out = Vec::new();
    for (i, line) in doc.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("snapshot line {}: {e}", i + 1))?;
        let num = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let mut counters = BTreeMap::new();
        if let Some(obj) = v.get("counters").and_then(Value::as_object) {
            for (k, val) in obj {
                counters.insert(
                    k.clone(),
                    val.as_f64()
                        .ok_or_else(|| format!("snapshot line {}: {k} not numeric", i + 1))?
                        as u64,
                );
            }
        }
        let mut histograms = BTreeMap::new();
        if let Some(obj) = v.get("histograms").and_then(Value::as_object) {
            for (k, val) in obj {
                histograms.insert(k.clone(), val.clone());
            }
        }
        let queue_depth = v
            .get("gauges")
            .and_then(|g| g.get("serve_queue_depth"))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        out.push(Snapshot {
            epoch: num("epoch") as u64,
            clock_s: num("clock_s"),
            queue_depth,
            alerts: num("alerts") as u64,
            counters,
            histograms,
        });
    }
    Ok(out)
}

fn render(snapshots: &[Snapshot], opts: &HarnessOpts) {
    let Some(last) = snapshots.last() else {
        println!("no snapshots — nothing to render");
        return;
    };
    section("per-class service percentiles (streaming sketches)");
    let mut table = TextTable::new(vec!["class", "count", "p50_ms", "p95_ms", "p99_ms"]);
    for (key, hist) in &last.histograms {
        if !key.starts_with("serve_service_seconds") {
            continue;
        }
        let class = class_of(key).unwrap_or(key);
        let field = |name: &str| hist.get(name).and_then(Value::as_f64).unwrap_or(0.0);
        table.push_row(vec![
            class.to_string(),
            format!("{}", field("count") as u64),
            format!("{:.3}", field("p50") * 1e3),
            format!("{:.3}", field("p95") * 1e3),
            format!("{:.3}", field("p99") * 1e3),
        ]);
    }
    print!("{table}");

    section("per-epoch activity (modeled time)");
    let admitted: Vec<f64> = snapshots
        .iter()
        .map(|s| {
            s.counters
                .iter()
                .filter(|(k, _)| k.starts_with("serve_admitted_total"))
                .map(|(_, v)| *v as f64)
                .sum()
        })
        .collect();
    let queue: Vec<f64> = snapshots.iter().map(|s| s.queue_depth).collect();
    println!("admitted  {}", sparkline(&admitted));
    println!("queue     {}", sparkline(&queue));
    println!(
        "epochs e0..e{}, modeled clock {:.3} ms, {} alerts",
        last.epoch,
        last.clock_s * 1e3,
        last.alerts
    );

    let mut summary = JsonSummary::new("meatop");
    summary.metric("snapshots", snapshots.len() as f64);
    summary.metric("final_epoch", last.epoch as f64);
    summary.metric("final_clock_s", last.clock_s);
    summary.metric("alerts", last.alerts as f64);
    summary.emit(opts);
}

/// `--check <prefix>`: validates the artifact set `serve_traffic
/// --telemetry` wrote and reconciles snapshots against the exposition.
fn check(prefix: &str, opts: &HarnessOpts) {
    let read = |suffix: &str| {
        let path = format!("{prefix}{suffix}");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("meatop: read {path}: {e}"))
    };
    let prom = read(".prom");
    let exposition = validate_exposition(&prom).expect("meatop: exposition must validate");
    let snapshots = parse_snapshots(&read(".snapshots.jsonl")).expect("meatop: snapshots parse");
    assert!(!snapshots.is_empty(), "meatop: no snapshots to check");

    // Per-key snapshot deltas must sum exactly to the exposed
    // cumulative counter: the flat snapshot key and the exposition
    // sample name render identically, so the reconciliation is a
    // literal line match.
    let mut summed: BTreeMap<String, u64> = BTreeMap::new();
    for s in &snapshots {
        for (k, v) in &s.counters {
            *summed.entry(k.clone()).or_default() += v;
        }
    }
    let mut reconciled = 0usize;
    for (key, total) in &summed {
        let line = format!("{key} {total}");
        assert!(
            prom.lines().any(|l| l == line),
            "meatop: exposition missing reconciled sample {line:?}"
        );
        reconciled += 1;
    }

    let trace = read(".trace.json");
    let trace_summary = validate_chrome_trace(&trace).expect("meatop: lifecycle trace round-trips");

    println!(
        "check ok: {} families, {} samples; {} snapshots, {} counters reconciled exactly; \
         {} trace spans on {} tracks",
        exposition.families,
        exposition.samples,
        snapshots.len(),
        reconciled,
        trace_summary.spans,
        trace_summary.tracks,
    );
    render(&snapshots, opts);

    let mut summary = JsonSummary::new("meatop_check");
    summary.metric("families", exposition.families as f64);
    summary.metric("samples", exposition.samples as f64);
    summary.metric("snapshots", snapshots.len() as f64);
    summary.metric("counters_reconciled", reconciled as f64);
    summary.metric("trace_spans", trace_summary.spans as f64);
    summary.emit(opts);
}

fn main() {
    let opts = HarnessOpts::from_env();
    let extra = top_args();
    banner(
        "meatop",
        "serving telemetry is inspectable live: bounded-memory sketches, \
         exact counter reconciliation, and modeled-time activity views",
    );

    if let Some(prefix) = &extra.check {
        check(prefix, &opts);
        return;
    }
    if let Some(path) = &extra.from {
        let doc =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("meatop: read {path}: {e}"));
        let snapshots = parse_snapshots(&doc).expect("meatop: snapshots parse");
        render(&snapshots, &opts);
        return;
    }

    section("self-run: small telemetered serve");
    let env = BoundsEnv::default();
    let catalogue = Catalogue::standard(&env);
    let mut spec = TrafficSpec::poisson(&catalogue, extra.seed, 8, 1.5);
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    let traffic = generate(&catalogue, &spec);
    let config = ServeConfig::default();
    for class in catalogue
        .classes()
        .filter(|c| matches!(c.name.as_str(), "stap-tiny" | "sar-chain-256"))
    {
        println!(
            "{:>14}: working set {:.2} MB, slot 0x{:x}",
            class.name,
            class.parsed.working_set() as f64 / 1e6,
            class.slot,
        );
    }
    let tcfg = TelemetryConfig::standard(&catalogue);
    let (report, tele) =
        serve_with_telemetry(&catalogue, &traffic, &config, &env, &Obs::off(), &tcfg);
    tele.reconcile(&report)
        .expect("meatop: self-run telemetry must reconcile");
    let snapshots = parse_snapshots(&tele.snapshots_jsonl()).expect("meatop: snapshots parse");
    render(&snapshots, &opts);
}
