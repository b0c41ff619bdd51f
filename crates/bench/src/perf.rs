//! The perf-trajectory gate behind the `meaperf` binary.
//!
//! [`compare`] diffs two schema-versioned `BENCH_*.json` summaries
//! (see [`mealib_obs::bench_schema`]) metric by metric and classifies
//! each delta against one threshold. Every BENCH metric is modeled or
//! counted, so every metric gates hard; host wall time is measured by
//! the separate `perfbench` benchmark, never here.
//!
//! Whether a drop or a rise is bad depends on the metric:
//! gains/speedups/bandwidth are better bigger, times/energy/EDP are
//! better smaller, and a metric the heuristic cannot place regresses on
//! *any* drift beyond the threshold (modeled outputs are deterministic,
//! so unexplained movement is a model change that needs a look).

use mealib_obs::bench_schema::BenchSummary;
use mealib_obs::json::{array, Object};

/// Which direction of movement improves a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger is better (speedups, gains, bandwidth, throughput).
    BiggerBetter,
    /// Smaller is better (times, energy, EDP, overheads).
    SmallerBetter,
    /// Unknown: any drift beyond the threshold is flagged.
    Unknown,
}

/// Classifies a metric key by name.
pub fn metric_direction(key: &str) -> Direction {
    let k = key.to_ascii_lowercase();
    const BIGGER: [&str; 8] = [
        "gain",
        "speedup",
        "bandwidth",
        "gbps",
        "gflops",
        "hit",
        "coverage",
        "throughput",
    ];
    const SMALLER: [&str; 5] = ["time", "edp", "energy", "overhead", "latency"];
    if BIGGER.iter().any(|m| k.contains(m)) {
        Direction::BiggerBetter
    } else if SMALLER.iter().any(|m| k.contains(m)) {
        Direction::SmallerBetter
    } else {
        Direction::Unknown
    }
}

/// Allowed worsening of a metric, percent, unless `--threshold-pct` says
/// otherwise.
pub const DEFAULT_THRESHOLD_PCT: f64 = 5.0;

/// Parses a `--threshold-pct` value: a finite, non-negative percentage.
///
/// `f64::from_str` also accepts `nan` and `inf`; a NaN threshold makes
/// every comparison in the gate false, so it would pass any regression.
pub fn parse_threshold_pct(text: &str) -> Option<f64> {
    text.trim()
        .parse()
        .ok()
        .filter(|t: &f64| t.is_finite() && *t >= 0.0)
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Harness the metric belongs to.
    pub bench: String,
    /// Metric key.
    pub key: String,
    /// Value in the older summary.
    pub before: f64,
    /// Value in the newer summary.
    pub after: f64,
    /// Signed relative change in percent, `(after - before) / before`.
    pub delta_pct: f64,
    /// True when the delta worsens the metric beyond its threshold.
    pub regressed: bool,
}

/// The result of one [`compare`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateReport {
    /// Every compared metric, document order.
    pub deltas: Vec<MetricDelta>,
    /// `bench.key` names present in only one of the two summaries
    /// (reported, never gated — schema evolution is expected).
    pub missing: Vec<String>,
}

impl GateReport {
    /// Deltas that worsened beyond the threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    /// True when the gate should fail the build: at least one metric
    /// regressed.
    pub fn failed(&self) -> bool {
        self.regressions().next().is_some()
    }

    /// Human-readable report, one line per finding plus a verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.deltas {
            if !d.regressed && d.delta_pct.abs() < 1e-9 {
                continue; // unchanged metrics stay quiet
            }
            let status = if d.regressed { "FAIL" } else { "ok  " };
            out.push_str(&format!(
                "{status} {:<46} {:>14.6} -> {:>14.6}  ({:+.2}%)\n",
                format!("{}.{}", d.bench, d.key),
                d.before,
                d.after,
                d.delta_pct
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("note {m}: present in only one summary\n"));
        }
        let regressions = self.regressions().count();
        out.push_str(&format!(
            "{} metrics compared, {} regressed — {}\n",
            self.deltas.len(),
            regressions,
            if self.failed() {
                "GATE FAILED"
            } else {
                "gate passed"
            }
        ));
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self) -> String {
        let deltas: Vec<String> = self
            .deltas
            .iter()
            .map(|d| {
                let mut o = Object::new();
                o.str("bench", &d.bench);
                o.str("key", &d.key);
                o.num("before", d.before);
                o.num("after", d.after);
                o.num("delta_pct", d.delta_pct);
                o.bool("regressed", d.regressed);
                o.render()
            })
            .collect();
        let missing: Vec<String> = self
            .missing
            .iter()
            .map(|m| format!("\"{}\"", mealib_obs::json::escape(m)))
            .collect();
        let mut o = Object::new();
        o.bool("failed", self.failed());
        o.int("compared", self.deltas.len() as u64);
        o.int("regressed", self.regressions().count() as u64);
        o.raw("deltas", array(&deltas));
        o.raw("missing", array(&missing));
        o.render()
    }
}

fn classify(bench: &str, key: &str, before: f64, after: f64, threshold_pct: f64) -> MetricDelta {
    let delta_pct = if before != 0.0 {
        (after - before) / before * 100.0
    } else if after == 0.0 {
        0.0
    } else {
        f64::INFINITY
    };
    let regressed = match metric_direction(key) {
        Direction::BiggerBetter => delta_pct < -threshold_pct,
        Direction::SmallerBetter => delta_pct > threshold_pct,
        Direction::Unknown => delta_pct.abs() > threshold_pct,
    };
    MetricDelta {
        bench: bench.to_string(),
        key: key.to_string(),
        before,
        after,
        delta_pct,
        regressed,
    }
}

/// Compares `after` against the `before` baseline, flagging any metric
/// that worsens by more than `threshold_pct` percent.
///
/// Metrics present in both summaries are classified; metrics (or whole
/// benches) present in only one side are listed in
/// [`GateReport::missing`].
pub fn compare(before: &BenchSummary, after: &BenchSummary, threshold_pct: f64) -> GateReport {
    let mut report = GateReport::default();
    for b in &before.benches {
        let Some(a) = after.bench(&b.bench) else {
            report.missing.push(format!("{}.*", b.bench));
            continue;
        };
        for (key, old) in &b.metrics {
            match a.metric(key) {
                Some(new) => report
                    .deltas
                    .push(classify(&b.bench, key, *old, new, threshold_pct)),
                None => report.missing.push(format!("{}.{key}", b.bench)),
            }
        }
        for (key, _) in &a.metrics {
            if b.metric(key).is_none() {
                report.missing.push(format!("{}.{key}", b.bench));
            }
        }
    }
    for a in &after.benches {
        if before.bench(&a.bench).is_none() {
            report.missing.push(format!("{}.*", a.bench));
        }
    }
    report
}

/// An absolute floor on one metric of a summary: `bench.key >= min`.
///
/// Floors complement the relative trajectory gate: a metric can drift
/// within the threshold and still hard-fail when it falls below a
/// required value (e.g. `tenant_mix.verdict_correctness` must stay 1).
#[derive(Debug, Clone, PartialEq)]
pub struct MinRule {
    /// Harness the metric belongs to.
    pub bench: String,
    /// Metric key within the harness record.
    pub key: String,
    /// Inclusive lower bound the metric must meet.
    pub min: f64,
}

impl MinRule {
    /// Parses `bench.key=N` (as accepted by `meaperf --min`).
    pub fn parse(spec: &str) -> Option<Self> {
        let (name, min) = spec.split_once('=')?;
        let (bench, key) = name.split_once('.')?;
        if bench.is_empty() || key.is_empty() {
            return None;
        }
        Some(Self {
            bench: bench.to_string(),
            key: key.to_string(),
            min: min.trim().parse().ok().filter(|m: &f64| m.is_finite())?,
        })
    }
}

/// Checks `rules` against `summary`, returning one violation message
/// per rule that fails. A missing bench or metric is a violation — an
/// absent number must not silently pass a floor.
pub fn check_minimums(summary: &BenchSummary, rules: &[MinRule]) -> Vec<String> {
    let mut out = Vec::new();
    for r in rules {
        match summary.bench(&r.bench).and_then(|b| b.metric(&r.key)) {
            Some(v) if v >= r.min => {}
            Some(v) => out.push(format!(
                "MIN  {}.{} = {v:.6} < required {:.6}",
                r.bench, r.key, r.min
            )),
            None => out.push(format!(
                "MIN  {}.{} missing (required >= {:.6})",
                r.bench, r.key, r.min
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_obs::bench_schema::BenchRecord;

    fn summary(pairs: &[(&str, &[(&str, f64)])]) -> BenchSummary {
        let mut s = BenchSummary::new("test");
        for (bench, metrics) in pairs {
            s.benches.push(BenchRecord {
                bench: bench.to_string(),
                metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            });
        }
        s
    }

    #[test]
    fn direction_heuristics_cover_the_repo_metrics() {
        assert_eq!(metric_direction("avg_speedup"), Direction::BiggerBetter);
        assert_eq!(metric_direction("ee_gain"), Direction::BiggerBetter);
        assert_eq!(
            metric_direction("best_bandwidth_gbps"),
            Direction::BiggerBetter
        );
        assert_eq!(metric_direction("total_time_s"), Direction::SmallerBetter);
        assert_eq!(metric_direction("edp_gain"), Direction::BiggerBetter);
        assert_eq!(
            metric_direction("invocation_overhead"),
            Direction::SmallerBetter
        );
        assert_eq!(metric_direction("workloads"), Direction::Unknown);
    }

    #[test]
    fn bandwidth_drop_beyond_threshold_fails_the_gate() {
        let before = summary(&[("fig09", &[("speedup_fft", 38.0)])]);
        let after = summary(&[("fig09", &[("speedup_fft", 34.0)])]); // -10.5%
        let report = compare(&before, &after, DEFAULT_THRESHOLD_PCT);
        assert_eq!(report.regressions().count(), 1);
        assert!(report.failed());
        // The same drop within a 15% threshold passes.
        assert!(!compare(&before, &after, 15.0).failed());
    }

    #[test]
    fn improvements_never_fail() {
        let before = summary(&[("b", &[("speedup", 10.0), ("total_time_s", 4.0)])]);
        let after = summary(&[("b", &[("speedup", 20.0), ("total_time_s", 2.0)])]);
        assert!(!compare(&before, &after, DEFAULT_THRESHOLD_PCT).failed());
    }

    #[test]
    fn missing_metrics_are_noted_not_gated() {
        let before = summary(&[("a", &[("speedup", 1.0)]), ("gone", &[("x", 1.0)])]);
        let after = summary(&[("a", &[("renamed_speedup", 1.0)])]);
        let report = compare(&before, &after, DEFAULT_THRESHOLD_PCT);
        assert!(!report.failed());
        assert_eq!(report.deltas.len(), 0);
        assert!(report.missing.contains(&"a.speedup".to_string()));
        assert!(report.missing.contains(&"a.renamed_speedup".to_string()));
        assert!(report.missing.contains(&"gone.*".to_string()));
    }

    #[test]
    fn unknown_metrics_gate_on_any_drift() {
        let before = summary(&[("b", &[("workloads", 7.0)])]);
        let after = summary(&[("b", &[("workloads", 6.0)])]); // -14%
        assert!(compare(&before, &after, DEFAULT_THRESHOLD_PCT).failed());
    }

    #[test]
    fn min_rules_parse_and_floor_the_newer_summary() {
        let r = MinRule::parse("serve.admission_soundness=1").expect("valid spec");
        assert_eq!(
            r,
            MinRule {
                bench: "serve".into(),
                key: "admission_soundness".into(),
                min: 1.0
            }
        );
        assert!(MinRule::parse("no-equals").is_none());
        assert!(MinRule::parse("nodot=5").is_none());
        assert!(MinRule::parse("a.b=notanumber").is_none());
        // `f64::from_str` accepts these, but no metric can meet a NaN or
        // infinite floor and every metric meets a negative-infinite one.
        for bad in ["NaN", "nan", "inf", "-inf", "infinity"] {
            assert!(MinRule::parse(&format!("a.b={bad}")).is_none(), "{bad}");
        }

        let s = summary(&[("serve", &[("admission_soundness", 1.0)])]);
        assert!(check_minimums(&s, std::slice::from_ref(&r)).is_empty());
        let low = summary(&[("serve", &[("admission_soundness", 0.5)])]);
        let violations = check_minimums(&low, std::slice::from_ref(&r));
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("serve.admission_soundness"),
            "{violations:?}"
        );
        // A missing metric is a violation, not a silent pass.
        let missing = summary(&[("other", &[("x", 1.0)])]);
        assert_eq!(check_minimums(&missing, &[r]).len(), 1);
    }

    #[test]
    fn thresholds_must_be_finite_and_non_negative() {
        assert_eq!(parse_threshold_pct("5"), Some(5.0));
        assert_eq!(parse_threshold_pct("0"), Some(0.0));
        assert_eq!(parse_threshold_pct("12.5"), Some(12.5));
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "-1", "five", ""] {
            assert_eq!(parse_threshold_pct(bad), None, "{bad}");
        }
    }

    #[test]
    fn report_renders_and_json_parses() {
        let before = summary(&[("b", &[("speedup", 10.0), ("stable", 1.0)])]);
        let after = summary(&[("b", &[("speedup", 5.0), ("stable", 1.0)])]);
        let report = compare(&before, &after, DEFAULT_THRESHOLD_PCT);
        let text = report.render();
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("GATE FAILED"), "{text}");
        let v = mealib_obs::json::parse(&report.to_json()).expect("valid JSON");
        assert_eq!(v.get("failed"), Some(&mealib_obs::json::Value::Bool(true)));
        assert_eq!(v.get("regressed").and_then(|x| x.as_f64()), Some(1.0));
    }
}
