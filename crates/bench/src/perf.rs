//! The perf-trajectory gate behind the `meaperf` binary.
//!
//! [`compare`] diffs two schema-versioned `BENCH_*.json` summaries
//! (see [`mealib_obs::bench_schema`]) metric by metric and classifies
//! each delta against configurable thresholds. Modeled metrics gate
//! hard; wall-clock metrics (`*wall_s`, `speedup_wall`, `*per_sec*`,
//! `fast_over_cycle`, per-record `wall_s`) get their own, looser
//! threshold and can be demoted to report-only — the smoke container
//! has one CPU, so wall time is noisy in ways modeled time never is.
//!
//! Whether a drop or a rise is bad depends on the metric:
//! gains/speedups/bandwidth are better bigger, times/energy/EDP are
//! better smaller, and a metric the heuristic cannot place regresses on
//! *any* drift beyond the threshold (modeled outputs are deterministic,
//! so unexplained movement is a model change that needs a look).

use mealib_obs::bench_schema::{BenchRecord, BenchSummary};
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
    const BIGGER: [&str; 9] = [
        "gain",
        "speedup",
        "bandwidth",
        "gbps",
        "gflops",
        "hit",
        "coverage",
        "throughput",
        "per_sec",
    ];
    const SMALLER: [&str; 6] = ["time", "edp", "energy", "wall", "overhead", "latency"];
    if BenchRecord::is_wall_speedup(key) || BIGGER.iter().any(|m| k.contains(m)) {
        Direction::BiggerBetter
    } else if SMALLER.iter().any(|m| k.contains(m)) {
        Direction::SmallerBetter
    } else {
        Direction::Unknown
    }
}

/// Thresholds for [`compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateOptions {
    /// Allowed worsening of a modeled metric, percent.
    pub metric_threshold_pct: f64,
    /// Allowed worsening of a wall-clock metric, percent.
    pub wall_threshold_pct: f64,
    /// When set, wall-clock regressions are reported but never fail
    /// the gate (the right setting for single-CPU smoke containers).
    pub wall_report_only: bool,
}

impl Default for GateOptions {
    fn default() -> Self {
        Self {
            metric_threshold_pct: 5.0,
            wall_threshold_pct: 20.0,
            wall_report_only: false,
        }
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Harness the metric belongs to.
    pub bench: String,
    /// Metric key (`"wall_s"` for the per-record wall time).
    pub key: String,
    /// Value in the older summary.
    pub before: f64,
    /// Value in the newer summary.
    pub after: f64,
    /// Signed relative change in percent, `(after - before) / before`.
    pub delta_pct: f64,
    /// True for wall-clock metrics.
    pub wall: bool,
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
    /// Deltas that worsened beyond their threshold, hard-gated or not.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricDelta> {
        self.deltas.iter().filter(|d| d.regressed)
    }

    /// True when the gate should fail the build: at least one regressed
    /// metric that is not demoted to report-only.
    pub fn failed(&self, gate: &GateOptions) -> bool {
        self.regressions()
            .any(|d| !(d.wall && gate.wall_report_only))
    }

    /// Human-readable report, one line per finding plus a verdict.
    pub fn render(&self, gate: &GateOptions) -> String {
        let mut out = String::new();
        for d in &self.deltas {
            if !d.regressed && d.delta_pct.abs() < 1e-9 {
                continue; // unchanged metrics stay quiet
            }
            let status = if !d.regressed {
                "ok  "
            } else if d.wall && gate.wall_report_only {
                "WARN"
            } else {
                "FAIL"
            };
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
            if self.failed(gate) {
                "GATE FAILED"
            } else {
                "gate passed"
            }
        ));
        out
    }

    /// Machine-readable report.
    pub fn to_json(&self, gate: &GateOptions) -> String {
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
                o.bool("wall", d.wall);
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
        o.bool("failed", self.failed(gate));
        o.int("compared", self.deltas.len() as u64);
        o.int("regressed", self.regressions().count() as u64);
        o.raw("deltas", array(&deltas));
        o.raw("missing", array(&missing));
        o.render()
    }
}

fn classify(bench: &str, key: &str, before: f64, after: f64, gate: &GateOptions) -> MetricDelta {
    let wall = key == "wall_s" || BenchRecord::is_wall_metric(key);
    let delta_pct = if before != 0.0 {
        (after - before) / before * 100.0
    } else if after == 0.0 {
        0.0
    } else {
        f64::INFINITY
    };
    let threshold = if wall {
        gate.wall_threshold_pct
    } else {
        gate.metric_threshold_pct
    };
    // Name-based direction wins even for wall metrics: a measured
    // throughput (`*per_sec*`) or `speedup_wall` is better *bigger*
    // despite being wall-derived. Only direction-less wall metrics
    // default to smaller-is-better (they are elapsed times).
    let direction = match metric_direction(key) {
        Direction::Unknown if wall => Direction::SmallerBetter,
        d => d,
    };
    let regressed = match direction {
        Direction::BiggerBetter => delta_pct < -threshold,
        Direction::SmallerBetter => delta_pct > threshold,
        Direction::Unknown => delta_pct.abs() > threshold,
    };
    MetricDelta {
        bench: bench.to_string(),
        key: key.to_string(),
        before,
        after,
        delta_pct,
        wall,
        regressed,
    }
}

/// Compares `after` against the `before` baseline.
///
/// Metrics present in both summaries are classified; metrics (or whole
/// benches) present in only one side are listed in
/// [`GateReport::missing`]. Per-record `wall_s` fields are compared as a
/// wall metric under that key.
pub fn compare(before: &BenchSummary, after: &BenchSummary, gate: &GateOptions) -> GateReport {
    let mut report = GateReport::default();
    for b in &before.benches {
        let Some(a) = after.bench(&b.bench) else {
            report.missing.push(format!("{}.*", b.bench));
            continue;
        };
        for (key, old) in &b.metrics {
            match a.metric(key) {
                Some(new) => report.deltas.push(classify(&b.bench, key, *old, new, gate)),
                None => report.missing.push(format!("{}.{key}", b.bench)),
            }
        }
        for (key, _) in &a.metrics {
            if b.metric(key).is_none() {
                report.missing.push(format!("{}.{key}", b.bench));
            }
        }
        if let (Some(old), Some(new)) = (b.wall_s, a.wall_s) {
            report
                .deltas
                .push(classify(&b.bench, "wall_s", old, new, gate));
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
/// Floors complement the relative trajectory gate: a wall-derived
/// throughput can be demoted to report-only for *drift* while still
/// hard-failing when it falls below a required multiple (e.g. the fast
/// engine must stay >= 5x the cycle engine's burst rate).
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
            min: min.trim().parse().ok()?,
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

    fn summary(pairs: &[(&str, &[(&str, f64)])]) -> BenchSummary {
        let mut s = BenchSummary::new("test");
        for (bench, metrics) in pairs {
            s.benches.push(BenchRecord {
                bench: bench.to_string(),
                metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
                wall_s: None,
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
        let gate = GateOptions::default();
        let report = compare(&before, &after, &gate);
        assert_eq!(report.regressions().count(), 1);
        assert!(report.failed(&gate));
        // The same drop within a 15% threshold passes.
        let loose = GateOptions {
            metric_threshold_pct: 15.0,
            ..gate
        };
        assert!(!compare(&before, &after, &loose).failed(&loose));
    }

    #[test]
    fn improvements_never_fail() {
        let before = summary(&[("b", &[("speedup", 10.0), ("total_time_s", 4.0)])]);
        let after = summary(&[("b", &[("speedup", 20.0), ("total_time_s", 2.0)])]);
        let gate = GateOptions::default();
        assert!(!compare(&before, &after, &gate).failed(&gate));
    }

    #[test]
    fn wall_metrics_use_their_own_threshold_and_can_be_report_only() {
        let before = summary(&[("b", &[("jobs1_wall_s", 1.0)])]);
        let after = summary(&[("b", &[("jobs1_wall_s", 1.5)])]); // +50%
        let gate = GateOptions::default();
        let report = compare(&before, &after, &gate);
        assert!(report.failed(&gate), "50% wall regression over 20% gate");
        let demoted = GateOptions {
            wall_report_only: true,
            ..gate
        };
        assert!(!report.failed(&demoted));
        assert_eq!(report.regressions().count(), 1, "still reported");
    }

    #[test]
    fn missing_metrics_are_noted_not_gated() {
        let before = summary(&[("a", &[("speedup", 1.0)]), ("gone", &[("x", 1.0)])]);
        let after = summary(&[("a", &[("renamed_speedup", 1.0)])]);
        let gate = GateOptions::default();
        let report = compare(&before, &after, &gate);
        assert!(!report.failed(&gate));
        assert_eq!(report.deltas.len(), 0);
        assert!(report.missing.contains(&"a.speedup".to_string()));
        assert!(report.missing.contains(&"a.renamed_speedup".to_string()));
        assert!(report.missing.contains(&"gone.*".to_string()));
    }

    #[test]
    fn per_record_wall_times_compare_as_wall() {
        let mut before = summary(&[("b", &[("speedup", 1.0)])]);
        before.benches[0].wall_s = Some(1.0);
        let mut after = summary(&[("b", &[("speedup", 1.0)])]);
        after.benches[0].wall_s = Some(1.1); // +10% < 20% wall threshold
        let gate = GateOptions::default();
        let report = compare(&before, &after, &gate);
        assert_eq!(report.deltas.len(), 2);
        assert!(!report.failed(&gate));
        let wall = report.deltas.iter().find(|d| d.key == "wall_s").unwrap();
        assert!(wall.wall && !wall.regressed);
    }

    #[test]
    fn unknown_metrics_gate_on_any_drift() {
        let before = summary(&[("b", &[("workloads", 7.0)])]);
        let after = summary(&[("b", &[("workloads", 6.0)])]); // -14%
        let gate = GateOptions::default();
        assert!(compare(&before, &after, &gate).failed(&gate));
    }

    #[test]
    fn wall_derived_throughput_gates_on_drops_not_rises() {
        // bursts_per_sec_per_core is wall-derived (loose threshold,
        // demotable) but bigger-is-better: a rise must never regress.
        let before = summary(&[("engine", &[("fast_bursts_per_sec_per_core", 1.0e6)])]);
        let faster = summary(&[("engine", &[("fast_bursts_per_sec_per_core", 2.0e6)])]);
        let slower = summary(&[("engine", &[("fast_bursts_per_sec_per_core", 0.5e6)])]);
        let gate = GateOptions::default();
        assert!(!compare(&before, &faster, &gate).failed(&gate));
        let report = compare(&before, &slower, &gate);
        assert!(report.failed(&gate), "-50% throughput over 20% wall gate");
        let d = &report.deltas[0];
        assert!(d.wall, "throughput is wall-derived");
        let demoted = GateOptions {
            wall_report_only: true,
            ..gate
        };
        assert!(!report.failed(&demoted), "and therefore demotable");
        // speedup_wall keeps its bigger-is-better name direction too.
        let before = summary(&[("b", &[("speedup_wall", 2.0)])]);
        let after = summary(&[("b", &[("speedup_wall", 4.0)])]);
        assert!(!compare(&before, &after, &gate).failed(&gate));
    }

    #[test]
    fn fast_over_cycle_gates_as_a_wall_speedup() {
        // The engines' measured burst-rate ratio: a rise is an
        // improvement, a drop gates at the wall threshold and is
        // demotable, while `--min` keeps its absolute floor.
        assert_eq!(metric_direction("fast_over_cycle"), Direction::BiggerBetter);
        let before = summary(&[("engine_throughput", &[("fast_over_cycle", 8.0)])]);
        let faster = summary(&[("engine_throughput", &[("fast_over_cycle", 16.0)])]);
        let slower = summary(&[("engine_throughput", &[("fast_over_cycle", 6.0)])]);
        let gate = GateOptions::default();
        assert!(!compare(&before, &faster, &gate).failed(&gate));
        let report = compare(&before, &slower, &gate);
        assert!(report.deltas[0].wall);
        assert!(report.failed(&gate), "-25% over the 20% wall gate");
        let demoted = GateOptions {
            wall_report_only: true,
            ..gate
        };
        assert!(!report.failed(&demoted));
        let floor = [MinRule::parse("engine_throughput.fast_over_cycle=7").unwrap()];
        assert!(check_minimums(&faster, &floor).is_empty());
        assert_eq!(check_minimums(&slower, &floor).len(), 1);
    }

    #[test]
    fn min_rules_parse_and_floor_the_newer_summary() {
        let r = MinRule::parse("engine.fast_over_cycle=5").expect("valid spec");
        assert_eq!(
            r,
            MinRule {
                bench: "engine".into(),
                key: "fast_over_cycle".into(),
                min: 5.0
            }
        );
        assert!(MinRule::parse("no-equals").is_none());
        assert!(MinRule::parse("nodot=5").is_none());
        assert!(MinRule::parse("a.b=notanumber").is_none());

        let s = summary(&[("engine", &[("fast_over_cycle", 7.5)])]);
        assert!(check_minimums(&s, std::slice::from_ref(&r)).is_empty());
        let low = summary(&[("engine", &[("fast_over_cycle", 3.0)])]);
        let violations = check_minimums(&low, std::slice::from_ref(&r));
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].contains("engine.fast_over_cycle"),
            "{violations:?}"
        );
        // A missing metric is a violation, not a silent pass.
        let missing = summary(&[("other", &[("x", 1.0)])]);
        assert_eq!(check_minimums(&missing, &[r]).len(), 1);
    }

    #[test]
    fn report_renders_and_json_parses() {
        let before = summary(&[("b", &[("speedup", 10.0), ("stable", 1.0)])]);
        let after = summary(&[("b", &[("speedup", 5.0), ("stable", 1.0)])]);
        let gate = GateOptions::default();
        let report = compare(&before, &after, &gate);
        let text = report.render(&gate);
        assert!(text.contains("FAIL"), "{text}");
        assert!(text.contains("GATE FAILED"), "{text}");
        let v = mealib_obs::json::parse(&report.to_json(&gate)).expect("valid JSON");
        assert_eq!(v.get("failed"), Some(&mealib_obs::json::Value::Bool(true)));
        assert_eq!(v.get("regressed").and_then(|x| x.as_f64()), Some(1.0));
    }
}
