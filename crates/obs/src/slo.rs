//! Service-level objectives, error budgets, and sliding-window
//! burn-rate alerts — all in modeled time.
//!
//! An [`Objective`] declares a per-subject target (a tenant class, in
//! the serving stack) of one of three kinds:
//!
//! * **p99 latency** — at most `error_budget` of a window's
//!   completions may exceed `threshold` seconds. The caller counts
//!   violations *exactly* (each completion compared against the
//!   threshold when it happens), so burn decisions never depend on
//!   sketch approximation.
//! * **admission rate** — the fraction of a window's arrivals that
//!   are *not shed* must reach `threshold`. Proved rejections
//!   (impossible declared budgets, MEA3xx) are client errors and do
//!   not count against availability — the classic 4xx exclusion.
//! * **bandwidth floor** — delivered bytes over the window's busy
//!   (service) time must reach `threshold` bytes/second.
//!
//! The **burn rate** of a window is `shortfall / error_budget`: how
//! fast the window consumes its budget, with `> 1` meaning the budget
//! burns before the window ends — that raises an [`Alert`] of kind
//! [`AlertKind::SloBurn`]. The engine never alerts on "no data": a
//! window with no completions skips the latency and bandwidth checks
//! entirely (see [`crate::quantiles`] — "no data" is not "zero
//! latency").
//!
//! [`AlertKind::BoundsEscape`] is the distinct, stronger alert class:
//! a windowed observation escaped the tenant's MEA3xx *certified*
//! interval. The serving telemetry performs those exact checks itself
//! and raises the alert through [`SloEngine::raise`]; the engine
//! records it and taints conformance accounting the same way.
//!
//! Everything here is deterministic: windows are indexed, observations
//! arrive in modeled-time order, and [`SloEngine::conformance`] is a
//! pure ratio of checked-to-burning window evaluations.

use std::collections::BTreeMap;

use crate::json::Object;

/// What an [`Objective`] constrains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ObjectiveKind {
    /// p99 completion latency, seconds: at most `error_budget` of a
    /// window's completions may exceed the threshold.
    LatencyP99,
    /// Fraction of arrivals not shed must reach the threshold.
    AdmissionRate,
    /// Delivered bytes per second of busy time must reach the
    /// threshold.
    BandwidthFloor,
}

impl ObjectiveKind {
    /// Stable snake_case name used in alerts and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ObjectiveKind::LatencyP99 => "latency_p99",
            ObjectiveKind::AdmissionRate => "admission_rate",
            ObjectiveKind::BandwidthFloor => "bandwidth_floor",
        }
    }
}

/// One declared objective with its error budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// What is constrained.
    pub kind: ObjectiveKind,
    /// The target (seconds, fraction, or bytes/second by kind).
    pub threshold: f64,
    /// Tolerated shortfall per window: violation fraction for
    /// latency, rate shortfall for admission, relative shortfall for
    /// bandwidth. Must be positive.
    pub error_budget: f64,
}

/// One subject's aggregated observations over one sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowObs {
    /// Index of the window (e.g. the epoch closing it).
    pub window_index: u64,
    /// Modeled duration of the window, seconds.
    pub duration_s: f64,
    /// Completions in the window.
    pub completions: u64,
    /// Completions whose latency exceeded the subject's declared
    /// [`ObjectiveKind::LatencyP99`] threshold (counted exactly by
    /// the caller).
    pub latency_violations: u64,
    /// Fresh arrivals in the window.
    pub arrivals: u64,
    /// Arrivals shed in the window (server-side failures).
    pub shed: u64,
    /// Bytes delivered by the window's completions.
    pub bytes: u64,
    /// Summed service time of the window's completions, seconds.
    pub service_s: f64,
}

/// The alert taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AlertKind {
    /// An SLO window burned more than its error budget.
    SloBurn,
    /// A windowed observation escaped a certified MEA3xx interval —
    /// a *proved* anomaly, not a heuristic one.
    BoundsEscape,
}

impl AlertKind {
    /// Stable snake_case name used in JSON.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::SloBurn => "slo_burn",
            AlertKind::BoundsEscape => "bounds_escape",
        }
    }
}

/// One structured alert record.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Alert class.
    pub kind: AlertKind,
    /// The subject (tenant class) the alert concerns.
    pub subject: String,
    /// The violated objective's name (or the escaped bound's field).
    pub objective: String,
    /// The window that burned.
    pub window_index: u64,
    /// The observed value.
    pub observed: f64,
    /// The declared threshold (or certified bound) it violated.
    pub threshold: f64,
    /// Budget burn rate (`> 1` burns the budget; bounds escapes
    /// report `f64::INFINITY` — there is no budget against a proof).
    pub burn_rate: f64,
    /// Human-readable context.
    pub detail: String,
}

impl Alert {
    /// Renders the alert as one JSON object.
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        o.str("kind", self.kind.name());
        o.str("subject", &self.subject);
        o.str("objective", &self.objective);
        o.int("window", self.window_index);
        o.num("observed", self.observed);
        o.num("threshold", self.threshold);
        o.num("burn_rate", self.burn_rate);
        o.str("detail", &self.detail);
        o.render()
    }
}

/// The burn-rate engine: declared objectives per subject, evaluated
/// window by window.
#[derive(Debug, Clone, Default)]
pub struct SloEngine {
    specs: BTreeMap<String, Vec<Objective>>,
    alerts: Vec<Alert>,
    /// Objective-window evaluations performed / found burning.
    evaluated: u64,
    burning: u64,
}

impl SloEngine {
    /// An engine with no objectives (every window trivially conforms).
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `objective` for `subject`.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive error budget.
    pub fn declare(&mut self, subject: &str, objective: Objective) {
        assert!(
            objective.error_budget > 0.0,
            "{subject}/{}: error budget must be positive",
            objective.kind.name()
        );
        self.specs
            .entry(subject.to_string())
            .or_default()
            .push(objective);
    }

    /// The declared latency threshold for `subject`, if any — the
    /// caller uses it to count violations exactly at completion time.
    pub fn latency_threshold(&self, subject: &str) -> Option<f64> {
        self.specs
            .get(subject)?
            .iter()
            .find_map(|o| (o.kind == ObjectiveKind::LatencyP99).then_some(o.threshold))
    }

    /// Evaluates one subject's window against its declared
    /// objectives, raising a [`AlertKind::SloBurn`] alert per
    /// objective whose burn rate exceeds 1. Objectives with no data
    /// in the window (no completions, no arrivals, no busy time) are
    /// skipped, not passed.
    pub fn evaluate(&mut self, subject: &str, w: &WindowObs) {
        let Some(objectives) = self.specs.get(subject) else {
            return;
        };
        let mut fired: Vec<Alert> = Vec::new();
        for o in objectives {
            let (observed, shortfall) = match o.kind {
                ObjectiveKind::LatencyP99 => {
                    if w.completions == 0 {
                        continue;
                    }
                    let vf = w.latency_violations as f64 / w.completions as f64;
                    (vf, vf)
                }
                ObjectiveKind::AdmissionRate => {
                    if w.arrivals == 0 {
                        continue;
                    }
                    let rate = 1.0 - w.shed as f64 / w.arrivals as f64;
                    (rate, (o.threshold - rate).max(0.0))
                }
                ObjectiveKind::BandwidthFloor => {
                    if w.service_s <= 0.0 {
                        continue;
                    }
                    let bw = w.bytes as f64 / w.service_s;
                    (bw, ((o.threshold - bw) / o.threshold).max(0.0))
                }
            };
            self.evaluated += 1;
            let burn_rate = shortfall / o.error_budget;
            if burn_rate > 1.0 {
                self.burning += 1;
                // The detail is rendered only for a window that fires.
                let detail = match o.kind {
                    ObjectiveKind::LatencyP99 => format!(
                        "{}/{} completions over {:.3e}s",
                        w.latency_violations, w.completions, o.threshold
                    ),
                    ObjectiveKind::AdmissionRate => {
                        format!("{} of {} arrivals shed", w.shed, w.arrivals)
                    }
                    ObjectiveKind::BandwidthFloor => {
                        format!("{} bytes over {:.3e}s busy", w.bytes, w.service_s)
                    }
                };
                fired.push(Alert {
                    kind: AlertKind::SloBurn,
                    subject: subject.to_string(),
                    objective: o.kind.name().to_string(),
                    window_index: w.window_index,
                    observed,
                    threshold: o.threshold,
                    burn_rate,
                    detail,
                });
            }
        }
        self.alerts.extend(fired);
    }

    /// Records an externally-raised alert (the serving telemetry's
    /// certified-bounds monitor uses this for
    /// [`AlertKind::BoundsEscape`]).
    pub fn raise(&mut self, alert: Alert) {
        self.alerts.push(alert);
    }

    /// All alerts raised so far, in raise order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Objective-window evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluated
    }

    /// Fraction of objective-window evaluations that did *not* burn
    /// their budget; `1.0` when nothing was evaluated.
    pub fn conformance(&self) -> f64 {
        if self.evaluated == 0 {
            1.0
        } else {
            1.0 - self.burning as f64 / self.evaluated as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(completions: u64, violations: u64) -> WindowObs {
        WindowObs {
            window_index: 3,
            duration_s: 1.0,
            completions,
            latency_violations: violations,
            arrivals: completions,
            shed: 0,
            bytes: 1_000_000,
            service_s: 0.5,
        }
    }

    fn latency_slo(budget: f64) -> Objective {
        Objective {
            kind: ObjectiveKind::LatencyP99,
            threshold: 1e-3,
            error_budget: budget,
        }
    }

    #[test]
    fn healthy_windows_conform_without_alerts() {
        let mut e = SloEngine::new();
        e.declare("stap-tiny", latency_slo(0.05));
        e.declare(
            "stap-tiny",
            Objective {
                kind: ObjectiveKind::AdmissionRate,
                threshold: 0.9,
                error_budget: 0.5,
            },
        );
        e.evaluate("stap-tiny", &window(100, 2));
        assert!(e.alerts().is_empty());
        assert_eq!(e.evaluations(), 2);
        assert!((e.conformance() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn budget_burn_fires_a_structured_alert() {
        let mut e = SloEngine::new();
        e.declare("stap-tiny", latency_slo(0.05));
        // 10% violations against a 5% budget: burn rate 2.
        e.evaluate("stap-tiny", &window(100, 10));
        let alerts = e.alerts();
        assert_eq!(alerts.len(), 1);
        let a = &alerts[0];
        assert_eq!(a.kind, AlertKind::SloBurn);
        assert_eq!(a.objective, "latency_p99");
        assert!((a.burn_rate - 2.0).abs() < 1e-12, "{}", a.burn_rate);
        assert!(e.conformance() < 1.0);
        let v = crate::json::parse(&a.to_json()).expect("alert json parses");
        assert_eq!(v.get("kind").and_then(|x| x.as_str()), Some("slo_burn"));
    }

    #[test]
    fn empty_windows_are_skipped_not_passed() {
        let mut e = SloEngine::new();
        e.declare("stap-tiny", latency_slo(0.01));
        e.evaluate("stap-tiny", &WindowObs::default());
        assert_eq!(e.evaluations(), 0, "no data means no evaluation");
        assert!((e.conformance() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn shed_arrivals_burn_availability_but_rejections_do_not() {
        let mut e = SloEngine::new();
        e.declare(
            "c",
            Objective {
                kind: ObjectiveKind::AdmissionRate,
                threshold: 0.9,
                error_budget: 0.1,
            },
        );
        // 40% shed: rate 0.6, shortfall 0.3, burn 3.
        let mut w = window(10, 0);
        w.arrivals = 10;
        w.shed = 4;
        e.evaluate("c", &w);
        assert_eq!(e.alerts().len(), 1);
        assert!((e.alerts()[0].burn_rate - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_floor_uses_busy_time() {
        let mut e = SloEngine::new();
        e.declare(
            "c",
            Objective {
                kind: ObjectiveKind::BandwidthFloor,
                threshold: 4e6,
                error_budget: 0.25,
            },
        );
        // 1 MB over 0.5 s busy = 2 MB/s against a 4 MB/s floor:
        // relative shortfall 0.5, burn 2.
        e.evaluate("c", &window(10, 0));
        assert_eq!(e.alerts().len(), 1);
        assert!((e.alerts()[0].observed - 2e6).abs() < 1e-6);
    }

    #[test]
    fn raised_bounds_escapes_are_recorded_verbatim() {
        let mut e = SloEngine::new();
        e.raise(Alert {
            kind: AlertKind::BoundsEscape,
            subject: "stap-tiny".into(),
            objective: "elapsed_hi".into(),
            window_index: 9,
            observed: 2.0,
            threshold: 1.5,
            burn_rate: f64::INFINITY,
            detail: "s42 over certified ceiling".into(),
        });
        assert_eq!(e.alerts().len(), 1);
        assert_eq!(e.alerts()[0].kind, AlertKind::BoundsEscape);
        // Bounds escapes ride outside the budget accounting.
        assert_eq!(e.evaluations(), 0);
    }

    #[test]
    fn latency_threshold_lookup_serves_exact_violation_counting() {
        let mut e = SloEngine::new();
        e.declare("c", latency_slo(0.01));
        assert_eq!(e.latency_threshold("c"), Some(1e-3));
        assert_eq!(e.latency_threshold("other"), None);
    }
}
