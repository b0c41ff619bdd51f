//! Live serving telemetry: streaming metric sketches, per-session
//! lifecycle traces, and the certified-bounds SLO engine.
//!
//! [`Telemetry`] rides the epoch loop through a handful of hooks the
//! scheduler calls per event (one `Option` check each on the hot
//! path). It maintains:
//!
//! * a [`MetricsRegistry`] of labeled counters, gauges, and
//!   bounded-memory quantile sketches — per-class service times live
//!   in `O(classes × buckets)` regardless of how many sessions flow
//!   through (the soak test pins this down);
//! * a per-session **lifecycle trace**: one causal chain per session
//!   id from arrival through every admission attempt (REJECT markers
//!   carry the proved MEA3xx codes in their label), backoff/park,
//!   placement, replay service span, and completion or shed — one
//!   Perfetto track per tenant class, exported through the Chrome
//!   trace-event writer;
//! * an [`SloEngine`] evaluating per-class objectives over a sliding
//!   window of epochs in **modeled time**, plus the certified-bounds
//!   conformance monitor: every completion's measured service time,
//!   bytes, and energy are checked against the MEA3xx interval its
//!   admission proved, and an escape raises the distinct
//!   [`AlertKind::BoundsEscape`] class — measurement leaving proof is
//!   an anomaly of a different kind than an SLO burn.
//!
//! Everything is deterministic: the only clock is the scheduler's
//! modeled clock, so fingerprinted output (snapshots, exposition,
//! traces, alerts) is bit-identical across repeats and worker counts.
//!
//! Reconciliation is exact, not approximate: counters are `u64`
//! event counts, and the accumulated replay clock/energy repeat the
//! scheduler's own addition order, so [`TelemetryReport::reconcile`]
//! compares them to [`ServeReport`] totals via `to_bits`, not
//! epsilons.
//!
//! The per-epoch snapshot is incremental, so telemetry stays cheap
//! enough to leave on. Each line is written straight into one
//! `String`. A metric's escaped key is rendered once, the first time
//! the metric appears. A histogram's sketch summary is re-rendered
//! only when its `count()` moved. Every byte is what the
//! `json::Object` rendering produced; `scheduler_determinism.rs` pins
//! the four artifacts by digest.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use mealib_obs::json;
use mealib_obs::profile::{validate_chrome_trace, IntervalEvent, Profile};
use mealib_obs::{
    Alert, AlertKind, MetricKey, MetricsRegistry, Objective, ObjectiveKind, Phase, SloEngine,
    WindowObs,
};
use mealib_types::Seconds;
use mealib_verify::interference::TenantBounds;

use crate::decision::DecisionEvent;
use crate::metrics::{EpochStats, ServeReport};
use crate::session::{Catalogue, CompletedSession, SessionRequest};

/// Telemetry knobs. [`TelemetryConfig::standard`] derives safe
/// default objectives from the catalogue's certified solo bounds.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sliding SLO window, in epochs.
    pub window_epochs: usize,
    /// Relative accuracy of the quantile sketches (1% default).
    pub sketch_alpha: f64,
    /// Declared objectives: `(class, objective)` pairs.
    pub slos: Vec<(String, Objective)>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self {
            window_epochs: 8,
            sketch_alpha: 0.01,
            slos: Vec::new(),
        }
    }
}

impl TelemetryConfig {
    /// Default objectives for every catalogue class: a p99 latency
    /// ceiling at a generous multiple of the certified solo elapsed
    /// ceiling (contention stretches service, but the admission gate
    /// bounds how far), an admission-rate floor of 0.9 with a wide
    /// budget (alerts mean *sustained* overload shedding, not one
    /// tail-drop), and a nominal delivered-bandwidth floor.
    pub fn standard(catalogue: &Catalogue) -> Self {
        let mut slos = Vec::new();
        for class in catalogue.classes() {
            let (_, solo_hi) = class.solo_elapsed;
            slos.push((
                class.name.clone(),
                Objective {
                    kind: ObjectiveKind::LatencyP99,
                    threshold: solo_hi * 256.0,
                    error_budget: 0.05,
                },
            ));
            slos.push((
                class.name.clone(),
                Objective {
                    kind: ObjectiveKind::AdmissionRate,
                    threshold: 0.9,
                    error_budget: 0.5,
                },
            ));
            slos.push((
                class.name.clone(),
                Objective {
                    kind: ObjectiveKind::BandwidthFloor,
                    threshold: 1.0,
                    error_budget: 0.5,
                },
            ));
        }
        Self {
            slos,
            ..Self::default()
        }
    }
}

/// One class's per-epoch aggregate, summed over the sliding window
/// into a [`WindowObs`].
#[derive(Debug, Clone, Copy, Default)]
struct EpochAgg {
    arrivals: u64,
    shed: u64,
    completions: u64,
    latency_violations: u64,
    bytes: u64,
    service_s: f64,
}

/// A counter's snapshot key, escaped once, and its last flushed value.
#[derive(Debug)]
struct Flushed {
    key: String,
    value: u64,
}

impl Flushed {
    fn new(key: &MetricKey) -> Self {
        Self {
            key: json::escape(&key.flat()),
            value: 0,
        }
    }
}

/// A histogram's snapshot key, escaped once, its last rendered sketch
/// summary, and the sketch `count()` it was rendered at.
#[derive(Debug)]
struct Rendered {
    key: String,
    count: Option<u64>,
    summary: String,
}

impl Rendered {
    fn new(key: &MetricKey) -> Self {
        Self {
            key: json::escape(&key.flat()),
            count: None,
            summary: String::new(),
        }
    }
}

/// The live telemetry pipeline the scheduler feeds.
#[derive(Debug)]
pub struct Telemetry {
    window_epochs: usize,
    registry: MetricsRegistry,
    slo: SloEngine,
    latency_thresholds: BTreeMap<String, f64>,
    profile: Profile,
    snapshots: Vec<String>,
    /// Per counter: its escaped snapshot key and the value already
    /// flushed into a snapshot (the next snapshot carries the delta).
    flushed: BTreeMap<MetricKey, Flushed>,
    /// Per histogram: its last rendered sketch summary.
    rendered: BTreeMap<MetricKey, Rendered>,
    classes_seen: BTreeSet<String>,
    pending: BTreeMap<String, EpochAgg>,
    windows: BTreeMap<String, VecDeque<EpochAgg>>,
    /// Modeled clock at the end of the last `window_epochs + 1`
    /// epochs (front = just before the current window opened).
    clock_marks: VecDeque<f64>,
    /// Replay clock/energy re-accumulated in the scheduler's own
    /// addition order, so the totals reconcile with
    /// `ServeReport::modeled_s` and the breakdown bit for bit.
    replay_total_s: f64,
    energy_total_j: f64,
    bounds_checked: u64,
    bounds_failed: u64,
    last_epoch: u64,
}

impl Telemetry {
    /// Builds the pipeline and declares every configured objective.
    pub fn new(config: &TelemetryConfig) -> Self {
        let mut slo = SloEngine::new();
        for (class, objective) in &config.slos {
            slo.declare(class, *objective);
        }
        let latency_thresholds = slo
            .subjects()
            .map(str::to_string)
            .collect::<Vec<_>>()
            .into_iter()
            .filter_map(|s| slo.latency_threshold(&s).map(|t| (s, t)))
            .collect();
        let mut registry = MetricsRegistry::with_alpha(config.sketch_alpha);
        describe_metrics(&mut registry);
        Self {
            window_epochs: config.window_epochs.max(1),
            registry,
            slo,
            latency_thresholds,
            profile: Profile::new(),
            snapshots: Vec::new(),
            flushed: BTreeMap::new(),
            rendered: BTreeMap::new(),
            classes_seen: BTreeSet::new(),
            pending: BTreeMap::new(),
            windows: BTreeMap::new(),
            clock_marks: VecDeque::new(),
            replay_total_s: 0.0,
            energy_total_j: 0.0,
            bounds_checked: 0,
            bounds_failed: 0,
            last_epoch: 0,
        }
    }

    /// Mutable registry access (the scheduler exports runtime/plan
    /// counters through this at the end of the run).
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    fn marker(&mut self, class: &str, phase: Phase, label: String, clock_s: f64) {
        // `Profile::interval` drops zero-duration spans; lifecycle
        // markers are *meant* to be instants, so push directly.
        self.profile.intervals.push(IntervalEvent {
            track: format!("{class}/lifecycle"),
            phase,
            label,
            start: Seconds::new(clock_s),
            end: Seconds::new(clock_s),
        });
    }

    /// A fresh session arrived (before any shed/queue decision).
    pub fn on_arrival(&mut self, req: &SessionRequest, clock_s: f64) {
        self.classes_seen.insert(req.class.clone());
        self.registry
            .inc("serve_arrivals_total", &[("class", &req.class)]);
        self.pending.entry(req.class.clone()).or_default().arrivals += 1;
        self.marker(
            &req.class,
            Phase::Plan,
            format!("arrive s{}", req.id),
            clock_s,
        );
    }

    /// One scheduler decision (admit / reject / backoff / shed ...).
    pub fn on_decision(&mut self, ev: &DecisionEvent, class: &str, clock_s: f64) {
        self.classes_seen.insert(class.to_string());
        self.last_epoch = self.last_epoch.max(ev.epoch());
        if let Some(reason) = ev.shed_reason() {
            self.registry.inc(
                "serve_shed_total",
                &[("class", class), ("reason", reason.label())],
            );
            self.pending.entry(class.to_string()).or_default().shed += 1;
        } else {
            let counter = match ev {
                DecisionEvent::Admit { .. } => "serve_admitted_total",
                // Proved rejections are client errors — they count
                // nowhere in the availability window (4xx exclusion).
                DecisionEvent::Reject { .. } => "serve_rejected_total",
                DecisionEvent::Backoff { .. } => "serve_backoff_total",
                DecisionEvent::UnknownRetry { .. } => "serve_unknown_retry_total",
                _ => unreachable!("every shed event has a shed_reason"),
            };
            self.registry.inc(counter, &[("class", class)]);
        }
        // The marker label *is* the legacy decision line, so a REJECT
        // span carries the proved MEA3xx codes verbatim.
        self.marker(class, Phase::Verify, ev.to_string(), clock_s);
    }

    /// The epoch's merged replay finished: re-accumulate the modeled
    /// clock and energy in the scheduler's own order.
    pub fn on_replay(&mut self, elapsed_s: f64, energy_j: f64) {
        self.replay_total_s += elapsed_s;
        self.energy_total_j += energy_j;
    }

    /// One admitted session completed, with its exact attribution and
    /// the MEA3xx bounds its admission proved. `epoch_clock_s` is the
    /// modeled clock when the epoch's replay *started* (service spans
    /// of one batch share it, so they nest in the trace);
    /// `first_burst_s` is the tenant's time-to-first-burst from the
    /// tagged engine (`0` when the tenant issued no bursts).
    pub fn on_completion(
        &mut self,
        epoch_clock_s: f64,
        done: &CompletedSession,
        certified: &TenantBounds,
        first_burst_s: f64,
    ) {
        let class = done.class.clone();
        self.classes_seen.insert(class.clone());
        self.registry
            .add("serve_bytes_total", &[("class", &class)], done.bytes);
        self.registry.observe(
            "serve_service_seconds",
            &[("class", &class)],
            done.service_s,
        );
        self.registry.observe(
            "serve_queue_delay_seconds",
            &[("class", &class)],
            done.queue_delay_s,
        );
        if first_burst_s > 0.0 {
            self.registry.observe(
                "serve_first_burst_seconds",
                &[("class", &class)],
                first_burst_s,
            );
        }

        let agg = self.pending.entry(class.clone()).or_default();
        agg.completions += 1;
        agg.bytes += done.bytes;
        agg.service_s += done.service_s;
        // Violations are counted exactly, per completion, against the
        // declared threshold — never derived from the sketch.
        if let Some(&threshold) = self.latency_thresholds.get(&class) {
            if done.service_s > threshold {
                agg.latency_violations += 1;
            }
        }

        self.check_certified(done, certified);

        self.profile.intervals.push(IntervalEvent {
            track: class.clone(),
            phase: Phase::Compute,
            label: format!("serve s{}", done.id),
            start: Seconds::new(epoch_clock_s),
            end: Seconds::new(epoch_clock_s + done.service_s),
        });
        if first_burst_s > 0.0 {
            self.marker(
                &class,
                Phase::Dma,
                format!("first-burst s{}", done.id),
                epoch_clock_s + first_burst_s,
            );
        }
        self.marker(
            &class,
            Phase::Drain,
            format!("complete s{}", done.id),
            epoch_clock_s + done.service_s,
        );
    }

    /// The conformance monitor: measured attribution must stay inside
    /// the certified MEA3xx intervals the admission proved. An escape
    /// is a *proved* anomaly and raises [`AlertKind::BoundsEscape`].
    fn check_certified(&mut self, done: &CompletedSession, certified: &TenantBounds) {
        let bytes_lo = certified.bytes_read.lo + certified.bytes_written.lo;
        let bytes_hi = certified.bytes_read.hi + certified.bytes_written.hi;
        let checks = [
            (
                "elapsed",
                done.service_s,
                certified.elapsed.lo,
                certified.elapsed.hi,
            ),
            ("bytes", done.bytes as f64, bytes_lo, bytes_hi),
            (
                "energy",
                done.energy_j,
                certified.energy.lo,
                certified.energy.hi,
            ),
        ];
        for (field, observed, lo, hi) in checks {
            self.bounds_checked += 1;
            if observed < lo || observed > hi {
                self.bounds_failed += 1;
                self.slo.raise(Alert {
                    kind: AlertKind::BoundsEscape,
                    subject: done.class.clone(),
                    objective: field.to_string(),
                    window_index: done.admitted_epoch,
                    observed,
                    threshold: if observed > hi { hi } else { lo },
                    burn_rate: f64::INFINITY,
                    detail: format!(
                        "s{}: measured {field} {observed:e} escaped certified [{:e}, {:e}]",
                        done.id, lo, hi
                    ),
                });
            }
        }
    }

    /// The epoch closed: set gauges, flush the per-epoch snapshot
    /// delta, slide the SLO window, and evaluate every class.
    pub fn on_epoch_end(&mut self, st: &EpochStats) {
        self.last_epoch = self.last_epoch.max(st.epoch);
        self.registry.inc("serve_epochs_total", &[]);
        self.registry
            .set_gauge("serve_queue_depth", &[], st.queue_depth_end as f64);
        self.registry
            .set_gauge("serve_clock_seconds", &[], st.clock_s);
        self.registry
            .set_gauge("serve_replay_seconds_total", &[], self.replay_total_s);
        self.registry
            .set_gauge("serve_energy_joules_total", &[], self.energy_total_j);

        self.flush_snapshot(st.epoch, st.clock_s, st.replay_elapsed_s);

        // Slide the window: every class seen so far advances one
        // epoch (absent classes advance with an empty aggregate, so
        // stale epochs age out on schedule).
        for class in &self.classes_seen {
            let agg = self.pending.remove(class).unwrap_or_default();
            let deque = self.windows.entry(class.clone()).or_default();
            deque.push_back(agg);
            while deque.len() > self.window_epochs {
                deque.pop_front();
            }
        }
        self.pending.clear();
        self.clock_marks.push_back(st.clock_s);
        while self.clock_marks.len() > self.window_epochs + 1 {
            self.clock_marks.pop_front();
        }
        let window_start = if self.clock_marks.len() == self.window_epochs + 1 {
            self.clock_marks.front().copied().unwrap_or(0.0)
        } else {
            0.0
        };
        let classes: Vec<String> = self.windows.keys().cloned().collect();
        for class in classes {
            let deque = &self.windows[&class];
            let mut w = WindowObs {
                window_index: st.epoch,
                duration_s: st.clock_s - window_start,
                ..WindowObs::default()
            };
            for agg in deque {
                w.arrivals += agg.arrivals;
                w.shed += agg.shed;
                w.completions += agg.completions;
                w.latency_violations += agg.latency_violations;
                w.bytes += agg.bytes;
                w.service_s += agg.service_s;
            }
            self.slo.evaluate(&class, &w);
        }
    }

    /// Flushes one JSONL snapshot line carrying this epoch's counter
    /// *deltas* (snapshot sums reconcile exactly with the final
    /// cumulative counters), current gauges, and cumulative sketch
    /// summaries.
    ///
    /// The line is written straight into one `String`. Each metric's
    /// escaped key is rendered once, when the metric first appears, and
    /// each histogram's sketch summary is re-rendered only when its
    /// `count()` moved: every sketch mutation (`record`, `merge`) raises
    /// the count, so an unchanged count means an unchanged sketch and an
    /// unchanged summary.
    fn flush_snapshot(&mut self, epoch: u64, clock_s: f64, replay_elapsed_s: f64) {
        let mut line = String::with_capacity(self.snapshots.last().map_or(256, String::len));
        let _ = write!(line, "{{\"epoch\":{epoch},\"clock_s\":");
        json::write_f64(&mut line, clock_s);
        line.push_str(",\"replay_elapsed_s\":");
        json::write_f64(&mut line, replay_elapsed_s);
        let _ = write!(
            line,
            ",\"alerts\":{},\"counters\":{{",
            self.slo.alerts().len()
        );
        let mut first = true;
        for (key, value) in self.registry.counters() {
            let flushed = match self.flushed.get_mut(key) {
                Some(f) => f,
                None => self
                    .flushed
                    .entry(key.clone())
                    .or_insert_with(|| Flushed::new(key)),
            };
            if value > flushed.value {
                if !std::mem::take(&mut first) {
                    line.push(',');
                }
                let _ = write!(line, "\"{}\":{}", flushed.key, value - flushed.value);
                flushed.value = value;
            }
        }
        line.push_str("},\"gauges\":{");
        let mut first = true;
        for name in ["serve_queue_depth", "serve_clock_seconds"] {
            if let Some(v) = self.registry.gauge(name, &[]) {
                if !std::mem::take(&mut first) {
                    line.push(',');
                }
                let _ = write!(line, "\"{name}\":");
                json::write_f64(&mut line, v);
            }
        }
        line.push_str("},\"histograms\":{");
        let mut first = true;
        for (key, sketch) in self.registry.histograms() {
            let cached = match self.rendered.get_mut(key) {
                Some(c) => c,
                None => self
                    .rendered
                    .entry(key.clone())
                    .or_insert_with(|| Rendered::new(key)),
            };
            if cached.count != Some(sketch.count()) {
                cached.summary.clear();
                sketch.write_json(&mut cached.summary);
                cached.count = Some(sketch.count());
            }
            if !std::mem::take(&mut first) {
                line.push(',');
            }
            let _ = write!(line, "\"{}\":{}", cached.key, cached.summary);
        }
        line.push_str("}}");
        self.snapshots.push(line);
    }

    /// `true` when some counter moved since the last snapshot
    /// (drain-deadline sheds land after the final epoch line).
    fn dirty(&self) -> bool {
        self.registry
            .counters()
            .any(|(k, v)| v > self.flushed.get(k).map_or(0, |f| f.value))
    }

    /// Closes the run: flushes any trailing counter deltas (the drain
    /// deadline sheds after the last epoch snapshot) and freezes the
    /// pipeline into a [`TelemetryReport`].
    pub fn finish(mut self, final_clock_s: f64, peak_queue_depth: usize) -> TelemetryReport {
        self.registry
            .set_gauge("serve_clock_seconds", &[], final_clock_s);
        self.registry
            .set_gauge("serve_peak_queue_depth", &[], peak_queue_depth as f64);
        self.registry
            .set_gauge("serve_replay_seconds_total", &[], self.replay_total_s);
        self.registry
            .set_gauge("serve_energy_joules_total", &[], self.energy_total_j);
        if self.dirty() {
            let epoch = self.last_epoch;
            self.flush_snapshot(epoch, final_clock_s, 0.0);
        }
        TelemetryReport {
            registry: self.registry,
            snapshots: self.snapshots,
            alerts: self.slo.alerts().to_vec(),
            slo_evaluations: self.slo.evaluations(),
            slo_conformance: self.slo.conformance(),
            bounds_checks: self.bounds_checked,
            bounds_failures: self.bounds_failed,
            profile: self.profile,
            replay_total_s: self.replay_total_s,
            energy_total_j: self.energy_total_j,
        }
    }
}

fn describe_metrics(reg: &mut MetricsRegistry) {
    reg.describe("serve_arrivals_total", "Fresh session arrivals");
    reg.describe(
        "serve_admitted_total",
        "Sessions admitted by certified proof",
    );
    reg.describe(
        "serve_rejected_total",
        "Sessions the certifier proved inadmissible (client errors)",
    );
    reg.describe("serve_shed_total", "Sessions dropped by policy");
    reg.describe(
        "serve_backoff_total",
        "Non-terminal REJECTs parked with backoff",
    );
    reg.describe(
        "serve_unknown_retry_total",
        "UNKNOWN verdicts parked for retry",
    );
    reg.describe("serve_bytes_total", "Exact bytes completed sessions moved");
    reg.describe("serve_epochs_total", "Scheduling epochs run");
    reg.describe("serve_queue_depth", "Wait-queue depth at epoch end");
    reg.describe("serve_clock_seconds", "Modeled clock");
    reg.describe(
        "serve_replay_seconds_total",
        "Accumulated modeled replay time (== modeled clock)",
    );
    reg.describe(
        "serve_energy_joules_total",
        "Accumulated modeled DRAM energy",
    );
    reg.describe("serve_peak_queue_depth", "Deepest the wait queue ever got");
    reg.describe("serve_service_seconds", "Per-class modeled service time");
    reg.describe(
        "serve_queue_delay_seconds",
        "Per-class modeled queueing delay",
    );
    reg.describe(
        "serve_first_burst_seconds",
        "Per-class time to first DRAM burst completion",
    );
}

/// The frozen output of one telemetered run.
#[derive(Debug)]
pub struct TelemetryReport {
    /// Final cumulative registry.
    pub registry: MetricsRegistry,
    /// Per-epoch JSONL snapshot lines, in epoch order.
    pub snapshots: Vec<String>,
    /// Every alert raised, in raise order.
    pub alerts: Vec<Alert>,
    /// Objective-window evaluations performed.
    pub slo_evaluations: u64,
    /// Fraction of evaluations that did not burn their budget.
    pub slo_conformance: f64,
    /// Certified-interval checks performed (3 per completion).
    pub bounds_checks: u64,
    /// Checks where measurement escaped proof.
    pub bounds_failures: u64,
    /// The lifecycle trace (one track per class plus markers).
    pub profile: Profile,
    /// Replay time re-accumulated in scheduler order (bit-equal to
    /// `ServeReport::modeled_s`).
    pub replay_total_s: f64,
    /// Energy re-accumulated in scheduler order.
    pub energy_total_j: f64,
}

impl TelemetryReport {
    /// Fraction of certified-interval checks that held; `1.0` when no
    /// sessions completed.
    pub fn certified_bounds_conformance(&self) -> f64 {
        if self.bounds_checks == 0 {
            1.0
        } else {
            1.0 - self.bounds_failures as f64 / self.bounds_checks as f64
        }
    }

    /// Prometheus text exposition of the final registry.
    pub fn prometheus(&self) -> String {
        self.registry.to_prometheus()
    }

    /// All per-epoch snapshots as one JSONL document.
    pub fn snapshots_jsonl(&self) -> String {
        let mut out = String::new();
        for line in &self.snapshots {
            out.push_str(line);
            out.push('\n');
        }
        out
    }

    /// All alerts as one JSONL document.
    pub fn alerts_jsonl(&self) -> String {
        let mut out = String::new();
        for a in &self.alerts {
            out.push_str(&a.to_json());
            out.push('\n');
        }
        out
    }

    /// The lifecycle trace as a Chrome trace-event document.
    pub fn chrome_trace(&self) -> String {
        self.profile.to_chrome_trace()
    }

    /// Count of alerts of `kind`.
    pub fn alert_count(&self, kind: AlertKind) -> u64 {
        self.alerts.iter().filter(|a| a.kind == kind).count() as u64
    }

    /// Sketch-derived per-class service percentiles, if the class
    /// completed anything.
    pub fn class_percentiles(&self, class: &str) -> Option<(f64, f64, f64)> {
        self.registry
            .histogram("serve_service_seconds", &[("class", class)])?
            .p50_p95_p99()
    }

    /// Cross-checks the streaming telemetry against the report's
    /// exact per-session ledger:
    ///
    /// * every snapshot parses, and per-key snapshot deltas sum to
    ///   the final cumulative counter exactly;
    /// * disposition counters equal the report's vector lengths, per
    ///   class and overall;
    /// * per-class sketch counts/sums equal the exact completions;
    /// * the re-accumulated replay clock is bit-equal to
    ///   `modeled_s` and the `Compute` breakdown;
    /// * the lifecycle trace round-trips through
    ///   [`validate_chrome_trace`].
    ///
    /// # Errors
    ///
    /// Returns the first violated clause, rendered.
    pub fn reconcile(&self, report: &ServeReport) -> Result<(), String> {
        // (1) Snapshot deltas sum exactly to the cumulative counters.
        let mut summed: BTreeMap<String, u64> = BTreeMap::new();
        for (i, line) in self.snapshots.iter().enumerate() {
            let v = json::parse(line).map_err(|e| format!("snapshot {i}: {e}"))?;
            let counters = v
                .get("counters")
                .and_then(|c| c.as_object())
                .ok_or_else(|| format!("snapshot {i}: no counters object"))?;
            for (key, value) in counters {
                let n = value
                    .as_f64()
                    .ok_or_else(|| format!("snapshot {i}: {key} not a number"))?;
                *summed.entry(key.clone()).or_default() += n as u64;
            }
        }
        let counters: BTreeMap<String, u64> = self
            .registry
            .counters()
            .map(|(key, value)| (key.flat(), value))
            .collect();
        for (flat, &value) in &counters {
            let got = summed.get(flat).copied().unwrap_or(0);
            if got != value {
                return Err(format!(
                    "{flat}: snapshot deltas sum {got} != counter {value}"
                ));
            }
        }
        for (key, got) in &summed {
            if counters.get(key) != Some(got) {
                return Err(format!("snapshot key {key} missing from final registry"));
            }
        }
        // (2) Dispositions: counters equal vector lengths per class.
        let count = |name: &str, class: &str| self.registry.counter(name, &[("class", class)]);
        let mut by_class: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
        for c in &report.completed {
            by_class.entry(&c.class).or_default().0 += 1;
        }
        for r in &report.rejected {
            by_class.entry(&r.class).or_default().1 += 1;
        }
        for s in &report.shed {
            by_class.entry(&s.class).or_default().2 += 1;
        }
        for c in &report.completed {
            by_class.entry(&c.class).or_default().3 += c.bytes;
        }
        for (class, (done, rej, shed, bytes)) in by_class {
            if count("serve_admitted_total", class) != done {
                return Err(format!(
                    "{class}: admitted counter {} != completions {done}",
                    count("serve_admitted_total", class)
                ));
            }
            if count("serve_rejected_total", class) != rej {
                return Err(format!(
                    "{class}: rejected counter {} != rejections {rej}",
                    count("serve_rejected_total", class)
                ));
            }
            let shed_counter: u64 = self
                .registry
                .counters()
                .filter(|(k, _)| {
                    k.name == "serve_shed_total"
                        && k.labels.iter().any(|(lk, lv)| lk == "class" && lv == class)
                })
                .map(|(_, v)| v)
                .sum();
            if shed_counter != shed {
                return Err(format!(
                    "{class}: shed counter {shed_counter} != sheds {shed}"
                ));
            }
            if count("serve_bytes_total", class) != bytes {
                return Err(format!(
                    "{class}: bytes counter {} != exact bytes {bytes}",
                    count("serve_bytes_total", class)
                ));
            }
            // (3) Sketch totals equal the exact ledger.
            let service: Vec<f64> = report
                .completed
                .iter()
                .filter(|c| c.class == class)
                .map(|c| c.service_s)
                .collect();
            let sketch = self
                .registry
                .histogram("serve_service_seconds", &[("class", class)]);
            // A class whose sessions were all rejected or shed never
            // observed a service time.
            if service.is_empty() && sketch.is_none() {
                continue;
            }
            let sketch = sketch.ok_or_else(|| format!("{class}: no service sketch"))?;
            if sketch.count() != service.len() as u64 {
                return Err(format!(
                    "{class}: sketch count {} != completions {}",
                    sketch.count(),
                    service.len()
                ));
            }
            let exact_sum: f64 = service.iter().sum();
            if sketch.sum().to_bits() != exact_sum.to_bits() {
                return Err(format!(
                    "{class}: sketch sum {:e} != exact {exact_sum:e}",
                    sketch.sum()
                ));
            }
        }
        // (4) Modeled time and energy, bit for bit.
        if self.replay_total_s.to_bits() != report.modeled_s.to_bits() {
            return Err(format!(
                "replay total {:e} != modeled clock {:e}",
                self.replay_total_s, report.modeled_s
            ));
        }
        if self.replay_total_s.to_bits() != report.breakdown_compute_s().to_bits() {
            return Err("replay total != Compute breakdown".into());
        }
        // (5) The lifecycle trace round-trips.
        if !self.profile.intervals.is_empty() {
            validate_chrome_trace(&self.chrome_trace())
                .map_err(|e| format!("lifecycle trace: {e}"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_verify::BoundsEnv;

    #[test]
    fn standard_config_declares_three_objectives_per_class() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let cfg = TelemetryConfig::standard(&cat);
        assert_eq!(cfg.slos.len(), 3 * cat.len());
        let tele = Telemetry::new(&cfg);
        assert_eq!(
            tele.latency_thresholds.len(),
            cat.len(),
            "every class carries a latency threshold"
        );
    }

    #[test]
    fn empty_run_is_trivially_conformant() {
        let tele = Telemetry::new(&TelemetryConfig::default());
        let report = tele.finish(0.0, 0);
        assert!((report.slo_conformance - 1.0).abs() < f64::EPSILON);
        assert!((report.certified_bounds_conformance() - 1.0).abs() < f64::EPSILON);
        assert!(report.alerts.is_empty());
        assert_eq!(report.snapshots.len(), 0, "nothing moved, nothing flushed");
    }
}
