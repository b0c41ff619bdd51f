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
//! Telemetry stays cheap enough to leave on because no hook redoes
//! work and none writes text. Each class has one record, found by
//! `&str` without allocating: its metric handles (one counter per
//! decision kind and per [`ShedReason`], one histogram per sketch), its
//! latency threshold, this epoch's aggregate and its window. A handle
//! is resolved the first time its metric is written — the event that
//! created the metric before handles existed — and from then on a
//! counter bump is one indexed add and a sketch observation one
//! indexed `record`. What an event still costs is one typed lifecycle
//! mark: class index, kind, session id and modeled start/end (a
//! decision mark keeps the event's fields, its class an index).
//!
//! The per-epoch snapshot is a typed row too: epoch, clocks, alert
//! count, the counter deltas by handle, the two gauges, and a
//! [`SketchSummary`] of each histogram whose `count()` moved (every
//! sketch mutation raises the count, so an unchanged count means an
//! unchanged summary). [`TelemetryReport`] renders text only when
//! asked — [`TelemetryReport::snapshots_jsonl`],
//! [`TelemetryReport::chrome_trace`], [`TelemetryReport::profile`] —
//! and every byte is what rendering during the run produced;
//! `scheduler_determinism.rs` pins the four artifacts by digest.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use mealib_obs::json;
use mealib_obs::profile::{validate_chrome_trace, IntervalEvent, Profile};
use mealib_obs::{
    Alert, AlertKind, CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry, Objective,
    ObjectiveKind, Phase, SketchSummary, SloEngine, WindowObs,
};
use mealib_types::Seconds;
use mealib_verify::interference::TenantBounds;

use crate::decision::DecisionEvent;
use crate::metrics::{EpochStats, ServeReport};
use crate::session::{Catalogue, CompletedSession, SessionRequest, ShedReason};

/// Sliding SLO window, in epochs.
const WINDOW_EPOCHS: usize = 8;

/// The declared objectives. [`TelemetryConfig::standard`] derives safe
/// default objectives from the catalogue's certified solo bounds. The
/// SLO window is fixed at 8 epochs, and the quantile sketches keep
/// [`MetricsRegistry::new`]'s 1% relative accuracy.
#[derive(Debug, Clone, Default)]
pub struct TelemetryConfig {
    /// Declared objectives: `(class, objective)` pairs.
    pub slos: Vec<(String, Objective)>,
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
        Self { slos }
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

/// A per-class counter.
#[derive(Debug, Clone, Copy)]
enum ClassCounter {
    Arrivals,
    Admitted,
    Rejected,
    Backoff,
    UnknownRetry,
    Bytes,
    Shed(ShedReason),
}

impl ClassCounter {
    /// Slots in [`ClassState::counters`]: one per variant, four for
    /// `Shed`.
    const SLOTS: usize = 10;

    fn slot(self) -> usize {
        match self {
            ClassCounter::Arrivals => 0,
            ClassCounter::Admitted => 1,
            ClassCounter::Rejected => 2,
            ClassCounter::Backoff => 3,
            ClassCounter::UnknownRetry => 4,
            ClassCounter::Bytes => 5,
            ClassCounter::Shed(ShedReason::QueueFull) => 6,
            ClassCounter::Shed(ShedReason::RetriesExhausted) => 7,
            ClassCounter::Shed(ShedReason::Undecidable) => 8,
            ClassCounter::Shed(ShedReason::DrainDeadline) => 9,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ClassCounter::Arrivals => "serve_arrivals_total",
            ClassCounter::Admitted => "serve_admitted_total",
            ClassCounter::Rejected => "serve_rejected_total",
            ClassCounter::Backoff => "serve_backoff_total",
            ClassCounter::UnknownRetry => "serve_unknown_retry_total",
            ClassCounter::Bytes => "serve_bytes_total",
            ClassCounter::Shed(_) => "serve_shed_total",
        }
    }
}

/// A per-class histogram.
#[derive(Debug, Clone, Copy)]
enum ClassHistogram {
    Service = 0,
    QueueDelay = 1,
    FirstBurst = 2,
}

impl ClassHistogram {
    fn name(self) -> &'static str {
        match self {
            ClassHistogram::Service => "serve_service_seconds",
            ClassHistogram::QueueDelay => "serve_queue_delay_seconds",
            ClassHistogram::FirstBurst => "serve_first_burst_seconds",
        }
    }
}

/// Everything telemetry keeps about one class. Its metric handles are
/// resolved on first write, so each metric is created at the same
/// event as by a string-keyed write.
#[derive(Debug)]
struct ClassState {
    name: String,
    /// The declared p99 latency threshold, if any.
    latency_threshold: Option<f64>,
    /// Indexed by [`ClassCounter::slot`].
    counters: [Option<CounterHandle>; ClassCounter::SLOTS],
    /// Indexed by [`ClassHistogram`].
    histograms: [Option<HistogramHandle>; 3],
    /// This epoch's aggregate, pushed onto `window` at epoch end.
    pending: EpochAgg,
    /// The last [`WINDOW_EPOCHS`] aggregates.
    window: VecDeque<EpochAgg>,
}

impl ClassState {
    fn new(class: &str, latency_threshold: Option<f64>) -> Self {
        Self {
            name: class.to_string(),
            latency_threshold,
            counters: [None; ClassCounter::SLOTS],
            histograms: [None; 3],
            pending: EpochAgg::default(),
            window: VecDeque::new(),
        }
    }

    /// Adds `delta` to one of the class's counters.
    fn add(&mut self, reg: &mut MetricsRegistry, counter: ClassCounter, delta: u64) {
        let class = self.name.as_str();
        let h = *self.counters[counter.slot()].get_or_insert_with(|| match counter {
            ClassCounter::Shed(reason) => reg.counter_handle(
                counter.name(),
                &[("class", class), ("reason", reason.label())],
            ),
            _ => reg.counter_handle(counter.name(), &[("class", class)]),
        });
        reg.add_at(h, delta);
    }

    /// Records `value` into one of the class's histograms.
    fn record(&mut self, reg: &mut MetricsRegistry, histogram: ClassHistogram, value: f64) {
        let class = self.name.as_str();
        let h = *self.histograms[histogram as usize]
            .get_or_insert_with(|| reg.histogram_handle(histogram.name(), &[("class", class)]));
        reg.record_at(h, value);
    }
}

/// The run-level metrics written once per epoch, resolved together at
/// the first epoch end.
#[derive(Debug, Clone, Copy)]
struct EpochHandles {
    epochs: CounterHandle,
    queue_depth: GaugeHandle,
    clock: GaugeHandle,
    replay: GaugeHandle,
    energy: GaugeHandle,
}

impl EpochHandles {
    fn resolve(reg: &mut MetricsRegistry) -> Self {
        Self {
            epochs: reg.counter_handle("serve_epochs_total", &[]),
            queue_depth: reg.gauge_handle("serve_queue_depth", &[]),
            clock: reg.gauge_handle("serve_clock_seconds", &[]),
            replay: reg.gauge_handle("serve_replay_seconds_total", &[]),
            energy: reg.gauge_handle("serve_energy_joules_total", &[]),
        }
    }
}

/// What a lifecycle mark records.
#[derive(Debug, Clone, PartialEq)]
enum MarkKind {
    Arrive,
    /// An admission: the event's fields but its class, which is the
    /// mark's.
    Admit {
        epoch: u64,
        part_start: u64,
        part_len: u64,
        attempt: u32,
    },
    /// Any other decision; none of them names a class.
    Decision(DecisionEvent),
    /// The service span, on the `{class}` track.
    Serve,
    FirstBurst,
    Complete,
}

/// One lifecycle trace event, kept as numbers until the report renders
/// it. Every mark but the service span is an instant (`start == end`)
/// on the `{class}/lifecycle` track.
#[derive(Debug, Clone, PartialEq)]
struct Mark {
    /// Index into the report's class names.
    class: usize,
    /// The session.
    id: u64,
    start: f64,
    end: f64,
    kind: MarkKind,
}

impl Mark {
    fn phase(&self) -> Phase {
        match self.kind {
            MarkKind::Arrive => Phase::Plan,
            MarkKind::Admit { .. } | MarkKind::Decision(_) => Phase::Verify,
            MarkKind::Serve => Phase::Compute,
            MarkKind::FirstBurst => Phase::Dma,
            MarkKind::Complete => Phase::Drain,
        }
    }

    /// The `DecisionEvent::kind` of a decision mark.
    fn decision_kind(&self) -> Option<&'static str> {
        match &self.kind {
            MarkKind::Admit { .. } => Some("admit"),
            MarkKind::Decision(ev) => Some(ev.kind()),
            _ => None,
        }
    }

    /// `0` for the `{class}/lifecycle` track, `1` for `{class}`.
    fn track_slot(&self) -> usize {
        usize::from(self.kind == MarkKind::Serve)
    }

    fn track(&self, class: &str) -> String {
        match self.track_slot() {
            0 => format!("{class}/lifecycle"),
            _ => class.to_string(),
        }
    }

    /// Appends the span label. A decision's label *is* its
    /// `DecisionEvent` display line, so a REJECT carries the proved
    /// MEA3xx codes verbatim.
    fn write_label(&self, class: &str, out: &mut String) {
        let id = self.id;
        let _ = match &self.kind {
            MarkKind::Arrive => write!(out, "arrive s{id}"),
            &MarkKind::Admit {
                epoch,
                part_start,
                part_len,
                attempt,
            } => {
                let ev = DecisionEvent::Admit {
                    epoch,
                    id,
                    class: class.to_string(),
                    part_start,
                    part_len,
                    attempt,
                };
                write!(out, "{ev}")
            }
            MarkKind::Decision(ev) => write!(out, "{ev}"),
            MarkKind::Serve => write!(out, "serve s{id}"),
            MarkKind::FirstBurst => write!(out, "first-burst s{id}"),
            MarkKind::Complete => write!(out, "complete s{id}"),
        };
    }
}

/// The gauges every snapshot carries, once set.
const SNAPSHOT_GAUGES: [&str; 2] = ["serve_queue_depth", "serve_clock_seconds"];

/// One epoch's snapshot, kept as numbers until the report renders it.
#[derive(Debug, Clone, PartialEq)]
struct SnapshotRow {
    epoch: u64,
    clock_s: f64,
    replay_elapsed_s: f64,
    /// Alerts raised so far.
    alerts: usize,
    /// The counters that moved since the last row, in key order, with
    /// their deltas.
    counters: Vec<(CounterHandle, u64)>,
    /// The [`SNAPSHOT_GAUGES`], where set.
    gauges: [Option<f64>; 2],
    /// The histograms whose count moved since their last summary, or
    /// that have none yet, with their summaries. A line carries every
    /// histogram summarized so far, at its latest summary.
    histograms: Vec<(HistogramHandle, SketchSummary)>,
}

/// The live telemetry pipeline the scheduler feeds.
#[derive(Debug)]
pub struct Telemetry {
    registry: MetricsRegistry,
    slo: SloEngine,
    /// Every class seen so far, in first-seen order: a mark's class is
    /// an index here.
    classes: Vec<ClassState>,
    /// Index into `classes` by name, in name order.
    by_name: BTreeMap<String, usize>,
    marks: Vec<Mark>,
    snapshots: Vec<SnapshotRow>,
    /// Per counter handle: the value the snapshot rows already carry
    /// (the next row carries the delta).
    flushed: Vec<u64>,
    /// Per histogram handle: the sketch `count()` of its last summary.
    summarized: Vec<Option<u64>>,
    epoch_handles: Option<EpochHandles>,
    /// Modeled clock at the end of the last `WINDOW_EPOCHS + 1`
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
        let mut registry = MetricsRegistry::new();
        describe_metrics(&mut registry);
        Self {
            registry,
            slo,
            classes: Vec::new(),
            by_name: BTreeMap::new(),
            marks: Vec::new(),
            snapshots: Vec::new(),
            flushed: Vec::new(),
            summarized: Vec::new(),
            epoch_handles: None,
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

    /// The index of `class`'s record, created on the class's first
    /// event.
    fn class_index(&mut self, class: &str) -> usize {
        if let Some(&i) = self.by_name.get(class) {
            return i;
        }
        let i = self.classes.len();
        let threshold = self.slo.latency_threshold(class);
        self.classes.push(ClassState::new(class, threshold));
        self.by_name.insert(class.to_string(), i);
        i
    }

    /// Appends one lifecycle mark.
    fn mark(&mut self, class: usize, id: u64, kind: MarkKind, start: f64, end: f64) {
        self.marks.push(Mark {
            class,
            id,
            start,
            end,
            kind,
        });
    }

    /// A fresh session arrived (before any shed/queue decision).
    pub fn on_arrival(&mut self, req: &SessionRequest, clock_s: f64) {
        let class = self.class_index(&req.class);
        let c = &mut self.classes[class];
        c.add(&mut self.registry, ClassCounter::Arrivals, 1);
        c.pending.arrivals += 1;
        self.mark(class, req.id, MarkKind::Arrive, clock_s, clock_s);
    }

    /// One scheduler decision (admit / reject / backoff / shed ...).
    pub fn on_decision(&mut self, ev: &DecisionEvent, class: &str, clock_s: f64) {
        self.last_epoch = self.last_epoch.max(ev.epoch());
        let class = self.class_index(class);
        let c = &mut self.classes[class];
        if let Some(reason) = ev.shed_reason() {
            c.add(&mut self.registry, ClassCounter::Shed(reason), 1);
            c.pending.shed += 1;
        } else {
            let counter = match ev {
                DecisionEvent::Admit { .. } => ClassCounter::Admitted,
                // Proved rejections are client errors — they count
                // nowhere in the availability window (4xx exclusion).
                DecisionEvent::Reject { .. } => ClassCounter::Rejected,
                DecisionEvent::Backoff { .. } => ClassCounter::Backoff,
                DecisionEvent::UnknownRetry { .. } => ClassCounter::UnknownRetry,
                _ => unreachable!("every shed event has a shed_reason"),
            };
            c.add(&mut self.registry, counter, 1);
        }
        let kind = match *ev {
            DecisionEvent::Admit {
                epoch,
                part_start,
                part_len,
                attempt,
                ..
            } => MarkKind::Admit {
                epoch,
                part_start,
                part_len,
                attempt,
            },
            _ => MarkKind::Decision(ev.clone()),
        };
        self.mark(class, ev.id(), kind, clock_s, clock_s);
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
        self.check_certified(done, certified);

        let class = self.class_index(&done.class);
        let c = &mut self.classes[class];
        let reg = &mut self.registry;
        c.add(reg, ClassCounter::Bytes, done.bytes);
        c.record(reg, ClassHistogram::Service, done.service_s);
        c.record(reg, ClassHistogram::QueueDelay, done.queue_delay_s);
        if first_burst_s > 0.0 {
            c.record(reg, ClassHistogram::FirstBurst, first_burst_s);
        }

        let agg = &mut c.pending;
        agg.completions += 1;
        agg.bytes += done.bytes;
        agg.service_s += done.service_s;
        // Violations are counted exactly, per completion, against the
        // declared threshold — never derived from the sketch.
        if c.latency_threshold.is_some_and(|t| done.service_s > t) {
            agg.latency_violations += 1;
        }

        let end = epoch_clock_s + done.service_s;
        self.mark(class, done.id, MarkKind::Serve, epoch_clock_s, end);
        if first_burst_s > 0.0 {
            let at = epoch_clock_s + first_burst_s;
            self.mark(class, done.id, MarkKind::FirstBurst, at, at);
        }
        self.mark(class, done.id, MarkKind::Complete, end, end);
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
        let reg = &mut self.registry;
        let h = *self
            .epoch_handles
            .get_or_insert_with(|| EpochHandles::resolve(reg));
        reg.add_at(h.epochs, 1);
        reg.set_at(h.queue_depth, st.queue_depth_end as f64);
        reg.set_at(h.clock, st.clock_s);
        reg.set_at(h.replay, self.replay_total_s);
        reg.set_at(h.energy, self.energy_total_j);

        self.flush_snapshot(st.epoch, st.clock_s, st.replay_elapsed_s);

        self.clock_marks.push_back(st.clock_s);
        while self.clock_marks.len() > WINDOW_EPOCHS + 1 {
            self.clock_marks.pop_front();
        }
        let window_start = if self.clock_marks.len() == WINDOW_EPOCHS + 1 {
            self.clock_marks.front().copied().unwrap_or(0.0)
        } else {
            0.0
        };
        // Slide the window and evaluate, class by class in name order:
        // every class seen so far advances one epoch (absent classes
        // advance with an empty aggregate, so stale epochs age out on
        // schedule).
        for (class, &i) in &self.by_name {
            let c = &mut self.classes[i];
            c.window.push_back(std::mem::take(&mut c.pending));
            while c.window.len() > WINDOW_EPOCHS {
                c.window.pop_front();
            }
            let mut w = WindowObs {
                window_index: st.epoch,
                duration_s: st.clock_s - window_start,
                ..WindowObs::default()
            };
            for agg in &c.window {
                w.arrivals += agg.arrivals;
                w.shed += agg.shed;
                w.completions += agg.completions;
                w.latency_violations += agg.latency_violations;
                w.bytes += agg.bytes;
                w.service_s += agg.service_s;
            }
            self.slo.evaluate(class, &w);
        }
    }

    /// Appends one snapshot row carrying this epoch's counter *deltas*
    /// (snapshot sums reconcile exactly with the final cumulative
    /// counters), current gauges, and the summaries of the sketches
    /// that moved.
    fn flush_snapshot(&mut self, epoch: u64, clock_s: f64, replay_elapsed_s: f64) {
        let mut counters = Vec::new();
        for (h, _, value) in self.registry.indexed_counters() {
            if self.flushed.len() <= h.index() {
                self.flushed.resize(h.index() + 1, 0);
            }
            let flushed = &mut self.flushed[h.index()];
            if value > *flushed {
                counters.push((h, value - *flushed));
                *flushed = value;
            }
        }
        let handles = self.epoch_handles.map(|h| [h.queue_depth, h.clock]);
        let gauges = std::array::from_fn(|i| match handles {
            Some(h) => Some(self.registry.gauge_at(h[i])),
            None => self.registry.gauge(SNAPSHOT_GAUGES[i], &[]),
        });
        let mut histograms = Vec::new();
        for (h, _, sketch) in self.registry.indexed_histograms() {
            if self.summarized.len() <= h.index() {
                self.summarized.resize(h.index() + 1, None);
            }
            let summarized = &mut self.summarized[h.index()];
            if *summarized != Some(sketch.count()) {
                histograms.push((h, sketch.summary()));
                *summarized = Some(sketch.count());
            }
        }
        self.snapshots.push(SnapshotRow {
            epoch,
            clock_s,
            replay_elapsed_s,
            alerts: self.slo.alerts().len(),
            counters,
            gauges,
            histograms,
        });
    }

    /// `true` when some counter moved since the last snapshot
    /// (drain-deadline sheds land after the final epoch line).
    fn dirty(&self) -> bool {
        self.registry
            .indexed_counters()
            .any(|(h, _, v)| v > self.flushed.get(h.index()).copied().unwrap_or(0))
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
            marks: self.marks,
            class_names: self.classes.into_iter().map(|c| c.name).collect(),
            alerts: self.slo.alerts().to_vec(),
            slo_evaluations: self.slo.evaluations(),
            slo_conformance: self.slo.conformance(),
            bounds_checks: self.bounds_checked,
            bounds_failures: self.bounds_failed,
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
    /// Per-epoch snapshot rows, in epoch order.
    snapshots: Vec<SnapshotRow>,
    /// The lifecycle trace, in event order.
    marks: Vec<Mark>,
    /// Class names, indexed by [`Mark::class`].
    class_names: Vec<String>,
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

    /// Per-epoch snapshots taken.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// The per-epoch JSONL snapshot lines, in epoch order, each
    /// rendered when the iterator reaches it.
    pub fn snapshot_lines(&self) -> impl Iterator<Item = String> + '_ {
        let mut lines = SnapshotLines::new(self);
        std::iter::from_fn(move || {
            let mut line = String::new();
            lines.write_next(&mut line).then_some(line)
        })
    }

    /// All per-epoch snapshots as one JSONL document.
    pub fn snapshots_jsonl(&self) -> String {
        let mut out = String::new();
        let mut lines = SnapshotLines::new(self);
        while lines.write_next(&mut out) {
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

    /// Lifecycle marks recorded: arrivals, decisions, service spans,
    /// first bursts and completions, one trace event each.
    pub fn mark_count(&self) -> usize {
        self.marks.len()
    }

    /// The lifecycle trace as a [`Profile`]: a `{class}/lifecycle`
    /// track of instant markers per class, and the service spans on a
    /// `{class}` track.
    pub fn profile(&self) -> Profile {
        let mut profile = Profile::new();
        for m in &self.marks {
            let class = &self.class_names[m.class];
            let mut label = String::new();
            m.write_label(class, &mut label);
            profile.intervals.push(IntervalEvent {
                track: m.track(class),
                phase: m.phase(),
                label,
                start: Seconds::new(m.start),
                end: Seconds::new(m.end),
            });
        }
        profile
    }

    /// The lifecycle trace as a Chrome trace-event document:
    /// [`Self::profile`] rendered by [`Profile::to_chrome_trace`].
    pub fn chrome_trace(&self) -> String {
        self.profile().to_chrome_trace()
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
    /// * every snapshot line parses, and per-key snapshot deltas sum
    ///   to the final cumulative counter exactly;
    /// * disposition counters equal the report's vector lengths, per
    ///   class and overall;
    /// * per-class sketch counts/sums equal the exact completions;
    /// * the re-accumulated replay clock is bit-equal to
    ///   `modeled_s` and the `Compute` breakdown;
    /// * the lifecycle is the ledger: one arrival mark per arrival,
    ///   the decision marks are the decision log (in order, same
    ///   session and kind), and the service and completion marks are
    ///   the completions (in order, same session);
    /// * the lifecycle trace round-trips through
    ///   [`validate_chrome_trace`].
    ///
    /// Snapshot lines are rendered and parsed one at a time.
    ///
    /// # Errors
    ///
    /// Returns the first violated clause, rendered.
    pub fn reconcile(&self, report: &ServeReport) -> Result<(), String> {
        // (1) Snapshot deltas sum exactly to the cumulative counters.
        let mut summed: BTreeMap<String, u64> = BTreeMap::new();
        for (i, line) in self.snapshot_lines().enumerate() {
            let v = json::parse(&line).map_err(|e| format!("snapshot {i}: {e}"))?;
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
        // A counter still at zero never reached a snapshot: the final
        // registry's counters are the ones that moved.
        let counters: BTreeMap<String, u64> = self
            .registry
            .counters()
            .filter(|&(_, value)| value > 0)
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
        // (5) The lifecycle is the ledger.
        self.reconcile_lifecycle(report)?;
        // (6) The lifecycle trace round-trips.
        if !self.marks.is_empty() {
            validate_chrome_trace(&self.chrome_trace())
                .map_err(|e| format!("lifecycle trace: {e}"))?;
        }
        Ok(())
    }

    /// Clause (5) of [`Self::reconcile`].
    fn reconcile_lifecycle(&self, report: &ServeReport) -> Result<(), String> {
        let arrive_marks = self.marks_of(&MarkKind::Arrive).count();
        let arrivals: usize = report.epochs.iter().map(|e| e.arrivals).sum();
        if arrive_marks != arrivals {
            return Err(format!(
                "lifecycle: {arrive_marks} arrival marks != {arrivals} arrivals"
            ));
        }

        let decisions: Vec<(u64, &str)> = self
            .marks
            .iter()
            .filter_map(|m| Some((m.id, m.decision_kind()?)))
            .collect();
        let log = &report.decision_log;
        if decisions.len() != log.len() {
            return Err(format!(
                "lifecycle: {} decision marks != {} logged decisions",
                decisions.len(),
                log.len()
            ));
        }
        for (i, (&(id, kind), ev)) in decisions.iter().zip(log).enumerate() {
            if id != ev.id() || kind != ev.kind() {
                return Err(format!(
                    "lifecycle: decision mark {i} is {kind} s{id}, logged decision {i} is {} s{}",
                    ev.kind(),
                    ev.id()
                ));
            }
        }

        for (name, kind) in [("serve", MarkKind::Serve), ("complete", MarkKind::Complete)] {
            let marks = self.marks_of(&kind).count();
            if marks != report.completed.len() {
                return Err(format!(
                    "lifecycle: {marks} {name} marks != {} completions",
                    report.completed.len()
                ));
            }
            for (i, (m, done)) in self.marks_of(&kind).zip(&report.completed).enumerate() {
                if m.id != done.id {
                    return Err(format!(
                        "lifecycle: {name} mark {i} is s{}, completion {i} is s{}",
                        m.id, done.id
                    ));
                }
            }
        }
        Ok(())
    }

    /// The marks of one kind, in order.
    fn marks_of<'a>(&'a self, kind: &'a MarkKind) -> impl Iterator<Item = &'a Mark> + 'a {
        self.marks.iter().filter(move |m| m.kind == *kind)
    }
}

/// Renders [`SnapshotRow`]s, in order, as JSONL lines.
struct SnapshotLines<'a> {
    rows: std::slice::Iter<'a, SnapshotRow>,
    /// Per counter handle: its escaped flat key.
    counter_keys: Vec<String>,
    /// Histogram handles in key order, with their escaped flat keys.
    histogram_keys: Vec<(HistogramHandle, String)>,
    /// Per histogram handle: its latest summary, rendered (empty until
    /// its first).
    summaries: Vec<String>,
}

impl<'a> SnapshotLines<'a> {
    fn new(report: &'a TelemetryReport) -> Self {
        let registry = &report.registry;
        let mut counter_keys = vec![String::new(); registry.indexed_counters().count()];
        for (h, key, _) in registry.indexed_counters() {
            counter_keys[h.index()] = json::escape(&key.flat());
        }
        let histogram_keys: Vec<_> = registry
            .indexed_histograms()
            .map(|(h, key, _)| (h, json::escape(&key.flat())))
            .collect();
        Self {
            rows: report.snapshots.iter(),
            counter_keys,
            summaries: vec![String::new(); histogram_keys.len()],
            histogram_keys,
        }
    }

    /// Appends the next row's line to `out`; `false` after the last.
    fn write_next(&mut self, out: &mut String) -> bool {
        let Some(row) = self.rows.next() else {
            return false;
        };
        for (h, summary) in &row.histograms {
            let text = &mut self.summaries[h.index()];
            text.clear();
            summary.write_json(text);
        }
        let _ = write!(out, "{{\"epoch\":{},\"clock_s\":", row.epoch);
        json::write_f64(out, row.clock_s);
        out.push_str(",\"replay_elapsed_s\":");
        json::write_f64(out, row.replay_elapsed_s);
        let _ = write!(out, ",\"alerts\":{},\"counters\":{{", row.alerts);
        for (i, (h, delta)) in row.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{delta}", self.counter_keys[h.index()]);
        }
        out.push_str("},\"gauges\":{");
        let gauges = SNAPSHOT_GAUGES.iter().zip(row.gauges);
        for (i, (name, value)) in gauges.filter_map(|(n, v)| Some((n, v?))).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            json::write_f64(out, value);
        }
        out.push_str("},\"histograms\":{");
        let summarized = self
            .histogram_keys
            .iter()
            .map(|(h, key)| (key, &self.summaries[h.index()]))
            .filter(|(_, summary)| !summary.is_empty());
        for (i, (key, summary)) in summarized.enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{key}\":{summary}");
        }
        out.push_str("}}");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{serve_with_telemetry, ServeConfig};
    use crate::traffic::{generate, TrafficSpec};
    use mealib_obs::Obs;
    use mealib_verify::BoundsEnv;

    /// A small mix with a fat impossible tier, so the run proves
    /// REJECTs as well as admitting and completing.
    fn run(seed: u64) -> (ServeReport, TelemetryReport) {
        let env = BoundsEnv::default();
        let cat = Catalogue::standard(&env);
        let mut spec = TrafficSpec::poisson(&cat, seed, 6, 2.0);
        spec.classes
            .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
        spec.p_impossible = 0.25;
        let traffic = generate(&cat, &spec);
        let config = ServeConfig::default();
        let tcfg = TelemetryConfig::default();
        serve_with_telemetry(&cat, &traffic, &config, &env, &Obs::off(), &tcfg)
    }

    /// A snapshot row that carries only `counters`.
    fn counter_row(counters: Vec<(CounterHandle, u64)>) -> SnapshotRow {
        SnapshotRow {
            epoch: 0,
            clock_s: 0.0,
            replay_elapsed_s: 0.0,
            alerts: 0,
            counters,
            gauges: [None; 2],
            histograms: Vec::new(),
        }
    }

    #[test]
    fn standard_config_declares_three_objectives_per_class() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let cfg = TelemetryConfig::standard(&cat);
        assert_eq!(cfg.slos.len(), 3 * cat.len());
        let mut tele = Telemetry::new(&cfg);
        for class in cat.classes() {
            let i = tele.class_index(&class.name);
            assert!(
                tele.classes[i].latency_threshold.is_some(),
                "{}: every class carries a latency threshold",
                class.name
            );
        }
    }

    #[test]
    fn empty_run_is_trivially_conformant() {
        let tele = Telemetry::new(&TelemetryConfig::default());
        let report = tele.finish(0.0, 0);
        assert!((report.slo_conformance - 1.0).abs() < f64::EPSILON);
        assert!((report.certified_bounds_conformance() - 1.0).abs() < f64::EPSILON);
        assert!(report.alerts.is_empty());
        assert_eq!(report.snapshot_count(), 0, "nothing moved, nothing flushed");
    }

    #[test]
    fn reconcile_names_a_snapshot_key_absent_from_the_registry() {
        let (report, mut tele) = run(4242);
        let phantom = tele.registry.counter_handle("serve_phantom_total", &[]);
        tele.snapshots.push(counter_row(vec![(phantom, 1)]));
        assert_eq!(
            tele.reconcile(&report),
            Err("snapshot key serve_phantom_total missing from final registry".to_string())
        );
    }

    #[test]
    fn reconcile_names_a_delta_sum_off_by_one() {
        let (report, mut tele) = run(4242);
        let (h, key, value) = tele
            .registry
            .indexed_counters()
            .find(|&(_, _, value)| value > 0)
            .map(|(h, k, v)| (h, k.flat(), v))
            .expect("the run moved a counter");
        tele.snapshots.push(counter_row(vec![(h, 1)]));
        assert_eq!(
            tele.reconcile(&report),
            Err(format!(
                "{key}: snapshot deltas sum {} != counter {value}",
                value + 1
            ))
        );
    }

    /// Dropping the first mark of one kind breaks the clause that
    /// counts that kind, and the error names it.
    #[test]
    fn reconcile_names_each_dropped_lifecycle_mark() {
        let (report, tele) = run(99);
        assert!(!report.rejected.is_empty() && !report.completed.is_empty());
        tele.reconcile(&report)
            .expect("the untampered run reconciles");
        let without_first = |is_kind: fn(&Mark) -> bool| {
            let (_, mut tampered) = run(99);
            let first = tampered.marks.iter().position(is_kind).expect("a mark");
            tampered.marks.remove(first);
            tampered.reconcile(&report)
        };
        let arrivals = tele.marks_of(&MarkKind::Arrive).count();
        assert_eq!(
            without_first(|m| m.kind == MarkKind::Arrive),
            Err(format!(
                "lifecycle: {} arrival marks != {arrivals} arrivals",
                arrivals - 1
            ))
        );
        let decisions = report.decision_log.len();
        assert_eq!(
            without_first(|m| m.decision_kind().is_some()),
            Err(format!(
                "lifecycle: {} decision marks != {decisions} logged decisions",
                decisions - 1
            ))
        );
        let completions = report.completed.len();
        let want = |name: &str| {
            Err(format!(
                "lifecycle: {} {name} marks != {completions} completions",
                completions - 1
            ))
        };
        assert_eq!(without_first(|m| m.kind == MarkKind::Serve), want("serve"));
        assert_eq!(
            without_first(|m| m.kind == MarkKind::Complete),
            want("complete")
        );
    }

    /// Two decision marks of different sessions swapped: the counts
    /// hold, and the order clause names the first mismatch.
    #[test]
    fn reconcile_names_a_decision_mark_out_of_order() {
        let (report, mut tele) = run(99);
        let n = report
            .decision_log
            .windows(2)
            .position(|w| w[0].id() != w[1].id())
            .expect("two sessions were decided");
        let decisions: Vec<usize> = (0..tele.marks.len())
            .filter(|&i| tele.marks[i].decision_kind().is_some())
            .collect();
        tele.marks.swap(decisions[n], decisions[n + 1]);
        let (a, b) = (&report.decision_log[n], &report.decision_log[n + 1]);
        assert_eq!(
            tele.reconcile(&report),
            Err(format!(
                "lifecycle: decision mark {n} is {} s{}, logged decision {n} is {} s{}",
                b.kind(),
                b.id(),
                a.kind(),
                a.id()
            ))
        );
    }
}
