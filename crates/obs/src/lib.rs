//! Zero-cost-when-off instrumentation for the MEALib stack.
//!
//! The model crates (memsim, noc, accel, runtime, host, sim) expose
//! end-of-run aggregates; this crate adds the *attribution* layer the
//! paper's Figure 14 is built on. Two primitives:
//!
//! * **Spans** — phase-labeled `(modeled time, modeled energy, wall
//!   time)` events. The phase taxonomy follows the software stack's
//!   life of a call: `plan`/`encode`/`verify` (host-side descriptor
//!   preparation, wall-clocked), `flush`/`dma`/`compute`/`drain`
//!   (modeled device-side cost).
//! * **Counters** — a typed registry of micro-architectural event
//!   counts (DRAM ACT/PRE/RD/WR, NoC flits, CU fetch/decode/loop
//!   statistics, allocator traffic), optionally per-lane (e.g. per
//!   DRAM vault).
//!
//! The [`Obs`] handle is a nullable `Arc<dyn Recorder>`: when no
//! recorder is installed every call short-circuits on a single
//! `Option` check and allocates nothing, so instrumented code paths
//! cost (essentially) nothing in the default configuration.
//!
//! [`TraceRecorder`] is the batteries-included sink: it accumulates a
//! [`Breakdown`] (per-phase totals + counter registry) and an ordered
//! event log that serializes to JSONL via
//! [`TraceRecorder::to_jsonl`]. The [`json`] module carries the
//! hand-rolled emitter plus a small parser used by tests and the
//! bench harnesses to validate traces without external dependencies.
//!
//! The time-resolved layer (PR 5) builds on these primitives:
//! [`timeline`] carries cycle-windowed counter timelines, [`profile`]
//! assembles them with phase intervals into Perfetto-exportable run
//! profiles, [`attribution`] classifies each window against a platform
//! roofline, and [`bench_schema`] defines the versioned `BENCH_*.json`
//! summary the perf-trajectory gate (`meaperf`) diffs.

#![forbid(unsafe_code)]

pub mod attribution;
pub mod bench_schema;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod quantiles;
pub mod sketch;
pub mod slo;
pub mod timeline;

pub use attribution::{Attribution, Bound, BoundWindow, Roofline};
pub use bench_schema::{BenchRecord, BenchSummary, BENCH_SCHEMA_VERSION};
pub use metrics::{validate_exposition, ExpositionSummary, MetricKey, MetricsRegistry};
pub use profile::{validate_chrome_trace, IntervalEvent, Profile, TimelineTrack};
pub use sketch::QuantileSketch;
pub use slo::{Alert, AlertKind, Objective, ObjectiveKind, SloEngine, WindowObs};
pub use timeline::{Timeline, WindowCounters};

use mealib_types::{Joules, Seconds};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The phase taxonomy for span events.
///
/// `Plan`, `Encode` and `Verify` are host-side software phases (their
/// modeled time is zero; the wall clock captures real library
/// overhead). The remaining phases partition the modeled device time:
/// `Flush` (cache flush + driver invocation), `Dma` (descriptor fetch,
/// configuration broadcast and memory streaming), `Compute` (PE
/// arithmetic) and `Drain` (result gather).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// TDL parsing / planning on the host.
    Plan,
    /// Descriptor encoding on the host.
    Encode,
    /// Static verification (mealint) on the host.
    Verify,
    /// Cache flush + driver round trip before an invocation.
    Flush,
    /// Data movement: descriptor fetch, config broadcast, DRAM streaming.
    Dma,
    /// PE arithmetic.
    Compute,
    /// Result gather back toward the host.
    Drain,
}

impl Phase {
    /// All phases, in taxonomy order.
    pub const ALL: [Phase; 7] = [
        Phase::Plan,
        Phase::Encode,
        Phase::Verify,
        Phase::Flush,
        Phase::Dma,
        Phase::Compute,
        Phase::Drain,
    ];

    /// Stable lowercase name used in JSONL traces.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Plan => "plan",
            Phase::Encode => "encode",
            Phase::Verify => "verify",
            Phase::Flush => "flush",
            Phase::Dma => "dma",
            Phase::Compute => "compute",
            Phase::Drain => "drain",
        }
    }

    /// Parses the stable name back into a phase.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The typed counter registry.
///
/// Counters are cumulative event counts; the unit of each is given in
/// its doc line. Lanes (see [`CounterKey`]) distinguish replicated
/// hardware units, e.g. DRAM vaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Counter {
    /// DRAM row activations (ACT commands).
    DramAct,
    /// DRAM precharges (PRE commands).
    DramPre,
    /// DRAM bytes read.
    DramRdBytes,
    /// DRAM bytes written.
    DramWrBytes,
    /// DRAM row-buffer hits.
    DramRowHit,
    /// DRAM row-buffer misses.
    DramRowMiss,
    /// DRAM refresh commands.
    DramRefresh,
    /// NoC flits injected.
    NocFlits,
    /// NoC flit-hops traversed (flits x links).
    NocFlitHops,
    /// NoC credits returned (one per flit per link in this model).
    NocCredits,
    /// CU descriptor bytes fetched from DRAM.
    CuFetchBytes,
    /// CU instructions decoded.
    CuDecodedInstrs,
    /// CU passes executed (loop iterations counted individually).
    CuPasses,
    /// CU hardware-loop iterations triggered without host involvement.
    CuLoopIters,
    /// Bytes allocated through the runtime allocator.
    AllocBytes,
    /// Buffers freed through the runtime allocator.
    BufferFrees,
    /// Host cache flushes before invocations.
    CacheFlushes,
    /// Driver round trips (descriptor writes).
    DriverCalls,
    /// Host floating-point operations (roofline model).
    HostFlops,
    /// Host DRAM bytes moved (roofline model).
    HostBytes,
}

impl Counter {
    /// Stable snake_case name used in JSONL traces.
    pub fn name(self) -> &'static str {
        match self {
            Counter::DramAct => "dram_act",
            Counter::DramPre => "dram_pre",
            Counter::DramRdBytes => "dram_rd_bytes",
            Counter::DramWrBytes => "dram_wr_bytes",
            Counter::DramRowHit => "dram_row_hit",
            Counter::DramRowMiss => "dram_row_miss",
            Counter::DramRefresh => "dram_refresh",
            Counter::NocFlits => "noc_flits",
            Counter::NocFlitHops => "noc_flit_hops",
            Counter::NocCredits => "noc_credits",
            Counter::CuFetchBytes => "cu_fetch_bytes",
            Counter::CuDecodedInstrs => "cu_decoded_instrs",
            Counter::CuPasses => "cu_passes",
            Counter::CuLoopIters => "cu_loop_iters",
            Counter::AllocBytes => "alloc_bytes",
            Counter::BufferFrees => "buffer_frees",
            Counter::CacheFlushes => "cache_flushes",
            Counter::DriverCalls => "driver_calls",
            Counter::HostFlops => "host_flops",
            Counter::HostBytes => "host_bytes",
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A counter plus an optional lane (replicated-unit index, e.g. a
/// DRAM vault). `lane: None` is the aggregate across all lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CounterKey {
    /// Which counter.
    pub counter: Counter,
    /// Replicated-unit index, or `None` for the aggregate.
    pub lane: Option<u16>,
}

impl CounterKey {
    /// Aggregate (lane-less) key.
    pub fn total(counter: Counter) -> Self {
        Self {
            counter,
            lane: None,
        }
    }

    /// Per-lane key.
    pub fn lane(counter: Counter, lane: u16) -> Self {
        Self {
            counter,
            lane: Some(lane),
        }
    }
}

/// One phase-labeled span event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Phase label.
    pub phase: Phase,
    /// Free-form site label ("stap.cdotc", "acc_execute", ...).
    pub label: String,
    /// Modeled time attributed to this span.
    pub time: Seconds,
    /// Modeled energy attributed to this span.
    pub energy: Joules,
    /// Wall-clock time spent in the library (host phases only;
    /// zero for modeled device phases).
    pub wall: Seconds,
}

/// A sink for instrumentation events. Methods take `&self`;
/// implementations use interior mutability so one recorder can be
/// shared across the whole stack behind an `Arc`.
pub trait Recorder {
    /// Records one span event.
    fn record_span(&self, event: &SpanEvent);
    /// Adds `value` to the given counter.
    fn record_count(&self, key: CounterKey, value: u64);
    /// Records a batch of events in order. The default forwards one by
    /// one; lock-based sinks override this to take their lock once per
    /// batch instead of once per event (see [`SpoolRecorder`]).
    fn record_batch(&self, events: &[TraceEvent]) {
        for event in events {
            match event {
                TraceEvent::Span(s) => self.record_span(s),
                TraceEvent::Count { key, value } => self.record_count(*key, *value),
            }
        }
    }
}

/// A cheap, cloneable handle to an optional recorder.
///
/// `Obs::off()` is the default everywhere: every recording call then
/// reduces to one `Option` discriminant check.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<dyn Recorder + Send + Sync>>);

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Obs")
            .field(&if self.0.is_some() { "on" } else { "off" })
            .finish()
    }
}

impl Obs {
    /// The disabled handle (records nothing).
    pub const fn off() -> Self {
        Obs(None)
    }

    /// Wraps a recorder.
    pub fn new(recorder: Arc<dyn Recorder + Send + Sync>) -> Self {
        Obs(Some(recorder))
    }

    /// `true` when a recorder is installed.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The installed recorder, if any. Lets infrastructure (e.g. the
    /// sweep's per-worker spool) interpose another recorder in front of
    /// the user's sink.
    pub fn recorder(&self) -> Option<Arc<dyn Recorder + Send + Sync>> {
        self.0.clone()
    }

    /// Records a modeled span (no wall time).
    pub fn span(&self, phase: Phase, label: &str, time: Seconds, energy: Joules) {
        self.span_wall(phase, label, time, energy, Seconds::ZERO);
    }

    /// Records a span with an explicit wall-clock component.
    pub fn span_wall(
        &self,
        phase: Phase,
        label: &str,
        time: Seconds,
        energy: Joules,
        wall: Seconds,
    ) {
        if let Some(rec) = &self.0 {
            rec.record_span(&SpanEvent {
                phase,
                label: label.to_string(),
                time,
                energy,
                wall,
            });
        }
    }

    /// Adds `value` to an aggregate counter. Zero increments are
    /// dropped to keep traces lean.
    pub fn count(&self, counter: Counter, value: u64) {
        if value != 0 {
            if let Some(rec) = &self.0 {
                rec.record_count(CounterKey::total(counter), value);
            }
        }
    }

    /// Adds `value` to a per-lane counter.
    pub fn count_lane(&self, counter: Counter, lane: u16, value: u64) {
        if value != 0 {
            if let Some(rec) = &self.0 {
                rec.record_count(CounterKey::lane(counter, lane), value);
            }
        }
    }

    /// Replays a prebuilt breakdown into the recorder: one span per
    /// phase (labeled `label`) and one increment per counter key.
    pub fn record_breakdown(&self, breakdown: &Breakdown, label: &str) {
        if !self.enabled() {
            return;
        }
        for (phase, totals) in breakdown.phases() {
            self.span(phase, label, totals.time, totals.energy);
        }
        if let Some(rec) = &self.0 {
            for (key, value) in breakdown.counters() {
                if value != 0 {
                    rec.record_count(key, value);
                }
            }
        }
    }
}

/// Accumulated time/energy for one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseTotals {
    /// Modeled time.
    pub time: Seconds,
    /// Modeled energy.
    pub energy: Joules,
    /// Wall-clock time (host phases).
    pub wall: Seconds,
}

impl Default for PhaseTotals {
    fn default() -> Self {
        Self {
            time: Seconds::ZERO,
            energy: Joules::ZERO,
            wall: Seconds::ZERO,
        }
    }
}

/// Per-phase totals plus the counter registry — the generalized
/// Figure 14 data structure carried by `RunReport` and
/// `ExperimentReport`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Breakdown {
    phases: BTreeMap<Phase, PhaseTotals>,
    counters: BTreeMap<CounterKey, u64>,
}

impl Breakdown {
    /// An empty breakdown.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a modeled (time, energy) contribution to `phase`.
    pub fn add_phase(&mut self, phase: Phase, time: Seconds, energy: Joules) {
        self.add_phase_wall(phase, time, energy, Seconds::ZERO);
    }

    /// Adds a contribution with a wall-clock component.
    pub fn add_phase_wall(&mut self, phase: Phase, time: Seconds, energy: Joules, wall: Seconds) {
        let slot = self.phases.entry(phase).or_default();
        slot.time += time;
        slot.energy += energy;
        slot.wall += wall;
    }

    /// Adds `value` to a counter key.
    pub fn add_count(&mut self, key: CounterKey, value: u64) {
        if value != 0 {
            *self.counters.entry(key).or_insert(0) += value;
        }
    }

    /// Totals for one phase (zero if never recorded).
    pub fn phase(&self, phase: Phase) -> PhaseTotals {
        self.phases.get(&phase).copied().unwrap_or_default()
    }

    /// Iterates recorded phases in taxonomy order.
    pub fn phases(&self) -> impl Iterator<Item = (Phase, PhaseTotals)> + '_ {
        self.phases.iter().map(|(p, t)| (*p, *t))
    }

    /// Iterates recorded counters.
    pub fn counters(&self) -> impl Iterator<Item = (CounterKey, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// A counter summed across all its lanes (including the aggregate
    /// lane-less key).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.counter == counter)
            .map(|(_, v)| *v)
            .sum()
    }

    /// Sum of modeled time over all phases.
    pub fn total_time(&self) -> Seconds {
        let mut t = Seconds::ZERO;
        for totals in self.phases.values() {
            t += totals.time;
        }
        t
    }

    /// Sum of modeled energy over all phases.
    pub fn total_energy(&self) -> Joules {
        let mut e = Joules::ZERO;
        for totals in self.phases.values() {
            e += totals.energy;
        }
        e
    }

    /// Folds another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        for (phase, totals) in other.phases() {
            self.add_phase_wall(phase, totals.time, totals.energy, totals.wall);
        }
        for (key, value) in other.counters() {
            self.add_count(key, value);
        }
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.counters.is_empty()
    }

    /// Renders the breakdown as one JSON object
    /// (`{"phases": {...}, "counters": {...}}`).
    pub fn to_json(&self) -> String {
        let mut phases = json::Object::new();
        for (phase, totals) in self.phases() {
            let mut o = json::Object::new();
            o.num("time_s", totals.time.get());
            o.num("energy_j", totals.energy.get());
            o.num("wall_s", totals.wall.get());
            phases.raw(phase.name(), o.render());
        }
        let mut counters = json::Object::new();
        for (key, value) in self.counters() {
            let name = match key.lane {
                Some(lane) => format!("{}[{lane}]", key.counter.name()),
                None => key.counter.name().to_string(),
            };
            counters.int(&name, value);
        }
        let mut root = json::Object::new();
        root.raw("phases", phases.render());
        root.raw("counters", counters.render());
        root.render()
    }
}

/// One entry of a [`TraceRecorder`]'s ordered event log.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A span event.
    Span(SpanEvent),
    /// A counter increment.
    Count {
        /// Counter key.
        key: CounterKey,
        /// Increment value.
        value: u64,
    },
}

impl TraceEvent {
    /// Renders the event as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            TraceEvent::Span(s) => {
                let mut o = json::Object::new();
                o.str("type", "span");
                o.str("phase", s.phase.name());
                o.str("label", &s.label);
                o.num("time_s", s.time.get());
                o.num("energy_j", s.energy.get());
                o.num("wall_s", s.wall.get());
                o.render()
            }
            TraceEvent::Count { key, value } => {
                let mut o = json::Object::new();
                o.str("type", "count");
                o.str("counter", key.counter.name());
                if let Some(lane) = key.lane {
                    o.int("lane", u64::from(lane));
                }
                o.int("value", *value);
                o.render()
            }
        }
    }
}

#[derive(Debug, Default)]
struct TraceInner {
    events: Vec<TraceEvent>,
    breakdown: Breakdown,
}

/// The standard in-memory recorder: keeps the ordered event log for
/// JSONL export and folds every event into a running [`Breakdown`].
#[derive(Debug, Default)]
pub struct TraceRecorder {
    inner: Mutex<TraceInner>,
}

impl TraceRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh recorder already wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the accumulated breakdown.
    pub fn breakdown(&self) -> Breakdown {
        self.lock().breakdown.clone()
    }

    /// Snapshot of the ordered event log.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().events.clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.lock().events.len()
    }

    /// `true` when no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.lock().events.is_empty()
    }

    /// Drops all recorded state.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.events.clear();
        inner.breakdown = Breakdown::default();
    }

    /// Serializes the event log as JSONL (one JSON object per line).
    pub fn to_jsonl(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        for event in &inner.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

impl Recorder for TraceRecorder {
    fn record_span(&self, event: &SpanEvent) {
        let mut inner = self.lock();
        inner
            .breakdown
            .add_phase_wall(event.phase, event.time, event.energy, event.wall);
        inner.events.push(TraceEvent::Span(event.clone()));
    }

    fn record_count(&self, key: CounterKey, value: u64) {
        if value == 0 {
            return;
        }
        let mut inner = self.lock();
        inner.breakdown.add_count(key, value);
        inner.events.push(TraceEvent::Count { key, value });
    }

    /// One lock acquisition for the whole batch — this is what makes the
    /// per-worker [`SpoolRecorder`] drain cheap under `--jobs N`.
    fn record_batch(&self, events: &[TraceEvent]) {
        if events.is_empty() {
            return;
        }
        let mut inner = self.lock();
        for event in events {
            match event {
                TraceEvent::Span(s) => {
                    inner
                        .breakdown
                        .add_phase_wall(s.phase, s.time, s.energy, s.wall);
                }
                TraceEvent::Count { key, value } => inner.breakdown.add_count(*key, *value),
            }
            inner.events.push(event.clone());
        }
    }
}

/// A per-worker buffering recorder.
///
/// Under a parallel sweep every worker used to contend on the shared
/// [`TraceRecorder`] mutex for *every* span and counter event. A
/// `SpoolRecorder` sits in front of the shared sink, accumulates the
/// worker's events in a local (uncontended) buffer, and hands them to the
/// target in one [`Recorder::record_batch`] call at drain time — one lock
/// acquisition per run instead of one per event. Event order within a
/// worker is preserved; cross-worker interleaving is batch-granular,
/// which is fine because [`Breakdown`] merging is commutative.
pub struct SpoolRecorder {
    target: Arc<dyn Recorder + Send + Sync>,
    buffer: Mutex<Vec<TraceEvent>>,
}

impl fmt::Debug for SpoolRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpoolRecorder")
            .field("buffered", &self.buffered())
            .finish()
    }
}

impl SpoolRecorder {
    /// Creates a spool in front of `target`.
    pub fn new(target: Arc<dyn Recorder + Send + Sync>) -> Self {
        Self {
            target,
            buffer: Mutex::new(Vec::new()),
        }
    }

    /// Creates a shared spool in front of `target`.
    pub fn shared(target: Arc<dyn Recorder + Send + Sync>) -> Arc<Self> {
        Arc::new(Self::new(target))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TraceEvent>> {
        self.buffer.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of events waiting in the buffer.
    pub fn buffered(&self) -> usize {
        self.lock().len()
    }

    /// Drains the buffer into the target with a single batch call.
    pub fn flush(&self) {
        let events = std::mem::take(&mut *self.lock());
        if !events.is_empty() {
            self.target.record_batch(&events);
        }
    }
}

impl Drop for SpoolRecorder {
    fn drop(&mut self) {
        self.flush();
    }
}

impl Recorder for SpoolRecorder {
    fn record_span(&self, event: &SpanEvent) {
        self.lock().push(TraceEvent::Span(event.clone()));
    }

    fn record_count(&self, key: CounterKey, value: u64) {
        if value == 0 {
            return;
        }
        self.lock().push(TraceEvent::Count { key, value });
    }

    fn record_batch(&self, events: &[TraceEvent]) {
        self.lock().extend_from_slice(events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> Seconds {
        Seconds::new(x)
    }

    fn j(x: f64) -> Joules {
        Joules::new(x)
    }

    #[test]
    fn off_handle_records_nothing_and_is_cheap() {
        let obs = Obs::off();
        assert!(!obs.enabled());
        obs.span(Phase::Compute, "x", s(1.0), j(1.0));
        obs.count(Counter::DramAct, 5);
        // Nothing to observe: the handle has no sink at all.
    }

    #[test]
    fn trace_recorder_accumulates_breakdown() {
        let rec = TraceRecorder::shared();
        let obs = Obs::new(rec.clone());
        assert!(obs.enabled());
        obs.span(Phase::Dma, "a", s(2.0), j(4.0));
        obs.span(Phase::Dma, "b", s(1.0), j(1.0));
        obs.span(Phase::Compute, "c", s(3.0), j(2.0));
        obs.count(Counter::DramAct, 10);
        obs.count_lane(Counter::DramRowHit, 3, 7);
        obs.count(Counter::DramAct, 0); // dropped

        let bd = rec.breakdown();
        assert_eq!(bd.phase(Phase::Dma).time, s(3.0));
        assert_eq!(bd.phase(Phase::Dma).energy, j(5.0));
        assert_eq!(bd.total_time(), s(6.0));
        assert_eq!(bd.total_energy(), j(7.0));
        assert_eq!(bd.counter(Counter::DramAct), 10);
        assert_eq!(bd.counter(Counter::DramRowHit), 7);
        assert_eq!(rec.len(), 5);
    }

    #[test]
    fn breakdown_merge_is_additive() {
        let mut a = Breakdown::new();
        a.add_phase(Phase::Flush, s(1.0), j(2.0));
        a.add_count(CounterKey::total(Counter::CacheFlushes), 1);
        let mut b = Breakdown::new();
        b.add_phase(Phase::Flush, s(0.5), j(0.5));
        b.add_phase(Phase::Drain, s(0.25), j(0.0));
        b.add_count(CounterKey::total(Counter::CacheFlushes), 2);
        a.merge(&b);
        assert_eq!(a.phase(Phase::Flush).time, s(1.5));
        assert_eq!(a.phase(Phase::Drain).time, s(0.25));
        assert_eq!(a.counter(Counter::CacheFlushes), 3);
        assert!(!a.is_empty());
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let rec = TraceRecorder::shared();
        let obs = Obs::new(rec.clone());
        obs.span_wall(
            Phase::Plan,
            "parse \"tdl\"",
            Seconds::ZERO,
            Joules::ZERO,
            s(1.5e-6),
        );
        obs.span(Phase::Compute, "pass0", s(1.25e-3), j(3.5e-2));
        obs.count_lane(Counter::DramAct, 12, 345);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            let v = json::parse(line).expect("valid JSON line");
            let ty = v.get("type").and_then(json::Value::as_str).expect("type");
            assert!(ty == "span" || ty == "count");
        }
        // Spot-check one value survives the round trip.
        let first = json::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(
            first.get("phase").and_then(json::Value::as_str),
            Some("plan")
        );
        let wall = first.get("wall_s").and_then(json::Value::as_f64).unwrap();
        assert!((wall - 1.5e-6).abs() < 1e-18);
    }

    #[test]
    fn record_breakdown_replays_phases_and_counters() {
        let mut bd = Breakdown::new();
        bd.add_phase(Phase::Dma, s(1.0), j(2.0));
        bd.add_count(CounterKey::lane(Counter::DramRowMiss, 2), 9);
        let rec = TraceRecorder::shared();
        Obs::new(rec.clone()).record_breakdown(&bd, "replay");
        let got = rec.breakdown();
        assert_eq!(got.phase(Phase::Dma).time, s(1.0));
        assert_eq!(got.counter(Counter::DramRowMiss), 9);
    }

    #[test]
    fn breakdown_json_is_parseable() {
        let mut bd = Breakdown::new();
        bd.add_phase(Phase::Compute, s(0.5), j(1.5));
        bd.add_count(CounterKey::lane(Counter::DramAct, 1), 4);
        let v = json::parse(&bd.to_json()).expect("valid");
        let phases = v.get("phases").expect("phases");
        let compute = phases.get("compute").expect("compute");
        assert_eq!(
            compute.get("time_s").and_then(json::Value::as_f64),
            Some(0.5)
        );
        let counters = v.get("counters").expect("counters");
        assert_eq!(
            counters.get("dram_act[1]").and_then(json::Value::as_f64),
            Some(4.0)
        );
    }

    #[test]
    fn spool_buffers_until_flush_and_preserves_order() {
        let sink = TraceRecorder::shared();
        let spool = SpoolRecorder::shared(sink.clone());
        let obs = Obs::new(spool.clone());
        obs.span(Phase::Dma, "a", s(1.0), j(2.0));
        obs.count_lane(Counter::DramAct, 4, 7);
        obs.span(Phase::Compute, "b", s(3.0), j(1.0));
        assert_eq!(spool.buffered(), 3);
        assert!(sink.is_empty(), "nothing reaches the sink before flush");

        spool.flush();
        assert_eq!(spool.buffered(), 0);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert!(matches!(&events[0], TraceEvent::Span(e) if e.label == "a"));
        assert!(matches!(&events[1], TraceEvent::Count { value: 7, .. }));
        let bd = sink.breakdown();
        assert_eq!(bd.total_time(), s(4.0));
        assert_eq!(bd.counter(Counter::DramAct), 7);
    }

    #[test]
    fn spool_drop_flushes_remaining_events() {
        let sink = TraceRecorder::shared();
        {
            let spool = SpoolRecorder::new(sink.clone());
            Obs::new(Arc::new(spool)).span(Phase::Flush, "tail", s(0.5), j(0.0));
        }
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.breakdown().phase(Phase::Flush).time, s(0.5));
    }

    #[test]
    fn batched_recording_equals_per_event_recording() {
        let a = TraceRecorder::shared();
        let oa = Obs::new(a.clone());
        oa.span(Phase::Dma, "x", s(1.0), j(1.0));
        oa.count(Counter::NocFlits, 5);

        let b = TraceRecorder::shared();
        b.record_batch(&a.events());
        assert_eq!(b.events(), a.events());
        assert_eq!(b.breakdown(), a.breakdown());
    }

    #[test]
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }
}
