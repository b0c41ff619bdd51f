//! Zero-cost-when-off instrumentation for the MEALib stack.
//!
//! The model crates (memsim, noc, accel, runtime, host, sim) expose
//! end-of-run aggregates; this crate adds the *attribution* layer the
//! paper's Figure 14 is built on. Two primitives:
//!
//! * **Spans** — phase-labeled `(modeled time, modeled energy)`
//!   events. The phase taxonomy follows the software stack's life of a
//!   call: `plan` (CU descriptor decode, session arrivals), `verify`
//!   (admission decisions), `flush`/`dma`/`compute`/`drain` (modeled
//!   device-side cost). Every recorded quantity is modeled or counted,
//!   never host wall time, so two identical runs record byte-identical
//!   traces.
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
/// `Plan` carries the CU's modeled descriptor decode and the serving
/// loop's zero-cost session-arrival markers; `Verify` carries its
/// zero-cost admission-decision markers. The remaining
/// phases partition the modeled device time: `Flush` (cache flush +
/// driver invocation), `Dma` (descriptor fetch, configuration broadcast
/// and memory streaming), `Compute` (PE arithmetic) and `Drain` (result
/// gather).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// CU descriptor decode ahead of the passes; session arrivals.
    Plan,
    /// Admission decisions of the serving loop.
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
    pub const ALL: [Phase; 6] = [
        Phase::Plan,
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
    /// batch instead of once per event.
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
    /// sweep, which records each run on its own and feeds the sink in
    /// input order) interpose another recorder in front of the user's
    /// sink.
    pub fn recorder(&self) -> Option<Arc<dyn Recorder + Send + Sync>> {
        self.0.clone()
    }

    /// Records a modeled span.
    pub fn span(&self, phase: Phase, label: &str, time: Seconds, energy: Joules) {
        if let Some(rec) = &self.0 {
            rec.record_span(&SpanEvent {
                phase,
                label: label.to_string(),
                time,
                energy,
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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseTotals {
    /// Modeled time.
    pub time: Seconds,
    /// Modeled energy.
    pub energy: Joules,
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
        let slot = self.phases.entry(phase).or_default();
        slot.time += time;
        slot.energy += energy;
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
            self.add_phase(phase, totals.time, totals.energy);
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
            .add_phase(event.phase, event.time, event.energy);
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

    /// One lock acquisition for the whole batch, which is how a sweep
    /// hands each run's events to a shared sink.
    fn record_batch(&self, events: &[TraceEvent]) {
        if events.is_empty() {
            return;
        }
        let mut inner = self.lock();
        for event in events {
            match event {
                TraceEvent::Span(s) => inner.breakdown.add_phase(s.phase, s.time, s.energy),
                TraceEvent::Count { key, value } => inner.breakdown.add_count(*key, *value),
            }
            inner.events.push(event.clone());
        }
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
        obs.span(Phase::Plan, "decode \"tdl\"", s(1.5e-6), Joules::ZERO);
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
        let time = first.get("time_s").and_then(json::Value::as_f64).unwrap();
        assert!((time - 1.5e-6).abs() < 1e-18);
        assert!(first.get("wall_s").is_none());
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
