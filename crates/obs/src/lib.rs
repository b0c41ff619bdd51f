//! Zero-cost-when-off instrumentation for the MEALib stack.
//!
//! The model crates (memsim, noc, accel, runtime, host, sim) expose
//! end-of-run aggregates; this crate adds the *attribution* layer the
//! paper's Figure 14 is built on. Two primitives:
//!
//! * **Spans** — phase-attributed `(modeled time, modeled energy)`
//!   contributions. The phase taxonomy follows the software stack's
//!   life of a call: `plan` (CU descriptor decode, session arrivals), `verify`
//!   (admission decisions), `flush`/`dma`/`compute`/`drain` (modeled
//!   device-side cost). Every recorded quantity is modeled or counted,
//!   never host wall time, so two identical runs record bit-identical
//!   breakdowns.
//! * **Counters** — a typed registry of micro-architectural event
//!   counts (DRAM ACT/PRE/RD/WR, NoC flits, CU fetch/decode/loop
//!   statistics, allocator traffic), optionally per-lane (e.g. per
//!   DRAM vault).
//!
//! Both fold into one [`Breakdown`] (per-phase totals + counter
//! registry). Counter sources add their counts to a `&mut Breakdown`
//! directly; a caller that wants the totals of a whole run installs a
//! [`TraceRecorder`] behind the [`Obs`] handle, which is a nullable
//! `Arc<TraceRecorder>`: when no recorder is installed every call
//! short-circuits on a single `Option` check and allocates nothing, so
//! instrumented code paths cost (essentially) nothing in the default
//! configuration. A recorded breakdown is exported as a Chrome trace
//! through [`Profile::from_breakdown`]. The [`json`] module carries the
//! hand-rolled emitter plus a small parser used by tests and the bench
//! harnesses to validate exports without external dependencies.
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
pub use metrics::{
    validate_exposition, CounterHandle, ExpositionSummary, GaugeHandle, HistogramHandle, MetricKey,
    MetricsRegistry,
};
pub use profile::{validate_chrome_trace, IntervalEvent, Profile, TimelineTrack};
pub use sketch::{QuantileSketch, SketchSummary};
pub use slo::{Alert, AlertKind, Objective, ObjectiveKind, SloEngine, WindowObs};
pub use timeline::{Timeline, WindowCounters};

use mealib_types::{Joules, Seconds};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The phase taxonomy for span events.
///
/// `Plan` carries the CU's modeled descriptor decode and, in the
/// serving loop's telemetry lifecycle trace, the zero-length
/// session-arrival markers; `Verify` carries that trace's
/// admission-decision markers. The remaining
/// phases partition the modeled device time: `Flush` (cache flush +
/// driver invocation), `Dma` (descriptor fetch, configuration broadcast
/// and memory streaming), `Compute` (PE arithmetic) and `Drain` (result
/// gather).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// CU descriptor decode ahead of the passes; session arrivals.
    Plan,
    /// Admission decisions of the serving loop (lifecycle markers).
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

    /// Stable lowercase name used in breakdown JSON and trace exports.
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
    /// Stable snake_case name used in breakdown JSON.
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

/// A cheap, cloneable handle to an optional [`TraceRecorder`].
///
/// `Obs::off()` is the default everywhere: every recording call then
/// reduces to one `Option` discriminant check.
#[derive(Clone, Default)]
pub struct Obs(Option<Arc<TraceRecorder>>);

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
    pub fn new(recorder: Arc<TraceRecorder>) -> Self {
        Obs(Some(recorder))
    }

    /// `true` when a recorder is installed.
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds a modeled (time, energy) contribution to `phase`.
    pub fn span(&self, phase: Phase, time: Seconds, energy: Joules) {
        if let Some(rec) = &self.0 {
            rec.lock().add_phase(phase, time, energy);
        }
    }

    /// Adds `value` to an aggregate counter. Zero increments are
    /// dropped.
    pub fn count(&self, counter: Counter, value: u64) {
        if let Some(rec) = &self.0 {
            rec.lock().add_count(CounterKey::total(counter), value);
        }
    }

    /// Folds a prebuilt breakdown into the recorder under one lock.
    pub fn record_breakdown(&self, breakdown: &Breakdown) {
        if let Some(rec) = &self.0 {
            rec.lock().merge(breakdown);
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

/// The in-memory sink behind an enabled [`Obs`]: one [`Breakdown`]
/// that every span, count and folded breakdown accumulates into.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    breakdown: Mutex<Breakdown>,
}

impl TraceRecorder {
    /// A fresh, empty recorder already wrapped for sharing.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Breakdown> {
        self.breakdown.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the accumulated breakdown.
    pub fn breakdown(&self) -> Breakdown {
        self.lock().clone()
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
        obs.span(Phase::Compute, s(1.0), j(1.0));
        obs.count(Counter::DramAct, 5);
        // Nothing to observe: the handle has no sink at all.
    }

    #[test]
    fn trace_recorder_accumulates_breakdown() {
        let rec = TraceRecorder::shared();
        let obs = Obs::new(rec.clone());
        assert!(obs.enabled());
        obs.span(Phase::Dma, s(2.0), j(4.0));
        obs.span(Phase::Dma, s(1.0), j(1.0));
        obs.span(Phase::Compute, s(3.0), j(2.0));
        obs.count(Counter::DramAct, 10);
        obs.count(Counter::DramAct, 0); // dropped

        let bd = rec.breakdown();
        assert_eq!(bd.phase(Phase::Dma).time, s(3.0));
        assert_eq!(bd.phase(Phase::Dma).energy, j(5.0));
        assert_eq!(bd.total_time(), s(6.0));
        assert_eq!(bd.total_energy(), j(7.0));
        assert_eq!(bd.counter(Counter::DramAct), 10);
        assert_eq!(bd.counters().count(), 1);
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
    fn record_breakdown_replays_phases_and_counters() {
        let mut bd = Breakdown::new();
        bd.add_phase(Phase::Dma, s(1.0), j(2.0));
        bd.add_count(CounterKey::lane(Counter::DramRowMiss, 2), 9);
        let rec = TraceRecorder::shared();
        Obs::new(rec.clone()).record_breakdown(&bd);
        assert_eq!(rec.breakdown(), bd);
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
    fn phase_names_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_name(p.name()), Some(p));
        }
        assert_eq!(Phase::from_name("nope"), None);
    }
}
