//! Dual-engine trace replay behind one [`simulate`] entry point.
//!
//! Two engines share one model. The **cycle engine** (this module)
//! replays an explicit request trace burst by burst against per-bank
//! state machines (open row, activate/precharge timing) and a per-unit
//! data bus — the same abstraction level as the "in-house cycle-accurate
//! 3D-stacked DRAM simulator" of §4.2: FCFS per unit, bank-level
//! parallelism, one command clock. The **fast engine**
//! (the `fast` module) is an event-driven replay of the same model that
//! batches streaks of bus-limited bursts (row hits, and row misses whose
//! activation the bus hides) analytically and skips straight to the
//! next bank/bus/refresh event; it is bit-exact against the cycle
//! engine by construction and by proptest, and
//! [`EngineKind::DualCheck`] runs both and diffs every statistic.
//!
//! Traces live in the SoA [`TraceBuffer`]; [`SimOptions`] selects the
//! engine, worker count, and optional cycle-windowed profiling.
//!
//! Per-tenant attribution and the cycle-window timeline are per-unit
//! **sinks** on the `UnitEngine` that both engines fill, not engine
//! switches.
//!
//! Writes share the read datapath model; write-recovery (`tWR`) is
//! folded into the precharge path, which is accurate enough for the
//! bandwidth/energy questions this reproduction asks.

use mealib_obs::timeline::{Timeline, WindowCounters};
use mealib_obs::{Breakdown, Counter, CounterKey};
use mealib_types::{Bytes, ConfigError, Cycles, PhysAddr};

use crate::address::{AddressMapping, Location};
use crate::config::MemoryConfig;
use crate::fast::run_fast;
use crate::stats::TraceStats;
use crate::timing::DramTiming;
use crate::trace::TraceBuffer;

/// Direction of a memory request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Data flows from DRAM to the requester.
    Read,
    /// Data flows from the requester to DRAM.
    Write,
}

/// One memory request: a contiguous byte range and a direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Starting physical address.
    pub addr: PhysAddr,
    /// Length in bytes.
    pub bytes: u64,
    /// Read or write.
    pub op: Op,
}

impl Request {
    /// Convenience read-request constructor.
    pub fn read(addr: u64, bytes: u64) -> Self {
        Self {
            addr: PhysAddr::new(addr),
            bytes,
            op: Op::Read,
        }
    }

    /// Convenience write-request constructor.
    pub fn write(addr: u64, bytes: u64) -> Self {
        Self {
            addr: PhysAddr::new(addr),
            bytes,
            op: Op::Write,
        }
    }
}

#[derive(Debug, Clone, Default)]
pub(crate) struct BankState {
    pub(crate) open_row: Option<u64>,
    /// Earliest cycle the bank can accept its next command.
    pub(crate) cmd_ready: u64,
    /// Cycle of the most recent activation (for tRAS/tRC).
    pub(crate) act_at: u64,
    pub(crate) has_activated: bool,
}

/// Sliding four-activation window per unit (tFAW enforcement).
#[derive(Debug, Clone, Default)]
pub(crate) struct ActWindow {
    recent: [u64; 4],
    next: usize,
}

impl ActWindow {
    /// Earliest cycle a new ACT may issue given the window constraint.
    pub(crate) fn earliest(&self, t_faw: u64) -> u64 {
        self.recent[self.next] + t_faw
    }

    pub(crate) fn record(&mut self, at: u64) {
        self.recent[self.next] = at;
        self.next = (self.next + 1) % 4;
    }
}

/// Log₂-bucketed histogram of per-burst access latencies (cycles from a
/// burst's turn in program order to its data completing).
///
/// Bucket `k` counts latencies in `[2^k, 2^(k+1))` cycles. The top
/// bucket ([`LatencyHistogram::SATURATION_BUCKET`]) *saturates*: every
/// latency at or above `2^31` cycles clamps into it, so its population
/// has no finite upper bound and [`LatencyHistogram::quantile_bound`]
/// reports [`u64::MAX`] for quantiles that land there.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// `buckets[k]` counts latencies in `[2^k, 2^(k+1))` cycles
    /// (bucket 0 also holds zero-latency completions; the last bucket
    /// additionally holds everything at or above `2^31`).
    buckets: [u64; 32],
    total: u64,
}

impl LatencyHistogram {
    /// Index of the saturating top bucket: it covers `[2^31, ∞)` cycles.
    pub const SATURATION_BUCKET: usize = 31;

    /// Bucket index a latency lands in — the shared binning rule, so the
    /// fast engine's batched [`LatencyHistogram::record_n`] and the
    /// cycle engine's per-burst [`LatencyHistogram::record`] agree
    /// bucket-for-bucket.
    pub(crate) fn bucket_of(latency_cycles: u64) -> usize {
        (64 - latency_cycles.leading_zeros())
            .saturating_sub(1)
            .min(Self::SATURATION_BUCKET as u32) as usize
    }

    fn record(&mut self, latency_cycles: u64) {
        self.buckets[Self::bucket_of(latency_cycles)] += 1;
        self.total += 1;
    }

    /// Records `n` latencies that all land in `bucket` — the fast
    /// engine's analytic batch path for a streak of identical per-burst
    /// latencies.
    pub(crate) fn record_n(&mut self, bucket: usize, n: u64) {
        self.buckets[bucket] += n;
        self.total += n;
    }

    /// Folds another histogram into this one. Buckets and totals are
    /// plain sums, so merging is commutative and associative — the
    /// property the parallel engine's reduction relies on.
    fn merge(&mut self, other: &Self) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Number of bursts recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Bucket counts (`buckets[k]` covers `[2^k, 2^(k+1))` cycles; the
    /// last bucket saturates and also covers everything above).
    pub fn buckets(&self) -> &[u64; 32] {
        &self.buckets
    }

    /// Upper bound (cycles) of the bucket containing the given quantile
    /// (`0.0..=1.0`), or `None` when empty.
    ///
    /// When the quantile falls in the saturating top bucket the bound is
    /// [`u64::MAX`]: that bucket holds every latency at or above `2^31`
    /// cycles, so any finite power-of-two bound would misrepresent the
    /// clamped tail.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if k >= Self::SATURATION_BUCKET {
                    Some(u64::MAX)
                } else {
                    Some(1u64 << (k + 1))
                };
            }
        }
        Some(u64::MAX)
    }
}

/// Per-vault (per-unit) command counts collected by [`simulate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VaultStats {
    /// Read bursts serviced by this vault.
    pub read_bursts: u64,
    /// Write bursts serviced by this vault.
    pub write_bursts: u64,
    /// ACT commands issued.
    pub activations: u64,
    /// PRE commands issued (explicit conflicts + refresh row closes).
    pub precharges: u64,
    /// Column accesses hitting an open row.
    pub row_hits: u64,
    /// Column accesses that opened a row.
    pub row_misses: u64,
    /// All-bank refreshes performed.
    pub refreshes: u64,
}

/// Per-tenant slice of a tagged replay (see
/// [`crate::tenancy::simulate_tenants`]).
///
/// Byte and burst tallies are the tenant's own traffic exactly. An
/// activation is attributed to the tenant whose burst triggered it —
/// under shared banks a co-tenant can open (or close) a row the tenant
/// then touches, so attribution reflects the interleaved schedule, not
/// the tenant in isolation. `cycles`/`elapsed` measure from cycle 0 to
/// the completion of the tenant's *last* burst, which is the quantity a
/// per-tenant latency budget constrains: it includes every queueing
/// delay co-tenants imposed. `energy` prices the tenant's attributed
/// activations and bytes plus background power over its own completion
/// window; tenant energies therefore overlap in background terms and
/// are an attribution, not a partition of [`TraceStats::energy`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Bytes this tenant read from the array.
    pub bytes_read: Bytes,
    /// Bytes this tenant wrote to the array.
    pub bytes_written: Bytes,
    /// Read bursts belonging to this tenant.
    pub read_bursts: u64,
    /// Write bursts belonging to this tenant.
    pub write_bursts: u64,
    /// Row activations triggered by this tenant's bursts.
    pub activations: u64,
    /// Completion cycle of the tenant's last burst (command clock).
    pub cycles: Cycles,
    /// `cycles` in wall-clock time.
    pub elapsed: mealib_types::Seconds,
    /// Completion cycle of the tenant's *first* burst (zero when the
    /// tenant issued no bursts). With `cycles` this brackets the
    /// tenant's busy window; the serving telemetry marks it on the
    /// lifecycle trace as time-to-first-burst.
    pub first_cycles: Cycles,
    /// `first_cycles` in wall-clock time.
    pub first_elapsed: mealib_types::Seconds,
    /// Modeled energy attributed to this tenant (activations + bytes +
    /// background power over its completion window).
    pub energy: mealib_types::Joules,
}

/// Full output of one engine replay: the aggregate statistics, the
/// per-burst latency histogram, per-vault command counts, and — when
/// [`SimOptions::profile`] requested it — the cycle-windowed per-vault
/// timeline.
///
/// `PartialEq` compares every field — including the derived `f64`
/// time/energy values — exactly, which is what the determinism suite
/// and [`EngineKind::DualCheck`] use to hold runs bit-for-bit equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineRun {
    /// Aggregate timing / row-buffer / energy statistics.
    pub stats: TraceStats,
    /// Per-burst latency histogram.
    pub latencies: LatencyHistogram,
    /// Command counts per vault (index = unit number in the mapping).
    pub vaults: Vec<VaultStats>,
    /// Per-tenant attribution; non-empty exactly when the replay was
    /// tagged (see [`crate::tenancy::simulate_tenants`]). Index =
    /// tenant tag. Both engines fill it, so [`EngineKind::DualCheck`]
    /// compares it like every other field.
    pub tenants: Vec<TenantStats>,
    /// Cycle-windowed per-vault counters; `Some` exactly when
    /// [`SimOptions::profile`] was `Some(window_cycles)`. Window `w`
    /// covers completion cycles `[w·W, (w+1)·W)`.
    pub timeline: Option<Timeline>,
}

impl EngineRun {
    /// Adds the aggregate DRAM counters plus one lane per vault to
    /// `bd`.
    pub fn add_counters(&self, bd: &mut Breakdown) {
        self.stats.add_counters(bd);
        for (unit, v) in self.vaults.iter().enumerate() {
            let lane = unit as u16;
            for (counter, value) in [
                (Counter::DramAct, v.activations),
                (Counter::DramPre, v.precharges),
                (Counter::DramRowHit, v.row_hits),
                (Counter::DramRowMiss, v.row_misses),
                (Counter::DramRefresh, v.refreshes),
            ] {
                bd.add_count(CounterKey::lane(counter, lane), value);
            }
        }
    }
}

/// Which replay engine [`simulate`] runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineKind {
    /// The cycle-accurate oracle: every burst steps the per-bank state
    /// machines individually.
    Cycle,
    /// The event-driven epoch-skipping engine: contiguous row-hit burst
    /// streaks are batched analytically and dead time is skipped to the
    /// next bank/bus/refresh event. Bit-exact against
    /// [`Cycle`](EngineKind::Cycle) for every statistic, and the default.
    #[default]
    Fast,
    /// Runs both engines and diffs the results; returns
    /// [`SimError::EngineDivergence`] on any mismatch. The validation
    /// mode — roughly the cost of both engines combined.
    DualCheck,
}

/// Options for one [`simulate`] call.
///
/// The `Default` is the fast engine, serial, with profiling off.
/// [`SimOptions::cycle`] names the cycle-accurate oracle, the reference
/// that tests and [`EngineKind::DualCheck`] compare the fast engine
/// against.
///
/// # `jobs` semantics
///
/// One convention across every parallel path in the workspace
/// (normalized through [`mealib_types::auto_jobs`]):
///
/// * `0` ⇒ **auto** — one worker per available hardware thread;
/// * `1` ⇒ the **exact serial path** on the calling thread (no shard
///   allocation, no worker pool);
/// * `n > 1` ⇒ the vault-sharded replay on up to `n` workers.
///
/// Modeled results are bit-identical for every value; only wall-clock
/// time changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimOptions {
    /// Replay engine ([`EngineKind::Fast`] by default).
    pub engine: EngineKind,
    /// Worker threads: `0` = auto, `1` = exact serial path, `n` = up to
    /// `n` workers (vault-sharded).
    pub jobs: usize,
    /// `Some(window_cycles)` additionally accumulates the cycle-windowed
    /// per-vault [`Timeline`] into [`EngineRun::timeline`]. Profiling
    /// charges every burst to its window individually, so the fast
    /// engine replays a profiled run without streak batching (same
    /// engine, same `jobs`; results are unchanged).
    pub profile: Option<u64>,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            engine: EngineKind::Fast,
            jobs: 1,
            profile: None,
        }
    }
}

impl SimOptions {
    /// Cycle-accurate oracle engine.
    pub fn cycle() -> Self {
        Self {
            engine: EngineKind::Cycle,
            ..Self::default()
        }
    }

    /// Event-driven epoch-skipping engine (same as `Default`).
    pub fn fast() -> Self {
        Self::default()
    }

    /// Run both engines and diff every statistic.
    pub fn dual_check() -> Self {
        Self {
            engine: EngineKind::DualCheck,
            ..Self::default()
        }
    }

    /// Sets the worker count (`0` = auto, `1` = serial, `n` = up to `n`).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Requests the cycle-windowed per-vault timeline with windows of
    /// `window_cycles` command-clock cycles.
    pub fn profile(mut self, window_cycles: u64) -> Self {
        self.profile = Some(window_cycles);
        self
    }
}

/// Error from [`simulate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The memory configuration failed validation.
    Config(ConfigError),
    /// `SimOptions::profile` was `Some(0)`; the timeline window must be
    /// a positive cycle count.
    ZeroWindow,
    /// [`EngineKind::DualCheck`] found the fast engine disagreeing with
    /// the cycle oracle. The payload names the differing fields — this
    /// is always an engine bug, never an input problem.
    EngineDivergence(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid memory configuration: {e}"),
            Self::ZeroWindow => write!(f, "profile window must be a positive cycle count"),
            Self::EngineDivergence(what) => {
                write!(f, "fast engine diverged from the cycle oracle: {what}")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<ConfigError> for SimError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

/// Replays `trace` in program order against the device described by
/// `config` — the one entry point for every engine, threading, and
/// profiling combination (see [`SimOptions`]). Its tagged sibling is
/// [`crate::tenancy::simulate_tenants`].
///
/// Requests longer than one burst are split into burst-sized accesses at
/// burst-aligned boundaries, exactly as a vault controller would issue
/// them. Modeled results are bit-identical across engine kinds and
/// worker counts; [`EngineKind::DualCheck`] enforces that equality at
/// run time.
///
/// # Errors
///
/// * [`SimError::Config`] when `config` fails validation;
/// * [`SimError::ZeroWindow`] when `opts.profile == Some(0)`;
/// * [`SimError::EngineDivergence`] when `DualCheck` finds a mismatch
///   (an engine bug, not an input problem).
///
/// # Examples
///
/// ```
/// use mealib_memsim::config::MemoryConfig;
/// use mealib_memsim::engine::{sequential_trace, simulate, Op, SimOptions};
///
/// let config = MemoryConfig::hmc_stack();
/// let trace = sequential_trace(0, 1 << 20, 256, Op::Read);
/// let run = simulate(&config, &trace, &SimOptions::fast()).unwrap();
/// assert_eq!(run.stats.bytes_read.get(), 1 << 20);
/// ```
pub fn simulate(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    opts: &SimOptions,
) -> Result<EngineRun, SimError> {
    dispatch(config, trace, None, opts)
}

/// Shared body of [`simulate`] and [`crate::tenancy::simulate_tenants`]:
/// `tenants` is the per-request tag column plus the tenant count the
/// run reports, `None` on untagged replays.
///
/// Every unit of either engine starts from one prototype carrying the
/// run's sinks (a timeline when profiling, tenant accumulators when
/// tagged), and one tail folds the units into the [`EngineRun`], so
/// neither sink is a reason to pick a different engine.
pub(crate) fn dispatch(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    tenants: Option<(&[u16], usize)>,
    opts: &SimOptions,
) -> Result<EngineRun, SimError> {
    config.validate()?;
    if opts.profile == Some(0) {
        return Err(SimError::ZeroWindow);
    }
    let jobs = mealib_types::auto_jobs(opts.jobs);
    let tags = tenants.map(|(col, _)| col);
    let proto = UnitEngine::new(
        config.mapping.banks_per_unit(),
        opts.profile,
        tenants.map(|(_, n)| n),
    );
    let cycle = || finish_run(config, run_cycle(config, trace, tags, jobs, &proto));
    let fast = || finish_run(config, run_fast(config, trace, tags, jobs, &proto));
    match opts.engine {
        EngineKind::Cycle => Ok(cycle()),
        EngineKind::Fast => Ok(fast()),
        EngineKind::DualCheck => {
            let (cycle, fast) = (cycle(), fast());
            if fast != cycle {
                return Err(SimError::EngineDivergence(divergence_report(&cycle, &fast)));
            }
            Ok(cycle)
        }
    }
}

/// Names the fields where two runs disagree, with a one-line numeric
/// sketch for the aggregates — enough to localize an engine bug without
/// dumping whole histograms.
fn divergence_report(cycle: &EngineRun, fast: &EngineRun) -> String {
    /// Where two per-unit or per-tenant slices first differ.
    fn first<T: PartialEq>(index: &str, a: &[T], b: &[T]) -> String {
        match a.iter().zip(b).position(|(x, y)| x != y) {
            Some(i) => format!("first divergent {index}: {i}"),
            None => format!("{index} count differs"),
        }
    }
    let mut parts = Vec::new();
    if cycle.stats != fast.stats {
        parts.push(format!(
            "stats (cycle: {} cycles, {} acts, {} hits; fast: {} cycles, {} acts, {} hits)",
            cycle.stats.cycles.get(),
            cycle.stats.activations,
            cycle.stats.row_hits,
            fast.stats.cycles.get(),
            fast.stats.activations,
            fast.stats.row_hits,
        ));
    }
    if cycle.latencies != fast.latencies {
        parts.push(format!(
            "latency histogram (cycle: {} recorded; fast: {})",
            cycle.latencies.count(),
            fast.latencies.count()
        ));
    }
    if cycle.vaults != fast.vaults {
        let at = first("unit", &cycle.vaults, &fast.vaults);
        parts.push(format!("vault stats ({at})"));
    }
    if cycle.tenants != fast.tenants {
        let at = first("tenant", &cycle.tenants, &fast.tenants);
        parts.push(format!("tenant stats ({at})"));
    }
    if cycle.timeline != fast.timeline {
        parts.push("timeline".to_string());
    }
    if parts.is_empty() {
        // Unreachable in practice: the caller only builds a report when
        // the runs compare unequal.
        parts.push("unknown field".to_string());
    }
    parts.join("; ")
}

/// The cycle-accurate oracle replay: serial when `jobs <= 1`, otherwise
/// vault-sharded across up to `jobs` workers. Returns one [`UnitEngine`]
/// per unit, each a copy of `proto` that replayed the unit's bursts.
///
/// The trace is partitioned at *burst* granularity — consecutive bursts
/// of one request land on different units under interleaving, so whole
/// requests cannot be assigned to a shard — via the mapping's decode,
/// preserving per-unit program order. Each unit's FCFS stream then
/// replays on its own [`UnitEngine`], which is sound because the serial
/// engine's state is already partitioned per unit: a burst decoded to
/// unit `u` reads and writes the banks, bus, activation window, refresh
/// counter, and issue pointer of `u` and nothing else. The merge is a
/// deterministic order-independent reduction (total cycles = max over
/// units; command counts, byte counts, and histogram buckets are
/// commutative `u64` sums), so the result is **bit-for-bit identical**
/// to the serial run for every statistic, including the derived `f64`
/// time and energy.
///
/// Expects a pre-validated `config` and a pre-normalized `jobs`.
fn run_cycle(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    tags: Option<&[u16]>,
    jobs: usize,
    proto: &UnitEngine,
) -> Vec<UnitEngine> {
    let t = &config.timing;
    let mapping = &config.mapping;
    if jobs <= 1 {
        let mut units = vec![proto.clone(); mapping.units()];
        for_each_burst_tagged(t, mapping, trace, tags, |b| units[b.loc.unit].burst(t, &b));
        units
    } else {
        let mut shards: Vec<Vec<Burst>> = vec![Vec::new(); mapping.units()];
        for_each_burst_tagged(t, mapping, trace, tags, |b| shards[b.loc.unit].push(b));
        mealib_types::par_map(&shards, jobs, |shard| {
            let mut unit = proto.clone();
            for b in shard {
                unit.burst(t, b);
            }
            unit
        })
    }
}

/// One decoded burst-sized access, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Burst {
    pub(crate) loc: Location,
    pub(crate) bytes: u64,
    pub(crate) op: Op,
    /// Owning tenant; `0` on untagged replays.
    pub(crate) tenant: u16,
}

/// Splits `trace` into burst-sized accesses at burst-aligned boundaries
/// and decodes each one, exactly as a vault controller would issue them.
/// The optional per-request tenant tag column marks every burst of
/// request `i` with `tags[i]`; `None` tags everything tenant 0.
pub(crate) fn for_each_burst_tagged(
    t: &DramTiming,
    mapping: &AddressMapping,
    trace: &TraceBuffer,
    tags: Option<&[u16]>,
    mut f: impl FnMut(Burst),
) {
    let (addrs, bytes, ops) = (trace.addrs(), trace.bytes(), trace.ops());
    for i in 0..trace.len() {
        let mut remaining = bytes[i];
        let mut addr = addrs[i];
        let op = ops[i];
        let tenant = tags.map_or(0, |col| col[i]);
        while remaining > 0 {
            let offset_in_burst = addr % t.burst_bytes;
            let take = (t.burst_bytes - offset_in_burst).min(remaining);
            let loc = mapping.decode(PhysAddr::new(addr));
            f(Burst {
                loc,
                bytes: take,
                op,
                tenant,
            });
            addr += take;
            remaining -= take;
        }
    }
}

/// Per-unit cycle-windowed counter accumulation (the profiled replay
/// path). The lane index is implicit — it is assigned when the per-unit
/// maps are folded into one [`Timeline`] at finish time.
#[derive(Debug, Clone)]
pub(crate) struct UnitTimeline {
    window_cycles: u64,
    windows: std::collections::BTreeMap<u64, WindowCounters>,
}

impl UnitTimeline {
    fn new(window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "window_cycles must be positive");
        Self {
            window_cycles,
            windows: std::collections::BTreeMap::new(),
        }
    }
}

/// One tenant's integer accumulators on one unit. Merging across units
/// is a commutative sum (plus a max on the completion cycle), mirroring
/// [`finish_run`]'s aggregate reduction, so tagged parallel replays stay
/// bit-exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TenantAccum {
    pub(crate) bytes_read: u64,
    pub(crate) bytes_written: u64,
    pub(crate) read_bursts: u64,
    pub(crate) write_bursts: u64,
    pub(crate) activations: u64,
    /// Completion cycle of the tenant's last burst on this unit.
    pub(crate) last_done: u64,
    /// Completion cycle of the tenant's first burst on this unit
    /// (zero = the tenant never issued here; a serviced burst always
    /// completes after cycle zero, so zero is a safe sentinel).
    pub(crate) first_done: u64,
}

impl TenantAccum {
    /// Charges `bursts` bursts of one direction moving `bytes` and
    /// triggering `activations`, the first completing at `first` and the
    /// last at `last`. The cycle engine charges one burst at a time; the
    /// fast engine charges a whole streak chunk in closed form.
    pub(crate) fn charge(
        &mut self,
        write: bool,
        bytes: u64,
        bursts: u64,
        activations: u64,
        first: u64,
        last: u64,
    ) {
        if write {
            self.bytes_written += bytes;
            self.write_bursts += bursts;
        } else {
            self.bytes_read += bytes;
            self.read_bursts += bursts;
        }
        self.activations += activations;
        self.last_done = self.last_done.max(last);
        if self.first_done == 0 {
            self.first_done = first;
        }
    }

    fn merge(&mut self, other: &TenantAccum) {
        self.bytes_read += other.bytes_read;
        self.bytes_written += other.bytes_written;
        self.read_bursts += other.read_bursts;
        self.write_bursts += other.write_bursts;
        self.activations += other.activations;
        self.last_done = self.last_done.max(other.last_done);
        // First-burst completion is a min over units that saw the
        // tenant at all — commutative, so sharded merges stay
        // bit-exact.
        if other.first_done != 0 {
            self.first_done = if self.first_done == 0 {
                other.first_done
            } else {
                self.first_done.min(other.first_done)
            };
        }
    }
}

/// The complete replay state of one unit (channel or vault): banks, data
/// bus, tFAW window, refresh progress, the FCFS issue pointer, and the
/// unit's share of every statistic. Serial and parallel replays of both
/// engines run through this type; a burst decoded to unit `u` touches
/// the state of `u` and nothing else, which is what makes vault sharding
/// sound.
#[derive(Debug, Clone)]
pub(crate) struct UnitEngine {
    pub(crate) banks: Vec<BankState>,
    pub(crate) bus_free: u64,
    pub(crate) window: ActWindow,
    pub(crate) refreshes_done: u64,
    /// Program-order issue pointer: a burst's latency is measured from
    /// the completion of the previous burst on the same unit (FCFS).
    pub(crate) issued_at: u64,
    pub(crate) vault: VaultStats,
    pub(crate) latencies: LatencyHistogram,
    pub(crate) bytes_read: u64,
    pub(crate) bytes_written: u64,
    /// Windowed counter accumulation; `None` on the default (unprofiled)
    /// path, where [`UnitEngine::burst`] costs one discriminant check.
    pub(crate) timeline: Option<UnitTimeline>,
    /// Per-tenant accumulators; `Some` exactly on tagged replays.
    pub(crate) tenants: Option<Vec<TenantAccum>>,
}

impl UnitEngine {
    /// A fresh unit with `banks` idle banks, a timeline sink when
    /// `profile` is `Some(window_cycles)`, and `tenants` accumulators
    /// when the replay is tagged.
    pub(crate) fn new(banks: usize, profile: Option<u64>, tenants: Option<usize>) -> Self {
        Self {
            banks: vec![BankState::default(); banks],
            bus_free: 0,
            window: ActWindow::default(),
            refreshes_done: 0,
            issued_at: 0,
            vault: VaultStats::default(),
            latencies: LatencyHistogram::default(),
            bytes_read: 0,
            bytes_written: 0,
            timeline: profile.map(UnitTimeline::new),
            tenants: tenants.map(|n| vec![TenantAccum::default(); n]),
        }
    }

    /// Services one burst, accumulating windowed counters and/or tenant
    /// attribution when those paths are on. The disabled path costs two
    /// `Option` discriminant checks on top of [`UnitEngine::burst_core`].
    #[inline]
    pub(crate) fn burst(&mut self, t: &DramTiming, b: &Burst) {
        if self.timeline.is_none() && self.tenants.is_none() {
            self.burst_core(t, b);
        } else {
            self.burst_into_sinks(t, b);
        }
    }

    /// The sink path of [`UnitEngine::burst`], kept out of line so the
    /// fast engine's slow path (every burst of a scalar gather) inlines
    /// to the two checks plus [`UnitEngine::burst_core`].
    #[inline(never)]
    fn burst_into_sinks(&mut self, t: &DramTiming, b: &Burst) {
        // Snapshot-delta accumulation: everything `burst_core` charges to
        // this burst (including refresh debt paid before it) lands in the
        // window containing the burst's last data-bus cycle. The rule is
        // a pure function of the per-unit burst stream, so serial and
        // vault-sharded parallel replays bucket identically.
        let vault_before = self.vault;
        let read_before = self.bytes_read;
        let written_before = self.bytes_written;
        let issued_before = self.issued_at;
        self.burst_core(t, b);
        let done = self.bus_free;
        if let Some(tenants) = self.tenants.as_mut() {
            let acts = self.vault.activations - vault_before.activations;
            tenants[b.tenant as usize].charge(b.op == Op::Write, b.bytes, 1, acts, done, done);
        }
        if self.timeline.is_none() {
            return;
        }
        let delta = WindowCounters {
            bytes_read: self.bytes_read - read_before,
            bytes_written: self.bytes_written - written_before,
            activations: self.vault.activations - vault_before.activations,
            precharges: self.vault.precharges - vault_before.precharges,
            row_hits: self.vault.row_hits - vault_before.row_hits,
            row_misses: self.vault.row_misses - vault_before.row_misses,
            refreshes: self.vault.refreshes - vault_before.refreshes,
            bus_busy_cycles: t.t_burst,
            queue_wait_cycles: done - issued_before,
            noc_flits: 0,
            noc_credit_stalls: 0,
        };
        let tl = self.timeline.as_mut().expect("checked above");
        let w = done.saturating_sub(1) / tl.window_cycles;
        tl.windows.entry(w).or_default().merge(&delta);
    }

    /// The bus cycle from which the unit owes its next refresh,
    /// `(refreshes_done + 1) · t_refi`; `None` when that lies past
    /// `u64::MAX`, where no bus cycle can reach it. `bus_free >= next`
    /// holds exactly when `bus_free / t_refi > refreshes_done`.
    #[inline(always)]
    pub(crate) fn next_refresh(&self, t: &DramTiming) -> Option<u64> {
        self.refreshes_done.checked_add(1)?.checked_mul(t.t_refi)
    }

    /// Services one burst in FCFS order: refresh accounting, row-buffer
    /// logic, then a slot on the unit's data bus.
    ///
    /// This is the shared slow path: the fast engine reaches it through
    /// [`UnitEngine::burst`] for every burst its analytic streak
    /// batching cannot cover, which is what keeps the two engines
    /// bit-exact on conflicts, refreshes, and activations.
    // Forced inline: left to the compiler it stayed a call from the
    // fast engine's slow path, and inlining it sped scalar gather
    // replay by about 1.4x (spmv stream, 2-core x86-64 host).
    #[inline(always)]
    pub(crate) fn burst_core(&mut self, t: &DramTiming, b: &Burst) {
        // Periodic all-bank refresh (REFab): once per tREFI the whole
        // unit spends tRFC refreshing, closing every row buffer. The
        // compare is the hot-path test; the division runs only when a
        // refresh is owed.
        if self
            .next_refresh(t)
            .is_some_and(|next| self.bus_free >= next)
        {
            let due = self.bus_free / t.t_refi;
            let owed = due - self.refreshes_done;
            self.refreshes_done = due;
            self.vault.refreshes += owed;
            self.bus_free += owed * t.t_rfc;
            for bank in self.banks.iter_mut() {
                if bank.open_row.is_some() {
                    // Refresh implicitly closes every open row.
                    self.vault.precharges += 1;
                }
                bank.open_row = None;
                bank.cmd_ready = bank.cmd_ready.max(self.bus_free);
            }
        }

        let bank = &mut self.banks[b.loc.bank];
        let data_start = match bank.open_row {
            Some(r) if r == b.loc.row => {
                self.vault.row_hits += 1;
                bank.cmd_ready + t.t_cl
            }
            Some(_) => {
                // Row conflict: precharge, then activate, then access.
                self.vault.row_misses += 1;
                self.vault.activations += 1;
                self.vault.precharges += 1;
                let pre = bank.cmd_ready.max(bank.act_at + t.t_ras);
                let act = (pre + t.t_rp)
                    .max(bank.act_at + t.t_rc())
                    .max(self.window.earliest(t.t_faw));
                self.window.record(act);
                bank.act_at = act;
                act + t.t_rcd + t.t_cl
            }
            None => {
                // Bank idle: activate, then access.
                self.vault.row_misses += 1;
                self.vault.activations += 1;
                let act = if bank.has_activated {
                    bank.cmd_ready.max(bank.act_at + t.t_rc())
                } else {
                    bank.cmd_ready
                }
                .max(self.window.earliest(t.t_faw));
                self.window.record(act);
                bank.act_at = act;
                bank.has_activated = true;
                act + t.t_rcd + t.t_cl
            }
        };
        let data_start = data_start.max(self.bus_free);
        let done = data_start + t.t_burst;
        self.bus_free = done;
        // Column commands can issue once per burst slot.
        bank.cmd_ready = done.saturating_sub(t.t_cl);
        bank.open_row = Some(b.loc.row);
        self.latencies.record(done - self.issued_at);
        self.issued_at = done;

        match b.op {
            Op::Read => {
                self.bytes_read += b.bytes;
                self.vault.read_bursts += 1;
            }
            Op::Write => {
                self.bytes_written += b.bytes;
                self.vault.write_bursts += 1;
            }
        }
    }
}

/// Folds per-unit replay results into one [`EngineRun`]. Every merged
/// quantity is either a commutative `u64` sum (bytes, commands,
/// histogram buckets) or a max (the end cycle); the derived `f64`
/// fields (`elapsed`, `energy`) are computed once here from the merged
/// integer totals, so parallel and serial runs — and the fast and cycle
/// engines — agree bit-for-bit.
///
/// The sinks fold here too: tenant accumulators merge per tenant, and
/// the per-unit window maps become one [`Timeline`] with each unit's
/// index as its lane (cell insertion is a commutative sum, so the fold
/// is order-independent).
pub(crate) fn finish_run(config: &MemoryConfig, units: Vec<UnitEngine>) -> EngineRun {
    let t = &config.timing;
    let hz = mealib_types::Hertz::new(1.0 / t.t_ck.get());
    let mut stats = TraceStats::default();
    let mut latencies = LatencyHistogram::default();
    let mut vaults = Vec::with_capacity(units.len());
    let mut accums: Vec<TenantAccum> = Vec::new();
    let mut timeline: Option<Timeline> = None;
    let mut end_cycle = 0u64;
    for (unit, u) in units.into_iter().enumerate() {
        end_cycle = end_cycle.max(u.bus_free);
        stats.bytes_read += Bytes::new(u.bytes_read);
        stats.bytes_written += Bytes::new(u.bytes_written);
        stats.activations += u.vault.activations;
        stats.precharges += u.vault.precharges;
        stats.row_hits += u.vault.row_hits;
        stats.row_misses += u.vault.row_misses;
        stats.refreshes += u.vault.refreshes;
        latencies.merge(&u.latencies);
        vaults.push(u.vault);
        if let Some(ts) = u.tenants {
            if accums.is_empty() {
                accums = ts;
            } else {
                for (mine, theirs) in accums.iter_mut().zip(&ts) {
                    mine.merge(theirs);
                }
            }
        }
        if let Some(ut) = u.timeline {
            let tl = timeline.get_or_insert_with(|| Timeline::new(ut.window_cycles));
            for (w, counters) in &ut.windows {
                tl.add_cell(*w, unit as u16, counters);
            }
        }
    }
    stats.cycles = Cycles::new(end_cycle);
    stats.elapsed = stats.cycles.at(hz);
    stats.energy =
        config
            .energy
            .trace_energy(stats.activations, stats.bytes_moved().get(), stats.elapsed);
    // Tenant slices derive their `f64` fields once from the merged
    // integer accumulators, exactly like the aggregates above, so tagged
    // parallel replays stay bit-exact.
    let tenants = accums
        .iter()
        .map(|a| {
            let cycles = Cycles::new(a.last_done);
            let elapsed = cycles.at(hz);
            let energy =
                config
                    .energy
                    .trace_energy(a.activations, a.bytes_read + a.bytes_written, elapsed);
            let first_cycles = Cycles::new(a.first_done);
            TenantStats {
                bytes_read: Bytes::new(a.bytes_read),
                bytes_written: Bytes::new(a.bytes_written),
                read_bursts: a.read_bursts,
                write_bursts: a.write_bursts,
                activations: a.activations,
                cycles,
                elapsed,
                first_cycles,
                first_elapsed: first_cycles.at(hz),
                energy,
            }
        })
        .collect();
    EngineRun {
        stats,
        latencies,
        vaults,
        tenants,
        timeline,
    }
}

/// Builds a sequential trace covering `bytes` starting at `base`, one
/// request per `chunk` bytes.
pub fn sequential_trace(base: u64, bytes: u64, chunk: u64, op: Op) -> TraceBuffer {
    assert!(chunk > 0, "chunk must be nonzero");
    let mut out = TraceBuffer::with_capacity(bytes.div_ceil(chunk) as usize);
    let mut off = 0;
    while off < bytes {
        let take = chunk.min(bytes - off);
        out.push(Request {
            addr: PhysAddr::new(base + off),
            bytes: take,
            op,
        });
        off += take;
    }
    out
}

/// Builds a strided trace: `count` accesses of `elem_bytes` each,
/// `stride` bytes apart, starting at `base`.
pub fn strided_trace(base: u64, stride: u64, elem_bytes: u64, count: u64, op: Op) -> TraceBuffer {
    (0..count)
        .map(|i| Request {
            addr: PhysAddr::new(base + i * stride),
            bytes: elem_bytes,
            op,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_channel_config() -> MemoryConfig {
        let mut c = MemoryConfig::ddr_dual_channel();
        c.mapping = crate::address::AddressMapping::Interleaved {
            units: 1,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        c
    }

    fn run(c: &MemoryConfig, trace: &TraceBuffer) -> EngineRun {
        simulate(c, trace, &SimOptions::cycle()).expect("valid config")
    }

    #[test]
    fn refresh_falls_due_exactly_at_the_epoch_boundary() {
        // `burst_core` tests `bus_free >= (refreshes_done + 1)·t_refi`
        // and divides only then; the compare must agree with the
        // division it replaced on both sides of every epoch edge.
        let read = Burst {
            loc: Location {
                unit: 0,
                bank: 0,
                row: 0,
                col_byte: 0,
            },
            bytes: 64,
            op: Op::Read,
            tenant: 0,
        };
        let serve = |t: &DramTiming, refreshes_done: u64, bus_free: u64| {
            let mut u = UnitEngine::new(8, None, None);
            u.refreshes_done = refreshes_done;
            u.bus_free = bus_free;
            u.issued_at = bus_free;
            u.burst_core(t, &read);
            u
        };
        let t = DramTiming::ddr3_1600();
        let last_epoch = u64::MAX / t.t_refi;
        for k in [1, 2, 1000, last_epoch - 1] {
            for (bus_free, owed) in [(k * t.t_refi - 1, 0), (k * t.t_refi, 1)] {
                let u = serve(&t, k - 1, bus_free);
                assert_eq!(u.vault.refreshes, owed, "bus_free {bus_free}");
                assert_eq!(u.refreshes_done, k - 1 + owed, "bus_free {bus_free}");
            }
        }
        // The next epoch lies past `u64::MAX`: nothing is owed, and the
        // threshold must not overflow getting there.
        let mut huge = DramTiming::ddr3_1600();
        huge.t_refi = 1 << 63;
        let u = serve(&huge, 1, u64::MAX - 1000);
        assert_eq!(u.next_refresh(&huge), None);
        assert_eq!(u.vault.refreshes, 0);
        assert_eq!(u.refreshes_done, 1);
    }

    fn stats(c: &MemoryConfig, trace: &TraceBuffer) -> TraceStats {
        run(c, trace).stats
    }

    #[test]
    fn sequential_stream_approaches_peak_bandwidth() {
        let c = single_channel_config();
        let trace = sequential_trace(0, 4 << 20, 64, Op::Read);
        let s = stats(&c, &trace);
        let peak = c.timing.peak_bandwidth().as_gb_per_sec();
        let got = s.achieved_bandwidth().as_gb_per_sec();
        assert!(
            got > 0.85 * peak,
            "sequential {got:.1} GB/s vs peak {peak:.1}"
        );
    }

    #[test]
    fn sequential_stream_has_high_row_hit_rate() {
        let c = single_channel_config();
        let trace = sequential_trace(0, 1 << 20, 64, Op::Read);
        let s = stats(&c, &trace);
        assert!(s.row_hit_rate().unwrap() > 0.98);
        // One activation per 8 KiB row, plus a few reopened rows after
        // periodic refreshes.
        let base = (1u64 << 20) / 8192;
        assert!(
            (base..base + 16).contains(&s.activations),
            "activations {} vs base {base}",
            s.activations
        );
        assert!(s.refreshes > 0, "a megabyte stream crosses tREFI");
    }

    #[test]
    fn row_strided_access_is_much_slower_than_sequential() {
        let c = single_channel_config();
        let bytes_each = 64u64;
        let count = 4096u64;
        let seq = stats(&c, &sequential_trace(0, count * bytes_each, 64, Op::Read));
        // Stride of one row: every access opens a new row, but rotating
        // banks still hide most of the activation latency.
        let strided = stats(&c, &strided_trace(0, 8192, bytes_each, count, Op::Read));
        assert_eq!(strided.row_hit_rate(), Some(0.0));
        assert!(
            strided.elapsed.get() > 1.15 * seq.elapsed.get(),
            "row-thrashing must cost bandwidth: {} vs {}",
            strided.elapsed,
            seq.elapsed
        );
        // Stride of one row *within the same bank* (8 banks x 8 KiB):
        // every access pays the full row cycle, an order of magnitude.
        let same_bank = stats(&c, &strided_trace(0, 8192 * 8, bytes_each, count, Op::Read));
        assert!(
            same_bank.elapsed.get() > 5.0 * seq.elapsed.get(),
            "same-bank thrashing must serialize on tRC: {} vs {}",
            same_bank.elapsed,
            seq.elapsed
        );
    }

    #[test]
    fn xor_hashing_recovers_strided_bandwidth() {
        // A stride aliasing to one channel on the plain mapping spreads
        // across both channels under XOR hashing.
        let mut plain = MemoryConfig::ddr_dual_channel();
        plain.mapping = crate::address::AddressMapping::Interleaved {
            units: 2,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        let mut hashed = plain.clone();
        hashed.mapping = crate::address::AddressMapping::XorInterleaved {
            units: 2,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        let trace = strided_trace(0, 128, 64, 1 << 15, Op::Read);
        let t_plain = stats(&plain, &trace).elapsed;
        let t_hashed = stats(&hashed, &trace).elapsed;
        assert!(
            t_plain.get() > 1.5 * t_hashed.get(),
            "XOR hashing must break the aliasing: {t_plain} vs {t_hashed}"
        );
    }

    #[test]
    fn dual_channel_halves_time_of_single_channel() {
        let single = single_channel_config();
        let dual = MemoryConfig::ddr_dual_channel();
        let trace = sequential_trace(0, 8 << 20, 64, Op::Read);
        let t1 = stats(&single, &trace).elapsed;
        let t2 = stats(&dual, &trace).elapsed;
        let ratio = t1 / t2;
        assert!(
            (1.8..=2.2).contains(&ratio),
            "channel scaling ratio {ratio}"
        );
    }

    #[test]
    fn hmc_stack_streams_near_half_terabyte_per_second() {
        let c = MemoryConfig::hmc_stack();
        let trace = sequential_trace(0, 64 << 20, 256, Op::Read);
        let s = stats(&c, &trace);
        let bw = s.achieved_bandwidth().as_gb_per_sec();
        assert!(bw > 400.0, "stack bandwidth {bw:.0} GB/s");
    }

    #[test]
    fn writes_count_separately_from_reads() {
        let c = single_channel_config();
        let mut trace = sequential_trace(0, 1 << 16, 64, Op::Read);
        trace.extend(&sequential_trace(1 << 20, 1 << 16, 64, Op::Write));
        let s = stats(&c, &trace);
        assert_eq!(s.bytes_read.get(), 1 << 16);
        assert_eq!(s.bytes_written.get(), 1 << 16);
    }

    #[test]
    fn unaligned_request_splits_at_burst_boundary() {
        let c = single_channel_config();
        // 100 bytes starting at offset 30 crosses two 64B burst boundaries.
        let s = stats(&c, &TraceBuffer::from(&[Request::read(30, 100)]));
        assert_eq!(s.bytes_read.get(), 100);
        // 30..64, 64..128, 128..130 → 3 bursts, all same row: 1 activation.
        assert_eq!(s.activations, 1);
        assert_eq!(s.row_hits + s.row_misses, 3);
    }

    #[test]
    fn latency_histogram_counts_every_burst() {
        let c = single_channel_config();
        let trace = sequential_trace(0, 1 << 16, 64, Op::Read);
        let r = run(&c, &trace);
        let (stats, lat) = (&r.stats, &r.latencies);
        assert_eq!(lat.count(), stats.row_hits + stats.row_misses);
        // Steady-state sequential bursts complete one burst slot apart.
        let median = lat.quantile_bound(0.5).unwrap();
        assert!(median <= 8, "median latency bound {median} cycles");
        // The tail (first access, row openings) is slower than the median.
        assert!(lat.quantile_bound(1.0).unwrap() >= median);
    }

    #[test]
    fn row_thrashing_shows_up_in_the_latency_tail() {
        let c = single_channel_config();
        let seq = run(&c, &sequential_trace(0, 1 << 16, 64, Op::Read)).latencies;
        let thrash = run(&c, &strided_trace(0, 8192 * 8, 64, 1024, Op::Read)).latencies;
        assert!(
            thrash.quantile_bound(0.5).unwrap() > seq.quantile_bound(0.5).unwrap(),
            "same-bank thrashing must raise the median latency"
        );
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_bound(0.5), None);
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut one_by_one = LatencyHistogram::default();
        for _ in 0..1000 {
            one_by_one.record(13);
        }
        let mut batched = LatencyHistogram::default();
        batched.record_n(LatencyHistogram::bucket_of(13), 1000);
        assert_eq!(one_by_one, batched);
    }

    #[test]
    fn per_vault_counts_sum_to_aggregates() {
        let c = MemoryConfig::ddr_dual_channel();
        let mut trace = sequential_trace(0, 1 << 20, 64, Op::Read);
        trace.extend(&strided_trace(1 << 22, 8192, 64, 2048, Op::Write));
        let run = run(&c, &trace);
        assert_eq!(run.vaults.len(), c.mapping.units());
        let acts: u64 = run.vaults.iter().map(|v| v.activations).sum();
        let pres: u64 = run.vaults.iter().map(|v| v.precharges).sum();
        let hits: u64 = run.vaults.iter().map(|v| v.row_hits).sum();
        let misses: u64 = run.vaults.iter().map(|v| v.row_misses).sum();
        let refreshes: u64 = run.vaults.iter().map(|v| v.refreshes).sum();
        assert_eq!(acts, run.stats.activations);
        assert_eq!(pres, run.stats.precharges);
        assert_eq!(hits, run.stats.row_hits);
        assert_eq!(misses, run.stats.row_misses);
        assert_eq!(refreshes, run.stats.refreshes);
        // Interleaving spreads a large stream across every unit.
        assert!(run.vaults.iter().all(|v| v.read_bursts > 0));
    }

    #[test]
    fn precharges_track_row_conflicts() {
        let c = single_channel_config();
        // Same-bank row thrashing: every access after the first conflicts.
        let thrash = run(&c, &strided_trace(0, 8192 * 8, 64, 256, Op::Read));
        assert!(
            thrash.stats.precharges >= 255,
            "precharges {}",
            thrash.stats.precharges
        );
        // A short sequential stream stays in its rows: no conflicts.
        let seq = run(&c, &sequential_trace(0, 4096, 64, Op::Read));
        assert_eq!(seq.stats.precharges, 0);
    }

    #[test]
    fn engine_run_records_per_lane_counters() {
        let c = MemoryConfig::ddr_dual_channel();
        let run = run(&c, &sequential_trace(0, 1 << 20, 64, Op::Read));
        let mut bd = Breakdown::new();
        run.add_counters(&mut bd);
        // Aggregate + per-lane sums: counter() folds both, so the total
        // is twice the aggregate count.
        assert_eq!(bd.counter(Counter::DramAct), 2 * run.stats.activations);
        assert_eq!(bd.counter(Counter::DramRdBytes), run.stats.bytes_read.get());
    }

    #[test]
    fn empty_trace_is_zero() {
        let s = stats(&MemoryConfig::hmc_stack(), &TraceBuffer::new());
        assert_eq!(s.bytes_moved(), Bytes::ZERO);
        assert_eq!(s.cycles, Cycles::ZERO);
        assert!(s.elapsed.is_zero());
    }

    #[test]
    fn empty_trace_derived_metrics_do_not_divide_by_zero() {
        // Regression: bandwidth and power are derived by dividing by the
        // elapsed time, which is zero for an empty trace. Both must
        // return their ZERO value, not panic or produce NaN/inf.
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
        ] {
            let run = run(&config, &TraceBuffer::new());
            assert_eq!(
                run.stats.achieved_bandwidth(),
                mealib_types::BytesPerSec::ZERO
            );
            assert_eq!(run.stats.average_power(), mealib_types::Watts::ZERO);
            assert!(run.stats.energy.get() >= 0.0 && run.stats.energy.get().is_finite());
            assert_eq!(run.latencies.count(), 0);
            assert!(run.vaults.iter().all(|v| *v == VaultStats::default()));
        }
    }

    #[test]
    fn zero_byte_request_is_a_noop() {
        // Regression: a zero-length request produces no bursts, so it
        // must leave every statistic at zero and the derived
        // bandwidth/power at their guarded ZERO values.
        let c = single_channel_config();
        let trace = TraceBuffer::from(&[Request::read(4096, 0), Request::write(0, 0)]);
        let empty = run(&c, &trace);
        assert_eq!(empty.stats.bytes_moved(), Bytes::ZERO);
        assert_eq!(empty.stats.cycles, Cycles::ZERO);
        assert_eq!(empty.stats.row_hits + empty.stats.row_misses, 0);
        assert_eq!(
            empty.stats.achieved_bandwidth(),
            mealib_types::BytesPerSec::ZERO
        );
        assert_eq!(empty.stats.average_power(), mealib_types::Watts::ZERO);
        // Mixing zero-byte requests into a real trace changes nothing.
        let mut mixed = TraceBuffer::from(&[Request::read(0, 0)]);
        mixed.extend(&sequential_trace(0, 1 << 16, 64, Op::Read));
        mixed.push(Request::write(512, 0));
        let clean = run(&c, &sequential_trace(0, 1 << 16, 64, Op::Read));
        assert_eq!(run(&c, &mixed), clean);
    }

    #[test]
    fn histogram_top_bucket_saturates_instead_of_misbinning() {
        // Latencies at or above 2^31 cycles clamp into the top bucket.
        let mut h = LatencyHistogram::default();
        h.record(1 << 30); // bucket 30, finite bound 2^31
        h.record(1 << 31); // first saturated value
        h.record(u64::MAX); // far past any finite bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets()[30], 1);
        assert_eq!(h.buckets()[LatencyHistogram::SATURATION_BUCKET], 2);
        // Quantiles below the saturated tail keep their finite bounds...
        assert_eq!(h.quantile_bound(0.2), Some(1 << 31));
        // ...while quantiles landing in the top bucket report u64::MAX,
        // not the false 2^32 bound the pre-fix arithmetic produced.
        assert_eq!(h.quantile_bound(0.9), Some(u64::MAX));
        assert_eq!(h.quantile_bound(1.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_merge_is_commutative() {
        let mut a = LatencyHistogram::default();
        let mut b = LatencyHistogram::default();
        for v in [0u64, 1, 7, 63, 1 << 20, u64::MAX] {
            a.record(v);
        }
        for v in [2u64, 2, 1 << 31] {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 9);
    }

    #[test]
    fn parallel_replay_matches_serial_on_presets() {
        let mut trace = sequential_trace(0, 1 << 20, 64, Op::Read);
        trace.extend(&strided_trace(1 << 22, 8192, 64, 2048, Op::Write));
        trace.push(Request::read(30, 100));
        trace.push(Request::read(0, 0));
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
            MemoryConfig::hmc_stack_gen1(),
        ] {
            let serial = run(&config, &trace);
            for jobs in [0usize, 1, 2, 4, 8] {
                let parallel = simulate(&config, &trace, &SimOptions::cycle().jobs(jobs)).unwrap();
                assert_eq!(parallel, serial, "{} jobs={jobs}", config.name);
                assert_eq!(
                    parallel.stats.elapsed.get().to_bits(),
                    serial.stats.elapsed.get().to_bits(),
                    "{} jobs={jobs}: elapsed must be bit-exact",
                    config.name
                );
                assert_eq!(
                    parallel.stats.energy.get().to_bits(),
                    serial.stats.energy.get().to_bits(),
                    "{} jobs={jobs}: energy must be bit-exact",
                    config.name
                );
            }
        }
    }

    #[test]
    fn simulate_rejects_invalid_config_and_zero_window() {
        let mut c = MemoryConfig::hmc_stack();
        c.timing.t_rcd = 0;
        let empty = TraceBuffer::new();
        assert!(matches!(
            simulate(&c, &empty, &SimOptions::default().jobs(4)),
            Err(SimError::Config(_))
        ));
        assert_eq!(
            simulate(
                &MemoryConfig::hmc_stack(),
                &empty,
                &SimOptions::default().profile(0)
            ),
            Err(SimError::ZeroWindow)
        );
        assert!(simulate(&MemoryConfig::hmc_stack(), &empty, &SimOptions::default()).is_ok());
    }

    #[test]
    fn simulate_rejects_every_config_the_linter_rejects() {
        // Each of these once passed `simulate`'s own validation while
        // the linter reported an error on it (or, for the infinite
        // clock, passed both).
        let hmc = MemoryConfig::hmc_stack();
        let mut short_row = hmc.clone();
        short_row.timing.t_ras = hmc.timing.t_rcd + hmc.timing.t_cl - 1;
        let mut nan_clock = hmc.clone();
        nan_clock.timing.t_ck = mealib_types::Seconds::new(f64::NAN);
        let mut infinite_clock = hmc.clone();
        infinite_clock.timing.t_ck = mealib_types::Seconds::new(f64::INFINITY);
        let mut negative_act = hmc.clone();
        negative_act.energy.e_act = mealib_types::Joules::from_nanos(-1.0);
        let empty = TraceBuffer::new();
        for (c, code) in [
            (short_row, "MEA021"),
            (nan_clock, "MEA020"),
            (infinite_clock, "MEA020"),
            (negative_act, "MEA023"),
        ] {
            match simulate(&c, &empty, &SimOptions::default()) {
                Err(SimError::Config(e)) => assert_eq!(e.parameter(), code, "{e}"),
                other => panic!("{code}: expected a config error, got {other:?}"),
            }
            assert!(c.check().has_errors(), "{code}");
        }
    }

    #[test]
    fn profiled_run_matches_unprofiled_and_conserves_counters() {
        let c = MemoryConfig::ddr_dual_channel();
        let mut trace = sequential_trace(0, 1 << 20, 64, Op::Read);
        trace.extend(&strided_trace(1 << 22, 8192, 64, 2048, Op::Write));
        let plain = run(&c, &trace);
        let mut profiled = simulate(&c, &trace, &SimOptions::cycle().profile(4096)).unwrap();
        let timeline = profiled.timeline.take().expect("profiled run has timeline");
        // Profiling must not perturb the model.
        assert_eq!(profiled, plain);
        // Conservation: the windowed cells sum exactly to the aggregates.
        let agg = timeline.aggregate();
        assert_eq!(agg.bytes_read, plain.stats.bytes_read.get());
        assert_eq!(agg.bytes_written, plain.stats.bytes_written.get());
        assert_eq!(agg.activations, plain.stats.activations);
        assert_eq!(agg.precharges, plain.stats.precharges);
        assert_eq!(agg.row_hits, plain.stats.row_hits);
        assert_eq!(agg.row_misses, plain.stats.row_misses);
        assert_eq!(agg.refreshes, plain.stats.refreshes);
        // One bus slot per burst; queue waits telescope to each unit's
        // final busy cycle.
        let bursts = plain.stats.row_hits + plain.stats.row_misses;
        assert_eq!(agg.bus_busy_cycles, bursts * c.timing.t_burst);
        assert!(agg.queue_wait_cycles >= plain.stats.cycles.get());
        // Every populated window stays inside the modeled cycle span.
        assert!(timeline.num_windows() * 4096 <= plain.stats.cycles.get() + 4096);
        // Lanes are vault indices.
        let units = c.mapping.units() as u16;
        assert!(timeline.lanes().iter().all(|&l| l < units));
    }

    #[test]
    fn profiled_parallel_timeline_is_bit_identical_to_serial() {
        let c = MemoryConfig::hmc_stack();
        let mut trace = sequential_trace(0, 2 << 20, 256, Op::Read);
        trace.extend(&strided_trace(1 << 24, 8192, 64, 4096, Op::Write));
        let serial = simulate(&c, &trace, &SimOptions::cycle().profile(1024)).unwrap();
        for jobs in [1usize, 2, 4, 8] {
            let parallel =
                simulate(&c, &trace, &SimOptions::cycle().profile(1024).jobs(jobs)).unwrap();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn per_lane_timeline_matches_vault_stats() {
        let c = MemoryConfig::ddr_dual_channel();
        let trace = sequential_trace(0, 1 << 20, 64, Op::Read);
        let profiled = simulate(&c, &trace, &SimOptions::cycle().profile(2048)).unwrap();
        let timeline = profiled.timeline.as_ref().expect("timeline requested");
        for (unit, v) in profiled.vaults.iter().enumerate() {
            let mut lane_total = WindowCounters::default();
            for (_, lane, cell) in timeline.iter() {
                if lane == unit as u16 {
                    lane_total.merge(cell);
                }
            }
            assert_eq!(lane_total.activations, v.activations, "unit {unit}");
            assert_eq!(lane_total.row_hits, v.row_hits, "unit {unit}");
            assert_eq!(lane_total.row_misses, v.row_misses, "unit {unit}");
            assert_eq!(lane_total.refreshes, v.refreshes, "unit {unit}");
        }
    }

    #[test]
    fn empty_trace_profiles_to_an_empty_timeline() {
        let p = simulate(
            &MemoryConfig::hmc_stack(),
            &TraceBuffer::new(),
            &SimOptions::cycle().profile(512),
        )
        .unwrap();
        let timeline = p.timeline.expect("timeline requested");
        assert!(timeline.is_empty());
        assert_eq!(timeline.window_cycles(), 512);
    }

    #[test]
    fn energy_scales_with_bytes_moved() {
        let c = single_channel_config();
        let small = stats(&c, &sequential_trace(0, 1 << 18, 64, Op::Read));
        let large = stats(&c, &sequential_trace(0, 1 << 20, 64, Op::Read));
        let ratio = large.energy.get() / small.energy.get();
        assert!((3.0..5.0).contains(&ratio), "energy ratio {ratio}");
    }

    /// Splits `trace` round-robin into `n` tenant streams arriving at
    /// slot 0; [`crate::tenancy::interleave_tenants`] merges them back
    /// into `trace` itself, tagging request `i` with tenant `i % n`.
    fn round_robin(trace: &TraceBuffer, n: usize) -> Vec<crate::tenancy::TenantStream> {
        (0..n)
            .map(|k| {
                let own: TraceBuffer = trace.iter().skip(k).step_by(n).collect();
                crate::tenancy::TenantStream::new(own)
            })
            .collect()
    }

    #[test]
    fn tagged_run_matches_untagged_and_attributes_every_burst() {
        // Tenant attribution must not perturb the model: the shared
        // statistics of a tagged replay equal the untagged run's, and
        // the per-tenant slices partition the totals exactly.
        let c = MemoryConfig::ddr_dual_channel();
        let mut trace = sequential_trace(0, 1 << 19, 64, Op::Read);
        trace.extend(&strided_trace(1 << 22, 8192, 64, 1024, Op::Write));
        let streams = round_robin(&trace, 3);
        assert_eq!(crate::tenancy::interleave_tenants(&streams).0, trace);
        let plain = run(&c, &trace);
        let tagged = crate::tenancy::simulate_tenants(&c, &streams, &SimOptions::cycle()).unwrap();
        assert_eq!(tagged.stats, plain.stats);
        assert_eq!(tagged.vaults, plain.vaults);
        assert_eq!(tagged.latencies, plain.latencies);
        assert_eq!(tagged.tenants.len(), 3);
        let read: u64 = tagged.tenants.iter().map(|t| t.bytes_read.get()).sum();
        let written: u64 = tagged.tenants.iter().map(|t| t.bytes_written.get()).sum();
        let bursts: u64 = tagged
            .tenants
            .iter()
            .map(|t| t.read_bursts + t.write_bursts)
            .sum();
        let acts: u64 = tagged.tenants.iter().map(|t| t.activations).sum();
        assert_eq!(read, plain.stats.bytes_read.get());
        assert_eq!(written, plain.stats.bytes_written.get());
        assert_eq!(bursts, plain.stats.row_hits + plain.stats.row_misses);
        assert_eq!(acts, plain.stats.activations);
        let last = tagged.tenants.iter().map(|t| t.cycles.get()).max().unwrap();
        assert_eq!(last, plain.stats.cycles.get());
        // The untagged run reports no tenant slices.
        assert!(plain.tenants.is_empty());
    }

    #[test]
    fn tagged_run_is_engine_and_jobs_invariant() {
        let c = MemoryConfig::hmc_stack();
        let mut trace = sequential_trace(0, 1 << 20, 256, Op::Read);
        trace.extend(&strided_trace(1 << 24, 8192, 64, 2048, Op::Write));
        let streams = round_robin(&trace, 4);
        let tenants = |opts: &SimOptions| crate::tenancy::simulate_tenants(&c, &streams, opts);
        let serial = tenants(&SimOptions::cycle()).unwrap();
        for opts in [
            SimOptions::cycle().jobs(4),
            SimOptions::fast(),
            SimOptions::fast().jobs(8),
            SimOptions::dual_check(),
            SimOptions::dual_check().jobs(2),
            SimOptions::fast().profile(4096),
            SimOptions::dual_check().profile(4096).jobs(2),
        ] {
            let mut other = tenants(&opts).unwrap();
            assert_eq!(other.timeline.is_some(), opts.profile.is_some(), "{opts:?}");
            other.timeline = None;
            assert_eq!(other, serial, "{opts:?}");
        }
    }

    #[test]
    fn divergence_report_names_the_first_divergent_tenant() {
        let c = MemoryConfig::hmc_stack();
        let streams = round_robin(&sequential_trace(0, 1 << 16, 64, Op::Read), 3);
        let cycle = crate::tenancy::simulate_tenants(&c, &streams, &SimOptions::cycle()).unwrap();
        let mut fast = cycle.clone();
        fast.tenants[1].activations += 1;
        assert_eq!(
            divergence_report(&cycle, &fast),
            "tenant stats (first divergent tenant: 1)"
        );
        fast.tenants = cycle.tenants[..2].to_vec();
        assert_eq!(
            divergence_report(&cycle, &fast),
            "tenant stats (tenant count differs)"
        );
    }
}
