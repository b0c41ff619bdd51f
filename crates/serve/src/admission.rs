//! The admission gate: typed certification as the scheduler's only
//! door, with a per-gate memo of certified and replayed layouts.
//!
//! Every epoch the scheduler proposes a batch of resident candidates
//! and the gate certifies it as a session set with one tenant per
//! candidate: its partition, its arrival stagger, its declared
//! `BUDGET TIME`, and its class session rebased into the slot. The
//! scheduler never admits on its own authority: ADMIT means the
//! certifier *proved* isolation and every declared ceiling, REJECT
//! comes with the MEA3xx proof attached, and UNKNOWN is handled by a
//! configurable — but always conservative — policy: retry later or
//! shed, never admit.
//!
//! Certifying is [`compose()`] followed by [`judge`]. Composition reads
//! only each tenant's class body, slot base and arrival, plus the
//! shared layer and environment, which are fixed per gate; names and
//! budgets live on the session set alone, and `judge` reads them from
//! there. So the gate builds each distinct batch layout's session set
//! and composes it once, on the layout's first certify, and memoizes
//! both. Every later request of that layout is judged in place: the
//! gate overwrites the memoized set's names, `TENANT` and `PARTITION`
//! lines, partitions and time budgets with the request's own and judges
//! it against the memoized bounds, rebasing, composing and cloning
//! nothing. The key is exact — (class body, slot base, arrival) per
//! tenant, in order — and the memo lives as long as the gate, which the
//! scheduler builds once per serve call.
//!
//! The memo also holds each admitted layout's replay. The tagged replay
//! reads exactly what composition reads (each tenant's rebased extents,
//! program and arrival, and the gate's environment and shared layer),
//! so [`AdmissionGate::replay`] simulates a layout's memoized set the
//! first time it is admitted and lends the stored [`Replay`], beside
//! the layout's bounds, every time.
//!
//! [`AdmissionGate::manifest`] renders the same set as manifest text,
//! for repros and for oracles that re-derive each verdict through
//! [`parse_session_set`](mealib_verify::interference::parse_session_set).
//! Parsing that text yields the set the gate certifies: the same tenant
//! names, `TENANT` and `PARTITION` lines, arrivals, budgets, extents and
//! programs, so REJECT proofs render identically. Only spans inside each
//! tenant's session differ: the gate's keep the class body's own lines.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mealib_memsim::{simulate_tenants, SimOptions, TenantStats};
use mealib_obs::MetricsRegistry;
use mealib_types::{AddrRange, Joules, Report, Seconds};
use mealib_verify::dataflow::{Budgets, MemLayer};
use mealib_verify::interference::{
    compose, judge, resolved_set_config, tenant_streams, SessionSet, SetBounds, TenantDecl,
};
use mealib_verify::{BoundsEnv, Verdict};

use crate::session::{ClassBody, SessionClass, SessionRequest};

/// What to do with a candidate the certifier cannot decide on.
/// Both options are conservative: UNKNOWN never admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnknownPolicy {
    /// Re-queue with backoff; the candidate may certify in a later,
    /// smaller batch (the default).
    #[default]
    Retry,
    /// Shed immediately with
    /// [`ShedReason::Undecidable`](crate::ShedReason::Undecidable).
    Shed,
}

/// One candidate (or already-accepted member) of an epoch batch.
#[derive(Debug, Clone)]
pub struct Resident {
    /// The session being placed.
    pub request: SessionRequest,
    /// The partition slot offered to it.
    pub partition: AddrRange,
    /// Request-slot arrival offset inside the epoch's merged replay.
    pub arrival_slot: u64,
    /// The class body, canonical and parsed; the gate rebases it to
    /// the partition's start.
    pub body: Arc<ClassBody>,
}

impl Resident {
    /// Places `request`, an instance of `class`, into `partition` with
    /// the given stagger. The resident shares the class's parsed body.
    pub fn new(
        request: SessionRequest,
        class: &SessionClass,
        partition: AddrRange,
        arrival_slot: u64,
    ) -> Self {
        Self {
            request,
            partition,
            arrival_slot,
            body: Arc::clone(&class.parsed),
        }
    }

    /// Places `request` into `partition` with the given stagger,
    /// parsing `canonical_body` for it alone. Residents placed this way
    /// share no body, so the gate's memo never matches them against
    /// each other; [`Resident::new`] is the serving path.
    ///
    /// # Panics
    ///
    /// Panics if `canonical_body` does not parse as a tenant session
    /// ([`ClassBody::parse`]).
    pub fn place(
        request: SessionRequest,
        canonical_body: &str,
        partition: AddrRange,
        arrival_slot: u64,
    ) -> Self {
        let body = ClassBody::parse(canonical_body).expect("resident bodies parse");
        Self {
            request,
            partition,
            arrival_slot,
            body: Arc::new(body),
        }
    }

    /// Appends the manifest tenant name to `out`: stable, unique per
    /// session id. The manifest and the gate's in-place declaration
    /// both name tenants through it.
    pub fn push_tenant_name(&self, out: &mut String) {
        write!(out, "s{}", self.request.id).expect("writing to a String cannot fail");
    }
}

/// An admitted batch's merged replay, kept compact: the aggregate
/// elapsed time and energy, and each tenant's attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// Modeled elapsed time of the merged replay.
    pub elapsed: Seconds,
    /// Modeled DRAM energy of the merged replay.
    pub energy: Joules,
    /// Per-tenant attribution, in batch order.
    pub tenants: Vec<TenantStats>,
}

/// One tenant's part of a memo key: everything of a tenant that
/// [`compose`] and the tagged replay read. The body compares by
/// identity, so two keys match only when their residents share one
/// parsed class body.
#[derive(Debug, Clone)]
struct TenantKey {
    body: Arc<ClassBody>,
    base: u64,
    arrival: u64,
}

impl TenantKey {
    fn of(r: &Resident) -> Self {
        Self {
            body: Arc::clone(&r.body),
            base: r.partition.start().get(),
            arrival: r.arrival_slot,
        }
    }
}

impl PartialEq for TenantKey {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.body, &other.body)
            && self.base == other.base
            && self.arrival == other.arrival
    }
}

impl Eq for TenantKey {}

impl Hash for TenantKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        Arc::as_ptr(&self.body).hash(state);
        self.base.hash(state);
        self.arrival.hash(state);
    }
}

/// What the memo holds for one batch layout: its composed bounds, the
/// session set they were composed from (declared for the layout's
/// latest request) and, once the layout has been replayed, its replay.
#[derive(Debug, Clone)]
struct Layout {
    bounds: SetBounds,
    set: SessionSet,
    replay: Option<Replay>,
}

/// Writes what each member's request, not its layout, contributes to
/// its tenant of `set`: the name, the `TENANT` and `PARTITION` lines,
/// the partition and the session's time budget. Line numbers follow
/// the manifest's layout: an optional `MEM` line, then per tenant its
/// `TENANT` and `PARTITION` lines, an `ARRIVAL` line when staggered, a
/// `BUDGET TIME` line when budgeted, and the body.
fn declare(set: &mut SessionSet, batch: &[Resident]) {
    let mut line = 1 + usize::from(set.mem_layer.is_some());
    for (decl, r) in set.tenants.iter_mut().zip(batch) {
        let budget = r.request.time_budget_s;
        decl.name.clear();
        r.push_tenant_name(&mut decl.name);
        decl.line = line;
        decl.partition = Some((line + 1, r.partition));
        // A body's own `BUDGET TIME` line follows the gate's, so it is
        // the one the manifest parse keeps.
        decl.session.budgets.time_s = r.body.session().budgets.time_s.or(budget);
        line +=
            2 + usize::from(r.arrival_slot > 0) + usize::from(budget.is_some()) + r.body.lines();
    }
}

/// The tagged interleaved replay of `set` under `env`.
fn simulate(set: &SessionSet, env: &BoundsEnv) -> Replay {
    let cfg = resolved_set_config(set, env);
    let run = simulate_tenants(&cfg, &tenant_streams(set), &SimOptions::default())
        .expect("certified batches replay");
    Replay {
        elapsed: run.stats.elapsed,
        energy: run.stats.energy,
        tenants: run.tenants,
    }
}

/// The admission gate: environment plus the optional §4.2 asymmetric
/// boundary every batch shares, and the memo of certified layouts.
#[derive(Debug, Clone)]
pub struct AdmissionGate {
    env: BoundsEnv,
    /// When set, every set shares the `MEM ASYM <split>` layer: the
    /// shared layer carves a dedicated high region at `split`, so
    /// tenants placed above it own their unit outright.
    asym_split: Option<u64>,
    /// Composed bounds, session set and replay per batch layout, for
    /// the gate's lifetime.
    memo: HashMap<Vec<TenantKey>, Layout>,
    certify_calls: u64,
    memo_hits: u64,
    replay_memo_hits: u64,
    compositions: u64,
    sessions_built: u64,
}

impl AdmissionGate {
    /// A gate over `env` with the interleaved shared layer.
    pub fn new(env: BoundsEnv) -> Self {
        Self {
            env,
            asym_split: None,
            memo: HashMap::new(),
            certify_calls: 0,
            memo_hits: 0,
            replay_memo_hits: 0,
            compositions: 0,
            sessions_built: 0,
        }
    }

    /// Switches every set to the asymmetric layer split at `split`
    /// (callers should pick a power of two at least as large as the
    /// biggest partition slot, so no slot straddles the boundary —
    /// buddy slots are self-aligned).
    pub fn with_asym_split(mut self, split: u64) -> Self {
        self.asym_split = Some(split);
        self.memo.clear();
        self
    }

    /// The environment verdicts are judged against.
    pub fn env(&self) -> &BoundsEnv {
        &self.env
    }

    /// Certify calls made through this gate.
    pub fn certify_calls(&self) -> u64 {
        self.certify_calls
    }

    /// Certify calls that reused a memoized composition.
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// Replay calls answered from the memo instead of the simulator.
    pub fn replay_memo_hits(&self) -> u64 {
        self.replay_memo_hits
    }

    /// Sets this gate has composed: one per certify miss.
    pub fn compositions(&self) -> u64 {
        self.compositions
    }

    /// Tenant sessions this gate has rebased into a partition: one per
    /// member of each batch whose certify missed the memo.
    pub fn sessions_built(&self) -> u64 {
        self.sessions_built
    }

    /// Renders the session-set manifest for `batch`. Float budgets
    /// round-trip exactly (Rust float formatting is shortest-exact).
    ///
    /// # Panics
    ///
    /// Panics as [`AdmissionGate::certify`] does when a body cannot be
    /// rebased into its partition.
    pub fn manifest(&self, batch: &[Resident]) -> String {
        let mut src = String::new();
        if let Some(split) = self.asym_split {
            src.push_str(&format!("MEM ASYM 0x{split:x}\n"));
        }
        for r in batch {
            src.push_str("TENANT ");
            r.push_tenant_name(&mut src);
            src.push('\n');
            src.push_str(&format!(
                "PARTITION 0x{:x} 0x{:x}\n",
                r.partition.start().get(),
                r.partition.len().get()
            ));
            if r.arrival_slot > 0 {
                src.push_str(&format!("ARRIVAL {}\n", r.arrival_slot));
            }
            if let Some(b) = r.request.time_budget_s {
                src.push_str(&format!("BUDGET TIME {b}\n"));
            }
            let body = r
                .body
                .text_at(r.partition.start().get())
                .expect("resident bodies rebase into their partitions");
            src.push_str(&body);
        }
        src
    }

    /// The set [`AdmissionGate::manifest`] renders, built without text:
    /// each member's class session rebased into its partition, then
    /// [`declare`]d.
    fn session_set(asym_split: Option<u64>, batch: &[Resident]) -> SessionSet {
        let tenants = batch
            .iter()
            .map(|r| TenantDecl {
                name: String::new(),
                line: 0,
                partition: None,
                arrival: r.arrival_slot,
                session: r
                    .body
                    .session()
                    .rebase(r.partition.start().get())
                    .expect("resident bodies rebase into their partitions"),
            })
            .collect();
        let mut set = SessionSet {
            tenants,
            budgets: Budgets::default(),
            mem_layer: asym_split.map(|split| (1, MemLayer::Asym(split))),
        };
        declare(&mut set, batch);
        set
    }

    /// Certifies `batch`: returns the set it was judged as and the bounds
    /// it was judged against, both borrowed from the memo, with the
    /// verdict and the MEA3xx findings behind it. They are
    /// bit-identical to the set `parse_session_set` reads from
    /// [`AdmissionGate::manifest`] and to `certify_set` over it, but for
    /// spans inside each tenant's session (see the module doc).
    ///
    /// A layout's first certify builds its set and composes it; both
    /// are memoized. Every later certify of that layout `declare`s
    /// the request's names, lines, partitions and budgets into the
    /// memoized set in place and judges it against the memoized bounds:
    /// no session is rebased, nothing is composed and nothing is cloned.
    ///
    /// # Panics
    ///
    /// Panics if a member's body cannot be rebased into its partition
    /// (an extent would pass the top of the address space), or if
    /// composition fails: the environment failing validation, or the
    /// set moving more bytes than a `u64` counts. Partitions come from
    /// the partition table and environments from the presets, so each
    /// is a scheduler bug, not an input condition.
    pub fn certify(&mut self, batch: &[Resident]) -> (&SessionSet, &SetBounds, Verdict, Report) {
        let key: Vec<TenantKey> = batch.iter().map(TenantKey::of).collect();
        self.certify_calls += 1;
        let layout = match self.memo.entry(key) {
            Entry::Occupied(hit) => {
                self.memo_hits += 1;
                let layout = hit.into_mut();
                declare(&mut layout.set, batch);
                layout
            }
            Entry::Vacant(miss) => {
                let set = Self::session_set(self.asym_split, batch);
                self.sessions_built += batch.len() as u64;
                let bounds = compose(&set, &self.env).expect("certified batches compose");
                self.compositions += 1;
                miss.insert(Layout {
                    bounds,
                    set,
                    replay: None,
                })
            }
        };
        let (verdict, report) = judge(&layout.set, &layout.bounds);
        (&layout.set, &layout.bounds, verdict, report)
    }

    /// The tagged interleaved replay of `batch` and the bounds its
    /// layout was certified with, both borrowed from the memo. The
    /// replay is bit-identical to `simulate_tenants(&resolved_set_config(set,
    /// env), &tenant_streams(set), &SimOptions::default())` over the
    /// batch's session set. A layout's first replay simulates its
    /// memoized set and stores the outcome beside its bounds; every
    /// later replay of that layout lends the stored outcome.
    ///
    /// # Panics
    ///
    /// Panics if this gate never certified `batch`'s layout (the
    /// scheduler certifies every batch before it replays it), or if the
    /// simulator rejects the set's resolved memory configuration, which
    /// composing the same set would have rejected first.
    pub fn replay(&mut self, batch: &[Resident]) -> (&Replay, &SetBounds) {
        let key: Vec<TenantKey> = batch.iter().map(TenantKey::of).collect();
        let layout = self
            .memo
            .get_mut(&key)
            .expect("batches are certified before they replay");
        if layout.replay.is_some() {
            self.replay_memo_hits += 1;
        }
        let Layout {
            bounds,
            set,
            replay,
        } = layout;
        let replay = replay.get_or_insert_with(|| simulate(set, &self.env));
        (replay, bounds)
    }

    /// Exports the certify-call and memo-hit counters into `reg`.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.describe("serve_certify_calls_total", "Admission certify calls");
        reg.store("serve_certify_calls_total", &[], self.certify_calls);
        reg.describe(
            "serve_certify_memo_hits_total",
            "Certify calls judged against a memoized batch layout",
        );
        reg.store("serve_certify_memo_hits_total", &[], self.memo_hits);
        reg.describe(
            "serve_replay_memo_hits_total",
            "Batch replays answered from a memoized batch layout",
        );
        reg.store("serve_replay_memo_hits_total", &[], self.replay_memo_hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Catalogue;
    use mealib_types::{Bytes, PhysAddr};
    use mealib_verify::interference::{certify_set, parse_session_set, SessionSet};
    use mealib_verify::Verdict;

    fn place(cat: &Catalogue, id: u64, class: &str, base: u64, budget: Option<f64>) -> Resident {
        let c = cat.get(class).unwrap();
        Resident::new(
            SessionRequest {
                id,
                class: class.into(),
                arrival_epoch: 0,
                time_budget_s: budget,
            },
            c,
            AddrRange::new(PhysAddr::new(base), Bytes::new(c.slot)),
            id * 64,
        )
    }

    #[test]
    fn disjoint_generous_batch_admits() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let mut gate = AdmissionGate::new(BoundsEnv::default());
        let slot = cat.get("stap-tiny").unwrap().slot;
        let hi = cat.get("stap-tiny").unwrap().solo_elapsed.1;
        let batch = vec![
            place(&cat, 0, "stap-tiny", 0, Some(hi * 100.0)),
            place(&cat, 1, "stap-tiny", slot, None),
        ];
        let (set, _, verdict, report) = gate.certify(&batch);
        assert_eq!(verdict, Verdict::Admit, "{}", report.render());
        assert_eq!(set.tenants.len(), 2);
        assert_eq!(set.tenants[0].name, "s0");
        assert_eq!(set.tenants[1].arrival, 64);
        assert!(report.codes().is_empty());
    }

    #[test]
    fn impossible_budget_rejects_with_a_proof() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let mut gate = AdmissionGate::new(BoundsEnv::default());
        let lo = cat.get("stap-tiny").unwrap().solo_elapsed.0;
        let batch = vec![place(&cat, 0, "stap-tiny", 0, Some(lo * 0.5))];
        let (_, _, verdict, report) = gate.certify(&batch);
        assert_eq!(verdict, Verdict::Reject);
        let codes = report.codes();
        assert!(!codes.is_empty(), "a REJECT always carries its proof");
        assert!(codes.contains(&mealib_types::ErrorCode::InterfereLatencyBudget));
    }

    #[test]
    fn budget_text_round_trips_exactly() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let mut gate = AdmissionGate::new(BoundsEnv::default());
        // An awkward, non-terminating mantissa: exercises the full
        // float-to-text-to-float path, not a round decimal.
        let budget = std::f64::consts::FRAC_PI_3 * 1e-3;
        let batch = vec![place(&cat, 7, "sar-chain-256", 0, Some(budget))];
        let (set, ..) = gate.certify(&batch);
        assert_eq!(set.tenants[0].session.budgets.time_s, Some(budget));
        let parsed = parse_session_set(&gate.manifest(&batch)).unwrap();
        assert_eq!(parsed.tenants[0].session.budgets.time_s, Some(budget));
    }

    #[test]
    fn asym_split_selects_the_shared_asymmetric_layer() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let split = 1u64 << 29;
        let mut gate = AdmissionGate::new(BoundsEnv::default()).with_asym_split(split);
        let batch = vec![place(&cat, 0, "stap-tiny", 0, None)];
        let src = gate.manifest(&batch);
        assert!(src.starts_with(&format!("MEM ASYM 0x{split:x}\n")));
        let (set, _, verdict, report) = gate.certify(&batch);
        assert_eq!(set.mem_layer, parse_session_set(&src).unwrap().mem_layer);
        // Isolation still provable under the asymmetric layer.
        assert_ne!(verdict, Verdict::Reject, "{}", report.render());
    }

    #[test]
    fn a_repeated_layout_hits_the_memo_and_is_judged_afresh() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let env = BoundsEnv::default();
        let mut gate = AdmissionGate::new(env.clone());
        let lo = cat.get("stap-tiny").unwrap().solo_elapsed.0;
        let generous = vec![place(&cat, 0, "stap-tiny", 0, None)];
        let first = gate.certify(&generous).2;
        assert_eq!((gate.certify_calls(), gate.memo_hits()), (1, 0));
        // Same layout, another id and an impossible budget: a hit, and
        // the verdict follows the new budget.
        let mut tight = generous.clone();
        tight[0].request.id = 9;
        tight[0].request.time_budget_s = Some(lo * 0.5);
        let (set, _, second, report) = gate.certify(&tight);
        assert_eq!(set.tenants[0].name, "s9");
        let report = report.render();
        assert_eq!((gate.certify_calls(), gate.memo_hits()), (2, 1));
        assert_eq!(first, Verdict::Admit);
        assert_eq!(second, Verdict::Reject);
        let oracle =
            certify_set(&parse_session_set(&gate.manifest(&tight)).unwrap(), &env).unwrap();
        assert_eq!(report, oracle.report.render());
        // Another slot base is another layout.
        let mut moved = generous.clone();
        moved[0].partition = AddrRange::new(
            PhysAddr::new(1 << 30),
            Bytes::new(cat.get("stap-tiny").unwrap().slot),
        );
        gate.certify(&moved);
        assert_eq!(gate.memo_hits(), 1);
        // A body parsed on its own is never matched against a shared one.
        let c = cat.get("stap-tiny").unwrap();
        let alone = Resident::place(
            generous[0].request.clone(),
            &c.body,
            generous[0].partition,
            0,
        );
        gate.certify(&[alone]);
        assert_eq!((gate.certify_calls(), gate.memo_hits()), (4, 1));
    }

    fn fresh(env: &BoundsEnv, set: &SessionSet) -> Replay {
        let run = simulate_tenants(
            &resolved_set_config(set, env),
            &tenant_streams(set),
            &SimOptions::default(),
        )
        .unwrap();
        Replay {
            elapsed: run.stats.elapsed,
            energy: run.stats.energy,
            tenants: run.tenants,
        }
    }

    #[test]
    fn a_repeated_admitted_layout_reuses_its_replay() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let env = BoundsEnv::default();
        let mut gate = AdmissionGate::new(env.clone());
        let slot = cat.get("stap-tiny").unwrap().slot;
        let batch = vec![
            place(&cat, 0, "stap-tiny", 0, None),
            place(&cat, 1, "sar-chain-256", 4 * slot, None),
        ];
        let oracle = |gate: &AdmissionGate, batch: &[Resident]| {
            fresh(&env, &parse_session_set(&gate.manifest(batch)).unwrap())
        };
        // A layout's first replay simulates its memoized set.
        gate.certify(&batch);
        let first = oracle(&gate, &batch);
        assert_eq!(*gate.replay(&batch).0, first);
        assert_eq!((gate.replay_memo_hits(), gate.sessions_built()), (0, 2));
        assert_eq!(first.tenants.len(), 2);
        // The same layout under other ids and budgets hits, and lends
        // the bounds it was certified with.
        let mut again = batch.clone();
        again[0].request.id = 5;
        again[1].request.time_budget_s = Some(1.0);
        let certified = gate.certify(&again).1.tenants[1].elapsed;
        let (second, bounds) = gate.replay(&again);
        assert_eq!(*second, first);
        assert_eq!(bounds.tenants[1].elapsed, certified);
        assert_eq!(gate.replay_memo_hits(), 1);
        // Another slot base, then another arrival: other layouts, misses.
        let mut moved = batch.clone();
        moved[1].partition = AddrRange::new(PhysAddr::new(6 * slot), moved[1].partition.len());
        gate.certify(&moved);
        let want = oracle(&gate, &moved);
        assert_eq!(*gate.replay(&moved).0, want);
        let mut later = batch.clone();
        later[1].arrival_slot += 1;
        gate.certify(&later);
        let want = oracle(&gate, &later);
        assert_eq!(*gate.replay(&later).0, want);
        assert_eq!(gate.replay_memo_hits(), 1);
        // Both are stored once replayed, and no replay built a set.
        gate.replay(&moved);
        gate.replay(&later);
        assert_eq!(gate.replay_memo_hits(), 3);
        assert_eq!((gate.compositions(), gate.sessions_built()), (3, 6));
    }
}
