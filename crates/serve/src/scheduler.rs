//! The discrete-event serving loop: arrivals → certified admission →
//! partitioned batch replay → exact attribution.
//!
//! Time advances in *epochs*. Each epoch the scheduler
//!
//! 1. promotes due retries to the front of the wait queue (respecting
//!    the queue bound — overflow retries stay parked, delayed but
//!    never dropped) and takes fresh arrivals at the back
//!    (tail-dropping at `queue_cap`);
//! 2. fills a batch from the queue front: each candidate gets a buddy
//!    partition slot and the grown batch is re-certified through
//!    [`AdmissionGate::certify`] (one gate per call, so each distinct
//!    batch layout's session set is built and composed once per call,
//!    and every repeat is judged in place against them) — ADMIT joins,
//!    REJECT frees the slot and retries with exponential backoff until
//!    the retry budget terminalizes it (carrying the MEA3xx proof),
//!    UNKNOWN follows the configured conservative policy;
//! 3. plans the batch's descriptors through the runtime compiler path
//!    (the batcher holds each distinct chain's plan, so repeat classes
//!    reuse it) and replays the merged set through
//!    [`AdmissionGate::replay`], crediting each tenant its
//!    exact modeled service time, bytes, and energy — the tagged
//!    interleaved engine runs once per distinct admitted layout per
//!    call, and a repeated layout gets its stored, bit-identical replay;
//! 4. advances the modeled clock by the replay's elapsed time and
//!    frees every partition (residency is one epoch).
//!
//! The loop is a pure function of (catalogue, traffic, config,
//! environment): no wall-clock, no ambient randomness, `BTreeMap`
//! ordering throughout — the property the determinism harness pins
//! down to the bit.

use std::collections::{BTreeMap, VecDeque};

use mealib_obs::{Breakdown, Obs, Phase};
use mealib_verify::interference::TenantBounds;
use mealib_verify::{BoundsEnv, Verdict};

use crate::admission::{AdmissionGate, Resident, UnknownPolicy};
use crate::batch::DescriptorBatcher;
use crate::decision::DecisionEvent;
use crate::metrics::{EpochStats, ServeReport};
use crate::partition::PartitionTable;
use crate::session::{
    Catalogue, CompletedSession, RejectedSession, SessionRequest, ShedReason, ShedSession,
};
use crate::telemetry::{Telemetry, TelemetryConfig, TelemetryReport};
use crate::traffic::Traffic;

/// Scheduler knobs. The defaults serve the standard catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Partitionable device bytes (power of two; sessions whose slot
    /// exceeds this are shed on arrival — they can never be placed).
    pub capacity: u64,
    /// Most tenants resident (replayed together) per epoch.
    pub max_resident: usize,
    /// Wait-queue depth; arrivals beyond it are tail-dropped.
    pub queue_cap: usize,
    /// Admission attempts before a REJECT terminalizes (or an UNKNOWN
    /// under the retry policy is shed).
    pub max_retries: u32,
    /// Backoff after the first failed attempt, in epochs; doubles per
    /// attempt.
    pub backoff_base: u64,
    /// What to do with UNKNOWN verdicts (never admit).
    pub unknown_policy: UnknownPolicy,
    /// Request-slot arrival stagger between batch positions.
    pub stagger_slots: u64,
    /// Drain deadline: at this epoch everything still unserved is shed
    /// with [`ShedReason::DrainDeadline`]. `u64::MAX` disables it.
    pub max_epochs: u64,
    /// When set, admission certifies against the §4.2 asymmetric
    /// layer split at this (slot-aligned) boundary.
    pub asym_split: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            capacity: 1 << 31,
            max_resident: 4,
            queue_cap: 64,
            max_retries: 3,
            backoff_base: 1,
            unknown_policy: UnknownPolicy::Retry,
            stagger_slots: 64,
            max_epochs: u64::MAX,
            asym_split: None,
        }
    }
}

/// A queued session awaiting admission.
#[derive(Debug, Clone)]
struct Pending {
    req: SessionRequest,
    attempts: u32,
    arrival_clock_s: f64,
}

/// First epoch a session may retry after its `attempts`-th failed
/// admission in `epoch`: `epoch + 1 + base · 2^(attempts - 1)`,
/// saturating at `u64::MAX` (the drain deadline sheds a session parked
/// that far out) instead of overflowing for large retry budgets or
/// bases.
fn backoff_until(epoch: u64, base: u64, attempts: u32) -> u64 {
    let delay = u128::from(base) << (attempts - 1).min(64);
    epoch
        .saturating_add(1)
        .saturating_add(u64::try_from(delay).unwrap_or(u64::MAX))
}

/// The run's one decision sink. Every scheduler decision is a single
/// [`Ledger::decide`] call and every completion a single
/// [`Ledger::complete`]: the sink feeds telemetry when it is attached,
/// appends the event to the decision log, and derives the terminal
/// [`RejectedSession`] / [`ShedSession`] record from the event itself,
/// so the report's vectors are the in-order projection of the log by
/// construction.
struct Ledger<'t> {
    log: Vec<DecisionEvent>,
    completed: Vec<CompletedSession>,
    rejected: Vec<RejectedSession>,
    shed: Vec<ShedSession>,
    tele: Option<&'t mut Telemetry>,
}

impl Ledger<'_> {
    /// Records one decision about a session of `class`. Only terminal
    /// events keep the class: an owned `String` moves in, a borrowed
    /// one is copied once.
    fn decide(&mut self, ev: DecisionEvent, class: impl AsRef<str> + Into<String>, clock_s: f64) {
        if let Some(t) = self.tele.as_deref_mut() {
            t.on_decision(&ev, class.as_ref(), clock_s);
        }
        if let DecisionEvent::Reject {
            epoch,
            id,
            codes,
            attempts,
        } = &ev
        {
            self.rejected.push(RejectedSession {
                id: *id,
                class: class.into(),
                epoch: *epoch,
                codes: codes.clone(),
                retries: *attempts,
            });
        } else if let Some(reason) = ev.shed_reason() {
            self.shed.push(ShedSession {
                id: ev.id(),
                class: class.into(),
                epoch: ev.epoch(),
                reason,
            });
        }
        self.log.push(ev);
    }

    /// Records one completion with the bounds its admission proved.
    /// `epoch_clock_s` is the clock when the epoch's replay started.
    fn complete(
        &mut self,
        done: CompletedSession,
        bounds: &TenantBounds,
        first_burst_s: f64,
        epoch_clock_s: f64,
    ) {
        if let Some(t) = self.tele.as_deref_mut() {
            t.on_completion(epoch_clock_s, &done, bounds, first_burst_s);
        }
        self.completed.push(done);
    }
}

/// Runs the serving loop without telemetry.
///
/// # Panics
///
/// Panics if `traffic` names a class the catalogue does not carry, or
/// on internal invariant violations (certified batches that fail to
/// replay).
pub fn serve(
    catalogue: &Catalogue,
    traffic: &Traffic,
    config: &ServeConfig,
    env: &BoundsEnv,
) -> ServeReport {
    serve_core(catalogue, traffic, config, env, &Obs::off(), None)
}

/// Runs the serving loop with live telemetry: streaming metric
/// sketches, the per-session lifecycle trace, and the SLO /
/// certified-bounds engines, all driven by the modeled clock. `obs`
/// receives the run's breakdown (the replays' `Compute` time and
/// energy); admission decisions are markers in the lifecycle trace.
///
/// # Panics
///
/// Panics as [`serve`] does.
pub fn serve_with_telemetry(
    catalogue: &Catalogue,
    traffic: &Traffic,
    config: &ServeConfig,
    env: &BoundsEnv,
    obs: &Obs,
    telemetry: &TelemetryConfig,
) -> (ServeReport, TelemetryReport) {
    let mut tele = Telemetry::new(telemetry);
    let report = serve_core(catalogue, traffic, config, env, obs, Some(&mut tele));
    let tele_report = tele.finish(report.modeled_s, report.peak_queue_depth);
    (report, tele_report)
}

/// The epoch loop shared by both entry points. `tele` costs one
/// `Option` discriminant check per event when telemetry is off — the
/// bench's <2% untelemetered wall criterion rides on that.
fn serve_core(
    catalogue: &Catalogue,
    traffic: &Traffic,
    config: &ServeConfig,
    env: &BoundsEnv,
    obs: &Obs,
    tele: Option<&mut Telemetry>,
) -> ServeReport {
    let mut gate = AdmissionGate::new(env.clone());
    if let Some(split) = config.asym_split {
        gate = gate.with_asym_split(split);
    }
    let mut table = PartitionTable::new(config.capacity);
    let mut batcher = DescriptorBatcher::new(catalogue);

    let mut queue: VecDeque<Pending> = VecDeque::new();
    // Backoff parking: keyed (eligible epoch, id) so promotion order is
    // deterministic and oldest-first.
    let mut parked: BTreeMap<(u64, u64), Pending> = BTreeMap::new();

    let mut ledger = Ledger {
        log: Vec::new(),
        completed: Vec::new(),
        rejected: Vec::new(),
        shed: Vec::new(),
        tele,
    };
    let mut epochs: Vec<EpochStats> = Vec::new();
    let mut breakdown = Breakdown::new();

    let sessions = &traffic.sessions;
    let mut arr_idx = 0usize;
    let mut clock_s = 0.0f64;
    let mut peak_queue = 0usize;

    let mut epoch = 0u64;
    loop {
        if arr_idx >= sessions.len() && queue.is_empty() && parked.is_empty() {
            break;
        }
        if epoch >= config.max_epochs {
            // Drain deadline: everything unserved is shed, so every
            // generated session still gets exactly one disposition.
            for p in queue
                .drain(..)
                .chain(std::mem::take(&mut parked).into_values())
            {
                let ev = DecisionEvent::ShedDrain {
                    epoch,
                    id: p.req.id,
                };
                ledger.decide(ev, p.req.class, clock_s);
            }
            for req in &sessions[arr_idx..] {
                let ev = DecisionEvent::ShedDrain { epoch, id: req.id };
                ledger.decide(ev, &req.class, clock_s);
            }
            break;
        }

        let mut st = EpochStats {
            epoch,
            arrivals: 0,
            admitted: 0,
            rejected: 0,
            shed: 0,
            queue_depth_end: 0,
            replay_elapsed_s: 0.0,
            clock_s,
        };
        let (rejected_before, shed_before) = (ledger.rejected.len(), ledger.shed.len());

        // (1a) Promote due retries to the queue front, oldest first.
        // Promotion respects the queue bound: retries past it stay
        // parked (delayed one epoch, never dropped), so the queue
        // never exceeds `queue_cap` — the hard bound the shed policy
        // promises.
        let room = config.queue_cap.saturating_sub(queue.len());
        let due: Vec<(u64, u64)> = parked
            .range(..=(epoch, u64::MAX))
            .map(|(k, _)| *k)
            .take(room)
            .collect();
        for key in due.into_iter().rev() {
            let p = parked.remove(&key).expect("key just listed");
            queue.push_front(p);
        }

        // (1b) Fresh arrivals at the back, tail-dropping at capacity.
        while arr_idx < sessions.len() && sessions[arr_idx].arrival_epoch == epoch {
            let req = &sessions[arr_idx];
            arr_idx += 1;
            st.arrivals += 1;
            if let Some(t) = ledger.tele.as_deref_mut() {
                t.on_arrival(req, clock_s);
            }
            let class = catalogue
                .get(&req.class)
                .unwrap_or_else(|| panic!("unknown traffic class {}", req.class));
            if class.slot > config.capacity {
                let ev = DecisionEvent::ShedSlot { epoch, id: req.id };
                ledger.decide(ev, &req.class, clock_s);
            } else if queue.len() >= config.queue_cap {
                let ev = DecisionEvent::ShedQueueFull { epoch, id: req.id };
                ledger.decide(ev, &req.class, clock_s);
            } else {
                queue.push_back(Pending {
                    req: req.clone(),
                    attempts: 0,
                    arrival_clock_s: clock_s,
                });
            }
        }
        peak_queue = peak_queue.max(queue.len());

        // (2) Fill the batch from the queue front, certifying each
        // growth step.
        let mut batch: Vec<Resident> = Vec::new();
        let mut batch_meta: Vec<Pending> = Vec::new();
        while batch.len() < config.max_resident && !queue.is_empty() {
            let mut p = queue.pop_front().expect("non-empty queue");
            let class = catalogue.get(&p.req.class).expect("checked on arrival");
            let Some(partition) = table.alloc(class.slot) else {
                // Head-of-line waits for space; residency is one epoch,
                // so space returns next epoch.
                queue.push_front(p);
                break;
            };
            let arrival_slot = batch.len() as u64 * config.stagger_slots;
            batch.push(Resident::new(p.req.clone(), class, partition, arrival_slot));
            let (_, _, verdict, report) = gate.certify(&batch);
            p.attempts += 1;
            if verdict != Verdict::Admit {
                batch.pop();
                table.free(partition);
            }
            match verdict {
                Verdict::Admit => {
                    let ev = DecisionEvent::Admit {
                        epoch,
                        id: p.req.id,
                        class: p.req.class.clone(),
                        part_start: partition.start().get(),
                        part_len: partition.len().get(),
                        attempt: p.attempts,
                    };
                    ledger.decide(ev, &p.req.class, clock_s);
                    batch_meta.push(p);
                }
                Verdict::Reject if p.attempts > config.max_retries => {
                    let codes = report.codes();
                    debug_assert!(!codes.is_empty(), "REJECT always carries its proof");
                    let ev = DecisionEvent::Reject {
                        epoch,
                        id: p.req.id,
                        codes,
                        attempts: p.attempts,
                    };
                    ledger.decide(ev, p.req.class, clock_s);
                }
                Verdict::Reject => {
                    let until_epoch = backoff_until(epoch, config.backoff_base, p.attempts);
                    let ev = DecisionEvent::Backoff {
                        epoch,
                        id: p.req.id,
                        until_epoch,
                        attempt: p.attempts,
                    };
                    ledger.decide(ev, &p.req.class, clock_s);
                    parked.insert((until_epoch, p.req.id), p);
                }
                Verdict::Unknown
                    if config.unknown_policy == UnknownPolicy::Shed
                        || p.attempts > config.max_retries =>
                {
                    let reason = if config.unknown_policy == UnknownPolicy::Shed {
                        ShedReason::Undecidable
                    } else {
                        ShedReason::RetriesExhausted
                    };
                    let ev = DecisionEvent::ShedPolicy {
                        epoch,
                        id: p.req.id,
                        reason,
                        attempts: p.attempts,
                    };
                    ledger.decide(ev, p.req.class, clock_s);
                }
                Verdict::Unknown => {
                    let retry_epoch = backoff_until(epoch, config.backoff_base, p.attempts);
                    let ev = DecisionEvent::UnknownRetry {
                        epoch,
                        id: p.req.id,
                        retry_epoch,
                        attempt: p.attempts,
                    };
                    ledger.decide(ev, &p.req.class, clock_s);
                    parked.insert((retry_epoch, p.req.id), p);
                }
            }
        }

        // (3) Plan descriptors and replay the admitted batch.
        if !batch.is_empty() {
            for r in &batch {
                let class = catalogue.get(&r.request.class).expect("admitted class");
                batcher.plan_class(&class.body);
            }
            let (run, bounds) = gate.replay(&batch);
            breakdown.add_phase(Phase::Compute, run.elapsed, run.energy);
            if let Some(t) = ledger.tele.as_deref_mut() {
                t.on_replay(run.elapsed.get(), run.energy.get());
            }
            for (i, (r, p)) in batch.iter().zip(&batch_meta).enumerate() {
                let t = &run.tenants[i];
                let tb = &bounds.tenants[i];
                let done = CompletedSession {
                    id: r.request.id,
                    class: r.request.class.clone(),
                    admitted_epoch: epoch,
                    queue_delay_s: clock_s - p.arrival_clock_s,
                    service_s: t.elapsed.get(),
                    bytes: t.bytes_read.get() + t.bytes_written.get(),
                    energy_j: t.energy.get(),
                    partition: r.partition,
                    certified_elapsed_lo: tb.elapsed.lo,
                    certified_elapsed_hi: tb.elapsed.hi,
                    retries: p.attempts - 1,
                };
                // The epoch's service spans share the pre-advance
                // clock, so one batch's spans nest in the trace.
                ledger.complete(done, tb, t.first_elapsed.get(), clock_s);
            }
            st.admitted = batch.len();
            st.replay_elapsed_s = run.elapsed.get();
            clock_s += run.elapsed.get();
            // (4) Residency is one epoch: return every slot.
            for r in &batch {
                table.free(r.partition);
            }
        }

        st.rejected = ledger.rejected.len() - rejected_before;
        st.shed = ledger.shed.len() - shed_before;
        st.queue_depth_end = queue.len();
        st.clock_s = clock_s;
        if let Some(t) = ledger.tele.as_deref_mut() {
            t.on_epoch_end(&st);
        }
        epochs.push(st);
        epoch += 1;
    }

    if let Some(t) = ledger.tele {
        batcher.export_metrics(t.registry_mut());
        gate.export_metrics(t.registry_mut());
    }
    obs.record_breakdown(&breakdown);

    ServeReport {
        completed: ledger.completed,
        rejected: ledger.rejected,
        shed: ledger.shed,
        epochs,
        decision_log: ledger.log,
        modeled_s: clock_s,
        breakdown,
        peak_queue_depth: peak_queue,
        plans_planned: batcher.planned(),
        plan_cache_hits: batcher.cache_hits(),
        plan_cache_len: batcher.cached_plans(),
        certify_calls: gate.certify_calls(),
        certify_memo_hits: gate.memo_hits(),
        replay_memo_hits: gate.replay_memo_hits(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{generate, TrafficSpec};

    fn small_spec(cat: &Catalogue, seed: u64) -> TrafficSpec {
        let mut spec = TrafficSpec::poisson(cat, seed, 6, 2.0);
        // Small classes keep the unit tests quick; the big scales are
        // exercised by the bench and the soak test. A fat impossible
        // tier makes a proved rejection all but certain per stream.
        spec.classes.retain(|c| {
            matches!(
                c.class.as_str(),
                "stap-tiny" | "sar-chain-256" | "sar-loop-256"
            )
        });
        spec.p_impossible = 0.3;
        spec
    }

    #[test]
    fn serve_disposes_every_session_and_reconciles() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let traffic = generate(&cat, &small_spec(&cat, 5));
        assert!(!traffic.sessions.is_empty());
        let report = serve(
            &cat,
            &traffic,
            &ServeConfig::default(),
            &BoundsEnv::default(),
        );
        assert_eq!(report.total_sessions(), traffic.sessions.len());
        report
            .check_conservation(&traffic, &cat)
            .expect("conservation holds");
        assert!((report.admission_soundness() - 1.0).abs() < f64::EPSILON);
        assert!(!report.completed.is_empty(), "generous sessions complete");
        assert!(!report.rejected.is_empty(), "impossible budgets reject");
        for r in &report.rejected {
            assert!(!r.codes.is_empty(), "s{}: rejection without a proof", r.id);
        }
        // Breakdown reconciles with the modeled clock exactly.
        assert_eq!(
            report.breakdown_compute_s().to_bits(),
            report.modeled_s.to_bits()
        );
        // Clock is monotone across epochs.
        for w in report.epochs.windows(2) {
            assert!(w[1].clock_s >= w[0].clock_s);
        }
    }

    #[test]
    fn shed_policy_bounds_the_queue() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let mut spec = small_spec(&cat, 9);
        spec.mix = crate::traffic::ArrivalMix::Poisson {
            mean_per_epoch: 12.0,
        };
        let traffic = generate(&cat, &spec);
        let config = ServeConfig {
            queue_cap: 4,
            max_resident: 2,
            ..ServeConfig::default()
        };
        let report = serve(&cat, &traffic, &config, &BoundsEnv::default());
        assert!(report.peak_queue_depth <= 4);
        assert!(
            report
                .shed
                .iter()
                .any(|s| s.reason == ShedReason::QueueFull),
            "overload must tail-drop"
        );
        report
            .check_conservation(&traffic, &cat)
            .expect("conservation holds under shed");
    }

    #[test]
    fn drain_deadline_sheds_leftovers_with_conservation() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let traffic = generate(&cat, &small_spec(&cat, 3));
        let config = ServeConfig {
            max_epochs: 2,
            ..ServeConfig::default()
        };
        let report = serve(&cat, &traffic, &config, &BoundsEnv::default());
        assert!(report
            .shed
            .iter()
            .any(|s| s.reason == ShedReason::DrainDeadline));
        report
            .check_conservation(&traffic, &cat)
            .expect("deadline preserves conservation");
    }

    #[test]
    fn backoff_until_doubles_then_saturates() {
        assert_eq!(backoff_until(5, 1, 1), 7);
        assert_eq!(backoff_until(5, 3, 3), 5 + 1 + 12);
        assert_eq!(backoff_until(0, 0, 70), 1, "a zero base never waits");
        assert_eq!(backoff_until(0, 1, 64), 1 + (1 << 63));
        assert_eq!(backoff_until(0, 1, 65), u64::MAX);
        assert_eq!(backoff_until(0, 1 << 40, 70), u64::MAX);
        assert_eq!(backoff_until(7, u64::MAX, 1), u64::MAX);
        assert_eq!(backoff_until(u64::MAX, 0, 1), u64::MAX);
    }

    /// Retry budgets past 64 attempts and huge bases once overflowed
    /// the backoff shift (a panic in debug builds). A zero base retries
    /// every epoch, so proved-impossible sessions really reach 71
    /// attempts; the huge bases park them until the drain deadline.
    #[test]
    fn huge_retry_budgets_and_bases_never_overflow_the_backoff() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        let traffic = generate(&cat, &small_spec(&cat, 5));
        for backoff_base in [0, 1 << 40, u64::MAX] {
            let config = ServeConfig {
                max_retries: 70,
                backoff_base,
                max_epochs: 90,
                ..ServeConfig::default()
            };
            let report = serve(&cat, &traffic, &config, &BoundsEnv::default());
            report
                .check_conservation(&traffic, &cat)
                .unwrap_or_else(|e| panic!("base {backoff_base}: {e}"));
            if backoff_base == 0 {
                assert!(
                    report.rejected.iter().any(|r| r.retries > 65),
                    "a zero base must drive a proved rejection past 65 attempts"
                );
            }
        }
    }
}
