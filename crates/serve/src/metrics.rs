//! The serve report: per-session dispositions, per-class percentiles,
//! conservation reconciliation, and the determinism fingerprint.

use std::collections::BTreeMap;

use mealib_obs::quantiles::p50_p95_p99;
use mealib_obs::{Breakdown, Phase};

use crate::decision::DecisionEvent;
use crate::session::{CompletedSession, RejectedSession, ShedSession};
use crate::traffic::Traffic;
use crate::Catalogue;

/// One scheduling epoch's ledger line.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch number.
    pub epoch: u64,
    /// Fresh arrivals this epoch (before any tail drop).
    pub arrivals: usize,
    /// Sessions admitted and replayed this epoch.
    pub admitted: usize,
    /// Terminal rejections this epoch.
    pub rejected: usize,
    /// Sessions shed this epoch.
    pub shed: usize,
    /// Queue depth after the epoch's batch was taken.
    pub queue_depth_end: usize,
    /// Modeled elapsed seconds of this epoch's merged replay.
    pub replay_elapsed_s: f64,
    /// Modeled clock at the end of the epoch (monotone non-decreasing
    /// across the run).
    pub clock_s: f64,
}

/// Aggregates for one class of completed sessions.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Completed sessions of this class.
    pub count: usize,
    /// Service-time percentiles (nearest-rank, seconds).
    pub p50_s: f64,
    /// 95th percentile service time.
    pub p95_s: f64,
    /// 99th percentile service time.
    pub p99_s: f64,
    /// Worst queueing delay any completion of the class saw.
    pub max_queue_delay_s: f64,
    /// Exact bytes the class's completions moved.
    pub bytes: u64,
    /// Attributed DRAM energy over the class's completions, joules.
    pub energy_j: f64,
}

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Sessions that ran, with exact attribution.
    pub completed: Vec<CompletedSession>,
    /// Sessions the certifier proved inadmissible.
    pub rejected: Vec<RejectedSession>,
    /// Sessions dropped by policy.
    pub shed: Vec<ShedSession>,
    /// Per-epoch ledger, in order.
    pub epochs: Vec<EpochStats>,
    /// Typed admission decisions, in order (deterministic). The
    /// `Display` impl of each event reproduces the legacy text line,
    /// so `fingerprint()` and text consumers are unchanged;
    /// [`DecisionEvent::to_json`] serializes the structured form.
    pub decision_log: Vec<DecisionEvent>,
    /// Final modeled clock: the sum of every epoch replay's elapsed.
    pub modeled_s: f64,
    /// Phase breakdown (admission under `Verify`, replays under
    /// `Compute`); modeled-only, so `total_time == modeled_s` exactly.
    pub breakdown: Breakdown,
    /// Deepest the wait queue ever got.
    pub peak_queue_depth: usize,
    /// Top-level TDL items planned through the compiler path.
    pub plans_planned: u64,
    /// Items served by a chain plan the batcher already held (batching
    /// economy).
    pub plan_cache_hits: u64,
    /// Distinct descriptor chains the batcher built.
    pub plan_cache_len: usize,
    /// Admission certify calls. Like the memo hits, a measure of the
    /// certifier's work, not of the run: kept out of
    /// [`ServeReport::fingerprint`].
    pub certify_calls: u64,
    /// Certify calls judged against a batch layout composed earlier in
    /// the run.
    pub certify_memo_hits: u64,
    /// Batch replays answered from the replay of the same layout
    /// earlier in the run; like the certify counters, kept out of
    /// [`ServeReport::fingerprint`].
    pub replay_memo_hits: u64,
}

impl ServeReport {
    /// Every generated session has exactly one terminal disposition.
    pub fn total_sessions(&self) -> usize {
        self.completed.len() + self.rejected.len() + self.shed.len()
    }

    /// Fraction of completions whose measured service time stayed
    /// inside the elapsed ceiling their admission certified. The
    /// serving layer's core soundness claim is that this is `1.0` by
    /// construction.
    pub fn admission_soundness(&self) -> f64 {
        if self.completed.is_empty() {
            return 1.0;
        }
        let sound = self
            .completed
            .iter()
            .filter(|c| c.service_s <= c.certified_elapsed_hi)
            .count();
        sound as f64 / self.completed.len() as f64
    }

    /// Per-class percentiles and attribution over the completions.
    pub fn class_stats(&self) -> BTreeMap<String, ClassStats> {
        let mut by_class: BTreeMap<String, Vec<&CompletedSession>> = BTreeMap::new();
        for c in &self.completed {
            by_class.entry(c.class.clone()).or_default().push(c);
        }
        by_class
            .into_iter()
            .map(|(class, sessions)| {
                let service: Vec<f64> = sessions.iter().map(|c| c.service_s).collect();
                let (p50_s, p95_s, p99_s) =
                    p50_p95_p99(&service).expect("non-empty class has percentiles");
                let stats = ClassStats {
                    count: sessions.len(),
                    p50_s,
                    p95_s,
                    p99_s,
                    max_queue_delay_s: sessions.iter().map(|c| c.queue_delay_s).fold(0.0, f64::max),
                    bytes: sessions.iter().map(|c| c.bytes).sum(),
                    energy_j: sessions.iter().map(|c| c.energy_j).sum(),
                };
                (class, stats)
            })
            .collect()
    }

    /// Reconciles the run against the traffic generator's emitted-byte
    /// ledger: every session has exactly one disposition, ids cover
    /// the stream exactly, and per-class bytes balance — completions
    /// moved their class's exact trace bytes, rejected/shed sessions
    /// moved none.
    ///
    /// # Errors
    ///
    /// Returns the first violated clause, rendered.
    pub fn check_conservation(
        &self,
        traffic: &Traffic,
        catalogue: &Catalogue,
    ) -> Result<(), String> {
        if self.total_sessions() != traffic.sessions.len() {
            return Err(format!(
                "disposition count {} != generated {}",
                self.total_sessions(),
                traffic.sessions.len()
            ));
        }
        let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
        for id in self
            .completed
            .iter()
            .map(|c| c.id)
            .chain(self.rejected.iter().map(|r| r.id))
            .chain(self.shed.iter().map(|s| s.id))
        {
            *seen.entry(id).or_default() += 1;
        }
        for s in &traffic.sessions {
            match seen.get(&s.id) {
                Some(1) => {}
                Some(n) => return Err(format!("session {} has {n} dispositions", s.id)),
                None => return Err(format!("session {} has no disposition", s.id)),
            }
        }
        // Per-class byte balance: served bytes must equal emitted bytes
        // minus the unserved sessions' (exact) trace bytes.
        let mut served: BTreeMap<String, u64> = BTreeMap::new();
        for c in &self.completed {
            *served.entry(c.class.clone()).or_default() += c.bytes;
        }
        let mut unserved: BTreeMap<String, u64> = BTreeMap::new();
        for class in self
            .rejected
            .iter()
            .map(|r| r.class.clone())
            .chain(self.shed.iter().map(|s| s.class.clone()))
        {
            let t = catalogue
                .get(&class)
                .ok_or_else(|| format!("unknown class {class}"))?
                .trace_bytes;
            *unserved.entry(class).or_default() += t;
        }
        for (class, &emitted) in &traffic.emitted_bytes {
            let got =
                served.get(class).copied().unwrap_or(0) + unserved.get(class).copied().unwrap_or(0);
            if got != emitted {
                return Err(format!(
                    "{class}: served {} + unserved {} != emitted {emitted}",
                    served.get(class).copied().unwrap_or(0),
                    unserved.get(class).copied().unwrap_or(0),
                ));
            }
        }
        Ok(())
    }

    /// A stable, bit-exact digest of everything observable about the
    /// run. Two runs are *the same run* iff their fingerprints match:
    /// floats go in via [`f64::to_bits`], so equality is exact, not
    /// approximate.
    pub fn fingerprint(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for c in &self.completed {
            let _ = writeln!(
                out,
                "C {} {} e{} q{:016x} s{:016x} b{} j{:016x} p{:x}+{:x} l{:016x} h{:016x} r{}",
                c.id,
                c.class,
                c.admitted_epoch,
                c.queue_delay_s.to_bits(),
                c.service_s.to_bits(),
                c.bytes,
                c.energy_j.to_bits(),
                c.partition.start().get(),
                c.partition.len().get(),
                c.certified_elapsed_lo.to_bits(),
                c.certified_elapsed_hi.to_bits(),
                c.retries,
            );
        }
        for r in &self.rejected {
            let codes: Vec<String> = r.codes.iter().map(|c| format!("{c:?}")).collect();
            let _ = writeln!(
                out,
                "R {} {} e{} [{}] r{}",
                r.id,
                r.class,
                r.epoch,
                codes.join(","),
                r.retries
            );
        }
        for s in &self.shed {
            let _ = writeln!(
                out,
                "S {} {} e{} {}",
                s.id,
                s.class,
                s.epoch,
                s.reason.label()
            );
        }
        for e in &self.epochs {
            let _ = writeln!(
                out,
                "E {} a{} +{} -{} x{} d{} t{:016x} k{:016x}",
                e.epoch,
                e.arrivals,
                e.admitted,
                e.rejected,
                e.shed,
                e.queue_depth_end,
                e.replay_elapsed_s.to_bits(),
                e.clock_s.to_bits(),
            );
        }
        for line in &self.decision_log {
            let _ = writeln!(out, "D {line}");
        }
        let _ = writeln!(
            out,
            "T {:016x} q{} p{} h{} l{}",
            self.modeled_s.to_bits(),
            self.peak_queue_depth,
            self.plans_planned,
            self.plan_cache_hits,
            self.plan_cache_len,
        );
        out
    }

    /// The modeled time the breakdown attributes to epoch replays.
    /// Equal to [`ServeReport::modeled_s`] exactly — the breakdown is
    /// modeled-only, so reconciliation has zero drift by construction.
    pub fn breakdown_compute_s(&self) -> f64 {
        self.breakdown.phase(Phase::Compute).time.get()
    }
}
