//! The typed admission path against its text oracle.
//!
//! [`AdmissionGate::certify`] builds each batch's session set without
//! text, once per layout, and judges repeated layouts in place: it
//! overwrites the memoized set's names, lines, partitions and budgets
//! and judges it against the memoized composition. The oracle is the
//! manifest route: render the batch with
//! [`AdmissionGate::manifest`], parse it with [`parse_session_set`] and
//! certify it with [`certify_set`]. The two must agree on the verdict,
//! the proof codes, the rendered report and every bound, bit for bit.
//!
//! * **Gate level** — random batches of 1–4 small classes at
//!   buddy-aligned (possibly overlapping) bases, staggered arrivals,
//!   absent, generous or impossible budgets, with and without an
//!   asymmetric split. Each layout is certified again under other ids
//!   and budgets, with every tenant's budget presence flipped (which
//!   shifts every later tenant's lines), with a partition grown in
//!   place, and turned to a REJECT by one impossible budget and back
//!   under fresh ids, so a stale name, line, partition or budget in
//!   the memoized set shows as a mismatch; each of these is a memo hit
//!   that rebases no session and composes nothing. Then with other
//!   arrivals and other bases, which must miss.
//! * **Loop level** — every decision a serve call logged, re-derived
//!   through the oracle the way a decision-log walk does: trial batches
//!   rebuilt with the public partition table, the same verdicts, REJECT
//!   codes and partitions, and the same certified elapsed bounds on
//!   every completion. Every admitted epoch is re-simulated from the
//!   oracle's set, outside any memo: each completion's service time,
//!   bytes and energy and the epoch's replay elapsed must match bit for
//!   bit, and the loop's replay-memo hits must be exactly its admitted
//!   epochs minus its distinct admitted layouts.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use mealib_memsim::{simulate_tenants, SimOptions};

use mealib_serve::{
    generate, serve, AdmissionGate, Catalogue, DecisionEvent, PartitionTable, Resident,
    ServeConfig, ServeReport, SessionRequest, Traffic, TrafficSpec, MIN_SLOT,
};
use mealib_types::{AddrRange, Bytes, Interval, PhysAddr, Report};
use mealib_verify::interference::{
    certify_set, parse_session_set, resolved_set_config, tenant_streams, Certification, SessionSet,
    SetBounds,
};
use mealib_verify::{BoundsEnv, Verdict};
use proptest::prelude::*;

const CLASSES: [&str; 3] = ["stap-tiny", "sar-chain-256", "sar-loop-256"];

fn catalogue() -> &'static Catalogue {
    static CAT: OnceLock<Catalogue> = OnceLock::new();
    CAT.get_or_init(|| Catalogue::standard(&BoundsEnv::default()))
}

fn interval_bits(out: &mut Vec<u64>, iv: Interval) {
    out.push(iv.lo.to_bits());
    out.push(iv.hi.to_bits());
}

/// Every float of `b` as bits, in a fixed order.
fn float_bits(b: &SetBounds) -> Vec<u64> {
    let mut out = vec![b.peak_bandwidth.get().to_bits()];
    let s = &b.set;
    for iv in [
        s.bytes_read,
        s.bytes_written,
        s.read_bursts,
        s.write_bursts,
        s.activations,
        s.cycles,
        s.elapsed,
        s.energy,
    ] {
        interval_bits(&mut out, iv);
    }
    for t in &b.tenants {
        for iv in [
            t.bytes_read,
            t.bytes_written,
            t.read_bursts,
            t.write_bursts,
            t.activations,
            t.cycles,
            t.elapsed,
            t.energy,
            t.accel_energy,
        ] {
            interval_bits(&mut out, iv);
        }
    }
    out
}

/// Asserts that the typed certification (the set and bounds the gate
/// lends, the verdict and the findings) equals the oracle's.
fn assert_same(
    typed: (&SessionSet, &SetBounds, Verdict, Report),
    oracle: &(SessionSet, Certification),
) {
    let ((tset, tbounds, tverdict, treport), (oset, ocert)) = (typed, oracle);
    assert_eq!(tverdict, ocert.verdict, "{}", ocert.report.render());
    assert_eq!(treport.codes(), ocert.codes());
    assert_eq!(treport.render(), ocert.report.render());
    assert_eq!(float_bits(tbounds), float_bits(&ocert.bounds));
    assert_eq!(tbounds.config_name, ocert.bounds.config_name);
    assert_eq!(tbounds.set.unit_bursts, ocert.bounds.set.unit_bursts);
    assert_eq!(tset.mem_layer, oset.mem_layer);
    assert_eq!(tset.budgets, oset.budgets);
    assert_eq!(tset.tenants.len(), oset.tenants.len());
    for ((t, o), (tb, ob)) in tset
        .tenants
        .iter()
        .zip(&oset.tenants)
        .zip(tbounds.tenants.iter().zip(&ocert.bounds.tenants))
    {
        assert_eq!(
            (&t.name, t.line, t.partition, t.arrival),
            (&o.name, o.line, o.partition, o.arrival)
        );
        assert_eq!(t.session.extents, o.session.extents, "{}", t.name);
        assert_eq!(t.session.budgets, o.session.budgets, "{}", t.name);
        assert_eq!(t.session.program, o.session.program, "{}", t.name);
        assert_eq!(tb.missing_extents, ob.missing_extents, "{}", t.name);
    }
}

/// The oracle: the batch's manifest, parsed and certified from text.
fn oracle(gate: &AdmissionGate, batch: &[Resident]) -> (SessionSet, Certification) {
    let set = parse_session_set(&gate.manifest(batch)).expect("rendered manifests parse");
    let cert = certify_set(&set, gate.env()).expect("preset env validates");
    (set, cert)
}

/// Certifies `batch` through `gate` and asserts the result equals the
/// oracle's; returns the verdict.
fn certify_like_the_oracle(gate: &mut AdmissionGate, batch: &[Resident]) -> Verdict {
    let want = oracle(gate, batch);
    let typed = gate.certify(batch);
    let verdict = typed.2;
    assert_same(typed, &want);
    verdict
}

/// Budget tiers: absent, generous, impossible.
fn budget(class: &str, tier: u8) -> Option<f64> {
    let (lo, hi) = catalogue().get(class).unwrap().solo_elapsed;
    match tier {
        0 => None,
        1 => Some(hi * 100.0),
        _ => Some(lo * 0.5),
    }
}

/// Gate-level cases: 48, or `PROPTEST_CASES` when set (the release
/// verification run widens the draw this way).
fn gate_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(48)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(gate_cases()))]

    #[test]
    fn typed_memoized_certify_matches_the_text_oracle(
        members in proptest::collection::vec((0usize..3, 0u64..8, 0u8..3, 0u8..3), 1..5),
        stagger in proptest::sample::select(vec![0u64, 1, 64, 97]),
        asym in any::<bool>(),
    ) {
        let cat = catalogue();
        let mut gate = AdmissionGate::new(BoundsEnv::default());
        if asym {
            gate = gate.with_asym_split(4 * MIN_SLOT);
        }
        let mut batch: Vec<Resident> = members
            .iter()
            .enumerate()
            .map(|(i, &(c, slot_index, tier, _))| {
                let class = cat.get(CLASSES[c]).unwrap();
                let base = slot_index * class.slot;
                Resident::new(
                    SessionRequest {
                        id: i as u64,
                        class: class.name.clone(),
                        arrival_epoch: 0,
                        time_budget_s: budget(&class.name, tier),
                    },
                    class,
                    AddrRange::new(PhysAddr::new(base), Bytes::new(class.slot)),
                    i as u64 * stagger,
                )
            })
            .collect();
        certify_like_the_oracle(&mut gate, &batch);
        prop_assert_eq!((gate.certify_calls(), gate.memo_hits()), (1, 0));

        // The same layout under other ids and budgets: judged against
        // the memoized composition, still equal to the oracle.
        for (r, &(_, _, _, tier)) in batch.iter_mut().zip(&members) {
            r.request.id += 100;
            r.request.time_budget_s = budget(&r.request.class, tier);
        }
        certify_like_the_oracle(&mut gate, &batch);
        prop_assert_eq!((gate.certify_calls(), gate.memo_hits()), (2, 1));

        // Every budget's presence flipped: each `BUDGET TIME` line
        // that appears or vanishes shifts every later tenant's lines.
        for r in &mut batch {
            r.request.id += 100;
            r.request.time_budget_s = match r.request.time_budget_s {
                Some(_) => None,
                None => budget(&r.request.class, 1),
            };
        }
        certify_like_the_oracle(&mut gate, &batch);

        // The first partition grown in place over its neighbours: the
        // base, hence the layout, is unchanged.
        let first = &mut batch[0];
        first.partition = AddrRange::new(
            first.partition.start(),
            Bytes::new(first.partition.len().get() * 4),
        );
        certify_like_the_oracle(&mut gate, &batch);
        prop_assert_eq!((gate.certify_calls(), gate.memo_hits()), (4, 3));

        // ADMIT, then the last resident's budget made impossible, then
        // ADMIT again, under fresh ids each time: each MEA302 proof must
        // name the current resident at its current line.
        batch[0].partition = AddrRange::new(
            batch[0].partition.start(),
            Bytes::new(batch[0].partition.len().get() / 4),
        );
        let last = batch.len() - 1;
        for impossible in [false, true, false] {
            for r in &mut batch {
                r.request.id += 100;
                r.request.time_budget_s = None;
            }
            if impossible {
                batch[last].request.time_budget_s = budget(&batch[last].request.class, 2);
            }
            let verdict = certify_like_the_oracle(&mut gate, &batch);
            if impossible {
                prop_assert_eq!(verdict, Verdict::Reject);
            }
        }
        prop_assert_eq!((gate.certify_calls(), gate.memo_hits()), (7, 6));
        // No hit rebased a session or composed.
        let n = batch.len() as u64;
        prop_assert_eq!((gate.compositions(), gate.sessions_built()), (1, n));

        // Other arrivals, then other bases: other layouts, so misses.
        for (i, r) in batch.iter_mut().enumerate() {
            r.arrival_slot = i as u64 * (stagger + 1) + 1;
        }
        certify_like_the_oracle(&mut gate, &batch);
        for r in &mut batch {
            r.partition = AddrRange::new(
                PhysAddr::new(r.partition.start().get() + 8 * r.partition.len().get()),
                r.partition.len(),
            );
        }
        certify_like_the_oracle(&mut gate, &batch);
        prop_assert_eq!((gate.certify_calls(), gate.memo_hits()), (9, 6));
        prop_assert_eq!((gate.compositions(), gate.sessions_built()), (3, 3 * n));
    }
}

/// Which verdict a logged decision implies; `None` for decisions the
/// certifier never saw.
fn logged_verdict(ev: &DecisionEvent) -> Option<Verdict> {
    match ev {
        DecisionEvent::Admit { .. } => Some(Verdict::Admit),
        DecisionEvent::Reject { .. } | DecisionEvent::Backoff { .. } => Some(Verdict::Reject),
        DecisionEvent::UnknownRetry { .. } | DecisionEvent::ShedPolicy { .. } => {
            Some(Verdict::Unknown)
        }
        _ => None,
    }
}

/// What one walk of a serve call re-derived.
struct Walk {
    certify_calls: u64,
    /// Epochs that replayed an admitted batch.
    replays: u64,
    /// Distinct admitted layouts: (class, slot base, arrival) per
    /// tenant, in order.
    layouts: BTreeSet<Vec<(String, u64, u64)>>,
}

/// Re-derives every certified decision of `report` through the text
/// oracle, and re-simulates every admitted batch outside any memo.
fn walk(traffic: &Traffic, report: &ServeReport, config: &ServeConfig) -> Walk {
    let cat = catalogue();
    let env = BoundsEnv::default();
    let mut gate = AdmissionGate::new(env.clone());
    if let Some(split) = config.asym_split {
        gate = gate.with_asym_split(split);
    }
    let completed: BTreeMap<u64, _> = report.completed.iter().map(|c| (c.id, c)).collect();
    let mut table = PartitionTable::new(config.capacity);
    let mut out = Walk {
        certify_calls: 0,
        replays: 0,
        layouts: BTreeSet::new(),
    };
    let log = &report.decision_log;
    let mut i = 0;
    while i < log.len() {
        let epoch = log[i].epoch();
        let end = i + log[i..].iter().take_while(|e| e.epoch() == epoch).count();
        let mut batch: Vec<Resident> = Vec::new();
        let mut admitted = None;
        for ev in &log[i..end] {
            let Some(want) = logged_verdict(ev) else {
                continue;
            };
            let id = ev.id();
            let req = &traffic.sessions[id as usize];
            let class = cat.get(&req.class).unwrap();
            let partition = table.alloc(class.slot).expect("the loop had a partition");
            batch.push(Resident::place(
                req.clone(),
                &class.body,
                partition,
                batch.len() as u64 * config.stagger_slots,
            ));
            let (set, cert) = oracle(&gate, &batch);
            out.certify_calls += 1;
            assert_eq!(cert.verdict, want, "e{epoch} s{id}: the log says {ev}");
            match ev {
                DecisionEvent::Admit {
                    part_start,
                    part_len,
                    ..
                } => assert_eq!(
                    (*part_start, *part_len),
                    (partition.start().get(), partition.len().get()),
                    "e{epoch} s{id}"
                ),
                DecisionEvent::Reject { codes, .. } => {
                    assert_eq!(*codes, cert.codes(), "e{epoch} s{id}");
                }
                _ => {}
            }
            if cert.verdict == Verdict::Admit {
                admitted = Some((set, cert));
            } else {
                batch.pop();
                table.free(partition);
            }
        }
        if let Some((set, cert)) = admitted {
            let run = simulate_tenants(
                &resolved_set_config(&set, &env),
                &tenant_streams(&set),
                &SimOptions::default(),
            )
            .expect("admitted batches replay");
            assert_eq!(
                report.epochs[epoch as usize].replay_elapsed_s.to_bits(),
                run.stats.elapsed.get().to_bits(),
                "e{epoch}: replay elapsed"
            );
            out.replays += 1;
            out.layouts.insert(
                batch
                    .iter()
                    .map(|r| {
                        let base = r.partition.start().get();
                        (r.request.class.clone(), base, r.arrival_slot)
                    })
                    .collect(),
            );
            for ((r, tb), t) in batch.iter().zip(&cert.bounds.tenants).zip(&run.tenants) {
                let c = completed[&r.request.id];
                assert_eq!(c.admitted_epoch, epoch);
                assert_eq!(
                    (
                        c.certified_elapsed_lo.to_bits(),
                        c.certified_elapsed_hi.to_bits()
                    ),
                    (tb.elapsed.lo.to_bits(), tb.elapsed.hi.to_bits()),
                    "e{epoch} s{}",
                    r.request.id
                );
                assert_eq!(
                    (c.service_s.to_bits(), c.bytes, c.energy_j.to_bits()),
                    (
                        t.elapsed.get().to_bits(),
                        t.bytes_read.get() + t.bytes_written.get(),
                        t.energy.get().to_bits()
                    ),
                    "e{epoch} s{}: replay attribution",
                    r.request.id
                );
            }
            for r in &batch {
                table.free(r.partition);
            }
        }
        i = end;
    }
    out
}

#[test]
fn every_logged_decision_matches_the_text_oracle() {
    let cat = catalogue();
    let configs = [
        ServeConfig::default(),
        ServeConfig {
            asym_split: Some(2 * MIN_SLOT),
            ..ServeConfig::default()
        },
        ServeConfig {
            max_resident: 2,
            ..ServeConfig::default()
        },
    ];
    let (mut hits, mut replay_hits) = (0, 0);
    for seed in [1, 7, 97] {
        let mut spec = TrafficSpec::poisson(cat, seed, 8, 3.0);
        spec.classes.retain(|c| CLASSES.contains(&c.class.as_str()));
        spec.p_impossible = 0.2;
        spec.p_best_effort = 0.2;
        let traffic = generate(cat, &spec);
        for config in &configs {
            let report = serve(cat, &traffic, config, &BoundsEnv::default());
            let w = walk(&traffic, &report, config);
            assert_eq!(w.certify_calls, report.certify_calls, "seed {seed}");
            assert!(report.certify_memo_hits < report.certify_calls);
            assert_eq!(
                report.replay_memo_hits,
                w.replays - w.layouts.len() as u64,
                "seed {seed}: every admitted layout replays once"
            );
            hits += report.certify_memo_hits;
            replay_hits += report.replay_memo_hits;
        }
    }
    assert!(hits > 0, "no serve call reused a batch layout");
    assert!(replay_hits > 0, "no serve call reused a replay");
}
