//! QoS invariants: what an ADMIT verdict actually buys a tenant.
//!
//! * **Budget soundness** — no admitted session's measured service
//!   time (p99 included) ever exceeds its declared budget, because
//!   admission requires the certified ceiling to fit under the budget
//!   and the tagged replay can never exceed the ceiling.
//! * **Partition containment** — no request is simulated outside its
//!   tenant's partition slot, and co-resident partitions are disjoint.
//! * **Noisy neighbor** — a bandwidth-hungry co-tenant cannot push a
//!   victim's attributed bandwidth below the floor its certification
//!   proved (own bytes over the composed elapsed ceiling).
//! * **Asymmetric isolation** — under a §4.2 split, the high tenant's
//!   requests decode to the dedicated unit and nobody else's ever do.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mealib_memsim::{simulate_tenants, SimOptions};
use mealib_obs::quantiles::p50_p95_p99;
use mealib_serve::{
    generate, serve, AdmissionGate, Catalogue, Resident, ServeConfig, SessionRequest, TrafficSpec,
};
use mealib_types::{AddrRange, Bytes, PhysAddr};
use mealib_verify::interference::{resolved_set_config, tenant_streams};
use mealib_verify::{BoundsEnv, Verdict};

fn catalogue() -> &'static Catalogue {
    static CAT: OnceLock<Catalogue> = OnceLock::new();
    CAT.get_or_init(|| Catalogue::standard(&BoundsEnv::default()))
}

fn place(id: u64, class: &str, base: u64, budget: Option<f64>) -> Resident {
    let c = catalogue().get(class).unwrap();
    Resident::place(
        SessionRequest {
            id,
            class: class.into(),
            arrival_epoch: 0,
            time_budget_s: budget,
        },
        &c.body,
        AddrRange::new(PhysAddr::new(base), Bytes::new(c.slot)),
        id * 64,
    )
}

#[test]
fn admitted_sessions_never_exceed_their_declared_budget() {
    let cat = catalogue();
    let mut spec = TrafficSpec::poisson(cat, 314, 5, 2.0);
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    spec.p_impossible = 0.2;
    let traffic = generate(cat, &spec);
    let report = serve(
        cat,
        &traffic,
        &ServeConfig::default(),
        &BoundsEnv::default(),
    );
    assert!(!report.completed.is_empty());

    let budgets: BTreeMap<u64, Option<f64>> = traffic
        .sessions
        .iter()
        .map(|s| (s.id, s.time_budget_s))
        .collect();
    // Per-session: measured service fits both the certified ceiling
    // and (when declared) the budget the admission proved.
    let mut budgeted: BTreeMap<String, (Vec<f64>, f64)> = BTreeMap::new();
    for c in &report.completed {
        assert!(
            c.service_s <= c.certified_elapsed_hi,
            "s{}: measured {} above certified ceiling {}",
            c.id,
            c.service_s,
            c.certified_elapsed_hi
        );
        if let Some(Some(budget)) = budgets.get(&c.id) {
            assert!(
                c.service_s <= *budget,
                "s{}: measured {} above declared budget {budget}",
                c.id,
                c.service_s
            );
            let slot = budgeted.entry(c.class.clone()).or_insert((Vec::new(), 0.0));
            slot.0.push(c.service_s);
            slot.1 = slot.1.max(*budget);
        }
    }
    // Percentile form of the same promise: per-class p99 of budgeted
    // completions sits under the largest budget in the class.
    for (class, (service, max_budget)) in budgeted {
        let (_, _, p99) = p50_p95_p99(&service).unwrap();
        assert!(
            p99 <= max_budget,
            "{class}: p99 {p99} > budget {max_budget}"
        );
    }
}

#[test]
fn no_request_is_simulated_outside_its_partition() {
    let cat = catalogue();
    let mut gate = AdmissionGate::new(BoundsEnv::default());
    let a = cat.get("stap-tiny").unwrap().slot;
    let b = cat.get("sar-chain-256").unwrap().slot;
    let batch = vec![
        place(0, "stap-tiny", 0, None),
        place(1, "sar-chain-256", a, None),
        place(2, "stap-tiny", a + b, None),
    ];
    let (set, _, verdict, report) = gate.certify(&batch);
    assert_eq!(verdict, Verdict::Admit, "{}", report.render());
    for (resident, stream) in batch.iter().zip(tenant_streams(set)) {
        assert!(!stream.trace.is_empty());
        for req in stream.trace.iter() {
            let start = req.addr.get();
            let end = start + req.bytes;
            assert!(
                resident.partition.start().get() <= start && end <= resident.partition.end().get(),
                "s{}: request [0x{start:x}, 0x{end:x}) escapes partition {:?}",
                resident.request.id,
                resident.partition
            );
        }
    }
    // The scheduler upholds the same property end to end: co-resident
    // partitions are pairwise disjoint and inside the table.
    let mut spec = TrafficSpec::poisson(cat, 99, 4, 2.0);
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    let traffic = generate(cat, &spec);
    let config = ServeConfig::default();
    let report = serve(cat, &traffic, &config, &BoundsEnv::default());
    let mut by_epoch: BTreeMap<u64, Vec<AddrRange>> = BTreeMap::new();
    for c in &report.completed {
        assert!(c.partition.end().get() <= config.capacity);
        by_epoch
            .entry(c.admitted_epoch)
            .or_default()
            .push(c.partition);
    }
    for (epoch, parts) in by_epoch {
        for (i, x) in parts.iter().enumerate() {
            for y in &parts[i + 1..] {
                assert!(
                    x.end().get() <= y.start().get() || y.end().get() <= x.start().get(),
                    "epoch {epoch}: co-resident partitions overlap"
                );
            }
        }
    }
}

#[test]
fn noisy_neighbor_cannot_push_victim_below_certified_floor() {
    let cat = catalogue();
    let env = BoundsEnv::default();
    let mut gate = AdmissionGate::new(env.clone());
    let victim_slot = cat.get("stap-tiny").unwrap().slot;
    // The victim declares nothing; the noisy neighbor is the loop
    // pipeline, the most bandwidth-hungry class in the catalogue.
    let batch = vec![
        place(0, "stap-tiny", 0, None),
        place(1, "sar-loop-256", victim_slot, None),
    ];
    let (set, bounds, verdict, report) = gate.certify(&batch);
    assert_eq!(verdict, Verdict::Admit, "{}", report.render());

    let cfg = resolved_set_config(set, &env);
    let run = simulate_tenants(&cfg, &tenant_streams(set), &SimOptions::cycle())
        .expect("admitted batch replays");

    let victim = &run.tenants[0];
    let vb = &bounds.tenants[0];
    // Exact own-bytes attribution...
    let own_bytes = victim.bytes_read.get() + victim.bytes_written.get();
    assert_eq!(own_bytes as f64, vb.bytes_read.lo + vb.bytes_written.lo);
    // ...and the measured completion inside the certified interval.
    assert!(
        vb.elapsed.contains(victim.elapsed.get()),
        "victim elapsed {} outside [{}, {}]",
        victim.elapsed.get(),
        vb.elapsed.lo,
        vb.elapsed.hi
    );
    // The certified bandwidth floor: own bytes over the composed
    // elapsed ceiling. Measured bandwidth can only be better.
    let floor = own_bytes as f64 / vb.elapsed.hi;
    let measured = own_bytes as f64 / victim.elapsed.get();
    assert!(
        measured >= floor,
        "noisy neighbor pushed the victim to {measured} B/s, below the certified {floor} B/s"
    );
}

#[test]
fn asym_split_gives_the_high_tenant_a_unit_nobody_else_touches() {
    let cat = catalogue();
    let low_slot = cat.get("sar-chain-256").unwrap().slot;
    // Slot-aligned split right after the low tenant: the high tenant's
    // whole partition lives in the dedicated region.
    let split = low_slot.max(cat.get("stap-tiny").unwrap().slot);
    let env = BoundsEnv::default();
    let mut gate = AdmissionGate::new(env.clone()).with_asym_split(split);
    let batch = vec![
        place(0, "sar-chain-256", 0, None),
        place(1, "stap-tiny", split, None),
    ];
    let (set, _, verdict, report) = gate.certify(&batch);
    assert_ne!(verdict, Verdict::Reject, "{}", report.render());

    let cfg = resolved_set_config(set, &env);
    let dedicated = cfg.mapping.units() - 1;
    let streams = tenant_streams(set);
    for req in streams[1].trace.iter() {
        assert_eq!(
            cfg.mapping.decode(req.addr).unit,
            dedicated,
            "high tenant's 0x{:x} left its dedicated unit",
            req.addr.get()
        );
    }
    for req in streams[0].trace.iter() {
        assert_ne!(
            cfg.mapping.decode(req.addr).unit,
            dedicated,
            "low tenant's 0x{:x} intruded on the dedicated unit",
            req.addr.get()
        );
    }
}
