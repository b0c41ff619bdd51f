//! Soak: a full diurnal day-and-nights of traffic, ≥10k sessions,
//! replayed end to end. Run with `cargo test -p mealib-serve -- --ignored`.

use mealib_obs::Obs;
use mealib_serve::{
    generate, serve, serve_with_telemetry, ArrivalMix, Catalogue, ServeConfig, ShedReason,
    TelemetryConfig, TrafficSpec,
};
use mealib_verify::BoundsEnv;

#[test]
#[ignore = "ten-thousand-session diurnal soak; run with --ignored"]
fn diurnal_soak_holds_every_invariant() {
    let cat = Catalogue::standard(&BoundsEnv::default());
    let mut spec = TrafficSpec::poisson(&cat, 2024, 1500, 0.0);
    spec.mix = ArrivalMix::Diurnal {
        base: 4.0,
        peak: 14.0,
        period_epochs: 48,
    };
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    let traffic = generate(&cat, &spec);
    assert!(
        traffic.sessions.len() >= 10_000,
        "soak needs >=10k sessions, got {}",
        traffic.sessions.len()
    );

    let config = ServeConfig {
        max_resident: 6,
        queue_cap: 32,
        ..ServeConfig::default()
    };
    let report = serve(&cat, &traffic, &config, &BoundsEnv::default());

    // Every session disposed exactly once; per-class bytes reconcile.
    report
        .check_conservation(&traffic, &cat)
        .expect("soak conservation");

    // The shed policy keeps the queue bounded through the diurnal peak.
    assert!(report.peak_queue_depth <= config.queue_cap);
    for e in &report.epochs {
        assert!(e.queue_depth_end <= config.queue_cap, "epoch {}", e.epoch);
    }
    assert!(
        report
            .shed
            .iter()
            .any(|s| s.reason == ShedReason::QueueFull),
        "a 14/epoch peak against 6 residents must tail-drop sometime"
    );

    // Zero reconciliation drift: the breakdown's Compute time IS the
    // modeled clock, bit for bit.
    assert_eq!(
        report.breakdown_compute_s().to_bits(),
        report.modeled_s.to_bits()
    );

    // Modeled time is monotone non-decreasing across every epoch.
    for w in report.epochs.windows(2) {
        assert!(
            w[1].clock_s >= w[0].clock_s,
            "clock regressed at epoch {}",
            w[1].epoch
        );
    }

    // Soundness at scale: nothing completed above its certified
    // ceiling; every terminal rejection carries its proof.
    assert!((report.admission_soundness() - 1.0).abs() < f64::EPSILON);
    for r in &report.rejected {
        assert!(!r.codes.is_empty(), "s{} rejected without a proof", r.id);
    }

    // The plan cache is doing the batching: with two classes over
    // thousands of admissions, nearly every plan is a hit.
    assert!(report.plan_cache_hits > report.plans_planned / 2);
}

/// Telemetry over the same ≥10k-session soak: the sketches absorb
/// every sample in O(classes × buckets) memory without hoarding them,
/// the counters reconcile count-wise with the traffic generator, and
/// the full telemetry ↔ ledger reconciliation holds at scale.
#[test]
#[ignore = "ten-thousand-session telemetered soak; run with --ignored"]
fn streaming_telemetry_soak_is_bounded_memory() {
    let cat = Catalogue::standard(&BoundsEnv::default());
    let mut spec = TrafficSpec::poisson(&cat, 2024, 1500, 0.0);
    spec.mix = ArrivalMix::Diurnal {
        base: 4.0,
        peak: 14.0,
        period_epochs: 48,
    };
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    let traffic = generate(&cat, &spec);
    assert!(traffic.sessions.len() >= 10_000);

    let config = ServeConfig {
        max_resident: 6,
        queue_cap: 32,
        ..ServeConfig::default()
    };
    let tcfg = TelemetryConfig::standard(&cat);
    let (report, tele) = serve_with_telemetry(
        &cat,
        &traffic,
        &config,
        &BoundsEnv::default(),
        &Obs::off(),
        &tcfg,
    );

    // Snapshot deltas, disposition counters, sketch totals, the replay
    // clock, and the lifecycle trace all agree with the ledger.
    tele.reconcile(&report)
        .expect("telemetry reconciles with the ledger at soak scale");

    // Sketch memory is O(classes × buckets), not O(sessions): for
    // alpha = 1% a three-decade dynamic range occupies ~350 buckets,
    // so 2 classes × 3 histogram families stays far under 600/class
    // even after 10k+ samples.
    let classes = 2;
    assert!(
        tele.registry.total_buckets() < classes * 600,
        "{} buckets is not O(classes x buckets)",
        tele.registry.total_buckets()
    );

    // Count-wise reconciliation against the generator's ledger: every
    // session landed in exactly one terminal counter.
    let count = |name: &str| {
        ["stap-tiny", "sar-chain-256"]
            .iter()
            .map(|c| tele.registry.counter(name, &[("class", c)]))
            .sum::<u64>()
    };
    // Shed counters carry a `reason` label too, so sum them by prefix.
    let shed: u64 = tele
        .registry
        .counters()
        .filter(|(k, _)| k.flat().starts_with("serve_shed_total"))
        .map(|(_, v)| v)
        .sum();
    let disposed = count("serve_admitted_total") + count("serve_rejected_total") + shed;
    assert_eq!(disposed, traffic.sessions.len() as u64);
    assert_eq!(count("serve_arrivals_total"), traffic.sessions.len() as u64);

    // The replay accumulator still equals the modeled clock bit-exactly.
    assert_eq!(tele.replay_total_s.to_bits(), report.modeled_s.to_bits());
    assert!(tele.slo_evaluations > 0);
}
