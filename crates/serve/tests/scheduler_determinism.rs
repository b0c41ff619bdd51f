//! Deterministic-replay harness: the serving loop is a pure function
//! of (catalogue, traffic, config, environment).
//!
//! Same seed ⇒ bit-identical admission decisions, queue orders, and
//! per-tenant attribution across repeated runs. The epoch replay is
//! serial, so there is no worker count to vary. The conservation
//! invariant rides along: every generated session gets
//! exactly one terminal disposition, and per-class served bytes
//! reconcile against the traffic generator's emitted-byte ledger.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use mealib_obs::Obs;
use mealib_serve::{
    generate, serve, serve_with_telemetry, Catalogue, DecisionEvent, ServeConfig, TelemetryConfig,
    TrafficSpec, UnknownPolicy,
};
use mealib_verify::BoundsEnv;
use proptest::prelude::*;

fn catalogue() -> &'static Catalogue {
    static CAT: OnceLock<Catalogue> = OnceLock::new();
    CAT.get_or_init(|| Catalogue::standard(&BoundsEnv::default()))
}

/// A quick mix over the small classes (the big stap scales are the
/// bench's and the soak test's job), with a fat impossible tier so
/// the rejection path is exercised too.
fn small_spec(seed: u64, epochs: u64, mean: f64) -> TrafficSpec {
    let mut spec = TrafficSpec::poisson(catalogue(), seed, epochs, mean);
    spec.classes
        .retain(|c| matches!(c.class.as_str(), "stap-tiny" | "sar-chain-256"));
    spec.p_impossible = 0.25;
    spec
}

#[test]
fn ten_replays_are_bit_identical() {
    let cat = catalogue();
    let traffic = generate(cat, &small_spec(1234, 4, 1.5));
    assert!(!traffic.sessions.is_empty());
    let config = ServeConfig::default();
    let env = BoundsEnv::default();
    let first = serve(cat, &traffic, &config, &env);
    let fp = first.fingerprint();
    assert!(!fp.is_empty());
    for run in 1..10 {
        let r = serve(cat, &traffic, &config, &env);
        assert_eq!(r.fingerprint(), fp, "replay {run} diverged");
        assert_eq!(r, first, "replay {run}: fingerprint collision");
    }
}

/// The telemetry artifacts inherit the scheduler's determinism: ten
/// repeats render byte-identical expositions, snapshot streams, and
/// lifecycle traces (the sketches, windows, and trace events are all
/// fed in scheduler order).
#[test]
fn telemetry_artifacts_are_bit_identical_across_repeats() {
    let cat = catalogue();
    let traffic = generate(cat, &small_spec(555, 4, 1.5));
    let env = BoundsEnv::default();
    let tcfg = TelemetryConfig::standard(cat);
    let config = ServeConfig::default();
    let run = || {
        let (report, tele) = serve_with_telemetry(cat, &traffic, &config, &env, &Obs::off(), &tcfg);
        tele.reconcile(&report).expect("telemetry reconciles");
        (
            tele.prometheus(),
            tele.snapshots_jsonl(),
            tele.chrome_trace(),
        )
    };
    let baseline = run();
    for rep in 1..10 {
        assert_eq!(run(), baseline, "repeat {rep} diverged");
    }
}

/// 64-bit FNV-1a digest, for pinning long artifacts compactly.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Golden digests of the four exported telemetry artifacts
/// (`snapshots_jsonl`, `prometheus`, `chrome_trace`, `alerts_jsonl`).
/// Repeats only compare a run with itself; these pin the renderers'
/// bytes, so a renderer rewrite that drifts by one character fails
/// here. The cases cover the default config, a tight queue with a
/// drain deadline (sheds land after the last epoch, so `finish`
/// flushes a trailing snapshot), and a device too small for one
/// class's slot.
#[test]
fn telemetry_artifacts_match_golden_digests() {
    let cat = catalogue();
    let env = BoundsEnv::default();
    let mut wide = TrafficSpec::poisson(cat, 4242, 4, 2.0);
    wide.classes.retain(|c| {
        matches!(
            c.class.as_str(),
            "stap-tiny" | "sar-chain-256" | "sar-chain-1024"
        )
    });
    wide.p_impossible = 0.25;
    let cases = [
        (
            555u64,
            ServeConfig::default(),
            small_spec(555, 4, 1.5),
            [
                0xe820_ab0b_25ac_081a,
                0xbdf3_43a1_107f_6ea3,
                0xcbe9_00a2_8d06_f442,
                0xcbf2_9ce4_8422_2325,
            ],
        ),
        (
            3,
            ServeConfig {
                queue_cap: 2,
                max_epochs: 3,
                ..ServeConfig::default()
            },
            small_spec(3, 4, 2.0),
            [
                0x5c30_95b4_b406_84a1,
                0xedbf_32ab_1060_80f0,
                0x01dd_9acb_f851_a4f3,
                0xcbf2_9ce4_8422_2325,
            ],
        ),
        (
            4242,
            ServeConfig {
                capacity: 1 << 24,
                ..ServeConfig::default()
            },
            wide,
            [
                0x9af9_93f2_2c68_b8cd,
                0x7f12_9b61_cce9_f65b,
                0x9028_6a17_8e66_54d8,
                0x5d65_4f9c_c1c0_6be0,
            ],
        ),
    ];
    let tcfg = TelemetryConfig::standard(cat);
    for (seed, config, spec, want) in &cases {
        let traffic = generate(cat, spec);
        let (report, tele) = serve_with_telemetry(cat, &traffic, config, &env, &Obs::off(), &tcfg);
        tele.reconcile(&report)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let got = [
            fnv64(tele.snapshots_jsonl().as_bytes()),
            fnv64(tele.prometheus().as_bytes()),
            fnv64(tele.chrome_trace().as_bytes()),
            fnv64(tele.alerts_jsonl().as_bytes()),
        ];
        assert_eq!(
            &got, want,
            "seed {seed}: telemetry artifact digests drifted"
        );
    }
}

/// The report's terminal vectors are the in-order projection of the
/// decision log: `rejected` is exactly the REJECT events and `shed`
/// exactly the shed events, each carrying its event's epoch, attempt
/// count or `shed_reason()`, and its session's class. Covers the
/// shed-on-UNKNOWN policy, a tight queue (tail drops) with a finite
/// drain deadline, and a capacity too small for one class's slot
/// (slot sheds).
#[test]
fn terminal_vectors_are_the_in_order_projection_of_the_log() {
    let cat = catalogue();
    let env = BoundsEnv::default();
    let mut kinds = BTreeMap::new();
    for seed in [3u64, 17, 4242] {
        // `sar-chain-1024` needs a 32 MiB slot: the 16 MiB device
        // below can never place it.
        let mut wide = TrafficSpec::poisson(cat, seed, 4, 2.0);
        wide.classes.retain(|c| {
            matches!(
                c.class.as_str(),
                "stap-tiny" | "sar-chain-256" | "sar-chain-1024"
            )
        });
        wide.p_impossible = 0.25;
        let cases = [
            (ServeConfig::default(), small_spec(seed, 4, 2.0)),
            (
                ServeConfig {
                    unknown_policy: UnknownPolicy::Shed,
                    ..ServeConfig::default()
                },
                small_spec(seed, 4, 2.0),
            ),
            (
                ServeConfig {
                    queue_cap: 2,
                    max_epochs: 3,
                    ..ServeConfig::default()
                },
                small_spec(seed, 4, 2.0),
            ),
            (
                ServeConfig {
                    capacity: 1 << 24,
                    ..ServeConfig::default()
                },
                wide,
            ),
        ];
        for (config, spec) in &cases {
            let traffic = generate(cat, spec);
            let class_of: BTreeMap<u64, &str> = traffic
                .sessions
                .iter()
                .map(|s| (s.id, s.class.as_str()))
                .collect();
            let report = serve(cat, &traffic, config, &env);
            report
                .check_conservation(&traffic, cat)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            for ev in &report.decision_log {
                *kinds.entry(ev.kind()).or_insert(0u64) += 1;
            }

            let proved: Vec<_> = report
                .decision_log
                .iter()
                .filter_map(|ev| match ev {
                    DecisionEvent::Reject {
                        epoch,
                        id,
                        codes,
                        attempts,
                    } => Some((*id, class_of[id], *epoch, codes.clone(), *attempts)),
                    _ => None,
                })
                .collect();
            let rejected: Vec<_> = report
                .rejected
                .iter()
                .map(|r| (r.id, r.class.as_str(), r.epoch, r.codes.clone(), r.retries))
                .collect();
            assert_eq!(rejected, proved, "seed {seed}: rejected != REJECT events");

            let dropped: Vec<_> = report
                .decision_log
                .iter()
                .filter_map(|ev| {
                    let reason = ev.shed_reason()?;
                    Some((ev.id(), class_of[&ev.id()], ev.epoch(), reason))
                })
                .collect();
            let shed: Vec<_> = report
                .shed
                .iter()
                .map(|s| (s.id, s.class.as_str(), s.epoch, s.reason))
                .collect();
            assert_eq!(shed, dropped, "seed {seed}: shed != shed events");
        }
    }
    // The sweep reaches every terminal path it is meant to cover.
    for kind in ["reject", "shed_queue_full", "shed_slot", "shed_drain"] {
        assert!(kinds.contains_key(kind), "no {kind} event in {kinds:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Conservation under arbitrary seeds: exactly one disposition per
    /// session, ids cover the stream, per-class bytes reconcile.
    #[test]
    fn conservation_holds_for_any_seed(seed in 0u64..1_000_000) {
        let cat = catalogue();
        let traffic = generate(cat, &small_spec(seed, 3, 1.5));
        let report = serve(cat, &traffic, &ServeConfig::default(), &BoundsEnv::default());
        prop_assert_eq!(report.total_sessions(), traffic.sessions.len());
        if let Err(e) = report.check_conservation(&traffic, cat) {
            panic!("seed {seed}: conservation violated: {e}");
        }
        // Soundness is structural, not statistical.
        prop_assert!((report.admission_soundness() - 1.0).abs() < f64::EPSILON);
        // Every terminal rejection carries the MEA3xx proof.
        for r in &report.rejected {
            prop_assert!(!r.codes.is_empty());
        }
    }

    /// Two fresh runs of the same seed agree bit-for-bit even when the
    /// seed itself is arbitrary (the fixed-seed test above pins one
    /// stream; this pins the property).
    #[test]
    fn any_seed_replays_identically(seed in 0u64..1_000_000) {
        let cat = catalogue();
        let traffic = generate(cat, &small_spec(seed, 3, 1.2));
        let env = BoundsEnv::default();
        let a = serve(cat, &traffic, &ServeConfig::default(), &env);
        let b = serve(cat, &traffic, &ServeConfig::default(), &env);
        prop_assert_eq!(a.fingerprint(), b.fingerprint());
    }
}
