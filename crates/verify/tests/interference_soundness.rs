//! Differential soundness harness for the MEA3xx interference
//! certifier.
//!
//! Ground truth is the tagged interleaved cycle engine
//! ([`mealib_memsim::simulate_tenants`]), replayed in `DualCheck` mode
//! so the measurement itself is cross-validated between both engines.
//! Three families of guarantees are enforced:
//!
//! 1. **Containment** — on every corpus manifest (bad *and* clean) and
//!    on random 2–4-tenant mixes across all three interleaving modes,
//!    every per-tenant certified counter satisfies
//!    `lo <= measured <= hi`, and the set-level bounds contain the
//!    merged-run statistics. Bytes and bursts must be *exact*
//!    (`lo == hi`): tenant programs are affine with static trip
//!    counts, and disjoint partitions cannot change a tenant's own
//!    burst stream.
//! 2. **Differential corpus** — every `corpus/bad/mea3xx_*.set` draws
//!    the exact code its filename promises and REJECTs; its
//!    minimally-fixed `corpus/clean` twin draws zero MEA3xx findings
//!    and ADMITs.
//! 3. **Verdict faithfulness** — every REJECT is *confirmed* by the
//!    simulation (the measured run really violates the budget or
//!    isolation relation the diagnostic names), and no ADMIT-ed set
//!    measurably violates any declared budget.
//!
//! On top of containment, every corpus manifest and random mix checks
//! that [`compose`]'s single tagged walk is bit-identical to
//! [`reference_compose`], the multi-pass composition it replaced.

use std::fs;
use std::path::PathBuf;

use mealib_accel::power;
use mealib_memsim::bounds::{trace_bounds, TraceBounds};
use mealib_memsim::{interleave_tenants, simulate_tenants, SimOptions, TraceBuffer};
use mealib_types::{ErrorCode, Interval, PhysAddr, Seconds};
use mealib_verify::bounds::elaborate;
use mealib_verify::interference::{
    certify_set, compose, parse_session_set, resolved_set_config, tenant_streams, SessionSet,
    SetBounds, TenantBounds,
};
use mealib_verify::{BoundsEnv, Verdict};
use proptest::prelude::*;

/// Test-only reference for [`compose`]: the straightforward multi-pass
/// derivation, one `trace_bounds` walk of the merged trace, one per
/// tenant over its own trace, and one per tenant over a copy of the
/// merged prefix ending at its last request that moves a byte.
fn reference_compose(set: &SessionSet, env: &BoundsEnv) -> SetBounds {
    let cfg = resolved_set_config(set, env);
    let streams = tenant_streams(set);
    let (merged, tags) = interleave_tenants(&streams);
    let set_tb = trace_bounds(&cfg, &merged).expect("preset env validates");
    let t_ck = cfg.timing.t_ck.get();
    let t_burst = cfg.timing.t_burst as f64;
    let cold = (cfg.timing.t_rcd + cfg.timing.t_cl) as f64;

    let mut tenants = Vec::with_capacity(set.tenants.len());
    for (i, decl) in set.tenants.iter().enumerate() {
        let e = elaborate(&decl.session);
        let own_tb = trace_bounds(&cfg, &streams[i].trace).expect("preset env validates");
        let own_bursts = own_tb.read_bursts.lo + own_tb.write_bursts.lo;
        let own_occ = own_tb.unit_bursts.iter().copied().max().unwrap_or(0) as f64 * t_burst;
        let mut prefix_occ = 0.0f64;
        // The prefix ends at the tenant's last request that moves a
        // byte: a zero-byte request issues no burst to wait behind.
        let last_moving = tags
            .iter()
            .zip(merged.bytes())
            .rposition(|(&t, &bytes)| t as usize == i && bytes > 0);
        if let Some(pos) = last_moving {
            let last = merged.get(pos).expect("tag position in bounds");
            let final_byte = last.addr.get() + last.bytes.saturating_sub(1);
            let u_final = cfg.mapping.decode(PhysAddr::new(final_byte)).unit;
            let prefix: TraceBuffer = merged.iter().take(pos + 1).collect();
            let prefix_tb = trace_bounds(&cfg, &prefix).expect("preset env validates");
            prefix_occ = cold + prefix_tb.unit_bursts[u_final] as f64 * t_burst;
        }
        let cycles = if own_bursts == 0.0 {
            Interval::ZERO
        } else {
            Interval::new(own_occ.max(prefix_occ), set_tb.cycles.hi)
        };
        let elapsed = Interval::new(cycles.lo * t_ck, set_tb.elapsed.hi.min(cycles.hi * t_ck));
        let own_bytes = (own_tb.bytes_read.lo + own_tb.bytes_written.lo) as u64;
        let energy = if own_bursts == 0.0 {
            Interval::ZERO
        } else {
            Interval::new(
                cfg.energy
                    .trace_energy(0, own_bytes, Seconds::new(elapsed.lo))
                    .get(),
                cfg.energy
                    .trace_energy(own_bursts as u64, own_bytes, Seconds::new(elapsed.hi))
                    .get(),
            )
        };
        let mut datapath_j = 0.0;
        let mut leakage_w = 0.0;
        let mut seen = std::collections::BTreeSet::new();
        for phase in e.executions() {
            for &accel in &phase.accels {
                let prof = power::profile(accel);
                datapath_j += prof.e_byte_datapath.get() * phase.bytes as f64;
                if seen.insert(accel) {
                    leakage_w += prof.p_leakage.get();
                }
            }
        }
        tenants.push(TenantBounds {
            bytes_read: own_tb.bytes_read,
            bytes_written: own_tb.bytes_written,
            read_bursts: own_tb.read_bursts,
            write_bursts: own_tb.write_bursts,
            activations: Interval::new(0.0, own_bursts),
            cycles,
            elapsed,
            energy,
            accel_energy: Interval::new(datapath_j, datapath_j + leakage_w * set_tb.elapsed.hi),
            missing_extents: e.missing_extents,
        });
    }
    SetBounds {
        config_name: cfg.name.clone(),
        peak_bandwidth: cfg.peak_bandwidth(),
        set: set_tb,
        tenants,
    }
}

/// Asserts two intervals are equal bit for bit.
fn assert_same_bits(what: &str, got: Interval, want: Interval) {
    assert!(
        got.lo.to_bits() == want.lo.to_bits() && got.hi.to_bits() == want.hi.to_bits(),
        "{what}: one-walk {got} differs from reference {want}"
    );
}

fn assert_same_trace_bounds(what: &str, got: &TraceBounds, want: &TraceBounds) {
    let fields = [
        ("bytes_read", got.bytes_read, want.bytes_read),
        ("bytes_written", got.bytes_written, want.bytes_written),
        ("read_bursts", got.read_bursts, want.read_bursts),
        ("write_bursts", got.write_bursts, want.write_bursts),
        ("activations", got.activations, want.activations),
        ("cycles", got.cycles, want.cycles),
        ("elapsed", got.elapsed, want.elapsed),
        ("energy", got.energy, want.energy),
    ];
    for (field, g, w) in fields {
        assert_same_bits(&format!("{what}.{field}"), g, w);
    }
    assert_eq!(got.unit_bursts, want.unit_bursts, "{what}.unit_bursts");
}

/// Asserts [`compose`] reproduces [`reference_compose`] on every
/// `SetBounds` and `TenantBounds` field, floats compared by `to_bits`.
fn assert_matches_reference(name: &str, set: &SessionSet, env: &BoundsEnv) {
    let got = compose(set, env).expect("preset env validates");
    let want = reference_compose(set, env);
    assert_eq!(got.config_name, want.config_name, "{name}");
    assert_eq!(
        got.peak_bandwidth.get().to_bits(),
        want.peak_bandwidth.get().to_bits(),
        "{name}"
    );
    assert_same_trace_bounds(&format!("{name}/set"), &got.set, &want.set);
    assert_eq!(got.tenants.len(), want.tenants.len(), "{name}");
    for ((decl, g), w) in set.tenants.iter().zip(&got.tenants).zip(&want.tenants) {
        let t = format!("{name}/{}", decl.name);
        let fields = [
            ("bytes_read", g.bytes_read, w.bytes_read),
            ("bytes_written", g.bytes_written, w.bytes_written),
            ("read_bursts", g.read_bursts, w.read_bursts),
            ("write_bursts", g.write_bursts, w.write_bursts),
            ("activations", g.activations, w.activations),
            ("cycles", g.cycles, w.cycles),
            ("elapsed", g.elapsed, w.elapsed),
            ("energy", g.energy, w.energy),
            ("accel_energy", g.accel_energy, w.accel_energy),
        ];
        for (field, gi, wi) in fields {
            assert_same_bits(&format!("{t}.{field}"), gi, wi);
        }
        assert_eq!(g.missing_extents, w.missing_extents, "{t}");
    }
}

/// Every session-set manifest in a corpus directory, sorted.
fn set_sources(dir: &str) -> Vec<(String, String)> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<PathBuf> = fs::read_dir(&root)
        .expect("corpus dir reads")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("set"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_str().unwrap().to_string();
            let src = fs::read_to_string(&p).expect("corpus file reads");
            (name, src)
        })
        .collect()
}

/// Replays `set` through the tagged dual-check engine and asserts
/// every composed interval contains its measurement.
fn assert_contained(name: &str, set: &SessionSet, env: &BoundsEnv) {
    let bounds = compose(set, env).expect("preset env validates");
    let cfg = resolved_set_config(set, env);
    let run = simulate_tenants(&cfg, &tenant_streams(set), &SimOptions::dual_check())
        .expect("merged replay succeeds");
    if let Some(violated) = bounds.set.check_contains(&run.stats) {
        panic!("{name}: set-level bounds violated: {violated}");
    }
    assert_eq!(bounds.tenants.len(), run.tenants.len(), "{name}");
    for ((decl, tb), m) in set.tenants.iter().zip(&bounds.tenants).zip(&run.tenants) {
        let t = &decl.name;
        // Affine programs with static trip counts: traffic is exact.
        assert!(tb.bytes_read.is_exact(), "{name}/{t}: bytes_read not exact");
        assert!(tb.read_bursts.is_exact(), "{name}/{t}: bursts not exact");
        let checks = [
            ("bytes_read", tb.bytes_read, m.bytes_read.get() as f64),
            (
                "bytes_written",
                tb.bytes_written,
                m.bytes_written.get() as f64,
            ),
            ("read_bursts", tb.read_bursts, m.read_bursts as f64),
            ("write_bursts", tb.write_bursts, m.write_bursts as f64),
            ("activations", tb.activations, m.activations as f64),
            ("cycles", tb.cycles, m.cycles.get() as f64),
            ("elapsed", tb.elapsed, m.elapsed.get()),
            ("energy", tb.energy, m.energy.get()),
        ];
        for (what, bound, measured) in checks {
            assert!(
                bound.contains(measured),
                "{name}/{t}: {what} measured {measured} outside certified {bound}"
            );
        }
    }
}

#[test]
fn every_corpus_set_is_certified_soundly() {
    let env = BoundsEnv::default();
    let mut n = 0;
    for dir in ["corpus/bad", "corpus/clean"] {
        for (name, src) in set_sources(dir) {
            let set = parse_session_set(&src).expect("corpus manifests parse");
            assert_matches_reference(&name, &set, &env);
            assert_contained(&name, &set, &env);
            n += 1;
        }
    }
    assert!(n >= 16, "expected >= 16 corpus manifests, found {n}");
}

/// A tenant whose last request moves no byte (an empty output
/// buffer, issued after its co-tenant's traffic) must not be charged
/// for the co-tenant bursts in front of that request. The clean
/// partition twin with `dsp`'s output buffer emptied and a latency
/// budget between its measured and its old certified floor: the floor
/// used to sit above the measurement and prove a false MEA302.
#[test]
fn empty_last_request_proves_no_false_latency_reject() {
    let env = BoundsEnv::default();
    let clean = set_sources("corpus/clean")
        .into_iter()
        .find(|(name, _)| name == "mea300_partition_overlap")
        .expect("clean partition twin")
        .1;
    let mut src = String::new();
    for line in clean.lines() {
        let line = if line == "BUF b 0x80000 0x40000" {
            "BUF b 0x80000 0"
        } else {
            line
        };
        src.push_str(line);
        src.push('\n');
        if line == "TENANT dsp" {
            src.push_str("BUDGET TIME 0.0000008\n");
        }
    }
    assert!(src.contains("BUF b 0x80000 0\n"), "mutant applied");
    let set = parse_session_set(&src).expect("mutant parses");
    let cert = certify_set(&set, &env).expect("preset env validates");
    assert!(
        !cert.report.has_code(ErrorCode::InterfereLatencyBudget),
        "false MEA302:\n{}",
        cert.report
    );
    assert_matches_reference("empty_last_request", &set, &env);
    assert_contained("empty_last_request", &set, &env);
    // The budget really is met, so a REJECT would have been false.
    let cfg = resolved_set_config(&set, &env);
    let run = simulate_tenants(&cfg, &tenant_streams(&set), &SimOptions::dual_check())
        .expect("merged replay succeeds");
    assert!(run.tenants[0].elapsed.get() <= 8e-7, "dsp meets its budget");
}

/// Confirms a REJECT against the measured interleaved run: the
/// violation the diagnostic proves must actually happen.
fn confirm_reject(name: &str, set: &SessionSet, code: ErrorCode, env: &BoundsEnv) {
    let cfg = resolved_set_config(set, env);
    let run = simulate_tenants(&cfg, &tenant_streams(set), &SimOptions::cycle())
        .expect("merged replay succeeds");
    match code {
        ErrorCode::InterferePartitionOverlap => {
            // Isolation is a decidable relation over the declared
            // extents: re-derive it independently of the pass.
            let parts: Vec<_> = set.tenants.iter().filter_map(|t| t.partition).collect();
            let overlap = parts
                .iter()
                .enumerate()
                .any(|(i, (_, a))| parts.iter().skip(i + 1).any(|(_, b)| a.overlaps(b)));
            let leak = set.tenants.iter().any(|t| {
                t.partition.is_some_and(|(_, p)| {
                    t.session
                        .extents
                        .values()
                        .any(|e| !e.is_empty() && !p.contains_range(e))
                })
            });
            assert!(overlap || leak, "{name}: no measurable isolation violation");
        }
        ErrorCode::InterfereBusOversubscribed => {
            let budget = set.budgets.time_s.expect("MEA301 needs a set envelope");
            assert!(
                run.stats.elapsed.get() > budget,
                "{name}: measured set elapsed {} within the envelope {budget}",
                run.stats.elapsed.get()
            );
        }
        ErrorCode::InterfereLatencyBudget => {
            let broken = set.tenants.iter().zip(&run.tenants).any(|(decl, m)| {
                decl.session
                    .budgets
                    .time_s
                    .is_some_and(|b| m.elapsed.get() > b)
            });
            assert!(
                broken,
                "{name}: no tenant measurably misses its latency budget"
            );
        }
        ErrorCode::InterfereEnergyEnvelope => {
            let set_broken = set
                .budgets
                .energy_j
                .is_some_and(|b| run.stats.energy.get() > b);
            let tenant_broken = set.tenants.iter().zip(&run.tenants).any(|(decl, m)| {
                decl.session
                    .budgets
                    .energy_j
                    .is_some_and(|b| m.energy.get() > b)
            });
            assert!(
                set_broken || tenant_broken,
                "{name}: no measurable energy violation"
            );
        }
        other => panic!("{name}: unexpected corpus code {other}"),
    }
}

#[test]
fn bad_corpus_rejects_with_exact_codes_and_simulation_confirms() {
    let env = BoundsEnv::default();
    let mut seen = std::collections::BTreeMap::<u16, u32>::new();
    for (name, src) in set_sources("corpus/bad") {
        let number: u16 = name[3..6].parse().expect("mea<code>_* filename");
        let code = ErrorCode::ALL
            .into_iter()
            .find(|c| c.number() == number)
            .expect("filename names a real code");
        let set = parse_session_set(&src).expect("corpus manifests parse");
        let cert = certify_set(&set, &env).expect("preset env validates");
        assert_eq!(cert.verdict, Verdict::Reject, "{name}");
        assert!(
            cert.report.has_code(code),
            "{name}: expected {code}, got:\n{}",
            cert.report
        );
        confirm_reject(&name, &set, code, &env);
        *seen.entry(number).or_default() += 1;
    }
    for code in [300u16, 301, 302, 303] {
        assert!(
            seen.get(&code).copied().unwrap_or(0) >= 2,
            "need >= 2 bad manifests for MEA{code}, have {seen:?}"
        );
    }
}

#[test]
fn clean_twins_admit_and_no_admitted_set_measurably_violates() {
    let env = BoundsEnv::default();
    for (name, src) in set_sources("corpus/clean") {
        let set = parse_session_set(&src).expect("corpus manifests parse");
        let cert = certify_set(&set, &env).expect("preset env validates");
        assert!(cert.report.is_clean(), "{name}: {}", cert.report);
        assert_eq!(cert.verdict, Verdict::Admit, "{name}");

        // Faithfulness: an admitted set must keep every promise when
        // the mix actually runs.
        let cfg = resolved_set_config(&set, &env);
        let run = simulate_tenants(&cfg, &tenant_streams(&set), &SimOptions::cycle())
            .expect("merged replay succeeds");
        if let Some(b) = set.budgets.time_s {
            assert!(run.stats.elapsed.get() <= b, "{name}: set envelope broken");
        }
        if let Some(b) = set.budgets.energy_j {
            let accel: f64 = cert.bounds.tenants.iter().map(|t| t.accel_energy.hi).sum();
            assert!(
                run.stats.energy.get() + accel <= b,
                "{name}: energy envelope broken"
            );
        }
        for (decl, (m, tb)) in set
            .tenants
            .iter()
            .zip(run.tenants.iter().zip(&cert.bounds.tenants))
        {
            if let Some(b) = decl.session.budgets.time_s {
                assert!(
                    m.elapsed.get() <= b,
                    "{name}/{}: latency budget broken",
                    decl.name
                );
            }
            if let Some(b) = decl.session.budgets.energy_j {
                assert!(
                    m.energy.get() + tb.accel_energy.hi <= b,
                    "{name}/{}: energy budget broken",
                    decl.name
                );
            }
        }
    }
}

/// One randomly-generated tenant: partition slot, arrival phase, loop
/// trip count, and buffer geometry (two line-aligned buffers inside
/// the tenant's 16 MiB partition slot).
#[derive(Debug, Clone)]
struct GenTenant {
    arrival: u64,
    loops: u64,
    buf_len: u64,
    accel: &'static str,
}

fn gen_tenant() -> impl Strategy<Value = GenTenant> {
    (
        0u64..2048,
        1u64..=3,
        proptest::sample::select(vec![0x8000u64, 0x10000, 0x20000]),
        proptest::sample::select(vec!["FFT", "AXPY", "RESHP"]),
    )
        .prop_map(|(arrival, loops, buf_len, accel)| GenTenant {
            arrival,
            loops,
            buf_len,
            accel,
        })
}

/// Renders a manifest for `tenants` under `layer`, each tenant in its
/// own 16 MiB partition slot — disjoint by construction.
fn render_manifest(layer: &str, tenants: &[GenTenant]) -> String {
    const SLOT: u64 = 0x100_0000;
    let mut src = format!("{layer}\n");
    for (i, t) in tenants.iter().enumerate() {
        let base = i as u64 * SLOT;
        src.push_str(&format!(
            "TENANT t{i}\nPARTITION 0x{base:x} 0x{SLOT:x}\nARRIVAL {}\n",
            t.arrival
        ));
        let a = base + 0x1000;
        let b = base + SLOT / 2;
        src.push_str(&format!(
            "BUF in{i} 0x{a:x} 0x{len:x}\nBUF out{i} 0x{b:x} 0x{len:x}\n",
            len = t.buf_len
        ));
        src.push_str(&format!(
            "LOOP {} {{\n  PASS in=in{i} out=out{i} {{\n    COMP {} params=\"p.para\"\n  }}\n}}\n",
            t.loops, t.accel
        ));
    }
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random 2–4-tenant mixes across all three interleaving modes:
    /// the composed bounds must contain the interleaved measurement
    /// per tenant, traffic must certify exactly, and — partitions
    /// being disjoint and traffic fully priced — the verdict must be
    /// a proof (never UNKNOWN, never REJECT without a budget).
    #[test]
    fn random_mixes_are_certified_soundly(
        tenants in proptest::collection::vec(gen_tenant(), 2..=4),
        layer in proptest::sample::select(vec![
            "MEM INTERLEAVED",
            "MEM XOR",
            "MEM ASYM 0x1000000",
        ]),
    ) {
        let src = render_manifest(layer, &tenants);
        let set = parse_session_set(&src).expect("generated manifests parse");
        let env = BoundsEnv::default();
        assert_matches_reference("random-mix", &set, &env);
        assert_contained("random-mix", &set, &env);
        let cert = certify_set(&set, &env).expect("preset env validates");
        prop_assert_eq!(cert.verdict, Verdict::Admit);
    }
}
