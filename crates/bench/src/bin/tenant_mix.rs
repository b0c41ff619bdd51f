//! Tenant-mix admission control — the MEA3xx certifier, measured.
//!
//! Builds multi-tenant session-set manifests from the evaluation
//! pipelines ([`mealib_workloads::sessions::pipeline_sessions`]): each
//! mix rebases 2–8 real pipeline sessions into disjoint partition
//! slots, staggers their arrivals, and runs the compositional
//! interference certifier end to end. Every verdict is then *checked*
//! against the tagged interleaved cycle simulation:
//!
//! * ADMIT — the merged run must stay inside the certified set-level
//!   bounds and every per-tenant interval must contain its
//!   measurement;
//! * REJECT — the measured run must actually violate the budget the
//!   MEA3xx diagnostic proves violated;
//! * UNKNOWN — only ever produced when the certifier was *denied*
//!   information (here: a tenant with no declared partition), never as
//!   an escape hatch on a fully-declared mix.
//!
//! `verdict_correctness` is the fraction of mixes whose verdict both
//! matches the constructed expectation and survives its simulation
//! check; the perf gate floors it at 1.0 — the certifier is only fast
//! if it is also right.

use mealib_bench::{banner, section, HarnessOpts, JsonSummary};
use mealib_memsim::{simulate_tenants, SimOptions};
use mealib_serve::ClassBody;
use mealib_sim::TextTable;
use mealib_verify::interference::{
    certify_set, parse_session_set, resolved_set_config, tenant_streams,
};
use mealib_verify::{BoundsEnv, Verdict};
use mealib_workloads::sessions::pipeline_sessions;

/// Partition slots are placed on this alignment so every mix keeps a
/// generous guard band between tenants regardless of session size.
const SLOT_ALIGN: u64 = 1 << 22;

/// One constructed admission request.
struct Mix {
    name: &'static str,
    /// Pipeline session names, one tenant each (repeats allowed).
    tenants: Vec<&'static str>,
    /// Set-level wall-time envelope, when the mix declares one.
    set_time_s: Option<f64>,
    /// Tenant index whose `PARTITION` is withheld, to force UNKNOWN.
    undeclared: Option<usize>,
    expect: Verdict,
}

/// Renders the session-set manifest for `mix` from the pipeline
/// session catalogue, each body parsed once.
fn manifest(mix: &Mix, catalogue: &[(String, ClassBody)]) -> String {
    let mut src = String::new();
    if let Some(t) = mix.set_time_s {
        src.push_str(&format!("BUDGET TIME {t}\n"));
    }
    let mut cursor = 0u64;
    for (i, session_name) in mix.tenants.iter().enumerate() {
        let (_, body) = catalogue
            .iter()
            .find(|(n, _)| n == session_name)
            .unwrap_or_else(|| panic!("unknown pipeline session {session_name}"));
        let slot = body.span().next_power_of_two().max(SLOT_ALIGN);
        src.push_str(&format!("TENANT {session_name}.{i}\n"));
        if mix.undeclared != Some(i) {
            src.push_str(&format!("PARTITION 0x{cursor:x} 0x{slot:x}\n"));
        }
        if i > 0 {
            src.push_str(&format!("ARRIVAL {}\n", i as u64 * 97));
        }
        src.push_str(
            &body
                .text_at(cursor)
                .expect("pipeline sessions rebase into their slots"),
        );
        cursor += slot;
    }
    src
}

fn mixes(small: bool) -> Vec<Mix> {
    let mut out = vec![
        Mix {
            name: "pair-tiny",
            tenants: vec!["stap-tiny", "sar-chain-256"],
            set_time_s: None,
            undeclared: None,
            expect: Verdict::Admit,
        },
        Mix {
            name: "quad",
            tenants: vec!["stap-tiny", "sar-chain-256", "sar-loop-256", "stap-tiny"],
            set_time_s: None,
            undeclared: None,
            expect: Verdict::Admit,
        },
        Mix {
            name: "flood",
            tenants: vec!["stap-tiny", "sar-chain-256", "sar-loop-256", "stap-tiny"],
            set_time_s: Some(1e-9),
            undeclared: None,
            expect: Verdict::Reject,
        },
        Mix {
            name: "opaque",
            tenants: vec!["stap-tiny", "sar-chain-256"],
            set_time_s: None,
            undeclared: Some(1),
            expect: Verdict::Unknown,
        },
    ];
    if !small {
        out.push(Mix {
            name: "hex",
            tenants: vec![
                "stap-tiny",
                "stap-small",
                "sar-chain-256",
                "sar-chain-1024",
                "sar-loop-256",
                "stap-tiny",
            ],
            set_time_s: None,
            undeclared: None,
            expect: Verdict::Admit,
        });
        out.push(Mix {
            name: "oct",
            tenants: vec![
                "stap-tiny",
                "stap-small",
                "sar-chain-256",
                "sar-chain-1024",
                "sar-loop-256",
                "stap-tiny",
                "sar-chain-256",
                "sar-loop-256",
            ],
            set_time_s: None,
            undeclared: None,
            expect: Verdict::Admit,
        });
    }
    out
}

fn main() {
    let opts = HarnessOpts::from_env();
    banner(
        "tenant_mix",
        "compositional MEA3xx admission control certifies multi-tenant \
         mixes without simulating them — and every verdict holds up \
         when the interleaved mix actually runs",
    );

    let catalogue: Vec<(String, ClassBody)> = pipeline_sessions()
        .into_iter()
        .map(|(name, body)| {
            let body = ClassBody::parse(&body).expect("pipeline sessions parse");
            (name, body)
        })
        .collect();
    let env = BoundsEnv::default();
    let all = mixes(opts.small);

    let mut table = TextTable::new(vec!["mix", "tenants", "verdict", "expected", "confirmed"]);
    let (mut admitted, mut rejected, mut unknown) = (0u32, 0u32, 0u32);
    let mut correct = 0u32;
    let mut tenants_total = 0u32;
    let mut tightness_sum = 0.0f64;
    let mut tightness_n = 0u32;

    section("certifying and replaying mixes");
    for mix in &all {
        let src = manifest(mix, &catalogue);
        let set = parse_session_set(&src).expect("constructed manifests parse");
        tenants_total += mix.tenants.len() as u32;

        let cert = certify_set(&set, &env).expect("preset env validates");

        match cert.verdict {
            Verdict::Admit => admitted += 1,
            Verdict::Reject => rejected += 1,
            Verdict::Unknown => unknown += 1,
        }

        // Replay the interleaved mix and hold the verdict to account.
        let cfg = resolved_set_config(&set, &env);
        let replay = simulate_tenants(&cfg, &tenant_streams(&set), &SimOptions::dual_check());
        // DualCheck returns the cycle run; a tagged fast/cycle
        // divergence leaves the mix unconfirmed, so the
        // `verdict_correctness` floor catches engine bugs too.
        let Ok(run) = replay.inspect_err(|e| eprintln!("{}: replay failed: {e}", mix.name)) else {
            continue;
        };

        let contained = cert.bounds.set.check_contains(&run.stats).is_none()
            && cert.bounds.tenants.iter().zip(&run.tenants).all(|(tb, m)| {
                tb.elapsed.contains(m.elapsed.get()) && tb.energy.contains(m.energy.get())
            });
        let confirmed = cert.verdict == mix.expect
            && contained
            && match cert.verdict {
                // No budgets are declared on the admitted mixes, so
                // containment *is* the admission promise here.
                Verdict::Admit | Verdict::Unknown => true,
                Verdict::Reject => mix.set_time_s.is_some_and(|b| run.stats.elapsed.get() > b),
            };
        if confirmed {
            correct += 1;
        }
        if cert.bounds.set.elapsed.hi > 0.0 {
            tightness_sum += run.stats.elapsed.get() / cert.bounds.set.elapsed.hi;
            tightness_n += 1;
        }

        table.push_row(vec![
            mix.name.to_string(),
            mix.tenants.len().to_string(),
            cert.verdict.to_string(),
            mix.expect.to_string(),
            if confirmed { "yes".into() } else { "NO".into() },
        ]);
    }
    print!("{table}");

    let correctness = f64::from(correct) / all.len() as f64;
    let tightness = if tightness_n > 0 {
        tightness_sum / f64::from(tightness_n)
    } else {
        0.0
    };
    println!(
        "\nverdicts: {admitted} admitted, {rejected} rejected, {unknown} unknown \
         ({correct}/{} confirmed by interleaved replay)",
        all.len()
    );
    println!("mean set elapsed tightness {tightness:.3}");

    let mut summary = JsonSummary::new("tenant_mix");
    summary.metric("mixes", all.len() as f64);
    summary.metric("tenants_total", f64::from(tenants_total));
    summary.metric("admitted", f64::from(admitted));
    summary.metric("rejected", f64::from(rejected));
    summary.metric("unknown", f64::from(unknown));
    summary.metric("verdict_correctness", correctness);
    summary.metric("bound_tightness", tightness);
    summary.emit(&opts);

    assert!(
        (correctness - 1.0).abs() < f64::EPSILON,
        "tenant_mix: a verdict failed its simulation check"
    );
}
