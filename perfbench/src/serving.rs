//! `serve_light` and `serve_heavy`: the certified-admission serving loop.
//!
//! Set-up is `Catalogue::standard` plus the seeded traffic; the measured
//! call is `serve_with_telemetry` (light) or `serve` (heavy) at
//! `jobs = 1`. One operation is one session disposed. The first serve
//! call must conserve sessions and bytes, keep every completion inside
//! its certified ceiling, carry a proof on every REJECT and reconcile its
//! telemetry; every later call must reproduce its fingerprint, and on the
//! default seed the fingerprint must also match the pin.
//!
//! The traced run splits the loop's wall time by layer from outside: it
//! walks `ServeReport::decision_log` epoch by epoch, rebuilds each trial
//! batch the loop certified with the public `PartitionTable` and
//! `Resident::place`, and re-issues and times every layer call. Each
//! re-derived verdict must equal the logged decision, and each replayed
//! tenant must equal its `CompletedSession` bit for bit.

use std::collections::BTreeMap;

use mealib_memsim::{interleave_tenants, simulate_tenants, EngineRun, SimOptions};
use mealib_obs::{validate_chrome_trace, validate_exposition, Obs};
use mealib_serve::{
    generate, serve, serve_with_telemetry, AdmissionGate, ArrivalMix, Catalogue, CompletedSession,
    DecisionEvent, DescriptorBatcher, PartitionTable, Resident, ServeConfig, ServeReport,
    SessionRequest, TelemetryConfig, TelemetryReport, Traffic, TrafficSpec,
};
use mealib_verify::interference::{
    certify_set, compose, parse_session_set, resolved_set_config, tenant_streams, SessionSet,
};
use mealib_verify::{BoundsEnv, Verdict};

use crate::spans::Recorder;
use crate::{
    check_pins, finish_trace, fnv64, median, percentile, ratio, throughput, timed, timed_iters,
    timed_setup, Checker, Metrics, RunCfg, SplitMix, DEFAULT_SEED,
};

/// What a serve workload serves.
struct Shape {
    classes: &'static [&'static str],
    /// Sessions of each class in the stream.
    per_class: usize,
    mix: ArrivalMix,
    /// Epochs the generator starts from; doubled until every class has
    /// `per_class` sessions.
    epochs: u64,
    /// Share of sessions with a budget below their class's certified
    /// floor, which the certifier must REJECT.
    p_impossible: f64,
    /// Share of best-effort sessions (no declared budget).
    p_best_effort: f64,
    /// When set, sessions arrive in waves of one per class, with a
    /// seeded gap of `gap..2 * gap` idle epochs after each wave, instead
    /// of on the drawn arrival epochs.
    wave_gap: Option<u64>,
    telemetry: bool,
}

fn shape(workload: &str) -> Shape {
    if workload == "serve_light" {
        Shape {
            classes: &["stap-tiny", "sar-chain-256"],
            per_class: 600,
            mix: ArrivalMix::Diurnal {
                base: 1.0,
                peak: 5.0,
                period_epochs: 48,
            },
            epochs: 256,
            p_impossible: 0.1,
            p_best_effort: 0.2,
            wave_gap: None,
            telemetry: true,
        }
    } else {
        // With this few sessions, the batches the drawn arrivals and
        // budget tiers form decide the certify work: the same code took
        // 2.4 s on one seed and 3.3 s on another. Every session here has
        // a generous budget and every wave drains before the next, so
        // each seed certifies and replays the same batches and the cost
        // measures the code. `serve_light` covers REJECT and best effort.
        Shape {
            classes: &["stap-small", "sar-chain-1024", "sar-loop-256"],
            per_class: 4,
            mix: ArrivalMix::Poisson {
                mean_per_epoch: 6.0,
            },
            epochs: 4,
            p_impossible: 0.0,
            p_best_effort: 0.0,
            wave_gap: Some(16),
            telemetry: false,
        }
    }
}

/// The seeded session stream. `generate` draws the arrivals and each
/// session's budget tier; the first `per_class` sessions of each class
/// are kept and dealt out round-robin by class, over the drawn arrival
/// epochs or, with [`Shape::wave_gap`], over seeded waves. Every seed
/// thus serves the same class mix in the same class order, and the seed
/// moves arrival times and budgets.
fn traffic(cat: &Catalogue, shape: &Shape, seed: u64) -> Traffic {
    let mut epochs = shape.epochs;
    loop {
        let mut spec = TrafficSpec::poisson(cat, seed, epochs, 1.0);
        spec.classes
            .retain(|c| shape.classes.contains(&c.class.as_str()));
        spec.mix = shape.mix;
        spec.p_impossible = shape.p_impossible;
        spec.p_best_effort = shape.p_best_effort;
        let mut by_class: BTreeMap<&str, Vec<SessionRequest>> = BTreeMap::new();
        let mut arrivals = Vec::new();
        for s in generate(cat, &spec).sessions {
            let kept = by_class.entry(shape_class(shape, &s.class)).or_default();
            if kept.len() < shape.per_class {
                arrivals.push(s.arrival_epoch);
                kept.push(s);
            }
        }
        if by_class.len() == shape.classes.len()
            && by_class.values().all(|v| v.len() == shape.per_class)
        {
            if let Some(gap) = shape.wave_gap {
                let mut rng = SplitMix::new(seed);
                let mut epoch = 0;
                for wave in arrivals.chunks_mut(shape.classes.len()) {
                    wave.fill(epoch);
                    epoch += gap + rng.next_u64() % gap;
                }
            }
            let mut sessions = Vec::with_capacity(arrivals.len());
            let mut emitted_bytes = BTreeMap::new();
            for (k, arrival_epoch) in arrivals.into_iter().enumerate() {
                let class = shape.classes[k % shape.classes.len()];
                let s = &by_class[class][k / shape.classes.len()];
                let bytes = cat.get(class).expect("catalogue class").trace_bytes;
                *emitted_bytes.entry(s.class.clone()).or_insert(0) += bytes;
                sessions.push(SessionRequest {
                    id: k as u64,
                    arrival_epoch,
                    ..s.clone()
                });
            }
            return Traffic {
                sessions,
                emitted_bytes,
            };
        }
        epochs *= 2;
    }
}

/// `class` as one of the shape's own names.
fn shape_class(shape: &Shape, class: &str) -> &'static str {
    shape
        .classes
        .iter()
        .find(|c| **c == class)
        .expect("the spec draws only the shape's classes")
}

/// The fingerprint cut into pinnable digests: one per session (its
/// disposition line plus its decision lines), one for the epoch ledger,
/// and the totals line in clear.
fn digests(report: &ServeReport) -> BTreeMap<String, String> {
    let mut lines: BTreeMap<String, String> = BTreeMap::new();
    for line in report.fingerprint().lines() {
        let mut tok = line.split(' ');
        let key = match tok.next() {
            Some("C" | "R" | "S") => tok.next().map(|id| format!("s{id:0>6}")),
            Some("D") => tok
                .nth(2)
                .map(|id| format!("s{:0>6}", id.trim_start_matches('s'))),
            Some("E") => Some("epochs".to_string()),
            _ => None,
        };
        match key {
            Some(k) => {
                let acc = lines.entry(k).or_default();
                acc.push_str(line);
                acc.push('\n');
            }
            None => {
                lines.insert("totals".into(), line.to_string());
            }
        }
    }
    lines
        .into_iter()
        .map(|(k, v)| {
            let v = if k == "totals" {
                v
            } else {
                format!("{:016x}", fnv64(v.as_bytes()))
            };
            (k, v)
        })
        .collect()
}

/// Checks one serve call's contracts; one operation per session.
fn check_contracts(
    report: &ServeReport,
    tele: Option<&TelemetryReport>,
    traffic: &Traffic,
    cat: &Catalogue,
    check: &mut Checker,
) {
    check.attempt(traffic.sessions.len() as u64);
    if let Err(e) = report.check_conservation(traffic, cat) {
        check.fail(1, || format!("conservation: {e}"));
    }
    let unsound = report
        .completed
        .iter()
        .filter(|c| c.service_s > c.certified_elapsed_hi)
        .count();
    check.fail(unsound as u64, || {
        format!("admission_soundness: {unsound} completions exceed their certified ceiling")
    });
    let unproved = report
        .rejected
        .iter()
        .filter(|r| r.codes.is_empty())
        .count();
    check.fail(unproved as u64, || {
        format!("{unproved} REJECTs carry no MEA3xx proof")
    });
    if let Some(t) = tele {
        if let Err(e) = t.reconcile(report) {
            check.fail(1, || format!("telemetry does not reconcile: {e}"));
        }
    }
}

/// Counts differing digests between two serve calls.
fn differing(a: &BTreeMap<String, String>, b: &BTreeMap<String, String>) -> u64 {
    let missing = b.keys().filter(|k| !a.contains_key(*k)).count();
    (a.iter().filter(|(k, v)| b.get(*k) != Some(v)).count() + missing) as u64
}

pub fn run(cfg: &RunCfg, check: &mut Checker, metrics: &mut Metrics) -> Result<(), String> {
    let shape = shape(&cfg.workload);
    let env = BoundsEnv::default();
    if cfg.trace {
        return traced(cfg, &shape, &env, check, metrics);
    }
    let (setup_s, (cat, traffic)) = timed_setup(|| {
        let cat = Catalogue::standard(&env);
        let traffic = traffic(&cat, &shape, cfg.seed);
        (cat, traffic)
    });
    let config = ServeConfig::default();
    let tcfg = TelemetryConfig::standard(&cat);
    let n = traffic.sessions.len();
    println!(
        "{n} sessions over {} classes, telemetry {}",
        shape.classes.len(),
        if shape.telemetry { "on" } else { "off" }
    );

    let mut first: Option<BTreeMap<String, String>> = None;
    let mut pinned = Ok(());
    let (walls, rss_mb) = timed_iters(cfg.seconds, |_| {
        let (wall, (report, tele)) = timed(|| {
            if shape.telemetry {
                let (r, t) =
                    serve_with_telemetry(&cat, &traffic, &config, &env, &Obs::off(), &tcfg);
                (r, Some(t))
            } else {
                (serve(&cat, &traffic, &config, &env), None)
            }
        });
        let got = digests(&report);
        match &first {
            None => {
                // The contracts take longer than the serve call itself
                // (`TelemetryReport::reconcile` alone about 5 s at 1,200
                // sessions), so only the first call is checked against
                // them; later calls must reproduce its fingerprint.
                check_contracts(&report, tele.as_ref(), &traffic, &cat, check);
                if cfg.seed == DEFAULT_SEED {
                    pinned = check_pins(cfg, &got, check);
                }
                first = Some(got);
            }
            Some(want) => {
                check.attempt(traffic.sessions.len() as u64);
                let d = differing(want, &got);
                check.fail(d, || {
                    format!("{d} sessions differ from the first serve call")
                });
            }
        }
        wall
    })?;
    pinned?;
    let sessions_per_s = throughput("sessions_per_s", n, &walls);
    metrics.put("setup_s", setup_s, "s");
    metrics.put("ops_per_s", sessions_per_s, "1/s");
    metrics.put("peak_rss_mb", rss_mb, "MiB");
    Ok(())
}

/// What one walk of the decision log re-derived.
#[derive(Default)]
struct Walk {
    /// Per epoch that replayed: the admitted set.
    sets: Vec<SessionSet>,
    /// Every trial batch certified, in log order.
    trials: Vec<SessionSet>,
    certify_calls: u64,
    admits: u64,
    bursts: u64,
}

/// Which verdict a logged decision implies.
fn logged_verdict(ev: &DecisionEvent) -> Option<Verdict> {
    match ev {
        DecisionEvent::Admit { .. } => Some(Verdict::Admit),
        DecisionEvent::Reject { .. } | DecisionEvent::Backoff { .. } => Some(Verdict::Reject),
        DecisionEvent::UnknownRetry { .. } | DecisionEvent::ShedPolicy { .. } => {
            Some(Verdict::Unknown)
        }
        // Arrival and drain sheds never reach the certifier.
        _ => None,
    }
}

fn bursts(run: &EngineRun) -> u64 {
    run.vaults
        .iter()
        .map(|v| v.read_bursts + v.write_bursts)
        .sum()
}

/// Re-derives every trial batch and replay of `report` and re-issues the
/// layer calls, under `rec`'s spans.
fn walk(
    cat: &Catalogue,
    traffic: &Traffic,
    report: &ServeReport,
    config: &ServeConfig,
    env: &BoundsEnv,
    rec: &mut Recorder,
    check: &mut Checker,
) -> Result<Walk, String> {
    let completed: BTreeMap<u64, &CompletedSession> =
        report.completed.iter().map(|c| (c.id, c)).collect();
    let gate = AdmissionGate::new(env.clone());
    let mut table = PartitionTable::new(config.capacity);
    let mut out = Walk::default();
    let root = rec.begin("serve.walk", "decision_log");
    let b = rec.begin("runtime.plan", "batcher");
    let mut batcher = DescriptorBatcher::new(cat);
    rec.end(b);

    let log = &report.decision_log;
    let mut i = 0;
    while i < log.len() {
        let epoch = log[i].epoch();
        let end = i + log[i..].iter().take_while(|e| e.epoch() == epoch).count();
        let ep = rec.begin("serve.epoch", format_args!("e{epoch}"));
        let mut batch: Vec<Resident> = Vec::new();
        let mut admitted = None;
        for ev in &log[i..end] {
            let Some(want) = logged_verdict(ev) else {
                continue;
            };
            let id = ev.id();
            let trial = rec.begin("serve.trial", format_args!("s{id}"));
            let req = traffic
                .sessions
                .get(id as usize)
                .ok_or_else(|| format!("decision for unknown session {id}"))?;
            let class = cat
                .get(&req.class)
                .ok_or_else(|| format!("unknown class {}", req.class))?;
            let partition = table
                .alloc(class.slot)
                .ok_or_else(|| format!("e{epoch} s{id}: no partition where the loop had one"))?;
            let candidate = Resident::place(
                req.clone(),
                &class.body,
                partition,
                batch.len() as u64 * config.stagger_slots,
            );
            let mut members = batch.clone();
            members.push(candidate.clone());

            let s = rec.begin("serve.manifest", format_args!("s{id}"));
            let src = gate.manifest(&members);
            rec.end(s);
            let s = rec.begin("verify.parse", format_args!("s{id}"));
            let set = parse_session_set(&src).map_err(|e| format!("s{id}: {e}"));
            rec.end(s);
            let set = set?;
            let s = rec.begin("verify.certify", format_args!("s{id}"));
            let cert = certify_set(&set, env).map_err(|e| format!("s{id}: {e}"));
            rec.end(s);
            let cert = cert?;
            out.trials.push(set.clone());
            out.certify_calls += 1;

            check.attempt(1);
            check.ensure(cert.verdict == want, || {
                format!(
                    "e{epoch} s{id}: re-derived {} but the log says {ev}",
                    cert.verdict
                )
            });
            match ev {
                DecisionEvent::Admit {
                    part_start,
                    part_len,
                    ..
                } => check.ensure(
                    (*part_start, *part_len) == (partition.start().get(), partition.len().get()),
                    || format!("e{epoch} s{id}: partition differs from the log"),
                ),
                DecisionEvent::Reject { codes, .. } => check.ensure(*codes == cert.codes(), || {
                    format!("e{epoch} s{id}: proof codes differ from the log")
                }),
                _ => {}
            }
            if cert.verdict == Verdict::Admit {
                out.admits += 1;
                batch.push(candidate);
                admitted = Some((set, cert));
            } else {
                table.free(partition);
            }
            rec.end(trial);
        }

        if let Some((set, cert)) = admitted {
            for r in &batch {
                let class = cat.get(&r.request.class).expect("admitted class");
                let s = rec.begin("runtime.plan", format_args!("s{}", r.request.id));
                batcher.plan_class(&class.body);
                rec.end(s);
            }
            let cfg = resolved_set_config(&set, env);
            let s = rec.begin("verify.elaborate", format_args!("e{epoch}"));
            let streams = tenant_streams(&set);
            rec.end(s);
            let s = rec.begin("memsim.interleave", format_args!("e{epoch}"));
            std::hint::black_box(interleave_tenants(&streams));
            rec.end(s);
            let s = rec.begin("memsim.replay", format_args!("e{epoch}"));
            let run = simulate_tenants(&cfg, &streams, &SimOptions::default().jobs(1));
            rec.end(s);
            let run = run.map_err(|e| format!("e{epoch}: {e}"))?;
            out.bursts += bursts(&run);
            for (k, r) in batch.iter().enumerate() {
                let id = r.request.id;
                let (t, tb) = (&run.tenants[k], &cert.bounds.tenants[k]);
                check.attempt(1);
                let same = completed.get(&id).is_some_and(|c| {
                    c.admitted_epoch == epoch
                        && c.service_s.to_bits() == t.elapsed.get().to_bits()
                        && c.bytes == t.bytes_read.get() + t.bytes_written.get()
                        && c.energy_j.to_bits() == t.energy.get().to_bits()
                        && c.certified_elapsed_lo.to_bits() == tb.elapsed.lo.to_bits()
                        && c.certified_elapsed_hi.to_bits() == tb.elapsed.hi.to_bits()
                });
                check.ensure(same, || {
                    format!("e{epoch} s{id}: replay differs from its completion record")
                });
            }
            for r in &batch {
                table.free(r.partition);
            }
            out.sets.push(set);
        }
        rec.end(ep);
        i = end;
    }
    check.attempt(1);
    check.ensure(
        (batcher.planned(), batcher.cache_hits()) == (report.plans_planned, report.plan_cache_hits),
        || "plan counters differ from the report".into(),
    );
    rec.end(root);
    Ok(out)
}

/// Serve calls timed in the traced run; `serve.loop_s` is their median.
/// Two keep the traced `serve_light` run near a minute.
const LOOP_REPS: usize = 2;

/// The traced breakdown of one serve workload.
fn traced(
    cfg: &RunCfg,
    shape: &Shape,
    env: &BoundsEnv,
    check: &mut Checker,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut rec = Recorder::new(true);
    let s = rec.begin("serve.catalogue", "standard");
    let cat = Catalogue::standard(env);
    let catalogue_s = rec.end(s);
    let s = rec.begin("serve.traffic", cfg.seed);
    let traffic = traffic(&cat, shape, cfg.seed);
    let traffic_s = rec.end(s);
    let config = ServeConfig::default();

    // The loop is timed LOOP_REPS times. With telemetry, each plain call
    // is paired with a `serve_with_telemetry` call on the same traffic,
    // the order alternating: the second call of a pair ran up to 10%
    // faster whichever it was.
    let tcfg = TelemetryConfig::standard(&cat);
    let with_telemetry = |rec: &mut Recorder, rep: usize| {
        let s = rec.begin("serve.loop", format_args!("serve_with_telemetry#{rep}"));
        let (report, tele) = serve_with_telemetry(&cat, &traffic, &config, env, &Obs::off(), &tcfg);
        (rec.end(s), report, tele)
    };
    let (mut loops, mut tele_extra) = (Vec::new(), Vec::new());
    let mut out = None;
    for rep in 0..LOOP_REPS {
        let tele_first = shape.telemetry && rep % 2 == 1;
        let mut teled = tele_first.then(|| with_telemetry(&mut rec, rep));
        let s = rec.begin("serve.loop", format_args!("serve#{rep}"));
        let report = serve(&cat, &traffic, &config, env);
        loops.push(rec.end(s));
        check_contracts(&report, None, &traffic, &cat, check);
        if shape.telemetry && !tele_first {
            teled = Some(with_telemetry(&mut rec, rep));
        }
        let tele = teled.map(|(secs, tele_report, tele)| {
            tele_extra.push(secs - loops[rep]);
            check_contracts(&tele_report, Some(&tele), &traffic, &cat, check);
            check.attempt(1);
            check.ensure(tele_report.fingerprint() == report.fingerprint(), || {
                "telemetry changed the serve report".into()
            });
            tele
        });
        out = Some((report, tele));
    }
    let (report, tele) = out.expect("LOOP_REPS is positive");
    let loop_s = median(&loops);

    let (mut overhead_s, mut export_s) = (0.0, 0.0);
    if let Some(tele) = tele {
        overhead_s = median(&tele_extra);
        let s = rec.begin("telemetry.export", "all");
        let prom = tele.prometheus();
        let snaps = tele.snapshots_jsonl();
        let trace = tele.chrome_trace();
        let alerts = tele.alerts_jsonl();
        export_s = rec.end(s);
        check.attempt(2);
        check.ensure(validate_exposition(&prom).is_ok(), || {
            "Prometheus exposition does not validate".into()
        });
        check.ensure(validate_chrome_trace(&trace).is_ok(), || {
            "lifecycle trace does not validate".into()
        });
        std::hint::black_box((snaps, alerts));
    }

    let mut off = Recorder::new(false);
    let (untraced_s, w) = timed(|| walk(&cat, &traffic, &report, &config, env, &mut off, check));
    w?;
    let (traced_s, w) = timed(|| walk(&cat, &traffic, &report, &config, env, &mut rec, check));
    let w = w?;

    // `compose` apart from the walk, so that its memory traffic does not
    // slow the certify calls the walk times.
    for (k, set) in w.trials.iter().enumerate() {
        let s = rec.begin("verify.compose", format_args!("trial{k}"));
        let composed = compose(set, env).map_err(|e| format!("trial {k}: {e}"));
        rec.end(s);
        composed?;
    }

    // jobs = 2 against jobs = 1 on every replayed epoch, paired.
    let (mut jobs1_s, mut jobs2_s) = (0.0, 0.0);
    for (e, set) in w.sets.iter().enumerate() {
        let cfg_mem = resolved_set_config(set, env);
        let streams = tenant_streams(set);
        let s = rec.begin("memsim.replay_jobs1", e);
        let one = simulate_tenants(&cfg_mem, &streams, &SimOptions::default().jobs(1));
        jobs1_s += rec.end(s);
        let s = rec.begin("memsim.replay_jobs2", e);
        let two = simulate_tenants(&cfg_mem, &streams, &SimOptions::default().jobs(2));
        jobs2_s += rec.end(s);
        check.attempt(1);
        check.ensure(one.is_ok() && one == two, || {
            format!("replay {e}: jobs = 2 differs from jobs = 1")
        });
    }

    let certify_s = rec.total("verify.certify");
    let compose_s = rec.total("verify.compose");
    let replay_s = rec.total("memsim.replay");
    let attributed = rec.total("serve.manifest")
        + rec.total("verify.parse")
        + certify_s
        + rec.total("runtime.plan")
        + rec.total("verify.elaborate")
        + replay_s;
    let certify_ms: Vec<f64> = rec
        .durations("verify.certify")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    println!(
        "{} sessions, {} certify calls ({} admits), {} replays; serve loop {loop_s:.3} s, \
         layers attribute {attributed:.3} s",
        traffic.sessions.len(),
        w.certify_calls,
        w.admits,
        w.sets.len()
    );
    metrics.put("serve.catalogue_s", catalogue_s, "s");
    metrics.put("serve.traffic_s", traffic_s, "s");
    metrics.put("serve.loop_s", loop_s, "s");
    metrics.put("serve.manifest_s", rec.total("serve.manifest"), "s");
    metrics.put("serve.unattributed_s", loop_s - attributed, "s");
    metrics.put("serve.attributed_share", ratio(attributed, loop_s), "ratio");
    metrics.put("verify.parse_s", rec.total("verify.parse"), "s");
    metrics.put("verify.compose_s", compose_s, "s");
    metrics.put("verify.passes_s", certify_s - compose_s, "s");
    metrics.put("verify.certify_calls", w.certify_calls as f64, "count");
    metrics.put("verify.certify_p50_ms", percentile(&certify_ms, 0.5), "ms");
    metrics.put("verify.certify_p99_ms", percentile(&certify_ms, 0.99), "ms");
    metrics.put(
        "verify.admit_ratio",
        ratio(w.admits as f64, w.certify_calls as f64),
        "ratio",
    );
    metrics.put("verify.elaborate_s", rec.total("verify.elaborate"), "s");
    metrics.put("runtime.plan_s", rec.total("runtime.plan"), "s");
    metrics.put(
        "runtime.plan_hit_ratio",
        ratio(report.plan_cache_hits as f64, report.plans_planned as f64),
        "ratio",
    );
    metrics.put("memsim.interleave_s", rec.total("memsim.interleave"), "s");
    metrics.put("memsim.replay_s", replay_s, "s");
    metrics.put(
        "memsim.replay_bursts_per_s",
        ratio(w.bursts as f64, replay_s),
        "1/s",
    );
    metrics.put(
        "memsim.replay_jobs2_speedup",
        ratio(jobs1_s, jobs2_s),
        "ratio",
    );
    metrics.put("telemetry.overhead_s", overhead_s, "s");
    metrics.put("telemetry.export_s", export_s, "s");
    metrics.put("trace.overhead_s", traced_s - untraced_s, "s");
    finish_trace(cfg, &rec, check)
}
