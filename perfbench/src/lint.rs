//! `lint_corpus`: every in-tree TDL session and session-set file through
//! the public passes `mealint` runs on it.
//!
//! Set-up reads the corpus and parses it: `.tdl` files with
//! `dataflow::parse_session`, `.set` files with `parse_session_set`.
//! Reading 52 small files alone takes about 0.15 ms, which other work on
//! a shared host moved by half from one run to the next; with the parse
//! it is a millisecond of steadier work. A timed pass then takes each
//! session through `tdl::verify_program`, `dataflow::verify_session` and
//! `bounds::verify_session_bounds`, and each session set through the
//! per-tenant TDL and dataflow passes and `certify_set`. The seed only
//! orders the files. One operation is one file linted; its outcome must
//! match both the corpus naming convention (`bad/meaNNN_*` draws MEA NNN,
//! everything else is clean and every clean `.set` admits) and the pin.

use std::collections::BTreeMap;

use mealib_verify::dataflow::{self, DataflowEnv, Session};
use mealib_verify::interference::{certify_set, compose, parse_session_set, SessionSet};
use mealib_verify::{bounds, tdl, BoundsEnv, Report, TdlLimits};

use crate::spans::Recorder;
use crate::{
    check_pins, finish_trace, median, percentile, ratio, repo_root, throughput, timed, timed_iters,
    timed_setup, Checker, Metrics, RunCfg, SplitMix,
};

/// Corpus directories, relative to the repository root.
const DIRS: [&str; 3] = [
    "crates/verify/corpus/bad",
    "crates/verify/corpus/clean",
    "examples/tdl",
];

/// Traced passes over the corpus (each file timed once per pass).
const TRACED_PASSES: usize = 3;

/// A corpus file as `mealint` parses it.
enum Input {
    Session(Session),
    Set(SessionSet),
}

struct File {
    rel: String,
    text: String,
    input: Input,
}

impl File {
    fn is_set(&self) -> bool {
        matches!(self.input, Input::Set(_))
    }
}

/// Parses one file's text by its extension.
fn parse(rel: &str, text: &str) -> Result<Input, String> {
    let input = if rel.ends_with(".set") {
        parse_session_set(text).map(Input::Set)
    } else {
        dataflow::parse_session(text).map(Input::Session)
    };
    input.map_err(|e| format!("{rel}: {e}"))
}

/// Reads and parses every corpus file, in path order.
fn load_corpus() -> Result<Vec<File>, String> {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in DIRS {
        let entries = std::fs::read_dir(root.join(dir)).map_err(|e| format!("read {dir}: {e}"))?;
        let mut names: Vec<String> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tdl") || n.ends_with(".set"))
            .collect();
        names.sort();
        for name in names {
            let rel = format!("{dir}/{name}");
            let text =
                std::fs::read_to_string(root.join(&rel)).map_err(|e| format!("read {rel}: {e}"))?;
            let input = parse(&rel, &text)?;
            files.push(File { rel, text, input });
        }
    }
    if files.is_empty() {
        return Err("the lint corpus is empty".into());
    }
    Ok(files)
}

fn codes(report: &Report) -> String {
    let mut codes: Vec<&str> = report
        .diagnostics()
        .iter()
        .map(|d| d.code.as_str())
        .collect();
    codes.sort_unstable();
    codes.dedup();
    codes.join(",")
}

/// Lints one parsed file as `mealint` does, returning its outcome as
/// `<verdict> <codes>`: `clean`/`findings` for sessions, the admission
/// verdict for session sets.
fn lint(file: &File, rec: &mut Recorder) -> Result<String, String> {
    let span = rec.begin("lint.file", &file.rel);
    let env = BoundsEnv::default();
    let outcome = match &file.input {
        Input::Set(set) => {
            let mut report = Report::new();
            for tenant in &set.tenants {
                let s = rec.begin("verify.tdl", &tenant.name);
                report.merge(tdl::verify_program(
                    &tenant.session.program,
                    Some(&tenant.session.lines),
                    None,
                    &TdlLimits::default(),
                ));
                rec.end(s);
                let s = rec.begin("verify.dataflow", &tenant.name);
                report.merge(dataflow::verify_session(
                    &tenant.session,
                    &DataflowEnv::default(),
                ));
                rec.end(s);
            }
            let s = rec.begin("verify.certify", &file.rel);
            let cert = certify_set(set, &env).map_err(|e| format!("{}: {e}", file.rel));
            rec.end(s);
            let cert = cert?;
            report.merge(cert.report);
            format!("{} {}", cert.verdict.label(), codes(&report))
        }
        Input::Session(session) => {
            let s = rec.begin("verify.tdl", &file.rel);
            let mut report = tdl::verify_program(
                &session.program,
                Some(&session.lines),
                None,
                &TdlLimits::default(),
            );
            rec.end(s);
            let s = rec.begin("verify.dataflow", &file.rel);
            report.merge(dataflow::verify_session(session, &DataflowEnv::default()));
            rec.end(s);
            let s = rec.begin("verify.bounds", &file.rel);
            report.merge(bounds::verify_session_bounds(session, &env));
            rec.end(s);
            let verdict = if report.diagnostics().is_empty() {
                "clean"
            } else {
                "findings"
            };
            format!("{verdict} {}", codes(&report))
        }
    };
    rec.end(span);
    Ok(outcome.trim_end().to_string())
}

/// What the corpus naming convention promises for `file`, checked
/// against its outcome.
fn convention_holds(file: &File, outcome: &str) -> bool {
    let name = file.rel.rsplit('/').next().unwrap_or(&file.rel);
    if file.rel.contains("/bad/") {
        let promised = name.get(3..6).map(|n| format!("MEA{n}"));
        let drawn = promised.is_some_and(|code| outcome.contains(&code));
        drawn && (!file.is_set() || outcome.starts_with("reject"))
    } else if file.is_set() {
        outcome == "admit"
    } else {
        outcome == "clean"
    }
}

/// The corpus in the seed's order.
fn shuffled(mut files: Vec<File>, seed: u64) -> Vec<File> {
    let mut rng = SplitMix::new(seed);
    for i in (1..files.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        files.swap(i, j);
    }
    files
}

/// One pass over the corpus; returns each file's outcome.
fn pass(files: &[File], rec: &mut Recorder) -> Result<BTreeMap<String, String>, String> {
    files
        .iter()
        .map(|f| Ok((f.rel.clone(), lint(f, rec)?)))
        .collect()
}

pub fn run(cfg: &RunCfg, check: &mut Checker, metrics: &mut Metrics) -> Result<(), String> {
    let (setup_s, files) = timed_setup(load_corpus);
    let files = shuffled(files?, cfg.seed);
    println!("lint corpus: {} files", files.len());

    let mut off = Recorder::new(false);
    let first = pass(&files, &mut off)?;
    for f in &files {
        check.attempt(1);
        let outcome = &first[&f.rel];
        check.ensure(convention_holds(f, outcome), || {
            format!(
                "{}: outcome {outcome:?} breaks the corpus naming convention",
                f.rel
            )
        });
    }
    // Outcomes do not depend on the order, so the pin holds on every seed.
    check_pins(cfg, &first, check)?;

    if cfg.trace {
        return traced(cfg, &files, &first, check, metrics);
    }
    let mut err = None;
    let (walls, rss_mb) = timed_iters(cfg.seconds, |_| {
        let (wall, out) = timed(|| pass(&files, &mut off));
        check.attempt(files.len() as u64);
        match out {
            Ok(o) => {
                let differing = o.iter().filter(|(k, v)| first.get(*k) != Some(v)).count();
                check.fail(differing as u64, || {
                    format!("{differing} files changed outcome between passes")
                });
                wall
            }
            Err(e) => {
                err = Some(e);
                f64::INFINITY
            }
        }
    })?;
    if let Some(e) = err {
        return Err(e);
    }
    let files_per_s = throughput("files_per_s", files.len(), &walls);
    metrics.put("setup_s", setup_s, "s");
    metrics.put("ops_per_s", files_per_s, "1/s");
    metrics.put("peak_rss_mb", rss_mb, "MiB");
    Ok(())
}

/// The traced breakdown: the set-up's parse timed per file, alternating
/// untraced and traced passes, the layer split of the traced ones, and
/// compose timed apart from the certifier's other passes on the session
/// sets.
fn traced(
    cfg: &RunCfg,
    files: &[File],
    first: &BTreeMap<String, String>,
    check: &mut Checker,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let mut rec = Recorder::new(true);
    let mut off = Recorder::new(false);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_PASSES {
        for f in files {
            let s = rec.begin("verify.parse", &f.rel);
            let input = parse(&f.rel, &f.text);
            rec.end(s);
            std::hint::black_box(input?);
        }
        let (w, out) = timed(|| pass(files, &mut off));
        untraced.push(w);
        check.attempt(files.len() as u64);
        check.ensure(out? == *first, || "untraced pass changed an outcome".into());
        let (w, out) = timed(|| pass(files, &mut rec));
        traced.push(w);
        check.attempt(files.len() as u64);
        check.ensure(out? == *first, || "traced pass changed an outcome".into());
    }
    let env = BoundsEnv::default();
    let mut compose_s = 0.0;
    for f in files {
        if let Input::Set(set) = &f.input {
            let s = rec.begin("verify.compose", &f.rel);
            compose(set, &env).map_err(|e| format!("{}: {e}", f.rel))?;
            compose_s += rec.end(s);
        }
    }
    let per_pass = |name: &str| rec.total(name) / TRACED_PASSES as f64;
    let certify = rec.durations("verify.certify");
    let admits = files
        .iter()
        .filter(|f| f.is_set() && first[&f.rel].starts_with("admit"))
        .count();
    let lint_ms: Vec<f64> = rec.durations("lint.file").iter().map(|s| s * 1e3).collect();
    println!(
        "per-file latency over {} samples: p90 has {} beyond it",
        lint_ms.len(),
        lint_ms.len() / 10
    );
    metrics.put("verify.parse_s", per_pass("verify.parse"), "s");
    metrics.put("verify.tdl_s", per_pass("verify.tdl"), "s");
    metrics.put("verify.dataflow_s", per_pass("verify.dataflow"), "s");
    metrics.put("verify.bounds_s", per_pass("verify.bounds"), "s");
    metrics.put("verify.compose_s", compose_s, "s");
    metrics.put(
        "verify.passes_s",
        per_pass("verify.certify") - compose_s,
        "s",
    );
    metrics.put(
        "verify.certify_calls",
        (certify.len() / TRACED_PASSES) as f64,
        "count",
    );
    let certify_ms: Vec<f64> = certify.iter().map(|s| s * 1e3).collect();
    metrics.put("verify.certify_p50_ms", percentile(&certify_ms, 0.5), "ms");
    metrics.put("verify.certify_p99_ms", percentile(&certify_ms, 0.99), "ms");
    metrics.put(
        "verify.admit_ratio",
        ratio(admits as f64, (certify.len() / TRACED_PASSES) as f64),
        "ratio",
    );
    metrics.put("verify.lint_p50_ms", percentile(&lint_ms, 0.5), "ms");
    metrics.put("verify.lint_p90_ms", percentile(&lint_ms, 0.9), "ms");
    metrics.put("trace.overhead_s", median(&traced) - median(&untraced), "s");
    finish_trace(cfg, &rec, check)
}
