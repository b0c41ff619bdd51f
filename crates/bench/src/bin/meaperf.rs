//! `meaperf` — the perf-trajectory gate.
//!
//! Compares two or more schema-versioned `BENCH_*.json` summaries in
//! chronological order and exits nonzero when a metric regresses beyond
//! the threshold. BENCH files carry modeled and counted metrics only;
//! host wall time is measured by the separate `perfbench` benchmark.
//!
//! ```text
//! meaperf [options] BENCH_pr4.json BENCH_pr5.json [BENCH_pr6.json ...]
//!
//!   --threshold-pct <N>        allowed worsening, percent (default 5);
//!                              finite and non-negative
//!   --min <bench.key=N>        absolute floor on a metric of the *newest*
//!                              summary (repeatable); fails the gate when
//!                              the metric is below N or missing; N
//!                              must be finite
//!   --json                     machine-readable report per comparison
//!   --check-trace <FILE>       standalone: validate a Chrome trace-event
//!                              profile (as written by --profile) and exit
//!   --convert <FILE>           standalone: re-render a legacy BENCH file
//!                              in the current schema on stdout and exit
//! ```
//!
//! With more than two summaries, adjacent pairs are compared in
//! sequence (pr4→pr5, pr5→pr6, ...); the gate fails if any step fails.

use std::process::ExitCode;

use mealib_bench::perf::{
    check_minimums, compare, parse_threshold_pct, MinRule, DEFAULT_THRESHOLD_PCT,
};
use mealib_obs::bench_schema::BenchSummary;

fn usage() -> ExitCode {
    eprintln!(
        "usage: meaperf [--threshold-pct N] [--min bench.key=N] [--json] \
         BENCH_old.json BENCH_new.json ...\n\
         \x20      meaperf --check-trace FILE.trace.json\n\
         \x20      meaperf --convert BENCH_legacy.json"
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<BenchSummary, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("meaperf: cannot read {path}: {e}");
        ExitCode::from(2)
    })?;
    BenchSummary::parse(&text).map_err(|e| {
        eprintln!("meaperf: {path}: {e}");
        ExitCode::from(2)
    })
}

fn check_trace(path: &str) -> ExitCode {
    let doc = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("meaperf: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match mealib_obs::validate_chrome_trace(&doc) {
        Ok(s) => {
            println!(
                "{path}: valid ({} events, {} spans, {} counter samples, {} tracks)",
                s.events, s.spans, s.counters, s.tracks
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("meaperf: {path}: invalid trace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn convert(path: &str) -> ExitCode {
    match load(path) {
        Ok(summary) => {
            // render() always emits the current schema version, so a
            // legacy file parses as version 0 and re-renders upgraded.
            print!("{}", summary.render());
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn main() -> ExitCode {
    let mut threshold_pct = DEFAULT_THRESHOLD_PCT;
    let mut json = false;
    let mut minimums: Vec<MinRule> = Vec::new();
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--threshold-pct" => match args.next().as_deref().and_then(parse_threshold_pct) {
                Some(n) => threshold_pct = n,
                None => return usage(),
            },
            "--min" => match args.next().as_deref().and_then(MinRule::parse) {
                Some(rule) => minimums.push(rule),
                None => return usage(),
            },
            "--check-trace" => {
                return match args.next() {
                    Some(path) => check_trace(&path),
                    None => usage(),
                };
            }
            "--convert" => {
                return match args.next() {
                    Some(path) => convert(&path),
                    None => usage(),
                };
            }
            "--help" | "-h" => return usage(),
            _ if arg.starts_with("--") => return usage(),
            _ => files.push(arg),
        }
    }
    if files.len() < 2 {
        return usage();
    }

    let mut failed = false;
    for pair in files.windows(2) {
        let (old_path, new_path) = (&pair[0], &pair[1]);
        let before = match load(old_path) {
            Ok(s) => s,
            Err(code) => return code,
        };
        let after = match load(new_path) {
            Ok(s) => s,
            Err(code) => return code,
        };
        let report = compare(&before, &after, threshold_pct);
        if json {
            println!("{}", report.to_json());
        } else {
            println!("meaperf: {old_path} -> {new_path}");
            for note in [&before, &after]
                .iter()
                .zip([old_path, new_path])
                .filter(|(s, _)| s.is_legacy())
                .map(|(_, p)| p)
            {
                println!("note {note}: legacy (pre-schema) file; consider --convert");
            }
            print!("{}", report.render());
        }
        failed |= report.failed();
    }
    if !minimums.is_empty() {
        // Floors apply to the newest summary only — they assert where
        // the trajectory *ends up*, not how it got there.
        let newest_path = files.last().expect("len checked above");
        let newest = match load(newest_path) {
            Ok(s) => s,
            Err(code) => return code,
        };
        let violations = check_minimums(&newest, &minimums);
        for v in &violations {
            println!("{v}");
        }
        if violations.is_empty() {
            println!(
                "{} floor(s) checked against {newest_path} — ok",
                minimums.len()
            );
        }
        failed |= !violations.is_empty();
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
