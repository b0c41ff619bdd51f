//! Shared helpers for the experiment harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's per-experiment index); this library provides
//! the common header/footer formatting so their outputs read uniformly,
//! plus the [`perf`] comparison gate behind the `meaperf` binary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod perf;

use std::path::PathBuf;

use mealib_obs::{BenchRecord, Profile};

/// Command-line options shared by every harness binary.
///
/// * `--json`  — append a one-line machine-readable summary (the
///   `BENCH_*.json` record format) as the final stdout line;
/// * `--small` — run at reduced problem sizes (smoke-test mode);
/// * `--profile <path>` — write a time-resolved profile of the run as
///   Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Emit the JSON summary line.
    pub json: bool,
    /// Reduced problem sizes.
    pub small: bool,
    /// Chrome trace-event profile destination, when requested.
    pub profile: Option<PathBuf>,
}

impl HarnessOpts {
    /// Parses options from the process arguments. Unknown flags are
    /// ignored so harnesses stay forward-compatible.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses options from an explicit argument list.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = Self::default();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--json" => opts.json = true,
                "--small" => opts.small = true,
                "--profile" => {
                    opts.profile = args.next().map(PathBuf::from);
                }
                _ => {}
            }
        }
        opts
    }
}

/// A `BENCH_*.json`-compatible summary record: one JSON object per
/// harness run, `{"bench": <name>, "metrics": {<key>: <number>, ...}}`.
#[derive(Debug, Clone)]
pub struct JsonSummary {
    record: BenchRecord,
}

impl JsonSummary {
    /// Starts a summary for the named experiment.
    pub fn new(name: &str) -> Self {
        Self {
            record: BenchRecord {
                bench: name.to_string(),
                metrics: Vec::new(),
            },
        }
    }

    /// Records one scalar metric.
    pub fn metric(&mut self, key: &str, value: f64) {
        self.record.metrics.push((key.to_string(), value));
    }

    /// Renders the record as a single JSON line.
    pub fn render(&self) -> String {
        self.record.render()
    }

    /// Prints the record as the final stdout line when `opts.json` is
    /// set; otherwise does nothing.
    pub fn emit(&self, opts: &HarnessOpts) {
        if opts.json {
            println!("{}", self.render());
        }
    }
}

/// Writes `profile` to `opts.profile` (when `--profile <path>` was
/// passed) as Chrome trace-event JSON, after checking it round-trips
/// through [`mealib_obs::validate_chrome_trace`]. Prints one status
/// line on success.
///
/// # Panics
///
/// Panics if the emitted document fails its own round-trip check (a
/// harness bug, not an input problem) or the file cannot be written.
pub fn write_profile(opts: &HarnessOpts, profile: &Profile) {
    let Some(path) = &opts.profile else { return };
    let doc = profile.to_chrome_trace();
    let summary = mealib_obs::validate_chrome_trace(&doc).expect("emitted profile must round-trip");
    std::fs::write(path, &doc)
        .unwrap_or_else(|e| panic!("cannot write profile {}: {e}", path.display()));
    println!(
        "profile: wrote {} ({} spans, {} counter samples, {} tracks)",
        path.display(),
        summary.spans,
        summary.counters,
        summary.tracks
    );
}

/// Prints a harness banner naming the experiment being regenerated.
pub fn banner(experiment: &str, paper_claim: &str) {
    println!("==============================================================");
    println!("MEALib reproduction — {experiment}");
    println!("paper: {paper_claim}");
    println!("==============================================================");
}

/// Prints a section divider.
pub fn section(title: &str) {
    println!();
    println!("--- {title} ---");
}

/// Formats a gain the way the paper's figures label bars.
pub fn fmt_gain(x: f64) -> String {
    mealib_sim::report::ratio(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_formatting_delegates() {
        assert_eq!(fmt_gain(38.12), "38.1x");
    }

    #[test]
    fn opts_parse_flags_in_any_order() {
        let opts = HarnessOpts::parse(
            [
                "--small",
                "--profile",
                "/tmp/p.trace.json",
                "--verbose",
                "--json",
            ]
            .map(String::from),
        );
        assert!(opts.json && opts.small);
        assert_eq!(
            opts.profile.as_deref(),
            Some(std::path::Path::new("/tmp/p.trace.json"))
        );
        assert_eq!(HarnessOpts::parse(Vec::new()), HarnessOpts::default());
    }

    #[test]
    fn summary_renders_parseable_json() {
        let mut s = JsonSummary::new("fig09_performance");
        s.metric("avg_speedup", 38.125);
        s.metric("workloads", 7.0);
        let v = mealib_obs::json::parse(&s.render()).expect("valid JSON");
        let obj = v.as_object().expect("object");
        assert_eq!(obj["bench"].as_str(), Some("fig09_performance"));
        let metrics = obj["metrics"].as_object().expect("metrics object");
        assert_eq!(metrics["workloads"].as_f64(), Some(7.0));
        assert!((metrics["avg_speedup"].as_f64().unwrap() - 38.125).abs() < 1e-12);
    }
}
