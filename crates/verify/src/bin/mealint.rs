//! `mealint` — cross-layer static verifier for MEALib artifacts.
//!
//! ```text
//! mealint [--codes] [--format text|json] [--deny BAND|CODE]... [--allow CODE|BAND]... FILE...
//! ```
//!
//! Each file is sniffed and routed to the right pass: binary images
//! starting with the `"MEAL"` magic run the descriptor pass, text in
//! the `key = value` memconfig format runs the simulator-config pass,
//! text containing a `TENANT` directive runs in **session-set mode**
//! (per-tenant TDL + dataflow passes plus the MEA3xx multi-tenant
//! interference certification, printing the ADMIT/REJECT/UNKNOWN
//! admission verdict), and everything else is treated as a TDL
//! analysis session (plain TDL plus optional
//! `HOST`/`FLUSH`/`BUF`/`BUDGET`/`MEM` directives), which runs the TDL
//! semantic pass, the dataflow & coherence analysis, and the MEA2xx
//! static-bounds certification.
//!
//! Severity policy: `--deny` escalates every diagnostic matching a band
//! (`MEA0xx`, `MEA1xx`, `MEA2xx`, `MEA3xx`) or a single code (`MEA104`)
//! to error severity; `--allow` demotes matches to warnings. A specific code
//! selector beats a band selector, and at equal specificity `--allow`
//! wins, so `--deny MEA2xx --allow MEA202` gates the band while keeping
//! one code advisory. The intended CI posture during the MEA2xx rollout
//! is `--deny MEA0xx --deny MEA1xx --allow MEA2xx`: established bands
//! hard-gate, bounds findings are report-only.
//!
//! Exit status (stable, scripts may rely on it): `0` when every file is
//! clean or carries only warnings after policy, `1` when any file has
//! error-severity findings after policy, `2` on usage, I/O, or parse
//! failures.
//!
//! With `--format json`, every diagnostic is emitted as one JSON object
//! per line (`file`/`code`/`number`/`band`/`severity`/`message`/`span`)
//! for CI and editor consumption; clean files emit nothing. Exit-code
//! semantics are identical in both formats.

use std::process::ExitCode;

use mealib_obs::json::Object;
use mealib_tdl::descriptor::MAGIC;
use mealib_verify::{
    bounds, dataflow, descriptor, interference, memconfig, memsim, tdl, BoundsEnv, DataflowEnv,
    Report, Severity, Span, TdlLimits, Verdict,
};

enum Outcome {
    Clean,
    Findings(Report),
    /// Session-set mode: the admission verdict plus any findings.
    Certified(Verdict, Report),
    Unusable(String),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// A `--deny`/`--allow` selector: a whole band or one code.
#[derive(Clone, PartialEq, Eq)]
enum Selector {
    Band(String),
    Code(String),
}

impl Selector {
    fn parse(raw: &str) -> Result<Self, String> {
        let canon = raw.to_ascii_uppercase();
        if matches!(canon.as_str(), "MEA0XX" | "MEA1XX" | "MEA2XX" | "MEA3XX") {
            // Bands are spelled MEAnxx; normalize the xx back down.
            return Ok(Selector::Band(canon.replace("XX", "xx")));
        }
        if mealib_verify::ErrorCode::ALL
            .iter()
            .any(|c| c.as_str() == canon)
        {
            return Ok(Selector::Code(canon));
        }
        Err(format!(
            "unknown code or band {raw:?} (expected e.g. MEA104 or MEA2xx; see --codes)"
        ))
    }

    fn matches(&self, code: mealib_verify::ErrorCode) -> bool {
        match self {
            Selector::Band(b) => code.band() == b,
            Selector::Code(c) => code.as_str() == c,
        }
    }

    fn is_code(&self) -> bool {
        matches!(self, Selector::Code(_))
    }
}

/// Severity overrides from `--deny`/`--allow`. A specific code selector
/// beats a band selector; at equal specificity `--allow` wins.
#[derive(Clone, Default)]
struct SeverityPolicy {
    deny: Vec<Selector>,
    allow: Vec<Selector>,
}

impl SeverityPolicy {
    fn apply(&self, report: Report) -> Report {
        let mut out = Report::new();
        for d in report.diagnostics() {
            let mut d = d.clone();
            let allow_code = self.allow.iter().any(|s| s.is_code() && s.matches(d.code));
            let deny_code = self.deny.iter().any(|s| s.is_code() && s.matches(d.code));
            let allow_band = self.allow.iter().any(|s| !s.is_code() && s.matches(d.code));
            let deny_band = self.deny.iter().any(|s| !s.is_code() && s.matches(d.code));
            if allow_code || (allow_band && !deny_code) {
                d.severity = Severity::Warning;
            } else if deny_code || deny_band {
                d.severity = Severity::Error;
            }
            out.push(d);
        }
        out
    }
}

fn lint_file(path: &str) -> Outcome {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return Outcome::Unusable(format!("cannot read {path}: {e}")),
    };

    if bytes.len() >= 4 && bytes[0..4] == MAGIC.to_le_bytes() {
        return finish(descriptor::verify_image(&bytes));
    }

    let Ok(text) = std::str::from_utf8(&bytes) else {
        return Outcome::Unusable(format!(
            "{path}: not a descriptor image (no MEAL magic) and not UTF-8 text"
        ));
    };

    if memconfig::looks_like_memconfig(text) {
        return match memconfig::parse_memconfig(text) {
            Ok(config) => finish(memsim::verify_memconfig(&config)),
            Err(e) => Outcome::Unusable(format!("{path}: {e}")),
        };
    }

    // Session-set manifests: per-tenant structural passes plus the
    // MEA3xx interference certification and its admission verdict.
    // Composed resource certification (MEA30x) replaces the isolated
    // MEA2xx bounds here — tenant budgets are judged under the mix.
    if interference::looks_like_session_set(text) {
        let set = match interference::parse_session_set(text) {
            Ok(s) => s,
            Err(e) => return Outcome::Unusable(format!("{path}: manifest parse error: {e}")),
        };
        let mut report = Report::new();
        for tenant in &set.tenants {
            report.merge(tdl::verify_program(
                &tenant.session.program,
                Some(&tenant.session.lines),
                None,
                &TdlLimits::default(),
            ));
            report.merge(dataflow::verify_session(
                &tenant.session,
                &DataflowEnv::default(),
            ));
        }
        let cert = match interference::certify_set(&set, &BoundsEnv::default()) {
            Ok(c) => c,
            Err(e) => {
                return match bounds::work_budget_diagnostic(&e) {
                    Some(d) => {
                        report.push(d);
                        finish(report)
                    }
                    None => Outcome::Unusable(format!("{path}: {e}")),
                }
            }
        };
        report.merge(cert.report);
        return Outcome::Certified(cert.verdict, report);
    }

    // TDL analysis sessions: directives go to the dataflow pass, the
    // TDL remainder additionally runs the semantic pass.
    let session = match dataflow::parse_session(text) {
        Ok(s) => s,
        Err(e) => return Outcome::Unusable(format!("{path}: TDL parse error: {e}")),
    };
    let mut report = tdl::verify_program(
        &session.program,
        Some(&session.lines),
        None,
        &TdlLimits::default(),
    );
    report.merge(dataflow::verify_session(&session, &DataflowEnv::default()));
    report.merge(bounds::verify_session_bounds(
        &session,
        &BoundsEnv::default(),
    ));
    finish(report)
}

fn finish(report: Report) -> Outcome {
    if report.is_clean() {
        Outcome::Clean
    } else {
        Outcome::Findings(report)
    }
}

fn span_json(span: &Span) -> String {
    let mut o = Object::new();
    match span {
        Span::None => o.str("kind", "none"),
        Span::Line(l) => o.str("kind", "line").int("line", *l as u64),
        Span::Bytes { offset, len } => o
            .str("kind", "bytes")
            .int("offset", *offset as u64)
            .int("len", *len as u64),
    };
    o.render()
}

fn print_report(path: &str, report: &Report, format: Format) {
    match format {
        Format::Text => {
            println!("{path}:");
            for line in report.render().lines() {
                println!("  {line}");
            }
        }
        Format::Json => {
            for d in report.diagnostics() {
                let severity = match d.severity {
                    Severity::Error => "error",
                    Severity::Warning => "warning",
                };
                let mut o = Object::new();
                o.str("file", path)
                    .str("code", d.code.as_str())
                    .int("number", u64::from(d.code.number()))
                    .str("band", d.code.band())
                    .str("severity", severity)
                    .str("message", &d.message)
                    .raw("span", span_json(&d.span));
                println!("{}", o.render());
            }
        }
    }
}

fn parse_args(args: &[String]) -> Result<(Format, SeverityPolicy, Vec<String>), String> {
    let mut format = Format::Text;
    let mut policy = SeverityPolicy::default();
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--format" {
            match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    return Err(format!(
                        "--format expects `text` or `json`, got {}",
                        other.unwrap_or("nothing")
                    ))
                }
            }
        } else if arg == "--deny" || arg == "--allow" {
            let Some(sel) = it.next() else {
                return Err(format!(
                    "{arg} expects a code or band (e.g. MEA104, MEA2xx)"
                ));
            };
            let sel = Selector::parse(sel)?;
            if arg == "--deny" {
                policy.deny.push(sel);
            } else {
                policy.allow.push(sel);
            }
        } else if arg.starts_with('-') {
            return Err(format!("unknown option {arg}"));
        } else {
            files.push(arg.clone());
        }
    }
    if files.is_empty() {
        return Err("no input files".to_string());
    }
    Ok((format, policy, files))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--codes") {
        print!("{}", mealib_verify::error_code_table());
        return ExitCode::SUCCESS;
    }
    let (format, policy, files) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("mealint: {msg}");
            eprintln!(
                "usage: mealint [--codes] [--format text|json] [--deny BAND|CODE]... [--allow \
                 CODE|BAND]... FILE..."
            );
            return ExitCode::from(2);
        }
    };

    let mut worst = 0u8;
    for path in &files {
        match lint_file(path) {
            Outcome::Clean => {
                if format == Format::Text {
                    println!("{path}: ok");
                }
            }
            Outcome::Findings(report) => {
                let report = policy.apply(report);
                print_report(path, &report, format);
                if report.has_errors() {
                    worst = worst.max(1);
                }
            }
            Outcome::Certified(verdict, report) => {
                let report = policy.apply(report);
                if !report.is_clean() {
                    print_report(path, &report, format);
                }
                match format {
                    Format::Text => println!("{path}: verdict {verdict}"),
                    Format::Json => {
                        let mut o = Object::new();
                        o.str("file", path).str("verdict", verdict.label());
                        println!("{}", o.render());
                    }
                }
                if report.has_errors() {
                    worst = worst.max(1);
                }
            }
            Outcome::Unusable(msg) => {
                eprintln!("mealint: {msg}");
                worst = 2;
            }
        }
    }
    ExitCode::from(worst)
}
