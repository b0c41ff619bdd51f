//! TDL semantic verification (`MEA001`–`MEA009`).
//!
//! The parser already rejects syntactic junk; this pass checks the
//! properties that make a *parseable* program unrunnable or suspicious:
//! chain legality against the tile-switch fan-in (§2.3), in-place
//! aliasing of chained passes, references to parameter files the bag
//! cannot satisfy, loop trip counts outside the descriptor's sequencing
//! range, and buffer def-use hazards across passes.

use std::collections::BTreeSet;

use mealib_tdl::{
    parse_with_lines, AcceleratorKind, ItemLines, ParamBag, ParseError, PassBlock, PassLines,
    ProgramLines, TdlItem, TdlProgram,
};
use mealib_types::{Diagnostic, ErrorCode, Report};

/// Hardware limits the program must respect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TdlLimits {
    /// Maximum accelerators one `PASS` may chain (tile-switch fan-in).
    pub max_chain: usize,
    /// Dynamic invocation count above which the program draws a
    /// footprint warning (the paper compacts 16 M calls into one
    /// descriptor; an order of magnitude beyond that is suspicious).
    pub warn_invocations: u64,
}

impl Default for TdlLimits {
    fn default() -> Self {
        Self {
            max_chain: 4,
            warn_invocations: 1 << 28,
        }
    }
}

/// Verifies TDL source text: parses it, then runs every semantic check.
///
/// # Errors
///
/// Returns the [`ParseError`] if the text does not parse at all;
/// semantic findings land in the returned [`Report`].
pub fn verify_source(
    src: &str,
    params: Option<&ParamBag>,
    limits: &TdlLimits,
) -> Result<Report, ParseError> {
    let (program, lines) = parse_with_lines(src)?;
    Ok(verify_program(&program, Some(&lines), params, limits))
}

/// Verifies an already-parsed program. `lines` (from
/// [`parse_with_lines`]) attaches source spans to findings; `params`
/// enables dangling-reference checks against a concrete parameter bag.
pub fn verify_program(
    program: &TdlProgram,
    lines: Option<&ProgramLines>,
    params: Option<&ParamBag>,
    limits: &TdlLimits,
) -> Report {
    let mut report = Report::new();
    let mut written: BTreeSet<&str> = BTreeSet::new();
    let mut read_since_write: BTreeSet<&str> = BTreeSet::new();

    for (idx, item) in program.items.iter().enumerate() {
        let item_lines = lines.and_then(|l| l.items.get(idx));
        match item {
            TdlItem::Pass(pass) => {
                let pass_lines = match item_lines {
                    Some(ItemLines::Pass(p)) => Some(p),
                    _ => None,
                };
                check_pass(pass, pass_lines, params, limits, &mut report);
                track_hazards(
                    pass,
                    pass_lines,
                    &mut written,
                    &mut read_since_write,
                    &mut report,
                );
            }
            TdlItem::Loop(l) => {
                let (header, body_lines) = match item_lines {
                    Some(ItemLines::Loop { header, body }) => (Some(*header), Some(body)),
                    _ => (None, None),
                };
                if l.count == 0 {
                    let mut d = Diagnostic::error(
                        ErrorCode::TdlLoopTripCount,
                        "LOOP trip count is zero; the loop body can never execute",
                    );
                    if let Some(line) = header {
                        d = d.at_line(line);
                    }
                    report.push(d);
                }
                for (pidx, pass) in l.body.iter().enumerate() {
                    let pass_lines = body_lines.and_then(|b| b.get(pidx));
                    check_pass(pass, pass_lines, params, limits, &mut report);
                    track_hazards(
                        pass,
                        pass_lines,
                        &mut written,
                        &mut read_since_write,
                        &mut report,
                    );
                }
            }
        }
    }

    check_invocation_range(program, limits, &mut report);
    report
}

fn check_pass(
    pass: &PassBlock,
    lines: Option<&PassLines>,
    params: Option<&ParamBag>,
    limits: &TdlLimits,
    report: &mut Report,
) {
    let header = lines.map(|l| l.header);
    let at = |d: Diagnostic, line: Option<usize>| match line {
        Some(line) => d.at_line(line),
        None => d,
    };

    if pass.comps.len() > limits.max_chain {
        report.push(at(
            Diagnostic::error(
                ErrorCode::TdlChainTooLong,
                format!(
                    "pass `{} -> {}` chains {} accelerators but the tile switch fans in {}",
                    pass.input,
                    pass.output,
                    pass.comps.len(),
                    limits.max_chain
                ),
            ),
            header,
        ));
    }

    if pass.is_chained() && pass.input == pass.output {
        report.push(at(
            Diagnostic::error(
                ErrorCode::TdlInPlaceChain,
                format!(
                    "chained pass cannot stream in place: buffer `{}` is both input and output",
                    pass.input
                ),
            ),
            header,
        ));
    }

    // §2.3 chain legality: data flows first comp -> last comp, so a
    // reducing accelerator (DOT collapses its stream to a scalar) can
    // only terminate a chain — nothing can stream out of it.
    for (i, comp) in pass.comps.iter().enumerate() {
        let comp_line = lines.and_then(|l| l.comps.get(i)).copied();
        if comp.accel == AcceleratorKind::Dot && i + 1 < pass.comps.len() {
            report.push(at(
                Diagnostic::error(
                    ErrorCode::TdlIllegalChain,
                    format!(
                        "DOT reduces its stream to a scalar and must terminate the chain, \
                         but `{}` follows it",
                        pass.comps[i + 1].accel
                    ),
                ),
                comp_line,
            ));
        }
        if comp.params.is_empty() {
            report.push(at(
                Diagnostic::error(
                    ErrorCode::TdlDanglingParams,
                    format!("COMP {} has an empty params= reference", comp.accel),
                ),
                comp_line,
            ));
        } else if let Some(bag) = params {
            if !bag.contains_key(&comp.params) {
                report.push(at(
                    Diagnostic::error(
                        ErrorCode::TdlDanglingParams,
                        format!(
                            "COMP {} references parameter file `{}` absent from the bag",
                            comp.accel, comp.params
                        ),
                    ),
                    comp_line,
                ));
            }
        }
    }
}

fn track_hazards<'p>(
    pass: &'p PassBlock,
    lines: Option<&PassLines>,
    written: &mut BTreeSet<&'p str>,
    read_since_write: &mut BTreeSet<&'p str>,
    report: &mut Report,
) {
    if written.contains(pass.output.as_str()) && !read_since_write.contains(pass.output.as_str()) {
        let mut d = Diagnostic::warning(
            ErrorCode::TdlBufferHazard,
            format!(
                "buffer `{}` is written again before any pass reads it; \
                 the earlier result is dead",
                pass.output
            ),
        );
        if let Some(l) = lines {
            d = d.at_line(l.header);
        }
        report.push(d);
    }
    read_since_write.insert(pass.input.as_str());
    written.insert(pass.output.as_str());
    read_since_write.remove(pass.output.as_str());
}

fn check_invocation_range(program: &TdlProgram, limits: &TdlLimits, report: &mut Report) {
    match program.total_invocations() {
        None => report.push(Diagnostic::error(
            ErrorCode::TdlLoopTripCount,
            format!(
                "program performs more than {} dynamic invocations, beyond the descriptor's \
                 64-bit sequencing range",
                u64::MAX
            ),
        )),
        Some(total) if total > limits.warn_invocations => report.push(Diagnostic::warning(
            ErrorCode::TdlLoopTripCount,
            format!(
                "program performs {total} dynamic invocations (> {}); check the loop counts",
                limits.warn_invocations
            ),
        )),
        Some(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verify(src: &str) -> Report {
        verify_source(src, None, &TdlLimits::default()).unwrap()
    }

    #[test]
    fn clean_program_passes() {
        let r = verify(
            r#"
            PASS in=a out=b {
                COMP RESHP params="r.para"
                COMP FFT params="f.para"
            }
            LOOP 128 {
                PASS in=b out=c { COMP DOT params="d.para" }
            }
            "#,
        );
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn in_place_chain_flagged_with_line() {
        let r = verify("PASS in=x out=x {\n COMP RESHP params=\"r\"\n COMP FFT params=\"f\" }");
        assert!(r.has_code(ErrorCode::TdlInPlaceChain));
        assert!(r.render().contains("line 1"), "{r}");
    }

    #[test]
    fn overlong_chain_flagged() {
        let r = verify(
            "PASS in=a out=b { COMP FFT params=\"f\" COMP FFT params=\"f\" \
             COMP FFT params=\"f\" COMP FFT params=\"f\" COMP FFT params=\"f\" }",
        );
        assert!(r.has_code(ErrorCode::TdlChainTooLong));
    }

    #[test]
    fn dot_must_terminate_chain() {
        let r = verify("PASS in=a out=b {\n COMP DOT params=\"d\"\n COMP FFT params=\"f\" }");
        assert!(r.has_code(ErrorCode::TdlIllegalChain));
        assert!(r.render().contains("line 2"), "{r}");
        // DOT in last position is fine.
        let ok = verify("PASS in=a out=b { COMP FFT params=\"f\" COMP DOT params=\"d\" }");
        assert!(!ok.has_code(ErrorCode::TdlIllegalChain));
    }

    #[test]
    fn dangling_params_needs_a_bag() {
        let src = "PASS in=a out=b { COMP FFT params=\"missing.para\" }";
        assert!(!verify(src).has_code(ErrorCode::TdlDanglingParams));
        let bag = ParamBag::new();
        let r = verify_source(src, Some(&bag), &TdlLimits::default()).unwrap();
        assert!(r.has_code(ErrorCode::TdlDanglingParams));
    }

    #[test]
    fn dead_store_warns_but_reads_clear_it() {
        let dead = verify(
            "PASS in=a out=b { COMP FFT params=\"f\" }\n\
             PASS in=a out=b { COMP FFT params=\"f\" }",
        );
        assert!(dead.has_code(ErrorCode::TdlBufferHazard));
        assert!(!dead.has_errors(), "hazard is a warning");
        let live = verify(
            "PASS in=a out=b { COMP FFT params=\"f\" }\n\
             PASS in=b out=c { COMP FFT params=\"f\" }\n\
             PASS in=a out=b { COMP FFT params=\"f\" }",
        );
        assert!(!live.has_code(ErrorCode::TdlBufferHazard), "{live}");
    }

    #[test]
    fn huge_invocation_counts_warn() {
        let r = verify("LOOP 9999999999 { PASS in=a out=b { COMP FFT params=\"f\" } }");
        assert!(r.has_code(ErrorCode::TdlLoopTripCount));
        assert!(!r.has_errors());
    }

    #[test]
    fn invocation_count_past_u64_is_an_error() {
        // 2^63 iterations of a two-stage pass are 2^64 invocations.
        let r = verify(
            "LOOP 9223372036854775808 { PASS in=a out=b { COMP FFT params=\"f\" \
             COMP FFT params=\"f\" } }",
        );
        assert!(r.has_code(ErrorCode::TdlLoopTripCount));
        assert!(r.has_errors());
        assert!(r.render().contains("more than 18446744073709551615"), "{r}");
    }

    #[test]
    fn zero_loop_built_programmatically_is_an_error() {
        // The parser rejects LOOP 0, but programs can be built via the
        // AST; the pass must not rely on parser invariants.
        let program = TdlProgram {
            items: vec![TdlItem::Loop(mealib_tdl::LoopBlock {
                count: 0,
                body: vec![PassBlock::new(
                    "a",
                    "b",
                    vec![mealib_tdl::CompBlock::new(AcceleratorKind::Fft, "f")],
                )],
            })],
        };
        let r = verify_program(&program, None, None, &TdlLimits::default());
        assert!(r.has_code(ErrorCode::TdlLoopTripCount));
        assert!(r.has_errors());
    }
}
