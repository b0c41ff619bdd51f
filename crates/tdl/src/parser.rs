//! Recursive-descent parser for TDL.

use core::fmt;

use crate::ast::{AcceleratorKind, CompBlock, LoopBlock, PassBlock, TdlItem, TdlProgram};
use crate::lexer::{tokenize, LexError, Token, TokenKind};

/// A parse error with source-line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The lexer rejected the input.
    Lex(LexError),
    /// An unexpected token was found.
    Unexpected {
        /// What the parser was looking for.
        expected: String,
        /// What it found instead.
        found: String,
        /// Line of the offending token.
        line: usize,
    },
    /// Input ended mid-construct.
    UnexpectedEof {
        /// What the parser was looking for.
        expected: String,
    },
    /// A `COMP` named an unknown accelerator.
    UnknownAccelerator {
        /// The unrecognized name.
        name: String,
        /// Line of the offending token.
        line: usize,
    },
    /// A structurally invalid block (empty pass, zero-count loop...).
    InvalidBlock {
        /// Explanation.
        message: String,
        /// Line of the block header.
        line: usize,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex(e) => e.fmt(f),
            ParseError::Unexpected {
                expected,
                found,
                line,
            } => {
                write!(f, "expected {expected}, found {found} on line {line}")
            }
            ParseError::UnexpectedEof { expected } => {
                write!(f, "unexpected end of input, expected {expected}")
            }
            ParseError::UnknownAccelerator { name, line } => {
                write!(f, "unknown accelerator `{name}` on line {line}")
            }
            ParseError::InvalidBlock { message, line } => {
                write!(f, "{message} on line {line}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError::Lex(e)
    }
}

/// Source lines (1-based) of one `PASS` and its `COMP`s, parallel to a
/// [`PassBlock`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassLines {
    /// Line of the `PASS` keyword.
    pub header: usize,
    /// Line of each `COMP` keyword, in order.
    pub comps: Vec<usize>,
}

/// Source lines of one top-level item, parallel to a [`TdlItem`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemLines {
    /// Lines of a top-level pass.
    Pass(PassLines),
    /// Lines of a loop and the passes in its body.
    Loop {
        /// Line of the `LOOP` keyword.
        header: usize,
        /// Lines of each pass in the body.
        body: Vec<PassLines>,
    },
}

/// Source lines of a whole program, parallel to a [`TdlProgram`]'s
/// items. Lets later passes report findings at real source locations
/// without the AST carrying spans.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProgramLines {
    /// One entry per top-level item.
    pub items: Vec<ItemLines>,
}

/// Parses TDL source into a [`TdlProgram`].
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic
/// problem.
pub fn parse(src: &str) -> Result<TdlProgram, ParseError> {
    parse_with_lines(src).map(|(program, _)| program)
}

/// Parses TDL source, also returning the source line of every
/// `PASS`/`LOOP`/`COMP` construct for diagnostics.
///
/// # Errors
///
/// Returns a [`ParseError`] describing the first lexical or syntactic
/// problem.
pub fn parse_with_lines(src: &str) -> Result<(TdlProgram, ProgramLines), ParseError> {
    let tokens = tokenize(src)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut items = Vec::new();
    let mut lines = ProgramLines::default();
    while !p.at_end() {
        let (item, item_lines) = p.item()?;
        items.push(item);
        lines.items.push(item_lines);
    }
    Ok((TdlProgram::new(items), lines))
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self, expected: &str) -> Result<Token, ParseError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseError::UnexpectedEof {
                expected: expected.to_string(),
            })?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_kind(&mut self, kind: &TokenKind, expected: &str) -> Result<Token, ParseError> {
        let t = self.next(expected)?;
        if &t.kind == kind {
            Ok(t)
        } else {
            Err(ParseError::Unexpected {
                expected: expected.to_string(),
                found: t.kind.to_string(),
                line: t.line,
            })
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Token, ParseError> {
        self.expect_kind(&TokenKind::Ident(kw.to_string()), &format!("`{kw}`"))
    }

    fn ident(&mut self, expected: &str) -> Result<(String, usize), ParseError> {
        let t = self.next(expected)?;
        match t.kind {
            TokenKind::Ident(s) => Ok((s, t.line)),
            other => Err(ParseError::Unexpected {
                expected: expected.to_string(),
                found: other.to_string(),
                line: t.line,
            }),
        }
    }

    fn item(&mut self) -> Result<(TdlItem, ItemLines), ParseError> {
        let (kw, line) = self.ident("`PASS` or `LOOP`")?;
        match kw.as_str() {
            "PASS" => {
                let (pass, lines) = self.pass_body(line)?;
                Ok((TdlItem::Pass(pass), ItemLines::Pass(lines)))
            }
            "LOOP" => {
                let (l, body_lines) = self.loop_body(line)?;
                Ok((
                    TdlItem::Loop(l),
                    ItemLines::Loop {
                        header: line,
                        body: body_lines,
                    },
                ))
            }
            other => Err(ParseError::Unexpected {
                expected: "`PASS` or `LOOP`".to_string(),
                found: format!("`{other}`"),
                line,
            }),
        }
    }

    /// Parses the remainder of a pass after the `PASS` keyword.
    fn pass_body(&mut self, header_line: usize) -> Result<(PassBlock, PassLines), ParseError> {
        self.expect_keyword("in")?;
        self.expect_kind(&TokenKind::Equals, "`=`")?;
        let (input, _) = self.ident("input buffer name")?;
        self.expect_keyword("out")?;
        self.expect_kind(&TokenKind::Equals, "`=`")?;
        let (output, _) = self.ident("output buffer name")?;
        self.expect_kind(&TokenKind::LBrace, "`{`")?;
        let mut comps = Vec::new();
        let mut comp_lines = Vec::new();
        loop {
            match self.peek() {
                Some(t) if t.kind == TokenKind::RBrace => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let comp_tok = self.expect_keyword("COMP")?;
                    comp_lines.push(comp_tok.line);
                    let (name, line) = self.ident("accelerator name")?;
                    let accel = AcceleratorKind::from_keyword(&name)
                        .ok_or(ParseError::UnknownAccelerator { name, line })?;
                    self.expect_keyword("params")?;
                    self.expect_kind(&TokenKind::Equals, "`=`")?;
                    let t = self.next("parameter file string")?;
                    let params = match t.kind {
                        TokenKind::Str(s) => s,
                        other => {
                            return Err(ParseError::Unexpected {
                                expected: "parameter file string".to_string(),
                                found: other.to_string(),
                                line: t.line,
                            })
                        }
                    };
                    comps.push(CompBlock::new(accel, params));
                }
                None => {
                    return Err(ParseError::UnexpectedEof {
                        expected: "`}`".to_string(),
                    })
                }
            }
        }
        if comps.is_empty() {
            return Err(ParseError::InvalidBlock {
                message: "PASS must contain at least one COMP".to_string(),
                line: header_line,
            });
        }
        Ok((
            PassBlock::new(input, output, comps),
            PassLines {
                header: header_line,
                comps: comp_lines,
            },
        ))
    }

    /// Parses the remainder of a loop after the `LOOP` keyword.
    fn loop_body(&mut self, header_line: usize) -> Result<(LoopBlock, Vec<PassLines>), ParseError> {
        let t = self.next("loop count")?;
        let count = match t.kind {
            TokenKind::Number(n) => n,
            other => {
                return Err(ParseError::Unexpected {
                    expected: "loop count".to_string(),
                    found: other.to_string(),
                    line: t.line,
                })
            }
        };
        if count == 0 {
            return Err(ParseError::InvalidBlock {
                message: "LOOP count must be at least 1".to_string(),
                line: header_line,
            });
        }
        self.expect_kind(&TokenKind::LBrace, "`{`")?;
        let mut body = Vec::new();
        let mut body_lines = Vec::new();
        loop {
            match self.peek() {
                Some(t) if t.kind == TokenKind::RBrace => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let (kw, line) = self.ident("`PASS`")?;
                    if kw != "PASS" {
                        return Err(ParseError::Unexpected {
                            expected: "`PASS`".to_string(),
                            found: format!("`{kw}`"),
                            line,
                        });
                    }
                    let (pass, lines) = self.pass_body(line)?;
                    body.push(pass);
                    body_lines.push(lines);
                }
                None => {
                    return Err(ParseError::UnexpectedEof {
                        expected: "`}`".to_string(),
                    })
                }
            }
        }
        if body.is_empty() {
            return Err(ParseError::InvalidBlock {
                message: "LOOP must contain at least one PASS".to_string(),
                line: header_line,
            });
        }
        Ok((LoopBlock::new(count, body), body_lines))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # chained reshape + FFT, then a compacted dot-product loop
        PASS in=datacube out=doppler {
            COMP RESHP params="reshape.para"
            COMP FFT params="fft.para"
        }
        LOOP 16777216 {
            PASS in=weights out=prods {
                COMP DOT params="dot.para"
            }
        }
    "#;

    #[test]
    fn parses_sample() {
        let p = parse(SAMPLE).unwrap();
        assert_eq!(p.items.len(), 2);
        assert_eq!(p.total_invocations(), Some(2 + 16_777_216));
        match &p.items[0] {
            TdlItem::Pass(pass) => {
                assert_eq!(pass.input, "datacube");
                assert_eq!(pass.output, "doppler");
                assert_eq!(pass.comps[0].accel, AcceleratorKind::Reshp);
                assert_eq!(pass.comps[1].params, "fft.para");
            }
            _ => panic!("expected pass"),
        }
    }

    #[test]
    fn print_parse_round_trip() {
        let p = parse(SAMPLE).unwrap();
        let printed = p.to_string();
        let reparsed = parse(&printed).unwrap();
        assert_eq!(p, reparsed);
    }

    #[test]
    fn empty_source_is_empty_program() {
        let p = parse("").unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn error_unknown_accelerator() {
        let err = parse("PASS in=a out=b { COMP WARP params=\"x\" }").unwrap_err();
        assert!(matches!(err, ParseError::UnknownAccelerator { ref name, .. } if name == "WARP"));
    }

    #[test]
    fn error_empty_pass() {
        let err = parse("PASS in=a out=b { }").unwrap_err();
        assert!(matches!(err, ParseError::InvalidBlock { .. }), "{err}");
    }

    #[test]
    fn error_zero_loop() {
        let err = parse("LOOP 0 { PASS in=a out=b { COMP FFT params=\"f\" } }").unwrap_err();
        assert!(matches!(err, ParseError::InvalidBlock { .. }), "{err}");
    }

    #[test]
    fn error_nested_loop_rejected() {
        // The TDL of the paper has no nested loops; LOOP bodies hold PASSes.
        let err = parse("LOOP 2 { LOOP 3 { } }").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }), "{err}");
    }

    #[test]
    fn error_missing_brace_reports_eof() {
        let err = parse("PASS in=a out=b { COMP FFT params=\"f\"").unwrap_err();
        assert!(matches!(err, ParseError::UnexpectedEof { .. }), "{err}");
    }

    #[test]
    fn error_reports_line_numbers() {
        let err = parse("PASS in=a out=b {\n COMP NOPE params=\"x\" }").unwrap_err();
        match err {
            ParseError::UnknownAccelerator { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn top_level_junk_rejected() {
        let err = parse("HELLO").unwrap_err();
        assert!(matches!(err, ParseError::Unexpected { .. }));
    }

    #[test]
    fn parse_with_lines_mirrors_program_shape() {
        let (program, lines) = parse_with_lines(SAMPLE).unwrap();
        assert_eq!(program.items.len(), lines.items.len());
        match &lines.items[0] {
            ItemLines::Pass(p) => {
                assert_eq!(p.header, 3);
                assert_eq!(p.comps, vec![4, 5]);
            }
            other => panic!("expected pass lines, got {other:?}"),
        }
        match &lines.items[1] {
            ItemLines::Loop { header, body } => {
                assert_eq!(*header, 7);
                assert_eq!(body.len(), 1);
                assert_eq!(body[0].header, 8);
                assert_eq!(body[0].comps, vec![9]);
            }
            other => panic!("expected loop lines, got {other:?}"),
        }
    }
}
