//! Lexer for the C subset.

use core::fmt;

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Kind and payload.
    pub kind: Tok,
    /// Source line.
    pub line: usize,
}

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// String literal (quotes stripped).
    Str(String),
    /// A `#pragma ...` line (text after `#pragma`).
    Pragma(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `=`
    Assign,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `+`
    Plus,
    /// `++`
    PlusPlus,
    /// `+=`
    PlusAssign,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `&`
    Amp,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Float(v) => write!(f, "{v}"),
            Tok::Str(s) => write!(f, "\"{s}\""),
            Tok::Pragma(p) => write!(f, "#pragma {p}"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Assign => f.write_str("`=`"),
            Tok::EqEq => f.write_str("`==`"),
            Tok::Ne => f.write_str("`!=`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Le => f.write_str("`<=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Ge => f.write_str("`>=`"),
            Tok::Plus => f.write_str("`+`"),
            Tok::PlusPlus => f.write_str("`++`"),
            Tok::PlusAssign => f.write_str("`+=`"),
            Tok::Minus => f.write_str("`-`"),
            Tok::Star => f.write_str("`*`"),
            Tok::Slash => f.write_str("`/`"),
            Tok::Amp => f.write_str("`&`"),
        }
    }
}

/// A lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LexError {
    /// A character outside the subset's alphabet.
    UnexpectedChar {
        /// The character.
        ch: char,
        /// Its line.
        line: usize,
    },
    /// An unterminated string or block comment.
    Unterminated {
        /// What was left open.
        what: &'static str,
        /// Line it started on.
        line: usize,
    },
    /// An integer literal too large for `i64`.
    IntOutOfRange {
        /// The literal as written.
        literal: String,
        /// Its line.
        line: usize,
    },
    /// A floating-point literal that is not a number (`1.2.3`, `1e`).
    MalformedFloat {
        /// The literal as written.
        literal: String,
        /// Its line.
        line: usize,
    },
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LexError::UnexpectedChar { ch, line } => {
                write!(f, "unexpected character {ch:?} on line {line}")
            }
            LexError::Unterminated { what, line } => {
                write!(f, "unterminated {what} starting on line {line}")
            }
            LexError::IntOutOfRange { literal, line } => {
                write!(
                    f,
                    "integer literal {literal} on line {line} does not fit in i64"
                )
            }
            LexError::MalformedFloat { literal, line } => {
                write!(f, "malformed float literal {literal} on line {line}")
            }
        }
    }
}

impl std::error::Error for LexError {}

/// Tokenizes source text. Handles `//` and `/* */` comments and
/// `#pragma` lines; other `#` directives are skipped.
///
/// # Errors
///
/// Returns a [`LexError`] for characters outside the subset, an
/// unterminated string or comment, or an integer literal too large for
/// `i64`.
pub fn tokenize(src: &str) -> Result<Vec<Token>, LexError> {
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut out = Vec::new();
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if bytes.get(i + 1) == Some(&'/') => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if bytes.get(i + 1) == Some(&'*') => {
                let start = line;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError::Unterminated {
                            what: "block comment",
                            line: start,
                        });
                    }
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    if bytes[i] == '*' && bytes[i + 1] == '/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '#' => {
                // Collect the directive line.
                let start = i;
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                if let Some(rest) = text.strip_prefix("#pragma") {
                    out.push(Token {
                        kind: Tok::Pragma(rest.trim().to_string()),
                        line,
                    });
                }
                // Other directives (#include, #define) are skipped.
            }
            '"' => {
                let start = line;
                i += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(i) {
                        None | Some('\n') => {
                            return Err(LexError::Unterminated {
                                what: "string",
                                line: start,
                            })
                        }
                        Some('\\') => {
                            // Escape sequence: store the escaped character
                            // unescaped (the printer re-escapes on output).
                            match bytes.get(i + 1) {
                                Some(&esc) => {
                                    s.push(match esc {
                                        'n' => '\n',
                                        't' => '\t',
                                        other => other,
                                    });
                                    i += 2;
                                }
                                None => {
                                    return Err(LexError::Unterminated {
                                        what: "string",
                                        line: start,
                                    })
                                }
                            }
                        }
                        Some('"') => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch);
                            i += 1;
                        }
                    }
                }
                out.push(Token {
                    kind: Tok::Str(s),
                    line,
                });
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == '.') {
                    i += 1;
                }
                // Scientific suffix (e.g. 1e9).
                if i < bytes.len() && (bytes[i] == 'e' || bytes[i] == 'E') {
                    i += 1;
                    if i < bytes.len() && (bytes[i] == '+' || bytes[i] == '-') {
                        i += 1;
                    }
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // Trailing f suffix.
                let text: String = bytes[start..i].iter().collect();
                if i < bytes.len() && (bytes[i] == 'f' || bytes[i] == 'F') {
                    i += 1;
                }
                let kind = if text.contains(['.', 'e', 'E']) {
                    match text.parse() {
                        Ok(v) => Tok::Float(v),
                        Err(_) => {
                            return Err(LexError::MalformedFloat {
                                literal: text,
                                line,
                            })
                        }
                    }
                } else {
                    match text.parse() {
                        Ok(v) => Tok::Int(v),
                        Err(_) => {
                            return Err(LexError::IntOutOfRange {
                                literal: text,
                                line,
                            })
                        }
                    }
                };
                out.push(Token { kind, line });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                out.push(Token {
                    kind: Tok::Ident(text),
                    line,
                });
            }
            _ => {
                let (kind, advance) = match (c, bytes.get(i + 1)) {
                    ('=', Some('=')) => (Tok::EqEq, 2),
                    ('=', _) => (Tok::Assign, 1),
                    ('!', Some('=')) => (Tok::Ne, 2),
                    ('<', Some('=')) => (Tok::Le, 2),
                    ('<', _) => (Tok::Lt, 1),
                    ('>', Some('=')) => (Tok::Ge, 2),
                    ('>', _) => (Tok::Gt, 1),
                    ('+', Some('+')) => (Tok::PlusPlus, 2),
                    ('+', Some('=')) => (Tok::PlusAssign, 2),
                    ('+', _) => (Tok::Plus, 1),
                    ('-', _) => (Tok::Minus, 1),
                    ('*', _) => (Tok::Star, 1),
                    ('/', _) => (Tok::Slash, 1),
                    ('&', _) => (Tok::Amp, 1),
                    ('(', _) => (Tok::LParen, 1),
                    (')', _) => (Tok::RParen, 1),
                    ('[', _) => (Tok::LBracket, 1),
                    (']', _) => (Tok::RBracket, 1),
                    ('{', _) => (Tok::LBrace, 1),
                    ('}', _) => (Tok::RBrace, 1),
                    (';', _) => (Tok::Semi, 1),
                    (',', _) => (Tok::Comma, 1),
                    (ch, _) => return Err(LexError::UnexpectedChar { ch, line }),
                };
                out.push(Token { kind, line });
                i += advance;
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_declaration_and_call() {
        let toks = kinds("float *x; x = malloc(sizeof(float) * 8);");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("float".into()),
                Tok::Star,
                Tok::Ident("x".into()),
                Tok::Semi,
                Tok::Ident("x".into()),
                Tok::Assign,
                Tok::Ident("malloc".into()),
                Tok::LParen,
                Tok::Ident("sizeof".into()),
                Tok::LParen,
                Tok::Ident("float".into()),
                Tok::RParen,
                Tok::Star,
                Tok::Int(8),
                Tok::RParen,
                Tok::Semi,
            ]
        );
    }

    #[test]
    fn lexes_pragma_and_skips_include() {
        let toks = kinds("#include <mkl.h>\n#pragma omp parallel for num_threads(4)\nint x;");
        assert_eq!(
            toks[0],
            Tok::Pragma("omp parallel for num_threads(4)".into())
        );
        assert_eq!(toks[1], Tok::Ident("int".into()));
    }

    #[test]
    fn lexes_comments_and_operators() {
        let toks = kinds("// line\n/* block\nspanning */ i <= N; ++i; a += 2");
        assert_eq!(
            toks,
            vec![
                Tok::Ident("i".into()),
                Tok::Le,
                Tok::Ident("N".into()),
                Tok::Semi,
                Tok::PlusPlus,
                Tok::Ident("i".into()),
                Tok::Semi,
                Tok::Ident("a".into()),
                Tok::PlusAssign,
                Tok::Int(2),
            ]
        );
    }

    #[test]
    fn lexes_escaped_strings() {
        let toks = kinds(r#"s = "a \"quoted\" path";"#);
        assert_eq!(
            toks,
            vec![
                Tok::Ident("s".into()),
                Tok::Assign,
                Tok::Str("a \"quoted\" path".into()),
                Tok::Semi,
            ]
        );
    }

    #[test]
    fn lexes_float_literals() {
        assert_eq!(kinds("2.0f"), vec![Tok::Float(2.0)]);
        assert_eq!(kinds("1e3"), vec![Tok::Float(1000.0)]);
        assert_eq!(kinds("42"), vec![Tok::Int(42)]);
    }

    #[test]
    fn rejects_malformed_float_literals() {
        for literal in ["1.2.3", "1e"] {
            assert_eq!(
                tokenize(literal),
                Err(LexError::MalformedFloat {
                    literal: literal.to_string(),
                    line: 1,
                })
            );
        }
    }

    #[test]
    fn tracks_lines() {
        let toks = tokenize("a\n\nb").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(matches!(
            tokenize("int $x;"),
            Err(LexError::UnexpectedChar { ch: '$', .. })
        ));
    }

    #[test]
    fn rejects_unterminated_constructs() {
        assert!(matches!(
            tokenize("\"abc"),
            Err(LexError::Unterminated { what: "string", .. })
        ));
        assert!(matches!(
            tokenize("/* never closed"),
            Err(LexError::Unterminated {
                what: "block comment",
                ..
            })
        ));
    }
}
