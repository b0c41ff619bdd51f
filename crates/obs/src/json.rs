//! Dependency-free JSON emission and parsing.
//!
//! The workspace vendors no serialization crates, so the trace layer
//! hand-rolls the tiny subset of JSON it needs: an [`Object`] builder
//! for emission and a recursive-descent [`parse`] used by tests and
//! the bench smoke harness to validate emitted traces.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document (quotes not
/// included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    write_escaped(&mut out, s);
    out
}

/// Appends [`escape`]'s text for `s` to `out`, without allocating.
pub fn write_escaped(out: &mut String, s: &str) {
    // Text with nothing to escape, the common case, is copied whole.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Formats an `f64` as a JSON number. Non-finite values (which valid
/// model output never produces) are clamped to `null`-safe zero.
pub fn fmt_f64(x: f64) -> String {
    let mut out = String::new();
    write_f64(&mut out, x);
    out
}

/// Appends [`fmt_f64`]'s text for `x` to `out`, without allocating.
pub fn write_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push('0');
    } else if x == x.trunc() && x.abs() < 1e15 {
        // Integral values print exactly; avoids "1e2"-style output
        // for simple counts.
        let _ = write!(out, "{x:.1}");
    } else {
        let _ = write!(out, "{x:e}");
    }
}

/// An insertion-ordered JSON object builder.
#[derive(Debug, Clone, Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields
            .push((key.to_string(), format!("\"{}\"", escape(value))));
        self
    }

    /// Adds a floating-point field.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.push((key.to_string(), fmt_f64(value)));
        self
    }

    /// Adds an integer field.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a pre-rendered JSON value (object, array, ...).
    pub fn raw(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Renders the object.
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":{}", escape(k), v);
        }
        out.push('}');
        out
    }
}

/// Renders a JSON array from pre-rendered element values.
pub fn array(items: &[String]) -> String {
    let mut out = String::from("[");
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(item);
    }
    out.push(']');
    out
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Field lookup on objects (`None` for other value kinds).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The object payload, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(map) => Some(map),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so unbounded nesting would overflow the stack.
const MAX_DEPTH: usize = 128;

/// Parses one JSON document. Returns a human-readable error with a
/// byte offset on malformed input.
///
/// # Errors
///
/// Returns a message describing the first syntax error, or that
/// arrays and objects nest more than 128 levels deep.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            // Exactly four hex digits: `from_str_radix`
                            // alone would also take a leading sign.
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err("bad \\u escape".to_string());
                            }
                            let hex = std::str::from_utf8(hex).expect("ASCII hex digits");
                            let code = u32::from_str_radix(hex, 16).expect("four hex digits");
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one scalar straight from the `&str` input;
                    // the cursor only ever advances by whole scalars.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("not a character boundary at byte {}", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "bad number".to_string())?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_builder_renders_valid_json() {
        let mut o = Object::new();
        o.str("name", "fig14");
        o.num("time_s", 1.25e-3);
        o.int("count", 42);
        o.bool("ok", true);
        let rendered = o.render();
        let v = parse(&rendered).expect("valid");
        assert_eq!(v.get("name").and_then(Value::as_str), Some("fig14"));
        assert_eq!(v.get("count").and_then(Value::as_f64), Some(42.0));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}";
        let mut o = Object::new();
        o.str("k", nasty);
        let v = parse(&o.render()).expect("valid");
        assert_eq!(v.get("k").and_then(Value::as_str), Some(nasty));
    }

    #[test]
    fn long_mixed_width_strings_parse() {
        // ASCII, 2-, 3- and 4-byte scalars and escapes, repeated into a
        // string long enough that re-validating the remaining input per
        // character would be quadratic.
        let unit = "span-é-€-\u{1f600}-\\\"-\n|";
        let long: String = unit.repeat(20_000);
        let mut o = Object::new();
        o.str("name", &long);
        let v = parse(&o.render()).expect("valid");
        assert_eq!(v.get("name").and_then(Value::as_str), Some(long.as_str()));
        assert_eq!(
            parse("\"\\u00e9\\u20ac\"").expect("valid"),
            Value::String("é€".to_string())
        );
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).expect_err("one level too deep");
        assert!(err.contains("nesting"), "{err}");
    }

    #[test]
    fn rejects_malformed_escapes() {
        for bad in [
            "\"\\u12\"",
            "\"\\u12",
            "\"\\uZZZZ\"",
            "\"\\u+123\"",
            "\"\\u-123\"",
            "\"\\u00é\"",
            "\"\\q\"",
            "\"\\",
            "\"é",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn arrays_and_nesting_parse() {
        let doc = r#"{"rows":[{"x":1},{"x":2.5e-3}],"empty":[],"n":null}"#;
        let v = parse(doc).expect("valid");
        let rows = v.get("rows").and_then(Value::as_array).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].get("x").and_then(Value::as_f64), Some(2.5e-3));
        assert_eq!(v.get("n"), Some(&Value::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123 45").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn fmt_f64_output_is_json_legal() {
        for x in [0.0, 1.0, -2.5, 1.25e-3, 3.4e9, 1.0e-18, f64::NAN] {
            let s = fmt_f64(x);
            let v = parse(&s).expect("number parses");
            if x.is_finite() {
                assert_eq!(v.as_f64(), Some(x), "{s}");
            }
        }
    }
}
