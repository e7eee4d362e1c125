//! A minimal JSON reader for the repo's own exports.
//!
//! The workspace is offline-only (no serde), but three consumers need to
//! read JSON back: the CLI's `verify-trace` command (Chrome-trace
//! validation), the bench harness's `fig-regress` gate
//! (`results/baseline.json`) and the exporter tests. This parser covers
//! exactly RFC 8259 — objects, arrays, strings with escapes, numbers,
//! booleans, null — with no extensions; it is not a streaming parser and
//! keeps the whole value in memory, which is fine for snapshot-sized
//! inputs. `escape` is the other direction, shared by the snapshot and
//! trace writers.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`, like browsers do).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is not preserved (sorted).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object member by key (`None` for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as `u64`, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }
}

/// Why parsing failed, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable reason.
    pub msg: String,
    /// Byte offset of the failure.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let b = input.as_bytes();
    let mut p = Parser { b, i: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != b.len() {
        return Err(p.err("trailing garbage"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_string(),
            at: self.i,
        }
    }

    fn ws(&mut self) {
        while self
            .b
            .get(self.i)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.i += 1; // '{'
        let mut m = BTreeMap::new();
        self.ws();
        if self.eat(b'}') {
            return Ok(Value::Obj(m));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':'"));
            }
            self.ws();
            m.insert(key, self.value()?);
            self.ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b'}') {
                return Ok(Value::Obj(m));
            }
            return Err(self.err("expected ',' or '}'"));
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.i += 1; // '['
        let mut v = Vec::new();
        self.ws();
        if self.eat(b']') {
            return Ok(Value::Arr(v));
        }
        loop {
            self.ws();
            v.push(self.value()?);
            self.ws();
            if self.eat(b',') {
                continue;
            }
            if self.eat(b']') {
                return Ok(Value::Arr(v));
            }
            return Err(self.err("expected ',' or ']'"));
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        if !self.eat(b'"') {
            return Err(self.err("expected '\"'"));
        }
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.b.get(self.i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i + 1..self.i + 5)
                                .ok_or_else(|| self.err("short \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogates degrade to U+FFFD; the repo's own
                            // exporters never emit them.
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through verbatim.
                    let start = self.i;
                    while self
                        .b
                        .get(self.i)
                        .is_some_and(|c| *c != b'"' && *c != b'\\')
                    {
                        self.i += 1;
                    }
                    let chunk = std::str::from_utf8(&self.b[start..self.i])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    if chunk.chars().any(|c| (c as u32) < 0x20) {
                        return Err(self.err("raw control character in string"));
                    }
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.i;
        let _ = self.eat(b'-');
        while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.eat(b'.') {
            while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        if self.b.get(self.i).is_some_and(|c| matches!(c, b'e' | b'E')) {
            self.i += 1;
            if !self.eat(b'+') {
                let _ = self.eat(b'-');
            }
            while self.b.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
                self.i += 1;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Value::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Escape a string for inclusion in a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_strings_parse_back_to_themselves() {
        for s in [
            "quote \" and backslash \\",
            "line\nfeed, return\r, tab\t",
            "\u{1}\u{1f}",
            "non-ASCII é ∑ 😀",
            "",
        ] {
            let literal = format!("\"{}\"", escape(s));
            assert_eq!(parse(&literal).unwrap().as_str(), Some(s), "{literal}");
        }
        assert_eq!(escape("\u{1}\u{1f}"), "\\u0001\\u001f");
    }

    #[test]
    fn scalars_and_containers_round_trip() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse(" -12.5e1 ").unwrap(), Value::Num(-125.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::Str("a\nb".into()));
        let v = parse(r#"{"a":[1,2,{"b":"c"}],"d":{}}"#).unwrap();
        let arr = v.get("a").and_then(|a| a.as_array()).unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[2].get("b").and_then(|b| b.as_str()), Some("c"));
        assert_eq!(v.get("d"), Some(&Value::Obj(BTreeMap::new())));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap().as_str(), Some("Aé"));
        assert_eq!(parse("\"héllo\"").unwrap().as_str(), Some("héllo"));
    }

    #[test]
    fn malformed_inputs_error_with_position() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "\"open",
            "01a",
            "true false",
            "nul",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        let e = parse("[1, x]").unwrap_err();
        assert_eq!(e.at, 4);
    }

    #[test]
    fn u64_extraction_guards_fractions_and_sign() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn parses_own_snapshot_export() {
        let mut snap = crate::Snapshot::default();
        snap.counters.insert("cuart.lookup.batches".into(), 3);
        snap.gauges.insert("g\"uote".into(), 1.5);
        let v = parse(&snap.to_json()).expect("snapshot JSON parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("cuart.lookup.batches"))
                .and_then(|n| n.as_u64()),
            Some(3)
        );
        assert_eq!(
            v.get("gauges")
                .and_then(|g| g.get("g\"uote"))
                .and_then(|n| n.as_f64()),
            Some(1.5)
        );
    }
}
