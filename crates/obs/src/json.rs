//! Minimal hand-rolled JSON support: string escaping for the writers and
//! a small recursive-descent parser for round-trip tests.
//!
//! The build environment cannot fetch crates, so serde is off the table.
//! The subset implemented here is exactly what the exporters emit:
//! objects, arrays, strings (with `\"\\/bfnrt` and `\uXXXX` escapes),
//! numbers, booleans and null.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document (adds the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` so it parses back as the same JSON number: finite
/// values use Rust's shortest round-trip display, non-finite values
/// (which JSON cannot represent) become `null`.
pub fn number(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `1.0` displays as "1" — fine for JSON, already a number.
        s
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as f64; our exports stay within 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; keys sorted for deterministic comparisons.
    Obj(BTreeMap<String, Value>),
}

/// Deepest array/object nesting [`Value::parse`] accepts. Ledger lines,
/// provenance documents, coverage maps and profiles nest fewer than ten
/// levels; the limit keeps hostile input from overflowing the stack of
/// the recursive-descent parser.
pub const MAX_DEPTH: usize = 256;

impl Value {
    /// Parses a complete JSON document, rejecting trailing garbage and
    /// nesting deeper than [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Value, String> {
        let bytes: Vec<char> = input.chars().collect();
        let mut p = Parser {
            chars: &bytes,
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.chars.len() {
            return Err(format!("trailing input at char {}", p.pos));
        }
        Ok(v)
    }

    /// The object field `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric value as u64, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 => Some(*x as u64),
            _ => None,
        }
    }
}

struct Parser<'a> {
    chars: &'a [char],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .chars
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Result<char, String> {
        let c = self
            .peek()
            .ok_or_else(|| "unexpected end of input".to_string())?;
        self.pos += 1;
        Ok(c)
    }

    fn expect(&mut self, want: char) -> Result<(), String> {
        let got = self.bump()?;
        if got != want {
            return Err(format!("expected '{want}', got '{got}' at {}", self.pos));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        for want in word.chars() {
            self.expect(want)?;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.nested(Self::object),
            Some('[') => self.nested(Self::array),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected '{c}' at {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at {}", self.pos));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect('{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                '}' => return Ok(Value::Obj(map)),
                c => return Err(format!("expected ',' or '}}', got '{c}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect('[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bump()? {
                ',' => continue,
                ']' => return Ok(Value::Arr(items)),
                c => return Err(format!("expected ',' or ']', got '{c}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect('"')?;
        let mut out = String::new();
        loop {
            match self.bump()? {
                '"' => return Ok(out),
                '\\' => match self.bump()? {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'b' => out.push('\u{08}'),
                    'f' => out.push('\u{0C}'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump()?;
                            code = code * 16
                                + d.to_digit(16)
                                    .ok_or_else(|| format!("bad \\u digit '{d}'"))?;
                        }
                        // Surrogate pairs are not emitted by our writers;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    c => return Err(format!("bad escape '\\{c}'")),
                },
                c => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || "+-.eE".contains(c))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| format!("bad number '{text}': {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
        assert_eq!(escape("a\\b"), "\"a\\\\b\"");
        assert_eq!(escape("line\nbreak\ttab"), "\"line\\nbreak\\ttab\"");
        assert_eq!(escape("\u{01}"), "\"\\u0001\"");
    }

    #[test]
    fn escape_round_trips_through_parser() {
        for s in [
            "simple",
            "with \"quotes\" and \\slashes\\",
            "control\u{01}\u{1f}chars",
            "newline\nand\ttab",
            "unicode: héllo ↔ 环",
        ] {
            let doc = format!("{{\"k\": {}}}", escape(s));
            let v = Value::parse(&doc).unwrap();
            assert_eq!(v.get("k").unwrap().as_str().unwrap(), s);
        }
    }

    #[test]
    fn parses_nested_documents() {
        let v =
            Value::parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let doc = open.repeat(1_000_000);
            let err = Value::parse(&doc).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
            // Exactly at the limit still parses; one more level does not.
            let at = format!("{}0{}", open.repeat(MAX_DEPTH), close.repeat(MAX_DEPTH));
            assert!(Value::parse(&at).is_ok());
            let past = format!("{open}{at}{close}");
            assert!(Value::parse(&past).is_err());
        }
    }

    /// Nesting depth of a parsed value (scalars are depth 0).
    fn depth(v: &Value) -> usize {
        match v {
            Value::Arr(xs) => 1 + xs.iter().map(depth).max().unwrap_or(0),
            Value::Obj(m) => 1 + m.values().map(depth).max().unwrap_or(0),
            _ => 0,
        }
    }

    #[test]
    fn golden_ledger_and_provenance_parse_well_within_the_limit() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../oracle/tests/golden");
        let ledger = std::fs::read_to_string(dir.join("ledger.jsonl")).unwrap();
        let mut docs = Vec::new();
        for line in ledger.lines() {
            let record = Value::parse(line).unwrap();
            // The provenance document is embedded as a string.
            let prov = record.get("provenance").and_then(Value::as_str).unwrap();
            docs.push(Value::parse(prov).unwrap());
            docs.push(record);
        }
        let text = std::fs::read_to_string(dir.join("provenance_xy_mesh3x3.json")).unwrap();
        docs.push(Value::parse(&text).unwrap());
        assert!(docs.len() >= 3);
        let deepest = docs.iter().map(depth).max().unwrap();
        assert!(deepest * 16 <= MAX_DEPTH, "golden depth {deepest}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Value::parse("{} extra").is_err());
        assert!(Value::parse("[1, 2,]").is_err());
        assert!(Value::parse("{\"a\"}").is_err());
    }

    #[test]
    fn number_formatting_round_trips() {
        for x in [0.0, 1.0, -2.5, 1e-9, 12345.6789] {
            let v = Value::parse(&number(x)).unwrap();
            assert_eq!(v.as_f64(), Some(x));
        }
        assert_eq!(number(f64::NAN), "null");
    }
}
