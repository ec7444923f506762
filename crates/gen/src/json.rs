//! The workspace's one JSON codec: a generic value model, a strict parser
//! and a deterministic writer.
//!
//! The workspace builds fully offline (no `serde_json`; DESIGN.md §4), so
//! every JSON format is built on this module: ECC-set interchange files
//! ([`crate::EccSet::to_json`]), the `.audit` sidecars and audit reports of
//! [`crate::audit`], the bench reports of `quartz_bench::report`, and the
//! daemon's wire protocol (`quartz_serve::wire`, which re-exports this
//! module as `quartz_serve::json`). Each format encodes by building a
//! [`Json`] tree and decodes by walking one, so there is one escaper, one
//! number syntax and one set of error positions.
//!
//! The parser is strict because wire bodies arrive from untrusted clients:
//! it rejects trailing characters, unpaired surrogates and nesting deeper
//! than 64 levels (unbounded recursion would let a hostile document
//! overflow the stack). Every parse error carries the **position** of the
//! offending byte — 1-based line, 1-based column counted in characters, and
//! 0-based byte offset — including truncation errors, which point at the
//! end of the input ("unexpected end of input at …").
//!
//! Object member order is preserved (members are a `Vec`, not a map), which
//! keeps encoding deterministic: the same value always serializes to the
//! same bytes. `{}` writes the compact layout; `{:#}` the pretty one (one
//! object member per line at 2-space indent, arrays of scalars inline).
//! The round-trip property `parse(write(v)) == v` holds for every value
//! this module can represent and is enforced by proptests.

use std::fmt::{self, Write as _};

/// A JSON value. Numbers are split into integer and float forms so ids and
/// counters round-trip exactly (no 2^53 loss for the u64 ids the wire
/// carries).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer in `i128` range (covers `u64` and `i64` exactly).
    Int(i128),
    /// A non-integer number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, member order preserved.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match), `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload as `u64`, if this is a non-negative integer in
    /// range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The integer payload as `usize`, if in range.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Int(i) => usize::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The array payload, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Writes the value: `indent` is `None` for the compact layout and the
    /// current nesting level for the pretty one.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let inner = indent.map(|level| level + 1);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(f) => {
                // f64 -> shortest round-trippable decimal; JSON has no
                // non-finite literals, map them to null like serde_json.
                if f.is_finite() {
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Array(items) => {
                // Pretty arrays break lines only around nested containers;
                // arrays of scalars stay on one line, ", "-separated.
                let block = indent.filter(|_| {
                    items
                        .iter()
                        .any(|item| matches!(item, Json::Array(_) | Json::Object(_)))
                });
                let separator = if indent.is_some() && block.is_none() {
                    ", "
                } else {
                    ","
                };
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(separator);
                    }
                    if let Some(level) = block {
                        newline(out, level + 1);
                    }
                    item.write(out, inner);
                }
                if let Some(level) = block {
                    newline(out, level);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(level) = indent {
                        newline(out, level + 1);
                    }
                    write_json_string(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, inner);
                }
                if let Some(level) = indent.filter(|_| !members.is_empty()) {
                    newline(out, level);
                }
                out.push('}');
            }
        }
    }
}

/// Serializes deterministically: the same value always produces the same
/// bytes (object member order is preserved). `{}` is compact JSON with no
/// whitespace; `{:#}` is the pretty layout — one object member per line at
/// 2-space indent, arrays of scalars inline and `", "`-separated, arrays
/// holding arrays or objects one element per line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, f.alternate().then_some(0));
        f.write_str(&out)
    }
}

fn newline(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// A JSON parse error with the position of the offending byte. Truncated
/// input reports the position of the end of the input, so a client that
/// sent a torn body learns exactly where its payload stopped making sense.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// 1-based line of the offending byte.
    pub line: usize,
    /// 1-based column of the offending byte, in characters: non-ASCII text
    /// earlier on the line does not shift it.
    pub column: usize,
    /// 0-based byte offset of the offending byte.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at line {}, column {} (byte {})",
            self.message, self.line, self.column, self.offset
        )
    }
}

impl std::error::Error for JsonError {}

/// Parses a complete JSON document, requiring the whole input to be
/// consumed (trailing non-whitespace is an error).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut parser = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    let value = parser.value(0)?;
    parser.skip_ws();
    if parser.pos < parser.bytes.len() {
        return Err(parser.error("trailing characters after JSON value"));
    }
    Ok(value)
}

/// Nesting bound: deeper inputs are rejected (every format in the workspace
/// stays under a dozen levels; unbounded recursion would let a hostile
/// document overflow the parsing thread's stack).
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: impl Into<String>) -> JsonError {
        let prefix = &self.bytes[..self.pos.min(self.bytes.len())];
        let line_start = prefix
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |p| p + 1);
        // Count characters, not bytes: skip UTF-8 continuation bytes.
        let column = 1 + prefix[line_start..]
            .iter()
            .filter(|&&b| b & 0xC0 != 0x80)
            .count();
        JsonError {
            message: message.into(),
            line: 1 + prefix.iter().filter(|&&b| b == b'\n').count(),
            column,
            offset: self.pos,
        }
    }

    fn eof_error(&self, expecting: &str) -> JsonError {
        self.error(format!("unexpected end of input, expecting {expecting}"))
    }

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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            Some(got) => {
                Err(self.error(format!("expected '{}', found '{}'", b as char, got as char)))
            }
            None => Err(self.eof_error(&format!("'{}'", b as char))),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else if self.bytes.len() - self.pos < text.len()
            && text
                .as_bytes()
                .starts_with(&self.bytes[self.pos..self.bytes.len()])
        {
            self.pos = self.bytes.len();
            Err(self.eof_error(&format!("literal '{text}'")))
        } else {
            Err(self.error(format!("invalid literal, expecting '{text}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("maximum nesting depth {MAX_DEPTH} exceeded")));
        }
        match self.peek() {
            None => Err(self.eof_error("a JSON value")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(self.error(format!("unexpected character '{}'", b as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                Some(b) => {
                    return Err(self.error(format!(
                        "expected ',' or ']' in array, found '{}'",
                        b as char
                    )))
                }
                None => return Err(self.eof_error("',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return match self.peek() {
                    Some(b) => {
                        Err(self
                            .error(format!("expected object key string, found '{}'", b as char)))
                    }
                    None => Err(self.eof_error("an object key")),
                };
            }
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                Some(b) => {
                    return Err(self.error(format!(
                        "expected ',' or '}}' in object, found '{}'",
                        b as char
                    )))
                }
                None => return Err(self.eof_error("',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.eof_error("closing '\"' of string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.eof_error("an escape character"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let first = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&first) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let second = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&second) {
                                        self.pos -= 4;
                                        return Err(
                                            self.error("invalid low surrogate in \\u escape")
                                        );
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00)
                                } else {
                                    return Err(self.error("unpaired high surrogate in \\u escape"));
                                }
                            } else if (0xDC00..0xE000).contains(&first) {
                                self.pos -= 4;
                                return Err(self.error("unpaired low surrogate in \\u escape"));
                            } else {
                                first
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.error("invalid \\u escape")),
                            }
                        }
                        _ => {
                            self.pos -= 1;
                            return Err(
                                self.error(format!("invalid escape character '{}'", esc as char))
                            );
                        }
                    }
                }
                _ if b < 0x20 => {
                    self.pos -= 1;
                    return Err(self.error("unescaped control character in string"));
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b. The input
                    // is a &str, so the sequence is valid by construction.
                    let start = self.pos - 1;
                    let len = utf8_len(b);
                    self.pos = start + len;
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .expect("input is valid UTF-8");
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let Some(b) = self.peek() else {
                return Err(self.eof_error("4 hex digits of \\u escape"));
            };
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.error("invalid hex digit in \\u escape")),
            };
            self.pos += 1;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let int_digits = self.digit_run();
        if int_digits == 0 {
            return match self.peek() {
                Some(_) => Err(self.error("invalid number: expected digits")),
                None => Err(self.eof_error("digits of a number")),
            };
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if self.digit_run() == 0 {
                return match self.peek() {
                    Some(_) => Err(self.error("invalid number: expected fractional digits")),
                    None => Err(self.eof_error("fractional digits of a number")),
                };
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digit_run() == 0 {
                return match self.peek() {
                    Some(_) => Err(self.error("invalid number: expected exponent digits")),
                    None => Err(self.eof_error("exponent digits of a number")),
                };
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        if !is_float {
            if let Ok(i) = text.parse::<i128>() {
                return Ok(Json::Int(i));
            }
        }
        match text.parse::<f64>() {
            Ok(f) => Ok(Json::Float(f)),
            Err(_) => Err(self.error("number out of range")),
        }
    }

    fn digit_run(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EccSet;

    #[test]
    fn scalar_round_trips() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("0", Json::Int(0)),
            ("-12", Json::Int(-12)),
            ("18446744073709551615", Json::Int(u64::MAX as i128)),
            ("1.5", Json::Float(1.5)),
            ("\"hi\"", Json::Str("hi".into())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
            assert_eq!(parse(&value.to_string()).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Json::Object(vec![
            ("id".into(), Json::Int(7)),
            (
                "trace".into(),
                Json::Array(vec![Json::Int(30), Json::Int(12), Json::Int(0)]),
            ),
            ("qasm".into(), Json::Str("OPENQASM 2.0;\nh q[0];".into())),
            ("nested".into(), Json::Object(vec![])),
        ]);
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(parse(&format!("{v:#}")).unwrap(), v);
    }

    #[test]
    fn pretty_layout_breaks_objects_and_keeps_scalar_arrays_inline() {
        let v = Json::Object(vec![
            ("name".into(), Json::Str("x".into())),
            (
                "digests".into(),
                Json::Array(vec![Json::Int(1), Json::Int(2)]),
            ),
            ("empty".into(), Json::Array(vec![])),
            (
                "rows".into(),
                Json::Array(vec![Json::Object(vec![("a".into(), Json::Null)])]),
            ),
            ("none".into(), Json::Object(vec![])),
        ]);
        assert_eq!(
            format!("{v:#}"),
            "{\n  \"name\": \"x\",\n  \"digests\": [1, 2],\n  \"empty\": [],\n  \
             \"rows\": [\n    {\n      \"a\": null\n    }\n  ],\n  \"none\": {}\n}"
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let s = "quote \" backslash \\ newline \n tab \t nul \u{1} unicode ü 𝄞";
        let v = Json::Str(s.into());
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        // Escaped surrogate pair decodes to the astral char.
        assert_eq!(parse("\"\\ud834\\udd1e\"").unwrap(), Json::Str("𝄞".into()));
    }

    #[test]
    fn truncated_inputs_carry_the_end_position() {
        for text in [
            "{\"qasm\":\"OPENQ",
            "{\"qasm\"",
            "[1,2",
            "\"unterminated",
            "tru",
            "12.",
            "{\"a\":",
        ] {
            let err = parse(text).unwrap_err();
            assert!(
                err.message.contains("unexpected end of input"),
                "{text}: {err}"
            );
            assert_eq!(err.offset, text.len(), "{text}");
        }
    }

    #[test]
    fn malformed_inputs_point_at_the_offending_byte() {
        let err = parse("{\"a\":1,\n  \"b\": nope}").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.offset > 0);
        let err = parse("[1, 2,]").unwrap_err();
        assert_eq!(err.offset, 6);
        let err = parse("{\"a\":1} trailing").unwrap_err();
        assert!(err.message.contains("trailing"));
        // The two-byte 'π' is one column: the '!' is the 6th character.
        let err = parse("{\"π\":!}").unwrap_err();
        assert_eq!((err.line, err.column, err.offset), (1, 6, 6), "{err}");
    }

    #[test]
    fn depth_bound_rejects_hostile_nesting() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting depth"));
    }

    #[test]
    fn parser_handles_nesting_and_rejects_garbage() {
        let v = parse(r#"{"a":[1,-2,{"b":"x"}],"c":3}"#).unwrap();
        assert_eq!(v.get("c").and_then(Json::as_usize), Some(3));
        let arr = v.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(arr[1], Json::Int(-2));
        assert_eq!(arr[2].get("b").and_then(Json::as_str), Some("x"));
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\":1").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
    }

    #[test]
    fn strings_preserve_escapes_and_non_ascii() {
        let v = parse(r#"{"k":"π/4 → rz\n\"quoted\""}"#).unwrap();
        assert_eq!(
            v.get("k").and_then(Json::as_str),
            Some("π/4 → rz\n\"quoted\"")
        );
        assert!(parse(r#""bad \A escape""#).is_err());
    }

    #[test]
    fn malformed_shapes_are_reported() {
        assert!(EccSet::from_json("[1,2]").is_err());
        assert!(
            EccSet::from_json(r#"{"num_qubits":1,"num_params":0,"eccs":[{"circuits":[]}]}"#)
                .is_err()
        );
        let bad_gate = r#"{"num_qubits":1,"num_params":0,"eccs":[{"circuits":[
            {"num_qubits":1,"num_params":0,"instructions":[{"gate":"nope","qubits":[0],"params":[]}]}
        ]}]}"#;
        assert!(EccSet::from_json(bad_gate)
            .unwrap_err()
            .contains("unknown gate"));
        let bad_arity = r#"{"num_qubits":2,"num_params":0,"eccs":[{"circuits":[
            {"num_qubits":2,"num_params":0,"instructions":[{"gate":"cx","qubits":[0],"params":[]}]}
        ]}]}"#;
        assert!(EccSet::from_json(bad_arity)
            .unwrap_err()
            .contains("qubit operands"));
    }

    #[test]
    fn errors_carry_line_and_column_context() {
        // A shape error names the JSON path of the offending value: the
        // one-line files `quartz-lib unpack` writes have no useful column.
        let bad_gate = "{\"num_qubits\":1,\"num_params\":0,\"eccs\":[{\"circuits\":[\n  \
            {\"num_qubits\":1,\"num_params\":0,\"instructions\":[{\"gate\":\"nope\",\"qubits\":[0],\"params\":[]}]}\n\
            ]}]}";
        let err = EccSet::from_json(bad_gate).unwrap_err();
        assert_eq!(
            err, "eccs[0].circuits[0].instructions[0].gate: unknown gate \"nope\"",
            "{err}"
        );

        // Syntax errors carry the offset of the offending byte.
        let err = EccSet::from_json("{\"num_qubits\":1,\n!").unwrap_err();
        assert!(err.contains("line 2, column 1"), "{err}");

        // A shape error on a nested value names that value.
        let err =
            EccSet::from_json(r#"{"num_qubits":"one","num_params":0,"eccs":[]}"#).unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
        assert!(err.starts_with("num_qubits: "), "{err}");

        // Columns count characters, not bytes: the two-byte 'π' before the
        // offending '!' (byte 6 but the 6th character, not the 7th) must
        // not shift the reported column.
        let err = EccSet::from_json("{\"π\":!}").unwrap_err();
        assert!(err.contains("column 6 (byte 6)"), "{err}");
        let err = EccSet::from_json("{\"ππ\":!}").unwrap_err();
        assert!(err.contains("column 7 (byte 8)"), "{err}");
    }
}
