//! # selfheal-jsonl
//!
//! Hand-rolled JSON-lines primitives shared by every codec in the workspace.
//!
//! The build environment has no registry access (the `serde` dependency is a
//! no-op shim), so persistence formats are written by hand.  Two codecs need
//! the same low-level machinery — the request-trace codec in
//! `selfheal_workload::codec` and the synopsis codec in
//! `selfheal_core::snapshot` — and this crate is that machinery, extracted
//! once instead of duplicated:
//!
//! * [`Scanner`] — a recursive-descent cursor over one line: whitespace
//!   skipping, token expectation, and number / boolean / string parsing
//!   (including escape sequences).
//! * [`escape_into`] / [`push_json_string`] — the serialization-side string
//!   escaping the scanner undoes.
//! * [`JsonError`] — a parse failure with line and byte-offset context.
//! * [`parse_lines`] — the JSON-lines document loop (skip blanks, stamp
//!   1-based line numbers onto errors).
//!
//! The contract every codec built on these primitives upholds is
//! `parse ∘ serialize = id`, asserted structurally by the round-trip
//! property tests in `tests/properties.rs`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt::{self, Write as _};

/// A parse failure, with the 1-based line number when decoding a whole
/// JSON-lines document (0 when parsing a single line directly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// 1-based line of the failure; 0 for single-line parses.
    pub line: usize,
    /// Byte offset of the failure within the line.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl JsonError {
    /// Creates an error at a byte offset within the current line.
    pub fn at(offset: usize, message: impl Into<String>) -> Self {
        JsonError {
            line: 0,
            offset,
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "codec error at line {}, byte {}: {}",
                self.line, self.offset, self.message
            )
        } else {
            write!(f, "codec error at byte {}: {}", self.offset, self.message)
        }
    }
}

impl std::error::Error for JsonError {}

/// Appends `s` to `out` with JSON string escaping (quotes, backslashes,
/// control characters).  The inverse of [`Scanner::parse_string`].
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String cannot fail");
            }
            c => out.push(c),
        }
    }
}

/// Appends `"s"` (quoted and escaped) to `out`.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Appends a finite `f64` in shortest round-trip form; non-finite values
/// (which valid telemetry never produces) are written as `0`, keeping the
/// output well-formed JSON.
pub fn push_f64(out: &mut String, value: f64) {
    if value.is_finite() {
        write!(out, "{value:?}").expect("writing to a String cannot fail");
    } else {
        out.push('0');
    }
}

/// Parses a JSON-lines document: blank lines are skipped, and every error
/// from `parse` is stamped with its 1-based line number.
pub fn parse_lines<T>(
    text: &str,
    mut parse: impl FnMut(&str) -> Result<T, JsonError>,
) -> Result<Vec<T>, JsonError> {
    let mut items = Vec::new();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        items.push(parse(line).map_err(|mut err| {
            err.line = index + 1;
            err
        })?);
    }
    Ok(items)
}

/// A minimal recursive-descent scanner over one JSON line.
///
/// Object and array structure stays in the calling codec (each knows its own
/// schema); the scanner owns the token-level work every codec shares.
#[derive(Debug)]
pub struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// Starts a scanner at the beginning of `line`.
    pub fn new(line: &'a str) -> Self {
        Scanner {
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    /// Current byte offset (for error reporting).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether the cursor is past the final byte.
    pub fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// The byte under the cursor, if any.
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Advances one byte.
    pub fn bump(&mut self) {
        self.pos += 1;
    }

    /// Skips spaces and tabs (JSON-lines records never span lines).
    pub fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `byte` (after optional whitespace) or errors.
    pub fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => Err(JsonError::at(
                self.pos,
                format!("expected '{}', found '{}'", byte as char, b as char),
            )),
            None => Err(JsonError::at(
                self.pos,
                format!("expected '{}', found end of line", byte as char),
            )),
        }
    }

    /// Errors unless the cursor (after optional whitespace) is at the end of
    /// the line — the trailing-data check every single-line parse ends with.
    pub fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.at_end() {
            Ok(())
        } else {
            Err(JsonError::at(self.pos, "trailing data after the record"))
        }
    }

    /// Parses an unsigned decimal integer.
    pub fn parse_u64(&mut self) -> Result<u64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(JsonError::at(start, "expected an unsigned integer"));
        }
        let digits = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        digits
            .parse::<u64>()
            .map_err(|_| JsonError::at(start, format!("integer out of range: {digits}")))
    }

    /// Parses a JSON number as `f64` (sign, fraction, and exponent forms).
    pub fn parse_f64(&mut self) -> Result<f64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        if matches!(self.peek(), Some(b'-' | b'+')) {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            self.pos += 1;
            // An exponent may carry its own sign.
            if matches!(self.bytes.get(self.pos - 1), Some(b'e' | b'E'))
                && matches!(self.peek(), Some(b'-' | b'+'))
            {
                self.pos += 1;
            }
        }
        if self.pos == start {
            return Err(JsonError::at(start, "expected a number"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>()
            .map_err(|_| JsonError::at(start, format!("invalid number: {text}")))
    }

    /// Parses `true` or `false`.
    pub fn parse_bool(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let rest = &self.bytes[self.pos.min(self.bytes.len())..];
        if rest.starts_with(b"true") {
            self.pos += 4;
            Ok(true)
        } else if rest.starts_with(b"false") {
            self.pos += 5;
            Ok(false)
        } else {
            Err(JsonError::at(self.pos, "expected 'true' or 'false'"))
        }
    }

    /// Parses a `"..."` string, interpreting the escape sequences
    /// [`escape_into`] produces.  Borrows from the line when no escapes are
    /// present (the common case for identifier-like labels).
    pub fn parse_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: scan for the closing quote; fall back to owned
        // unescaping the moment a backslash appears.
        loop {
            match self.peek() {
                Some(b'"') => {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| JsonError::at(start, "string is not valid UTF-8"))?;
                    self.pos += 1;
                    return Ok(Cow::Borrowed(s));
                }
                Some(b'\\') => return self.parse_string_escaped(start).map(Cow::Owned),
                Some(_) => self.pos += 1,
                None => return Err(JsonError::at(self.pos, "unterminated string")),
            }
        }
    }

    fn parse_string_escaped(&mut self, start: usize) -> Result<String, JsonError> {
        let prefix = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| JsonError::at(start, "string is not valid UTF-8"))?;
        let mut out = String::from(prefix);
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let at = self.pos - 1;
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| JsonError::at(at, "invalid \\u escape sequence"))?;
                            out.push(hex);
                            self.pos += 4;
                        }
                        _ => {
                            return Err(JsonError::at(self.pos, "unknown escape sequence"));
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences are copied verbatim.
                    let seq_start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|b| (b & 0xC0) == 0x80) {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[seq_start..self.pos])
                        .map_err(|_| JsonError::at(seq_start, "string is not valid UTF-8"))?;
                    out.push_str(s);
                }
                None => return Err(JsonError::at(self.pos, "unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scanner_parses_the_core_token_kinds() {
        let mut s = Scanner::new("{ \"n\": 42, \"x\": -1.5e3, \"ok\": true }");
        s.expect(b'{').unwrap();
        assert_eq!(s.parse_string().unwrap(), "n");
        s.expect(b':').unwrap();
        assert_eq!(s.parse_u64().unwrap(), 42);
        s.expect(b',').unwrap();
        assert_eq!(s.parse_string().unwrap(), "x");
        s.expect(b':').unwrap();
        assert_eq!(s.parse_f64().unwrap(), -1500.0);
        s.expect(b',').unwrap();
        assert_eq!(s.parse_string().unwrap(), "ok");
        s.expect(b':').unwrap();
        assert!(s.parse_bool().unwrap());
        s.expect(b'}').unwrap();
        s.finish().unwrap();
    }

    #[test]
    fn escape_and_unescape_are_inverse() {
        let nasty = "a\"b\\c\nd\te\r\u{1}é—日本";
        let mut out = String::new();
        push_json_string(&mut out, nasty);
        let mut s = Scanner::new(&out);
        assert_eq!(s.parse_string().unwrap(), nasty);
        assert!(s.at_end());
    }

    #[test]
    fn unescaped_strings_borrow_from_the_line() {
        let mut s = Scanner::new("\"plain_label\"");
        match s.parse_string().unwrap() {
            Cow::Borrowed(b) => assert_eq!(b, "plain_label"),
            Cow::Owned(_) => panic!("escape-free strings must borrow"),
        }
    }

    #[test]
    fn floats_round_trip_in_shortest_form() {
        for v in [0.0, -0.0, 1.0, -2.5, 1e-12, 123456.789, f64::MIN, f64::MAX] {
            let mut out = String::new();
            push_f64(&mut out, v);
            let mut s = Scanner::new(&out);
            let back = s.parse_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} -> {out}");
        }
        let mut out = String::new();
        push_f64(&mut out, f64::NAN);
        assert_eq!(out, "0", "non-finite values degrade to 0");
    }

    #[test]
    fn parse_lines_skips_blanks_and_numbers_errors() {
        let doc = "1\n\n  \n2\nx\n";
        let err =
            parse_lines(doc, |line| Scanner::new(line).parse_u64()).expect_err("the x line fails");
        assert_eq!(err.line, 5);

        let ok = parse_lines("1\n\n2\n", |line| Scanner::new(line).parse_u64()).unwrap();
        assert_eq!(ok, vec![1, 2]);
    }

    #[test]
    fn errors_carry_offsets_and_display_both_forms() {
        let mut s = Scanner::new("  }");
        let err = s.expect(b'{').unwrap_err();
        assert_eq!(err.offset, 2);
        assert!(err.to_string().contains("byte 2"));
        let mut lined = err.clone();
        lined.line = 7;
        assert!(lined.to_string().contains("line 7"));
    }

    #[test]
    fn malformed_tokens_are_rejected() {
        assert!(Scanner::new("abc").parse_u64().is_err());
        assert!(Scanner::new("--5").parse_f64().is_err());
        assert!(Scanner::new("tru").parse_bool().is_err());
        assert!(Scanner::new("\"open").parse_string().is_err());
        assert!(Scanner::new("\"bad\\q\"").parse_string().is_err());
        assert!(Scanner::new("\"bad\\u00zz\"").parse_string().is_err());
        let mut s = Scanner::new("1 trailing");
        s.parse_u64().unwrap();
        assert!(s.finish().is_err());
    }
}
