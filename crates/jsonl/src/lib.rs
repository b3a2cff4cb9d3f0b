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
//!   (including escape sequences).  A token's end is found by one search
//!   over the rest of the line and the token is a slice of the `&str` the
//!   scanner was handed, so `str::parse` is the only other reader of its
//!   bytes; a number `f64` cannot hold is an error, never an infinity.
//! * [`Scanner::object`] / [`Scanner::array`] — the one reader of
//!   `{ "key": value, … }` and `[ value, … ]` structure.  The caller's
//!   closure reads each value (it knows the schema); the scanner consumes
//!   the brackets, keys, colons and commas, and refuses a repeated key at
//!   its offset.  Neither allocates.
//! * `escape_into` / [`push_json_string`] — the serialization-side string
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
pub(crate) fn escape_into(out: &mut String, s: &str) {
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

/// Most keys one object may hold.  Every reader in the workspace names
/// fewer, and a fixed bound lets [`Scanner::object`] find a repeated key
/// without allocating.
const MAX_KEYS: usize = 8;

/// A minimal recursive-descent scanner over one JSON line.
///
/// The scanner owns the token-level work and the object / array structure
/// every codec shares; what a value means stays in the calling codec (each
/// knows its own schema).
#[derive(Debug)]
pub struct Scanner<'a> {
    /// The line, and the same line as bytes.  A token is *found* in `bytes`
    /// and *returned* as a slice of `text`: every token starts and ends
    /// next to an ASCII byte, so the slice cannot split a character and
    /// nothing is validated as UTF-8 a second time.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// Starts a scanner at the beginning of `line`.
    pub fn new(line: &'a str) -> Self {
        Scanner {
            text: line,
            bytes: line.as_bytes(),
            pos: 0,
        }
    }

    /// Current byte offset (for error reporting).
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether the cursor is past the final byte.
    pub(crate) fn at_end(&self) -> bool {
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

    /// Reads one `{ "key": value, … }` object.  Consumes the `{`, each key
    /// and its `:`, and the `,` or `}` after each value; `field` is handed
    /// the scanner at the value, the key and the key's byte offset, and
    /// reads the value.  A key given twice is refused at its second offset
    /// before `field` sees it, and so is a key past the eighth.
    pub fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, &str, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let mut keys: [Cow<'a, str>; MAX_KEYS] = Default::default();
        let mut count = 0;
        let mut done = self.open(b'{', b'}')?;
        while !done {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.parse_string()?;
            if keys[..count].contains(&key) {
                return Err(JsonError::at(key_at, format!("duplicate key \"{key}\"")));
            }
            if count == MAX_KEYS {
                let message = format!("more than {MAX_KEYS} keys in one object");
                return Err(JsonError::at(key_at, message));
            }
            self.expect(b':')?;
            self.skip_ws();
            field(self, &key, key_at)?;
            keys[count] = key;
            count += 1;
            done = self.close_or_next(b'}')?;
        }
        Ok(())
    }

    /// Reads one `[ value, … ]` array.  Consumes the `[` and the `,` or `]`
    /// after each value; `item` is handed the scanner at each value and
    /// reads it.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        let mut done = self.open(b'[', b']')?;
        while !done {
            self.skip_ws();
            item(self)?;
            done = self.close_or_next(b']')?;
        }
        Ok(())
    }

    /// Consumes `open`, and `close` too if nothing stands between them;
    /// says whether it did.  This and [`Self::close_or_next`] run once per
    /// value of every array the snapshot replay reads, inside readers
    /// instantiated in other crates: left to itself the compiler calls
    /// them there instead of inlining them, which cost replay ≈ 6 %.
    #[inline]
    fn open(&mut self, open: u8, close: u8) -> Result<bool, JsonError> {
        self.expect(open)?;
        self.skip_ws();
        let empty = self.peek() == Some(close);
        self.pos += usize::from(empty);
        Ok(empty)
    }

    /// Consumes the `,` or `close` after a member; says whether it was
    /// `close`.
    #[inline]
    fn close_or_next(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        let closed = self.peek() == Some(close);
        if !closed && self.peek() != Some(b',') {
            let message = format!("expected ',' or '{}'", close as char);
            return Err(JsonError::at(self.pos, message));
        }
        self.pos += 1;
        Ok(closed)
    }

    /// The bytes from the cursor on (none once `bump` has passed the end).
    fn rest(&self) -> &'a [u8] {
        self.bytes.get(self.pos..).unwrap_or_default()
    }

    /// Parses an unsigned decimal integer.
    pub fn parse_u64(&mut self) -> Result<u64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        let rest = self.rest();
        self.pos += rest
            .iter()
            .position(|b| !b.is_ascii_digit())
            .unwrap_or(rest.len());
        if self.pos == start {
            return Err(JsonError::at(start, "expected an unsigned integer"));
        }
        let digits = &self.text[start..self.pos];
        digits
            .parse::<u64>()
            .map_err(|_| JsonError::at(start, format!("integer out of range: {digits}")))
    }

    /// Parses a JSON number as `f64` (sign, fraction, and exponent forms).
    /// A number `f64` cannot hold (`1e999`) is refused, not read as
    /// infinity: [`push_f64`] never writes one.
    pub fn parse_f64(&mut self) -> Result<f64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        let rest = self.rest();
        // The token's end in one search over the rest of the line, entered
        // again only past the sign an exponent may carry.
        let mut len = usize::from(matches!(rest.first(), Some(b'-' | b'+')));
        loop {
            len += rest[len..]
                .iter()
                .position(|b| !matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E'))
                .unwrap_or(rest.len() - len);
            let signed_exponent = len > 0
                && matches!(rest[len - 1], b'e' | b'E')
                && matches!(rest.get(len), Some(b'-' | b'+'));
            if !signed_exponent {
                break;
            }
            len += 1;
        }
        if len == 0 {
            return Err(JsonError::at(start, "expected a number"));
        }
        self.pos += len;
        let text = &self.text[start..self.pos];
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(value),
            Ok(_) => Err(JsonError::at(start, format!("number out of range: {text}"))),
            Err(_) => Err(JsonError::at(start, format!("invalid number: {text}"))),
        }
    }

    /// Parses `true` or `false`.
    pub fn parse_bool(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let rest = self.rest();
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
    /// `escape_into` produces.  Borrows from the line when no escapes are
    /// present (the common case for identifier-like labels).
    pub fn parse_string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        // Fast path: one search for the closing quote; fall back to owned
        // unescaping when a backslash comes first.
        self.skip_plain();
        match self.peek() {
            Some(b'"') => {
                self.pos += 1;
                Ok(Cow::Borrowed(&self.text[start..self.pos - 1]))
            }
            Some(_) => self.parse_string_escaped(start).map(Cow::Owned),
            None => Err(JsonError::at(self.pos, "unterminated string")),
        }
    }

    /// Moves to the next quote or backslash (or the end of the line).
    fn skip_plain(&mut self) {
        let rest = self.rest();
        self.pos += rest
            .iter()
            .position(|b| matches!(b, b'"' | b'\\'))
            .unwrap_or(rest.len());
    }

    /// The cursor is on the first backslash of a string begun at `start`.
    fn parse_string_escaped(&mut self, start: usize) -> Result<String, JsonError> {
        let mut out = String::from(&self.text[start..self.pos]);
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
                    // Everything up to the next quote or backslash is
                    // copied verbatim, multi-byte characters included.
                    let plain = self.pos;
                    self.skip_plain();
                    out.push_str(&self.text[plain..self.pos]);
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

    #[test]
    fn numbers_an_f64_cannot_hold_are_refused_at_the_token() {
        for (line, at, token) in [("  1e999,", 2, "1e999"), ("[-1e999]", 1, "-1e999")] {
            let mut s = Scanner::new(line);
            s.bump();
            let err = s.parse_f64().unwrap_err();
            assert_eq!(err.offset, at);
            assert_eq!(err.message, format!("number out of range: {token}"));
        }
        // The largest finite value and the smallest subnormal are numbers
        // like any other.
        let max = Scanner::new("1.7976931348623157e308").parse_f64();
        assert_eq!(max, Ok(f64::MAX));
        assert_eq!(Scanner::new("5e-324").parse_f64(), Ok(5e-324));
    }

    /// `parse_f64` as it delimited a number before the slice search — one
    /// `peek` a byte, the token checked as UTF-8 a second time — kept as
    /// the oracle the search is held to.
    fn parse_f64_per_byte(s: &mut Scanner<'_>) -> Result<f64, JsonError> {
        s.skip_ws();
        let start = s.pos;
        if matches!(s.peek(), Some(b'-' | b'+')) {
            s.pos += 1;
        }
        while matches!(s.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E')) {
            s.pos += 1;
            // An exponent may carry its own sign.
            if matches!(s.bytes.get(s.pos - 1), Some(b'e' | b'E'))
                && matches!(s.peek(), Some(b'-' | b'+'))
            {
                s.pos += 1;
            }
        }
        if s.pos == start {
            return Err(JsonError::at(start, "expected a number"));
        }
        let text = std::str::from_utf8(&s.bytes[start..s.pos]).expect("ascii number");
        match text.parse::<f64>() {
            Ok(value) if value.is_finite() => Ok(value),
            Ok(_) => Err(JsonError::at(start, format!("number out of range: {text}"))),
            Err(_) => Err(JsonError::at(start, format!("invalid number: {text}"))),
        }
    }

    /// From every offset of `line` (and one past its end) the search and
    /// the oracle return the same thing and leave the cursor in the same
    /// place.
    fn assert_delimiters_agree(line: &str) {
        for bumps in 0..=line.len() + 1 {
            let (mut searched, mut stepped) = (Scanner::new(line), Scanner::new(line));
            for _ in 0..bumps {
                searched.bump();
                stepped.bump();
            }
            let found = searched.parse_f64().map(f64::to_bits);
            let expected = parse_f64_per_byte(&mut stepped).map(f64::to_bits);
            assert_eq!(found, expected, "{line:?} from byte {bumps}");
            assert_eq!(searched.pos(), stepped.pos(), "{line:?} from byte {bumps}");
        }
    }

    #[test]
    fn the_number_search_delimits_what_the_per_byte_loop_did() {
        let tokens = [
            "",
            "-",
            "+",
            "+.5",
            "1.",
            "1e",
            "1e+",
            "1e+5",
            "1E-5x",
            "1.2.3",
            "--5",
            "1-2",
            "e5",
            "e+5",
            "-e-",
            "1e+e-5",
            "1e++5",
            "-0.0",
            "1e999",
            "-1e999",
            "1e-999",
            "12345678901234567890",
            "0.30000000000000004",
            "8.034562879203127",
        ];
        for token in tokens {
            // Alone (so ending the line), after blanks, before each thing a
            // record puts after a number, and next to multi-byte characters.
            for line in [
                token.to_string(),
                format!(" \t{token}"),
                format!("{token},1.5]"),
                format!("{token} ,"),
                format!("[{token}]}}"),
                format!("{token}é"),
                format!("é{token}日"),
            ] {
                assert_delimiters_agree(&line);
            }
        }
    }

    /// What a number is made of, and what ends one.
    const NUMBER_ALPHABET: &str = "0123456789.eE+- ,]}xé";
    /// What a line is made of: whole and broken escapes, characters of
    /// every width, the other tokens and what stands between them.
    const LINE_PIECES: [&str; 30] = [
        "\"", "\"", "\\\"", "\\\\", "\\n", "\\u00e9", "\\u12", "\\ud800", "\\q", "\\", "é", "日",
        "😀", "true", "false", "tru", "12.5", "-1e+5", "1e999", "{", "}", "[", "]", ":", ",", " ",
        "\t", "\r", "x", "0",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2_000))]

        #[test]
        fn the_number_search_agrees_with_the_loop_on_arbitrary_strings(
            picks in proptest::prop::collection::vec(0usize..NUMBER_ALPHABET.chars().count(), 0..25),
        ) {
            let alphabet: Vec<char> = NUMBER_ALPHABET.chars().collect();
            let line: String = picks.iter().map(|&pick| alphabet[pick]).collect();
            assert_delimiters_agree(&line);
        }

        /// Whatever the line, and wherever `bump` has left the cursor —
        /// inside a character, past the end — every method returns.
        #[test]
        fn no_scanner_method_panics_on_any_line_from_any_offset(
            picks in proptest::prop::collection::vec(0usize..LINE_PIECES.len(), 0..25),
        ) {
            let line: String = picks.iter().map(|&pick| LINE_PIECES[pick]).collect();
            for bumps in 0..=line.len() + 2 {
                let at = || {
                    let mut s = Scanner::new(&line);
                    (0..bumps).for_each(|_| s.bump());
                    s
                };
                let _ = (at().pos(), at().at_end(), at().peek(), at().skip_ws());
                let _ = (at().expect(b'"'), at().expect(b'{'), at().finish());
                let _ = (at().parse_u64(), at().parse_f64(), at().parse_bool());
                // A string that was read ends at a quote, and a borrowed one
                // is the bytes in front of that quote.
                let mut s = at();
                if let Ok(read) = s.parse_string() {
                    let quote = s.pos() - 1;
                    assert_eq!(line.as_bytes()[quote], b'"', "{line:?} from byte {bumps}");
                    if let Cow::Borrowed(read) = read {
                        assert_eq!(read, &line[quote - read.len()..quote]);
                    }
                }
            }
        }
    }

    /// Reads any value the scanner has a method for, keys and elements
    /// nested to any depth; hands each object's keys to `keys`.
    fn read_value(s: &mut Scanner<'_>, keys: &mut Vec<Vec<String>>) -> Result<(), JsonError> {
        match s.peek() {
            Some(b'{') => {
                let mut held = Vec::new();
                let read = s.object(|s, key, _| {
                    held.push(key.to_string());
                    read_value(s, keys)
                });
                keys.push(held);
                read
            }
            Some(b'[') => s.array(|s| read_value(s, keys)),
            Some(b'"') => s.parse_string().map(drop),
            Some(b't' | b'f') => s.parse_bool().map(drop),
            _ => s.parse_f64().map(drop),
        }
    }

    /// Keys, some the same key spelt two ways, and values of every kind.
    const MEMBER_KEYS: [&str; 5] = ["\"a\"", "\"b\"", "\"\\u0061\"", "\"c\"", "\"a\\\"\""];
    const MEMBER_VALUES: [&str; 8] = [
        "1",
        "true",
        "\"s\"",
        "[]",
        "{}",
        "[1,{\"b\":2}]",
        "{\"a\":1}",
        "{\"a\":1,\"a\":2}",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(10_000))]

        /// Whatever the line — an object of members, made of JSON's
        /// pieces, arbitrary bytes, or a mix — `object` and `array` return
        /// `Ok` or `Err`, and no object that was read holds a key twice.
        #[test]
        fn object_and_array_answer_any_line_and_accept_no_repeated_key(
            members in proptest::prop::collection::vec(
                (0usize..MEMBER_KEYS.len(), 0usize..MEMBER_VALUES.len()),
                0..5,
            ),
            picks in proptest::prop::collection::vec(0usize..LINE_PIECES.len(), 0..30),
            raw in proptest::prop::collection::vec(0u32..256, 0..24),
            splice in 0usize..64,
        ) {
            let object = members
                .iter()
                .map(|&(key, value)| format!("{}:{}", MEMBER_KEYS[key], MEMBER_VALUES[value]))
                .collect::<Vec<_>>()
                .join(",");
            let object = format!("{{{object}}}");
            let pieces: String = picks.iter().map(|&pick| LINE_PIECES[pick]).collect();
            let raw: Vec<u8> = raw.into_iter().map(|byte| byte as u8).collect();
            let raw = String::from_utf8_lossy(&raw).into_owned();
            let cut = (0..=splice.min(object.len()))
                .rev()
                .find(|&at| object.is_char_boundary(at))
                .unwrap_or(0);
            let spliced = format!("{}{pieces}{}", &object[..cut], &object[cut..]);
            for line in [object, spliced, format!("[{pieces}"), format!("{pieces}{raw}")] {
                let _ = Scanner::new(&line).array(|s| s.parse_u64().map(drop));
                let mut keys = Vec::new();
                if read_value(&mut Scanner::new(&line), &mut keys).is_ok() {
                    for held in &keys {
                        let mut distinct = held.clone();
                        distinct.sort();
                        distinct.dedup();
                        assert_eq!(distinct.len(), held.len(), "{line:?} holds {held:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn object_and_array_read_structure_and_refuse_a_repeated_key() {
        let line = "{ \"a\" : [1, 2 ,3] , \"b\":{}, \"c\":[] }";
        let mut s = Scanner::new(line);
        let mut seen = Vec::new();
        s.object(|s, key, key_at| {
            seen.push((key.to_string(), key_at));
            match key {
                "a" => s.array(|s| s.parse_u64().map(drop)),
                "b" => s.object(|_, _, _| Ok(())),
                _ => s.array(|_| Ok(())),
            }
        })
        .unwrap();
        s.finish().unwrap();
        let at = |key: &str| line.find(&format!("\"{key}\"")).unwrap();
        let expected = ["a", "b", "c"].map(|key| (key.to_string(), at(key)));
        assert_eq!(seen, expected);

        // The second spelling of a key is refused at its offset, escaped
        // or not, before the closure sees it.
        for line in ["{\"a\":1,\"a\":1}", "{\"a\":1,\"\\u0061\":1}"] {
            let mut calls = 0;
            let err = Scanner::new(line)
                .object(|s, _, _| {
                    calls += 1;
                    s.parse_u64().map(drop)
                })
                .unwrap_err();
            assert_eq!((err.offset, calls), (7, 1), "{line}");
            assert_eq!(err.message, "duplicate key \"a\"");
        }
        let many = "{\"0\":0,\"1\":1,\"2\":2,\"3\":3,\"4\":4,\"5\":5,\"6\":6,\"7\":7,\"8\":8}";
        let err = Scanner::new(many).object(|s, _, _| s.parse_u64().map(drop));
        assert_eq!(err.unwrap_err().offset, many.find("\"8\"").unwrap());
        for bad in [
            "{\"a\":1 \"b\":2}",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "[1,]",
            "{",
            "[",
        ] {
            let mut s = Scanner::new(bad);
            let read = match s.peek() {
                Some(b'{') => s.object(|s, _, _| s.parse_u64().map(drop)),
                _ => s.array(|s| s.parse_u64().map(drop)),
            };
            assert!(read.is_err(), "{bad}");
        }
    }

    #[test]
    fn every_finite_f64_reads_back_bit_for_bit() {
        let round_trip = |value: f64, out: &mut String| {
            out.clear();
            push_f64(out, value);
            let mut s = Scanner::new(out);
            let back = s.parse_f64().map(f64::to_bits);
            assert_eq!(back, Ok(value.to_bits()), "{out}");
            assert!(s.at_end(), "{out}");
        };
        let mut out = String::new();
        for value in [
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits((1 << 52) - 1),
            -0.0,
            0.1 + 0.2,
        ] {
            round_trip(value, &mut out);
        }
        // Seeded draws over every bit pattern, and as many in the shape the
        // snapshot log holds: a symptom jittered to 16 or 17 digits.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut finite = 0;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let drawn = f64::from_bits(state);
            if drawn.is_finite() {
                finite += 1;
                round_trip(drawn, &mut out);
            }
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
            round_trip(97.3 * (1.0 + (unit - 0.5) * 0.02), &mut out);
        }
        assert!(finite > 990_000, "{finite} of the draws were finite");
    }
}
