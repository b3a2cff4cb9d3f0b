//! The hand-rolled Rust source scanner.
//!
//! [`strip_source`] walks a file once with a small state machine and
//! produces, per line, the *code content* (comments and string/char
//! literals blanked out, so rules never match inside prose or test data)
//! plus the set of `lint:allow(<rule>)` annotations governing that line.
//! It understands line comments, nested block comments, plain and raw
//! string literals (with `#` fences and `b`/`r` prefixes), character
//! literals, and the `'a` lifetime ambiguity — enough fidelity for
//! token-level rules without a full parser.

/// One source line after stripping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line {
    /// The line's code with comment and literal *contents* replaced by
    /// spaces (string delimiters are kept so expressions stay shaped).
    pub code: String,
    /// Rules allowed on this line, harvested from `lint:allow(...)` in a
    /// comment on the line itself or on comment-only lines directly above.
    pub allows: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Normal,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Strips `text` into per-line code content and allow annotations.
pub fn strip_source(text: &str) -> Vec<Line> {
    let mut lines = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    // Allows harvested from comment-only lines, waiting for the next line
    // that carries code.
    let mut pending: Vec<String> = Vec::new();
    let mut state = State::Normal;

    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\n' {
            // A line comment never survives a newline.
            if state == State::LineComment {
                state = State::Normal;
            }
            let mut allows = parse_allows(&comment);
            if code.trim().is_empty() {
                // Comment-only (or blank) line: carry its allows forward.
                pending.append(&mut allows);
                lines.push(Line {
                    code: std::mem::take(&mut code),
                    allows: Vec::new(),
                });
            } else {
                allows.extend(std::mem::take(&mut pending));
                lines.push(Line {
                    code: std::mem::take(&mut code),
                    allows,
                });
            }
            comment.clear();
            continue;
        }
        match state {
            State::Normal => match c {
                '/' => match chars.peek() {
                    Some('/') => {
                        chars.next();
                        state = State::LineComment;
                    }
                    Some('*') => {
                        chars.next();
                        state = State::BlockComment(1);
                    }
                    _ => code.push('/'),
                },
                '"' => {
                    code.push('"');
                    state = State::Str;
                }
                'r' | 'b' => {
                    // Possible raw/byte string prefix: r", r#", br", b".
                    let mut prefix = String::from(c);
                    if c == 'b' {
                        if let Some('r') = chars.peek() {
                            prefix.push('r');
                            chars.next();
                        }
                    }
                    let mut hashes = 0u32;
                    while let Some('#') = chars.peek() {
                        // Only a raw-string prefix may be followed by '#'s
                        // then '"'; attribute '#' never follows an ident.
                        if !prefix.contains('r') {
                            break;
                        }
                        hashes += 1;
                        chars.next();
                    }
                    match chars.peek() {
                        Some('"') if prefix.contains('r') || prefix == "b" => {
                            chars.next();
                            code.push_str(&prefix);
                            code.push('"');
                            state = State::RawStr(hashes);
                            if !prefix.contains('r') {
                                // b"..." is an ordinary (escaped) string.
                                state = State::Str;
                            }
                        }
                        _ => {
                            // Just an identifier character; re-emit what we
                            // consumed speculatively.
                            code.push_str(&prefix);
                            for _ in 0..hashes {
                                code.push('#');
                            }
                        }
                    }
                }
                '\'' => {
                    // Lifetime (`'a`) vs char literal (`'a'`, `'\n'`).
                    let mut ahead = chars.clone();
                    let first = ahead.next();
                    let second = ahead.next();
                    let is_char =
                        matches!((first, second), (Some('\\'), _) | (Some(_), Some('\'')));
                    if is_char {
                        code.push('\'');
                        state = State::Char;
                    } else {
                        code.push('\'');
                    }
                }
                other => code.push(other),
            },
            State::LineComment => comment.push(c),
            State::BlockComment(depth) => {
                comment.push(c);
                if c == '*' {
                    if let Some('/') = chars.peek() {
                        chars.next();
                        if depth == 1 {
                            state = State::Normal;
                        } else {
                            state = State::BlockComment(depth - 1);
                        }
                    }
                } else if c == '/' {
                    if let Some('*') = chars.peek() {
                        chars.next();
                        comment.push('*');
                        state = State::BlockComment(depth + 1);
                    }
                }
            }
            State::Str => match c {
                '\\' => {
                    chars.next();
                    code.push(' ');
                }
                '"' => {
                    code.push('"');
                    state = State::Normal;
                }
                _ => code.push(' '),
            },
            State::RawStr(hashes) => {
                if c == '"' {
                    // Close only when followed by the fence's hash count.
                    let mut ahead = chars.clone();
                    let mut seen = 0u32;
                    while seen < hashes {
                        match ahead.next() {
                            Some('#') => seen += 1,
                            _ => break,
                        }
                    }
                    if seen == hashes {
                        for _ in 0..hashes {
                            chars.next();
                        }
                        code.push('"');
                        state = State::Normal;
                        continue;
                    }
                }
                code.push(' ');
            }
            State::Char => match c {
                '\\' => {
                    chars.next();
                    code.push(' ');
                }
                '\'' => {
                    code.push('\'');
                    state = State::Normal;
                }
                _ => code.push(' '),
            },
        }
    }
    // Final unterminated line.
    if !code.is_empty() || !comment.is_empty() {
        let mut allows = parse_allows(&comment);
        allows.extend(std::mem::take(&mut pending));
        lines.push(Line { code, allows });
    }
    lines
}

/// Extracts every rule named in `lint:allow(a, b)` occurrences.
fn parse_allows(comment: &str) -> Vec<String> {
    let mut allows = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("lint:allow(") {
        rest = &rest[at + "lint:allow(".len()..];
        let Some(end) = rest.find(')') else { break };
        for rule in rest[..end].split(',') {
            let rule = rule.trim();
            if !rule.is_empty() {
                allows.push(rule.to_string());
            }
        }
        rest = &rest[end + 1..];
    }
    allows
}

/// Whether `c` can appear in a Rust identifier.
pub fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Iterates the identifier-shaped tokens of a stripped line as
/// `(byte_offset, token)` pairs.  Numeric literals are yielded too (callers
/// filter on the first character when they care).
pub fn tokens(code: &str) -> Vec<(usize, &str)> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if is_ident_char(bytes[i] as char) {
            let start = i;
            while i < bytes.len() && is_ident_char(bytes[i] as char) {
                i += 1;
            }
            out.push((start, &code[start..i]));
        } else {
            i += 1;
        }
    }
    out
}

/// The identifier immediately before byte offset `pos` (skipping
/// whitespace), or `None` if the preceding token is not an identifier.
pub fn ident_ending_before(code: &str, pos: usize) -> Option<&str> {
    let bytes = code.as_bytes();
    let mut end = pos;
    while end > 0 && (bytes[end - 1] as char).is_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident_char(bytes[start - 1] as char) {
        start -= 1;
    }
    if start == end {
        None
    } else {
        Some(&code[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let lines = strip_source(
            "let x = \"Instant::now()\"; // Instant here too\nlet y = 1; /* SystemTime */ let z = 2;\n",
        );
        assert!(!lines[0].code.contains("Instant"));
        assert!(lines[0].code.contains("let x ="));
        assert!(!lines[1].code.contains("SystemTime"));
        assert!(lines[1].code.contains("let z = 2;"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let lines = strip_source("/* a /* b */ still comment */ let x = 1;\n");
        assert!(lines[0].code.contains("let x = 1;"));
        assert!(!lines[0].code.contains("still"));
    }

    #[test]
    fn raw_strings_with_fences_are_blanked() {
        let lines = strip_source("let s = r#\"Instant \"quoted\" inside\"#; let t = 2;\n");
        assert!(!lines[0].code.contains("Instant"));
        assert!(lines[0].code.contains("let t = 2;"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let lines = strip_source(
            "fn f<'a>(x: &'a str) -> &'a str { x }\nlet c = 'x'; let d = '\\n'; let e = 1;\n",
        );
        assert!(lines[0].code.contains("&'a str"));
        assert!(!lines[1].code.contains('x'), "char contents blanked");
        assert!(lines[1].code.contains("let e = 1;"));
    }

    #[test]
    fn allows_attach_to_their_line_and_carry_from_above() {
        let lines = strip_source(
            "let a = 1; // lint:allow(rule-x): same line\n// lint:allow(rule-y): comment above\nlet b = 2;\nlet c = 3;\n",
        );
        assert_eq!(lines[0].allows, vec!["rule-x"]);
        assert!(lines[1].allows.is_empty());
        assert_eq!(lines[2].allows, vec!["rule-y"]);
        assert!(lines[3].allows.is_empty());
    }

    #[test]
    fn token_helpers_find_receivers() {
        let code = "let total: u64 = self.counts.values().sum();";
        let pos = code.find(".values").unwrap();
        assert_eq!(ident_ending_before(code, pos), Some("counts"));
    }
}
