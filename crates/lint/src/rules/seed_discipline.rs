//! `seed-discipline`: child seeds come from `SeedStream`/`split_seed`,
//! never from ad-hoc arithmetic.
//!
//! Deriving per-replica or per-entity seeds by hand (`base_seed + i`,
//! `seed * replica`) produces correlated streams: adjacent entities get
//! adjacent raw seeds, and any generator weakness shows up as lockstep
//! behaviour across the fleet.  `sim::seeds` exists precisely to avalanche
//! such derivations, so every seed-shaped value combined arithmetically
//! with another *expression* is a finding.  Two escapes:
//!
//! * combining a seed with a **literal** (`seed ^ 0x9E37_79B9`) is a
//!   whitening mask, not a derivation, and is exempt;
//! * `sim/src/seeds.rs` itself is the blessed primitive and is not
//!   scanned.
//!
//! A historical derivation pinned by committed baselines annotates
//! `lint:allow(seed-discipline)` at the site.

use crate::engine::{Finding, Rule};
use crate::scan::{ident_ending_before, is_ident_char, tokens};
use crate::workspace::Workspace;

/// The blessed implementation of seed splitting.
const BLESSED_SUFFIX: &str = "sim/src/seeds.rs";

const OPS: &[char] = &['+', '-', '*', '^', '%'];

/// See the module docs.
pub struct SeedDiscipline;

impl Rule for SeedDiscipline {
    fn name(&self) -> &'static str {
        "seed-discipline"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        for file in &ws.files {
            if file.rel_path.ends_with(BLESSED_SUFFIX) {
                continue;
            }
            for (idx, line) in file.lines.iter().enumerate() {
                let code = &line.code;
                for (pos, tok) in tokens(code) {
                    if !tok.to_ascii_lowercase().ends_with("seed") {
                        continue;
                    }
                    if tok.chars().next().is_some_and(|c| c.is_ascii_digit()) {
                        continue;
                    }
                    if arithmetic_after(code, pos + tok.len()) || arithmetic_before(code, pos) {
                        findings.push(Finding {
                            rule: self.name(),
                            file: file.rel_path.clone(),
                            line: idx + 1,
                            message: format!(
                                "`{tok}` is combined arithmetically — derive child seeds with SeedStream/split_seed (literal masks are exempt)"
                            ),
                        });
                        break; // one finding per line is enough
                    }
                }
            }
        }
        findings
    }
}

/// Whether the seed token at `..end` is followed by an arithmetic operator
/// whose right operand is not a literal.
fn arithmetic_after(code: &str, end: usize) -> bool {
    let rest = code[end..].trim_start();
    let mut chars = rest.chars();
    let Some(op) = chars.next() else { return false };
    if !OPS.contains(&op) {
        return false;
    }
    let mut operand = chars.as_str();
    // `->` is an arrow, `-=`/`+=` etc. are compound assignments whose
    // operand follows the `=`.
    if let Some(next) = operand.chars().next() {
        if op == '-' && next == '>' {
            return false;
        }
        if next == '=' {
            operand = &operand[1..];
        }
    }
    let operand = operand.trim_start().trim_start_matches(['&', '(', ' ']);
    match operand.chars().next() {
        Some(c) if c.is_ascii_digit() => false, // literal mask: exempt
        Some(c) if is_ident_char(c) => true,
        _ => false,
    }
}

/// Whether the seed token at `pos..` is preceded by a binary arithmetic
/// operator whose left operand is not a literal.
fn arithmetic_before(code: &str, pos: usize) -> bool {
    let pre = code[..pos].trim_end();
    let Some(op) = pre.chars().last() else {
        return false;
    };
    if !OPS.contains(&op) {
        return false;
    }
    let before_op = pre[..pre.len() - op.len_utf8()].trim_end();
    // Distinguish binary use from unary minus / deref: binary needs a value
    // (identifier, literal, or close-paren) on the left.
    let Some(left) = before_op.chars().last() else {
        return false;
    };
    if !(is_ident_char(left) || left == ')') {
        return false;
    }
    match ident_ending_before(before_op, before_op.len()) {
        Some(tok) => !tok.chars().next().is_some_and(|c| c.is_ascii_digit()),
        None => true, // `)` — a parenthesised expression operand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_masks_pass_but_expressions_fail() {
        assert!(!arithmetic_after("seed ^ 0x9E37_79B9", 4));
        assert!(arithmetic_after("seed ^ replica", 4));
        assert!(arithmetic_after("seed + (i as u64)", 4));
        assert!(!arithmetic_after("seed)", 4));
        assert!(!arithmetic_after("seed -> u64", 4));
        let code = "base + seed";
        assert!(arithmetic_before(code, code.len() - 4));
        let lit = "3 + seed";
        assert!(!arithmetic_before(lit, lit.len() - 4));
        let unary = "= -seed";
        assert!(!arithmetic_before(unary, unary.len() - 4));
    }
}
