//! `choice-mirror`: the pluggable-layer traits and their declarative
//! `*Choice` enums stay in lockstep.
//!
//! Each of the two open source layers — workload and faults — is a trait
//! (the open half) mirrored by a `*Choice` enum in `core/src/harness.rs`
//! (the declarative half that fleets, benches and the daemon configure
//! themselves with).  Learned state has one store type, which
//! `LearnerChoice` builds; the other `SynopsisStore` implementors are
//! decorators around it, so that layer has no mirror.  Fleet events and
//! reactive engines have no trait: their `EventChoice` / `ReactiveChoice`
//! *are* the stimulus, evaluated as matches in the fleet crate, so only the
//! variant check below applies to them (as it does to `LearnerChoice`).  A trait implementor the
//! enum cannot name is a scenario that cannot be configured declaratively —
//! and therefore escapes the fingerprint-equivalence gates that iterate the
//! choices.  Both directions are checked:
//!
//! * every implementor of a mirrored trait must be *reachable from its
//!   enum*: named in `harness.rs` itself, or constructed in a builder arm
//!   within a few lines of the enum's name (core cannot name types from
//!   the crates above it, so such a mapping would live in the crate that
//!   defines the type).  Internal adapters annotate
//!   `lint:allow(choice-mirror)` at the `impl` line;
//! * every variant of a `*Choice` enum must be referenced somewhere
//!   outside its own declaration (a variant nothing constructs or matches
//!   is a dead scenario).

use crate::engine::{Finding, Rule};
use crate::scan::tokens;
use crate::workspace::Workspace;

const HARNESS_SUFFIX: &str = "core/src/harness.rs";

/// How many lines past a mirror-enum mention a builder arm may construct
/// the concrete type (rustfmt-expanded match arms stay well inside this).
const BUILDER_WINDOW: usize = 8;

/// Mirrored trait → the enum that must reach it.
const MIRRORS: &[(&str, &str)] = &[
    ("TraceSource", "WorkloadChoice"),
    ("FaultSource", "FaultChoice"),
];

/// See the module docs.
pub struct ChoiceMirror;

impl Rule for ChoiceMirror {
    fn name(&self) -> &'static str {
        "choice-mirror"
    }

    fn description(&self) -> &'static str {
        "every mirrored-trait implementor is reachable from its *Choice enum, and every variant is used"
    }

    fn check(&self, ws: &Workspace) -> Vec<Finding> {
        let mut findings = Vec::new();
        let Some(harness) = ws.file_ending_with(HARNESS_SUFFIX) else {
            findings.push(Finding {
                rule: self.name(),
                file: format!("crates/{HARNESS_SUFFIX}"),
                line: 1,
                message: "harness.rs (the *Choice mirror) is missing".into(),
            });
            return findings;
        };

        // Per-mirror reachability sets: tokens of harness.rs itself, plus
        // tokens near any mention of the mirror enum anywhere (builder
        // match arms construct the concrete type within a few lines of
        // naming the enum variant).
        let mut reachable: std::collections::BTreeMap<&str, std::collections::BTreeSet<String>> =
            MIRRORS
                .iter()
                .map(|(_, m)| (*m, harness_token_set(harness)))
                .collect();
        for file in &ws.files {
            for (_, mirror) in MIRRORS {
                let set = reachable.get_mut(mirror).expect("mirror registered");
                for (idx, line) in file.lines.iter().enumerate() {
                    if !tokens(&line.code).iter().any(|(_, t)| t == mirror) {
                        continue;
                    }
                    for near in file.lines.iter().skip(idx).take(BUILDER_WINDOW) {
                        for (_, t) in tokens(&near.code) {
                            set.insert(t.to_string());
                        }
                    }
                }
            }
        }

        // Forward: every implementor of a mirrored trait is reachable from
        // its mirror enum.
        for file in &ws.files {
            for (idx, line) in file.lines.iter().enumerate() {
                let Some((trait_name, type_name)) = parse_impl(&line.code) else {
                    continue;
                };
                let Some((_, mirror)) = MIRRORS.iter().find(|(t, _)| *t == trait_name) else {
                    continue;
                };
                // Blanket/boxed impls aren't concrete scenario builders.
                if type_name == "Box" {
                    continue;
                }
                if !reachable[mirror].contains(type_name) {
                    findings.push(Finding {
                        rule: self.name(),
                        file: file.rel_path.clone(),
                        line: idx + 1,
                        message: format!(
                            "`{type_name}` implements `{trait_name}` but is not reachable from `{mirror}` in harness.rs"
                        ),
                    });
                }
            }
        }

        // Reverse: every *Choice variant is referenced outside its own
        // enum declaration.
        for (enum_name, variants, body) in choice_enums(harness) {
            for (variant, line) in variants {
                let mut used = false;
                'files: for file in &ws.files {
                    for (idx, l) in file.lines.iter().enumerate() {
                        let in_decl =
                            file.rel_path == harness.rel_path && body.contains(&(idx + 1));
                        if in_decl {
                            continue;
                        }
                        if tokens(&l.code).iter().any(|(_, t)| *t == variant) {
                            used = true;
                            break 'files;
                        }
                    }
                }
                if !used {
                    findings.push(Finding {
                        rule: self.name(),
                        file: harness.rel_path.clone(),
                        line,
                        message: format!(
                            "variant `{enum_name}::{variant}` is never constructed or matched outside its declaration"
                        ),
                    });
                }
            }
        }

        findings
    }
}

/// The full token set of the harness file.
fn harness_token_set(harness: &crate::workspace::SourceFile) -> std::collections::BTreeSet<String> {
    harness
        .lines
        .iter()
        .flat_map(|l| {
            tokens(&l.code)
                .into_iter()
                .map(|(_, t)| t.to_string())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Parses `impl [<...>] Trait for Type` headers (single-line, which is how
/// rustfmt lays them out), returning the trait's and type's last path
/// segments.
fn parse_impl(code: &str) -> Option<(&str, &str)> {
    let trimmed = code.trim_start();
    if !trimmed.starts_with("impl") {
        return None;
    }
    let toks = tokens(code);
    let for_at = toks.iter().position(|(_, t)| *t == "for")?;
    if for_at == 0 {
        return None;
    }
    // Trait name: last identifier before `for` that isn't a generic
    // parameter or keyword (path segments leave the last one in place).
    let (_, trait_name) = toks[for_at - 1];
    // Type name: first identifier after `for`, skipping `&`, `mut`, `dyn`.
    let (_, type_name) = toks
        .iter()
        .skip(for_at + 1)
        .find(|(_, t)| !matches!(*t, "dyn" | "mut"))?;
    Some((trait_name, type_name))
}

/// The `*Choice` enums of the harness file: `(name, variants, body_lines)`.
type EnumInfo = (
    String,
    Vec<(String, usize)>,
    std::collections::BTreeSet<usize>,
);

fn choice_enums(harness: &crate::workspace::SourceFile) -> Vec<EnumInfo> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < harness.lines.len() {
        let code = &harness.lines[i].code;
        let toks = tokens(code);
        let is_enum = toks
            .windows(2)
            .any(|w| w[0].1 == "enum" && w[1].1.ends_with("Choice"));
        if !is_enum {
            i += 1;
            continue;
        }
        let name = toks
            .iter()
            .zip(toks.iter().skip(1))
            .find(|(a, _)| a.1 == "enum")
            .map(|(_, b)| b.1.to_string())
            .unwrap_or_default();
        // Walk the enum body, brace-balanced.
        let mut depth = 0i32;
        let mut body = std::collections::BTreeSet::new();
        let mut variants = Vec::new();
        let mut j = i;
        loop {
            if j >= harness.lines.len() {
                break;
            }
            let line_code = &harness.lines[j].code;
            body.insert(j + 1);
            if depth == 1 && j > i {
                // A variant line: first token is an uppercase identifier.
                if let Some((pos, tok)) = tokens(line_code).first() {
                    let starts_upper = tok.chars().next().is_some_and(|c| c.is_ascii_uppercase());
                    let at_line_start = line_code[..*pos].trim().is_empty();
                    if starts_upper && at_line_start {
                        variants.push((tok.to_string(), j + 1));
                    }
                }
            }
            for c in line_code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if depth == 0 && j > i {
                break;
            }
            // Opening line might not contain `{` yet (rare); keep going.
            if depth == 0 && !line_code.contains('{') && j == i {
                depth = 0;
            }
            j += 1;
        }
        out.push((name, variants, body));
        i = j + 1;
    }
    out
}
