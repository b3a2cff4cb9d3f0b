//! The fixture trees: one seeded violation per rule, and a clean twin.
//!
//! These are the linter's own regression net — each rule must fire on its
//! seeded violation (and nothing else), `lint:allow` must suppress, and
//! the clean tree must come back empty.

use selfheal_lint::rules::all_rules;
use selfheal_lint::{run_rules, Workspace};
use std::path::PathBuf;

fn fixture(name: &str) -> Workspace {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    Workspace::load(&root).expect("fixture tree loads")
}

#[test]
fn clean_tree_has_no_findings() {
    let ws = fixture("clean");
    let findings = run_rules(&ws, &all_rules());
    assert!(
        findings.is_empty(),
        "clean fixture should be silent, got:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn each_rule_fires_exactly_on_its_seeded_violation() {
    let ws = fixture("violations");
    let findings = run_rules(&ws, &all_rules());
    let got: Vec<(&str, &str)> = findings.iter().map(|f| (f.rule, f.file.as_str())).collect();
    let want = vec![
        ("choice-mirror", "crates/faults/src/rogue.rs"),
        ("id-space", "crates/faults/src/source.rs"),
        ("nondeterminism", "crates/sim/src/engine.rs"),
        ("nondeterminism", "crates/sim/src/engine.rs"),
        ("seed-discipline", "crates/sim/src/engine.rs"),
    ];
    assert_eq!(
        got,
        want,
        "unexpected finding set:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn allow_annotations_suppress_findings() {
    let ws = fixture("violations");
    let findings = run_rules(&ws, &all_rules());
    // The fixture has two wall-clock reads; the `lint:allow` one (line 10)
    // must be silent while its unannotated twin (line 8) fires.
    let clock_lines: Vec<usize> = findings
        .iter()
        .filter(|f| f.message.contains("wall clock"))
        .map(|f| f.line)
        .collect();
    assert_eq!(clock_lines, vec![8], "only the unannotated Instant fires");
}

#[test]
fn single_rule_selection_scopes_the_run() {
    let ws = fixture("violations");
    let mut rules = all_rules();
    rules.retain(|r| r.name() == "id-space");
    let findings = run_rules(&ws, &rules);
    assert_eq!(findings.len(), 1);
    assert!(findings[0].message.contains("must derive from"));
    assert_eq!(findings[0].line, 3);
}
