//! The linter audits its own workspace: the real tree must be clean.
//!
//! This is the teeth of the whole exercise — every deliberate exception in
//! the tree carries a reviewed `lint:allow`, so any new finding is a real
//! regression, and this test failing under `cargo test` is how it gets
//! caught.

use selfheal_lint::rules::all_rules;
use selfheal_lint::{run_rules, Workspace};
use std::path::PathBuf;

#[test]
fn the_real_workspace_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    let ws = Workspace::load(&root).expect("workspace loads");
    assert!(
        ws.files.len() > 50,
        "suspiciously small walk ({} files) — wrong root?",
        ws.files.len()
    );
    let findings = run_rules(&ws, &all_rules());
    assert!(
        findings.is_empty(),
        "the workspace has lint findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
