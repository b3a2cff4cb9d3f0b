//! `selfheal-lint` — the workspace seed and mirror auditor.
//!
//! ```text
//! cargo run -p selfheal-lint -- --workspace             # audit this workspace
//! cargo run -p selfheal-lint -- --workspace --root PATH # audit another tree
//! ```
//!
//! Exit status: `0` clean, `1` findings, `2` usage or I/O error.

use selfheal_lint::rules::all_rules;
use selfheal_lint::{run_rules, Workspace};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = match parse_args(std::env::args().skip(1)) {
        Ok(root) => root,
        Err(msg) => {
            eprintln!("selfheal-lint: {msg}");
            eprintln!("usage: selfheal-lint [--workspace] [--root PATH]");
            return ExitCode::from(2);
        }
    };
    let root = match root.map_or_else(discover_root, Ok) {
        Ok(root) => root,
        Err(msg) => {
            eprintln!("selfheal-lint: {msg}");
            return ExitCode::from(2);
        }
    };
    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!("selfheal-lint: cannot scan {}: {err}", root.display());
            return ExitCode::from(2);
        }
    };

    let rules = all_rules();
    let findings = run_rules(&ws, &rules);
    for finding in &findings {
        println!("{finding}");
    }
    eprintln!(
        "selfheal-lint: {} file(s), {} rule(s), {} finding(s)",
        ws.files.len(),
        rules.len(),
        findings.len()
    );
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The `--root` path, if one was given.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<PathBuf>, String> {
    let mut root = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `--workspace` is the default (and only) scope; accepted for
            // self-documenting invocations.
            "--workspace" => {}
            "--root" => {
                let path = args.next().ok_or("--root needs a path")?;
                root = Some(PathBuf::from(path));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(root)
}

/// Walks up from the current directory to the workspace root (the first
/// `Cargo.toml` declaring `[workspace]`).
fn discover_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    start
        .ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|text| text.contains("[workspace]"))
        })
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            format!(
                "no workspace Cargo.toml above {} — pass --root",
                start.display()
            )
        })
}
