//! Workspace discovery: walking the source tree into scanned files.

use crate::scan::{strip_source, Line};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One scanned `.rs` file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel_path: String,
    /// Stripped lines (see [`crate::scan`]).
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Whether `rule` is allowed on 1-based line `line`.
    pub fn allows(&self, rule: &str, line: usize) -> bool {
        self.lines
            .get(line.wrapping_sub(1))
            .is_some_and(|l| l.allows.iter().any(|a| a == rule))
    }
}

/// Every scanned file of one workspace tree.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned files, sorted by relative path.
    pub files: Vec<SourceFile>,
}

/// Directories never scanned: build output, VCS metadata, the offline
/// registry shims (vendored stand-ins, not our code), and the linter's own
/// fixture trees (which *deliberately* violate every rule).
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];
const SKIP_PREFIXES: &[&str] = &["crates/shims", "crates/lint/fixtures"];

impl Workspace {
    /// Walks `root` and scans every `.rs` file outside the skip lists.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut files = Vec::new();
        let mut stack = vec![root.to_path_buf()];
        while let Some(dir) = stack.pop() {
            let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            entries.sort();
            for path in entries {
                let rel = rel_path(root, &path);
                if path.is_dir() {
                    let name = path
                        .file_name()
                        .and_then(|n| n.to_str())
                        .unwrap_or_default();
                    if SKIP_DIRS.contains(&name)
                        || SKIP_PREFIXES
                            .iter()
                            .any(|p| rel == *p || rel.starts_with(&format!("{p}/")))
                    {
                        continue;
                    }
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "rs") {
                    let text = fs::read_to_string(&path)?;
                    files.push(SourceFile {
                        rel_path: rel,
                        lines: strip_source(&text),
                    });
                }
            }
        }
        files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
        Ok(Workspace { files })
    }

    /// The first file whose relative path ends with `suffix`.
    pub fn file_ending_with(&self, suffix: &str) -> Option<&SourceFile> {
        self.files.iter().find(|f| f.rel_path.ends_with(suffix))
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
