//! The rule engine: findings and allow-list filtering.

use crate::workspace::Workspace;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Name of the rule that fired.
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A cross-file invariant checked over the whole workspace.
pub trait Rule {
    /// Stable rule name, as used in `lint:allow(<name>)`.
    fn name(&self) -> &'static str;
    /// Returns every violation found (the engine applies allow-listing).
    fn check(&self, ws: &Workspace) -> Vec<Finding>;
}

/// Runs `rules` over `ws`, drops allow-listed findings, and returns the
/// rest sorted by `(file, line, rule)` for stable output.
pub fn run_rules(ws: &Workspace, rules: &[Box<dyn Rule>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in rules {
        for finding in rule.check(ws) {
            let allowed = ws
                .files
                .iter()
                .find(|f| f.rel_path == finding.file)
                .is_some_and(|f| f.allows(finding.rule, finding.line));
            if !allowed {
                findings.push(finding);
            }
        }
    }
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}
