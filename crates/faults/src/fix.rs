//! Candidate fixes and their cost model.
//!
//! The right-hand column of Table 1 in the paper lists candidate fixes for
//! each failure class; Section 4.1 adds two universal fall-back fixes
//! ("alerting an administrator that manual intervention is needed, or
//! performing a full service restart").  [`FixKind`] enumerates all of them,
//! and [`FixCost`] captures why fix *choice* matters: a microreboot is
//! "orders of magnitude faster than full service restarts", so applying the
//! narrow fix first recovers much faster than escalating straight to a
//! restart.

use crate::fault::FaultTarget;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of an applied fix attempt within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FixId(pub u64);

impl fmt::Display for FixId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fix#{}", self.0)
    }
}

/// The repair actions available to the self-healing layer.
///
/// Targeted fixes carry the component they act on; the healing policies
/// choose both the kind and (when applicable) the target, typically the
/// component whose symptoms implicate it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FixKind {
    /// Microreboot one EJB (Candea et al.): fine-grained reboot of an
    /// application component, orders of magnitude faster than a full restart.
    MicrorebootEjb,
    /// Kill a hung/runaway database query.
    KillHungQuery,
    /// Reboot one tier of the service (web, application, or database).
    RebootTier,
    /// Full service restart across all tiers — the expensive universal fix.
    FullServiceRestart,
    /// Update optimizer statistics for the tables of the offending query.
    UpdateStatistics,
    /// Repartition a table to balance block accesses across partitions.
    RepartitionTable,
    /// Repartition memory across database buffer pools.
    RepartitionMemory,
    /// Rebuild a degraded index.
    RebuildIndex,
    /// Provision more resources (capacity) to a bottlenecked tier.
    ProvisionResources,
    /// Roll back the most recent (operator) configuration change.
    RollbackConfiguration,
    /// Alert a human administrator; recovery proceeds at human timescales.
    NotifyAdministrator,
    /// Deliberately do nothing (used as a negative control in experiments).
    NoOp,
}

impl FixKind {
    /// All fix kinds.
    pub const ALL: [FixKind; 12] = [
        FixKind::MicrorebootEjb,
        FixKind::KillHungQuery,
        FixKind::RebootTier,
        FixKind::FullServiceRestart,
        FixKind::UpdateStatistics,
        FixKind::RepartitionTable,
        FixKind::RepartitionMemory,
        FixKind::RebuildIndex,
        FixKind::ProvisionResources,
        FixKind::RollbackConfiguration,
        FixKind::NotifyAdministrator,
        FixKind::NoOp,
    ];

    /// The fixes a policy may actually recommend (everything except the
    /// `NoOp` control).
    pub const CANDIDATES: [FixKind; 11] = [
        FixKind::MicrorebootEjb,
        FixKind::KillHungQuery,
        FixKind::RebootTier,
        FixKind::FullServiceRestart,
        FixKind::UpdateStatistics,
        FixKind::RepartitionTable,
        FixKind::RepartitionMemory,
        FixKind::RebuildIndex,
        FixKind::ProvisionResources,
        FixKind::RollbackConfiguration,
        FixKind::NotifyAdministrator,
    ];

    /// Stable lowercase label used in CSV output and metric names.
    pub fn label(self) -> &'static str {
        match self {
            FixKind::MicrorebootEjb => "microreboot_ejb",
            FixKind::KillHungQuery => "kill_hung_query",
            FixKind::RebootTier => "reboot_tier",
            FixKind::FullServiceRestart => "full_service_restart",
            FixKind::UpdateStatistics => "update_statistics",
            FixKind::RepartitionTable => "repartition_table",
            FixKind::RepartitionMemory => "repartition_memory",
            FixKind::RebuildIndex => "rebuild_index",
            FixKind::ProvisionResources => "provision_resources",
            FixKind::RollbackConfiguration => "rollback_configuration",
            FixKind::NotifyAdministrator => "notify_administrator",
            FixKind::NoOp => "no_op",
        }
    }

    /// Stable numeric code used as the prediction label by the learning
    /// layer (the synopsis predicts a fix code from a symptom vector).
    pub fn code(self) -> usize {
        FixKind::ALL
            .iter()
            .position(|k| *k == self)
            .expect("kind in ALL")
    }

    /// Inverse of [`FixKind::code`].
    pub fn from_code(code: usize) -> Option<FixKind> {
        FixKind::ALL.get(code).copied()
    }

    /// Inverse of [`FixKind::label`] — used by the synopsis codec, which
    /// persists fixes by label so saved models stay readable (and stable)
    /// even if the enum order ever changes.
    pub fn from_label(label: &str) -> Option<FixKind> {
        FixKind::ALL.iter().copied().find(|k| k.label() == label)
    }

    /// Default cost model for this fix (durations in ticks ≈ seconds).
    ///
    /// The values encode the paper's qualitative ordering: a microreboot or
    /// killing a query takes seconds, rebooting a tier takes on the order of
    /// a minute, a full service restart several minutes, and involving a
    /// human administrator takes tens of minutes (Figure 2 shows
    /// operator-handled failures taking by far the longest to recover).
    pub fn default_cost(self) -> FixCost {
        match self {
            FixKind::MicrorebootEjb => FixCost::new(2, 0.05, 0.0),
            FixKind::KillHungQuery => FixCost::new(1, 0.02, 0.0),
            FixKind::RebootTier => FixCost::new(60, 0.60, 0.0),
            FixKind::FullServiceRestart => FixCost::new(300, 1.0, 0.0),
            FixKind::UpdateStatistics => FixCost::new(20, 0.10, 0.0),
            FixKind::RepartitionTable => FixCost::new(90, 0.30, 0.0),
            FixKind::RepartitionMemory => FixCost::new(10, 0.05, 0.0),
            FixKind::RebuildIndex => FixCost::new(45, 0.20, 0.0),
            FixKind::ProvisionResources => FixCost::new(120, 0.05, 0.10),
            FixKind::RollbackConfiguration => FixCost::new(30, 0.15, 0.0),
            FixKind::NotifyAdministrator => FixCost::new(1800, 0.10, 0.50),
            FixKind::NoOp => FixCost::new(0, 0.0, 0.0),
        }
    }

    /// Whether this fix requires a target component to act on.
    pub fn needs_target(self) -> bool {
        matches!(
            self,
            FixKind::MicrorebootEjb
                | FixKind::KillHungQuery
                | FixKind::RebootTier
                | FixKind::UpdateStatistics
                | FixKind::RepartitionTable
                | FixKind::RebuildIndex
                | FixKind::ProvisionResources
        )
    }

    /// Whether this fix is one of the expensive universal fall-backs of
    /// Section 4.1 (full restart or human escalation).
    pub fn is_escalation(self) -> bool {
        matches!(
            self,
            FixKind::FullServiceRestart | FixKind::NotifyAdministrator
        )
    }
}

impl fmt::Display for FixKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cost model of a fix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixCost {
    /// How many ticks the fix takes to complete once initiated.
    pub duration_ticks: u64,
    /// Fraction of the service's capacity lost while the fix is in progress
    /// (1.0 = complete outage, as during a full restart).
    pub disruption: f64,
    /// Ongoing relative cost after the fix completes (e.g. the extra money a
    /// provisioned replica costs); used by cost-aware policies.
    pub recurring_cost: f64,
}

impl FixCost {
    /// Creates a cost model, clamping `disruption` to `[0, 1]`.
    pub fn new(duration_ticks: u64, disruption: f64, recurring_cost: f64) -> Self {
        FixCost {
            duration_ticks,
            disruption: disruption.clamp(0.0, 1.0),
            recurring_cost: recurring_cost.max(0.0),
        }
    }

    /// A scalar "badness" used by cost-aware ranking: expected capacity-ticks
    /// lost while applying the fix plus a penalty for recurring cost.
    pub fn penalty(&self) -> f64 {
        self.duration_ticks as f64 * self.disruption + 100.0 * self.recurring_cost
    }
}

/// A fix chosen by a policy: the kind plus (optionally) the component it
/// should act on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FixAction {
    /// The repair action.
    pub kind: FixKind,
    /// The component acted on, when the fix is targeted.
    pub target: Option<FaultTarget>,
}

impl FixAction {
    /// An untargeted fix action.
    pub fn untargeted(kind: FixKind) -> Self {
        FixAction { kind, target: None }
    }

    /// A targeted fix action.
    pub fn targeted(kind: FixKind, target: FaultTarget) -> Self {
        FixAction {
            kind,
            target: Some(target),
        }
    }
}

impl fmt::Display for FixAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.target {
            Some(t) => write!(f, "{} on {}", self.kind, t.describe()),
            None => write!(f, "{}", self.kind),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip_and_labels_unique() {
        let mut labels: Vec<&str> = FixKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FixKind::ALL.len());
        for (i, kind) in FixKind::ALL.iter().enumerate() {
            assert_eq!(kind.code(), i);
            assert_eq!(FixKind::from_code(i), Some(*kind));
        }
    }

    #[test]
    fn candidates_exclude_noop() {
        assert!(!FixKind::CANDIDATES.contains(&FixKind::NoOp));
        assert_eq!(FixKind::CANDIDATES.len(), FixKind::ALL.len() - 1);
    }

    #[test]
    fn cost_ordering_matches_paper_claims() {
        // Microreboots are orders of magnitude faster than full restarts.
        let micro = FixKind::MicrorebootEjb.default_cost();
        let restart = FixKind::FullServiceRestart.default_cost();
        let admin = FixKind::NotifyAdministrator.default_cost();
        assert!(restart.duration_ticks >= 100 * micro.duration_ticks);
        // Human-in-the-loop recovery is the slowest of all (Figure 2).
        assert!(admin.duration_ticks > restart.duration_ticks);
        // A full restart is a complete outage while it runs.
        assert_eq!(restart.disruption, 1.0);
        assert!(micro.penalty() < restart.penalty());
    }

    #[test]
    fn targeted_fixes_are_flagged() {
        assert!(FixKind::MicrorebootEjb.needs_target());
        assert!(FixKind::UpdateStatistics.needs_target());
        assert!(!FixKind::FullServiceRestart.needs_target());
        assert!(FixKind::FullServiceRestart.is_escalation());
        assert!(FixKind::NotifyAdministrator.is_escalation());
        assert!(!FixKind::MicrorebootEjb.is_escalation());
    }

    #[test]
    fn fix_cost_clamps_inputs() {
        let c = FixCost::new(10, 3.0, -1.0);
        assert_eq!(c.disruption, 1.0);
        assert_eq!(c.recurring_cost, 0.0);
    }

    #[test]
    fn fix_action_display_mentions_target() {
        let a = FixAction::targeted(FixKind::MicrorebootEjb, FaultTarget::Ejb { index: 2 });
        assert_eq!(a.to_string(), "microreboot_ejb on EJB 2");
        let u = FixAction::untargeted(FixKind::FullServiceRestart);
        assert_eq!(u.to_string(), "full_service_restart");
    }
}
