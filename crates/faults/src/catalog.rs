//! The failure → fix catalog (Table 1 of the paper).
//!
//! The catalog is the simulator's *ground truth*: given an active fault and
//! an attempted [`FixAction`], [`FixCatalog::repairs`] decides whether the
//! fix actually removes the fault.  The healing policies never consult the
//! catalog directly (that would be cheating — they must learn or diagnose it);
//! the benchmark harness consults it to compute fix-identification accuracy.

use crate::fault::{FaultKind, FaultSpec, FaultTarget};
use crate::fix::{FixAction, FixKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One row of the catalog: a failure class and the fixes that repair it, in
/// decreasing order of preference (the first entry is the cheapest fix that
/// reliably repairs the failure, matching the "Candidate fix" column of
/// Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CatalogEntry {
    /// The failure class this entry describes.
    pub fault: FaultKind,
    /// Fixes that repair the failure, preferred first.
    pub fixes: Vec<FixKind>,
    /// Notes carried over from Table 1 (used in documentation output only).
    pub note: String,
}

/// The ground-truth mapping from failure classes to repairing fixes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FixCatalog {
    entries: BTreeMap<FaultKind, CatalogEntry>,
}

impl FixCatalog {
    /// Builds the catalog of Table 1, extended with entries for the
    /// hardware/operator/network fault kinds so every [`FaultKind`] has at
    /// least one repairing fix (Section 4.1's "universal set of fixes"
    /// prerequisite).
    pub fn standard() -> Self {
        let rows = vec![
            CatalogEntry {
                fault: FaultKind::DeadlockedThreads,
                fixes: vec![
                    FixKind::MicrorebootEjb,
                    FixKind::KillHungQuery,
                    FixKind::RebootTier,
                    FixKind::FullServiceRestart,
                ],
                note: "Microreboot EJB, kill hung query".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::UnhandledException,
                fixes: vec![
                    FixKind::MicrorebootEjb,
                    FixKind::RebootTier,
                    FixKind::FullServiceRestart,
                ],
                note: "Microreboot EJB".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::SoftwareAging,
                fixes: vec![FixKind::RebootTier, FixKind::FullServiceRestart],
                note: "Reboot at appropriate level to reclaim leaked resources".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::SuboptimalQueryPlan,
                fixes: vec![
                    FixKind::UpdateStatistics,
                    FixKind::RebuildIndex,
                    FixKind::FullServiceRestart,
                ],
                note: "Update statistics for tables in query, re-optimize physical design"
                    .to_string(),
            },
            CatalogEntry {
                fault: FaultKind::TableBlockContention,
                fixes: vec![FixKind::RepartitionTable, FixKind::FullServiceRestart],
                note: "Repartition table to balance accesses across partitions".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::BufferContention,
                fixes: vec![
                    FixKind::RepartitionMemory,
                    FixKind::RebootTier,
                    FixKind::FullServiceRestart,
                ],
                note: "Repartition memory across various buffers".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::BottleneckedTier,
                fixes: vec![FixKind::ProvisionResources, FixKind::FullServiceRestart],
                note: "Provision more resources to tier".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::SourceCodeBug,
                fixes: vec![
                    FixKind::RebootTier,
                    FixKind::NotifyAdministrator,
                    FixKind::FullServiceRestart,
                ],
                note: "Reboot tier/service, notify administrator".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::OperatorMisconfiguration,
                fixes: vec![
                    FixKind::RollbackConfiguration,
                    FixKind::NotifyAdministrator,
                    FixKind::FullServiceRestart,
                ],
                note: "Roll back the offending configuration change".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::OperatorProceduralError,
                fixes: vec![FixKind::NotifyAdministrator, FixKind::FullServiceRestart],
                note: "Human intervention required to undo the procedural mistake".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::HardwareFailure,
                fixes: vec![FixKind::ProvisionResources, FixKind::NotifyAdministrator],
                note: "Fail over / provision replacement capacity".to_string(),
            },
            CatalogEntry {
                fault: FaultKind::NetworkPartition,
                fixes: vec![FixKind::NotifyAdministrator, FixKind::FullServiceRestart],
                note: "Escalate: connectivity must be restored out of band".to_string(),
            },
        ];
        let entries = rows.into_iter().map(|e| (e.fault, e)).collect();
        FixCatalog { entries }
    }

    /// Returns the catalog entry for a failure class.
    pub(crate) fn entry(&self, fault: FaultKind) -> &CatalogEntry {
        self.entries
            .get(&fault)
            .expect("catalog covers every fault kind")
    }

    /// All entries, ordered by fault kind.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &CatalogEntry> {
        self.entries.values()
    }

    /// The preferred (cheapest effective) fix for a failure class.
    pub fn preferred_fix(&self, fault: FaultKind) -> FixKind {
        self.entry(fault).fixes[0]
    }

    /// Returns `true` if `fix_kind` repairs `fault` regardless of targeting.
    pub(crate) fn fix_kind_repairs(&self, fault: FaultKind, fix_kind: FixKind) -> bool {
        self.entry(fault).fixes.contains(&fix_kind)
    }

    /// Decides whether an attempted fix repairs a concrete fault instance.
    ///
    /// Two conditions must hold: the fix *kind* must be in the fault's entry,
    /// and, for targeted fixes, the fix's target must match the fault's
    /// target (microrebooting the wrong EJB does not help).  Untargeted
    /// escalations (full restart) repair everything their entry lists them
    /// for.
    pub fn repairs(&self, fault: &FaultSpec, fix: &FixAction) -> bool {
        if !self.fix_kind_repairs(fault.kind, fix.kind) {
            return false;
        }
        if !fix.kind.needs_target() {
            return true;
        }
        match (&fix.target, &fault.target) {
            (None, _) => false,
            (Some(fix_target), fault_target) => targets_match(fix.kind, fix_target, fault_target),
        }
    }
}

impl Default for FixCatalog {
    fn default() -> Self {
        FixCatalog::standard()
    }
}

/// Targeting rules: which fix targets count as "hitting" which fault targets.
fn targets_match(fix_kind: FixKind, fix_target: &FaultTarget, fault_target: &FaultTarget) -> bool {
    use FaultTarget::*;
    match fix_kind {
        // Component-granular fixes must name the exact component.
        FixKind::MicrorebootEjb | FixKind::KillHungQuery => fix_target == fault_target,
        FixKind::UpdateStatistics | FixKind::RepartitionTable | FixKind::RebuildIndex => {
            match (fix_target, fault_target) {
                (Table { index: a }, Table { index: b }) => a == b,
                (Index { index: a }, Index { index: b }) => a == b,
                // Statistics updates on the table repair plan problems even
                // when the fault was recorded against the database tier.
                (Table { .. }, DatabaseTier) => true,
                _ => fix_target == fault_target,
            }
        }
        // Tier-granular fixes repair any component inside that tier.
        FixKind::RebootTier | FixKind::ProvisionResources => {
            let fix_tier = tier_of(fix_target);
            let fault_tier = tier_of(fault_target);
            fix_tier.is_some() && fix_tier == fault_tier
        }
        _ => true,
    }
}

/// Maps a target to a coarse tier bucket (0 = web, 1 = app, 2 = db).
fn tier_of(target: &FaultTarget) -> Option<u8> {
    use FaultTarget::*;
    match target {
        WebTier => Some(0),
        Ejb { .. } | AppTier => Some(1),
        Table { .. } | Index { .. } | DatabaseTier => Some(2),
        WholeService => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultId;

    fn fault(kind: FaultKind, target: FaultTarget) -> FaultSpec {
        FaultSpec::new(FaultId(0), kind, target, 0.8)
    }

    #[test]
    fn catalog_covers_every_fault_kind() {
        let catalog = FixCatalog::standard();
        assert_eq!(catalog.entries.len(), FaultKind::ALL.len());
        for kind in FaultKind::ALL {
            assert!(!catalog.entry(kind).fixes.is_empty(), "{kind} has no fixes");
        }
    }

    #[test]
    fn table1_preferred_fixes_match_the_paper() {
        let c = FixCatalog::standard();
        assert_eq!(
            c.preferred_fix(FaultKind::DeadlockedThreads),
            FixKind::MicrorebootEjb
        );
        assert_eq!(
            c.preferred_fix(FaultKind::UnhandledException),
            FixKind::MicrorebootEjb
        );
        assert_eq!(
            c.preferred_fix(FaultKind::SoftwareAging),
            FixKind::RebootTier
        );
        assert_eq!(
            c.preferred_fix(FaultKind::SuboptimalQueryPlan),
            FixKind::UpdateStatistics
        );
        assert_eq!(
            c.preferred_fix(FaultKind::TableBlockContention),
            FixKind::RepartitionTable
        );
        assert_eq!(
            c.preferred_fix(FaultKind::BufferContention),
            FixKind::RepartitionMemory
        );
        assert_eq!(
            c.preferred_fix(FaultKind::BottleneckedTier),
            FixKind::ProvisionResources
        );
        assert_eq!(
            c.preferred_fix(FaultKind::SourceCodeBug),
            FixKind::RebootTier
        );
    }

    #[test]
    fn full_restart_repairs_every_table1_failure() {
        let c = FixCatalog::standard();
        for kind in FaultKind::TABLE1 {
            assert!(
                c.fix_kind_repairs(kind, FixKind::FullServiceRestart),
                "full restart should repair {kind}"
            );
        }
    }

    #[test]
    fn targeted_fix_must_hit_the_faulty_component() {
        let c = FixCatalog::standard();
        let f = fault(FaultKind::DeadlockedThreads, FaultTarget::Ejb { index: 3 });
        let right = FixAction::targeted(FixKind::MicrorebootEjb, FaultTarget::Ejb { index: 3 });
        let wrong = FixAction::targeted(FixKind::MicrorebootEjb, FaultTarget::Ejb { index: 1 });
        let untargeted = FixAction::untargeted(FixKind::MicrorebootEjb);
        assert!(c.repairs(&f, &right));
        assert!(!c.repairs(&f, &wrong));
        assert!(!c.repairs(&f, &untargeted));
    }

    #[test]
    fn tier_level_fixes_repair_components_in_that_tier() {
        let c = FixCatalog::standard();
        let f = fault(FaultKind::SoftwareAging, FaultTarget::Ejb { index: 0 });
        let reboot_app = FixAction::targeted(FixKind::RebootTier, FaultTarget::AppTier);
        let reboot_db = FixAction::targeted(FixKind::RebootTier, FaultTarget::DatabaseTier);
        assert!(c.repairs(&f, &reboot_app));
        assert!(!c.repairs(&f, &reboot_db));
    }

    #[test]
    fn wrong_fix_kind_never_repairs() {
        let c = FixCatalog::standard();
        let f = fault(
            FaultKind::SuboptimalQueryPlan,
            FaultTarget::Table { index: 1 },
        );
        let fix = FixAction::targeted(FixKind::MicrorebootEjb, FaultTarget::Ejb { index: 0 });
        assert!(!c.repairs(&f, &fix));
        let stats_right =
            FixAction::targeted(FixKind::UpdateStatistics, FaultTarget::Table { index: 1 });
        let stats_wrong =
            FixAction::targeted(FixKind::UpdateStatistics, FaultTarget::Table { index: 0 });
        assert!(c.repairs(&f, &stats_right));
        assert!(!c.repairs(&f, &stats_wrong));
    }

    #[test]
    fn untargeted_escalations_always_repair_listed_faults() {
        let c = FixCatalog::standard();
        let f = fault(FaultKind::BottleneckedTier, FaultTarget::DatabaseTier);
        let restart = FixAction::untargeted(FixKind::FullServiceRestart);
        assert!(c.repairs(&f, &restart));
        let provision_db =
            FixAction::targeted(FixKind::ProvisionResources, FaultTarget::DatabaseTier);
        let provision_web = FixAction::targeted(FixKind::ProvisionResources, FaultTarget::WebTier);
        assert!(c.repairs(&f, &provision_db));
        assert!(!c.repairs(&f, &provision_web));
    }

    #[test]
    fn default_is_standard() {
        assert_eq!(FixCatalog::default(), FixCatalog::standard());
    }
}
