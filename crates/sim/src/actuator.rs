//! Fix actuation: applying repair actions to the running service.
//!
//! A fix is not instantaneous — Table 1's fixes range from a two-second EJB
//! microreboot to a multi-minute full service restart, and Figure 2 shows
//! human-escalated recoveries taking hours.  The actuator tracks fixes that
//! are *in progress*, charges their disruption against the affected tiers
//! every tick, and reports which fixes completed this tick so the service
//! can apply their effects (remove repaired faults, refresh statistics,
//! restore buffers, ...).

use crate::faults_runtime::SimTier;
use selfheal_faults::{FixAction, FixCost, FixId, FixKind};
use serde::{Deserialize, Serialize};

/// A fix currently being applied.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct PendingFix {
    /// Unique id of this fix attempt.
    pub id: FixId,
    /// The action being applied.
    pub action: FixAction,
    /// The cost model in force for this attempt.
    pub cost: FixCost,
    /// Tick at which the fix was initiated.
    pub started_at: u64,
    /// Ticks of work remaining before the fix completes.
    pub remaining_ticks: u64,
}

/// A fix that completed this tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct CompletedFix {
    /// Unique id of the fix attempt.
    pub id: FixId,
    /// The completed action.
    pub action: FixAction,
    /// Tick at which the fix was initiated.
    pub started_at: u64,
    /// Tick at which the fix completed.
    pub completed_at: u64,
}

/// Tracks in-progress fixes and their disruption.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct FixActuator {
    pending: Vec<PendingFix>,
    next_fix_id: u64,
    total_started: u64,
    total_completed: u64,
}

impl FixActuator {
    /// Creates an idle actuator.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Starts applying a fix at `tick` with its default cost model, returning
    /// the id of the attempt.
    pub(crate) fn start(&mut self, action: FixAction, tick: u64) -> FixId {
        self.start_with_cost(action, action.kind.default_cost(), tick)
    }

    /// Starts applying a fix with an explicit cost model.
    pub(crate) fn start_with_cost(&mut self, action: FixAction, cost: FixCost, tick: u64) -> FixId {
        let id = FixId(self.next_fix_id);
        self.next_fix_id += 1;
        self.total_started += 1;
        self.pending.push(PendingFix {
            id,
            action,
            cost,
            started_at: tick,
            // A zero-duration fix completes at the end of the same tick.
            remaining_ticks: cost.duration_ticks,
        });
        id
    }

    /// The fraction of capacity available at `tier` this tick, given the
    /// disruption of all in-progress fixes (1.0 = undisturbed).
    pub(crate) fn available_fraction(&self, tier: SimTier) -> f64 {
        let mut available: f64 = 1.0;
        for fix in &self.pending {
            if fix_disrupts_tier(&fix.action, tier) {
                available *= 1.0 - fix.cost.disruption;
            }
        }
        available.clamp(0.0, 1.0)
    }

    /// Advances in-progress fixes by one tick (ending at `tick`) and returns
    /// the fixes that completed.
    pub(crate) fn advance_tick(&mut self, tick: u64) -> Vec<CompletedFix> {
        let mut completed = Vec::new();
        self.pending.retain_mut(|fix| {
            if fix.remaining_ticks == 0 {
                completed.push(CompletedFix {
                    id: fix.id,
                    action: fix.action,
                    started_at: fix.started_at,
                    completed_at: tick,
                });
                false
            } else {
                fix.remaining_ticks -= 1;
                if fix.remaining_ticks == 0 {
                    completed.push(CompletedFix {
                        id: fix.id,
                        action: fix.action,
                        started_at: fix.started_at,
                        completed_at: tick,
                    });
                    false
                } else {
                    true
                }
            }
        });
        self.total_completed += completed.len() as u64;
        completed
    }

    /// Abandons all in-progress fixes (used when a full restart supersedes
    /// narrower fixes).
    pub(crate) fn cancel_all(&mut self) {
        self.pending.clear();
    }
}

/// Which tiers a fix disrupts while it is being applied.
fn fix_disrupts_tier(action: &FixAction, tier: SimTier) -> bool {
    use selfheal_faults::FaultTarget;
    match action.kind {
        FixKind::FullServiceRestart => true,
        FixKind::NotifyAdministrator | FixKind::NoOp => false,
        _ => match &action.target {
            Some(target) => SimTier::of_target(target) == Some(tier),
            // Untargeted narrow fixes default to the database tier for
            // memory repartitioning and to the app tier otherwise.
            None => match action.kind {
                FixKind::RepartitionMemory | FixKind::UpdateStatistics | FixKind::RebuildIndex => {
                    tier == SimTier::Db
                }
                FixKind::RollbackConfiguration => tier == SimTier::App,
                _ => {
                    // Fall back to "whole service" semantics for anything
                    // else untargeted.
                    let _ = FaultTarget::WholeService;
                    true
                }
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::FaultTarget;

    impl FixActuator {
        /// Fixes currently in progress.
        pub(crate) fn pending(&self) -> &[PendingFix] {
            &self.pending
        }

        /// Returns `true` if any fix is currently being applied.
        pub(crate) fn busy(&self) -> bool {
            !self.pending.is_empty()
        }

        /// Total fix attempts started.
        pub(crate) fn total_started(&self) -> u64 {
            self.total_started
        }

        /// Total fix attempts completed.
        pub(crate) fn total_completed(&self) -> u64 {
            self.total_completed
        }
    }

    #[test]
    fn fixes_complete_after_their_duration() {
        let mut act = FixActuator::new();
        let action = FixAction::targeted(FixKind::MicrorebootEjb, FaultTarget::Ejb { index: 1 });
        act.start(action, 10); // duration 2 ticks
        assert!(act.busy());
        assert!(act.advance_tick(11).is_empty());
        let done = act.advance_tick(12);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].action, action);
        assert_eq!(done[0].started_at, 10);
        assert_eq!(done[0].completed_at, 12);
        assert!(!act.busy());
        assert_eq!(act.total_started(), 1);
        assert_eq!(act.total_completed(), 1);
    }

    #[test]
    fn zero_duration_fix_completes_on_the_next_advance() {
        let mut act = FixActuator::new();
        act.start_with_cost(
            FixAction::untargeted(FixKind::NoOp),
            FixCost::new(0, 0.0, 0.0),
            5,
        );
        let done = act.advance_tick(5);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn full_restart_disrupts_every_tier() {
        let mut act = FixActuator::new();
        act.start(FixAction::untargeted(FixKind::FullServiceRestart), 0);
        for tier in SimTier::ALL {
            assert!(act.available_fraction(tier) < 0.05, "{tier:?}");
        }
    }

    #[test]
    fn targeted_fix_disrupts_only_its_tier() {
        let mut act = FixActuator::new();
        act.start(
            FixAction::targeted(FixKind::RebootTier, FaultTarget::DatabaseTier),
            0,
        );
        assert!(act.available_fraction(SimTier::Db) < 0.5);
        assert_eq!(act.available_fraction(SimTier::Web), 1.0);
        assert_eq!(act.available_fraction(SimTier::App), 1.0);
    }

    #[test]
    fn notify_administrator_causes_no_disruption_but_takes_long() {
        let mut act = FixActuator::new();
        act.start(FixAction::untargeted(FixKind::NotifyAdministrator), 0);
        for tier in SimTier::ALL {
            assert_eq!(act.available_fraction(tier), 1.0);
        }
        assert!(act.pending()[0].remaining_ticks > 1000);
    }

    #[test]
    fn cancel_all_clears_pending_fixes() {
        let mut act = FixActuator::new();
        act.start(FixAction::untargeted(FixKind::FullServiceRestart), 0);
        act.cancel_all();
        assert!(!act.busy());
        assert!(act.advance_tick(1).is_empty());
    }

    #[test]
    fn fix_ids_are_unique_and_monotone() {
        let mut act = FixActuator::new();
        let a = act.start(FixAction::untargeted(FixKind::NoOp), 0);
        let b = act.start(FixAction::untargeted(FixKind::NoOp), 0);
        assert!(b.0 > a.0);
    }
}
