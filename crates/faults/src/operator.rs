//! Operator-error model.
//!
//! The paper stresses that "almost always, the root cause is the fallibility
//! of humans" and that operator error is the most prominent failure cause
//! (Figure 1).  This module models the configuration actions an operator
//! takes and how they go wrong, so that operator-induced failures in the
//! simulator have realistic structure: a *mistaken* configuration change is
//! applied at some tick, its symptoms emerge in whatever tier the
//! misconfigured parameter controls, and the fault is repaired either by
//! rolling the change back or by human intervention.

use crate::fault::{FailureCause, FaultId, FaultKind, FaultSpec, FaultTarget};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The configuration surface an operator action touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum OperatorAction {
    /// Resize the application-server thread pool.
    ResizeThreadPool,
    /// Resize a database buffer pool.
    ResizeBufferPool,
    /// Change the number of replicas / capacity of a tier.
    ResizeTierCapacity,
    /// Deploy a new application build to the app tier.
    DeployApplicationBuild,
    /// Change the database schema or drop/rebuild an index.
    AlterSchema,
    /// Restart a node as part of routine maintenance.
    MaintenanceRestart,
}

impl OperatorAction {
    /// All operator action classes.
    pub(crate) const ALL: [OperatorAction; 6] = [
        OperatorAction::ResizeThreadPool,
        OperatorAction::ResizeBufferPool,
        OperatorAction::ResizeTierCapacity,
        OperatorAction::DeployApplicationBuild,
        OperatorAction::AlterSchema,
        OperatorAction::MaintenanceRestart,
    ];

    /// The fault kind that a *botched* instance of this action manifests as,
    /// and the target tier/component class it lands on.
    pub(crate) fn failure_manifestation(self) -> (FaultKind, FaultTarget) {
        match self {
            OperatorAction::ResizeThreadPool => {
                (FaultKind::OperatorMisconfiguration, FaultTarget::AppTier)
            }
            OperatorAction::ResizeBufferPool => (
                FaultKind::OperatorMisconfiguration,
                FaultTarget::DatabaseTier,
            ),
            OperatorAction::ResizeTierCapacity => {
                (FaultKind::OperatorMisconfiguration, FaultTarget::WebTier)
            }
            OperatorAction::DeployApplicationBuild => {
                (FaultKind::OperatorProceduralError, FaultTarget::AppTier)
            }
            OperatorAction::AlterSchema => (
                FaultKind::OperatorProceduralError,
                FaultTarget::DatabaseTier,
            ),
            OperatorAction::MaintenanceRestart => (
                FaultKind::OperatorProceduralError,
                FaultTarget::WholeService,
            ),
        }
    }
}

/// A model of operator behaviour: how often configuration actions happen and
/// how likely each is to be botched.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct OperatorModel {
    /// Probability that any given configuration action is a mistake.
    pub error_rate: f64,
    /// Relative frequency of each action class.
    pub action_weights: Vec<(OperatorAction, f64)>,
}

impl OperatorModel {
    /// A model with a 15% per-action error rate (operators make mistakes,
    /// which is why they dominate Figure 1) and uniform action frequencies.
    pub(crate) fn standard() -> Self {
        OperatorModel {
            error_rate: 0.15,
            action_weights: OperatorAction::ALL.iter().map(|a| (*a, 1.0)).collect(),
        }
    }

    /// Samples an action class according to the configured weights.
    pub(crate) fn sample_action<R: Rng + ?Sized>(&self, rng: &mut R) -> OperatorAction {
        let total: f64 = self.action_weights.iter().map(|(_, w)| w).sum();
        let mut r = rng.gen_range(0.0..total);
        for (action, w) in &self.action_weights {
            if r < *w {
                return *action;
            }
            r -= *w;
        }
        self.action_weights.last().expect("nonempty weights").0
    }

    /// Simulates one operator action; returns a fault when it is botched.
    ///
    /// `next_fault_id` supplies the id for the new fault instance.
    pub(crate) fn perform_action<R: Rng + ?Sized>(
        &self,
        next_fault_id: u64,
        rng: &mut R,
    ) -> Option<FaultSpec> {
        let action = self.sample_action(rng);
        if rng.gen_range(0.0..1.0) >= self.error_rate {
            return None;
        }
        let (kind, target) = action.failure_manifestation();
        let severity = rng.gen_range(0.5..=1.0);
        Some(
            FaultSpec::new(FaultId(next_fault_id), kind, target, severity)
                .with_cause(FailureCause::Operator),
        )
    }
}

impl Default for OperatorModel {
    fn default() -> Self {
        OperatorModel::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl OperatorAction {
        /// Human-readable description of the botched action.
        pub(crate) fn describe_mistake(self) -> &'static str {
            match self {
                OperatorAction::ResizeThreadPool => {
                    "thread pool resized far below the required size"
                }
                OperatorAction::ResizeBufferPool => "buffer pool shrunk, starving the working set",
                OperatorAction::ResizeTierCapacity => "tier scaled down during a traffic surge",
                OperatorAction::DeployApplicationBuild => {
                    "wrong or stale application build deployed"
                }
                OperatorAction::AlterSchema => {
                    "needed index dropped / schema change applied to wrong table"
                }
                OperatorAction::MaintenanceRestart => "wrong node restarted during maintenance",
            }
        }
    }

    #[test]
    fn every_action_manifests_an_operator_caused_fault() {
        for action in OperatorAction::ALL {
            let (kind, _) = action.failure_manifestation();
            assert_eq!(kind.cause(), FailureCause::Operator, "{action:?}");
            assert!(!action.describe_mistake().is_empty());
        }
    }

    #[test]
    fn error_rate_controls_fault_frequency() {
        let model = OperatorModel {
            error_rate: 0.5,
            ..OperatorModel::standard()
        };
        let mut rng = StdRng::seed_from_u64(17);
        let n = 10_000;
        let faults = (0..n)
            .filter(|i| model.perform_action(*i as u64, &mut rng).is_some())
            .count();
        let rate = faults as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.03, "observed error rate {rate}");
    }

    #[test]
    fn generated_faults_are_operator_caused() {
        let model = OperatorModel {
            error_rate: 1.0,
            ..OperatorModel::standard()
        };
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..50 {
            let fault = model.perform_action(i, &mut rng).expect("error rate 1.0");
            assert_eq!(fault.cause, FailureCause::Operator);
            assert!(fault.severity >= 0.5);
            assert_eq!(fault.id.0, i);
        }
    }

    #[test]
    fn sample_action_respects_weights() {
        let model = OperatorModel {
            error_rate: 0.0,
            action_weights: vec![(OperatorAction::AlterSchema, 1.0)],
        };
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            assert_eq!(model.sample_action(&mut rng), OperatorAction::AlterSchema);
        }
    }
}
