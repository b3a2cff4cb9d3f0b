//! Fault-injection plans.
//!
//! Section 4.2 of the paper argues for *active* data collection during
//! preproduction: "the service can be subjected to different types and rates
//! of workloads, and injected with various failures; while recording data
//! about observed behavior".  An [`InjectionPlan`] is the schedule of such
//! injections, hand-scripted for targeted experiments such as the Table 1
//! fault/fix matrix.  Stochastic generation from a cause mix is
//! [`crate::MixSource`]'s job.

use crate::fault::{FaultId, FaultKind, FaultSpec, FaultTarget};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One scheduled injection: a fault to activate at a given tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct InjectionEvent {
    /// Tick at which the fault becomes active.
    pub at_tick: u64,
    /// The fault to inject.
    pub fault: FaultSpec,
}

/// A time-ordered schedule of fault injections.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct InjectionPlan {
    events: Vec<InjectionEvent>,
}

impl InjectionPlan {
    /// Creates an empty plan.
    pub fn empty() -> Self {
        InjectionPlan { events: Vec::new() }
    }

    /// Creates a plan from events (sorted by tick internally).
    pub(crate) fn from_events(mut events: Vec<InjectionEvent>) -> Self {
        events.sort_by_key(|e| e.at_tick);
        InjectionPlan { events }
    }

    /// Returns `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Returns the faults that become active exactly at `tick`.
    pub(crate) fn due_at(&self, tick: u64) -> Vec<&FaultSpec> {
        self.events
            .iter()
            .filter(|e| e.at_tick == tick)
            .map(|e| &e.fault)
            .collect()
    }

    /// The tick of the last scheduled injection (0 for an empty plan).
    pub fn horizon(&self) -> u64 {
        self.events.last().map(|e| e.at_tick).unwrap_or(0)
    }
}

/// Builder for [`InjectionPlan`]s.
#[derive(Debug, Default)]
pub struct InjectionPlanBuilder {
    events: Vec<InjectionEvent>,
    next_id: u64,
}

impl InjectionPlanBuilder {
    /// Creates an empty builder; fault ids count up from 0.
    pub fn new() -> Self {
        Self::default()
    }

    fn next_id(&mut self) -> FaultId {
        let id = FaultId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Schedules a fully specified fault.
    pub fn inject(
        mut self,
        at_tick: u64,
        kind: FaultKind,
        target: FaultTarget,
        severity: f64,
    ) -> Self {
        let id = self.next_id();
        self.events.push(InjectionEvent {
            at_tick,
            fault: FaultSpec::new(id, kind, target, severity),
        });
        self
    }

    /// Schedules a fault of `kind` at `at_tick` with a target chosen
    /// deterministically from the topology (component 0 of the natural
    /// target class) and default severity 0.8.
    pub fn inject_default(self, at_tick: u64, kind: FaultKind) -> Self {
        let target = default_target(kind, 0);
        self.inject(at_tick, kind, target, 0.8)
    }

    /// Finalizes the plan.
    pub fn build(self) -> InjectionPlan {
        InjectionPlan::from_events(self.events)
    }
}

/// Draws a random target for a fault of `kind` within a service topology of
/// `ejb_count` EJBs, `table_count` tables, and `index_count` indexes — the
/// target rule of the stochastic [`crate::source::MixSource`].
pub(crate) fn random_target<R: Rng + ?Sized>(
    kind: FaultKind,
    ejb_count: usize,
    table_count: usize,
    _index_count: usize,
    rng: &mut R,
) -> FaultTarget {
    let ejb_count = ejb_count.max(1);
    let table_count = table_count.max(1);
    match kind {
        FaultKind::DeadlockedThreads | FaultKind::UnhandledException | FaultKind::SourceCodeBug => {
            FaultTarget::Ejb {
                index: rng.gen_range(0..ejb_count),
            }
        }
        FaultKind::SoftwareAging => {
            if rng.gen_bool(0.5) {
                FaultTarget::AppTier
            } else {
                FaultTarget::Ejb {
                    index: rng.gen_range(0..ejb_count),
                }
            }
        }
        FaultKind::SuboptimalQueryPlan | FaultKind::TableBlockContention => FaultTarget::Table {
            index: rng.gen_range(0..table_count),
        },
        FaultKind::BufferContention => FaultTarget::DatabaseTier,
        FaultKind::BottleneckedTier => match rng.gen_range(0..3) {
            0 => FaultTarget::WebTier,
            1 => FaultTarget::AppTier,
            _ => FaultTarget::DatabaseTier,
        },
        FaultKind::OperatorMisconfiguration => match rng.gen_range(0..3) {
            0 => FaultTarget::AppTier,
            1 => FaultTarget::DatabaseTier,
            _ => FaultTarget::WebTier,
        },
        FaultKind::OperatorProceduralError => FaultTarget::WholeService,
        FaultKind::HardwareFailure => match rng.gen_range(0..3) {
            0 => FaultTarget::WebTier,
            1 => FaultTarget::AppTier,
            _ => FaultTarget::DatabaseTier,
        },
        FaultKind::NetworkPartition => FaultTarget::WholeService,
    }
}

/// The "natural" target class for a fault kind, with the given component
/// index (used by scripted experiments).
pub fn default_target(kind: FaultKind, component: usize) -> FaultTarget {
    match kind {
        FaultKind::DeadlockedThreads | FaultKind::UnhandledException | FaultKind::SourceCodeBug => {
            FaultTarget::Ejb { index: component }
        }
        FaultKind::SoftwareAging => FaultTarget::AppTier,
        FaultKind::SuboptimalQueryPlan | FaultKind::TableBlockContention => {
            FaultTarget::Table { index: component }
        }
        FaultKind::BufferContention => FaultTarget::DatabaseTier,
        FaultKind::BottleneckedTier => FaultTarget::DatabaseTier,
        FaultKind::OperatorMisconfiguration => FaultTarget::AppTier,
        FaultKind::OperatorProceduralError => FaultTarget::WholeService,
        FaultKind::HardwareFailure => FaultTarget::DatabaseTier,
        FaultKind::NetworkPartition => FaultTarget::WholeService,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::ServiceProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl InjectionPlan {
        /// Number of scheduled injections.
        pub(crate) fn len(&self) -> usize {
            self.events.len()
        }

        /// All events in tick order.
        pub(crate) fn events(&self) -> &[InjectionEvent] {
            &self.events
        }
    }

    #[test]
    fn scripted_plan_is_sorted_and_queryable() {
        let plan = InjectionPlanBuilder::new()
            .inject(
                50,
                FaultKind::BufferContention,
                FaultTarget::DatabaseTier,
                0.9,
            )
            .inject(
                10,
                FaultKind::DeadlockedThreads,
                FaultTarget::Ejb { index: 1 },
                0.7,
            )
            .build();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].at_tick, 10);
        assert_eq!(plan.horizon(), 50);
        assert_eq!(plan.due_at(10).len(), 1);
        assert_eq!(plan.due_at(10)[0].kind, FaultKind::DeadlockedThreads);
        assert!(plan.due_at(11).is_empty());
    }

    #[test]
    fn unique_fault_ids_are_assigned() {
        let plan = (0..50)
            .fold(InjectionPlanBuilder::new(), |builder, tick| {
                builder.inject(
                    tick,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.5,
                )
            })
            .build();
        let mut ids: Vec<u64> = plan.events().iter().map(|e| e.fault.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn random_targets_stay_within_topology() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let (_, kind) = ServiceProfile::ReadMostly.sample_kind(&mut rng);
            match random_target(kind, 3, 2, 1, &mut rng) {
                FaultTarget::Ejb { index } => assert!(index < 3),
                FaultTarget::Table { index } => assert!(index < 2),
                FaultTarget::Index { index } => assert!(index < 1),
                _ => {}
            }
        }
    }

    #[test]
    fn default_targets_follow_fault_semantics() {
        assert_eq!(
            default_target(FaultKind::DeadlockedThreads, 2),
            FaultTarget::Ejb { index: 2 }
        );
        assert_eq!(
            default_target(FaultKind::SuboptimalQueryPlan, 1),
            FaultTarget::Table { index: 1 }
        );
        assert_eq!(
            default_target(FaultKind::BufferContention, 0),
            FaultTarget::DatabaseTier
        );
        assert_eq!(
            default_target(FaultKind::NetworkPartition, 0),
            FaultTarget::WholeService
        );
    }

    #[test]
    fn empty_plan_has_zero_horizon() {
        let plan = InjectionPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.horizon(), 0);
    }

    #[test]
    fn inject_default_uses_component_zero() {
        let plan = InjectionPlanBuilder::new()
            .inject_default(5, FaultKind::UnhandledException)
            .build();
        assert_eq!(plan.events()[0].fault.target, FaultTarget::Ejb { index: 0 });
        assert_eq!(plan.events()[0].fault.severity, 0.8);
    }
}
