//! Cross-replica fleet events: correlated fault storms and fleet-wide
//! workload surges, scheduled against a running fleet.
//!
//! A `FleetEvent` is a fleet-level statement ("at tick 400, buffer
//! contention hits half the fleet") that the engine *resolves* into
//! per-replica [`ReplicaAction`]s before the run starts.  Workers apply each
//! action exactly when its replica reaches the action's tick, so an
//! event-laden run is a pure function of the configuration — fingerprints
//! are identical at any worker count and any tick-slice width (asserted by
//! `tests/scheduler.rs`).
//!
//! Two events ship with the crate, mirroring the declarative
//! [`selfheal_core::harness::EventChoice`] recipes:
//!
//! * `FaultStorm` — a [`selfheal_faults::StormSpec`] at a tick: every
//!   victim replica (a deterministic, evenly spread fraction of the fleet)
//!   receives the same fault at the same tick.
//! * `WorkloadSurge` — a fleet-wide flash crowd: every replica's request
//!   batches are amplified for a window of ticks.
//!
//! # Scheduling events
//!
//! ```
//! use selfheal_core::harness::EventChoice;
//! use selfheal_faults::FaultKind;
//! use selfheal_fleet::FleetConfig;
//! use selfheal_sim::ServiceConfig;
//!
//! // At tick 40 buffer contention hits half the fleet; from tick 80 every
//! // replica serves three times its traffic for 20 ticks.
//! let fleet = FleetConfig::builder()
//!     .service(ServiceConfig::tiny())
//!     .replicas(4)
//!     .ticks(120)
//!     .events([
//!         EventChoice::storm(40, FaultKind::BufferContention, 0.5),
//!         EventChoice::surge(80, 20, 3.0),
//!     ]);
//! // The surge is the last stimulus: it ends after tick 99.
//! assert_eq!(fleet.stimulus_horizon(), Some(99));
//! assert_eq!(fleet.run().replicas().len(), 4);
//! ```

use selfheal_core::harness::EventChoice;
use selfheal_faults::{FaultKind, FaultSpec, ServiceProfile, StormSpec, STORM_FAULT_ID_BASE};
use std::collections::BTreeMap;

/// The shape of the fleet an event is resolved against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FleetShape {
    /// Number of replicas in the fleet.
    pub replicas: usize,
    /// Ticks each replica will simulate.
    pub ticks: u64,
    /// The fleet's base seed (for events that want deterministic
    /// per-resolution randomness).
    pub base_seed: u64,
}

/// One resolved per-replica effect of a fleet event.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaAction {
    /// Inject this fault into the replica at the action's tick.
    Inject(FaultSpec),
    /// Amplify the replica's request batches by `factor` until `until_tick`
    /// (exclusive), starting at the action's tick.
    Surge {
        /// Request-batch amplification factor (≥ 1.0).
        factor: f64,
        /// First tick no longer surged.
        until_tick: u64,
    },
}

/// A cross-replica event scheduled against a fleet run.
///
/// Implementations must resolve deterministically: the per-replica actions
/// may depend only on the event itself and the [`FleetShape`], never on
/// wall-clock state, so every execution mode reproduces the same run.
pub(crate) trait FleetEvent: Send + Sync + std::fmt::Debug {
    /// The tick at which the event fires (actions resolved from it default
    /// to this tick).
    fn due_tick(&self) -> u64;

    /// Short display label for bench output.
    fn label(&self) -> String;

    /// Resolves the fleet-level event into per-replica actions, applied
    /// when each replica reaches [`FleetEvent::due_tick`].
    fn resolve(&self, fleet: &FleetShape) -> Vec<(usize, ReplicaAction)>;

    /// The last tick at which this event's effects can still be introduced
    /// (defaults to [`FleetEvent::due_tick`]; events with extended effects,
    /// like surges, report when the effect ends) — quiesce detection runs
    /// the fleet past the horizon plus a healing tail.
    fn horizon(&self) -> u64 {
        self.due_tick()
    }
}

/// A correlated fault storm: at [`FleetEvent::due_tick`], the storm's fault
/// hits a deterministic fraction of the fleet (see
/// [`StormSpec`] for the victim-selection rule).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultStorm {
    at_tick: u64,
    spec: StormSpec,
}

impl FaultStorm {
    /// Creates a uniform storm striking at `at_tick`: every victim receives
    /// the same failure class.
    pub(crate) fn new(at_tick: u64, kind: FaultKind, severity: f64, fraction: f64) -> Self {
        FaultStorm {
            at_tick,
            spec: StormSpec::new(kind, severity, fraction),
        }
    }

    /// Creates a *catalog* storm striking at `at_tick`: each victim's
    /// failure class is drawn from `profile`'s cause mix, keyed by the
    /// fleet's base seed at resolution time (so the draw is a pure function
    /// of the configuration).
    pub(crate) fn catalog(
        at_tick: u64,
        profile: ServiceProfile,
        severity: f64,
        fraction: f64,
    ) -> Self {
        FaultStorm {
            at_tick,
            spec: StormSpec::catalog(profile, severity, fraction),
        }
    }
}

impl FleetEvent for FaultStorm {
    fn due_tick(&self) -> u64 {
        self.at_tick
    }

    fn label(&self) -> String {
        match self.spec.mix {
            Some(profile) => format!(
                "storm@{}x{:.2}_mix_{}",
                self.at_tick,
                self.spec.fraction,
                profile.name().to_lowercase()
            ),
            None => format!(
                "storm@{}x{:.2}_{}",
                self.at_tick,
                self.spec.fraction,
                self.spec.kind.label()
            ),
        }
    }

    fn resolve(&self, fleet: &FleetShape) -> Vec<(usize, ReplicaAction)> {
        self.spec
            .victims(fleet.replicas)
            .into_iter()
            .map(|victim| {
                // The id is provisional; EventPlan::resolve re-stamps every
                // injected fault with a unique id in the storm namespace.
                // Catalog-mode storms draw each victim's class from the
                // cause mix, keyed by the fleet's base seed.
                (
                    victim,
                    ReplicaAction::Inject(self.spec.fault_for(
                        STORM_FAULT_ID_BASE,
                        victim,
                        fleet.base_seed,
                    )),
                )
            })
            .collect()
    }
}

/// A fleet-wide workload surge: every replica's request batches are
/// amplified by `factor` for `duration_ticks` starting at
/// [`FleetEvent::due_tick`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorkloadSurge {
    at_tick: u64,
    duration_ticks: u64,
    factor: f64,
}

impl WorkloadSurge {
    /// Creates a surge covering ticks `[at_tick, at_tick + duration_ticks)`.
    pub(crate) fn new(at_tick: u64, duration_ticks: u64, factor: f64) -> Self {
        WorkloadSurge {
            at_tick,
            duration_ticks,
            factor: factor.max(1.0),
        }
    }
}

impl FleetEvent for WorkloadSurge {
    fn due_tick(&self) -> u64 {
        self.at_tick
    }

    fn label(&self) -> String {
        format!("surge@{}x{:.1}", self.at_tick, self.factor)
    }

    fn horizon(&self) -> u64 {
        self.at_tick
            .saturating_add(self.duration_ticks)
            .saturating_sub(1)
    }

    fn resolve(&self, fleet: &FleetShape) -> Vec<(usize, ReplicaAction)> {
        let until_tick = self.at_tick.saturating_add(self.duration_ticks);
        (0..fleet.replicas)
            .map(|replica| {
                (
                    replica,
                    ReplicaAction::Surge {
                        factor: self.factor,
                        until_tick,
                    },
                )
            })
            .collect()
    }
}

/// The schedule of cross-replica events for one fleet run.
///
/// Build one from declarative [`EventChoice`]s
/// ([`EventPlan::from_choices`], what `FleetConfig::events` does under the
/// hood) or push any custom [`FleetEvent`] implementation with
/// [`EventPlan::with`].
#[derive(Debug, Default)]
pub(crate) struct EventPlan {
    events: Vec<Box<dyn FleetEvent>>,
}

impl EventPlan {
    /// An empty plan.
    pub(crate) fn new() -> Self {
        EventPlan::default()
    }

    /// Adds one declarative choice.
    pub(crate) fn push_choice(&mut self, choice: EventChoice) {
        match choice {
            EventChoice::FaultStorm {
                at_tick,
                kind,
                severity,
                fraction,
            } => self
                .events
                .push(Box::new(FaultStorm::new(at_tick, kind, severity, fraction))),
            EventChoice::CatalogStorm {
                at_tick,
                profile,
                severity,
                fraction,
            } => self.events.push(Box::new(FaultStorm::catalog(
                at_tick, profile, severity, fraction,
            ))),
            EventChoice::WorkloadSurge {
                at_tick,
                duration_ticks,
                factor,
            } => self.events.push(Box::new(WorkloadSurge::new(
                at_tick,
                duration_ticks,
                factor,
            ))),
        }
    }

    /// Event labels, in schedule order.
    pub(crate) fn labels(&self) -> Vec<String> {
        self.events.iter().map(|e| e.label()).collect()
    }

    /// The last tick at which any scheduled event can still introduce an
    /// effect, or `None` for an empty plan.  Quiesce detection
    /// ([`crate::FleetConfig::run_to_quiescence`]) runs the fleet past this
    /// horizon plus a healing tail.
    pub(crate) fn horizon(&self) -> Option<u64> {
        self.events.iter().map(|e| e.horizon()).max()
    }

    /// Resolves every event against the fleet's shape into the per-replica,
    /// per-tick action schedule the scheduler consults.  Injected faults are
    /// re-stamped with unique ids in the [`STORM_FAULT_ID_BASE`] namespace
    /// so two events can never collide with each other or with a replica's
    /// own injection plan.
    pub(crate) fn resolve(&self, fleet: &FleetShape) -> ActionSchedule {
        let mut per_replica: Vec<BTreeMap<u64, Vec<ReplicaAction>>> =
            (0..fleet.replicas).map(|_| BTreeMap::new()).collect();
        let mut next_fault_id = STORM_FAULT_ID_BASE;
        for event in &self.events {
            let tick = event.due_tick();
            for (replica, mut action) in event.resolve(fleet) {
                if replica >= fleet.replicas {
                    continue;
                }
                if let ReplicaAction::Inject(fault) = &mut action {
                    fault.id = selfheal_faults::FaultId(next_fault_id);
                    next_fault_id += 1;
                }
                per_replica[replica].entry(tick).or_default().push(action);
            }
        }
        ActionSchedule { per_replica }
    }
}

/// Per-replica, per-tick actions resolved from an [`EventPlan`] — what the
/// scheduler's workers (and the sequential interleaver) actually consult.
#[derive(Debug, Default)]
pub(crate) struct ActionSchedule {
    per_replica: Vec<BTreeMap<u64, Vec<ReplicaAction>>>,
}

impl ActionSchedule {
    /// The actions replica `replica` must apply immediately before stepping
    /// through `tick`.
    pub(crate) fn actions_for(&self, replica: usize, tick: u64) -> &[ReplicaAction] {
        self.per_replica
            .get(replica)
            .and_then(|by_tick| by_tick.get(&tick))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Doubles traffic on one chosen replica for 50 ticks: a targeted
    /// (rather than fleet-wide) surge.
    #[derive(Debug)]
    struct HotReplica {
        at_tick: u64,
        replica: usize,
    }

    // lint:allow(choice-mirror): a test double of a custom event.
    impl FleetEvent for HotReplica {
        fn due_tick(&self) -> u64 {
            self.at_tick
        }

        fn label(&self) -> String {
            format!("hot_replica_{}", self.replica)
        }

        fn resolve(&self, fleet: &FleetShape) -> Vec<(usize, ReplicaAction)> {
            if self.replica >= fleet.replicas {
                return Vec::new();
            }
            vec![(
                self.replica,
                ReplicaAction::Surge {
                    factor: 2.0,
                    until_tick: self.at_tick + 50,
                },
            )]
        }
    }

    #[test]
    fn a_custom_event_resolves_against_the_fleet_shape() {
        let event = HotReplica {
            at_tick: 10,
            replica: 1,
        };
        let shape = FleetShape {
            replicas: 4,
            ticks: 100,
            base_seed: 42,
        };
        assert_eq!(event.resolve(&shape).len(), 1);
        let small = FleetShape {
            replicas: 1,
            ..shape
        };
        assert!(event.resolve(&small).is_empty());
    }

    impl EventPlan {
        /// Builds a plan from declarative choices.
        pub(crate) fn from_choices(choices: impl IntoIterator<Item = EventChoice>) -> Self {
            let mut plan = EventPlan::new();
            for choice in choices {
                plan.push_choice(choice);
            }
            plan
        }

        /// Number of scheduled events.
        pub(crate) fn len(&self) -> usize {
            self.events.len()
        }
    }

    #[test]
    fn storms_resolve_to_unique_fault_ids_on_victims_only() {
        let plan = EventPlan::from_choices([
            EventChoice::storm(100, FaultKind::BufferContention, 0.5),
            EventChoice::storm(100, FaultKind::DeadlockedThreads, 0.25),
        ]);
        let shape = FleetShape {
            replicas: 8,
            ticks: 500,
            base_seed: 42,
        };
        let schedule = plan.resolve(&shape);
        let mut ids = Vec::new();
        let mut victims = 0;
        for replica in 0..8 {
            for action in schedule.actions_for(replica, 100) {
                let ReplicaAction::Inject(fault) = action else {
                    panic!("storms resolve to injections");
                };
                assert!(fault.id.0 >= STORM_FAULT_ID_BASE);
                ids.push(fault.id.0);
                victims += 1;
            }
            assert!(schedule.actions_for(replica, 99).is_empty());
        }
        assert_eq!(victims, 4 + 2);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 6, "every storm fault gets a unique id");
    }

    #[test]
    fn surges_cover_the_whole_fleet() {
        let plan = EventPlan::from_choices([EventChoice::surge(40, 20, 3.0)]);
        let shape = FleetShape {
            replicas: 3,
            ticks: 100,
            base_seed: 1,
        };
        let schedule = plan.resolve(&shape);
        for replica in 0..3 {
            let actions = schedule.actions_for(replica, 40);
            assert_eq!(
                actions,
                &[ReplicaAction::Surge {
                    factor: 3.0,
                    until_tick: 60
                }]
            );
        }
    }

    #[test]
    fn catalog_storms_draw_per_victim_kinds_from_the_mix() {
        let plan =
            EventPlan::from_choices([EventChoice::catalog_storm(60, ServiceProfile::Online, 1.0)]);
        let shape = FleetShape {
            replicas: 24,
            ticks: 300,
            base_seed: 42,
        };
        let schedule = plan.resolve(&shape);
        let mut kinds = Vec::new();
        for replica in 0..24 {
            for action in schedule.actions_for(replica, 60) {
                let ReplicaAction::Inject(fault) = action else {
                    panic!("storms resolve to injections");
                };
                assert!(fault.id.0 >= STORM_FAULT_ID_BASE);
                kinds.push(fault.kind);
            }
        }
        assert_eq!(kinds.len(), 24, "full-fraction storm hits everyone");
        let distinct: std::collections::HashSet<_> = kinds.iter().copied().collect();
        assert!(
            distinct.len() >= 3,
            "victims manifest several failure classes: {distinct:?}"
        );
        // Same shape, same seed → same resolution.
        let again = plan.resolve(&shape);
        for replica in 0..24 {
            assert_eq!(
                schedule.actions_for(replica, 60),
                again.actions_for(replica, 60)
            );
        }
        // A different base seed reshuffles the class draw.
        let reseeded = plan.resolve(&FleetShape {
            base_seed: 43,
            ..shape
        });
        let rekinds: Vec<_> = (0..24).flat_map(|r| reseeded.actions_for(r, 60)).collect();
        assert_ne!(
            kinds,
            rekinds
                .iter()
                .map(|a| {
                    let ReplicaAction::Inject(fault) = a else {
                        panic!("storms resolve to injections");
                    };
                    fault.kind
                })
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn labels_name_the_events() {
        let plan = EventPlan::from_choices([
            EventChoice::storm(100, FaultKind::BufferContention, 0.5),
            EventChoice::surge(40, 20, 3.0),
        ]);
        assert_eq!(plan.len(), 2);
        assert!(plan.labels()[0].starts_with("storm@100"));
        assert!(plan.labels()[1].starts_with("surge@40"));
    }
}
