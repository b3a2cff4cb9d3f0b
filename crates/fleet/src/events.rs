//! Cross-replica fleet events: correlated fault storms and fleet-wide
//! workload surges, scheduled against a running fleet.
//!
//! An [`EventChoice`] is a fleet-level statement ("at tick 400, buffer
//! contention hits half the fleet") that the engine *resolves* into
//! per-replica [`ReplicaAction`]s before the run starts.  Workers apply each
//! action exactly when its replica reaches the action's tick, so an
//! event-laden run is a pure function of the configuration — fingerprints
//! are identical at any worker count and any tick-slice width (asserted by
//! `tests/scheduler.rs`).
//!
//! * A fault storm (`FaultStorm`, `CatalogStorm`) is a
//!   [`selfheal_faults::StormSpec`] at a tick: every victim replica (a
//!   deterministic, evenly spread fraction of the fleet) receives a fault at
//!   the same tick.
//! * A `WorkloadSurge` is a fleet-wide flash crowd: every replica's request
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
use selfheal_faults::{FaultSpec, StormSpec, STORM_FAULT_ID_BASE};
use std::collections::BTreeMap;

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

/// The schedule of cross-replica events for one fleet run.
#[derive(Debug, Default)]
pub(crate) struct EventPlan {
    /// The events, in the order they were configured.
    pub(crate) choices: Vec<EventChoice>,
}

impl EventPlan {
    /// Event labels, in schedule order.
    pub(crate) fn labels(&self) -> Vec<String> {
        self.choices
            .iter()
            .map(|choice| match *choice {
                EventChoice::FaultStorm {
                    at_tick,
                    kind,
                    severity,
                    fraction,
                } => storm_label(at_tick, StormSpec::new(kind, severity, fraction)),
                EventChoice::CatalogStorm {
                    at_tick,
                    profile,
                    severity,
                    fraction,
                } => storm_label(at_tick, StormSpec::catalog(profile, severity, fraction)),
                EventChoice::WorkloadSurge {
                    at_tick, factor, ..
                } => format!("surge@{at_tick}x{:.1}", factor.max(1.0)),
            })
            .collect()
    }

    /// The last tick at which any scheduled event can still introduce an
    /// effect (a storm's strike, a surge's last surged tick), or `None` for
    /// an empty plan.  Quiesce detection
    /// ([`crate::FleetConfig::run_to_quiescence`]) runs the fleet past this
    /// horizon plus a healing tail.
    pub(crate) fn horizon(&self) -> Option<u64> {
        self.choices
            .iter()
            .map(|choice| match *choice {
                EventChoice::FaultStorm { at_tick, .. }
                | EventChoice::CatalogStorm { at_tick, .. } => at_tick,
                EventChoice::WorkloadSurge {
                    at_tick,
                    duration_ticks,
                    ..
                } => at_tick.saturating_add(duration_ticks).saturating_sub(1),
            })
            .max()
    }

    /// Resolves every event against a fleet of `replicas` seeded
    /// `base_seed` into the per-replica, per-tick action schedule the
    /// scheduler consults.  A storm strikes its victims at its tick (a
    /// catalog storm draws each victim's class from the cause mix, keyed by
    /// the base seed); a surge covers every replica from its tick.
    /// Injected faults get unique ids in the [`STORM_FAULT_ID_BASE`]
    /// namespace, in schedule order, so two events can never collide with
    /// each other or with a replica's own fault source.
    pub(crate) fn resolve(&self, replicas: usize, base_seed: u64) -> ActionSchedule {
        let mut per_replica: Vec<BTreeMap<u64, Vec<ReplicaAction>>> =
            (0..replicas).map(|_| BTreeMap::new()).collect();
        let mut next_fault_id = STORM_FAULT_ID_BASE;
        for choice in &self.choices {
            let (at_tick, spec) = match *choice {
                EventChoice::FaultStorm {
                    at_tick,
                    kind,
                    severity,
                    fraction,
                } => (at_tick, StormSpec::new(kind, severity, fraction)),
                EventChoice::CatalogStorm {
                    at_tick,
                    profile,
                    severity,
                    fraction,
                } => (at_tick, StormSpec::catalog(profile, severity, fraction)),
                EventChoice::WorkloadSurge {
                    at_tick,
                    duration_ticks,
                    factor,
                } => {
                    let surge = ReplicaAction::Surge {
                        factor: factor.max(1.0),
                        until_tick: at_tick.saturating_add(duration_ticks),
                    };
                    for by_tick in &mut per_replica {
                        by_tick.entry(at_tick).or_default().push(surge.clone());
                    }
                    continue;
                }
            };
            for victim in spec.victims(replicas) {
                let fault = spec.fault_for(next_fault_id, victim, base_seed);
                next_fault_id += 1;
                per_replica[victim]
                    .entry(at_tick)
                    .or_default()
                    .push(ReplicaAction::Inject(fault));
            }
        }
        ActionSchedule { per_replica }
    }
}

/// A storm's label: its tick, fraction and failure class (or cause mix).
fn storm_label(at_tick: u64, spec: StormSpec) -> String {
    match spec.mix {
        Some(profile) => format!(
            "storm@{at_tick}x{:.2}_mix_{}",
            spec.fraction,
            profile.name().to_lowercase()
        ),
        None => format!("storm@{at_tick}x{:.2}_{}", spec.fraction, spec.kind.label()),
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
    use selfheal_faults::{FaultKind, ServiceProfile};

    fn plan(choices: &[EventChoice]) -> EventPlan {
        EventPlan {
            choices: choices.to_vec(),
        }
    }

    #[test]
    fn storms_resolve_to_unique_fault_ids_on_victims_only() {
        let schedule = plan(&[
            EventChoice::storm(100, FaultKind::BufferContention, 0.5),
            EventChoice::storm(100, FaultKind::DeadlockedThreads, 0.25),
        ])
        .resolve(8, 42);
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
        let schedule = plan(&[EventChoice::surge(40, 20, 3.0)]).resolve(3, 1);
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
        let plan = plan(&[EventChoice::catalog_storm(60, ServiceProfile::Online, 1.0)]);
        let kinds = |base_seed: u64| -> Vec<FaultKind> {
            let schedule = plan.resolve(24, base_seed);
            (0..24)
                .flat_map(|replica| schedule.actions_for(replica, 60))
                .map(|action| {
                    let ReplicaAction::Inject(fault) = action else {
                        panic!("storms resolve to injections");
                    };
                    assert!(fault.id.0 >= STORM_FAULT_ID_BASE);
                    fault.kind
                })
                .collect()
        };
        let drawn = kinds(42);
        assert_eq!(drawn.len(), 24, "full-fraction storm hits everyone");
        let distinct: std::collections::HashSet<_> = drawn.iter().copied().collect();
        assert!(
            distinct.len() >= 3,
            "victims manifest several failure classes: {distinct:?}"
        );
        // Same shape, same seed → same resolution; a different base seed
        // reshuffles the class draw.
        assert_eq!(kinds(42), drawn);
        assert_ne!(kinds(43), drawn);
    }

    #[test]
    fn labels_name_the_events() {
        let plan = plan(&[
            EventChoice::storm(100, FaultKind::BufferContention, 0.5),
            EventChoice::catalog_storm(60, ServiceProfile::Online, 2.0),
            EventChoice::surge(40, 20, 0.5),
        ]);
        assert_eq!(
            plan.labels(),
            [
                "storm@100x0.50_buffer_contention",
                "storm@60x1.00_mix_online",
                "surge@40x1.0"
            ]
        );
        assert_eq!(plan.horizon(), Some(100));
    }
}
