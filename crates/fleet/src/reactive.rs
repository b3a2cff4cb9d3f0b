//! Reactive chaos: state-observing events evaluated at epoch barriers.
//!
//! Every stimulus in [`crate::events`] is *scripted* — resolved into
//! per-replica actions before tick 0, blind to how the fleet actually
//! fares.  A [`ReactiveChoice`] instead runs **at the scheduler's epoch
//! barriers**, reading each replica's open failure episodes, and injects
//! faults for the *next* epoch.  Because the barrier is the one point where
//! the whole fleet's state is deterministic — every replica has completed
//! exactly the same tick — reactive runs stay fingerprint-identical at any
//! worker count, and at any slice width that divides [`REACTIVE_PERIOD`]
//! (the engine enforces this).
//!
//! Two engines exist, one per [`ReactiveChoice`] variant:
//!
//! * `Adversary` — weakest-replica targeting: every reactive barrier,
//!   inject a fault into the replica with the worst open-episode count
//!   (deterministic tie-break by lowest id).  The forcing function for the
//!   paper's claim: under an adversary that piles onto whoever is already
//!   failing, shared fix synopses must out-heal isolated learners.
//! * `Cascade` — correlated failure propagation along a small
//!   service-dependency ring: a replica *entering* a failure episode seeds
//!   a fault in its dependent next epoch, bounded by an injection budget.
//!
//! # Wiring a cascade into a fleet
//!
//! ```
//! use selfheal_core::harness::{FaultChoice, PolicyChoice, ReactiveChoice};
//! use selfheal_core::synopsis::SynopsisKind;
//! use selfheal_faults::{FaultKind, ServiceProfile};
//! use selfheal_fleet::FleetConfig;
//! use selfheal_sim::ServiceConfig;
//!
//! let service = ServiceConfig::tiny();
//! let outcome = FleetConfig::builder()
//!     .service(service.clone())
//!     .replicas(3)
//!     .ticks(640)
//!     .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
//!     .faults(FaultChoice::mix_for(ServiceProfile::Online, 0.01, &service).active_for(320))
//!     // Up to four propagations to a failing replica's ring neighbour.
//!     .reactive(ReactiveChoice::cascade(FaultKind::DeadlockedThreads, 0.8, 4, 512))
//!     .run();
//! // Every strike is logged with the barrier tick it landed at.
//! for record in outcome.reactive_log() {
//!     assert_eq!(record.event, "cascade_deadlocked_threads");
//!     assert_eq!(record.tick % 64, 0);
//! }
//! assert!(outcome.reactive_log().len() <= 4);
//! ```

use crate::events::ReplicaAction;
use selfheal_core::harness::ReactiveChoice;
use selfheal_faults::id_space::IdLane;
use selfheal_faults::injection::default_target;
use selfheal_faults::{FaultId, FaultSpec};

/// Ticks between reactive evaluations.  Engines observe the fleet only at
/// epoch barriers whose tick is a multiple of this period (plus one initial
/// evaluation at tick 0), so a slice-1 run and a slice-64 run see the exact
/// same sequence of views — the engine requires the configured slice to
/// divide this period whenever reactive events are present.
pub const REACTIVE_PERIOD: u64 = 64;

/// One replica's state as observable at an epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReplicaView {
    /// Index of the replica within the fleet.
    pub replica: usize,
    /// `true` when the replica has no live runner (removed, panicked, in
    /// backoff): engines do not target it.
    pub retired: bool,
    /// Failure episodes currently open (at most one per runner).
    pub open_episodes: usize,
}

impl ReplicaView {
    /// The view of a retired (panicked) replica slot.
    pub(crate) fn retired(replica: usize) -> Self {
        ReplicaView {
            replica,
            retired: true,
            open_episodes: 0,
        }
    }
}

/// The whole fleet's state at one epoch barrier: what the reactive engines
/// observe.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FleetView {
    /// The barrier tick: every live replica has completed exactly
    /// `tick` ticks, and emitted actions apply from this tick on.
    pub tick: u64,
    /// Per-replica state, ordered by replica index.
    pub replicas: Vec<ReplicaView>,
}

impl FleetView {
    /// The currently-weakest live replica: worst open-episode count, ties
    /// broken toward the lowest replica id — fully deterministic, so
    /// adversarial targeting cannot depend on worker scheduling.  `None`
    /// when every replica is retired.
    pub(crate) fn weakest_replica(&self) -> Option<usize> {
        self.replicas
            .iter()
            .filter(|r| !r.retired)
            .max_by(|a, b| {
                (a.open_episodes, std::cmp::Reverse(a.replica))
                    .cmp(&(b.open_episodes, std::cmp::Reverse(b.replica)))
            })
            .map(|r| r.replica)
    }
}

/// The last tick at which any of `choices` can still strike, `None` when
/// there are none.
pub(crate) fn horizon(choices: &[ReactiveChoice]) -> Option<u64> {
    choices
        .iter()
        .map(|choice| {
            let (ReactiveChoice::Adversary { until_tick, .. }
            | ReactiveChoice::Cascade { until_tick, .. }) = *choice;
            until_tick.saturating_sub(1)
        })
        .max()
}

/// One configured engine: its choice, plus the edge state a cascade keeps
/// between barriers.
#[derive(Debug)]
struct Engine {
    choice: ReactiveChoice,
    /// Propagations a cascade has made so far.
    injected: usize,
    /// Which replicas a cascade saw in an open episode at the previous
    /// barrier.
    was_open: Vec<bool>,
}

impl Engine {
    /// Label for bench output and the reactive log.
    fn label(&self) -> String {
        match self.choice {
            ReactiveChoice::Adversary { kind, .. } => format!("adversary_{}", kind.label()),
            ReactiveChoice::Cascade { kind, .. } => format!("cascade_{}", kind.label()),
        }
    }

    /// The replicas this engine strikes at the barrier `view` shows.
    ///
    /// The adversary strikes [`FleetView::weakest_replica`] at every barrier
    /// in `[start_tick, until_tick)`: against isolated learners the worst
    /// case, since it keeps hitting whichever replica is already struggling.
    /// The cascade strikes replica `r`'s dependent `(r + 1) % fleet` when
    /// `r` *enters* a failure episode (open now, closed at the previous
    /// barrier) — a downstream service buckling under its upstream's
    /// failure — until its `budget` is spent, so it cannot feed itself
    /// around the ring forever.
    fn targets(&mut self, view: &FleetView) -> Vec<usize> {
        match self.choice {
            ReactiveChoice::Adversary {
                start_tick,
                until_tick,
                ..
            } => {
                if view.tick < start_tick || view.tick >= until_tick {
                    return Vec::new();
                }
                view.weakest_replica().into_iter().collect()
            }
            ReactiveChoice::Cascade {
                budget, until_tick, ..
            } => {
                let n = view.replicas.len();
                if self.was_open.len() != n {
                    self.was_open = vec![false; n];
                }
                let mut targets = Vec::new();
                for replica in &view.replicas {
                    let open = replica.open_episodes > 0;
                    let entered = open && !self.was_open[replica.replica];
                    self.was_open[replica.replica] = open;
                    if !entered
                        || view.tick >= until_tick
                        || self.injected >= budget
                        || replica.retired
                    {
                        continue;
                    }
                    let dependent = (replica.replica + 1) % n;
                    if view.replicas[dependent].retired {
                        continue;
                    }
                    self.injected += 1;
                    targets.push(dependent);
                }
                targets
            }
        }
    }
}

/// One action emitted by a reactive engine during a run — the audit trail
/// [`FleetOutcome::reactive_log`](crate::FleetOutcome::reactive_log)
/// exposes, which benches use to attribute episodes to reactive stimuli.
#[derive(Debug, Clone, PartialEq)]
pub struct ReactiveRecord {
    /// The barrier tick the action was emitted (and applies) at.
    pub tick: u64,
    /// The replica the action targets.
    pub replica: usize,
    /// Label of the emitting engine.
    pub event: String,
    /// The action as applied (injected faults carry their re-stamped id).
    pub action: ReplicaAction,
}

/// The reactive engines an epoch engine runs — each a [`ReactiveChoice`]
/// with its edge state — plus the id counter re-stamping their injections
/// in the [`IdLane::Reactive`] namespace, and the log of the actions they
/// emitted.
#[derive(Debug)]
pub(crate) struct ReactivePlan {
    engines: Vec<Engine>,
    next_fault_id: u64,
    log: Vec<ReactiveRecord>,
}

impl Default for ReactivePlan {
    fn default() -> Self {
        ReactivePlan {
            engines: Vec::new(),
            next_fault_id: IdLane::Reactive.base(),
            log: Vec::new(),
        }
    }
}

impl ReactivePlan {
    /// Swaps the engines for fresh ones built from `choices` (none switches
    /// them off); the id counter and the log carry over, so faults injected
    /// by successive plans never share an id.
    pub(crate) fn set(&mut self, choices: &[ReactiveChoice]) {
        self.engines = choices
            .iter()
            .map(|&choice| Engine {
                choice,
                injected: 0,
                was_open: Vec::new(),
            })
            .collect();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Runs every engine against `view`, injects one fault of the engine's
    /// class and severity into each target under a fresh id, logs the actions, and returns them for scheduling.  Engines
    /// run in configuration order and ids are assigned in emission order, so
    /// the result is a pure function of the view sequence.
    pub(crate) fn evaluate(&mut self, view: &FleetView) -> Vec<(usize, ReplicaAction)> {
        let mut resolved = Vec::new();
        for engine in &mut self.engines {
            let (ReactiveChoice::Adversary { kind, severity, .. }
            | ReactiveChoice::Cascade { kind, severity, .. }) = engine.choice;
            let label = engine.label();
            for replica in engine.targets(view) {
                let action = ReplicaAction::Inject(FaultSpec::new(
                    FaultId(self.next_fault_id),
                    kind,
                    default_target(kind, 0),
                    severity,
                ));
                self.next_fault_id += 1;
                self.log.push(ReactiveRecord {
                    tick: view.tick,
                    replica,
                    event: label.clone(),
                    action: action.clone(),
                });
                resolved.push((replica, action));
            }
        }
        resolved
    }

    /// Drains the emitted-action log.
    pub(crate) fn take_log(&mut self) -> Vec<ReactiveRecord> {
        std::mem::take(&mut self.log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::FaultKind;

    fn view(tick: u64, open: &[usize]) -> FleetView {
        FleetView {
            tick,
            replicas: open
                .iter()
                .enumerate()
                .map(|(replica, open_episodes)| ReplicaView {
                    replica,
                    retired: false,
                    open_episodes: *open_episodes,
                })
                .collect(),
        }
    }

    fn plan(choices: &[ReactiveChoice]) -> ReactivePlan {
        let mut plan = ReactivePlan::default();
        plan.set(choices);
        plan
    }

    /// The replicas struck at one barrier.
    fn struck(plan: &mut ReactivePlan, view: &FleetView) -> Vec<usize> {
        plan.evaluate(view).into_iter().map(|(r, _)| r).collect()
    }

    #[test]
    fn weakest_replica_prefers_open_episodes_then_low_id() {
        assert_eq!(view(0, &[0, 1, 0]).weakest_replica(), Some(1));
        assert_eq!(
            view(0, &[0, 1, 1]).weakest_replica(),
            Some(1),
            "tie → low id"
        );
        assert_eq!(view(0, &[0, 0, 0]).weakest_replica(), Some(0));
        let mut retired = view(0, &[0, 0]);
        retired.replicas[0] = ReplicaView::retired(0);
        assert_eq!(retired.weakest_replica(), Some(1), "retired skipped");
        retired.replicas[1] = ReplicaView::retired(1);
        assert_eq!(retired.weakest_replica(), None);
    }

    #[test]
    fn adversary_strikes_the_weakest_inside_its_window() {
        let choice = ReactiveChoice::adversary(FaultKind::BufferContention, 1.5, 64, 256);
        let mut adversary = plan(&[choice]);
        assert!(
            struck(&mut adversary, &view(0, &[0, 1])).is_empty(),
            "pre-start"
        );
        let actions = adversary.evaluate(&view(64, &[0, 1]));
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].0, 1);
        let ReplicaAction::Inject(fault) = &actions[0].1 else {
            panic!("adversaries inject");
        };
        assert_eq!(fault.kind, FaultKind::BufferContention);
        assert_eq!(fault.severity, 1.0, "severity is clamped");
        assert!(
            struck(&mut adversary, &view(256, &[0, 1])).is_empty(),
            "post-end"
        );
        assert_eq!(horizon(&[choice]), Some(255));
    }

    #[test]
    fn cascade_propagates_to_the_ring_dependent_within_budget() {
        let mut cascade = plan(&[ReactiveChoice::cascade(
            FaultKind::DeadlockedThreads,
            0.8,
            2,
            1000,
        )]);
        assert!(
            struck(&mut cascade, &view(0, &[0, 0, 0])).is_empty(),
            "calm fleet"
        );
        // Replica 1 enters an episode → dependent 2 is seeded.
        assert_eq!(struck(&mut cascade, &view(64, &[0, 1, 0])), [2]);
        // Still open at the next barrier: no re-trigger (edge, not level).
        assert!(struck(&mut cascade, &view(128, &[0, 1, 0])).is_empty());
        // Wraps around the ring, and the budget caps the chain.
        assert_eq!(
            struck(&mut cascade, &view(192, &[0, 1, 1])),
            [0],
            "2 → dependent 0"
        );
        assert!(
            struck(&mut cascade, &view(256, &[1, 0, 0])).is_empty(),
            "budget of 2 exhausted"
        );
    }

    #[test]
    fn context_restamps_ids_and_logs_every_action() {
        let choices = [
            ReactiveChoice::adversary(FaultKind::BufferContention, 0.9, 0, 1000),
            ReactiveChoice::cascade(FaultKind::DeadlockedThreads, 0.8, 4, 1000),
        ];
        assert_eq!(horizon(&choices), Some(999));
        let mut context = plan(&choices);
        let actions = context.evaluate(&view(0, &[1, 1]));
        // Adversary hits the tied weakest (replica 0); both replicas enter
        // episodes, so the cascade seeds both dependents.
        assert_eq!(actions.len(), 3);
        let ids: Vec<u64> = actions
            .iter()
            .map(|(_, action)| {
                let ReplicaAction::Inject(fault) = action else {
                    panic!("all reactive actions here inject");
                };
                fault.id.0
            })
            .collect();
        assert_eq!(
            ids,
            vec![
                IdLane::Reactive.base(),
                IdLane::Reactive.base() + 1,
                IdLane::Reactive.base() + 2
            ]
        );
        let log = context.take_log();
        let labels: Vec<&str> = log.iter().map(|r| r.event.as_str()).collect();
        assert_eq!(
            labels,
            [
                "adversary_buffer_contention",
                "cascade_deadlocked_threads",
                "cascade_deadlocked_threads"
            ]
        );
        assert_eq!(log[0].tick, 0);
        // A new plan keeps counting ids where the old one stopped.
        context.set(&choices[..1]);
        let ReplicaAction::Inject(fault) = &context.evaluate(&view(64, &[0, 1]))[0].1 else {
            panic!("adversaries inject");
        };
        assert_eq!(fault.id.0, IdLane::Reactive.base() + 3);
    }
}
