//! Reactive chaos: state-observing events evaluated at epoch barriers.
//!
//! Every stimulus in [`crate::events`] is *scripted* — resolved into
//! per-replica actions before tick 0, blind to how the fleet actually
//! fares.  A [`ReactiveEvent`] instead runs **at the scheduler's epoch
//! barriers** with read access to a [`FleetView`] (per-replica open
//! episodes, recent MTTR, restart counts, cumulative ticks) and emits
//! [`ReplicaAction`]s for the *next* epoch.  Because the barrier is the one
//! point where the whole fleet's state is deterministic — every replica has
//! completed exactly the same tick — reactive runs stay fingerprint-
//! identical at any worker count, and at any slice width that divides
//! [`REACTIVE_PERIOD`] (the engine enforces this).
//!
//! Two engines ship with the crate, mirroring the declarative
//! [`ReactiveChoice`] recipes:
//!
//! * [`AdversarySource`] — weakest-replica targeting: every reactive
//!   barrier, inject a fault into the replica with the worst open-episode
//!   count (deterministic tie-break by lowest id).  The forcing function
//!   for the paper's claim: under an adversary that piles onto whoever is
//!   already failing, shared fix synopses must out-heal isolated learners.
//! * `CascadeEvent` — correlated failure propagation along a small
//!   service-dependency ring: a replica *entering* a failure episode seeds
//!   a fault in its dependent next epoch, bounded by an injection budget.
//!
//! # Implementing the trait
//!
//! ```
//! use selfheal_fleet::events::ReplicaAction;
//! use selfheal_fleet::reactive::{FleetView, ReactiveEvent, ReplicaView};
//! use selfheal_faults::{FaultId, FaultKind, FaultSpec, FaultTarget};
//!
//! /// Kicks every replica that is already down — a pile-on adversary.
//! #[derive(Debug, Clone)]
//! struct PileOn {
//!     until_tick: u64,
//! }
//!
//! impl ReactiveEvent for PileOn {
//!     fn label(&self) -> String {
//!         "pile_on".to_string()
//!     }
//!
//!     fn on_epoch(&mut self, view: &FleetView) -> Vec<(usize, ReplicaAction)> {
//!         if view.tick >= self.until_tick {
//!             return Vec::new();
//!         }
//!         view.replicas
//!             .iter()
//!             .filter(|r| r.open_episodes > 0)
//!             .map(|r| {
//!                 // The id is provisional; the engine re-stamps every
//!                 // reactive injection with a unique id.
//!                 (
//!                     r.replica,
//!                     ReplicaAction::Inject(FaultSpec::new(
//!                         FaultId(0),
//!                         FaultKind::BufferContention,
//!                         FaultTarget::DatabaseTier,
//!                         0.8,
//!                     )),
//!                 )
//!             })
//!             .collect()
//!     }
//!
//!     fn horizon(&self) -> u64 {
//!         self.until_tick.saturating_sub(1)
//!     }
//!
//!     fn clone_box(&self) -> Box<dyn ReactiveEvent> {
//!         Box::new(self.clone())
//!     }
//! }
//!
//! let mut event = PileOn { until_tick: 1000 };
//! let view = FleetView {
//!     tick: 64,
//!     replicas: vec![ReplicaView {
//!         replica: 0,
//!         ticks: 64,
//!         retired: false,
//!         open_episodes: 1,
//!         episodes: 1,
//!         recent_mean_recovery: None,
//!         fixes_initiated: 2,
//!         restarts: 0,
//!     }],
//! };
//! assert_eq!(event.on_epoch(&view).len(), 1);
//! ```

use crate::events::ReplicaAction;
use selfheal_core::harness::ReactiveChoice;
use selfheal_faults::id_space;
use selfheal_faults::injection::default_target;
use selfheal_faults::{FaultId, FaultKind, FaultSpec};

/// Ticks between reactive evaluations.  Engines observe the fleet only at
/// epoch barriers whose tick is a multiple of this period (plus one initial
/// evaluation at tick 0), so a slice-1 run and a slice-64 run see the exact
/// same sequence of views — the engine requires the configured slice to
/// divide this period whenever reactive events are present.
pub const REACTIVE_PERIOD: u64 = 64;

/// Id namespace for reactively-injected faults, disjoint from scripted
/// plans, mix/sweep/season/operator sources, surge requests, and storms —
/// see [`selfheal_faults::id_space`] for the lane manifest.
pub(crate) const REACTIVE_FAULT_ID_BASE: u64 = id_space::lane_base(id_space::REACTIVE_ID_BIT);

/// One replica's state as observable at an epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaView {
    /// Index of the replica within the fleet.
    pub replica: usize,
    /// Ticks the replica has simulated so far.
    pub ticks: u64,
    /// `true` when the replica panicked and was retired — its remaining
    /// fields are frozen at zero and events should not target it.
    pub retired: bool,
    /// Failure episodes currently open (a batch replica has at most one;
    /// the resident daemon may report more).
    pub open_episodes: usize,
    /// Total failure episodes so far, open or recovered.
    pub episodes: usize,
    /// Mean recovery ticks over the most recent recovered episodes (up to
    /// the last 5) — the replica's recent MTTR, `None` until something has
    /// recovered.
    pub recent_mean_recovery: Option<f64>,
    /// Fix attempts the replica's healer has initiated.
    pub fixes_initiated: u64,
    /// Times the replica was restarted (always 0 in batch runs; the
    /// resident daemon's supervisor reports real restart counts).
    pub restarts: u32,
}

impl ReplicaView {
    /// The view of a retired (panicked) replica slot.
    pub(crate) fn retired(replica: usize) -> Self {
        ReplicaView {
            replica,
            ticks: 0,
            retired: true,
            open_episodes: 0,
            episodes: 0,
            recent_mean_recovery: None,
            fixes_initiated: 0,
            restarts: 0,
        }
    }
}

/// The whole fleet's state at one epoch barrier: what a [`ReactiveEvent`]
/// gets to observe.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetView {
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

/// A state-observing chaos engine, evaluated at reactive epoch barriers.
///
/// Implementations must be deterministic: the emitted actions may depend
/// only on the event's own state and the sequence of [`FleetView`]s it has
/// observed — never on wall-clock time or thread scheduling.  The engine
/// calls [`on_epoch`](ReactiveEvent::on_epoch) at tick 0 and then at every
/// epoch barrier whose tick is a multiple of [`REACTIVE_PERIOD`]; emitted
/// actions are applied from the view's tick (the first tick of the next
/// window), and injected faults are re-stamped with unique ids in the
/// `REACTIVE_FAULT_ID_BASE` namespace.
pub trait ReactiveEvent: Send + std::fmt::Debug {
    /// Short display label for bench output and the reactive log.
    fn label(&self) -> String;

    /// Observes the fleet at a barrier and emits actions for the next
    /// window.  Replica indexes out of range are dropped by the engine.
    fn on_epoch(&mut self, view: &FleetView) -> Vec<(usize, ReplicaAction)>;

    /// The last tick at which this event can still emit work (`u64::MAX`
    /// for unbounded events) —
    /// [`FleetConfig::run_to_quiescence`](crate::FleetConfig::run_to_quiescence)
    /// runs past the horizon plus a healing tail, so keep it tight.
    fn horizon(&self) -> u64;

    /// Clones the event behind a box, preserving its current state.
    fn clone_box(&self) -> Box<dyn ReactiveEvent>;
}

impl Clone for Box<dyn ReactiveEvent> {
    fn clone(&self) -> Self {
        self.as_ref().clone_box()
    }
}

// ---------------------------------------------------------------------------
// AdversarySource
// ---------------------------------------------------------------------------

/// Weakest-replica targeting: at every reactive barrier inside its window,
/// injects one fault into the replica `FleetView::weakest_replica` names.
///
/// Against isolated learners this is the worst case the fleet can face —
/// the adversary keeps striking whichever replica is already struggling, so
/// a replica that has not yet learned the fix accumulates damage.  Against
/// a shared synopsis the first victim's fix transfers, and subsequent
/// strikes are healed on the first attempt wherever they land.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarySource {
    kind: FaultKind,
    severity: f64,
    start_tick: u64,
    until_tick: u64,
}

impl AdversarySource {
    /// Creates an adversary striking with `kind` at `severity` at every
    /// reactive barrier in `[start_tick, until_tick)`.
    pub fn new(kind: FaultKind, severity: f64, start_tick: u64, until_tick: u64) -> Self {
        AdversarySource {
            kind,
            severity: severity.clamp(0.0, 1.0),
            start_tick,
            until_tick,
        }
    }
}

impl ReactiveEvent for AdversarySource {
    fn label(&self) -> String {
        format!("adversary_{}", self.kind.label())
    }

    fn on_epoch(&mut self, view: &FleetView) -> Vec<(usize, ReplicaAction)> {
        if view.tick < self.start_tick || view.tick >= self.until_tick {
            return Vec::new();
        }
        let Some(target) = view.weakest_replica() else {
            return Vec::new();
        };
        vec![(
            target,
            ReplicaAction::Inject(FaultSpec::new(
                FaultId(REACTIVE_FAULT_ID_BASE),
                self.kind,
                default_target(self.kind, 0),
                self.severity,
            )),
        )]
    }

    fn horizon(&self) -> u64 {
        self.until_tick.saturating_sub(1)
    }

    fn clone_box(&self) -> Box<dyn ReactiveEvent> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// CascadeEvent
// ---------------------------------------------------------------------------

/// Correlated failure propagation along a service-dependency ring: when
/// replica `r` *enters* a failure episode (open now, closed at the previous
/// barrier), its dependent `(r + 1) % fleet` receives a correlated fault at
/// the next barrier — a downstream service buckling under its upstream's
/// failure.  A total-injection `budget` bounds the chain so a cascade
/// cannot feed itself around the ring forever.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CascadeEvent {
    kind: FaultKind,
    severity: f64,
    budget: usize,
    until_tick: u64,
    injected: usize,
    was_open: Vec<bool>,
}

impl CascadeEvent {
    /// Creates a cascade propagating `kind` at `severity`, injecting at
    /// most `budget` correlated faults before tick `until_tick`.
    pub(crate) fn new(kind: FaultKind, severity: f64, budget: usize, until_tick: u64) -> Self {
        CascadeEvent {
            kind,
            severity: severity.clamp(0.0, 1.0),
            budget,
            until_tick,
            injected: 0,
            was_open: Vec::new(),
        }
    }
}

impl ReactiveEvent for CascadeEvent {
    fn label(&self) -> String {
        format!("cascade_{}", self.kind.label())
    }

    fn on_epoch(&mut self, view: &FleetView) -> Vec<(usize, ReplicaAction)> {
        let n = view.replicas.len();
        if self.was_open.len() != n {
            self.was_open = vec![false; n];
        }
        let mut actions = Vec::new();
        for replica in &view.replicas {
            let open = replica.open_episodes > 0;
            let entered = open && !self.was_open[replica.replica];
            self.was_open[replica.replica] = open;
            if !entered
                || view.tick >= self.until_tick
                || self.injected >= self.budget
                || replica.retired
            {
                continue;
            }
            let dependent = (replica.replica + 1) % n;
            if view.replicas[dependent].retired {
                continue;
            }
            self.injected += 1;
            actions.push((
                dependent,
                ReplicaAction::Inject(FaultSpec::new(
                    FaultId(REACTIVE_FAULT_ID_BASE),
                    self.kind,
                    default_target(self.kind, 0),
                    self.severity,
                )),
            ));
        }
        actions
    }

    fn horizon(&self) -> u64 {
        self.until_tick.saturating_sub(1)
    }

    fn clone_box(&self) -> Box<dyn ReactiveEvent> {
        Box::new(self.clone())
    }
}

// ---------------------------------------------------------------------------
// ReactivePlan + the engine-facing context
// ---------------------------------------------------------------------------

/// The set of reactive engines wired into one fleet run.
///
/// Build one from declarative [`ReactiveChoice`]s
/// (`ReactivePlan::from_choices`, what `FleetConfig::reactive` does under
/// the hood) or push any custom [`ReactiveEvent`] implementation with
/// [`ReactivePlan::with`].
#[derive(Debug, Clone, Default)]
pub struct ReactivePlan {
    events: Vec<Box<dyn ReactiveEvent>>,
}

impl ReactivePlan {
    /// An empty plan (no reactive engines).
    pub fn new() -> Self {
        ReactivePlan::default()
    }

    /// Adds one engine (builder style).
    pub fn with(mut self, event: impl ReactiveEvent + 'static) -> Self {
        self.events.push(Box::new(event));
        self
    }

    /// Adds one declarative choice.
    pub(crate) fn push_choice(&mut self, choice: ReactiveChoice) {
        match choice {
            ReactiveChoice::Adversary {
                kind,
                severity,
                start_tick,
                until_tick,
            } => self.events.push(Box::new(AdversarySource::new(
                kind, severity, start_tick, until_tick,
            ))),
            ReactiveChoice::Cascade {
                kind,
                severity,
                budget,
                until_tick,
            } => self.events.push(Box::new(CascadeEvent::new(
                kind, severity, budget, until_tick,
            ))),
        }
    }

    /// Returns `true` when no engines are configured.
    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Engine labels, in configuration order.
    pub(crate) fn labels(&self) -> Vec<String> {
        self.events.iter().map(|e| e.label()).collect()
    }

    /// The latest finite engine horizon, `None` when every engine is
    /// unbounded (or the plan is empty).
    pub(crate) fn horizon(&self) -> Option<u64> {
        self.events
            .iter()
            .map(|e| e.horizon())
            .filter(|h| *h != u64::MAX)
            .max()
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

/// The live reactive state an epoch engine carries: the engines, the id
/// counter re-stamping their injections, and the emitted-action log.
#[derive(Debug)]
pub(crate) struct ReactiveContext {
    events: Vec<Box<dyn ReactiveEvent>>,
    next_fault_id: u64,
    log: Vec<ReactiveRecord>,
}

impl Default for ReactiveContext {
    fn default() -> Self {
        ReactiveContext {
            events: Vec::new(),
            next_fault_id: REACTIVE_FAULT_ID_BASE,
            log: Vec::new(),
        }
    }
}

impl ReactiveContext {
    /// Swaps the engines; the id counter and the log carry over, so faults
    /// injected by successive plans never share an id.
    pub(crate) fn set_plan(&mut self, plan: ReactivePlan) {
        self.events = plan.events;
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Runs every engine against `view`, re-stamps injected fault ids, logs
    /// the actions, and returns them for scheduling.  Engines run in
    /// configuration order and ids are assigned in emission order, so the
    /// result is a pure function of the view sequence.
    pub(crate) fn evaluate(&mut self, view: &FleetView) -> Vec<(usize, ReplicaAction)> {
        let mut resolved = Vec::new();
        for event in &mut self.events {
            let label = event.label();
            for (replica, mut action) in event.on_epoch(view) {
                if replica >= view.replicas.len() {
                    continue;
                }
                if let ReplicaAction::Inject(fault) = &mut action {
                    fault.id = FaultId(self.next_fault_id);
                    self.next_fault_id += 1;
                }
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

    impl ReactivePlan {
        /// Builds a plan from declarative choices.
        pub(crate) fn from_choices(choices: impl IntoIterator<Item = ReactiveChoice>) -> Self {
            let mut plan = ReactivePlan::new();
            for choice in choices {
                plan.push_choice(choice);
            }
            plan
        }

        /// Number of configured engines.
        pub(crate) fn len(&self) -> usize {
            self.events.len()
        }
    }

    fn view(tick: u64, open: &[usize]) -> FleetView {
        FleetView {
            tick,
            replicas: open
                .iter()
                .enumerate()
                .map(|(replica, open_episodes)| ReplicaView {
                    replica,
                    ticks: tick,
                    retired: false,
                    open_episodes: *open_episodes,
                    episodes: *open_episodes,
                    recent_mean_recovery: None,
                    fixes_initiated: 0,
                    restarts: 0,
                })
                .collect(),
        }
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
        let mut adversary = AdversarySource::new(FaultKind::BufferContention, 0.9, 64, 256);
        assert!(
            adversary.on_epoch(&view(0, &[0, 1])).is_empty(),
            "pre-start"
        );
        let actions = adversary.on_epoch(&view(64, &[0, 1]));
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].0, 1);
        let ReplicaAction::Inject(fault) = &actions[0].1 else {
            panic!("adversaries inject");
        };
        assert_eq!(fault.kind, FaultKind::BufferContention);
        assert!(
            adversary.on_epoch(&view(256, &[0, 1])).is_empty(),
            "post-end"
        );
        assert_eq!(adversary.horizon(), 255);
    }

    #[test]
    fn cascade_propagates_to_the_ring_dependent_within_budget() {
        let mut cascade = CascadeEvent::new(FaultKind::DeadlockedThreads, 0.8, 2, 1000);
        assert!(
            cascade.on_epoch(&view(0, &[0, 0, 0])).is_empty(),
            "calm fleet"
        );
        // Replica 1 enters an episode → dependent 2 is seeded.
        let actions = cascade.on_epoch(&view(64, &[0, 1, 0]));
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0].0, 2);
        // Still open at the next barrier: no re-trigger (edge, not level).
        assert!(cascade.on_epoch(&view(128, &[0, 1, 0])).is_empty());
        // Wraps around the ring, and the budget caps the chain.
        let actions = cascade.on_epoch(&view(192, &[0, 1, 1]));
        assert_eq!(actions, vec![(0, actions[0].1.clone())], "2 → dependent 0");
        assert!(
            cascade.on_epoch(&view(256, &[1, 0, 0])).is_empty(),
            "budget of 2 exhausted"
        );
    }

    #[test]
    fn context_restamps_ids_and_logs_every_action() {
        let plan = ReactivePlan::from_choices([
            ReactiveChoice::adversary(FaultKind::BufferContention, 0.9, 0, 1000),
            ReactiveChoice::cascade(FaultKind::DeadlockedThreads, 0.8, 4, 1000),
        ]);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.horizon(), Some(999));
        assert_eq!(
            plan.labels(),
            vec!["adversary_buffer_contention", "cascade_deadlocked_threads"]
        );
        let mut context = ReactiveContext::default();
        context.set_plan(plan);
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
                REACTIVE_FAULT_ID_BASE,
                REACTIVE_FAULT_ID_BASE + 1,
                REACTIVE_FAULT_ID_BASE + 2
            ]
        );
        let log = context.take_log();
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].event, "adversary_buffer_contention");
        assert_eq!(log[0].tick, 0);
    }
}
