//! # selfheal-fleet
//!
//! The fleet engine: N independently-seeded replicas of the simulated
//! multitier service, each driven by its own healing policy, optionally
//! coordinating through one fleet-shared fix-signature synopsis.
//!
//! The paper's FixSym loop (Figure 3) learns on a single service instance,
//! but its scaling argument (Table 3: synopses are cheap to build and query)
//! is that the *same synopsis* can serve many instances: once replica A has
//! healed a failure signature, replicas B..N facing that signature fix it on
//! the first attempt.  This crate turns that argument into an executable
//! subsystem:
//!
//! * [`FleetConfig`] — how many replicas, how long, which policy, which
//!   workload shape (a declarative
//!   [`selfheal_core::harness::WorkloadChoice`]: synthetic arrivals,
//!   recorded-trace replay with per-replica phase shifts, or burst storms),
//!   where learned state lives (a declarative
//!   [`selfheal_core::harness::LearnerChoice`]: a private
//!   per-replica store or one fleet-shared store —
//!   optionally warm-started from a saved
//!   [`selfheal_core::snapshot::SynopsisSnapshot`]), and how replicas
//!   execute ([`ExecutionMode::Parallel`] worker threads vs the
//!   [`ExecutionMode::Sequential`] round-robin interleaver).
//! * [`FleetEngine`] — builds one resumable
//!   [`selfheal_sim::ScenarioRunner`] per replica (each a
//!   [`selfheal_core::harness::ReplicaPlan`] built with
//!   [`selfheal_core::harness::ReplicaSeeds::split`]) and drives the whole fleet
//!   through the `scheduler`'s [`EpochEngine`] — the same engine the
//!   resident daemon's supervisor advances: worker threads go round the
//!   fleet taking turns of a few dozen ticks on a replica nobody else is
//!   stepping, and meet at a barrier only once per window (the whole run,
//!   or one reactive period), so every replica lives concurrently and
//!   cross-replica [`events`] (correlated fault storms, fleet-wide
//!   workload surges — declared via
//!   [`selfheal_core::harness::EventChoice`] on the config) land at exact
//!   ticks.  With **isolated** learning, replica `i`'s entire run is a pure
//!   function of `(base_seed, i)` — identical at any fleet size, thread
//!   count, and slice width (asserted by `tests/fleet.rs` and
//!   `tests/scheduler.rs`).  With **shared** learning, replicas wait for
//!   each other only at the store, where access is gated into the
//!   sequential round-robin order, so even parallel fleets reproduce
//!   [`ExecutionMode::Sequential`]'s fingerprints bit for bit.
//!   A replica that panics is retired as a [`ReplicaError`] instead of
//!   aborting the fleet.
//! * [`FleetOutcome`] / [`ReplicaOutcome`] — per-replica scenario outcomes
//!   plus fleet-level throughput, recovery, and shared-learning statistics.
//!
//! ## Example
//!
//! ```
//! use selfheal_fleet::FleetConfig;
//! use selfheal_core::harness::{LearnerChoice, PolicyChoice};
//! use selfheal_core::synopsis::SynopsisKind;
//! use selfheal_sim::ServiceConfig;
//!
//! let outcome = FleetConfig::builder()
//!     .service(ServiceConfig::tiny())
//!     .replicas(4)
//!     .ticks(120)
//!     .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
//!     .learner(LearnerChoice::locked())
//!     .run();
//! assert_eq!(outcome.replicas().len(), 4);
//! assert_eq!(outcome.total_ticks(), 4 * 120);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod reactive;
pub(crate) mod scheduler;

use crate::events::EventPlan;
use crate::reactive::{ReactiveRecord, REACTIVE_PERIOD};
pub use crate::scheduler::{EpochEngine, ReplicaError, ReplicaRunner};
use selfheal_core::harness::{
    EventChoice, FaultChoice, LearnerChoice, PolicyChoice, ReactiveChoice, ReplicaPlan,
    ReplicaSeeds, WorkloadChoice,
};
use selfheal_core::snapshot::SynopsisSnapshot;
use selfheal_core::store::SynopsisStore;
use selfheal_sim::scenario::ScenarioOutcome;
use selfheal_sim::ServiceConfig;
use selfheal_workload::{ArrivalProcess, WorkloadMix};
use std::path::PathBuf;
// lint:allow(nondeterminism): wall-time import feeds the wall_time report
// field only; simulation state never reads it.
use std::time::{Duration, Instant};

/// How the fleet's replicas are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Replicas advance through the tick-sliced `scheduler` on `threads`
    /// OS worker threads (`None` = one per available core): every replica
    /// lives concurrently, and the workers synchronise only where replicas
    /// can observe each other — shared-store access is gated into the
    /// sequential order, [`FleetConfig::slice`] ticks per turn, and reactive
    /// engines get a barrier every [`reactive::REACTIVE_PERIOD`] ticks.
    /// With private learners and no reactive engines that is
    /// run-to-completion parallelism.
    Parallel {
        /// Worker thread count; `None` uses the machine's parallelism.
        threads: Option<usize>,
    },
    /// One worker, the calling thread: replicas sharing a store are
    /// interleaved slice-by-slice (tick-by-tick at the default slice of 1),
    /// private learners run one after the other — the single-core baseline
    /// the scaling bench compares against, and the reference interleave the
    /// parallel scheduler reproduces for shared stores.
    Sequential,
}

/// Each replica's fault recipe, by replica index.
type FaultsByReplica = dyn Fn(usize) -> FaultChoice + Send + Sync;

/// Configuration (and builder) for one fleet run.
pub struct FleetConfig {
    replicas: usize,
    ticks: u64,
    base_seed: u64,
    service: ServiceConfig,
    workload: WorkloadChoice,
    policy: PolicyChoice,
    learner: LearnerChoice,
    warm_start: Option<SynopsisSnapshot>,
    mode: ExecutionMode,
    slice: u64,
    events: EventPlan,
    reactive: Vec<ReactiveChoice>,
    faults: Box<FaultsByReplica>,
    persist_synopsis: Option<PathBuf>,
}

/// Ticks [`FleetConfig::run_to_quiescence`] appends past the last stimulus
/// horizon: enough for a full-service restart (~300 ticks) plus retries and
/// detection lag, so every episode the stimuli can open has room to close.
pub const HEALING_TAIL: u64 = 600;

impl std::fmt::Debug for FleetConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetConfig")
            .field("replicas", &self.replicas)
            .field("ticks", &self.ticks)
            .field("base_seed", &self.base_seed)
            .field("workload", &self.workload.label())
            .field("policy", &self.policy.label())
            .field("learner", &self.learner.label())
            .field("faults", &(self.faults)(0).label())
            .field("warm_start", &self.warm_start.as_ref().map(|s| s.len()))
            .field("mode", &self.mode)
            .field("slice", &self.slice)
            .field("events", &self.events.labels())
            .field("reactive", &self.reactive)
            .finish_non_exhaustive()
    }
}

impl FleetConfig {
    /// Starts a builder: 4 replicas × 300 ticks of the RUBiS-like default
    /// service under the bidding mix, no injections, no healing, private
    /// (per-replica) learning, parallel execution.
    pub fn builder() -> Self {
        FleetConfig {
            replicas: 4,
            ticks: 300,
            base_seed: 42,
            service: ServiceConfig::rubis_default(),
            workload: WorkloadChoice::default(),
            policy: PolicyChoice::None,
            learner: LearnerChoice::Private,
            warm_start: None,
            mode: ExecutionMode::Parallel { threads: None },
            slice: 1,
            events: EventPlan::default(),
            reactive: Vec::new(),
            faults: Box::new(|_| FaultChoice::default()),
            persist_synopsis: None,
        }
    }

    /// Number of service replicas in the fleet.
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }

    /// Ticks each replica simulates.
    pub fn ticks(mut self, ticks: u64) -> Self {
        self.ticks = ticks;
        self
    }

    /// Base seed from which every replica's streams are split.
    pub fn base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Service configuration used by every replica (the per-replica RNG
    /// seed inside it is overridden by the fleet's stream splitting).
    pub fn service(mut self, config: ServiceConfig) -> Self {
        self.service = config;
        self
    }

    /// Workload shape every replica runs.  Each replica instantiates its
    /// own [`selfheal_workload::TraceSource`] from the choice, with a seed
    /// split from the fleet's base seed and (for replays) a per-replica
    /// phase shift.
    pub fn workload(mut self, workload: WorkloadChoice) -> Self {
        self.workload = workload;
        self
    }

    /// Synthetic-workload shorthand for [`FleetConfig::workload`].
    pub fn synthetic_workload(self, mix: WorkloadMix, arrivals: ArrivalProcess) -> Self {
        self.workload(WorkloadChoice::synthetic(mix, arrivals))
    }

    /// Healing policy driving each replica.
    pub fn policy(mut self, policy: PolicyChoice) -> Self {
        self.policy = policy;
        self
    }

    /// Where learned synopsis state lives: a private per-replica store or one
    /// fleet-shared store.
    pub fn learner(mut self, learner: LearnerChoice) -> Self {
        self.learner = learner;
        self
    }

    /// Warm-starts the fleet's learning from a saved snapshot: the store is
    /// restored from the snapshot's experience before the first tick (each
    /// replica gets its own restored copy under private learning), so
    /// previously healed failure signatures are fixed on the first attempt.
    pub fn warm_start(mut self, snapshot: SynopsisSnapshot) -> Self {
        self.warm_start = Some(snapshot);
        self
    }

    /// Parallel worker threads vs the sequential interleaver.
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// Width of the scheduler's tick slices, in ticks (minimum 1, the
    /// default): the granularity at which replicas take turns on a shared
    /// store — the store sees replica 0's first `slice` ticks, then replica
    /// 1's, and so on round the fleet.  It selects the interleave, not the
    /// speed: workers wait for each other only at store accesses, whatever
    /// the width.  Private-learner outcomes are slice-invariant, and the
    /// engine ignores the slice for them.
    pub fn slice(mut self, slice: u64) -> Self {
        self.slice = slice.max(1);
        self
    }

    /// Schedules one declarative cross-replica event (a
    /// [`EventChoice::FaultStorm`] or [`EventChoice::WorkloadSurge`]); may
    /// be called repeatedly.
    pub fn event(mut self, choice: EventChoice) -> Self {
        self.events.choices.push(choice);
        self
    }

    /// Schedules a batch of declarative cross-replica events.
    pub fn events(mut self, choices: impl IntoIterator<Item = EventChoice>) -> Self {
        self.events.choices.extend(choices);
        self
    }

    /// Wires in one declarative reactive chaos engine (a
    /// [`ReactiveChoice::Adversary`] or [`ReactiveChoice::Cascade`]); may
    /// be called repeatedly.  Reactive engines observe the fleet at window
    /// barriers every [`reactive::REACTIVE_PERIOD`] ticks and emit actions
    /// for the next window, so their runs stay fingerprint-identical at any
    /// worker count — the run panics unless the configured
    /// [`slice`](FleetConfig::slice) divides the reactive period.
    pub fn reactive(mut self, choice: ReactiveChoice) -> Self {
        self.reactive.push(choice);
        self
    }

    /// Streams the fleet-wide synopsis store's experience to a JSON-lines
    /// snapshot file *incrementally*: the file is created (with everything
    /// the warm-started store already knows) before the first tick, and
    /// every subsequent batch drain appends its outcomes — so a run killed
    /// mid-flight restores everything drained so far via
    /// [`selfheal_core::snapshot::SynopsisSnapshot::load`].  Requires a
    /// shared learner ([`LearnerChoice::is_shared`]) and a learning policy;
    /// ignored otherwise.
    ///
    /// # Panics
    /// The run panics if the file cannot be created.
    pub fn persist_synopsis(mut self, path: impl Into<PathBuf>) -> Self {
        self.persist_synopsis = Some(path.into());
        self
    }

    /// Does nothing: a replica keeps no metric history.
    #[deprecated(note = "a replica keeps no metric history; this does nothing")]
    #[doc(hidden)]
    pub fn series_capacity(self, _capacity: usize) -> Self {
        self
    }

    /// The declarative fault schedule every replica runs.  Each replica
    /// instantiates its own [`selfheal_faults::FaultSource`] from the
    /// choice, with a seed split from the fleet's base seed
    /// ([`ReplicaSeeds::split`]), so stochastic mix streams decorrelate
    /// across replicas while staying pure functions of
    /// `(base_seed, replica)`.
    pub fn faults(self, faults: FaultChoice) -> Self {
        self.faults_per_replica(move |_| faults.clone())
    }

    /// A fault recipe per replica index (e.g. stagger the same scripted
    /// fault so replica 0 sees it long before replica 1 — the
    /// shared-learning experiments), seeded as in
    /// [`faults`](Self::faults).
    pub fn faults_per_replica(
        mut self,
        faults: impl Fn(usize) -> FaultChoice + Send + Sync + 'static,
    ) -> Self {
        self.faults = Box::new(faults);
        self
    }

    /// Replica `replica`'s plan: the fleet's service, workload and policy,
    /// with the replica's own fault recipe.
    fn plan(&self, replica: usize) -> ReplicaPlan {
        ReplicaPlan {
            service: self.service.clone(),
            workload: self.workload.clone(),
            faults: (self.faults)(replica),
            policy: self.policy,
        }
    }

    /// Builds the engine.
    pub fn build(self) -> FleetEngine {
        FleetEngine { config: self }
    }

    /// Convenience: build and run.
    pub fn run(self) -> FleetOutcome {
        self.build().run()
    }

    /// The last tick at which any configured stimulus — per-replica fault
    /// sources, scheduled cross-replica events, or reactive engines — can
    /// still introduce work, `None` when every stimulus is unbounded (or
    /// absent).  Unbounded sources (horizon `u64::MAX`) are ignored: they
    /// admit no quiesce point.
    pub fn stimulus_horizon(&self) -> Option<u64> {
        let mut horizon: Option<u64> = None;
        let mut observe = |h: u64| {
            if h != u64::MAX {
                horizon = Some(horizon.unwrap_or(0).max(h));
            }
        };
        for replica in 0..self.replicas {
            let seed = ReplicaSeeds::split(self.base_seed, replica).faults;
            observe(
                (self.faults)(replica)
                    .source_for_replica(seed, replica as u64)
                    .horizon(),
            );
        }
        for h in [self.events.horizon(), reactive::horizon(&self.reactive)]
            .into_iter()
            .flatten()
        {
            observe(h);
        }
        horizon
    }

    /// Horizon-aware auto-quiesce: runs until one [`HEALING_TAIL`] past the
    /// [`stimulus_horizon`](FleetConfig::stimulus_horizon), replacing
    /// hand-tuned tick counts — the run is exactly long enough for every
    /// episode the stimuli can open to close, however the stimuli are
    /// composed.  Falls back to the configured
    /// [`ticks`](FleetConfig::ticks) when every stimulus is unbounded,
    /// since no finite run can outlast them.
    pub fn run_to_quiescence(self) -> FleetOutcome {
        match self.stimulus_horizon() {
            Some(horizon) => self.ticks(horizon + 1 + HEALING_TAIL).run(),
            None => self.run(),
        }
    }
}

/// One replica's result.
#[derive(Debug, Clone)]
pub struct ReplicaOutcome {
    /// Index of the replica within the fleet (`0..replicas`).
    pub replica: usize,
    /// The replica's full scenario outcome.
    pub outcome: ScenarioOutcome,
}

/// Aggregated result of a fleet run.
pub struct FleetOutcome {
    replicas: Vec<ReplicaOutcome>,
    errors: Vec<ReplicaError>,
    wall: Duration,
    mode: ExecutionMode,
    store: Option<Box<dyn SynopsisStore>>,
    reactive_log: Vec<ReactiveRecord>,
}

impl std::fmt::Debug for FleetOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetOutcome")
            .field("replicas", &self.replicas)
            .field("errors", &self.errors)
            .field("wall", &self.wall)
            .field("mode", &self.mode)
            .field("store", &self.store.as_ref().map(|s| s.kind().label()))
            .field("reactive_log", &self.reactive_log.len())
            .finish()
    }
}

impl FleetOutcome {
    /// Per-replica outcomes, ordered by replica index.  Every replica
    /// appears here unless it panicked mid-run, in which case its
    /// [`ReplicaError`] is in [`FleetOutcome::errors`] instead.
    pub fn replicas(&self) -> &[ReplicaOutcome] {
        &self.replicas
    }

    /// Replicas that panicked mid-run, ordered by replica index.  The
    /// survivors' outcomes are unaffected (aggregate statistics cover the
    /// survivors only).
    pub fn errors(&self) -> &[ReplicaError] {
        &self.errors
    }

    /// Returns `true` when every replica completed its run.
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }

    /// Wall-clock duration of the whole fleet run.
    pub fn wall(&self) -> Duration {
        self.wall
    }

    /// The fleet-wide synopsis store (flushed), when the fleet ran a
    /// learning policy against the shared [`LearnerChoice::Locked`] — e.g. to
    /// [`snapshot`](selfheal_core::store::SynopsisStore::snapshot) it for a
    /// later warm start.
    pub fn store(&self) -> Option<&dyn SynopsisStore> {
        self.store.as_deref()
    }

    /// Total simulated ticks across all replicas.
    pub fn total_ticks(&self) -> u64 {
        self.replicas.iter().map(|r| r.outcome.ticks).sum()
    }

    /// Simulated ticks per wall-clock second — the scaling bench's
    /// throughput metric.
    pub fn throughput_ticks_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            f64::INFINITY
        } else {
            self.total_ticks() as f64 / secs
        }
    }

    /// Fleet-wide goodput: completed / arrived over all replicas.
    pub fn goodput_fraction(&self) -> f64 {
        let arrived: u64 = self.replicas.iter().map(|r| r.outcome.arrived).sum();
        let completed: u64 = self.replicas.iter().map(|r| r.outcome.completed).sum();
        if arrived == 0 {
            1.0
        } else {
            completed as f64 / arrived as f64
        }
    }

    /// Mean of the replicas' SLO-violation fractions.
    pub fn mean_violation_fraction(&self) -> f64 {
        if self.replicas.is_empty() {
            return 0.0;
        }
        self.replicas
            .iter()
            .map(|r| r.outcome.violation_fraction)
            .sum::<f64>()
            / self.replicas.len() as f64
    }

    /// Mean recovery time (ticks) over every recovered episode in the
    /// fleet, `None` when nothing recovered.
    pub fn mean_recovery_ticks(&self) -> Option<f64> {
        let logs = self.replicas.iter().map(|r| r.outcome.recovery.recovered());
        let (recovered, ticks) = logs.fold((0, 0), |(n, sum), (m, ticks)| (n + m, sum + ticks));
        (recovered > 0).then(|| ticks as f64 / recovered as f64)
    }

    /// Total fix attempts across the fleet.
    pub fn total_fixes_initiated(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.outcome.fixes_initiated)
            .sum()
    }

    /// Total failure episodes across the fleet.
    pub fn total_episodes(&self) -> usize {
        self.replicas.iter().map(|r| r.outcome.recovery.len()).sum()
    }

    /// Every action the reactive engines emitted, in emission order — the
    /// audit trail that lets benches attribute failure episodes to
    /// adversarial injections (empty when no engines were configured).
    pub fn reactive_log(&self) -> &[ReactiveRecord] {
        &self.reactive_log
    }

    /// Per-replica outcome fingerprints (ordered by replica index) — the
    /// determinism tests compare these across runs and fleet sizes.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .map(|r| r.outcome.fingerprint())
            .collect()
    }
}

/// Runs a fleet described by a [`FleetConfig`].
#[derive(Debug)]
pub struct FleetEngine {
    config: FleetConfig,
}

impl FleetEngine {
    /// Builds the runner for replica index `replica` — the fleet's
    /// [`ReplicaPlan`] for it, seeded with [`ReplicaSeeds::split`] of
    /// `(base_seed, replica)` — what `run` inserts into its
    /// [`EpochEngine`].  The replica's simulated streams are a pure function
    /// of `(base_seed, replica)`.
    ///
    /// When `store` is given and the policy learns, the healer is built
    /// against a [`clone_store`](SynopsisStore::clone_store) handle of it
    /// (pass an [`EpochEngine::gated_store`] handle to keep multi-worker
    /// runs reproducible); a learning policy with no `store` gets a private
    /// warm-started store, and non-learning policies ignore `store`.
    pub fn replica_runner(
        &self,
        replica: usize,
        store: Option<&dyn SynopsisStore>,
    ) -> ReplicaRunner {
        let config = &self.config;
        let store = config.policy.synopsis_kind().map(|kind| match store {
            Some(shared) => shared.clone_store(),
            None => LearnerChoice::Private.build_store_warm(kind, config.warm_start.as_ref()),
        });
        config.plan(replica).runner(
            replica,
            ReplicaSeeds::split(config.base_seed, replica),
            store,
        )
    }

    /// Builds the fleet-wide synopsis store this configuration calls for —
    /// `Some` when the learner is shared ([`LearnerChoice::is_shared`]) and
    /// the policy learns, warm-started from the config's snapshot and
    /// switched to incremental persistence when
    /// [`FleetConfig::persist_synopsis`] was set.  `run` calls
    /// this internally.
    ///
    /// # Panics
    /// Panics when the persistence file cannot be created (same contract as
    /// [`FleetConfig::persist_synopsis`]).
    pub fn build_shared_store(&self) -> Option<Box<dyn SynopsisStore>> {
        let config = &self.config;
        let mut store = config
            .policy
            .synopsis_kind()
            .filter(|_| config.learner.is_shared())
            .map(|kind| {
                config
                    .learner
                    .build_store_warm(kind, config.warm_start.as_ref())
            });
        if let (Some(path), Some(store)) = (&config.persist_synopsis, store.as_mut()) {
            store
                .persist_to(path)
                .unwrap_or_else(|err| panic!("cannot persist synopsis to {path:?}: {err}"));
        }
        store
    }

    /// Runs the fleet through the [`EpochEngine`] — insert the replicas,
    /// advance to the tick horizon (in one window, or one per reactive
    /// barrier), collect outcomes — and aggregates the results.  Replicas
    /// that panic mid-run surface as [`FleetOutcome::errors`]; the
    /// survivors complete normally.
    ///
    /// # Panics
    /// Panics when reactive engines are configured and the
    /// [`slice`](FleetConfig::slice) does not divide
    /// [`reactive::REACTIVE_PERIOD`].
    pub(crate) fn run(self) -> FleetOutcome {
        let config = &self.config;
        let store = self.build_shared_store();
        let schedule = config.events.resolve(config.replicas, config.base_seed);
        let workers = match config.mode {
            ExecutionMode::Sequential => Some(1),
            ExecutionMode::Parallel { threads } => threads,
        };
        let mut epochs = EpochEngine::new(workers).with_schedule(schedule);
        // The slice is the shared store's interleave granularity; private
        // learners share nothing, so their windows stay uncut and every
        // replica runs each one through on a single core.
        if store.is_some() {
            epochs = epochs.with_slice(config.slice);
        }
        epochs
            .set_reactive(&config.reactive, config.slice)
            .unwrap_or_else(|message| panic!("{message}"));
        for replica in 0..config.replicas {
            // Store handles are gated only when parallel workers could race
            // on a shared store; a single sweeper already produces the
            // reference order.
            let gated = store
                .as_deref()
                .filter(|_| workers != Some(1))
                .map(|store| epochs.gated_store(store, replica));
            let runner = self.replica_runner(replica, gated.as_deref().or(store.as_deref()));
            epochs.insert(replica, runner);
        }

        // lint:allow(nondeterminism): wall-clock duration is reported, not
        // simulated; fingerprints are computed from tick state alone.
        let start = Instant::now();
        // One window to the horizon — unless reactive engines are set: they
        // read the fleet at every reactive barrier, which only exists
        // between windows.
        let window = if config.reactive.is_empty() {
            u64::MAX
        } else {
            REACTIVE_PERIOD
        };
        let mut errors = Vec::new();
        while epochs.tick() < config.ticks {
            let results = epochs.advance(window.min(config.ticks - epochs.tick()));
            errors.extend(results.into_iter().filter_map(|(_, result)| result.err()));
        }
        // The final drain is part of the run: flush *inside* the timed
        // region so throughput numbers include it.
        if let Some(store) = &store {
            store.flush();
        }
        let wall = start.elapsed();

        errors.sort_by_key(|error| error.replica);
        let replicas = (0..config.replicas)
            .filter_map(|replica| {
                let outcome = epochs.with_runner(replica, |runner| runner.outcome())?;
                Some(ReplicaOutcome { replica, outcome })
            })
            .collect();
        FleetOutcome {
            replicas,
            errors,
            wall,
            mode: self.config.mode,
            store,
            reactive_log: epochs.take_reactive_log(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_core::synopsis::SynopsisKind;
    use selfheal_faults::{FaultKind, FaultTarget, InjectionPlanBuilder};

    /// Buffer contention on the database tier at `tick`, on every replica.
    fn contention_at(tick: u64) -> FaultChoice {
        FaultChoice::Scripted(
            InjectionPlanBuilder::new()
                .inject(
                    tick,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .build(),
        )
    }

    fn tiny_fleet() -> FleetConfig {
        FleetConfig::builder()
            .service(ServiceConfig::tiny())
            .synthetic_workload(
                WorkloadMix::bidding(),
                ArrivalProcess::Constant { rate: 40.0 },
            )
            .replicas(3)
            .ticks(80)
    }

    #[test]
    fn healthy_fleet_runs_all_replicas() {
        let outcome = tiny_fleet().run();
        assert_eq!(outcome.replicas().len(), 3);
        assert_eq!(outcome.total_ticks(), 240);
        assert!(outcome.goodput_fraction() > 0.99);
        assert_eq!(outcome.total_episodes(), 0);
        assert!(outcome.store().is_none());
        assert!(outcome.throughput_ticks_per_sec() > 0.0);
    }

    #[test]
    fn sequential_and_parallel_agree_when_isolated() {
        let plan = contention_at(20);
        let sequential = tiny_fleet()
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .faults(plan.clone())
            .mode(ExecutionMode::Sequential)
            .run();
        let parallel = tiny_fleet()
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .faults(plan.clone())
            .mode(ExecutionMode::Parallel { threads: Some(2) })
            .run();
        assert_eq!(sequential.fingerprints(), parallel.fingerprints());
    }

    #[test]
    fn shared_topology_exposes_the_flushed_synopsis() {
        let plan = contention_at(20);
        let outcome = tiny_fleet()
            .ticks(250)
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .learner(LearnerChoice::locked())
            .faults(plan.clone())
            .run();
        let store = outcome.store().expect("shared store present");
        assert_eq!(store.kind(), SynopsisKind::NearestNeighbor);
        assert_eq!(store.pending_updates(), 0, "flushed after the run");
        assert!(
            store.correct_fixes_learned() >= 1,
            "the fleet learned something"
        );
        assert!(outcome.total_fixes_initiated() >= 3);
    }

    #[test]
    fn non_learning_policies_ignore_the_shared_topology() {
        let outcome = tiny_fleet().learner(LearnerChoice::locked()).run();
        assert!(outcome.store().is_none());
    }

    #[test]
    fn warm_started_private_replicas_skip_the_trial_and_error() {
        let plan = contention_at(40);
        let fleet = || {
            tiny_fleet()
                .ticks(300)
                .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
                .learner(LearnerChoice::locked())
                .faults(plan.clone())
        };
        let cold = fleet().run();
        let snapshot = cold.store().expect("learning store").snapshot();
        assert!(snapshot.positives() >= 1, "cold fleet learned something");

        // Warm start an isolated fleet from the shared fleet's experience:
        // every replica restores its own copy before the first tick.
        let warm = fleet()
            .learner(LearnerChoice::Private)
            .warm_start(snapshot)
            .run();
        let mean_attempts = |outcome: &FleetOutcome| {
            let attempts: Vec<f64> = outcome
                .replicas()
                .iter()
                .filter_map(|r| {
                    r.outcome
                        .recovery
                        .episodes()
                        .iter()
                        .find(|e| e.primary_fault() == Some(FaultKind::BufferContention))
                        .map(|e| e.fixes_attempted.len() as f64)
                })
                .collect();
            attempts.iter().sum::<f64>() / attempts.len().max(1) as f64
        };
        assert!(
            mean_attempts(&warm) <= mean_attempts(&cold),
            "warm {} vs cold {}",
            mean_attempts(&warm),
            mean_attempts(&cold)
        );
    }
}
