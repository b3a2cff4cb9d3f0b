//! The fleet experiments: tabulated by [`learning_table`] and
//! [`scaling_table`], which the `fleet_scaling` binary writes to
//! `results/`; asserted by this module's tests, `tests/reactive.rs` and
//! `tests/scheduler.rs`; shown by `examples/reactive_chaos.rs`.
//!
//! Everything here is one recipe extended per scenario and one fold:
//!
//! * a private `base_fleet` — tiny service, constant bidding load, FixSym
//!   healing — which every scenario (`scaling_point`, [`cold_start`],
//!   `warm_start_comparison`, [`storm`], [`adversary`], [`seasons`],
//!   [`cascade`], [`mix`]) extends with only what is particular to it;
//! * [`EpisodeStats`] — strikes / matched / open / mean attempts / mean
//!   recovery folded over "the episodes that count"; the selectors
//!   (`injected_stats`, [`reactive_strike_stats`], `all_episodes`,
//!   `fault_episodes`) differ only in which episodes they hand the fold;
//! * [`Experiment`] — a fleet recipe, the learner that shares it, how long
//!   it runs (ticks | quiescence) and its selector — with the
//!   shared-vs-isolated [`Comparison`] and the sequential ≡ parallel
//!   equivalence leg each written once.

use selfheal_core::harness::{
    EventChoice, FaultChoice, LearnerChoice, PolicyChoice, ReactiveChoice,
};
use selfheal_core::snapshot::SynopsisSnapshot;
use selfheal_core::synopsis::{Learner, SynopsisKind};
use selfheal_faults::{FaultKind, FaultTarget, InjectionPlanBuilder, ServiceProfile, StormSpec};
use selfheal_fleet::events::ReplicaAction;
use selfheal_fleet::reactive::REACTIVE_PERIOD;
use selfheal_fleet::{ExecutionMode, FleetConfig, FleetOutcome};
use selfheal_sim::recovery::FailureEpisode;
use selfheal_sim::ServiceConfig;
use selfheal_telemetry::export::ResultTable;
use selfheal_workload::{ArrivalProcess, WorkloadMix};

/// The failure class every scripted, storm, adversarial and cascade
/// injection of these experiments uses.
const KIND: FaultKind = FaultKind::BufferContention;

/// The fleet every experiment extends: the tiny service under a constant
/// bidding load, healed by FixSym over a nearest-neighbour synopsis.
fn base_fleet(replicas: usize, seed: u64) -> FleetConfig {
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .base_seed(seed)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
}

/// One scripted [`KIND`] injection on the database tier at `tick`.
fn inject_at(tick: u64) -> FaultChoice {
    FaultChoice::Scripted(
        InjectionPlanBuilder::new()
            .inject(tick, KIND, FaultTarget::DatabaseTier, 0.9)
            .build(),
    )
}

/// Injects at `tick` on replica `scout` alone — the replica that meets the
/// signature first and, with a shared store, publishes the proven fix.
fn with_scout(config: FleetConfig, scout: usize, tick: u64) -> FleetConfig {
    config.faults_per_replica(move |replica| {
        if replica == scout {
            inject_at(tick)
        } else {
            FaultChoice::default()
        }
    })
}

/// One point of the replicas-vs-throughput curve.
#[derive(Debug, Clone, Copy)]
struct ScalingPoint {
    /// Wall-clock seconds for the parallel (worker-thread) engine.
    parallel_wall_s: f64,
    /// Wall-clock seconds for the sequential tick-interleaver.
    sequential_wall_s: f64,
    /// Simulated ticks per second achieved by the parallel engine.
    parallel_throughput: f64,
}

impl ScalingPoint {
    /// Sequential wall-clock over parallel wall-clock.
    fn speedup(&self) -> f64 {
        if self.parallel_wall_s <= 0.0 {
            f64::INFINITY
        } else {
            self.sequential_wall_s / self.parallel_wall_s
        }
    }
}

/// Measures one fleet size in both execution modes: a mid-run fault per
/// replica healed against one fleet-shared synopsis — the whole subsystem
/// under test, not an idle loop.
fn scaling_point(replicas: usize, ticks: u64, seed: u64) -> ScalingPoint {
    let run = |mode| {
        base_fleet(replicas, seed)
            .ticks(ticks)
            .learner(LearnerChoice::locked())
            .faults(inject_at(ticks / 10))
            .mode(mode)
            .run()
    };
    let parallel = run(ExecutionMode::Parallel { threads: None });
    let sequential = run(ExecutionMode::Sequential);
    ScalingPoint {
        parallel_wall_s: parallel.wall().as_secs_f64(),
        sequential_wall_s: sequential.wall().as_secs_f64(),
        parallel_throughput: parallel.throughput_ticks_per_sec(),
    }
}

/// What a set of failure episodes cost to heal.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EpisodeStats {
    /// Candidates examined: storm victims, reactive strikes, replicas
    /// expected to fault, or — for whole-fleet selectors — every episode.
    pub strikes: usize,
    /// Candidates attributed to a labelled episode.  (A reactive strike
    /// that lands mid-episode merges into it and stays unmatched.)
    pub matched: usize,
    /// Matched episodes still open when the fleet quiesced (0 = healed).
    pub open: usize,
    /// Mean fix attempts over the matched episodes.
    pub mean_attempts: f64,
    /// Mean recovery ticks over the matched episodes that closed.
    pub mean_recovery: f64,
}

impl EpisodeStats {
    /// The one fold: each candidate is `Some(episode)` when it is
    /// attributable, `None` when it left no episode behind.
    pub fn fold<'a>(candidates: impl IntoIterator<Item = Option<&'a FailureEpisode>>) -> Self {
        let mut stats = EpisodeStats::default();
        let (mut attempts, mut recovery) = (0usize, 0u64);
        for candidate in candidates {
            stats.strikes += 1;
            let Some(episode) = candidate else { continue };
            stats.matched += 1;
            attempts += episode.fixes_attempted.len();
            match episode.recovery_ticks() {
                Some(ticks) => recovery += ticks,
                None => stats.open += 1,
            }
        }
        let mean = |sum: f64, count: usize| if count == 0 { 0.0 } else { sum / count as f64 };
        stats.mean_attempts = mean(attempts as f64, stats.matched);
        stats.mean_recovery = mean(recovery as f64, stats.matched - stats.open);
        stats
    }

    /// Something struck, at least one strike was attributable, and every
    /// attributed episode healed before quiesce.
    pub fn recovered(&self) -> bool {
        self.strikes > 0 && self.matched > 0 && self.open == 0
    }
}

fn episodes(outcome: &FleetOutcome) -> impl Iterator<Item = &FailureEpisode> {
    outcome
        .replicas()
        .iter()
        .flat_map(|r| r.outcome.recovery.episodes())
}

/// The first `kind` episode inside `window` (detection ticks) on `replica`.
fn episode_on(
    outcome: &FleetOutcome,
    replica: usize,
    kind: FaultKind,
    window: std::ops::Range<u64>,
) -> Option<&FailureEpisode> {
    let replica = outcome.replicas().iter().find(|r| r.replica == replica)?;
    (replica.outcome.recovery.episodes().iter())
        .find(|e| window.contains(&e.detected_at) && e.primary_fault() == Some(kind))
}

/// The injected (ground-truth-labelled) episode of each of `replicas`: warm
/// replicas of a staggered fleet, every replica of a warm-start run, the
/// victims of a storm.
fn injected_stats(
    outcome: &FleetOutcome,
    replicas: impl IntoIterator<Item = usize>,
) -> EpisodeStats {
    EpisodeStats::fold(
        replicas
            .into_iter()
            .map(|replica| episode_on(outcome, replica, KIND, 0..u64::MAX)),
    )
}

/// The episodes attributable to the reactive injections in `outcome`'s
/// strike log: a strike on a healthy replica opens a fresh episode inside
/// its epoch window with the injected class as primary; a strike that lands
/// while its victim is already mid-episode merges into that episode (the
/// pile-on case) and counts as a strike but is not matched.
pub fn reactive_strike_stats(outcome: &FleetOutcome) -> EpisodeStats {
    EpisodeStats::fold(outcome.reactive_log().iter().filter_map(|record| {
        let ReplicaAction::Inject(spec) = &record.action else {
            return None;
        };
        let window = record.tick..record.tick + REACTIVE_PERIOD;
        Some(episode_on(outcome, record.replica, spec.kind, window))
    }))
}

/// Every episode of the fleet counts — the "did the run quiesce healed"
/// selector of the mix run.
fn all_episodes(outcome: &FleetOutcome) -> EpisodeStats {
    EpisodeStats::fold(episodes(outcome).map(Some))
}

/// Every episode counts, but an open one only when it is attributable to an
/// actual fault.  Long runs grow a tail of spontaneous SLO-flap episodes
/// with no fault behind them — a flap that opens a tick or two before
/// quiesce is noise, not an unhealed fault, so the horizon-sensitive
/// seasons test leaves it unmatched.
fn fault_episodes(outcome: &FleetOutcome) -> EpisodeStats {
    EpisodeStats::fold(
        episodes(outcome)
            .map(|e| (e.recovery_ticks().is_some() || e.primary_fault().is_some()).then_some(e)),
    )
}

/// Escalated episodes across the whole fleet.
fn escalations(outcome: &FleetOutcome) -> usize {
    let logs = outcome.replicas().iter().map(|r| &r.outcome.recovery);
    logs.map(|log| log.escalations()).sum()
}

/// The same fleet measured with fleet-wide knowledge and without it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Replicas learn through one shared store.
    pub shared: EpisodeStats,
    /// Every replica learns alone.
    pub isolated: EpisodeStats,
}

impl Comparison {
    /// Both runs were struck, attributably, and healed everything they
    /// attributed before quiesce.
    pub fn recovered(&self) -> bool {
        self.shared.recovered() && self.isolated.recovered()
    }

    /// The acceptance predicate: shared learning recovers strictly faster
    /// (fewer mean recovery ticks) and in no more attempts than isolated.
    pub fn shared_recovers_faster(&self) -> bool {
        self.shared.mean_recovery < self.isolated.mean_recovery
            && self.shared.mean_attempts <= self.isolated.mean_attempts
    }
}

/// One fleet experiment: how to build the fleet for a learner, which learner
/// shares it, how long it runs, and which episodes count.
pub struct Experiment {
    fleet: Box<dyn Fn(LearnerChoice) -> FleetConfig>,
    /// The learner of the shared (or only) run.
    pub shared: LearnerChoice,
    /// Run one healing tail past the stimulus horizon
    /// ([`FleetConfig::run_to_quiescence`]) instead of the recipe's ticks.
    quiesce: bool,
    stats: Box<dyn Fn(&FleetOutcome) -> EpisodeStats>,
}

impl Experiment {
    fn new(
        shared: LearnerChoice,
        quiesce: bool,
        fleet: impl Fn(LearnerChoice) -> FleetConfig + 'static,
        stats: impl Fn(&FleetOutcome) -> EpisodeStats + 'static,
    ) -> Self {
        Experiment {
            fleet: Box::new(fleet),
            shared,
            quiesce,
            stats: Box::new(stats),
        }
    }

    /// The experiment's fleet, learning through `learner` — for callers that
    /// reshape it (other tick counts, slices, worker counts) before running.
    pub fn fleet(&self, learner: LearnerChoice) -> FleetConfig {
        (self.fleet)(learner)
    }

    fn run(&self, learner: LearnerChoice, mode: ExecutionMode) -> FleetOutcome {
        let config = self.fleet(learner).mode(mode);
        if self.quiesce {
            config.run_to_quiescence()
        } else {
            config.run()
        }
    }

    /// Runs the fleet with `learner` and folds the episodes that count.
    /// Tick-interleaved on the calling thread — the reference interleave —
    /// so staggered "replica r faults after r-1 healed" recipes hold by
    /// construction and a comparison differs only through what is learned.
    pub fn measure(&self, learner: LearnerChoice) -> (FleetOutcome, EpisodeStats) {
        let outcome = self.run(learner, ExecutionMode::Sequential);
        let stats = (self.stats)(&outcome);
        (outcome, stats)
    }

    /// Runs the fleet once against the shared store and once with isolated
    /// per-replica stores.
    pub fn compare(&self) -> Comparison {
        Comparison {
            shared: self.measure(self.shared).1,
            isolated: self.measure(LearnerChoice::Private).1,
        }
    }

    /// The scheduler's equivalence contract: the tick-sliced parallel run of
    /// the shared fleet must fingerprint-match `sequential`, the outcome
    /// [`measure`](Experiment::measure) returned for [`Experiment::shared`].
    pub fn parallel_matches(&self, sequential: &FleetOutcome) -> bool {
        // Pin a multi-worker count: with `threads: None` a 1-core runner
        // would clamp to one worker and compare two identical
        // single-threaded sweeps, proving nothing about the store gate.
        let parallel = ExecutionMode::Parallel { threads: Some(3) };
        self.run(self.shared, parallel).fingerprints() == sequential.fingerprints()
    }
}

/// Stagger interval between successive replicas' injections, in ticks —
/// long enough for the predecessor to heal and for the shared batch to
/// drain before the next replica's fault lands.
const STAGGER_TICKS: u64 = 500;

/// Shared-vs-isolated cold start: the same fault hits every replica in
/// turn, `STAGGER_TICKS` (500) apart.  The stats cover the *warm* replicas
/// 1..N, whose fault arrives only after each predecessor has healed the
/// same signature — with a shared synopsis they should need fewer fix
/// attempts and recover at least as fast as with isolated synopses.
pub fn cold_start(replicas: usize, seed: u64) -> Experiment {
    Experiment::new(
        LearnerChoice::locked(),
        false,
        move |learner| {
            base_fleet(replicas, seed)
                .ticks(100 + STAGGER_TICKS * replicas as u64 + 400)
                .learner(learner)
                .faults_per_replica(|replica| inject_at(100 + STAGGER_TICKS * replica as u64))
        },
        move |outcome| injected_stats(outcome, 1..replicas),
    )
}

/// Warm-vs-cold recovery comparison: the same fleet run twice at the same
/// seed, once from an empty synopsis store and once warm-started from the
/// cold run's saved snapshot.
///
/// Every replica of the warm fleet should fix the injected fault in fewer
/// attempts — the fleet remembers across process boundaries what the cold
/// fleet had to discover by trial and error.
#[derive(Debug, Clone, Copy)]
struct WarmStartReport {
    /// Outcomes recorded in the snapshot the warm fleet loaded.
    saved_examples: usize,
    /// Successful fixes known to a freshly restored store *before* its
    /// first tick.
    preloaded_fixes: usize,
    /// The injected episode of every replica, cold fleet.
    cold: EpisodeStats,
    /// The injected episode of every replica, warm fleet.
    warm: EpisodeStats,
    /// Escalated episodes across the cold fleet and across the warm one.
    escalations: [usize; 2],
}

/// Successful fixes a store of `learner`'s kind knows right after restoring
/// `snapshot`, before its first tick — the whole point of persistence.
fn preloaded_fixes(learner: LearnerChoice, snapshot: &SynopsisSnapshot) -> usize {
    let mut probe = learner.build_store(SynopsisKind::NearestNeighbor);
    probe.restore(snapshot);
    probe.correct_fixes_learned()
}

/// Runs the warm-vs-cold experiment with the given (shared) learner recipe:
/// cold run → snapshot the store → warm run from the snapshot.
///
/// # Panics
/// Panics when `learner` is [`LearnerChoice::Private`] (a per-replica store
/// leaves nothing fleet-wide to snapshot).
fn warm_start_comparison(replicas: usize, seed: u64, learner: LearnerChoice) -> WarmStartReport {
    let fleet = || {
        base_fleet(replicas, seed)
            .learner(learner)
            // Deterministic execution so warm vs cold differ only through
            // the loaded experience.
            .mode(ExecutionMode::Sequential)
            .faults(inject_at(150))
    };
    // Healed-outcome experiment: run one healing tail past the stimulus
    // horizon rather than a hand-tuned 600 ticks.
    let cold = fleet().run_to_quiescence();
    let snapshot = cold
        .store()
        .expect("warm-start comparison needs a shared learner")
        .snapshot();

    let (saved_examples, preloaded_fixes) = (snapshot.len(), preloaded_fixes(learner, &snapshot));
    let warm = fleet().warm_start(snapshot).run_to_quiescence();
    WarmStartReport {
        saved_examples,
        preloaded_fixes,
        cold: injected_stats(&cold, 0..replicas),
        warm: injected_stats(&warm, 0..replicas),
        escalations: [escalations(&cold), escalations(&warm)],
    }
}

/// Tick at which the scout replica (replica 0) meets the signature alone.
const STORM_SCOUT_TICK: u64 = 80;
/// Tick at which the storm hits half the fleet at once.
const STORM_TICK: u64 = 400;
/// Fraction of the fleet the storm hits.
const STORM_FRACTION: f64 = 0.5;

/// The replicas the storm hits.
fn storm_victims(replicas: usize) -> Vec<usize> {
    StormSpec::new(KIND, 0.9, STORM_FRACTION).victims(replicas)
}

/// Shared-vs-isolated recovery under a correlated fault storm: a scout
/// injection on replica 0 (never a storm victim under the Bresenham spread)
/// at tick 80, and a 50 % [`EventChoice::storm`] at tick 400.  The stats cover the victims' storm episodes: with one
/// shared store the victims should reach for the scout's proven fix on
/// (close to) the first attempt; isolated victims each rediscover it by
/// trial and error.
pub fn storm(replicas: usize, seed: u64, slice: u64) -> Experiment {
    Experiment::new(
        // Batch 1 so the scout's experience is published the moment it is
        // recorded — the comparison measures sharing, not drain timing.
        LearnerChoice::Locked { batch: 1 },
        false,
        move |learner| {
            with_scout(base_fleet(replicas, seed), 0, STORM_SCOUT_TICK)
                .ticks(STORM_TICK + 600)
                .learner(learner)
                .slice(slice)
                .event(EventChoice::storm(STORM_TICK, KIND, STORM_FRACTION))
        },
        move |outcome| injected_stats(outcome, storm_victims(replicas)),
    )
}

/// Tick of the scout injection: the *last* replica (never the weakest under
/// the low-id tie-break while the fleet is healthy) meets the signature
/// alone and, with a shared store, publishes the proven fix before the
/// adversary's first strike.  Past the service's warm-up ramp, so the
/// symptoms the scout records match what steady-state victims will report.
const ADVERSARY_SCOUT_TICK: u64 = 80;
/// First tick (an epoch barrier) at which the adversary may strike — late
/// enough that the scout's episode has healed in both learning topologies,
/// so strikes open *fresh* episodes on the healthy fleet.
const ADVERSARY_START: u64 = 256;
/// Tick (exclusive) after which the adversary stands down — barriers at
/// 256, 320, …, 512 give five strikes.
pub const ADVERSARY_UNTIL: u64 = 576;

/// Shared-vs-isolated recovery under adversarial weakest-replica targeting:
/// a scout injection on the last replica, and a reactive
/// [`ReactiveChoice::adversary`] striking the currently-weakest replica at
/// every epoch barrier in `[ADVERSARY_START, ADVERSARY_UNTIL)`.
///
/// The dynamics this sets up: while the fleet is healthy the low-id
/// tie-break aims the first strike at replica 0; the strike opens an
/// episode, which makes replica 0 *the* weakest, so the adversary keeps
/// piling on until the replica heals — the worst case for a learner that
/// has not yet seen the fix.  With a shared store the scout's fix transfers
/// and each strike is cleared on the first attempt; isolated victims
/// rediscover it under fire.
///
/// Auto-quiesced: the stimulus horizon is finite, so the fleet stops one
/// healing tail after the last possible strike instead of at a hand-tuned
/// tick count.  Each run carries its own strike
/// log (the adversary reacts to that run's health, so shared and isolated
/// fleets are hit where *they* are weak); see [`reactive_strike_stats`] for
/// the attribution.
pub fn adversary(replicas: usize, seed: u64, slice: u64) -> Experiment {
    let scout = replicas.saturating_sub(1);
    let strikes = ReactiveChoice::adversary(KIND, 0.9, ADVERSARY_START, ADVERSARY_UNTIL);
    Experiment::new(
        LearnerChoice::Locked { batch: 1 },
        true,
        move |learner| {
            with_scout(base_fleet(replicas, seed), scout, ADVERSARY_SCOUT_TICK)
                .learner(learner)
                .slice(slice)
                .reactive(strikes)
        },
        reactive_strike_stats,
    )
}

/// The fault-seasons run over `fault_episodes`: demographic generation
/// whose rate switches between calm (0), moderate, and stormy seasons every
/// 128 ticks on a schedule shared by the whole fleet — correlated bad
/// *weeks* without correlated faults.  Active for the first half of the run,
/// healed by the FixSym+diagnosis hybrid.
pub fn seasons(replicas: usize, ticks: u64, seed: u64, slice: u64) -> Experiment {
    Experiment::new(
        LearnerChoice::Locked { batch: 1 },
        false,
        move |learner| {
            base_fleet(replicas, seed)
                .ticks(ticks)
                .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
                .learner(learner)
                .slice(slice)
                .faults(
                    FaultChoice::seasons(ServiceProfile::Online, vec![0.0, 0.02, 0.06], 128)
                        .active_for(ticks / 2),
                )
        },
        fault_episodes,
    )
}

/// Tick of the scout injection that seeds the cascade — close enough to the
/// first epoch barrier (64) that the episode is still open when the cascade
/// engine first looks.
const CASCADE_SCOUT_TICK: u64 = 50;

/// The auto-quiesced cascade run: a scout injection opens an episode on
/// replica 0 just before the first epoch barrier; a
/// [`ReactiveChoice::cascade`] then propagates correlated faults along the
/// ring dependency (0 → 1 → 2 → …) as each newly failing replica is
/// observed, up to `budget` propagations — the `strikes` of its
/// [`reactive_strike_stats`].
pub fn cascade(replicas: usize, seed: u64, budget: usize, slice: u64) -> Experiment {
    Experiment::new(
        LearnerChoice::locked(),
        true,
        move |learner| {
            with_scout(base_fleet(replicas, seed), 0, CASCADE_SCOUT_TICK)
                .learner(learner)
                .slice(slice)
                .reactive(ReactiveChoice::cascade(KIND, 0.9, budget, 512))
        },
        reactive_strike_stats,
    )
}

/// Fraction of a mix run's ticks during which demographic faults may fire;
/// the remaining tail is quiet so the healer can drain every open episode
/// before quiesce.
const MIX_ACTIVE_FRACTION: f64 = 0.5;

/// The demographic-mix run over `all_episodes`: faults generated
/// stochastically from a [`ServiceProfile`]'s cause mix at `rate` per tick
/// over the first half of the run, healed by the
/// FixSym+diagnosis hybrid (signature learning alone cannot cover
/// first-contact operator/hardware classes) over one batch-1 locked store.
pub fn mix(
    replicas: usize,
    ticks: u64,
    seed: u64,
    (profile, rate): (ServiceProfile, f64),
    slice: u64,
) -> Experiment {
    let active = (ticks as f64 * MIX_ACTIVE_FRACTION) as u64;
    Experiment::new(
        LearnerChoice::Locked { batch: 1 },
        false,
        move |learner| {
            base_fleet(replicas, seed)
                .ticks(ticks)
                .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
                .learner(learner)
                .slice(slice)
                .faults(
                    FaultChoice::mix_for(profile, rate, &ServiceConfig::tiny()).active_for(active),
                )
        },
        all_episodes,
    )
}

/// Seed of every run the two tables report.
const SEED: u64 = 42;

/// The fleet learning table (`results/fleet_learning.csv`), at seed 42:
/// one row per run of the warm-vs-cold comparison (6 replicas, one locked
/// store) and of the shared-vs-isolated pairs of [`cold_start`] (8
/// replicas), [`storm`] (8 replicas, slice 1) and [`adversary`] (6
/// replicas, slice 64).
///
/// The columns are the run's [`EpisodeStats`] over the episodes that
/// count, the escalations of the whole fleet, and the snapshot the run
/// started from (`saved_examples` outcomes, `preloaded_fixes` fixes known
/// before the first tick; 0 for every run but `warm_start_warm`).  Every
/// run is sequential, so the table is a pure function of the code:
/// `cargo test` holds it to the committed CSV byte for byte.
pub fn learning_table() -> ResultTable {
    let columns = [
        "strikes",
        "matched",
        "open",
        "mean_fix_attempts",
        "mean_recovery_ticks",
        "escalations",
        "saved_examples",
        "preloaded_fixes",
    ];
    let mut table = ResultTable::new(
        "Fleet learning: shared vs isolated synopses, warm vs cold start",
        columns.map(String::from).to_vec(),
    );
    // A run's row: its counted episodes, then the fleet's escalations and
    // the snapshot it started from.
    let mut push = |label: &str, stats: EpisodeStats, counts: [usize; 3]| {
        let episodes = [stats.strikes, stats.matched, stats.open].map(|n| n as f64);
        let means = [stats.mean_attempts, stats.mean_recovery];
        let row = [&episodes[..], &means, &counts.map(|n| n as f64)].concat();
        table.push_row(label, row);
    };
    let warm = warm_start_comparison(6, SEED, LearnerChoice::locked());
    let [cold_escalations, warm_escalations] = warm.escalations;
    push("warm_start_cold", warm.cold, [cold_escalations, 0, 0]);
    let loaded = [warm_escalations, warm.saved_examples, warm.preloaded_fixes];
    push("warm_start_warm", warm.warm, loaded);
    let experiments = [
        ("cold_start", cold_start(8, SEED)),
        ("storm", storm(8, SEED, 1)),
        ("adversary", adversary(6, SEED, 64)),
    ];
    for (name, experiment) in experiments {
        let sides = [
            ("shared", experiment.shared),
            ("isolated", LearnerChoice::Private),
        ];
        for (side, learner) in sides {
            let (outcome, stats) = experiment.measure(learner);
            push(
                &format!("{name}_{side}"),
                stats,
                [escalations(&outcome), 0, 0],
            );
        }
    }
    table
}

/// The replicas-vs-throughput curve (`results/fleet_scaling.csv`): fleets
/// of 1 to 32 replicas × 5 000 ticks, the parallel engine against the
/// sequential interleaver, with the machine's core count on every row (on
/// fewer than 4 cores a 2× speedup is out of reach).  Wall clocks: the
/// file is never pinned.
pub fn scaling_table() -> ResultTable {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ticks = 5_000;
    let columns = [
        "cores",
        "ticks_per_replica",
        "parallel_wall_s",
        "sequential_wall_s",
        "speedup",
        "parallel_ticks_per_s",
    ];
    let mut table = ResultTable::new(
        "Fleet scaling: parallel engine vs sequential interleaver",
        columns.map(String::from).to_vec(),
    );
    for replicas in [1, 2, 4, 8, 16, 32] {
        let point = scaling_point(replicas, ticks, SEED);
        table.push_row(
            format!("{replicas}_replicas"),
            vec![
                cores as f64,
                ticks as f64,
                point.parallel_wall_s,
                point.sequential_wall_s,
                point.speedup(),
                point.parallel_throughput,
            ],
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_point_measures_both_modes() {
        let point = scaling_point(2, 60, 7);
        assert!(point.parallel_wall_s > 0.0);
        assert!(point.sequential_wall_s > 0.0);
        assert!(point.parallel_throughput > 0.0);
        assert!(point.speedup() > 0.0);
    }

    #[test]
    fn fold_counts_unattributed_candidates_and_means_nothing_as_zero() {
        assert_eq!(EpisodeStats::fold([]), EpisodeStats::default());
        let stats = EpisodeStats::fold([None, None]);
        assert_eq!((stats.strikes, stats.matched, stats.open), (2, 0, 0));
        assert_eq!((stats.mean_attempts, stats.mean_recovery), (0.0, 0.0));
        assert!(
            !stats.recovered(),
            "strikes without an episode are not a recovery"
        );
    }

    #[test]
    fn warm_start_beats_cold_at_the_same_seed() {
        let report = warm_start_comparison(3, 42, LearnerChoice::locked());
        assert!(report.saved_examples >= 1, "cold fleet recorded experience");
        assert!(
            report.preloaded_fixes >= 1,
            "restored store knows fixes before the first tick"
        );
        assert!(
            report.warm.mean_attempts < report.cold.mean_attempts,
            "warm {} vs cold {} mean attempts",
            report.warm.mean_attempts,
            report.cold.mean_attempts
        );
    }

    #[test]
    fn storm_victims_recover_faster_with_shared_learning() {
        let experiment = storm(6, 42, 1);
        let report = experiment.compare();
        assert_eq!(report.shared.strikes, 3, "50% of 6 replicas");
        assert!(
            report.shared.recovered() && report.shared.matched == 3,
            "shared storm run must quiesce healed: {:?}",
            report.shared
        );
        assert!(report.shared_recovers_faster(), "{report:?}");
        let (outcome, _) = experiment.measure(experiment.shared);
        assert!(
            experiment.parallel_matches(&outcome),
            "storm runs are worker-count invariant"
        );
    }

    #[test]
    fn mix_fleet_quiesces_healed_and_reproduces_sequentially() {
        let experiment = mix(3, 600, 42, (ServiceProfile::Online, 0.02), 1);
        let (outcome, stats) = experiment.measure(experiment.shared);
        assert!(outcome.is_complete());
        assert_eq!(stats.strikes, outcome.total_episodes());
        assert!(
            stats.strikes >= 1,
            "a 0.02-rate mix over 300 active ticks must fault somewhere"
        );
        assert!(stats.matched >= 1, "every mix episode is attributable");
        assert_eq!(
            stats.open, 0,
            "every demographic fault heals before quiesce"
        );
        assert!(
            experiment.parallel_matches(&outcome),
            "mix runs are worker-count invariant"
        );
    }

    #[test]
    fn adversary_strikes_land_and_shared_learning_recovers_faster() {
        let experiment = adversary(6, 42, 64);
        let report = experiment.compare();
        assert!(report.recovered(), "{report:?}");
        assert!(report.shared_recovers_faster(), "{report:?}");
        let (outcome, _) = experiment.measure(experiment.shared);
        assert!(
            experiment.parallel_matches(&outcome),
            "adversary runs are worker-count invariant"
        );
    }

    #[test]
    fn cascade_propagates_and_quiesces_healed() {
        let experiment = cascade(4, 42, 3, 64);
        let (outcome, stats) = experiment.measure(experiment.shared);
        assert!(
            (1..=3).contains(&stats.strikes),
            "scout episode must seed 1..=budget propagations, got {}",
            stats.strikes
        );
        let injected = outcome.reactive_log().iter();
        assert_eq!(
            stats.strikes,
            injected
                .filter(|r| matches!(r.action, ReplicaAction::Inject(_)))
                .count()
        );
        assert!(
            stats.matched >= 1,
            "at least one propagation opens an attributable episode"
        );
        assert_eq!(stats.open, 0, "every attributed cascade episode heals");
        assert!(
            experiment.parallel_matches(&outcome),
            "cascade runs are worker-count invariant"
        );
    }

    #[test]
    fn seasons_fleet_faults_in_stormy_seasons_and_quiesces() {
        let experiment = seasons(3, 1024, 42, 64);
        let (outcome, stats) = experiment.measure(experiment.shared);
        assert_eq!(stats.strikes, outcome.total_episodes());
        assert!(
            stats.strikes >= 1,
            "a 0.06-rate stormy season must fault somewhere"
        );
        assert!(stats.matched >= 1, "a seasonal episode is attributable");
        assert_eq!(stats.open, 0);
        assert!(
            experiment.parallel_matches(&outcome),
            "seasons runs are worker-count invariant"
        );
    }

    #[test]
    fn cold_start_warm_replicas_benefit_from_sharing() {
        let report = cold_start(4, 11).compare();
        assert_eq!(report.isolated.strikes, 3, "replicas 1..4 are warm");
        assert!(
            report.isolated.mean_attempts > 0.0,
            "warm replicas must have episodes"
        );
        assert!(
            report.shared.mean_attempts <= report.isolated.mean_attempts,
            "{report:?}"
        );
        assert!(
            report.shared.mean_recovery <= report.isolated.mean_recovery,
            "{report:?}"
        );
    }
}
