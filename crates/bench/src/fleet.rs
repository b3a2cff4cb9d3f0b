//! Fleet-scaling experiments: replicas-vs-throughput curves and the
//! shared-vs-isolated cold-start recovery comparison.
//!
//! Used by the `fleet_scaling` binary (full scale, JSON output) and the
//! `fleet_scaling` Criterion bench (reduced scale).

use selfheal_core::harness::{
    EventChoice, FaultChoice, LearnerChoice, PolicyChoice, ReactiveChoice, WorkloadChoice,
};
use selfheal_core::snapshot::SynopsisSnapshot;
use selfheal_core::synopsis::{Learner, SynopsisKind};
use selfheal_faults::{FaultKind, FaultTarget, InjectionPlanBuilder, ServiceProfile, StormSpec};
use selfheal_fleet::events::ReplicaAction;
use selfheal_fleet::reactive::REACTIVE_PERIOD;
use selfheal_fleet::{ExecutionMode, FleetConfig, FleetOutcome};
use selfheal_sim::ServiceConfig;
use selfheal_workload::{ArrivalProcess, WorkloadMix};

/// One point of the replicas-vs-throughput curve.
#[derive(Debug, Clone, Copy)]
pub struct ScalingPoint {
    /// Fleet size.
    pub replicas: usize,
    /// Ticks each replica simulated.
    pub ticks_per_replica: u64,
    /// Wall-clock seconds for the parallel (worker-thread) engine.
    pub parallel_wall_s: f64,
    /// Wall-clock seconds for the sequential tick-interleaver.
    pub sequential_wall_s: f64,
    /// Simulated ticks per second achieved by the parallel engine.
    pub parallel_throughput: f64,
}

impl ScalingPoint {
    /// Sequential wall-clock over parallel wall-clock.
    pub fn speedup(&self) -> f64 {
        if self.parallel_wall_s <= 0.0 {
            f64::INFINITY
        } else {
            self.sequential_wall_s / self.parallel_wall_s
        }
    }
}

/// The fleet every scaling measurement runs: the tiny service under a
/// constant bidding load, a mid-run buffer-contention fault per replica,
/// and FixSym healing against one fleet-shared synopsis — i.e. the whole
/// subsystem under test, not an idle loop.
fn scaling_fleet(replicas: usize, ticks: u64, seed: u64) -> FleetConfig {
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .ticks(ticks)
        .base_seed(seed)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .learner(LearnerChoice::locked())
        .injections(
            InjectionPlanBuilder::new(4, 3, 1)
                .inject(
                    ticks / 10,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .build(),
        )
        // The scaling runs only need aggregate counters, not full metric
        // history; a small ring keeps 32 × 5000-tick fleets lean.
        .series_capacity(512)
        // The curve measures replica-simulation throughput, not epoch-sync
        // overhead: a wide slice amortizes the scheduler's per-epoch
        // barrier (5000 ticks -> ~78 barriers instead of 5000) while the
        // store gate still keeps the run deterministic.
        .slice(64)
}

/// The synthetic workload the smoke fleet runs — and the one its
/// record/replay quickstart captures to a JSON-lines trace.
pub fn smoke_workload() -> WorkloadChoice {
    WorkloadChoice::synthetic(
        WorkloadMix::bidding(),
        ArrivalProcess::Constant { rate: 40.0 },
    )
}

/// A small FixSym fleet (tiny service, one mid-run buffer-contention fault,
/// isolated learning) under an arbitrary workload choice — the config the
/// `fleet_scaling` binary's `--smoke` / `--record` / `--replay` modes run,
/// sized so CI can afford it.
pub fn smoke_fleet(
    replicas: usize,
    ticks: u64,
    seed: u64,
    workload: WorkloadChoice,
) -> FleetConfig {
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .workload(workload)
        .replicas(replicas)
        .ticks(ticks)
        .base_seed(seed)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .injections(
            InjectionPlanBuilder::new(4, 3, 1)
                .inject(
                    ticks / 4,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .build(),
        )
        .series_capacity(512)
}

/// Measures one fleet size in both execution modes.
pub fn scaling_point(replicas: usize, ticks: u64, seed: u64) -> ScalingPoint {
    let parallel = scaling_fleet(replicas, ticks, seed)
        .mode(ExecutionMode::Parallel { threads: None })
        .run();
    let sequential = scaling_fleet(replicas, ticks, seed)
        .mode(ExecutionMode::Sequential)
        .run();
    ScalingPoint {
        replicas,
        ticks_per_replica: ticks,
        parallel_wall_s: parallel.wall().as_secs_f64(),
        sequential_wall_s: sequential.wall().as_secs_f64(),
        parallel_throughput: parallel.throughput_ticks_per_sec(),
    }
}

/// Measures every fleet size in `replica_counts`.
pub fn scaling_curve(replica_counts: &[usize], ticks: u64, seed: u64) -> Vec<ScalingPoint> {
    replica_counts
        .iter()
        .map(|&r| scaling_point(r, ticks, seed))
        .collect()
}

/// Shared-vs-isolated cold-start comparison.
///
/// `warm` statistics cover replicas 1..N — the replicas whose fault arrives
/// only after replica 0 (and each predecessor) has already healed the same
/// signature.  With a shared synopsis those replicas should need fewer fix
/// attempts and recover at least as fast as with isolated synopses.
#[derive(Debug, Clone, Copy)]
pub struct ColdStartReport {
    /// Mean fix attempts in the injected episode, warm replicas, shared.
    pub shared_warm_attempts: f64,
    /// Mean recovery ticks of the injected episode, warm replicas, shared.
    pub shared_warm_recovery: f64,
    /// Escalations across the whole shared fleet.
    pub shared_escalations: u64,
    /// Mean fix attempts in the injected episode, warm replicas, isolated.
    pub isolated_warm_attempts: f64,
    /// Mean recovery ticks of the injected episode, warm replicas, isolated.
    pub isolated_warm_recovery: f64,
    /// Escalations across the whole isolated fleet.
    pub isolated_escalations: u64,
}

/// Stagger interval between successive replicas' injections, in ticks —
/// long enough for the predecessor to heal and for the shared batch to
/// drain before the next replica's fault lands.
const STAGGER_TICKS: u64 = 500;

fn cold_start_fleet(replicas: usize, seed: u64, learner: LearnerChoice) -> FleetOutcome {
    let ticks = 100 + STAGGER_TICKS * replicas as u64 + 400;
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .ticks(ticks)
        .base_seed(seed)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .learner(learner)
        // Tick-interleaved execution so "replica r's fault happens after
        // replica r-1 healed" holds by construction, independent of thread
        // scheduling.
        .mode(ExecutionMode::Sequential)
        .injections_per_replica(move |replica| {
            InjectionPlanBuilder::new(4, 3, 1)
                .inject(
                    100 + STAGGER_TICKS * replica as u64,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .build()
        })
        .run()
}

/// Mean fix attempts and recovery ticks of the injected episode over warm
/// replicas (1..N), plus fleet-wide escalations.
fn warm_stats(outcome: &FleetOutcome) -> (f64, f64, u64) {
    let mut attempts = Vec::new();
    let mut recoveries = Vec::new();
    let mut escalations = 0u64;
    for replica in outcome.replicas() {
        let episodes = replica.outcome.recovery.episodes();
        escalations += episodes.iter().filter(|e| e.escalated).count() as u64;
        if replica.replica == 0 {
            continue;
        }
        // First injected (ground-truth-labelled) episode of the warm replica.
        if let Some(episode) = episodes
            .iter()
            .find(|e| e.primary_fault() == Some(FaultKind::BufferContention))
        {
            attempts.push(episode.fixes_attempted.len() as f64);
            if let Some(ticks) = episode.recovery_ticks() {
                recoveries.push(ticks as f64);
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (mean(&attempts), mean(&recoveries), escalations)
}

/// Mean fix attempts and mean recovery ticks of the injected
/// (ground-truth-labelled) episode over every replica that saw one —
/// the recovery metric the warm-start comparison reports.
pub fn mean_injected_stats(outcome: &FleetOutcome) -> (f64, f64) {
    let mut attempts = Vec::new();
    let mut recoveries = Vec::new();
    for replica in outcome.replicas() {
        if let Some(episode) = replica
            .outcome
            .recovery
            .episodes()
            .iter()
            .find(|e| e.primary_fault() == Some(FaultKind::BufferContention))
        {
            attempts.push(episode.fixes_attempted.len() as f64);
            if let Some(ticks) = episode.recovery_ticks() {
                recoveries.push(ticks as f64);
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (mean(&attempts), mean(&recoveries))
}

/// Warm-vs-cold recovery comparison: the same fleet run twice at the same
/// seed, once from an empty synopsis store and once warm-started from the
/// cold run's saved snapshot.
///
/// Every replica of the warm fleet should fix the injected fault in fewer
/// attempts — the fleet remembers across process boundaries what the cold
/// fleet had to discover by trial and error.
#[derive(Debug, Clone, Copy)]
pub struct WarmStartReport {
    /// Outcomes recorded in the snapshot the warm fleet loaded.
    pub saved_examples: usize,
    /// Successful fixes known to a freshly restored store *before* its
    /// first tick (the CI warm-start smoke asserts this is nonzero).
    pub preloaded_fixes: usize,
    /// Mean fix attempts for the injected episode, cold fleet.
    pub cold_mean_attempts: f64,
    /// Mean fix attempts for the injected episode, warm fleet.
    pub warm_mean_attempts: f64,
    /// Mean recovery ticks for the injected episode, cold fleet.
    pub cold_mean_recovery: f64,
    /// Mean recovery ticks for the injected episode, warm fleet.
    pub warm_mean_recovery: f64,
}

impl WarmStartReport {
    /// The acceptance predicate: warm recovery takes strictly fewer mean
    /// fix attempts than cold.
    pub fn warm_is_faster(&self) -> bool {
        self.warm_mean_attempts < self.cold_mean_attempts
    }
}

fn warm_start_fleet(
    replicas: usize,
    seed: u64,
    learner: LearnerChoice,
    snapshot: Option<SynopsisSnapshot>,
) -> FleetOutcome {
    let mut config = FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .base_seed(seed)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .learner(learner)
        // Deterministic execution so warm vs cold differ only through the
        // loaded experience.
        .mode(ExecutionMode::Sequential)
        .series_capacity(512)
        .injections(
            InjectionPlanBuilder::new(4, 3, 1)
                .inject(
                    150,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .build(),
        );
    if let Some(snapshot) = snapshot {
        config = config.warm_start(snapshot);
    }
    // Healed-outcome experiment: run one healing tail past the stimulus
    // horizon rather than a hand-tuned 600 ticks.
    config.run_to_quiescence()
}

/// Runs the warm-vs-cold experiment with the given (shared) learner recipe:
/// cold run → snapshot the store → warm run from the snapshot.
///
/// # Panics
/// Panics when `learner` is [`LearnerChoice::Private`] (a per-replica store
/// leaves nothing fleet-wide to snapshot).
pub fn warm_start_comparison(
    replicas: usize,
    seed: u64,
    learner: LearnerChoice,
) -> WarmStartReport {
    let cold = warm_start_fleet(replicas, seed, learner, None);
    let snapshot = cold
        .store()
        .expect("warm-start comparison needs a shared learner")
        .snapshot();

    // What a restored store knows before the first tick.
    let mut probe = learner.build_store(SynopsisKind::NearestNeighbor);
    probe.restore(&snapshot);
    let preloaded_fixes = probe.correct_fixes_learned();

    let saved_examples = snapshot.len();
    let warm = warm_start_fleet(replicas, seed, learner, Some(snapshot));
    let (cold_mean_attempts, cold_mean_recovery) = mean_injected_stats(&cold);
    let (warm_mean_attempts, warm_mean_recovery) = mean_injected_stats(&warm);
    WarmStartReport {
        saved_examples,
        preloaded_fixes,
        cold_mean_attempts,
        warm_mean_attempts,
        cold_mean_recovery,
        warm_mean_recovery,
    }
}

/// The storm-recovery experiment's failure class.
pub const STORM_KIND: FaultKind = FaultKind::BufferContention;
/// Tick at which the scout replica (replica 0) meets the signature alone.
pub const STORM_SCOUT_TICK: u64 = 80;
/// Tick at which the storm hits half the fleet at once.
pub const STORM_TICK: u64 = 400;
/// Fraction of the fleet the storm hits.
pub const STORM_FRACTION: f64 = 0.5;

/// Shared-vs-isolated recovery under a correlated fault storm.
///
/// The scenario: replica 0 (the *scout*, never a storm victim under the
/// Bresenham spread) meets the failure signature alone at
/// [`STORM_SCOUT_TICK`]; at [`STORM_TICK`] the same failure hits
/// [`STORM_FRACTION`] of the fleet simultaneously.  With one shared store
/// the victims should reach for the scout's proven fix on (close to) the
/// first attempt; isolated victims each rediscover it by trial and error.
#[derive(Debug, Clone, Copy)]
pub struct StormRecoveryReport {
    /// Number of storm victims.
    pub victims: usize,
    /// Victims whose storm episode was found in the shared run (a victim
    /// whose injection never produced a labelled episode is missing).
    pub shared_matched_episodes: usize,
    /// Mean fix attempts over the victims' storm episodes, shared store.
    pub shared_mean_attempts: f64,
    /// Mean recovery ticks over the victims' storm episodes, shared store.
    pub shared_mean_recovery: f64,
    /// Episodes still open when the shared fleet quiesced (0 = recovered).
    pub shared_open_episodes: usize,
    /// Victims whose storm episode was found in the isolated run.
    pub isolated_matched_episodes: usize,
    /// Mean fix attempts over the victims' storm episodes, isolated.
    pub isolated_mean_attempts: f64,
    /// Mean recovery ticks over the victims' storm episodes, isolated.
    pub isolated_mean_recovery: f64,
    /// Episodes still open when the isolated fleet quiesced.
    pub isolated_open_episodes: usize,
}

impl StormRecoveryReport {
    /// The CI gate: every victim actually opened a storm episode (the storm
    /// was not a silent no-op) and the shared run healed all of them.
    pub fn recovered(&self) -> bool {
        self.shared_matched_episodes == self.victims
            && self.victims > 0
            && self.shared_open_episodes == 0
    }

    /// The acceptance predicate: shared learning recovers from the storm
    /// faster (strictly fewer mean recovery ticks) and in no more attempts
    /// than isolated learning.
    pub fn shared_recovers_faster(&self) -> bool {
        self.shared_mean_recovery < self.isolated_mean_recovery
            && self.shared_mean_attempts <= self.isolated_mean_attempts
    }
}

/// The storm fleet: tiny service, constant bidding load, a scout injection
/// on replica 0, and a 50% [`EventChoice::storm`] — run through the
/// tick-sliced parallel scheduler (slice 1), which the store gate makes
/// deterministic for shared learners.
pub fn storm_fleet(replicas: usize, seed: u64, learner: LearnerChoice, slice: u64) -> FleetConfig {
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .ticks(STORM_TICK + 600)
        .base_seed(seed)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .learner(learner)
        .slice(slice)
        .mode(ExecutionMode::Parallel { threads: None })
        .series_capacity(512)
        .injections_per_replica(|replica| {
            if replica == 0 {
                InjectionPlanBuilder::new(4, 3, 1)
                    .inject(STORM_SCOUT_TICK, STORM_KIND, FaultTarget::DatabaseTier, 0.9)
                    .build()
            } else {
                selfheal_faults::InjectionPlan::empty()
            }
        })
        .event(EventChoice::storm(STORM_TICK, STORM_KIND, STORM_FRACTION))
}

/// Mean fix attempts, mean recovery ticks, matched-episode count, and
/// open-episode count over the storm victims' labelled episodes.
fn storm_victim_stats(outcome: &FleetOutcome, victims: &[usize]) -> (f64, f64, usize, usize) {
    let mut attempts = Vec::new();
    let mut recoveries = Vec::new();
    let mut matched = 0usize;
    let mut open = 0usize;
    for replica in outcome.replicas() {
        if !victims.contains(&replica.replica) {
            continue;
        }
        if let Some(episode) = replica
            .outcome
            .recovery
            .episodes()
            .iter()
            .find(|e| e.primary_fault() == Some(STORM_KIND))
        {
            matched += 1;
            attempts.push(episode.fixes_attempted.len() as f64);
            match episode.recovery_ticks() {
                Some(ticks) => recoveries.push(ticks as f64),
                None => open += 1,
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (mean(&attempts), mean(&recoveries), matched, open)
}

/// Runs the storm fleet with a shared (batch-1 locked) store and with
/// isolated per-replica stores, and compares the victims' recovery.
pub fn storm_recovery_comparison(replicas: usize, seed: u64, slice: u64) -> StormRecoveryReport {
    let victims = StormSpec::new(STORM_KIND, 0.9, STORM_FRACTION).victims(replicas);
    // Batch 1 so the scout's experience is published the moment it is
    // recorded — the comparison then measures sharing, not drain timing.
    let shared = storm_fleet(replicas, seed, LearnerChoice::Locked { batch: 1 }, slice).run();
    let isolated = storm_fleet(replicas, seed, LearnerChoice::Private, slice).run();
    let (shared_mean_attempts, shared_mean_recovery, shared_matched_episodes, shared_open_episodes) =
        storm_victim_stats(&shared, &victims);
    let (
        isolated_mean_attempts,
        isolated_mean_recovery,
        isolated_matched_episodes,
        isolated_open_episodes,
    ) = storm_victim_stats(&isolated, &victims);
    StormRecoveryReport {
        victims: victims.len(),
        shared_matched_episodes,
        shared_mean_attempts,
        shared_mean_recovery,
        shared_open_episodes,
        isolated_matched_episodes,
        isolated_mean_attempts,
        isolated_mean_recovery,
        isolated_open_episodes,
    }
}

/// The adversarial-recovery experiment's failure class — what the reactive
/// adversary injects into the weakest replica at every epoch barrier.
pub const ADVERSARY_KIND: FaultKind = FaultKind::BufferContention;
/// Tick of the scout injection: the *last* replica (never the weakest under
/// the low-id tie-break while the fleet is healthy) meets the signature
/// alone and, with a shared store, publishes the proven fix before the
/// adversary's first strike.  Past the service's warm-up ramp, so the
/// symptoms the scout records match what steady-state victims will report.
pub const ADVERSARY_SCOUT_TICK: u64 = 80;
/// First tick (an epoch barrier) at which the adversary may strike — late
/// enough that the scout's episode has healed in both learning topologies,
/// so strikes open *fresh* episodes on the healthy fleet.
pub const ADVERSARY_START: u64 = 256;
/// Tick (exclusive) after which the adversary stands down — barriers at
/// 256, 320, …, 512 give five strikes.
pub const ADVERSARY_UNTIL: u64 = 576;

/// The adversarial fleet: the tiny service under constant bidding load, a
/// scout injection on the last replica, and a reactive
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
/// Sequential by default (callers chain `.mode(..)` for the parallel
/// fingerprint gate); run it via `run_to_quiescence()` — the stimulus
/// horizon is finite, so the fleet stops one healing tail after the last
/// possible strike instead of at a hand-tuned tick count.
pub fn adversarial_fleet(
    replicas: usize,
    seed: u64,
    learner: LearnerChoice,
    slice: u64,
) -> FleetConfig {
    let scout = replicas.saturating_sub(1);
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .base_seed(seed)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .learner(learner)
        .slice(slice)
        .mode(ExecutionMode::Sequential)
        .series_capacity(512)
        .injections_per_replica(move |replica| {
            if replica == scout {
                InjectionPlanBuilder::new(4, 3, 1)
                    .inject(
                        ADVERSARY_SCOUT_TICK,
                        ADVERSARY_KIND,
                        FaultTarget::DatabaseTier,
                        0.9,
                    )
                    .build()
            } else {
                selfheal_faults::InjectionPlan::empty()
            }
        })
        .reactive(ReactiveChoice::adversary(
            ADVERSARY_KIND,
            0.9,
            ADVERSARY_START,
            ADVERSARY_UNTIL,
        ))
}

/// Shared-vs-isolated recovery under adversarial weakest-replica targeting.
///
/// Each run carries its own strike log (the adversary reacts to that run's
/// health, so shared and isolated fleets are hit where *they* are weak);
/// strikes are attributed to the episode on the target replica whose
/// detection falls inside the strike's epoch window and whose primary fault
/// matches the injected class.
#[derive(Debug, Clone, Copy)]
pub struct AdversarialRecoveryReport {
    /// Adversary strikes landed in the shared run.
    pub shared_strikes: usize,
    /// Shared-run strikes matched to a labelled episode.
    pub shared_matched: usize,
    /// Mean fix attempts over matched episodes, shared store.
    pub shared_mean_attempts: f64,
    /// Mean recovery ticks over matched episodes, shared store.
    pub shared_mean_recovery: f64,
    /// Matched episodes still open when the shared fleet quiesced.
    pub shared_open_episodes: usize,
    /// Adversary strikes landed in the isolated run.
    pub isolated_strikes: usize,
    /// Isolated-run strikes matched to a labelled episode.
    pub isolated_matched: usize,
    /// Mean fix attempts over matched episodes, isolated stores.
    pub isolated_mean_attempts: f64,
    /// Mean recovery ticks over matched episodes, isolated stores.
    pub isolated_mean_recovery: f64,
    /// Matched episodes still open when the isolated fleet quiesced.
    pub isolated_open_episodes: usize,
}

impl AdversarialRecoveryReport {
    /// The CI gate: both adversaries actually struck, strikes were
    /// attributable in both runs, and every attributed episode healed
    /// before quiesce (the auto-quiesce horizon left enough healing tail).
    pub fn struck_and_recovered(&self) -> bool {
        self.shared_strikes > 0
            && self.isolated_strikes > 0
            && self.shared_matched > 0
            && self.isolated_matched > 0
            && self.shared_open_episodes == 0
            && self.isolated_open_episodes == 0
    }

    /// The acceptance predicate: under weakest-replica targeting, victims
    /// backed by the shared store recover strictly faster and in no more
    /// attempts than isolated victims.
    pub fn shared_recovers_faster(&self) -> bool {
        self.shared_mean_recovery < self.isolated_mean_recovery
            && self.shared_mean_attempts <= self.isolated_mean_attempts
    }
}

/// Strike count, matched count, open-matched count, and mean attempts /
/// mean recovery over the episodes attributable to reactive injections in
/// `outcome`'s strike log.  A strike that lands while its victim is already
/// mid-episode merges into that episode (the pile-on case) and is counted
/// as a strike but not matched; a strike on a healthy replica opens a fresh
/// episode inside its epoch window with the injected class as primary.
pub fn reactive_strike_stats(outcome: &FleetOutcome) -> (usize, usize, usize, f64, f64) {
    let mut strikes = 0usize;
    let mut matched = 0usize;
    let mut open = 0usize;
    let mut attempts = Vec::new();
    let mut recoveries = Vec::new();
    for record in outcome.reactive_log() {
        let ReplicaAction::Inject(spec) = &record.action else {
            continue;
        };
        strikes += 1;
        let Some(replica) = outcome
            .replicas()
            .iter()
            .find(|r| r.replica == record.replica)
        else {
            continue;
        };
        if let Some(episode) = replica.outcome.recovery.episodes().iter().find(|e| {
            e.detected_at >= record.tick
                && e.detected_at < record.tick + REACTIVE_PERIOD
                && e.primary_fault() == Some(spec.kind)
        }) {
            matched += 1;
            attempts.push(episode.fixes_attempted.len() as f64);
            match episode.recovery_ticks() {
                Some(ticks) => recoveries.push(ticks as f64),
                None => open += 1,
            }
        }
    }
    let mean = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    (strikes, matched, open, mean(&attempts), mean(&recoveries))
}

/// Runs the adversarial fleet with a shared (batch-1 locked) store and with
/// isolated per-replica stores, both to quiescence, and compares how fast
/// the targeted victims recover.
pub fn adversarial_recovery_comparison(replicas: usize, seed: u64) -> AdversarialRecoveryReport {
    let shared = adversarial_fleet(replicas, seed, LearnerChoice::Locked { batch: 1 }, 64)
        .run_to_quiescence();
    let isolated =
        adversarial_fleet(replicas, seed, LearnerChoice::Private, 64).run_to_quiescence();
    let (
        shared_strikes,
        shared_matched,
        shared_open_episodes,
        shared_mean_attempts,
        shared_mean_recovery,
    ) = reactive_strike_stats(&shared);
    let (
        isolated_strikes,
        isolated_matched,
        isolated_open_episodes,
        isolated_mean_attempts,
        isolated_mean_recovery,
    ) = reactive_strike_stats(&isolated);
    AdversarialRecoveryReport {
        shared_strikes,
        shared_matched,
        shared_mean_attempts,
        shared_mean_recovery,
        shared_open_episodes,
        isolated_strikes,
        isolated_matched,
        isolated_mean_attempts,
        isolated_mean_recovery,
        isolated_open_episodes,
    }
}

/// The fault-seasons fleet: demographic generation whose rate switches
/// between calm (0), moderate, and stormy seasons every 128 ticks on a
/// schedule shared by the whole fleet — correlated bad *weeks* without
/// correlated faults.  Active for the first half of the run.
pub fn seasons_fleet(replicas: usize, ticks: u64, seed: u64, slice: u64) -> FleetConfig {
    let active = ticks / 2;
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .ticks(ticks)
        .base_seed(seed)
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .learner(LearnerChoice::Locked { batch: 1 })
        .slice(slice)
        .mode(ExecutionMode::Sequential)
        .series_capacity(512)
        .faults(
            FaultChoice::seasons(ServiceProfile::Online, vec![0.0, 0.02, 0.06], 128)
                .active_for(active),
        )
}

/// The cascade experiment's failure class.
pub const CASCADE_KIND: FaultKind = FaultKind::BufferContention;
/// Tick of the scout injection that seeds the cascade — close enough to the
/// first epoch barrier (64) that the episode is still open when the cascade
/// engine first looks.
pub const CASCADE_SCOUT_TICK: u64 = 50;

/// The cascade fleet: a scout injection opens an episode on replica 0 just
/// before the first epoch barrier; a [`ReactiveChoice::cascade`] then
/// propagates correlated faults along the ring dependency (0 → 1 → 2 → …)
/// as each newly failing replica is observed, up to `budget` propagations.
pub fn cascade_fleet(
    replicas: usize,
    seed: u64,
    learner: LearnerChoice,
    budget: usize,
    slice: u64,
) -> FleetConfig {
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .base_seed(seed)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .learner(learner)
        .slice(slice)
        .mode(ExecutionMode::Sequential)
        .series_capacity(512)
        .injections_per_replica(|replica| {
            if replica == 0 {
                InjectionPlanBuilder::new(4, 3, 1)
                    .inject(
                        CASCADE_SCOUT_TICK,
                        CASCADE_KIND,
                        FaultTarget::DatabaseTier,
                        0.9,
                    )
                    .build()
            } else {
                selfheal_faults::InjectionPlan::empty()
            }
        })
        .reactive(ReactiveChoice::cascade(CASCADE_KIND, 0.9, budget, 512))
}

/// Cascade propagations actually landed in an outcome's strike log.
pub fn cascade_injections(outcome: &FleetOutcome) -> usize {
    outcome
        .reactive_log()
        .iter()
        .filter(|r| matches!(r.action, ReplicaAction::Inject(_)))
        .count()
}

/// Fraction of a mix run's ticks during which demographic faults may fire;
/// the remaining tail is quiet so the healer can drain every open episode
/// before quiesce.
pub const MIX_ACTIVE_FRACTION: f64 = 0.5;

/// The demographic-mix fleet: the tiny service under constant bidding
/// load, faults generated stochastically from a [`ServiceProfile`]'s cause
/// mix at `rate` per tick over the first [`MIX_ACTIVE_FRACTION`] of the
/// run, healed by the FixSym+diagnosis hybrid (signature learning alone
/// cannot cover first-contact operator/hardware classes).
pub fn mix_fleet(
    replicas: usize,
    ticks: u64,
    seed: u64,
    profile: ServiceProfile,
    rate: f64,
    slice: u64,
) -> FleetConfig {
    let config = ServiceConfig::tiny();
    let active = (ticks as f64 * MIX_ACTIVE_FRACTION) as u64;
    FleetConfig::builder()
        .service(config.clone())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .ticks(ticks)
        .base_seed(seed)
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .learner(LearnerChoice::Locked { batch: 1 })
        .slice(slice)
        .series_capacity(512)
        .faults(FaultChoice::mix_for(profile, rate, &config).active_for(active))
}

/// Episodes still open (no recovery tick) across every replica of a fleet —
/// the "did the run quiesce healed" check mix and sweep smokes gate on.
pub fn open_episodes(outcome: &FleetOutcome) -> usize {
    outcome
        .replicas()
        .iter()
        .flat_map(|r| r.outcome.recovery.episodes())
        .filter(|e| e.recovery_ticks().is_none())
        .count()
}

/// Open episodes that are attributable to an actual fault (a primary
/// failure class was diagnosed).  Long runs grow a tail of spontaneous
/// SLO-flap episodes with no fault behind them — a flap that opens a tick
/// or two before quiesce is noise, not an unhealed fault, so
/// horizon-sensitive gates (seasons, cascade, auto-quiesced runs) count
/// only the attributable remainder.
pub fn open_fault_episodes(outcome: &FleetOutcome) -> usize {
    outcome
        .replicas()
        .iter()
        .flat_map(|r| r.outcome.recovery.episodes())
        .filter(|e| e.recovery_ticks().is_none() && e.primary_fault().is_some())
        .count()
}

/// Distinct primary failure classes across every episode of a fleet — how
/// much of the catalog a demographic or sweep run actually exercised.
pub fn distinct_fault_kinds(outcome: &FleetOutcome) -> usize {
    let kinds: std::collections::HashSet<FaultKind> = outcome
        .replicas()
        .iter()
        .flat_map(|r| r.outcome.recovery.episodes())
        .filter_map(|e| e.primary_fault())
        .collect();
    kinds.len()
}

/// Runs the staggered-fault fleet with a shared and with private learners.
pub fn cold_start_comparison(replicas: usize, seed: u64) -> ColdStartReport {
    let shared = cold_start_fleet(replicas, seed, LearnerChoice::locked());
    let isolated = cold_start_fleet(replicas, seed, LearnerChoice::Private);
    let (shared_warm_attempts, shared_warm_recovery, shared_escalations) = warm_stats(&shared);
    let (isolated_warm_attempts, isolated_warm_recovery, isolated_escalations) =
        warm_stats(&isolated);
    ColdStartReport {
        shared_warm_attempts,
        shared_warm_recovery,
        shared_escalations,
        isolated_warm_attempts,
        isolated_warm_recovery,
        isolated_escalations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_point_measures_both_modes() {
        let point = scaling_point(2, 60, 7);
        assert_eq!(point.replicas, 2);
        assert!(point.parallel_wall_s > 0.0);
        assert!(point.sequential_wall_s > 0.0);
        assert!(point.parallel_throughput > 0.0);
        assert!(point.speedup() > 0.0);
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
            report.warm_is_faster(),
            "warm {} vs cold {} mean attempts",
            report.warm_mean_attempts,
            report.cold_mean_attempts
        );
    }

    #[test]
    fn storm_victims_recover_faster_with_shared_learning() {
        let report = storm_recovery_comparison(6, 42, 1);
        assert_eq!(report.victims, 3, "50% of 6 replicas");
        assert!(report.recovered(), "shared storm run must quiesce healed");
        assert!(
            report.shared_recovers_faster(),
            "shared {:.1} ticks / {:.1} attempts vs isolated {:.1} / {:.1}",
            report.shared_mean_recovery,
            report.shared_mean_attempts,
            report.isolated_mean_recovery,
            report.isolated_mean_attempts,
        );
    }

    #[test]
    fn mix_fleet_quiesces_healed_and_reproduces_sequentially() {
        let fleet = || mix_fleet(3, 600, 42, ServiceProfile::Online, 0.02, 1);
        let sequential = fleet().mode(ExecutionMode::Sequential).run();
        assert!(sequential.is_complete());
        assert!(
            sequential.total_episodes() >= 1,
            "a 0.02-rate mix over 300 active ticks must fault somewhere"
        );
        assert_eq!(
            open_episodes(&sequential),
            0,
            "every demographic fault heals before quiesce"
        );
        let parallel = fleet()
            .mode(ExecutionMode::Parallel { threads: Some(3) })
            .run();
        assert_eq!(
            parallel.fingerprints(),
            sequential.fingerprints(),
            "mix runs are worker-count invariant"
        );
    }

    #[test]
    fn adversary_strikes_land_and_shared_learning_recovers_faster() {
        let report = adversarial_recovery_comparison(6, 42);
        assert!(
            report.struck_and_recovered(),
            "strikes shared {} (matched {}) / isolated {} (matched {}), open {} / {}",
            report.shared_strikes,
            report.shared_matched,
            report.isolated_strikes,
            report.isolated_matched,
            report.shared_open_episodes,
            report.isolated_open_episodes,
        );
        assert!(
            report.shared_recovers_faster(),
            "shared {:.1} ticks / {:.1} attempts vs isolated {:.1} / {:.1}",
            report.shared_mean_recovery,
            report.shared_mean_attempts,
            report.isolated_mean_recovery,
            report.isolated_mean_attempts,
        );
    }

    #[test]
    fn cascade_propagates_and_quiesces_healed() {
        let outcome = cascade_fleet(4, 42, LearnerChoice::locked(), 3, 64).run_to_quiescence();
        let propagated = cascade_injections(&outcome);
        assert!(
            (1..=3).contains(&propagated),
            "scout episode must seed 1..=budget propagations, got {propagated}"
        );
        let (strikes, matched, open, _, _) = reactive_strike_stats(&outcome);
        assert_eq!(strikes, propagated);
        assert!(
            matched >= 1,
            "at least one propagation opens an attributable episode"
        );
        assert_eq!(open, 0, "every attributed cascade episode heals");
    }

    #[test]
    fn seasons_fleet_faults_in_stormy_seasons_and_quiesces() {
        let outcome = seasons_fleet(3, 1024, 42, 64).run();
        assert!(
            outcome.total_episodes() >= 1,
            "a 0.06-rate stormy season must fault somewhere"
        );
        assert_eq!(open_fault_episodes(&outcome), 0);
    }

    #[test]
    fn cold_start_warm_replicas_benefit_from_sharing() {
        let report = cold_start_comparison(4, 11);
        assert!(
            report.isolated_warm_attempts > 0.0,
            "warm replicas must have episodes"
        );
        assert!(
            report.shared_warm_attempts <= report.isolated_warm_attempts,
            "shared {} vs isolated {}",
            report.shared_warm_attempts,
            report.isolated_warm_attempts
        );
        assert!(
            report.shared_warm_recovery <= report.isolated_warm_recovery,
            "shared {} vs isolated {}",
            report.shared_warm_recovery,
            report.isolated_warm_recovery
        );
    }
}
