//! Fleet-level integration tests: determinism of replica streams and the
//! value of fleet-shared learning.

use selfheal::faults::{FaultKind, FaultTarget, InjectionPlan, InjectionPlanBuilder};
use selfheal::fleet::{ExecutionMode, FleetConfig};
use selfheal::healing::harness::{
    FaultChoice, LearnerChoice, PolicyChoice, SelfHealingService, WorkloadChoice,
};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::seeds::{split_seed, SeedStream};
use selfheal::sim::ServiceConfig;
use selfheal::workload::{
    ArrivalProcess, RecordedTrace, ReplayMode, ReplaySource, TraceGenerator, WorkloadMix,
};

fn fleet(replicas: usize, ticks: u64) -> FleetConfig {
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(replicas)
        .ticks(ticks)
        .base_seed(77)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .faults_per_replica(|replica| {
            FaultChoice::Scripted(
                InjectionPlanBuilder::new()
                    .inject(
                        30 + 10 * replica as u64,
                        FaultKind::BufferContention,
                        FaultTarget::DatabaseTier,
                        0.9,
                    )
                    .build(),
            )
        })
}

/// The same seed must reproduce a scenario bit-for-bit: every metric value,
/// every episode, every counter.
#[test]
fn same_seed_gives_byte_identical_scenario_outcomes() {
    let run = || {
        SelfHealingService::builder()
            .config(ServiceConfig::tiny())
            .faults(FaultChoice::Scripted(
                InjectionPlanBuilder::new()
                    .inject(
                        40,
                        FaultKind::BufferContention,
                        FaultTarget::DatabaseTier,
                        0.9,
                    )
                    .build(),
            ))
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .seed(23)
            .run(300)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.fingerprint(), b.fingerprint());
    // A different seed must actually change the run, or the fingerprint
    // would be vacuous.
    let c = SelfHealingService::builder()
        .config(ServiceConfig::tiny())
        .faults(FaultChoice::Scripted(
            InjectionPlanBuilder::new()
                .inject(
                    40,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .build(),
        ))
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .seed(24)
        .run(300);
    assert_ne!(a.fingerprint(), c.fingerprint());
}

/// Two isolated fleet runs with the same base seed agree replica-by-replica.
#[test]
fn same_seed_gives_byte_identical_fleet_outcomes() {
    let a = fleet(3, 250).run();
    let b = fleet(3, 250).run();
    assert_eq!(a.fingerprints(), b.fingerprints());
}

/// With isolated learning, replica `i`'s outcome is a pure function of
/// `(base_seed, i)` — growing the fleet or changing the thread count must
/// not change what an existing replica experiences.
#[test]
fn replica_outcomes_are_independent_of_fleet_size_and_interleaving() {
    let small = fleet(2, 250)
        .mode(ExecutionMode::Parallel { threads: Some(2) })
        .run();
    let large = fleet(5, 250)
        .mode(ExecutionMode::Parallel { threads: Some(3) })
        .run();
    let interleaved = fleet(5, 250).mode(ExecutionMode::Sequential).run();

    let small_prints = small.fingerprints();
    let large_prints = large.fingerprints();
    let interleaved_prints = interleaved.fingerprints();
    assert_eq!(
        small_prints[..2],
        large_prints[..2],
        "fleet size must not leak into replicas"
    );
    assert_eq!(
        large_prints, interleaved_prints,
        "thread interleaving must not leak either"
    );
}

/// The paper's fleet-scaling argument, end to end: after replica 0 has
/// healed a fault kind, a replica meeting the same kind later recovers with
/// fewer trial-and-error attempts when the synopsis is shared than when
/// every replica learns alone.
#[test]
fn shared_synopsis_warm_starts_later_replicas() {
    let staggered = |replica: usize| {
        InjectionPlanBuilder::new()
            .inject(
                100 + 500 * replica as u64,
                FaultKind::BufferContention,
                FaultTarget::DatabaseTier,
                0.9,
            )
            .build()
    };
    let build = |learner| {
        FleetConfig::builder()
            .service(ServiceConfig::tiny())
            .synthetic_workload(
                WorkloadMix::bidding(),
                ArrivalProcess::Constant { rate: 40.0 },
            )
            .replicas(6)
            .base_seed(77)
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .learner(learner)
            // Tick-interleaved so "later replica" is true by construction.
            .mode(ExecutionMode::Sequential)
            .faults_per_replica(move |replica| FaultChoice::Scripted(staggered(replica)))
            // The last stagger lands at tick 2600; auto-quiesce runs one
            // healing tail past it instead of hand-tuning the length.
            .run_to_quiescence()
    };

    let shared = build(LearnerChoice::locked());
    let isolated = build(LearnerChoice::Private);

    // Attempts needed for the injected episode on the warm replicas (1..6).
    // A replica is skipped if an unrelated SLO flap was already open when
    // its fault landed (the flap episode absorbs it without ground-truth
    // labels); enough replicas remain for a meaningful mean.
    let warm_attempts = |outcome: &selfheal::fleet::FleetOutcome| -> f64 {
        let attempts: Vec<f64> = outcome.replicas()[1..]
            .iter()
            .filter_map(|replica| {
                replica
                    .outcome
                    .recovery
                    .episodes()
                    .iter()
                    .find(|e| e.primary_fault() == Some(FaultKind::BufferContention))
                    .map(|e| e.fixes_attempted.len() as f64)
            })
            .collect();
        assert!(
            attempts.len() >= 3,
            "too few labelled warm episodes: {}",
            attempts.len()
        );
        attempts.iter().sum::<f64>() / attempts.len() as f64
    };

    let shared_attempts = warm_attempts(&shared);
    let isolated_attempts = warm_attempts(&isolated);
    assert!(
        shared_attempts < isolated_attempts,
        "shared learning must cut warm-replica trial-and-error: shared {shared_attempts} vs \
         isolated {isolated_attempts}"
    );

    // The shared model saw every replica's episodes.
    let store = shared
        .store()
        .expect("shared topology exposes the fleet store");
    assert!(
        store.correct_fixes_learned() >= 6,
        "one success per replica at minimum, got {}",
        store.correct_fixes_learned()
    );
}

/// The record/replay contract of the workload redesign: a scenario driven by
/// a synthetic `TraceGenerator`, saved to a JSON-lines trace file, loaded
/// back, and replayed through a `ReplaySource` produces a byte-identical
/// `ScenarioOutcome::fingerprint()`.
#[test]
fn recorded_trace_replays_byte_identically() {
    let mix = WorkloadMix::bidding();
    let arrivals = ArrivalProcess::Poisson { rate: 40.0 };
    let plan = InjectionPlanBuilder::new()
        .inject(
            40,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        )
        .build();
    let scenario = |workload: WorkloadChoice| {
        SelfHealingService::builder()
            .config(ServiceConfig::tiny())
            .workload_choice(workload)
            .faults(FaultChoice::Scripted(plan.clone()))
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .seed(23)
            .run(300)
    };

    let synthetic = scenario(WorkloadChoice::synthetic(mix.clone(), arrivals.clone()));

    // Record the exact same generator, write it to a JSON-lines file, read
    // it back, and replay it.
    let mut generator = TraceGenerator::new(mix, arrivals, 23);
    let trace = RecordedTrace::capture(&mut generator, 300);
    let path =
        std::env::temp_dir().join(format!("selfheal-fleet-trace-{}.jsonl", std::process::id()));
    trace.save(&path).expect("write the trace");
    let parsed = RecordedTrace::load(&path).expect("read the trace back");
    std::fs::remove_file(&path).unwrap();
    assert_eq!(parsed, trace, "load ∘ save must be the identity");

    let replayed = scenario(WorkloadChoice::replay(parsed, ReplayMode::Truncate, 0));
    assert_eq!(
        synthetic.fingerprint(),
        replayed.fingerprint(),
        "replaying a recorded trace must be byte-identical to the synthetic run"
    );
}

/// Phase-shifted replay keeps fleet determinism: with isolated learning,
/// replica `i` of a replay fleet is byte-identical to a standalone run built
/// from the same `(seed, phase)` pair — fleet size and scheduling leak
/// nothing, and the phase shifts actually differentiate the replicas.
#[test]
fn phase_shifted_replay_replicas_match_their_standalone_equivalents() {
    let base_seed = 77u64;
    let replicas = 3usize;
    let ticks = 250u64;
    let phase_step = 40u64;
    let plan = |replica: usize| {
        InjectionPlanBuilder::new()
            .inject(
                30 + 10 * replica as u64,
                FaultKind::BufferContention,
                FaultTarget::DatabaseTier,
                0.9,
            )
            .build()
    };

    let mut generator = TraceGenerator::new(
        WorkloadMix::bidding(),
        ArrivalProcess::Poisson { rate: 40.0 },
        split_seed(base_seed, 0, SeedStream::Workload),
    );
    let trace = RecordedTrace::capture(&mut generator, 400);
    let choice = WorkloadChoice::replay(trace.clone(), ReplayMode::Loop, phase_step);

    let fleet = FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .workload(choice)
        .replicas(replicas)
        .ticks(ticks)
        .base_seed(base_seed)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .faults_per_replica(move |replica| FaultChoice::Scripted(plan(replica)))
        .run();
    let fleet_prints = fleet.fingerprints();

    let standalone_prints: Vec<u64> = (0..replicas)
        .map(|replica| {
            let mut config = ServiceConfig::tiny();
            config.seed = split_seed(base_seed, replica as u64, SeedStream::Service);
            SelfHealingService::builder()
                .config(config)
                .workload(
                    ReplaySource::new(trace.clone(), ReplayMode::Loop)
                        .with_phase(replica as u64 * phase_step),
                )
                .faults(FaultChoice::Scripted(plan(replica)))
                .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
                .run(ticks)
                .fingerprint()
        })
        .collect();

    assert_eq!(
        fleet_prints, standalone_prints,
        "each phase-shifted replica must equal its (seed, phase) standalone run"
    );
    // The phase shift must actually differentiate replicas: they share one
    // trace, so identical fingerprints would mean the shift is ignored.
    assert_ne!(fleet_prints[0], fleet_prints[1]);
    assert_ne!(fleet_prints[1], fleet_prints[2]);

    // Sanity: with phase_step 0 and identical plans the replicas only
    // differ through their service seeds, not the workload.
    let aligned = FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .workload(WorkloadChoice::replay(trace, ReplayMode::Loop, 0))
        .replicas(2)
        .ticks(ticks)
        .base_seed(base_seed)
        .faults(FaultChoice::Scripted(InjectionPlan::empty()))
        .run();
    assert_eq!(aligned.replicas().len(), 2);
    let (a, b) = (
        &aligned.replicas()[0].outcome,
        &aligned.replicas()[1].outcome,
    );
    assert_eq!(a.arrived, b.arrived, "aligned replicas see the same trace");
}

/// Regression test for the AdaBoost class-score iteration-order leak: the
/// ensemble synopsis ranks per-class vote scores when re-suggesting fixes,
/// and those scores used to ride on `HashMap` iteration order (randomized
/// per map instance), so two identically configured fleets could diverge.
/// With `BTreeMap`-backed scores, repeated shared-learning AdaBoost runs
/// must be fingerprint-identical.
#[test]
fn adaboost_fleets_are_fingerprint_deterministic_across_runs() {
    let run = || {
        fleet(3, 320)
            .policy(PolicyChoice::FixSym(SynopsisKind::AdaBoost(20)))
            .learner(LearnerChoice::Locked { batch: 4 })
            .mode(ExecutionMode::Sequential)
            .run()
            .fingerprints()
    };
    let first = run();
    assert_eq!(first, run(), "same config must reproduce bit-for-bit");
}
