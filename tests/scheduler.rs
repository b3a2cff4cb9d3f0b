//! Fingerprint-equivalence suite for the tick-sliced fleet scheduler:
//! parallel execution must reproduce the sequential round-robin interleave
//! for shared stores, fault storms must be deterministic at any worker
//! count, and slice width must be invisible to private learners.

use selfheal::faults::{FaultKind, FaultTarget, InjectionPlanBuilder, StormSpec};
use selfheal::fleet::{ExecutionMode, FleetConfig};
use selfheal::healing::harness::{EventChoice, FaultChoice, LearnerChoice, PolicyChoice};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;
use selfheal::workload::{ArrivalProcess, WorkloadMix};

/// A learning fleet with staggered per-replica injections *and* a mid-run
/// fault storm — the busiest deterministic scenario the scheduler faces.
fn stormy_fleet(replicas: usize, ticks: u64, learner: LearnerChoice) -> FleetConfig {
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
        .learner(learner)
        .faults_per_replica(|replica| {
            FaultChoice::Scripted(
                InjectionPlanBuilder::new()
                    .inject(
                        40 + 30 * replica as u64,
                        FaultKind::BufferContention,
                        FaultTarget::DatabaseTier,
                        0.9,
                    )
                    .build(),
            )
        })
        .event(EventChoice::storm(
            ticks / 2,
            FaultKind::DeadlockedThreads,
            0.5,
        ))
}

/// The tentpole acceptance criterion: with one fleet-shared store, the
/// tick-sliced parallel scheduler produces fingerprints identical to
/// `run_sequential`'s round-robin interleave — at every worker count,
/// whether or not it divides the fleet.
#[test]
fn tick_sliced_parallel_matches_sequential_with_a_shared_store() {
    for replicas in [4, 5] {
        let sequential = stormy_fleet(replicas, 320, LearnerChoice::locked())
            .mode(ExecutionMode::Sequential)
            .run();
        assert!(sequential.is_complete());
        let reference = sequential.fingerprints();
        assert!(
            sequential.total_fixes_initiated() >= 4,
            "the scenario must actually exercise shared learning"
        );

        for workers in [1, 2, 3, 4] {
            let parallel = stormy_fleet(replicas, 320, LearnerChoice::locked())
                .mode(ExecutionMode::Parallel {
                    threads: Some(workers),
                })
                .run();
            assert_eq!(
                parallel.fingerprints(),
                reference,
                "{workers} workers on {replicas} replicas must reproduce the sequential \
                 interleave"
            );
        }
    }
}

/// The same equivalence holds at wider slices, as long as both modes use
/// the same width (the store then observes the slice-interleaved sweep) —
/// also when the workers do not divide the replicas and the slice does not
/// divide the horizon.
#[test]
fn parallel_and_sequential_agree_at_any_matching_slice_width() {
    for (replicas, ticks) in [(3, 300), (4, 310), (5, 310)] {
        for slice in [4, 7, 64] {
            let sequential = stormy_fleet(replicas, ticks, LearnerChoice::locked())
                .slice(slice)
                .mode(ExecutionMode::Sequential)
                .run();
            let parallel = stormy_fleet(replicas, ticks, LearnerChoice::locked())
                .slice(slice)
                .mode(ExecutionMode::Parallel { threads: Some(3) })
                .run();
            assert_eq!(
                parallel.fingerprints(),
                sequential.fingerprints(),
                "{replicas} replicas x {ticks} ticks, slice {slice}"
            );
        }
    }
}

/// Fault storms strike a deterministic, evenly spread fraction of the
/// fleet, identically at every worker count.
#[test]
fn fault_storms_are_deterministic_across_worker_counts() {
    let run = |workers: Option<usize>| {
        FleetConfig::builder()
            .service(ServiceConfig::tiny())
            .synthetic_workload(
                WorkloadMix::bidding(),
                ArrivalProcess::Constant { rate: 40.0 },
            )
            .replicas(6)
            .ticks(260)
            .base_seed(11)
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .learner(LearnerChoice::locked())
            .event(EventChoice::storm(80, FaultKind::BufferContention, 0.5))
            .mode(match workers {
                Some(w) => ExecutionMode::Parallel { threads: Some(w) },
                None => ExecutionMode::Sequential,
            })
            .run()
    };

    let reference = run(None);
    let victims = StormSpec::new(FaultKind::BufferContention, 0.9, 0.5).victims(6);
    assert_eq!(victims.len(), 3, "50% of 6 replicas");
    for replica in reference.replicas() {
        let hit = replica
            .outcome
            .recovery
            .episodes()
            .iter()
            .any(|e| e.primary_fault() == Some(FaultKind::BufferContention));
        assert_eq!(
            hit,
            victims.contains(&replica.replica),
            "replica {} vs victim set {victims:?}",
            replica.replica
        );
    }

    let reference_prints = reference.fingerprints();
    for workers in [1, 2, 4] {
        assert_eq!(
            run(Some(workers)).fingerprints(),
            reference_prints,
            "storm outcome must not depend on {workers}-worker scheduling"
        );
    }
}

/// With private learners, replicas are independent, so the slice width (and
/// with it the epoch structure) must be invisible: exact-tick event
/// application keeps storms and surges identical at any width.
#[test]
fn slice_width_is_invariant_for_private_learners() {
    let run = |slice: u64| {
        stormy_fleet(3, 280, LearnerChoice::Private)
            .event(EventChoice::surge(120, 40, 2.5))
            .slice(slice)
            .mode(ExecutionMode::Parallel { threads: Some(2) })
            .run()
            .fingerprints()
    };
    let reference = run(1);
    for slice in [7, 64, 280, 100_000] {
        assert_eq!(run(slice), reference, "slice {slice}");
    }
}

/// A fleet-wide surge amplifies every replica's traffic inside the window —
/// and nothing outside it.
#[test]
fn workload_surges_amplify_traffic_fleet_wide() {
    let fleet = |factor: f64| {
        let mut config = FleetConfig::builder()
            .service(ServiceConfig::tiny())
            .synthetic_workload(
                WorkloadMix::bidding(),
                ArrivalProcess::Constant { rate: 40.0 },
            )
            .replicas(3)
            .ticks(200)
            .base_seed(5);
        if factor > 1.0 {
            config = config.event(EventChoice::surge(100, 50, factor));
        }
        config.run()
    };
    let calm = fleet(1.0);
    let surged = fleet(3.0);
    for (calm_replica, surged_replica) in calm.replicas().iter().zip(surged.replicas()) {
        // 50 surged ticks at 3x on a constant 40/tick load: 4000 extra.
        let extra = surged_replica.outcome.arrived - calm_replica.outcome.arrived;
        assert_eq!(
            extra, 4000,
            "replica {} surge overlay",
            calm_replica.replica
        );
    }
}

/// Storm + warm start, end to end: a fleet that already knows the storm's
/// signature (from a previous fleet's snapshot) heals a 50% storm with
/// fewer fix attempts than a cold fleet — the paper's sharing argument
/// under correlated failures.
#[test]
fn warm_started_fleets_shrug_off_a_storm() {
    let storm_kind = FaultKind::BufferContention;
    let fleet = || {
        FleetConfig::builder()
            .service(ServiceConfig::tiny())
            .synthetic_workload(
                WorkloadMix::bidding(),
                ArrivalProcess::Constant { rate: 40.0 },
            )
            .replicas(4)
            .ticks(420)
            .base_seed(9)
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .learner(LearnerChoice::locked())
            .event(EventChoice::storm(120, storm_kind, 0.5))
    };
    // Healed-outcome comparison: auto-quiesce past the storm instead of
    // hand-tuning the run length.
    let cold = fleet().run_to_quiescence();
    assert!(cold.is_complete());
    let snapshot = cold.store().expect("learning fleet").snapshot();
    assert!(snapshot.positives() >= 1, "the cold fleet healed the storm");

    let warm = fleet().warm_start(snapshot).run_to_quiescence();
    let victim_attempts = |outcome: &selfheal::fleet::FleetOutcome| -> f64 {
        let attempts: Vec<f64> = outcome
            .replicas()
            .iter()
            .filter_map(|replica| {
                replica
                    .outcome
                    .recovery
                    .episodes()
                    .iter()
                    .find(|e| e.primary_fault() == Some(storm_kind))
                    .map(|e| e.fixes_attempted.len() as f64)
            })
            .collect();
        assert!(!attempts.is_empty(), "storm victims must have episodes");
        attempts.iter().sum::<f64>() / attempts.len() as f64
    };
    assert!(
        victim_attempts(&warm) <= victim_attempts(&cold),
        "warm {} vs cold {} attempts",
        victim_attempts(&warm),
        victim_attempts(&cold)
    );
}
