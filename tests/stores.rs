//! Integration tests for the pluggable `SynopsisStore` layer: shard
//! equivalence, determinism, and cross-process warm starts.

use selfheal::faults::{FaultKind, FaultTarget, InjectionPlanBuilder};
use selfheal::fleet::{ExecutionMode, FleetConfig, FleetOutcome};
use selfheal::healing::harness::{LearnerChoice, PolicyChoice};
use selfheal::healing::snapshot::SynopsisSnapshot;
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;
use selfheal::workload::{ArrivalProcess, WorkloadMix};

/// A fleet whose replicas meet staggered faults, run tick-interleaved so
/// shared-learning interactions are deterministic.
fn fleet(learner: LearnerChoice) -> FleetConfig {
    FleetConfig::builder()
        .service(ServiceConfig::tiny())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(4)
        .ticks(420)
        .base_seed(77)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .learner(learner)
        .mode(ExecutionMode::Sequential)
        .injections_per_replica(|replica| {
            InjectionPlanBuilder::new(4, 3, 1)
                .inject(
                    40 + 60 * replica as u64,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .build()
        })
}

/// Mean fix attempts for the injected episode over all replicas that saw
/// one.
fn mean_attempts(outcome: &FleetOutcome) -> f64 {
    let attempts: Vec<f64> = outcome
        .replicas()
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
    assert!(!attempts.is_empty(), "no labelled episodes");
    attempts.iter().sum::<f64>() / attempts.len() as f64
}

/// Sharded learning with k >= 4 is deterministic under sequential execution:
/// the same seed reproduces every replica bit-for-bit, and a different seed
/// does not (so the fingerprints actually discriminate).
#[test]
fn sharded_fleet_runs_are_deterministic() {
    let a = fleet(LearnerChoice::sharded(4)).run();
    let b = fleet(LearnerChoice::sharded(4)).run();
    assert_eq!(a.fingerprints(), b.fingerprints());

    let c = fleet(LearnerChoice::sharded(4)).base_seed(78).run();
    assert_ne!(a.fingerprints(), c.fingerprints());

    // The store really is sharded and really learned.
    let store = a.store().expect("sharded fleet exposes its store");
    assert!(store.correct_fixes_learned() >= 1);
    assert_eq!(store.pending_updates(), 0, "flushed after the run");
}

/// The acceptance criterion end to end, entirely through the public API: a
/// fleet warm-started from a previous fleet's saved (JSON-lines
/// round-tripped) synopsis recovers in measurably fewer mean fix attempts
/// than the identical cold fleet, for both locked and k>=4 sharded stores.
#[test]
fn warm_started_fleets_recover_in_fewer_attempts_than_cold_ones() {
    for learner in [LearnerChoice::locked(), LearnerChoice::sharded(4)] {
        // Healed-outcome comparison: let the horizon, not a hand-tuned tick
        // count, decide when every episode has had time to close.
        let cold = fleet(learner).run_to_quiescence();
        let snapshot = cold.store().expect("learning fleet").snapshot();
        assert!(snapshot.positives() >= 1, "cold fleet learned successes");

        // Round-trip through the codec, exactly as --save/--load-synopsis do.
        let restored =
            SynopsisSnapshot::from_jsonl(&snapshot.to_jsonl()).expect("codec round trip");
        assert_eq!(restored, snapshot);

        let warm = fleet(learner).warm_start(restored).run_to_quiescence();
        let (cold_attempts, warm_attempts) = (mean_attempts(&cold), mean_attempts(&warm));
        assert!(
            warm_attempts < cold_attempts,
            "{}: warm {warm_attempts} vs cold {cold_attempts} mean fix attempts",
            learner.label()
        );
    }
}

/// Regression test: a snapshot taken while updates are still queued (fewer
/// than `batch`, so no drain has triggered) must flush them first — a saved
/// synopsis may never silently drop experience.
#[test]
fn snapshots_flush_queued_updates_instead_of_dropping_them() {
    use selfheal::faults::FixKind;
    use selfheal::healing::store::{ShardedStore, SynopsisStore};
    use selfheal::healing::synopsis::Learner;

    for shards in [1, 4] {
        // A batch threshold far above the update count: everything stays
        // queued until something flushes.
        let mut store = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, shards, 64);
        store.record(&[8.0, 1.0, 1.0], FixKind::RepartitionMemory, true);
        store.record(&[1.0, 9.0, 1.0], FixKind::MicrorebootEjb, true);
        store.record(&[1.0, 1.0, 7.0], FixKind::UpdateStatistics, false);
        assert_eq!(store.pending_updates(), 3, "updates queued, not drained");

        let snapshot = store.snapshot();
        assert_eq!(store.pending_updates(), 0, "snapshot flushed the queue");
        assert_eq!(snapshot.positives(), 2, "queued successes captured");
        assert_eq!(snapshot.negatives(), 1, "queued failures captured");

        // The queued experience survives a restore elsewhere.
        let mut restored = ShardedStore::new(SynopsisKind::NearestNeighbor, 1);
        restored.restore(&snapshot);
        assert_eq!(
            restored.suggest(&[8.0, 1.0, 1.0]).map(|(fix, _)| fix),
            Some(FixKind::RepartitionMemory)
        );
    }
}

/// Warm starts cross store layouts: experience saved by a locked fleet
/// restores into a sharded fleet (and into per-replica private stores) and
/// still pays off.
#[test]
fn snapshots_transfer_between_store_layouts() {
    let cold = fleet(LearnerChoice::locked()).run();
    let cold_attempts = mean_attempts(&cold);
    let snapshot = cold.store().expect("learning fleet").snapshot();

    let warm_sharded = fleet(LearnerChoice::sharded(4))
        .warm_start(snapshot.clone())
        .run();
    assert!(
        mean_attempts(&warm_sharded) < cold_attempts,
        "locked -> sharded transfer"
    );

    let warm_private = fleet(LearnerChoice::Private).warm_start(snapshot).run();
    assert!(
        mean_attempts(&warm_private) < cold_attempts,
        "locked -> private transfer"
    );
}
