//! Integration tests for the pluggable `SynopsisStore` layer: queued
//! updates, restarts over a log, and cross-process warm starts.

use selfheal::daemon::PooledStore;
use selfheal::faults::{FaultKind, FaultTarget, FixKind, InjectionPlanBuilder};
use selfheal::fleet::{ExecutionMode, FleetConfig, FleetOutcome};
use selfheal::healing::harness::{FaultChoice, LearnerChoice, PolicyChoice};
use selfheal::healing::snapshot::SynopsisSnapshot;
use selfheal::healing::store::SynopsisStore;
use selfheal::healing::synopsis::{FixExclusions, Learner, SynopsisKind};
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
        .faults_per_replica(|replica| {
            FaultChoice::Scripted(
                InjectionPlanBuilder::new()
                    .inject(
                        40 + 60 * replica as u64,
                        FaultKind::BufferContention,
                        FaultTarget::DatabaseTier,
                        0.9,
                    )
                    .build(),
            )
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

/// The acceptance criterion end to end, entirely through the public API: a
/// fleet warm-started from a previous fleet's saved (JSON-lines
/// round-tripped) synopsis recovers in measurably fewer mean fix attempts
/// than the identical cold fleet.
#[test]
fn warm_started_fleets_recover_in_fewer_attempts_than_cold_ones() {
    // Healed-outcome comparison: let the horizon, not a hand-tuned tick
    // count, decide when every episode has had time to close.
    let cold = fleet(LearnerChoice::locked()).run_to_quiescence();
    let snapshot = cold.store().expect("learning fleet").snapshot();
    assert!(snapshot.positives() >= 1, "cold fleet learned successes");

    // Round-trip through the codec a saved synopsis file uses.
    let restored = SynopsisSnapshot::from_jsonl(&snapshot.to_jsonl()).expect("codec round trip");
    assert_eq!(restored, snapshot);

    let warm = fleet(LearnerChoice::locked())
        .warm_start(restored)
        .run_to_quiescence();
    let (cold_attempts, warm_attempts) = (mean_attempts(&cold), mean_attempts(&warm));
    assert!(
        warm_attempts < cold_attempts,
        "warm {warm_attempts} vs cold {cold_attempts} mean fix attempts"
    );
}

/// `FleetConfig::persist_synopsis` streams every drained batch to its log as
/// the fleet runs, so once the fleet quiesces the file holds every outcome
/// the store holds.
#[test]
fn a_persisted_synopsis_log_holds_every_outcome_of_the_store() {
    let path = std::env::temp_dir().join(format!(
        "selfheal-stores-persist-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let outcome = fleet(LearnerChoice::locked())
        .mode(ExecutionMode::Parallel { threads: Some(2) })
        .persist_synopsis(&path)
        .run();
    let held = outcome
        .store()
        .expect("locked fleet exposes its store")
        .snapshot();
    let logged = SynopsisSnapshot::load(&path).expect("the log re-loads");
    std::fs::remove_file(&path).unwrap();
    assert_eq!(
        logged.len(),
        held.len(),
        "the log holds what the store holds"
    );
    assert!(logged.positives() >= 1, "the fleet logged a successful fix");
}

/// Regression test: a snapshot taken while updates are still queued (fewer
/// than `batch`, so no drain has triggered) must flush them first — a saved
/// synopsis may never silently drop experience.
#[test]
fn snapshots_flush_queued_updates_instead_of_dropping_them() {
    use selfheal::faults::FixKind;
    use selfheal::healing::store::{BatchedStore, SynopsisStore};
    use selfheal::healing::synopsis::Learner;

    // A batch threshold far above the update count: everything stays
    // queued until something flushes.
    let mut store = BatchedStore::new(SynopsisKind::NearestNeighbor, 64);
    store.record(&[8.0, 1.0, 1.0], FixKind::RepartitionMemory, true);
    store.record(&[1.0, 9.0, 1.0], FixKind::MicrorebootEjb, true);
    store.record(&[1.0, 1.0, 7.0], FixKind::UpdateStatistics, false);
    assert_eq!(store.pending_updates(), 3, "updates queued, not drained");

    let snapshot = store.snapshot();
    assert_eq!(store.pending_updates(), 0, "snapshot flushed the queue");
    assert_eq!(snapshot.positives(), 2, "queued successes captured");
    assert_eq!(snapshot.negatives(), 1, "queued failures captured");

    // The queued experience survives a restore elsewhere.
    let mut restored =
        BatchedStore::new(SynopsisKind::NearestNeighbor, BatchedStore::DEFAULT_BATCH);
    restored.restore(&snapshot);
    assert_eq!(
        restored.suggest(&[8.0, 1.0, 1.0]).map(|(fix, _)| fix),
        Some(FixKind::RepartitionMemory)
    );
}

/// Warm starts cross store layouts: experience saved by a locked fleet
/// restores into a locked fleet that drains every record (and into
/// per-replica private stores) and still pays off.
#[test]
fn snapshots_transfer_between_store_layouts() {
    let cold = fleet(LearnerChoice::locked()).run();
    let cold_attempts = mean_attempts(&cold);
    let snapshot = cold.store().expect("learning fleet").snapshot();

    let warm_unbatched = fleet(LearnerChoice::Locked { batch: 1 })
        .warm_start(snapshot.clone())
        .run();
    assert!(
        mean_attempts(&warm_unbatched) < cold_attempts,
        "batch 4 -> batch 1 transfer"
    );

    let warm_private = fleet(LearnerChoice::Private).warm_start(snapshot).run();
    assert!(
        mean_attempts(&warm_private) < cold_attempts,
        "locked -> private transfer"
    );
}

/// Restart equivalence: a store that adopted a live log — restored from
/// [`SnapshotLog::open`]'s replay, then handed the open file — is the store
/// a fresh one restored from [`SynopsisSnapshot::load`] of the same file
/// is, drained on every record or in batches of three and under the
/// daemon's cross-tenant wrapper; adopting writes nothing, and what the
/// adopted store learns next lands behind the bytes already there once it
/// drains.
#[test]
fn a_store_that_adopted_a_log_equals_one_restored_from_it() {
    use selfheal::daemon::PooledStore;
    use selfheal::faults::FixKind;
    use selfheal::healing::snapshot::SnapshotLog;
    use selfheal::healing::store::SynopsisStore;

    let build = |layout: &str| -> Box<dyn SynopsisStore> {
        let kind = SynopsisKind::NearestNeighbor;
        let locked = || LearnerChoice::Locked { batch: 1 }.build_store(kind);
        match layout {
            "locked" => locked(),
            "locked_3" => LearnerChoice::Locked { batch: 3 }.build_store(kind),
            _ => Box::new(PooledStore::new(locked(), locked())),
        }
    };

    const FIXES: [FixKind; 3] = [
        FixKind::RepartitionMemory,
        FixKind::MicrorebootEjb,
        FixKind::UpdateStatistics,
    ];
    // Three failure modes, jittered so no two signatures coincide.
    let signature = |i: usize| {
        let mut symptoms = vec![1.0, 1.0, 1.0];
        symptoms[i % 3] = 8.0 + (i / 3) as f64 * 0.01;
        symptoms
    };
    let dir = std::env::temp_dir().join(format!("selfheal-stores-adopt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for layout in ["locked", "locked_3", "pooled"] {
        // The log as a live store of this layout leaves it: created empty,
        // appended drain by drain, successes and failures interleaved.
        let path = dir.join(format!("{layout}.jsonl"));
        let mut writer = build(layout);
        writer.persist_to(&path).unwrap();
        for i in 0..90 {
            writer.record(&signature(i), FIXES[(i + i / 7) % 3], i % 5 != 0);
        }
        writer.flush();
        drop(writer);
        let before = std::fs::read(&path).unwrap();

        let replay = SnapshotLog::open(&path).unwrap();
        assert_eq!(replay.snapshot.len(), 90, "{layout}");
        let mut adopted = build(layout);
        adopted.restore(&replay.snapshot);
        adopted
            .attach_log(replay.log.expect("an incremental log"))
            .unwrap();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "{layout}: nothing written"
        );

        let mut restored = build(layout);
        restored.restore(&SynopsisSnapshot::load(&path).unwrap());
        assert_eq!(adopted.snapshot(), restored.snapshot(), "{layout}");
        assert_eq!(adopted.fix_stats(), restored.fix_stats(), "{layout}");
        let probes = [
            signature(0),
            signature(40),
            signature(83),
            vec![4.0, 4.0, 4.0],
        ];
        for probe in &probes {
            assert_eq!(adopted.suggest(probe), restored.suggest(probe), "{layout}");
        }
        assert!(
            adopted.suggest(&probes[0]).is_some(),
            "{layout}: it did learn"
        );

        adopted.record(&[2.0, 2.0, 2.0], FixKind::RebootTier, true);
        if layout == "locked_3" {
            assert_eq!(adopted.pending_updates(), 1, "queued until the batch fills");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                before,
                "a queued update is not yet logged"
            );
        }
        adopted.flush();
        let after = std::fs::read(&path).unwrap();
        assert!(
            after.len() > before.len() && after.starts_with(&before),
            "{layout}"
        );
        let reloaded = SynopsisSnapshot::load(&path).unwrap();
        assert_eq!(
            reloaded.examples[..90],
            replay.snapshot.examples[..],
            "{layout}"
        );
        assert_eq!(reloaded.examples[90].fix, FixKind::RebootTier, "{layout}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failures are a bounded memory (`NEGATIVES_KEPT` examples per synopsis,
/// exact counts per fix), and a restart keeps it what it was: a store that
/// replays the log another wrote holds the writer's counts and the writer's
/// examples in the writer's order — below the ring's size, at it, and after
/// it has turned over.
#[test]
fn a_restarted_store_remembers_the_failures_its_writer_did() {
    use selfheal::healing::snapshot::SnapshotLog;
    use selfheal::healing::synopsis::NEGATIVES_KEPT;

    let build = |layout: &str| -> Box<dyn SynopsisStore> {
        let kind = SynopsisKind::NearestNeighbor;
        match layout {
            "private" => LearnerChoice::Private.build_store(kind),
            _ => LearnerChoice::Locked { batch: 3 }.build_store(kind),
        }
    };
    const FIXES: [FixKind; 3] = [
        FixKind::RebootTier,
        FixKind::MicrorebootEjb,
        FixKind::FullServiceRestart,
    ];
    let dir = std::env::temp_dir().join(format!("selfheal-stores-ring-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    for layout in ["private", "locked"] {
        for failures in [NEGATIVES_KEPT - 1, NEGATIVES_KEPT, 2 * NEGATIVES_KEPT + 7] {
            let what = format!("{layout}, {failures} failures");
            let path = dir.join(format!("{layout}-{failures}.jsonl"));
            let mut writer = build(layout);
            writer.persist_to(&path).unwrap();
            for i in 0..failures {
                // Every signature differs, so which examples are held shows.
                writer.record(&[i as f64, 1.0, 2.0], FIXES[i % 3], false);
                if i % 50 == 0 {
                    writer.record(&[8.0, i as f64, 1.0], FIXES[i % 3], true);
                }
            }
            writer.flush();
            let kept = failures.min(NEGATIVES_KEPT);
            assert_eq!(writer.failure_memory(), (failures, kept), "{what}");
            let held = writer.snapshot();
            assert_eq!(held.negatives(), kept, "{what}");
            let oldest = held.examples.iter().find(|e| !e.success).unwrap();
            assert_eq!(oldest.symptoms[0], (failures - kept) as f64, "{what}");
            let counted: usize = writer.fix_stats().iter().map(|s| s.failures).sum();
            assert_eq!(counted, failures, "{what}: counts are exact");

            let replay = SnapshotLog::open(&path).unwrap();
            assert_eq!(
                replay.snapshot.negatives(),
                failures,
                "{what}: the log has all"
            );
            let mut restarted = build(layout);
            restarted.restore(&replay.snapshot);
            assert_eq!(restarted.snapshot(), held, "{what}");
            assert_eq!(restarted.fix_stats(), writer.fix_stats(), "{what}");
            assert_eq!(restarted.failure_memory(), (failures, kept), "{what}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A store written against the seven required `SynopsisStore` methods alone,
/// as the benchmark's timing wrapper is: every provided method keeps the
/// trait's default body.
struct Forwarding(Box<dyn SynopsisStore>);
impl Learner for Forwarding {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        self.0.suggest(symptoms)
    }
    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &FixExclusions,
    ) -> Option<(FixKind, f64)> {
        self.0.suggest_excluding(symptoms, excluded)
    }
    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        self.0.record(symptoms, fix, success);
    }
    fn correct_fixes_learned(&self) -> usize {
        self.0.correct_fixes_learned()
    }
}
impl SynopsisStore for Forwarding {
    fn kind(&self) -> SynopsisKind {
        self.0.kind()
    }
    fn flush(&self) {
        self.0.flush();
    }
    fn pending_updates(&self) -> usize {
        self.0.pending_updates()
    }
    fn snapshot(&self) -> SynopsisSnapshot {
        self.0.snapshot()
    }
    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        self.0.restore(snapshot);
    }
    fn clone_store(&self) -> Box<dyn SynopsisStore> {
        Box::new(Forwarding(self.0.clone_store()))
    }
    fn persist_to(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        self.0.persist_to(path)
    }
}

/// `QUERY FIXES` counts the experience where it lies.  Each override must
/// answer what the trait's snapshot-derived default answers — queued updates
/// included — and a pooled handle must answer for its tenant alone.
#[test]
fn fix_stats_counted_in_place_equal_the_snapshot_derived_default() {
    let kind = SynopsisKind::NearestNeighbor;
    let outcomes = [
        (vec![8.0, 1.0, 1.0], FixKind::RepartitionMemory, true),
        (vec![1.0, 9.0, 1.0], FixKind::MicrorebootEjb, false),
        (vec![1.0, 9.0, 1.2], FixKind::MicrorebootEjb, true),
        (vec![1.0, 1.0, 7.0], FixKind::UpdateStatistics, false),
        (vec![1.1, 1.0, 7.0], FixKind::UpdateStatistics, false),
        (vec![8.0, 1.0, 1.1], FixKind::FullServiceRestart, true),
        (vec![1.0, 9.1, 1.0], FixKind::MicrorebootEjb, true),
    ];
    let teach = |store: &mut dyn SynopsisStore| {
        for (symptoms, fix, success) in &outcomes {
            store.record(symptoms, *fix, *success);
        }
    };
    let queued = LearnerChoice::Locked { batch: 3 };
    for learner in [LearnerChoice::Private, LearnerChoice::locked(), queued] {
        let mut store = learner.build_store(kind);
        teach(store.as_mut());
        if learner == queued {
            assert!(store.pending_updates() > 0, "updates must still be queued");
        }
        let counted = store.fix_stats();
        assert_eq!(store.pending_updates(), 0, "counting flushes first");
        assert_eq!(
            counted,
            Forwarding(store).fix_stats(),
            "{}",
            learner.label()
        );
        let attempts: usize = counted.iter().map(|s| s.successes + s.failures).sum();
        assert_eq!(attempts, outcomes.len());
        assert_eq!(
            counted[0].fix,
            FixKind::MicrorebootEjb,
            "FixKind::ALL order"
        );
        assert_eq!((counted[0].successes, counted[0].failures), (2, 1));
    }

    // A pooled pair: the scout's experience reaches the pool, not the
    // victim's own statistics.
    let pool = LearnerChoice::locked().build_store(kind);
    let pooled = || PooledStore::new(queued.build_store(kind), pool.clone_store());
    let (mut scout, mut victim) = (pooled(), pooled());
    teach(&mut scout);
    victim.record(&[8.0, 1.0, 1.0], FixKind::RebootTier, false);
    assert_eq!(
        scout.fix_stats(),
        Forwarding(scout.clone_store()).fix_stats()
    );
    let own = victim.fix_stats();
    assert_eq!(own, Forwarding(victim.clone_store()).fix_stats());
    assert_eq!(own.len(), 1);
    assert_eq!((own[0].fix, own[0].failures), (FixKind::RebootTier, 1));
    assert_eq!(
        pool.fix_stats()
            .iter()
            .map(|s| s.successes + s.failures)
            .sum::<usize>(),
        outcomes.len() + 1
    );
}

/// The compatibility half of `attach_log`: a store written against the seven
/// required `SynopsisStore` methods alone (the benchmark's timing wrapper is
/// one) falls back to the rewrite — the log is recreated at the same path
/// from the store's experience, and appends go on from there.
#[test]
fn a_store_without_its_own_attach_log_falls_back_to_the_rewrite() {
    use selfheal::healing::snapshot::SnapshotLog;

    let path =
        std::env::temp_dir().join(format!("selfheal-stores-fwd-{}.jsonl", std::process::id()));
    let mut recorded = SynopsisSnapshot::new(SynopsisKind::NearestNeighbor);
    recorded.push(vec![1.0, 9.0], FixKind::MicrorebootEjb, false);
    recorded.push(vec![8.0, 1.0], FixKind::RepartitionMemory, true);
    drop(SnapshotLog::create(&path, &recorded).unwrap());

    let replay = SnapshotLog::open(&path).unwrap();
    let mut store = Forwarding(LearnerChoice::Locked { batch: 1 }.build_store(recorded.kind));
    store.restore(&replay.snapshot);
    store.attach_log(replay.log.unwrap()).unwrap();
    // Rewritten from `snapshot()`, so regrouped successes first.
    let rewritten = SynopsisSnapshot::load(&path).unwrap();
    assert_eq!(rewritten.examples[0], recorded.examples[1]);
    assert_eq!(rewritten.examples[1], recorded.examples[0]);

    store.record(&[3.0, 3.0], FixKind::RebootTier, true);
    assert_eq!(
        SynopsisSnapshot::load(&path).unwrap().len(),
        3,
        "and appended to"
    );
    let _ = std::fs::remove_file(&path);
}
