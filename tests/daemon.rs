//! Integration tests for the resident fleet daemon: supervisor
//! restart-with-backoff, daemon ≡ batch fingerprint pins, crash-restart
//! durability through the incremental snapshot log, a scripted end-to-end
//! daemon session over the control-plane socket, and the control plane's
//! concurrency: idle sessions, parallel clients, the connection cap, and
//! stopping with clients connected.

use selfheal::daemon::protocol::{is_terminator, send_command};
use selfheal::daemon::{
    ControlPlane, Daemon, DaemonConfig, DaemonOptions, LogStart, ReplicaSpec, Supervisor,
};
use selfheal::faults::{
    FaultKind, FaultTarget, FixAction, FixKind, InjectionPlan, InjectionPlanBuilder, ScriptedSource,
};
use selfheal::fleet::{ExecutionMode, FleetConfig};
use selfheal::healing::harness::{ReactiveChoice, WorkloadChoice};
use selfheal::healing::snapshot::{SnapshotLog, SynopsisSnapshot};
use selfheal::healing::store::SynopsisStore;
use selfheal::healing::synopsis::{Learner, SynopsisKind};
use selfheal::sim::scenario::{Healer, ScenarioRunner};
use selfheal::sim::service::TickOutcome;
use selfheal::sim::{MultiTierService, ServiceConfig};
use selfheal::telemetry::ReplicaState;
use selfheal::workload::{ArrivalProcess, TraceGenerator, WorkloadMix};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// A scratch directory unique to one test, cleaned up on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("selfheal-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A healer that panics once its incarnation reaches a given tick —
/// the synthetic replica failure the supervisor must absorb.
#[derive(Debug)]
struct PanicAt {
    tick: u64,
    seen: u64,
}

impl Healer for PanicAt {
    fn name(&self) -> &str {
        "panic_at"
    }

    fn observe(&mut self, _outcome: &TickOutcome) -> Vec<FixAction> {
        if self.seen == self.tick {
            panic!("deliberate panic at tick {}", self.tick);
        }
        self.seen += 1;
        Vec::new()
    }
}

/// A healer that consults its (gated) store on every tick and logs its
/// replica id once the store has answered — the log is the order in which
/// the gate let replicas through.
struct TouchStore {
    id: usize,
    store: Box<dyn SynopsisStore>,
    order: Arc<Mutex<Vec<usize>>>,
}

impl Healer for TouchStore {
    fn name(&self) -> &str {
        "touch_store"
    }

    fn observe(&mut self, _outcome: &TickOutcome) -> Vec<FixAction> {
        let _ = self.store.suggest(&[1.0, 2.0, 3.0]);
        self.order.lock().unwrap().push(self.id);
        Vec::new()
    }
}

fn bare_runner(spec: &ReplicaSpec, healer: Box<dyn Healer>) -> ScenarioRunner<Box<dyn Healer>> {
    let service = MultiTierService::new(ServiceConfig::tiny());
    let workload = TraceGenerator::new(
        WorkloadMix::bidding(),
        ArrivalProcess::Constant { rate: 20.0 },
        spec.id as u64 + 7,
    );
    ScenarioRunner::with_faults(
        service,
        Box::new(workload),
        Box::new(ScriptedSource::new(InjectionPlan::empty())),
        healer,
    )
}

/// Config for the supervisor tests: tight slices, short backoff, and a
/// runner factory whose incarnation counter decides who panics.
fn panicky_config(
    max_restarts: u32,
    factory: impl Fn(&ReplicaSpec, usize, &dyn SynopsisStore) -> Box<dyn Healer> + Send + Sync + 'static,
) -> (DaemonConfig, Arc<AtomicUsize>) {
    let incarnations = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&incarnations);
    let config = DaemonConfig {
        slice: 16,
        max_restarts,
        backoff_epochs: 2,
        runner_factory: Some(Arc::new(move |spec, store| {
            let incarnation = counter.fetch_add(1, Ordering::SeqCst);
            bare_runner(spec, factory(spec, incarnation, store))
        })),
        ..DaemonConfig::default()
    };
    (config, incarnations)
}

#[test]
fn supervisor_restarts_a_panicking_replica_after_backoff() {
    // Replica 1's first incarnation (the second runner built) panics
    // mid-epoch; its rebuild, like the two siblings either side of it,
    // consults the gated store on every tick.
    const SLICE: usize = 16;
    let order = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&order);
    let (config, incarnations) = panicky_config(5, move |spec, incarnation, store| {
        if incarnation == 1 {
            Box::new(PanicAt { tick: 5, seen: 0 })
        } else {
            Box::new(TouchStore {
                id: spec.id,
                store: store.clone_store(),
                order: Arc::clone(&log),
            })
        }
    });
    let mut supervisor = Supervisor::new(config).unwrap();
    for _ in 0..3 {
        supervisor.add_replica("none").unwrap();
    }
    // The gate's verdict for one epoch: which replica touched the store,
    // in order.  A full slice per live replica, ascending by id.
    let turns = |ids: &[usize]| -> Vec<usize> {
        ids.iter()
            .flat_map(|id| std::iter::repeat_n(*id, SLICE))
            .collect()
    };
    let take_order = || std::mem::take(&mut *order.lock().unwrap());

    // Epoch 1: the panic lands; the victim enters backoff while both
    // siblings complete their slice — the gate hands the turn past it.
    assert_eq!(supervisor.advance_epoch(), 2);
    assert_eq!(take_order(), turns(&[0, 2]));
    let health = &supervisor.replica_health()[1];
    assert_eq!(health.state, ReplicaState::Restarting);
    assert_eq!(health.restarts, 1);
    assert!(
        health
            .last_error
            .as_deref()
            .unwrap_or("")
            .contains("deliberate panic"),
        "panic payload surfaced: {:?}",
        health.last_error
    );

    // Epoch 2 is still inside the 2-epoch backoff: the victim sits out,
    // the siblings never stall.
    assert_eq!(supervisor.advance_epoch(), 2);
    assert_eq!(take_order(), turns(&[0, 2]));
    let health = supervisor.replica_health();
    assert_eq!(health[1].state, ReplicaState::Restarting);
    assert_eq!(health[0].ticks, 32);
    assert_eq!(health[2].ticks, 32);

    // Epoch 3: backoff expired, the rebuilt runner advances a full slice —
    // and takes its turn at the store between its siblings, in id order.
    assert_eq!(supervisor.advance_epoch(), 3);
    assert_eq!(take_order(), turns(&[0, 1, 2]));
    let health = &supervisor.replica_health()[1];
    assert_eq!(health.state, ReplicaState::Running);
    assert_eq!(health.ticks, 16, "one clean slice after the restart");
    assert_eq!(supervisor.advance_epoch(), 3);
    assert_eq!(supervisor.replica_health()[1].ticks, 32);
    assert_eq!(incarnations.load(Ordering::SeqCst), 4, "one rebuild");
    supervisor.shutdown();
}

#[test]
fn restart_cap_retires_a_permanently_broken_replica() {
    // Every incarnation panics: the replica must be retired as failed
    // after max_restarts rebuilds, with exponentially growing backoff
    // (resume epochs 3 and 7 for backoff_epochs=2).
    let (config, incarnations) =
        panicky_config(2, |_, _, _| Box::new(PanicAt { tick: 5, seen: 0 }));
    let mut supervisor = Supervisor::new(config).unwrap();
    supervisor.add_replica("none").unwrap();

    for epoch in 1..=7u64 {
        supervisor.advance_epoch();
        let state = supervisor.replica_health()[0].state;
        match epoch {
            1..=6 => assert_eq!(state, ReplicaState::Restarting, "epoch {epoch}"),
            _ => assert_eq!(state, ReplicaState::Failed, "epoch {epoch}"),
        }
    }
    let health = &supervisor.replica_health()[0];
    assert_eq!(health.restarts, 2, "both rebuilds consumed");
    assert!(health.last_error.is_some());
    assert_eq!(
        incarnations.load(Ordering::SeqCst),
        3,
        "birth + two rebuilds (epochs 3 and 7)"
    );
    // A retired replica never advances again.
    assert_eq!(supervisor.advance_epoch(), 0);
    let roll_up = supervisor.health();
    assert_eq!(roll_up.failed, 1);
    assert_eq!(roll_up.restarts, 2);
    supervisor.shutdown();
}

/// A healer that microreboots EJB 1 at the first confirmed violation and
/// panics once its incarnation has seen `panic_at` ticks.
struct FixOnceThenPanic {
    fixed: bool,
    panic_at: u64,
    seen: u64,
}

impl Healer for FixOnceThenPanic {
    fn name(&self) -> &str {
        "fix_once_then_panic"
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        if self.seen == self.panic_at {
            panic!("deliberate panic at tick {}", self.seen);
        }
        self.seen += 1;
        if outcome.violations.is_empty() || self.fixed {
            return Vec::new();
        }
        self.fixed = true;
        vec![FixAction::targeted(
            FixKind::MicrorebootEjb,
            FaultTarget::Ejb { index: 1 },
        )]
    }
}

/// A restart starts a new runner, not a new replica: like `ticks`, the
/// `episodes` and `fixes` that `REPLICAS` and the health records report
/// carry on from what the dead incarnations had reached.
#[test]
fn episodes_and_fixes_carry_across_a_replica_restart() {
    const SLICE: u64 = 16;
    let incarnations = Arc::new(AtomicUsize::new(0));
    let counter = Arc::clone(&incarnations);
    let config = DaemonConfig {
        slice: SLICE,
        max_restarts: 5,
        backoff_epochs: 2,
        runner_factory: Some(Arc::new(move |spec, _store| {
            // The first incarnation meets one fault, repairs it and dies
            // eight epochs in; its successor meets none.
            let first = counter.fetch_add(1, Ordering::SeqCst) == 0;
            let plan = if first {
                InjectionPlanBuilder::new()
                    .inject(
                        10,
                        FaultKind::UnhandledException,
                        FaultTarget::Ejb { index: 1 },
                        0.9,
                    )
                    .build()
            } else {
                InjectionPlan::empty()
            };
            let healer: Box<dyn Healer> = Box::new(FixOnceThenPanic {
                fixed: false,
                panic_at: if first { 8 * SLICE + 3 } else { u64::MAX },
                seen: 0,
            });
            let service = MultiTierService::new(ServiceConfig::tiny());
            let workload = TraceGenerator::new(
                WorkloadMix::bidding(),
                ArrivalProcess::Constant { rate: 40.0 },
                spec.id as u64 + 7,
            );
            ScenarioRunner::with_faults(
                service,
                Box::new(workload),
                Box::new(ScriptedSource::new(plan)),
                healer,
            )
        })),
        ..DaemonConfig::default()
    };
    let mut supervisor = Supervisor::new(config).unwrap();
    supervisor.add_replica("none").unwrap();

    for _ in 0..8 {
        assert_eq!(supervisor.advance_epoch(), 1);
    }
    let before = supervisor.replica_health()[0].clone();
    assert_eq!(
        (before.ticks, before.episodes, before.fixes_initiated),
        (8 * SLICE, 1, 1),
        "one episode opened, repaired and closed before the panic"
    );
    assert_eq!(supervisor.advance_epoch(), 0, "the panic lands in epoch 9");
    assert_eq!(
        supervisor.replica_health()[0].state,
        ReplicaState::Restarting
    );
    assert_eq!(supervisor.advance_epoch(), 0, "backoff");
    assert_eq!(supervisor.advance_epoch(), 1, "rebuilt");
    let after = &supervisor.replica_health()[0];
    assert_eq!(after.state, ReplicaState::Running);
    assert_eq!(incarnations.load(Ordering::SeqCst), 2);
    assert_eq!(
        (after.ticks, after.episodes, after.fixes_initiated),
        (9 * SLICE, 1, 1),
        "the new runner's zeros are added to what the replica had"
    );
    supervisor.shutdown();
}

/// The batch fleet a supervisor over `config` is a resident copy of: same
/// service, policy, learner, workload, faults and seed, `replicas` replicas
/// advanced `epochs` daemon epochs by the one-worker reference interleaver.
fn batch_twin(config: &DaemonConfig, replicas: usize, epochs: u64) -> FleetConfig {
    FleetConfig::builder()
        .service(config.service.clone())
        .policy(config.policy)
        .learner(config.learner)
        .workload(config.workload.clone())
        .faults(config.default_faults.clone())
        .base_seed(config.base_seed)
        .replicas(replicas)
        .slice(config.slice)
        .ticks(epochs * config.slice)
        .mode(ExecutionMode::Sequential)
}

/// The daemon is gated by construction: a multi-replica supervisor — whose
/// replicas sweep on as many worker threads as the machine has — reproduces
/// the sequential batch fleet bit for bit.  (Fails on an ungated daemon,
/// where the order experience reaches the store rides on thread scheduling.)
#[test]
fn multi_replica_supervisor_matches_the_sequential_batch_fleet() {
    const REPLICAS: usize = 4;
    const EPOCHS: u64 = 40;
    let config = DaemonConfig::default();
    for adversary in [false, true] {
        let mut supervisor = Supervisor::new(config.clone()).unwrap();
        for _ in 0..REPLICAS {
            supervisor.add_replica("default").unwrap();
        }
        let mut batch = batch_twin(&config, REPLICAS, EPOCHS);
        if adversary {
            supervisor.reconfigure(0, "adversary", "on").unwrap();
            batch = batch.reactive(ReactiveChoice::adversary(
                FaultKind::BufferContention,
                0.9,
                0,
                u64::MAX,
            ));
        }
        for _ in 0..EPOCHS {
            assert_eq!(supervisor.advance_epoch(), REPLICAS);
        }
        let resident: Vec<u64> = supervisor
            .fingerprints()
            .into_iter()
            .map(|(_, fingerprint)| fingerprint)
            .collect();
        let outcome = batch.run();
        assert_eq!(
            resident,
            outcome.fingerprints(),
            "adversary={adversary}: the resident fleet must replay the batch fleet"
        );
        assert!(
            outcome.total_episodes() > 0,
            "the run exercised the shared store"
        );
        assert_eq!(
            !outcome.reactive_log().is_empty(),
            adversary,
            "the adversary struck iff it was on"
        );
        supervisor.shutdown();
    }
}

/// Fingerprints after 40 epochs of a supervisor with two replicas added
/// under `profile`, each `RECONFIGURE`d by `changes` before the first epoch.
fn reseeded_fingerprints(
    config: DaemonConfig,
    profile: &str,
    changes: &[(&str, &str)],
) -> Vec<(usize, u64)> {
    let mut supervisor = Supervisor::new(config).unwrap();
    for _ in 0..2 {
        let id = supervisor.add_replica(profile).unwrap();
        for (key, value) in changes {
            supervisor.reconfigure(id, key, value).unwrap();
        }
    }
    for _ in 0..40 {
        assert_eq!(supervisor.advance_epoch(), 2);
    }
    let fingerprints = supervisor.fingerprints();
    supervisor.shutdown();
    fingerprints
}

/// `RECONFIGURE` re-seeds a swapped source exactly as construction seeds it
/// (by replica id), so a replica reconfigured before its first tick is the
/// replica built that way: a `fault_profile` swap equals an `ADD` under that
/// profile, and a `workload_rate` swap equals a daemon whose workload runs
/// at that rate.
#[test]
fn a_source_reconfigured_at_epoch_zero_equals_one_built_that_way() {
    let config = DaemonConfig::default();
    let swapped =
        reseeded_fingerprints(config.clone(), "none", &[("fault_profile", "content:0.05")]);
    assert_eq!(
        swapped,
        reseeded_fingerprints(config.clone(), "content:0.05", &[])
    );
    assert_ne!(swapped, reseeded_fingerprints(config.clone(), "none", &[]));

    let swapped = reseeded_fingerprints(config.clone(), "default", &[("workload_rate", "25")]);
    let built = reseeded_fingerprints(
        DaemonConfig {
            workload: WorkloadChoice::synthetic(
                WorkloadMix::bidding(),
                ArrivalProcess::Constant { rate: 25.0 },
            ),
            ..config.clone()
        },
        "default",
        &[],
    );
    assert_eq!(swapped, built);
    assert_ne!(swapped, reseeded_fingerprints(config, "default", &[]));
}

/// Drives a supervisor until its store has drained at least one example to
/// the snapshot log, then returns how many epochs that took.
fn run_until_learned(supervisor: &mut Supervisor, cap: u64) -> u64 {
    for epoch in 1..=cap {
        supervisor.advance_epoch();
        if supervisor.store().correct_fixes_learned() >= 1
            && !supervisor.store().snapshot().is_empty()
        {
            return epoch;
        }
    }
    panic!(
        "no fix learned within {cap} epochs (episodes={})",
        supervisor.health().open_episodes
    );
}

#[test]
fn crash_restart_replays_the_snapshot_log() {
    let scratch = Scratch::new("crash-restart");
    let store_path = scratch.path("synopsis.jsonl");
    let config = DaemonConfig {
        store_path: Some(store_path.clone()),
        ..DaemonConfig::default()
    };

    // First life: learn under the default fault mix, then die unflushed.
    let mut supervisor = Supervisor::new(config.clone()).unwrap();
    assert_eq!(supervisor.restored_examples(), 0, "fresh log");
    supervisor.add_replica("default").unwrap();
    supervisor.add_replica("default").unwrap();
    run_until_learned(&mut supervisor, 400);
    let fixes_before = supervisor.store().correct_fixes_learned();
    supervisor.abort(); // kill -9: no final flush.

    // Only what was already drained to the log survives the crash...
    let on_disk = SynopsisSnapshot::load(&store_path).expect("log is replayable");
    assert!(
        !on_disk.is_empty(),
        "incremental persistence streamed drained observations before the crash"
    );

    // ...and the second life starts from exactly that.
    let supervisor = Supervisor::new(config).unwrap();
    assert_eq!(
        supervisor.restored_examples(),
        on_disk.len(),
        "startup replays the whole log"
    );
    assert!(
        supervisor.store().correct_fixes_learned() >= 1,
        "restored store knows fixes before any replica ticks"
    );
    assert!(fixes_before >= 1);
    supervisor.shutdown();
}

/// Restart reads the log once and rewrites nothing: the second life appends
/// behind the bytes the first left (same header, same recording order), a
/// life that drains nothing leaves the file byte-identical, and the next
/// restart restores the first life's experience plus the second's.
#[test]
fn restart_adopts_the_log_in_place_and_rewrites_nothing() {
    let scratch = Scratch::new("adopt-in-place");
    let store_path = scratch.path("synopsis.jsonl");
    let config = DaemonConfig {
        store_path: Some(store_path.clone()),
        ..DaemonConfig::default()
    };
    let header = "{\"synopsis\":\"nearest_neighbor\",\"incremental\":true}\n";

    let mut supervisor = Supervisor::new(config.clone()).unwrap();
    assert_eq!(supervisor.log_replay().start, LogStart::Created);
    supervisor.add_replica("default").unwrap();
    supervisor.add_replica("default").unwrap();
    run_until_learned(&mut supervisor, 400);
    supervisor.abort();
    let first = std::fs::read(&store_path).unwrap();
    let first_life = SynopsisSnapshot::load(&store_path).unwrap();
    assert!(first.starts_with(header.as_bytes()));

    // Second life: the launch itself writes nothing...
    let mut supervisor = Supervisor::new(config.clone()).unwrap();
    let replay = supervisor.log_replay();
    assert_eq!(replay.start, LogStart::Adopted);
    assert_eq!(replay.examples, first_life.len());
    assert_eq!((replay.bytes, replay.torn_bytes), (first.len() as u64, 0));
    assert_eq!(replay.ranges, 1, "a log under 2 MiB is one range");
    assert_eq!(std::fs::read(&store_path).unwrap(), first);
    // ...and what it drains lands behind what was there.
    supervisor.add_replica("default").unwrap();
    supervisor.add_replica("default").unwrap();
    for _ in 0..400 {
        supervisor.advance_epoch();
        if std::fs::metadata(&store_path).unwrap().len() > first.len() as u64 {
            break;
        }
    }
    supervisor.abort();
    let second = std::fs::read(&store_path).unwrap();
    assert!(
        second.len() > first.len(),
        "the second life drained something"
    );
    assert!(second.starts_with(&first), "byte-for-byte prefix");
    let both_lives = SynopsisSnapshot::load(&store_path).unwrap();
    assert_eq!(
        both_lives.examples[..first_life.len()],
        first_life.examples[..]
    );

    // Third and fourth lives drain nothing, one dying and one exiting
    // cleanly: first + appended is restored, the file does not change.
    for clean_exit in [false, true] {
        let supervisor = Supervisor::new(config.clone()).unwrap();
        assert_eq!(supervisor.log_replay().start, LogStart::Adopted);
        assert_eq!(supervisor.restored_examples(), both_lives.len());
        assert_eq!(supervisor.store().snapshot().len(), both_lives.len());
        if clean_exit {
            supervisor.shutdown();
        } else {
            supervisor.abort();
        }
        assert_eq!(std::fs::read(&store_path).unwrap(), second);
    }
}

/// The log is written anew only where the file itself shows there is nothing
/// to adopt: it is absent, it is a complete snapshot, or it was recorded by
/// another kind of synopsis.  Whatever the start, the next one adopts.
#[test]
fn only_a_log_that_cannot_be_adopted_is_rewritten() {
    let scratch = Scratch::new("rewrite-cases");
    let mut learned = SynopsisSnapshot::new(SynopsisKind::KMeans);
    learned.push(vec![1.0, 9.0, 1.0], FixKind::RebootTier, false);
    learned.push(vec![2.0, 2.0, 2.0], FixKind::MicrorebootEjb, true);
    learned.push(vec![5.0, 5.0, 5.0], FixKind::RebootTier, true);
    let first_line = |path: &Path| {
        let text = std::fs::read_to_string(path).unwrap();
        text.lines().next().unwrap_or_default().to_string()
    };
    let ours = "{\"synopsis\":\"nearest_neighbor\",\"incremental\":true}";

    for (case, expected) in [
        ("absent", LogStart::Created),
        ("complete", LogStart::Rewritten),
        ("foreign-kind", LogStart::Rewritten),
    ] {
        let store_path = scratch.path(&format!("{case}.jsonl"));
        match case {
            "complete" => learned.save(&store_path).unwrap(),
            "foreign-kind" => drop(SnapshotLog::create(&store_path, &learned).unwrap()),
            _ => {}
        }
        let restored = if expected == LogStart::Created {
            0
        } else {
            assert_ne!(first_line(&store_path), ours, "{case}: not ours yet");
            learned.len()
        };
        let config = DaemonConfig {
            store_path: Some(store_path.clone()),
            ..DaemonConfig::default()
        };
        let supervisor = Supervisor::new(config.clone()).unwrap();
        assert_eq!(supervisor.log_replay().start, expected, "{case}");
        assert_eq!(supervisor.restored_examples(), restored, "{case}");
        supervisor.abort();
        assert_eq!(
            first_line(&store_path),
            ours,
            "{case}: the store's own header"
        );
        let on_disk = SynopsisSnapshot::load(&store_path).unwrap();
        assert_eq!(on_disk.len(), restored, "{case}: nothing lost");

        let supervisor = Supervisor::new(config).unwrap();
        assert_eq!(supervisor.log_replay().start, LogStart::Adopted, "{case}");
        assert_eq!(supervisor.restored_examples(), restored, "{case}");
        supervisor.abort();
    }
}

/// `kill -9` mid-append leaves at worst an unfinished final line.  Whatever
/// byte the file was cut at inside its last two lines, the daemon starts,
/// restores every whole line, cuts the rest off, and appends from there.
#[test]
fn a_torn_log_tail_is_cut_off_and_the_daemon_starts() {
    let scratch = Scratch::new("torn-tail");
    let store_path = scratch.path("synopsis.jsonl");
    let config = DaemonConfig {
        store_path: Some(store_path.clone()),
        ..DaemonConfig::default()
    };
    let mut recorded = SynopsisSnapshot::new(SynopsisKind::NearestNeighbor);
    for i in 0..4 {
        let fix = [FixKind::MicrorebootEjb, FixKind::RebootTier][i % 2];
        recorded.push(vec![i as f64 + 0.25, 1e-3, -7.5], fix, i != 2);
    }
    let appended = (vec![9.0, 9.0, 9.0], FixKind::RepartitionMemory, true);
    let whole = {
        let log = SnapshotLog::create(&store_path, &SynopsisSnapshot::new(recorded.kind)).unwrap();
        log.append(&recorded.examples[..3]).unwrap();
        log.append(&recorded.examples[3..]).unwrap();
        std::fs::read(&store_path).unwrap()
    };
    let newlines: Vec<usize> = (0..whole.len()).filter(|&at| whole[at] == b'\n').collect();
    assert_eq!(newlines.len(), 5, "a header and four examples");

    for cut in newlines[2] + 1..=whole.len() {
        std::fs::write(&store_path, &whole[..cut]).unwrap();
        let terminated = newlines.iter().filter(|&&at| at < cut).count() - 1;
        // A whole example that lost only its newline is kept.
        let kept = terminated + usize::from(newlines.contains(&cut));
        let last_line = newlines[terminated] + 1;

        let supervisor =
            Supervisor::new(config.clone()).unwrap_or_else(|err| panic!("cut at {cut}: {err}"));
        let replay = supervisor.log_replay();
        assert_eq!(replay.start, LogStart::Adopted, "cut at {cut}");
        assert_eq!(supervisor.restored_examples(), kept, "cut at {cut}");
        let torn = if kept > terminated {
            0
        } else {
            cut - last_line
        };
        assert_eq!(replay.torn_bytes, torn as u64, "cut at {cut}");

        // Batch 1: the record is drained, so appended, at once.
        let (symptoms, fix, success) = &appended;
        supervisor.store_handle().record(symptoms, *fix, *success);
        supervisor.abort();
        let reloaded = SynopsisSnapshot::load(&store_path)
            .unwrap_or_else(|err| panic!("cut at {cut}: the repaired log reloads: {err}"));
        assert_eq!(
            reloaded.examples[..kept],
            recorded.examples[..kept],
            "cut at {cut}"
        );
        assert_eq!(reloaded.len(), kept + 1, "cut at {cut}");
        assert_eq!(reloaded.examples[kept].symptoms, *symptoms, "cut at {cut}");
    }

    // A bad line before the final one is not a torn tail: no start.
    let mut damaged = whole.clone();
    damaged[newlines[1] + 3] = b'!';
    std::fs::write(&store_path, &damaged).unwrap();
    let refusal = Supervisor::new(config).unwrap_err();
    assert!(refusal.contains("line 3"), "names the line: {refusal}");
    assert_eq!(
        std::fs::read(&store_path).unwrap(),
        damaged,
        "and touches nothing"
    );
}

#[test]
fn adversary_reconfigure_strikes_the_weakest_replica() {
    let mut supervisor = Supervisor::new(DaemonConfig {
        slice: 64,
        ..DaemonConfig::default()
    })
    .unwrap();
    let first = supervisor.add_replica("none").unwrap();
    let second = supervisor.add_replica("none").unwrap();

    // Off by default: barriers pass without a strike.
    supervisor.advance_epoch();
    assert!(!supervisor.adversary_enabled());
    assert_eq!(supervisor.adversary_target(), None);
    assert!(!supervisor
        .health()
        .to_json_line()
        .contains("adversary_target"));

    // Bad values are rejected; the engine stays off.
    assert!(supervisor.reconfigure(first, "adversary", "maybe").is_err());
    assert!(!supervisor.adversary_enabled());

    assert_eq!(
        supervisor.reconfigure(first, "adversary", "on").unwrap(),
        "adversary=on"
    );
    supervisor.advance_epoch();
    // Both replicas are healthy at the barrier, so the low-id tie-break
    // aims the first strike at the first replica.
    assert_eq!(supervisor.adversary_target(), Some(first));
    let line = supervisor.health().to_json_line();
    assert!(
        line.contains(&format!("\"adversary_target\":{first}")),
        "health line carries the target: {line}"
    );

    // The strike lands during the next epoch: the victim opens (and, once
    // the fix is learned, quickly closes) episodes while the bystander
    // stays clean.  An episode can open and heal inside one 64-tick epoch,
    // so the closed-episode count is the reliable witness.
    let mut victim_struck = false;
    for _ in 0..6 {
        supervisor.advance_epoch();
        let health = supervisor.replica_health();
        if health[first].episodes > 0 || health[first].open_episodes > 0 {
            victim_struck = true;
        }
        assert_eq!(health[second].open_episodes, 0, "only the target suffers");
    }
    assert!(victim_struck, "the strikes opened episodes on the target");

    assert_eq!(
        supervisor.reconfigure(second, "adversary", "off").unwrap(),
        "adversary=off"
    );
    supervisor.advance_epoch();
    assert_eq!(supervisor.adversary_target(), None);
    supervisor.shutdown();
}

/// `active_faults` is the simulator's ground truth at the last barrier: it
/// climbs under a fault mix that outruns the healer, stays 0 on a quiet
/// replica, and the fleet's JSON line carries the total.
#[test]
fn active_faults_rise_under_a_heavy_mix_and_stay_zero_without_one() {
    let mut supervisor = Supervisor::new(DaemonConfig::default()).unwrap();
    let faulty = supervisor.add_replica("online:0.2").unwrap();
    let quiet = supervisor.add_replica("none").unwrap();
    let mut seen = Vec::new();
    for epochs in [10, 110] {
        for _ in 0..epochs {
            assert_eq!(supervisor.advance_epoch(), 2);
        }
        let replicas = supervisor.replica_health();
        assert_eq!(replicas[quiet].active_faults, 0);
        let active = replicas[faulty].active_faults;
        assert_eq!(supervisor.health().active_faults, active);
        assert!(supervisor
            .health()
            .to_json_line()
            .contains(&format!("\"active_faults\":{active}")));
        seen.push(active);
    }
    assert!(
        0 < seen[0] && seen[0] < seen[1],
        "active faults after 10 and after 120 epochs: {seen:?}"
    );
    supervisor.shutdown();
}

/// Extracts `key=<u64>` from a space-separated reply.
fn field(reply: &str, key: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|token| token.strip_prefix(key))
        .and_then(|value| value.parse().ok())
}

/// Polls `command` against the socket until `predicate` accepts the reply.
fn wait_for(socket: &Path, command: &str, what: &str, predicate: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        if let Ok(reply) = send_command(socket, command, Duration::from_secs(10)) {
            if predicate(&reply) {
                return reply;
            }
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(50));
    }
}

fn ctl(socket: &Path, command: &str) -> String {
    send_command(socket, command, Duration::from_secs(10))
        .unwrap_or_else(|err| panic!("{command}: {err}"))
}

/// The scripted end-to-end session from the issue: start → faults via the
/// mix source → `QUERY FIXES` returns learned fixes → `ADD` a replica that
/// warm-starts from the shared store → `kill -9` → restart → `STATUS`
/// shows restored synopsis counts → clean `SHUTDOWN`.
#[test]
fn end_to_end_daemon_session_survives_kill_dash_nine() {
    let scratch = Scratch::new("e2e");
    let socket = scratch.path("control.sock");
    let store_path = scratch.path("synopsis.jsonl");
    let snapshot_path = scratch.path("fixes.jsonl");

    let config = DaemonConfig {
        store_path: Some(store_path.clone()),
        ..DaemonConfig::default()
    };

    let mut options = DaemonOptions::new(&socket);
    options.replicas = 2;

    // First life.
    let daemon = Daemon::launch(config.clone(), options.clone()).unwrap();
    let kill = daemon.kill_switch();
    let life_one = thread::spawn(move || daemon.run());

    // The mix faults replicas; the shared store learns fixes.
    let status = wait_for(&socket, "STATUS", "the fleet to learn a fix", |reply| {
        field(reply, "fixes_known=").unwrap_or(0) >= 1
    });
    assert!(status.contains("replicas=2"), "status: {status}");

    // Live query: per-fix experience from the shared store.
    let fixes = ctl(&socket, "QUERY FIXES");
    assert!(fixes.contains("fix="), "learned fixes listed: {fixes}");
    assert!(fixes.contains("success_rate="), "stats included: {fixes}");

    // ADD: the new replica warm-starts against the shared store.
    let added = ctl(&socket, "ADD online:0.05");
    assert!(added.contains("replica 2 added"), "add reply: {added}");
    let replicas = ctl(&socket, "REPLICAS");
    assert_eq!(
        replicas
            .lines()
            .filter(|l| l.starts_with("replica "))
            .count(),
        3,
        "three replicas listed: {replicas}"
    );
    assert!(
        replicas
            .lines()
            .filter(|l| l.starts_with("replica "))
            .all(|l| l
                .rsplit(' ')
                .next()
                .and_then(|word| word.strip_prefix("active_faults="))
                .is_some_and(|n| n.parse::<u64>().is_ok())),
        "every line ends in active_faults=<n>: {replicas}"
    );

    // SNAPSHOT: the store's full experience, written on demand.
    let snap = ctl(&socket, &format!("SNAPSHOT {}", snapshot_path.display()));
    let examples = field(&snap, "examples=").unwrap_or(0);
    assert!(examples >= 1, "snapshot non-empty: {snap}");
    let snapshot_text = std::fs::read_to_string(&snapshot_path).unwrap();
    assert!(snapshot_text.contains("\"fix\""), "snapshot holds examples");

    // kill -9: abort without the final flush.
    kill.store(true, Ordering::SeqCst);
    life_one.join().unwrap().unwrap();

    // Second life, same store path: the log replay restores the synopsis.
    let daemon = Daemon::launch(config, options).unwrap();
    let restored = daemon.registry().default_supervisor().restored_examples();
    assert!(restored >= 1, "snapshot log replayed after the crash");
    let life_two = thread::spawn(move || daemon.run());

    let status = wait_for(
        &socket,
        "STATUS",
        "the restarted daemon's status",
        |reply| field(reply, "restored_examples=").is_some(),
    );
    assert_eq!(
        field(&status, "restored_examples="),
        Some(restored as u64),
        "status reports the restored synopsis count: {status}"
    );
    assert_eq!(field(&status, "replay_ranges="), Some(1), "{status}");
    assert!(
        field(&status, "fixes_known=").unwrap_or(0) >= 1,
        "restored store knows fixes immediately: {status}"
    );

    // Clean shutdown flushes and exits the loop.
    let bye = ctl(&socket, "SHUTDOWN");
    assert!(bye.ends_with("OK\n"), "shutdown accepted: {bye}");
    life_two.join().unwrap().unwrap();
}

/// Hostile `QUERY FIXES` signatures are refused at the daemon boundary: a
/// `nan` component (which, with two or more fixes learned, used to panic
/// the nearest-neighbor distance sort on the daemon-loop thread) and a
/// vector of the wrong length both answer `ERR`, and `STATUS` still
/// answers afterwards.
#[test]
fn hostile_query_signatures_answer_err_and_the_daemon_lives() {
    let scratch = Scratch::new("hostile-query");
    let socket = scratch.path("control.sock");
    let store_path = scratch.path("synopsis.jsonl");
    let config = DaemonConfig {
        store_path: Some(store_path.clone()),
        ..DaemonConfig::default()
    };
    let width = MultiTierService::new(config.service.clone()).schema().len();

    // Two learned fixes, replayed from the snapshot log at launch.
    let mut learned = SynopsisSnapshot::new(SynopsisKind::NearestNeighbor);
    learned.push(vec![2.0; width], FixKind::MicrorebootEjb, true);
    learned.push(vec![5.0; width], FixKind::RebootTier, true);
    learned.save(&store_path).unwrap();

    let mut options = DaemonOptions::new(&socket);
    options.replicas = 1;
    options.profile = "none".to_string();
    let daemon = Daemon::launch(config, options).unwrap();
    let life = thread::spawn(move || daemon.run());
    // The resident replica keeps ticking and may learn more on its own, so
    // only the restored state is pinned exactly.
    let alive = |reply: &str| {
        field(reply, "fixes_known=").is_some_and(|known| known >= 2)
            && field(reply, "restored_examples=") == Some(2)
    };
    wait_for(&socket, "STATUS", "the daemon to answer", alive);

    let signature = |first: &str| {
        let mut components = vec!["2"; width];
        components[0] = first;
        components.join(",")
    };
    let known = ctl(&socket, &format!("QUERY FIXES {}", signature("2")));
    assert!(known.contains("fix=microreboot_ejb"), "good query: {known}");
    for bad in [signature("nan"), signature("inf"), "1,2,3".to_string()] {
        let reply = ctl(&socket, &format!("QUERY FIXES {bad}"));
        assert!(reply.starts_with("ERR "), "{bad:?} is refused: {reply}");
        assert!(alive(&ctl(&socket, "STATUS")), "alive after {bad:?}");
    }

    assert!(ctl(&socket, "SHUTDOWN").ends_with("OK\n"));
    life.join().unwrap().unwrap();
}

/// `SNAPSHOT` onto a file the daemon itself writes would leave a
/// complete-snapshot header with appended lines behind it — a log no launch
/// replays.  Such targets answer `ERR`, by any spelling of the path and from
/// any tenant's scope; the fleet ticks on, and after `kill -9` the relaunch
/// restores every drained example.
#[test]
fn snapshot_onto_the_daemons_own_files_is_refused() {
    let scratch = Scratch::new("snapshot-own-log");
    let socket = scratch.path("control.sock");
    let store_path = scratch.path("synopsis.jsonl");
    let config = DaemonConfig {
        store_path: Some(store_path.clone()),
        ..DaemonConfig::default()
    };
    let mut options = DaemonOptions::new(&socket);
    options.replicas = 2;
    let daemon = Daemon::launch(config.clone(), options.clone()).unwrap();
    let kill = daemon.kill_switch();
    let life_one = thread::spawn(move || daemon.run());
    wait_for(&socket, "STATUS", "the fleet to learn a fix", |reply| {
        field(reply, "fixes_known=").unwrap_or(0) >= 1
    });
    // The manifest is the daemon's before it exists.
    let manifest = scratch.path("synopsis.tenants.jsonl");
    let reply = ctl(&socket, &format!("SNAPSHOT {}", manifest.display()));
    assert!(reply.starts_with("ERR ") && !manifest.exists(), "{reply}");
    assert!(ctl(&socket, "TENANT CREATE scout").ends_with("OK\n"));

    std::fs::create_dir(scratch.path("sub")).unwrap();
    let own_files = [
        ("", store_path.clone()),
        ("", scratch.path("sub/../synopsis.jsonl")),
        ("", scratch.path("synopsis.scout.jsonl")),
        ("", manifest.clone()),
        ("@scout ", store_path.clone()),
        ("@scout ", scratch.path("./synopsis.scout.jsonl")),
    ];
    for (scope, target) in &own_files {
        let before = std::fs::read(target).unwrap();
        let reply = ctl(&socket, &format!("{scope}SNAPSHOT {}", target.display()));
        assert!(reply.starts_with("ERR "), "{scope}{target:?}: {reply}");
        assert!(reply.contains("the daemon itself writes"), "{reply}");
        let after = std::fs::read(target).unwrap();
        assert!(
            after.starts_with(&before),
            "{target:?} was only ever appended to"
        );
    }
    // Any other file is still fair game, and the fleet is still ticking.
    let free = scratch.path("fixes.jsonl");
    let reply = ctl(&socket, &format!("SNAPSHOT {}", free.display()));
    assert!(field(&reply, "examples=").unwrap_or(0) >= 1, "{reply}");
    let epoch = field(&ctl(&socket, "STATUS"), "epoch=").unwrap();
    wait_for(&socket, "STATUS", "later epochs", |reply| {
        field(reply, "epoch=").is_some_and(|now| now > epoch)
    });

    kill.store(true, Ordering::SeqCst);
    life_one.join().unwrap().unwrap();
    let drained = SynopsisSnapshot::load(&store_path).expect("the log still replays");
    assert!(!drained.is_empty());

    let daemon = Daemon::launch(config, options).unwrap();
    let supervisor = daemon.registry().default_supervisor();
    assert_eq!(supervisor.log_replay().start, LogStart::Adopted);
    assert_eq!(supervisor.restored_examples(), drained.len());
    assert!(
        daemon.registry().contains("scout"),
        "the manifest replays too"
    );
    daemon.kill_switch().store(true, Ordering::SeqCst);
    daemon.run().unwrap();
}

/// A quiet one-replica daemon on `socket`, running on its own thread; the
/// receiver yields `run`'s result once the loop has exited.
fn quiet_daemon(socket: &Path) -> (Arc<AtomicBool>, mpsc::Receiver<Result<(), String>>) {
    let mut options = DaemonOptions::new(socket);
    options.replicas = 1;
    options.profile = "none".to_string();
    let daemon = Daemon::launch(DaemonConfig::default(), options).unwrap();
    let kill = daemon.kill_switch();
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || done_tx.send(daemon.run()));
    wait_for(socket, "STATUS", "the daemon to answer", |reply| {
        reply.ends_with("OK\n")
    });
    (kill, done_rx)
}

/// Reads one full reply (payload lines + terminator) off a held connection.
fn read_reply(reader: &mut BufReader<UnixStream>) -> String {
    let mut reply = String::new();
    loop {
        let mut line = String::new();
        let read = reader.read_line(&mut line).expect("read a reply line");
        assert!(read > 0, "connection closed mid-reply after {reply:?}");
        reply.push_str(&line);
        if is_terminator(line.trim_end()) {
            return reply;
        }
    }
}

fn held_connection(socket: &Path) -> BufReader<UnixStream> {
    let stream = UnixStream::connect(socket).expect("connect to the control socket");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    BufReader::new(stream)
}

/// Connections are served concurrently: an idle session delays nobody,
/// parallel clients all get well-formed replies in their own send order,
/// and the connection past the cap is told so instead of left hanging.
#[test]
fn control_plane_serves_clients_concurrently_up_to_its_cap() {
    let scratch = Scratch::new("concurrent");
    let socket = scratch.path("control.sock");
    let (_kill, done) = quiet_daemon(&socket);

    // An open, silent session (an interactive `selfheal-ctl`, say)...
    let mut idle = held_connection(&socket);
    // ...and a second client's command still lands on the next barrier.
    let sent = Instant::now();
    let reply = ctl(&socket, "STATUS");
    assert!(
        reply.ends_with("OK\n"),
        "status beside an idle session: {reply}"
    );
    assert!(
        sent.elapsed() < Duration::from_secs(1),
        "an idle session stalled another client for {:?}",
        sent.elapsed()
    );
    // The idle session itself is still served.
    idle.get_mut().write_all(b"TENANT LIST\n").unwrap();
    assert!(read_reply(&mut idle).contains("tenant=default"));

    // K clients, released together, each pipelining M commands whose
    // replies tell them apart: every reply well-formed, in send order.
    const CLIENTS: usize = 6;
    const ROUNDS: usize = 5;
    // (command, how its reply starts)
    const SCRIPT: [(&str, &str); 4] = [
        ("STATUS", "epoch="),
        ("FROB", "ERR unknown command"),
        ("TENANT LIST", "tenant=default"),
        ("REMOVE 99", "ERR no replica 99"),
    ];
    let start = Arc::new(Barrier::new(CLIENTS));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|client| {
            let (socket, start) = (socket.clone(), Arc::clone(&start));
            thread::spawn(move || {
                let mut link = held_connection(&socket);
                let lines: String = (0..ROUNDS)
                    .flat_map(|_| SCRIPT.iter().map(|(line, _)| format!("{line}\n")))
                    .collect();
                start.wait();
                link.get_mut().write_all(lines.as_bytes()).unwrap();
                for round in 0..ROUNDS {
                    for (line, opening) in SCRIPT {
                        let reply = read_reply(&mut link);
                        assert!(
                            reply.starts_with(opening),
                            "client {client} round {round}: {line} answered {reply:?}"
                        );
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client
            .join()
            .expect("a client saw a bad or misordered reply");
    }

    // Fill the plane with silent sessions until one is refused: the refusal
    // is an immediate `ERR` line and a hang-up, not a wait.
    let mut held = Vec::new();
    let refusal = loop {
        assert!(held.len() < 1024, "no connection cap in sight");
        let mut link = held_connection(&socket);
        // The refused connection may already be closed when this lands.
        let _ = link.get_mut().write_all(b"STATUS\n");
        let reply = read_reply(&mut link);
        if reply.starts_with("ERR ") {
            let mut rest = Vec::new();
            let _ = link.read_to_end(&mut rest);
            assert!(rest.is_empty(), "the refused connection is closed");
            break reply;
        }
        assert!(reply.ends_with("OK\n"), "under the cap: {reply}");
        held.push(link);
    };
    assert!(
        refusal.contains("too many control connections"),
        "refusal: {refusal}"
    );
    assert!(held.len() >= 8, "the cap leaves room for real use");
    let refused = ctl(&socket, "STATUS");
    assert!(
        refused.contains("too many control connections"),
        "send_command surfaces the refusal: {refused}"
    );
    // Hanging up frees the slots.
    drop(held);
    wait_for(&socket, "STATUS", "slots to free up", |reply| {
        reply.ends_with("OK\n")
    });

    assert!(ctl(&socket, "SHUTDOWN").ends_with("OK\n"));
    done.recv_timeout(Duration::from_secs(10))
        .expect("the daemon loop exits")
        .unwrap();
}

/// `SHUTDOWN` and the kill switch both end `Daemon::run`, hang up on a
/// connected client and unlink the socket — promptly, though every control
/// thread sits in a blocking `accept` or `read`.
#[test]
fn daemon_stops_promptly_with_a_client_connected() {
    let scratch = Scratch::new("stop-connected");
    let socket = scratch.path("control.sock");
    for clean in [true, false] {
        let (kill, done) = quiet_daemon(&socket);
        let mut idle = held_connection(&socket);
        idle.get_mut().write_all(b"STATUS\n").unwrap();
        assert!(read_reply(&mut idle).ends_with("OK\n"));

        let asked = Instant::now();
        if clean {
            assert!(ctl(&socket, "SHUTDOWN").ends_with("OK\n"));
        } else {
            kill.store(true, Ordering::SeqCst);
        }
        done.recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("clean={clean}: run() never returned"))
            .unwrap();
        assert!(
            asked.elapsed() < Duration::from_secs(1),
            "clean={clean}: stopping took {:?}",
            asked.elapsed()
        );
        assert!(!socket.exists(), "clean={clean}: socket file unlinked");
        let mut rest = String::new();
        assert_eq!(
            idle.read_to_string(&mut rest).unwrap(),
            0,
            "clean={clean}: the held connection was hung up on"
        );
    }
}

/// Dropping a control plane does not wait out an idle client's read.
#[test]
fn control_plane_drop_hangs_up_on_an_idle_client() {
    let scratch = Scratch::new("plane-drop");
    let socket = scratch.path("control.sock");
    let plane = ControlPlane::bind(&socket).unwrap();
    // A parse error is answered without the daemon loop, which proves the
    // connection's thread is up and back in its blocking read.
    let mut idle = held_connection(&socket);
    idle.get_mut().write_all(b"FROB\n").unwrap();
    assert!(read_reply(&mut idle).starts_with("ERR "));

    let dropped = Instant::now();
    drop(plane);
    assert!(
        dropped.elapsed() < Duration::from_millis(500),
        "drop took {:?}",
        dropped.elapsed()
    );
    assert!(!socket.exists(), "socket file unlinked");
}
