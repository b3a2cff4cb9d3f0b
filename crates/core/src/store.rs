//! Pluggable synopsis stores: where a fleet's learned failure→fix model
//! lives, how it is shared, and how it survives the process.
//!
//! The paper's scaling argument (Table 3: synopses are cheap to build and
//! query) says one synopsis can serve *many* service instances.  The
//! [`SynopsisStore`] trait is the seam that makes the topology of that
//! sharing a configuration choice instead of a code path, and
//! [`BatchedStore`] is the one store behind it:
//!
//! * A replica learning alone (the paper's single-instance setup,
//!   `LearnerChoice::Private`) owns a batch-1 store: every record is
//!   drained, and the model refit, as it happens.
//! * A fleet shares one store (`LearnerChoice::Locked`) whose records queue
//!   and drain in batches with one combined refit.
//!
//! A store does not order its users; the fleet engine's gate
//! (`selfheal_fleet::scheduler`) admits one replica to a shared store at a
//! time, and the daemon advances its tenants one after another.  So a
//! store's state sits behind one `Mutex`, which only makes it `Sync`.
//!
//! Every store can [`snapshot`](SynopsisStore::snapshot) its experience to a
//! [`SynopsisSnapshot`] and [`restore`](SynopsisStore::restore) from one —
//! combined with the JSON-lines codec in [`crate::snapshot`], fleets
//! warm-start across process boundaries.
//!
//! Healing policies stay written against the [`Learner`] trait; every store
//! implements it (as does `Box<dyn SynopsisStore>`), so
//! [`crate::HybridHealer`] — every learning policy's healer — is oblivious
//! to which store backs it.

use crate::snapshot::{SnapshotLog, SynopsisSnapshot};
use crate::synopsis::{FixExclusions, Learner, Synopsis, SynopsisKind};
use selfheal_faults::FixKind;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};

/// One queued `(symptoms, fix, success)` outcome awaiting the next drain.
type PendingUpdate = (Vec<f64>, FixKind, bool);

/// A home for learned synopsis state, pluggable behind every healer.
///
/// `SynopsisStore` extends [`Learner`] (the suggest/record surface healers
/// use) with the lifecycle surface fleets and tools use: flushing batched
/// updates, persisting experience, and handing out per-replica handles.
pub trait SynopsisStore: Learner {
    /// The synopsis kind backing the store.
    fn kind(&self) -> SynopsisKind;

    /// Blockingly folds every queued update into the model.  Call once
    /// the fleet quiesces, before reading statistics or snapshotting.
    fn flush(&self);

    /// Number of recorded updates not yet folded into a model.
    fn pending_updates(&self) -> usize;

    /// Captures the store's experience so it can be rebuilt elsewhere — the
    /// save half of warm-start: every success, and of the failures the ones
    /// still held ([`NEGATIVES_KEPT`](crate::synopsis::NEGATIVES_KEPT) per
    /// synopsis; only an incremental log has them all).
    ///
    /// Implementations must [`flush`](Self::flush) internally before
    /// capturing: up to `batch - 1` updates can sit in a shared store's
    /// pending queue at any moment, and a snapshot that ignored them would
    /// silently drop experience from saved synopses
    /// (`tests/stores.rs::snapshots_flush_queued_updates_instead_of_dropping_them`
    /// pins this contract).
    fn snapshot(&self) -> SynopsisSnapshot;

    /// Replaces the store's learned state with the snapshot's experience,
    /// rebuilt under the store's *own* kind (snapshots carry raw examples,
    /// not fitted weights, so any store restores from any snapshot).
    fn restore(&mut self, snapshot: &SynopsisSnapshot);

    /// A handle for one more consumer of this store: [`BatchedStore`]
    /// returns a handle to the *same* state, whichever recipe built it.
    fn clone_store(&self) -> Box<dyn SynopsisStore>;

    /// Switches the store to *incremental* persistence: creates (truncating)
    /// a [`SnapshotLog`] at `path` seeded with the store's current
    /// experience ([`snapshot`](Self::snapshot), so successes first), then
    /// [attaches](Self::attach_log) it — every subsequently drained batch
    /// of `(symptoms, fix, success)` outcomes is appended as it happens,
    /// instead of one full-file snapshot write at quiesce.  A process
    /// killed mid-run therefore leaves a file that
    /// [`SynopsisSnapshot::load`] restores up to the last drain.
    ///
    /// This is the *rewrite*: the right call for a fresh path, a
    /// complete-snapshot file or a log of another synopsis kind.  A process
    /// restarting over its own log should [`SnapshotLog::open`] it,
    /// [`restore`](Self::restore) from the replay and
    /// [`attach_log`](Self::attach_log) the handle instead, which writes
    /// nothing (see [`crate::snapshot`]).
    ///
    /// The log belongs to the store's shared state, so every
    /// [`clone_store`](Self::clone_store) handle feeds the same file;
    /// [`restore`](Self::restore) recreates the file from the restored
    /// experience.  A batch-1 store drains, and so appends, on every record.
    fn persist_to(&mut self, path: &Path) -> io::Result<()>;

    /// Switches the store to incremental persistence through a log that is
    /// **already open** — one [`SnapshotLog::open`] replayed and verified a
    /// moment ago and from whose snapshot this store was just restored.
    /// The store appends to it from here on; nothing is serialised and the
    /// file is not touched until the next drain.
    ///
    /// The log must describe this store: same kind, and holding exactly the
    /// experience the store holds.  Nothing checks that — a caller that
    /// cannot promise it wants [`persist_to`](Self::persist_to).
    ///
    /// The default body is that rewrite (`persist_to(log.path())`), so a
    /// store that only forwards the seven required methods keeps working;
    /// every store in this workspace overrides it to keep the handle.
    fn attach_log(&mut self, log: SnapshotLog) -> io::Result<()> {
        self.persist_to(log.path())
    }

    /// Aggregates the store's entire experience into per-fix
    /// success/failure counts — the introspection surface live queries
    /// (e.g. the resident daemon's `QUERY FIXES`) read at epoch barriers.
    ///
    /// Queued updates are counted: the default body reads a
    /// [`snapshot`](Self::snapshot), which flushes, copies the experience to
    /// do it, and sees only the failures still held; every store in this
    /// workspace overrides it to [`flush`](Self::flush), count the successes
    /// where they lie and read the synopses' exact failure counters.  Fixes
    /// with no recorded attempts are omitted; the rest appear in
    /// [`FixKind::ALL`] order.
    fn fix_stats(&self) -> Vec<FixStats> {
        let mut tally = FixTally::default();
        for example in &self.snapshot().examples {
            tally.add(example.fix.code(), example.success);
        }
        tally.finish()
    }

    /// `(recorded, kept)`: failed fixes folded into the model so far, and
    /// how many of them are still held as examples — what tells a bounded
    /// memory from a growing one (`STATUS`'s `failures_recorded=` /
    /// `negatives_kept=`).
    ///
    /// The default body counts a [`snapshot`](Self::snapshot)'s failures for
    /// both, which flushes; every store in this workspace overrides it to
    /// read its synopses as they are, queued updates left queued, so a
    /// status read between two epochs moves no drain.
    fn failure_memory(&self) -> (usize, usize) {
        let kept = self.snapshot().negatives();
        (kept, kept)
    }

    /// Whether the store dropped its incremental log because writing to it
    /// failed — a full disk, a bad handle — and learns in memory only
    /// until the next [`persist_to`](Self::persist_to) or
    /// [`attach_log`](Self::attach_log) (`STATUS`'s `log=detached`).  The
    /// default body says no: a store without a log never detaches one.
    fn log_detached(&self) -> bool {
        false
    }
}

/// Per-fix success/failure counts while [`SynopsisStore::fix_stats`]
/// gathers them, indexed by fix code.
#[derive(Default)]
struct FixTally([(usize, usize); FixKind::ALL.len()]);

impl FixTally {
    /// Counts one outcome.  Codes outside [`FixKind::ALL`] are skipped, as
    /// a snapshot of the store skips them.
    fn add(&mut self, code: usize, success: bool) {
        if let Some((successes, failures)) = self.0.get_mut(code) {
            *(if success { successes } else { failures }) += 1;
        }
    }

    /// Counts everything a synopsis recorded, without copying any of it:
    /// the successes where they lie, the failures from its own counters.
    fn add_synopsis(&mut self, synopsis: &Synopsis) {
        for example in synopsis.positive_examples() {
            self.add(example.label, true);
        }
        for (tally, failures) in self.0.iter_mut().zip(synopsis.failures_by_fix()) {
            tally.1 += failures;
        }
    }

    fn finish(self) -> Vec<FixStats> {
        FixKind::ALL
            .iter()
            .zip(self.0)
            .filter(|(_, (successes, failures))| successes + failures > 0)
            .map(|(&fix, (successes, failures))| FixStats {
                fix,
                successes,
                failures,
            })
            .collect()
    }
}

/// Aggregated learned experience for one [`FixKind`]: how often the fleet
/// tried it and how often it repaired the failure.  Produced by
/// [`SynopsisStore::fix_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixStats {
    /// The fix the counts describe.
    pub fix: FixKind,
    /// Applications recorded as having repaired the failure.
    pub successes: usize,
    /// Applications recorded as having failed to repair it.
    pub failures: usize,
}

impl FixStats {
    /// `successes / (successes + failures)`; `0.0` when nothing was
    /// recorded.
    pub fn success_rate(&self) -> f64 {
        let total = self.successes + self.failures;
        if total == 0 {
            0.0
        } else {
            self.successes as f64 / total as f64
        }
    }
}

impl Learner for Box<dyn SynopsisStore> {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        (**self).suggest(symptoms)
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &FixExclusions,
    ) -> Option<(FixKind, f64)> {
        (**self).suggest_excluding(symptoms, excluded)
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        (**self).record(symptoms, fix, success);
    }

    fn correct_fixes_learned(&self) -> usize {
        (**self).correct_fixes_learned()
    }
}

/// Everything a [`BatchedStore`] holds, behind its one lock.
#[derive(Debug)]
struct State {
    kind: SynopsisKind,
    batch: usize,
    model: Synopsis,
    pending: Vec<PendingUpdate>,
    drains: u64,
    log: Persist,
}

/// Where a store's drained outcomes go besides its model.
#[derive(Debug)]
enum Persist {
    /// Nowhere: the store was never given a log.
    Off,
    /// Appended to this incremental log.
    Log(SnapshotLog),
    /// Nowhere any more: writing the log failed, so the store dropped it.
    Detached,
}

impl State {
    /// Folds the queue into the model with one combined refit, first
    /// appending the outcomes to the incremental log when one is active;
    /// `false` when nothing was queued.  The queue keeps its capacity, so a
    /// batch-1 record allocates only its symptom vector.
    ///
    /// A failed append (a full disk, a bad handle) detaches the log: the
    /// store keeps learning in memory, and
    /// [`log_detached`](SynopsisStore::log_detached) says so.
    fn absorb_pending(&mut self) -> bool {
        if self.pending.is_empty() {
            return false;
        }
        if let Persist::Log(log) = &self.log {
            let outcomes = self
                .pending
                .iter()
                .map(|(s, fix, ok)| (s.as_slice(), *fix, *ok));
            if log.append_outcomes(outcomes).is_err() {
                self.log = Persist::Detached;
            }
        }
        self.model.absorb(self.pending.drain(..));
        true
    }

    /// Drains the queue (a non-empty one counts as a drain).
    fn flush(&mut self) {
        self.drains += u64::from(self.absorb_pending());
    }

    /// The model's folded experience, successes first, then failures;
    /// queued updates are not in it.
    fn experience(&self) -> SynopsisSnapshot {
        let mut snapshot = SynopsisSnapshot::new(self.kind);
        for example in self.model.positive_examples() {
            if let Some(fix) = FixKind::from_code(example.label) {
                snapshot.push(example.features.clone(), fix, true);
            }
        }
        for example in self.model.negative_examples() {
            if let Some(fix) = FixKind::from_code(example.label) {
                snapshot.push(example.features.clone(), fix, false);
            }
        }
        snapshot
    }
}

/// The one synopsis store: a cloneable handle to one synopsis with a queue
/// of updates it drains in batches.  Clones share state.
///
/// A [`record`](Learner::record) appends to the queue; once the queue holds
/// `batch` updates it is drained into the model with a *single* combined
/// refit.  Batching trades staleness for fewer refits: a freshly learned
/// fix becomes visible after at most `batch - 1` further updates (or a
/// [`flush`](SynopsisStore::flush)); with batch 1 every record drains at
/// once.
///
/// All of it — model, queue, drain count, log — sits behind one `Mutex`.
/// Nothing contends for it: the fleet's gate admits one replica at a time
/// (see the module docs), so no method waits on it in practice, and none
/// re-locks it while holding it.
#[derive(Debug, Clone)]
pub struct BatchedStore {
    state: Arc<Mutex<State>>,
}

impl BatchedStore {
    /// Default number of queued updates that triggers a drain + refit.
    pub const DEFAULT_BATCH: usize = 4;

    /// Creates a store that drains after `batch` queued updates (`1` =
    /// drain on every update, i.e. no added staleness).
    pub fn new(kind: SynopsisKind, batch: usize) -> Self {
        let state = State {
            kind,
            batch: batch.max(1),
            model: Synopsis::new(kind),
            pending: Vec::new(),
            drains: 0,
            log: Persist::Off,
        };
        BatchedStore {
            state: Arc::new(Mutex::new(state)),
        }
    }

    /// The store's state, locked.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("synopsis store poisoned")
    }
}

impl Learner for BatchedStore {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        self.state().model.suggest(symptoms)
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &FixExclusions,
    ) -> Option<(FixKind, f64)> {
        self.state().model.suggest_excluding(symptoms, excluded)
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        let mut state = self.state();
        state.pending.push((symptoms.to_vec(), fix, success));
        if state.pending.len() >= state.batch {
            state.flush();
        }
    }

    fn correct_fixes_learned(&self) -> usize {
        self.state().model.correct_fixes_learned()
    }
}

impl SynopsisStore for BatchedStore {
    fn kind(&self) -> SynopsisKind {
        self.state().kind
    }

    fn flush(&self) {
        self.state().flush();
    }

    fn pending_updates(&self) -> usize {
        self.state().pending.len()
    }

    fn snapshot(&self) -> SynopsisSnapshot {
        let mut state = self.state();
        state.flush();
        state.experience()
    }

    fn fix_stats(&self) -> Vec<FixStats> {
        let mut state = self.state();
        state.flush();
        let mut tally = FixTally::default();
        tally.add_synopsis(&state.model);
        tally.finish()
    }

    fn failure_memory(&self) -> (usize, usize) {
        self.state().model.failure_memory()
    }

    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        let mut state = self.state();
        state.pending.clear();
        state.model = Synopsis::from_examples(state.kind, &snapshot.examples);
        // An active log is recreated from the restored experience (the
        // queue was just emptied, so there is nothing to flush); one that
        // cannot be is detached, as a failed append detaches it.
        if let Persist::Log(log) = &state.log {
            let path = log.path().to_path_buf();
            state.log = SnapshotLog::create(path, &state.experience())
                .map_or(Persist::Detached, Persist::Log);
        }
    }

    fn clone_store(&self) -> Box<dyn SynopsisStore> {
        Box::new(self.clone())
    }

    fn persist_to(&mut self, path: &Path) -> io::Result<()> {
        let mut state = self.state();
        state.flush();
        let log = SnapshotLog::create(path, &state.experience())?;
        state.log = Persist::Log(log);
        Ok(())
    }

    fn attach_log(&mut self, log: SnapshotLog) -> io::Result<()> {
        self.state().log = Persist::Log(log);
        Ok(())
    }

    fn log_detached(&self) -> bool {
        matches!(self.state().log, Persist::Detached)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::LearnerChoice;
    use std::thread;

    impl BatchedStore {
        /// How many batched drains have run.
        pub(crate) fn drains(&self) -> u64 {
            self.state().drains
        }

        /// A statistic of the store's synopsis.
        fn model_stat(&self, stat: impl Fn(&Synopsis) -> usize) -> usize {
            stat(&self.state().model)
        }
    }

    fn symptom(kind: usize) -> Vec<f64> {
        match kind {
            0 => vec![8.0, 1.0, 1.0],
            1 => vec![1.0, 9.0, 1.0],
            _ => vec![1.0, 1.0, 7.0],
        }
    }

    const FIXES: [FixKind; 3] = [
        FixKind::RepartitionMemory,
        FixKind::MicrorebootEjb,
        FixKind::UpdateStatistics,
    ];

    #[test]
    fn locked_updates_are_batched_until_the_threshold() {
        let mut shared = BatchedStore::new(SynopsisKind::NearestNeighbor, 3);
        shared.record(&symptom(0), FixKind::RepartitionMemory, true);
        shared.record(&symptom(1), FixKind::MicrorebootEjb, true);
        assert_eq!(shared.pending_updates(), 2);
        assert_eq!(shared.correct_fixes_learned(), 0, "not yet drained");
        assert!(shared.suggest(&symptom(0)).is_none());

        shared.record(&symptom(2), FixKind::UpdateStatistics, true);
        assert_eq!(shared.pending_updates(), 0);
        assert_eq!(shared.correct_fixes_learned(), 3);
        assert_eq!(shared.drains(), 1);
        assert_eq!(
            shared.suggest(&symptom(0)).unwrap().0,
            FixKind::RepartitionMemory
        );
        assert_eq!(
            shared.model_stat(|m| m.retrains() as usize),
            1,
            "one refit for the whole batch"
        );
    }

    #[test]
    fn locked_flush_publishes_a_partial_batch() {
        let mut shared = BatchedStore::new(SynopsisKind::NearestNeighbor, 64);
        shared.record(&symptom(0), FixKind::RepartitionMemory, true);
        assert!(shared.suggest(&symptom(0)).is_none());
        shared.flush();
        assert_eq!(
            shared.suggest(&symptom(0)).unwrap().0,
            FixKind::RepartitionMemory
        );
        // A second flush with an empty queue is a no-op.
        shared.flush();
        assert_eq!(shared.drains(), 1);
    }

    #[test]
    fn locked_clones_share_learned_state() {
        let mut a = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        let b = a.clone();
        a.record(&symptom(1), FixKind::MicrorebootEjb, true);
        assert_eq!(b.correct_fixes_learned(), 1);
        assert_eq!(b.suggest(&symptom(1)).unwrap().0, FixKind::MicrorebootEjb);
    }

    #[test]
    fn failed_fixes_never_become_positives() {
        let mut shared = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        shared.record(&symptom(0), FixKind::KillHungQuery, false);
        shared.flush();
        assert_eq!(shared.correct_fixes_learned(), 0);
        assert_eq!(shared.model_stat(|m| m.failed_fixes_recorded()), 1);
    }

    #[test]
    fn concurrent_recorders_lose_no_updates() {
        let shared = BatchedStore::new(SynopsisKind::NearestNeighbor, 5);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let mut handle = shared.clone();
                thread::spawn(move || {
                    for i in 0..25 {
                        let class = (t + i) % 3;
                        handle.record(&symptom(class), FIXES[class], true);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread panicked");
        }
        shared.flush();
        assert_eq!(shared.correct_fixes_learned(), 100);
        assert!(shared.drains() >= 1);
        assert_eq!(
            shared.suggest(&symptom(0)).unwrap().0,
            FixKind::RepartitionMemory
        );
    }

    #[test]
    fn private_store_learns_immediately_and_snapshots() {
        let private = || LearnerChoice::Private.build_store(SynopsisKind::NearestNeighbor);
        let mut store = private();
        store.record(&symptom(0), FixKind::RepartitionMemory, true);
        store.record(&symptom(1), FixKind::MicrorebootEjb, false);
        assert_eq!(store.correct_fixes_learned(), 1);
        assert_eq!(store.pending_updates(), 0);
        let snap = store.snapshot();
        assert_eq!(snap.positives(), 1);
        assert_eq!(snap.negatives(), 1);

        let mut restored = private();
        restored.restore(&snap);
        assert_eq!(restored.correct_fixes_learned(), 1);
        assert_eq!(
            restored.suggest(&symptom(0)).unwrap().0,
            FixKind::RepartitionMemory
        );
        assert_eq!(restored.failure_memory(), (1, 1));
        // One bootstrap refit, not one per example, in the store the
        // recipe builds.
        let mut concrete = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        concrete.restore(&snap);
        assert_eq!(concrete.model_stat(|m| m.failed_fixes_recorded()), 1);
        assert_eq!(concrete.model_stat(|m| m.retrains() as usize), 1);
    }

    #[test]
    fn snapshots_restore_across_store_and_synopsis_kinds() {
        let mut locked = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        for i in 0..12 {
            let class = i % 3;
            locked.record(&symptom(class), FIXES[class], true);
        }
        let snap = locked.snapshot();

        // Restore into a different batch size AND a different model kind.
        let mut kmeans = BatchedStore::new(SynopsisKind::KMeans, BatchedStore::DEFAULT_BATCH);
        kmeans.restore(&snap);
        assert_eq!(kmeans.correct_fixes_learned(), 12);
        for (class, fix) in FIXES.iter().enumerate() {
            assert_eq!(
                kmeans.suggest(&symptom(class)).unwrap().0,
                *fix,
                "class {class}"
            );
        }
    }

    #[test]
    fn restoring_a_small_snapshot_discards_stale_centroids() {
        // Fit a k-means synopsis's centroids on one distribution...
        let mut store = BatchedStore::new(SynopsisKind::KMeans, 1);
        for i in 0..64 {
            let class = i % 3;
            store.record(&symptom(class), FIXES[class], true);
        }
        assert_eq!(store.suggest(&symptom(0)).unwrap().0, FIXES[0]);

        // ...then restore a one-example snapshot: the restore replaces the
        // model, so no centroid of the old fit answers any more.
        let mut snap = SynopsisSnapshot::new(SynopsisKind::KMeans);
        snap.push(vec![50.0, 50.0, 50.0], FixKind::RebuildIndex, true);
        store.restore(&snap);
        assert_eq!(store.correct_fixes_learned(), 1);
        for symptoms in [vec![50.0, 50.0, 50.0], symptom(0), symptom(1)] {
            assert_eq!(
                store.suggest(&symptoms).unwrap().0,
                FixKind::RebuildIndex,
                "old partition must not survive: {symptoms:?}"
            );
        }
    }

    #[test]
    fn incremental_persistence_appends_on_each_drain() {
        let dir = std::env::temp_dir().join("selfheal_store_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("locked.jsonl");

        let mut store = BatchedStore::new(SynopsisKind::NearestNeighbor, 2);
        store.record(&symptom(0), FIXES[0], true);
        store.persist_to(&path).unwrap();
        // The pending (undrained) update seeded the file via the flush
        // inside snapshot().
        assert_eq!(SynopsisSnapshot::load(&path).unwrap().len(), 1);

        // One full batch drains — and lands in the file immediately, not at
        // quiesce.
        store.record(&symptom(1), FIXES[1], true);
        store.record(&symptom(2), FIXES[2], false);
        assert_eq!(store.pending_updates(), 0, "batch drained");
        let mid_run = SynopsisSnapshot::load(&path).unwrap();
        assert_eq!(mid_run.len(), 3, "drained outcomes are on disk mid-run");

        // A queued-but-undrained update is not yet on disk ("restart
        // restores everything appended so far" — i.e. up to the last
        // drain)...
        store.record(&symptom(0), FIXES[0], true);
        assert_eq!(SynopsisSnapshot::load(&path).unwrap().len(), 3);

        // ...and a "restarted process" warm-starts from the mid-run file.
        let mut revived =
            BatchedStore::new(SynopsisKind::NearestNeighbor, BatchedStore::DEFAULT_BATCH);
        revived.restore(&mid_run);
        assert_eq!(revived.correct_fixes_learned(), 2);
        assert_eq!(revived.suggest(&symptom(0)).unwrap().0, FIXES[0]);

        // The final flush appends the tail.
        store.flush();
        assert_eq!(SynopsisSnapshot::load(&path).unwrap().len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn private_stores_persist_incrementally_too() {
        let dir = std::env::temp_dir().join("selfheal_store_persist_test");
        std::fs::create_dir_all(&dir).unwrap();

        let private_path = dir.join("private.jsonl");
        let mut private = LearnerChoice::Private.build_store(SynopsisKind::NearestNeighbor);
        private.record(&symptom(0), FIXES[0], true);
        private.persist_to(&private_path).unwrap();
        private.record(&symptom(1), FIXES[1], false);
        // Immediate-apply store: every record is a drain.
        assert_eq!(SynopsisSnapshot::load(&private_path).unwrap().len(), 2);

        std::fs::remove_file(&private_path).ok();
    }

    #[test]
    fn a_log_that_cannot_be_written_is_detached_and_learning_goes_on() {
        let dir = std::env::temp_dir().join("selfheal_store_detach_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("read_only.jsonl");
        let mut store = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        store.record(&symptom(0), FIXES[0], true);
        store.persist_to(&path).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert!(!store.log_detached());

        // Every append through a read-only handle fails (EBADF): the store
        // drops the log, keeps the outcome, and writes nothing.
        store.attach_log(SnapshotLog::read_only(&path)).unwrap();
        store.record(&symptom(1), FIXES[1], true);
        assert!(store.log_detached());
        assert_eq!(store.correct_fixes_learned(), 2);
        store.record(&symptom(2), FIXES[2], false);
        assert_eq!(store.failure_memory(), (1, 1));
        assert_eq!(std::fs::read(&path).unwrap(), on_disk);

        // A restore has no log left to recreate; a new one re-attaches.
        store.restore(&store.snapshot());
        assert!(store.log_detached());
        store.persist_to(&path).unwrap();
        assert!(!store.log_detached());
        assert_eq!(SynopsisSnapshot::load(&path).unwrap().len(), 3);

        // A log that cannot be recreated after a restore is detached too.
        let gone = dir.join("gone");
        std::fs::create_dir_all(&gone).unwrap();
        store.persist_to(&gone.join("log.jsonl")).unwrap();
        std::fs::remove_dir_all(&gone).unwrap();
        store.restore(&store.snapshot());
        assert!(store.log_detached());
        assert_eq!(store.correct_fixes_learned(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn boxed_store_handles_drive_the_learner_surface() {
        let shared = BatchedStore::new(SynopsisKind::NearestNeighbor, 1);
        let mut handle: Box<dyn SynopsisStore> = shared.clone_store();
        handle.record(&symptom(0), FixKind::RepartitionMemory, true);
        handle.flush();
        assert_eq!(handle.correct_fixes_learned(), 1);
        assert_eq!(shared.correct_fixes_learned(), 1, "handles share state");
        assert_eq!(
            handle.suggest(&symptom(0)).unwrap().0,
            FixKind::RepartitionMemory
        );
        assert!(handle
            .suggest_excluding(
                &symptom(0),
                &FixExclusions::from([FixKind::RepartitionMemory])
            )
            .is_none());
        assert_eq!(handle.kind(), SynopsisKind::NearestNeighbor);
    }
}
