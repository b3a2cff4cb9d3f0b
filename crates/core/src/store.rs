//! Pluggable synopsis stores: where a fleet's learned failure→fix model
//! lives, how it is shared, and how it survives the process.
//!
//! The paper's scaling argument (Table 3: synopses are cheap to build and
//! query) says one synopsis can serve *many* service instances.  The
//! [`SynopsisStore`] trait is the seam that makes the topology of that
//! sharing a configuration choice instead of a code path:
//!
//! * `PrivateStore` — one replica, one synopsis (the paper's
//!   single-instance setup).  Updates apply immediately.
//! * [`ShardedStore`] — the one fleet-shared store: `k` synopses, each
//!   behind its own `RwLock` with batched update draining so replicas never
//!   stall on a sibling's retrain, each owning a region of symptom space.
//!   Like cyclic block coordinate descent partitions a solver's coordinates
//!   into disjoint blocks, the store partitions the symptom space with
//!   k-means centroids (`selfheal_learn::KMeans`) and routes every
//!   suggest/record to the shard owning that region — so concurrent
//!   replicas updating *different* failure modes contend on different
//!   locks.  With `k = 1` there is nothing to route: one fleet, one
//!   synopsis behind one lock (what `LearnerChoice::Locked` builds).
//!
//! Every store can [`snapshot`](SynopsisStore::snapshot) its experience to a
//! [`SynopsisSnapshot`] and [`restore`](SynopsisStore::restore) from one —
//! combined with the JSON-lines codec in [`crate::snapshot`], fleets
//! warm-start across process boundaries.
//!
//! Healing policies stay written against the [`Learner`] trait; every store
//! implements it (as does `Box<dyn SynopsisStore>`), so
//! `crate::FixSymHealer` and [`crate::HybridHealer`] are oblivious to
//! which store backs them.

use crate::snapshot::{SnapshotLog, SynopsisSnapshot};
use crate::synopsis::{Learner, Synopsis, SynopsisKind};
use selfheal_faults::FixKind;
use selfheal_learn::{Classifier, Dataset, Example, KMeans};
use std::collections::HashSet;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex, RwLock};

/// One queued `(symptoms, fix, success)` outcome awaiting the next drain.
type PendingUpdate = (Vec<f64>, FixKind, bool);

/// Appends a batch of drained updates to the store's incremental snapshot
/// log, when one is active (see [`SynopsisStore::persist_to`]).
///
/// # Panics
/// Panics when the append fails: silently dropping experience from a file
/// the operator asked for would defeat the point of persistence.
fn log_drained(log: &Mutex<Option<SnapshotLog>>, updates: &[PendingUpdate]) {
    let log = log.lock().expect("snapshot log poisoned");
    if let Some(log) = log.as_ref() {
        let outcomes = updates.iter().map(|(s, fix, ok)| (s.as_slice(), *fix, *ok));
        log.append_outcomes(outcomes)
            .expect("appending drained outcomes to the synopsis log failed");
    }
}

/// Recreates an active incremental log from a store's post-restore
/// experience (no-op when persistence is off).  The path is read and the
/// log replaced in separate critical sections so the snapshot — whose
/// flush may itself append to the log — never runs under the log lock.
///
/// # Panics
/// Panics when the recreation fails (see [`log_drained`]).
fn recreate_log(log: &Mutex<Option<SnapshotLog>>, snapshot: impl FnOnce() -> SynopsisSnapshot) {
    let path = {
        let guard = log.lock().expect("snapshot log poisoned");
        guard.as_ref().map(|l| l.path().to_path_buf())
    };
    if let Some(path) = path {
        let recreated = SnapshotLog::create(&path, &snapshot())
            .expect("recreating the synopsis log after restore failed");
        *log.lock().expect("snapshot log poisoned") = Some(recreated);
    }
}

/// A home for learned synopsis state, pluggable behind every healer.
///
/// `SynopsisStore` extends [`Learner`] (the suggest/record surface healers
/// use) with the lifecycle surface fleets and tools use: flushing batched
/// updates, persisting experience, and handing out per-replica handles.
pub trait SynopsisStore: Learner {
    /// The synopsis kind backing the store.
    fn kind(&self) -> SynopsisKind;

    /// Blockingly folds every queued update into the model(s).  Call once
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

    /// A handle for one more consumer of this store.  The shared
    /// [`ShardedStore`] returns a handle to the *same* state;
    /// `PrivateStore` returns an independent deep copy.
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
    /// Shared stores log through their shared state, so every
    /// [`clone_store`](Self::clone_store) handle feeds the same file;
    /// [`restore`](Self::restore) recreates the file from the restored
    /// experience.  `PrivateStore` applies updates immediately, so it
    /// appends on every record.
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

    /// `(recorded, kept)`: failed fixes folded into the model(s) so far, and
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
}

/// Per-fix success/failure counts while [`SynopsisStore::fix_stats`]
/// gathers them, indexed by fix code.
#[derive(Default)]
struct FixTally([(usize, usize); FixKind::ALL.len()]);

impl FixTally {
    /// Counts one outcome.  Codes outside [`FixKind::ALL`] are skipped, as
    /// [`append_synopsis`] skips them.
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
        excluded: &HashSet<FixKind>,
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

/// Appends a synopsis's experience (successes first, then failures) to a
/// snapshot.
fn append_synopsis(snapshot: &mut SynopsisSnapshot, synopsis: &Synopsis) {
    for example in synopsis.positive_examples() {
        if let Some(fix) = FixKind::from_code(example.label) {
            snapshot.push(example.features.clone(), fix, true);
        }
    }
    for example in synopsis.negative_examples() {
        if let Some(fix) = FixKind::from_code(example.label) {
            snapshot.push(example.features.clone(), fix, false);
        }
    }
}

// ---------------------------------------------------------------------------
// PrivateStore
// ---------------------------------------------------------------------------

/// A privately owned synopsis: the paper's single-instance setup, wrapped in
/// the store API so a lone service and a fleet replica configure learning
/// the same way.  Updates apply (and refit) immediately; there is nothing to
/// flush.
#[derive(Debug)]
pub(crate) struct PrivateStore {
    synopsis: Synopsis,
    log: Option<SnapshotLog>,
}

impl PrivateStore {
    /// Creates an empty private store.
    pub(crate) fn new(kind: SynopsisKind) -> Self {
        PrivateStore {
            synopsis: Synopsis::new(kind),
            log: None,
        }
    }

    /// Creates a private store pre-loaded from a snapshot.
    pub(crate) fn from_snapshot(kind: SynopsisKind, snapshot: &SynopsisSnapshot) -> Self {
        PrivateStore {
            synopsis: Synopsis::from_examples(kind, &snapshot.examples),
            log: None,
        }
    }
}

impl Learner for PrivateStore {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        self.synopsis.suggest(symptoms)
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &HashSet<FixKind>,
    ) -> Option<(FixKind, f64)> {
        self.synopsis.suggest_excluding(symptoms, excluded)
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        self.synopsis.update(symptoms, fix, success);
        // A private store applies updates immediately, so every record *is*
        // a drain — append it to the log right away.
        if let Some(log) = &self.log {
            log.append_outcomes(std::iter::once((symptoms, fix, success)))
                .expect("appending the recorded outcome to the synopsis log failed");
        }
    }

    fn correct_fixes_learned(&self) -> usize {
        self.synopsis.correct_fixes_learned()
    }
}

impl SynopsisStore for PrivateStore {
    fn kind(&self) -> SynopsisKind {
        self.synopsis.kind()
    }

    fn flush(&self) {}

    fn pending_updates(&self) -> usize {
        0
    }

    fn snapshot(&self) -> SynopsisSnapshot {
        let mut snapshot = SynopsisSnapshot::new(self.kind());
        append_synopsis(&mut snapshot, &self.synopsis);
        snapshot
    }

    fn fix_stats(&self) -> Vec<FixStats> {
        let mut tally = FixTally::default();
        tally.add_synopsis(&self.synopsis);
        tally.finish()
    }

    fn failure_memory(&self) -> (usize, usize) {
        self.synopsis.failure_memory()
    }

    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        self.synopsis = Synopsis::from_examples(self.kind(), &snapshot.examples);
        if let Some(log) = &self.log {
            self.log = Some(
                SnapshotLog::create(log.path(), &SynopsisStore::snapshot(self))
                    .expect("recreating the synopsis log after restore failed"),
            );
        }
    }

    fn clone_store(&self) -> Box<dyn SynopsisStore> {
        // The deep copy does not inherit the log: two independent stores
        // appending to one file would interleave unrelated experience.
        Box::new(PrivateStore::from_snapshot(self.kind(), &self.snapshot()))
    }

    fn persist_to(&mut self, path: &Path) -> io::Result<()> {
        self.attach_log(SnapshotLog::create(path, &SynopsisStore::snapshot(self))?)
    }

    fn attach_log(&mut self, log: SnapshotLog) -> io::Result<()> {
        self.log = Some(log);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// ShardedStore
// ---------------------------------------------------------------------------

/// The symptom-space router of a [`ShardedStore`].
///
/// Until enough symptom vectors have been observed to fit centroids, every
/// request routes to shard 0 (so a cold sharded fleet behaves exactly like a
/// one-shard store).  Once `fit_after` distinct observations accumulate, the
/// router fits `k` centroids with Lloyd's k-means (deterministically seeded)
/// and the partition is frozen — fixed blocks, as in cyclic block
/// coordinate descent, so a symptom region never migrates between shards
/// mid-run.
#[derive(Debug)]
struct Router {
    shards: usize,
    fit_after: usize,
    buffer: Vec<Vec<f64>>,
    centroids: Vec<Vec<f64>>,
    fitted: bool,
}

impl Router {
    fn new(shards: usize, fit_after: usize) -> Self {
        Router {
            shards,
            fit_after: fit_after.max(shards),
            buffer: Vec::new(),
            centroids: Vec::new(),
            fitted: shards <= 1,
        }
    }

    /// Nearest-centroid routing; shard 0 before the fit (or with one shard).
    fn route(&self, symptoms: &[f64]) -> usize {
        if self.centroids.len() <= 1 {
            return 0;
        }
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, centroid) in self.centroids.iter().enumerate() {
            let d: f64 = centroid
                .iter()
                .zip(symptoms)
                .map(|(c, s)| (c - s) * (c - s))
                .sum();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Notes an observed symptom vector; fits the centroids once the buffer
    /// is full.  Returns `true` when this call performed the fit.
    fn observe(&mut self, symptoms: &[f64]) -> bool {
        if self.fitted {
            return false;
        }
        self.buffer.push(symptoms.to_vec());
        if self.buffer.len() < self.fit_after {
            return false;
        }
        self.fit();
        true
    }

    /// Fits `shards` centroids over whatever symptoms are available (the
    /// buffer, or a restored snapshot's vectors).
    fn fit(&mut self) {
        let data = Dataset::from_examples(
            self.buffer
                .iter()
                .map(|s| Example::new(s.clone(), 0))
                .collect(),
        );
        if data.is_empty() {
            return;
        }
        let mut kmeans = KMeans::lloyd(self.shards, 50).with_seed(ShardedStore::ROUTE_SEED);
        kmeans.fit(&data);
        self.centroids = kmeans
            .clusters()
            .iter()
            .map(|c| c.centroid.clone())
            .collect();
        self.buffer.clear();
        self.fitted = true;
    }
}

#[derive(Debug)]
struct Shard {
    model: RwLock<Synopsis>,
    pending: Mutex<Vec<PendingUpdate>>,
}

#[derive(Debug)]
struct ShardedState {
    kind: SynopsisKind,
    batch: usize,
    shards: Vec<Shard>,
    router: RwLock<Router>,
    drains: Mutex<u64>,
    log: Mutex<Option<SnapshotLog>>,
}

/// The fleet-shared store: a cloneable, thread-safe handle to `k`
/// independently locked synopses that partition symptom space.
///
/// Every suggest/record is routed to the shard owning the symptom's region
/// (nearest fitted centroid), so replicas healing *different* failure modes
/// update disjoint models and never contend on one global lock — the paper's
/// shared-learning benefit without its single-writer bottleneck.  Within a
/// shard:
///
/// * **Reads** ([`suggest`](Learner::suggest) /
///   [`suggest_excluding`](Learner::suggest_excluding)) take a shared read
///   lock on the fitted model — replicas query concurrently.
/// * **Writes** ([`record`](Learner::record)) append to a cheap pending
///   queue.  Only when the queue reaches the batch threshold does one
///   replica opportunistically (`try_write`, never blocking on a retrain
///   already in progress) drain the queue into the model with a *single*
///   combined refit.  A replica therefore never stalls because another
///   replica's update triggered a retrain.
///
/// Batching trades staleness for throughput: a freshly learned fix becomes
/// visible to other replicas after at most `batch - 1` further updates (or a
/// [`flush`](SynopsisStore::flush)).  With `k = 1` the router is inert and
/// the store is one fleet-wide synopsis behind one lock.
///
/// The handle is `Clone`; clones share state.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    state: Arc<ShardedState>,
}

impl ShardedStore {
    /// Default number of queued updates that triggers a drain + refit.
    pub const DEFAULT_BATCH: usize = 4;

    /// Observations buffered before the routing centroids are fitted.
    pub(crate) const DEFAULT_FIT_AFTER: usize = 32;

    /// Seed of the deterministic Lloyd fit behind the router.
    pub(crate) const ROUTE_SEED: u64 = 0x5ead_c0de;

    /// Creates a sharded store with the default batch threshold and router
    /// warm-up.
    pub fn new(kind: SynopsisKind, shards: usize) -> Self {
        Self::with_batch(kind, shards, Self::DEFAULT_BATCH)
    }

    /// Creates a sharded store whose shards drain after `batch` queued
    /// updates each (`1` = drain on every update, i.e. no added staleness).
    pub fn with_batch(kind: SynopsisKind, shards: usize, batch: usize) -> Self {
        let shards = shards.max(1);
        ShardedStore {
            state: Arc::new(ShardedState {
                kind,
                batch: batch.max(1),
                shards: (0..shards)
                    .map(|_| Shard {
                        model: RwLock::new(Synopsis::new(kind)),
                        pending: Mutex::new(Vec::new()),
                    })
                    .collect(),
                router: RwLock::new(Router::new(shards, Self::DEFAULT_FIT_AFTER)),
                drains: Mutex::new(0),
                log: Mutex::new(None),
            }),
        }
    }

    /// Successful-fix examples per shard — how the symptom space actually
    /// partitioned.
    pub(crate) fn shard_sizes(&self) -> Vec<usize> {
        self.state
            .shards
            .iter()
            .map(|s| {
                s.model
                    .read()
                    .expect("shard lock poisoned")
                    .correct_fixes_learned()
            })
            .collect()
    }

    /// Folds `shard`'s pending queue into its model with one combined refit.
    /// `blocking` (a flush) waits for the model lock; otherwise (a due batch)
    /// the drain gives up, leaving the queue for a later caller, when a
    /// sibling's retrain is in progress.  Drained updates are appended to
    /// the incremental log when persistence is active.
    fn drain_shard(&self, shard: &Shard, blocking: bool) {
        let mut model = if blocking {
            shard.model.write().expect("shard lock poisoned")
        } else {
            match shard.model.try_write() {
                Ok(model) => model,
                Err(_) => return,
            }
        };
        let updates = std::mem::take(&mut *shard.pending.lock().expect("shard queue poisoned"));
        if updates.is_empty() {
            return;
        }
        log_drained(&self.state.log, &updates);
        model.absorb(updates);
        *self.state.drains.lock().expect("drain counter poisoned") += 1;
    }

    /// The model owning `symptoms`' region, read-locked.
    fn routed_model(&self, symptoms: &[f64]) -> std::sync::RwLockReadGuard<'_, Synopsis> {
        let router = self.state.router.read().expect("router poisoned");
        let shard = &self.state.shards[router.route(symptoms)];
        drop(router);
        shard.model.read().expect("shard lock poisoned")
    }

    /// Drains every shard and collects the store's entire experience —
    /// internal re-homing support, so it leaves the drain counter alone.
    ///
    /// Lock ordering: callers hold the router write lock; shard locks nest
    /// under it (the same order [`SynopsisStore::restore`] uses, and no path
    /// acquires them in reverse).
    fn collect_resident(&self) -> SynopsisSnapshot {
        let mut snapshot = SynopsisSnapshot::new(self.state.kind);
        for shard in &self.state.shards {
            let updates = {
                let mut pending = shard.pending.lock().expect("shard queue poisoned");
                std::mem::take(&mut *pending)
            };
            let mut model = shard.model.write().expect("shard lock poisoned");
            if !updates.is_empty() {
                // Re-homing drains these updates outside drain_shard, so the
                // incremental log must hear about them here.
                log_drained(&self.state.log, &updates);
                model.absorb(updates);
            }
            append_synopsis(&mut snapshot, &model);
        }
        snapshot
    }

    /// Rebuilds every shard's model from `snapshot`, partitioned by the
    /// given router's (current) centroids.
    fn partition_into_shards(&self, router: &Router, snapshot: &SynopsisSnapshot) {
        let rebuild = |shard: &Shard, slice: &SynopsisSnapshot| {
            shard.pending.lock().expect("shard queue poisoned").clear();
            *shard.model.write().expect("shard lock poisoned") =
                Synopsis::from_examples(self.state.kind, &slice.examples);
        };
        // One shard owns everything: rebuild straight from the snapshot
        // instead of copying it into a per-shard slice first.
        if let [only] = self.state.shards.as_slice() {
            return rebuild(only, snapshot);
        }
        let mut per_shard: Vec<SynopsisSnapshot> = (0..self.state.shards.len())
            .map(|_| SynopsisSnapshot::new(self.state.kind))
            .collect();
        for example in &snapshot.examples {
            per_shard[router.route(&example.symptoms)]
                .examples
                .push(example.clone());
        }
        for (shard, slice) in self.state.shards.iter().zip(&per_shard) {
            rebuild(shard, slice);
        }
    }
}

impl Learner for ShardedStore {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        self.routed_model(symptoms).suggest(symptoms)
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &HashSet<FixKind>,
    ) -> Option<(FixKind, f64)> {
        self.routed_model(symptoms)
            .suggest_excluding(symptoms, excluded)
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        let unfitted = !self.state.router.read().expect("router poisoned").fitted;
        if unfitted {
            let mut router = self.state.router.write().expect("router poisoned");
            if router.observe(symptoms) {
                // The partition just froze.  Everything recorded so far
                // routed to shard 0; re-home it under the new centroids so
                // pre-fit experience stays reachable from its region's
                // shard instead of being stranded.
                let resident = self.collect_resident();
                self.partition_into_shards(&router, &resident);
            }
        }
        // Route and enqueue under one router read guard: a concurrent fit
        // (router write) therefore cannot slip between the two and strand
        // this update on a shard the new centroids no longer route to —
        // the fit's re-homing sees either the queued update or none.
        let (index, due) = {
            let router = self.state.router.read().expect("router poisoned");
            let index = router.route(symptoms);
            let mut pending = self.state.shards[index]
                .pending
                .lock()
                .expect("shard queue poisoned");
            pending.push((symptoms.to_vec(), fix, success));
            (index, pending.len() >= self.state.batch)
        };
        if due {
            self.drain_shard(&self.state.shards[index], false);
        }
    }

    fn correct_fixes_learned(&self) -> usize {
        self.shard_sizes().iter().sum()
    }
}

impl SynopsisStore for ShardedStore {
    fn kind(&self) -> SynopsisKind {
        self.state.kind
    }

    fn flush(&self) {
        for shard in &self.state.shards {
            self.drain_shard(shard, true);
        }
    }

    fn pending_updates(&self) -> usize {
        self.state
            .shards
            .iter()
            .map(|s| s.pending.lock().expect("shard queue poisoned").len())
            .sum()
    }

    fn snapshot(&self) -> SynopsisSnapshot {
        self.flush();
        let mut snapshot = SynopsisSnapshot::new(self.state.kind);
        for shard in &self.state.shards {
            let model = shard.model.read().expect("shard lock poisoned");
            append_synopsis(&mut snapshot, &model);
        }
        snapshot
    }

    fn fix_stats(&self) -> Vec<FixStats> {
        self.flush();
        let mut tally = FixTally::default();
        for shard in &self.state.shards {
            tally.add_synopsis(&shard.model.read().expect("shard lock poisoned"));
        }
        tally.finish()
    }

    fn failure_memory(&self) -> (usize, usize) {
        let models = self.state.shards.iter();
        models.fold((0, 0), |(recorded, kept), shard| {
            let model = shard.model.read().expect("shard lock poisoned");
            let (r, k) = model.failure_memory();
            (recorded + r, kept + k)
        })
    }

    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        let mut router = self.state.router.write().expect("router poisoned");
        // Refit the routing centroids from the snapshot's symptom vectors so
        // restored experience lands on the shards that will serve it.  With
        // too few examples to fit, stale centroids from a previous fit are
        // discarded too — routing falls back to shard 0 (where the examples
        // are about to land) until the warm-up buffer refills.
        if self.state.shards.len() > 1 {
            router.buffer = snapshot
                .examples
                .iter()
                .map(|e| e.symptoms.clone())
                .collect();
            router.fitted = false;
            router.centroids.clear();
            if router.buffer.len() >= self.state.shards.len() {
                router.fit();
            }
        }
        // Partition the experience by routed shard and rebuild each model.
        self.partition_into_shards(&router, snapshot);
        drop(router);
        recreate_log(&self.state.log, || SynopsisStore::snapshot(self));
    }

    fn clone_store(&self) -> Box<dyn SynopsisStore> {
        Box::new(self.clone())
    }

    fn persist_to(&mut self, path: &Path) -> io::Result<()> {
        self.attach_log(SnapshotLog::create(path, &SynopsisStore::snapshot(self))?)
    }

    fn attach_log(&mut self, log: SnapshotLog) -> io::Result<()> {
        *self.state.log.lock().expect("snapshot log poisoned") = Some(log);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    impl ShardedStore {
        /// Whether the routing centroids have been fitted yet (before the fit,
        /// all traffic goes to shard 0).
        pub(crate) fn routing_fitted(&self) -> bool {
            self.state.router.read().expect("router poisoned").fitted
        }

        /// How many batched drains have run across all shards.
        pub(crate) fn drains(&self) -> u64 {
            *self.state.drains.lock().expect("drain counter poisoned")
        }
    }

    impl PrivateStore {
        /// The wrapped synopsis.
        pub(crate) fn synopsis(&self) -> &Synopsis {
            &self.synopsis
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

    /// The shared-store contract holds at every shard count: one shard (what
    /// `LearnerChoice::Locked` builds) and four (unfitted, so still routing
    /// to shard 0 at these update counts — except under the 100 concurrent
    /// records below, which cross the router fit).
    const SHARD_COUNTS: [usize; 2] = [1, 4];

    /// Sums a per-model statistic over every shard.
    fn over_models(store: &ShardedStore, stat: impl Fn(&Synopsis) -> usize) -> usize {
        let models = store.state.shards.iter();
        models
            .map(|shard| stat(&shard.model.read().expect("shard lock poisoned")))
            .sum()
    }

    #[test]
    fn locked_updates_are_batched_until_the_threshold() {
        for shards in SHARD_COUNTS {
            let mut shared = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, shards, 3);
            shared.record(&symptom(0), FixKind::RepartitionMemory, true);
            shared.record(&symptom(1), FixKind::MicrorebootEjb, true);
            assert_eq!(shared.pending_updates(), 2, "{shards} shards");
            assert_eq!(shared.correct_fixes_learned(), 0, "not yet drained");
            assert!(shared.suggest(&symptom(0)).is_none());

            shared.record(&symptom(2), FixKind::UpdateStatistics, true);
            assert_eq!(shared.pending_updates(), 0, "{shards} shards");
            assert_eq!(shared.correct_fixes_learned(), 3);
            assert_eq!(shared.drains(), 1);
            assert_eq!(
                shared.suggest(&symptom(0)).unwrap().0,
                FixKind::RepartitionMemory
            );
            assert_eq!(
                over_models(&shared, |m| m.retrains() as usize),
                1,
                "one refit for the whole batch"
            );
        }
    }

    #[test]
    fn locked_flush_publishes_a_partial_batch() {
        for shards in SHARD_COUNTS {
            let mut shared = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, shards, 64);
            shared.record(&symptom(0), FixKind::RepartitionMemory, true);
            assert!(shared.suggest(&symptom(0)).is_none());
            shared.flush();
            assert_eq!(
                shared.suggest(&symptom(0)).unwrap().0,
                FixKind::RepartitionMemory
            );
            // A second flush with an empty queue is a no-op.
            shared.flush();
            assert_eq!(shared.drains(), 1, "{shards} shards");
        }
    }

    #[test]
    fn locked_clones_share_learned_state() {
        for shards in SHARD_COUNTS {
            let mut a = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, shards, 1);
            let b = a.clone();
            a.record(&symptom(1), FixKind::MicrorebootEjb, true);
            assert_eq!(b.correct_fixes_learned(), 1, "{shards} shards");
            assert_eq!(b.suggest(&symptom(1)).unwrap().0, FixKind::MicrorebootEjb);
        }
    }

    #[test]
    fn failed_fixes_never_become_positives() {
        for shards in SHARD_COUNTS {
            let mut shared = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, shards, 1);
            shared.record(&symptom(0), FixKind::KillHungQuery, false);
            shared.flush();
            assert_eq!(shared.correct_fixes_learned(), 0, "{shards} shards");
            assert_eq!(over_models(&shared, |m| m.failed_fixes_recorded()), 1);
        }
    }

    #[test]
    fn concurrent_recorders_lose_no_updates() {
        for shards in SHARD_COUNTS {
            let shared = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, shards, 5);
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
            assert_eq!(shared.correct_fixes_learned(), 100, "{shards} shards");
            assert!(shared.drains() >= 1);
            assert_eq!(
                shared.suggest(&symptom(0)).unwrap().0,
                FixKind::RepartitionMemory
            );
        }
    }

    #[test]
    fn private_store_learns_immediately_and_snapshots() {
        let mut store = PrivateStore::new(SynopsisKind::NearestNeighbor);
        store.record(&symptom(0), FixKind::RepartitionMemory, true);
        store.record(&symptom(1), FixKind::MicrorebootEjb, false);
        assert_eq!(store.correct_fixes_learned(), 1);
        assert_eq!(store.pending_updates(), 0);
        let snap = store.snapshot();
        assert_eq!(snap.positives(), 1);
        assert_eq!(snap.negatives(), 1);

        let mut restored = PrivateStore::new(SynopsisKind::NearestNeighbor);
        restored.restore(&snap);
        assert_eq!(restored.correct_fixes_learned(), 1);
        assert_eq!(
            restored.suggest(&symptom(0)).unwrap().0,
            FixKind::RepartitionMemory
        );
        assert_eq!(restored.synopsis().failed_fixes_recorded(), 1);
        // One bootstrap refit, not one per example.
        assert_eq!(restored.synopsis().retrains(), 1);
    }

    #[test]
    fn private_clone_store_is_a_deep_copy() {
        let mut a = PrivateStore::new(SynopsisKind::NearestNeighbor);
        a.record(&symptom(0), FixKind::RepartitionMemory, true);
        let mut b = a.clone_store();
        b.record(&symptom(1), FixKind::MicrorebootEjb, true);
        assert_eq!(a.correct_fixes_learned(), 1, "original unaffected");
        assert_eq!(b.correct_fixes_learned(), 2);
    }

    #[test]
    fn snapshots_restore_across_store_and_synopsis_kinds() {
        let mut locked = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 1, 1);
        for i in 0..12 {
            let class = i % 3;
            locked.record(&symptom(class), FIXES[class], true);
        }
        let snap = locked.snapshot();

        // Restore into a different shard count AND a different model kind.
        let mut sharded = ShardedStore::new(SynopsisKind::KMeans, 3);
        sharded.restore(&snap);
        assert_eq!(sharded.correct_fixes_learned(), 12);
        for (class, fix) in FIXES.iter().enumerate() {
            assert_eq!(
                sharded.suggest(&symptom(class)).unwrap().0,
                *fix,
                "class {class}"
            );
        }
    }

    #[test]
    fn sharded_routes_to_shard_zero_until_the_fit() {
        let mut store = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 4, 1);
        assert!(!store.routing_fitted());
        for i in 0..8 {
            let class = i % 3;
            store.record(&symptom(class), FIXES[class], true);
        }
        assert!(!store.routing_fitted(), "fit_after not reached");
        assert_eq!(store.shard_sizes()[0], 8, "everything on shard 0 pre-fit");

        for i in 0..ShardedStore::DEFAULT_FIT_AFTER {
            let class = i % 3;
            store.record(&symptom(class), FIXES[class], true);
        }
        assert!(store.routing_fitted());
        // Post-fit traffic spreads across shards.
        for i in 0..30 {
            let class = i % 3;
            store.record(&symptom(class), FIXES[class], true);
        }
        SynopsisStore::flush(&store);
        let sizes = store.shard_sizes();
        assert!(
            sizes.iter().filter(|&&n| n > 0).count() >= 2,
            "post-fit updates must land on multiple shards: {sizes:?}"
        );
        // Suggestions still resolve correctly through the router.
        for (class, fix) in FIXES.iter().enumerate() {
            assert_eq!(store.suggest(&symptom(class)).unwrap().0, *fix);
        }
    }

    #[test]
    fn pre_fit_experience_survives_the_router_fit() {
        let mut store = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 4, 1);
        // A rare failure healed before the routing centroids exist.
        let rare = vec![50.0, 50.0, 50.0];
        store.record(&rare, FixKind::RebuildIndex, true);
        assert_eq!(store.suggest(&rare).unwrap().0, FixKind::RebuildIndex);

        // Bulk traffic triggers the centroid fit.
        for i in 0..(2 * ShardedStore::DEFAULT_FIT_AFTER) {
            let class = i % 3;
            store.record(&symptom(class), FIXES[class], true);
        }
        assert!(store.routing_fitted());

        // The rare signature now routes by centroid — and must still find
        // the experience recorded while everything lived on shard 0.
        assert_eq!(
            store.suggest(&rare).map(|(fix, _)| fix),
            Some(FixKind::RebuildIndex),
            "pre-fit experience must be re-homed, not stranded on shard 0"
        );
        for (class, fix) in FIXES.iter().enumerate() {
            assert_eq!(store.suggest(&symptom(class)).unwrap().0, *fix);
        }
        SynopsisStore::flush(&store);
        assert_eq!(
            store.correct_fixes_learned(),
            1 + 2 * ShardedStore::DEFAULT_FIT_AFTER,
            "re-homing loses nothing"
        );
    }

    #[test]
    fn restoring_a_small_snapshot_discards_stale_centroids() {
        // Fit the router on one distribution...
        let mut store = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 4, 1);
        for i in 0..(2 * ShardedStore::DEFAULT_FIT_AFTER) {
            let class = i % 3;
            store.record(&symptom(class), FIXES[class], true);
        }
        assert!(store.routing_fitted());

        // ...then restore a snapshot too small to refit centroids.
        let mut snap = SynopsisSnapshot::new(SynopsisKind::NearestNeighbor);
        snap.push(vec![50.0, 50.0, 50.0], FixKind::RebuildIndex, true);
        store.restore(&snap);
        assert!(!store.routing_fitted(), "old partition must not survive");
        assert_eq!(store.correct_fixes_learned(), 1);
        assert_eq!(
            store.suggest(&[50.0, 50.0, 50.0]).unwrap().0,
            FixKind::RebuildIndex,
            "restored experience must be reachable under the reset routing"
        );
    }

    #[test]
    fn sharded_restore_partitions_and_warm_starts() {
        let mut cold = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 4, 1);
        for i in 0..60 {
            let class = i % 3;
            cold.record(&symptom(class), FIXES[class], true);
        }
        let snap = SynopsisStore::snapshot(&cold);

        let mut warm = ShardedStore::new(SynopsisKind::NearestNeighbor, 4);
        warm.restore(&snap);
        assert!(warm.routing_fitted(), "restore fits the router");
        assert_eq!(warm.correct_fixes_learned(), 60);
        let sizes = warm.shard_sizes();
        assert!(
            sizes.iter().filter(|&&n| n > 0).count() >= 2,
            "restored experience spreads across shards: {sizes:?}"
        );
        for (class, fix) in FIXES.iter().enumerate() {
            assert_eq!(warm.suggest(&symptom(class)).unwrap().0, *fix);
        }
    }

    #[test]
    fn incremental_persistence_appends_on_each_drain() {
        let dir = std::env::temp_dir().join("selfheal_store_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("locked.jsonl");

        let mut store = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 1, 2);
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
        let mut revived = ShardedStore::new(SynopsisKind::NearestNeighbor, 1);
        revived.restore(&mid_run);
        assert_eq!(revived.correct_fixes_learned(), 2);
        assert_eq!(revived.suggest(&symptom(0)).unwrap().0, FIXES[0]);

        // The final flush appends the tail.
        store.flush();
        assert_eq!(SynopsisSnapshot::load(&path).unwrap().len(), 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_and_private_stores_persist_incrementally_too() {
        let dir = std::env::temp_dir().join("selfheal_store_persist_test");
        std::fs::create_dir_all(&dir).unwrap();

        let sharded_path = dir.join("sharded.jsonl");
        let mut sharded = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 3, 1);
        sharded.persist_to(&sharded_path).unwrap();
        // Enough traffic to trigger the centroid fit and its re-homing
        // drain path.
        for i in 0..(2 * ShardedStore::DEFAULT_FIT_AFTER) {
            let class = i % 3;
            sharded.record(&symptom(class), FIXES[class], true);
        }
        SynopsisStore::flush(&sharded);
        let loaded = SynopsisSnapshot::load(&sharded_path).unwrap();
        assert_eq!(
            loaded.len(),
            2 * ShardedStore::DEFAULT_FIT_AFTER,
            "every drained outcome (incl. re-homed ones) is on disk exactly once"
        );

        let private_path = dir.join("private.jsonl");
        let mut private = PrivateStore::new(SynopsisKind::NearestNeighbor);
        private.record(&symptom(0), FIXES[0], true);
        private.persist_to(&private_path).unwrap();
        private.record(&symptom(1), FIXES[1], false);
        // Immediate-apply store: every record is a drain.
        assert_eq!(SynopsisSnapshot::load(&private_path).unwrap().len(), 2);

        std::fs::remove_file(&sharded_path).ok();
        std::fs::remove_file(&private_path).ok();
    }

    #[test]
    fn boxed_store_handles_drive_the_learner_surface() {
        let shared = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 2, 1);
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
            .suggest_excluding(&symptom(0), &HashSet::from([FixKind::RepartitionMemory]))
            .is_none());
        assert_eq!(handle.kind(), SynopsisKind::NearestNeighbor);
    }
}
