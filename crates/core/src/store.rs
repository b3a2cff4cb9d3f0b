//! Pluggable synopsis stores: where a fleet's learned failure→fix model
//! lives, how it is shared, and how it survives the process.
//!
//! The paper's scaling argument (Table 3: synopses are cheap to build and
//! query) says one synopsis can serve *many* service instances.  The
//! [`SynopsisStore`] trait is the seam that makes the topology of that
//! sharing a configuration choice instead of a code path, and
//! [`ShardedStore`] is the one store behind it:
//!
//! * A replica learning alone (the paper's single-instance setup,
//!   `LearnerChoice::Private`) owns a one-shard store with batch 1: every
//!   record is drained, and the model refit, as it happens.
//! * A fleet shares one store (`LearnerChoice::Locked` / `Sharded`) whose
//!   records queue and drain in batches with one combined refit.  With
//!   `k > 1` shards the store partitions the symptom space with k-means
//!   centroids (`selfheal_learn::KMeans`) — like cyclic block coordinate
//!   descent partitions a solver's coordinates into disjoint blocks — and
//!   routes every suggest/record to the synopsis owning that region.  That
//!   is a learning choice (each region's model sees only its own
//!   failures), not a way around contention.
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

use crate::snapshot::{SnapshotLog, SynopsisExample, SynopsisSnapshot};
use crate::synopsis::{Learner, Synopsis, SynopsisKind};
use selfheal_faults::FixKind;
use selfheal_learn::{Classifier, Dataset, Example, KMeans};
use std::collections::HashSet;
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

    /// A handle for one more consumer of this store: [`ShardedStore`]
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

/// One symptom region's synopsis and the updates queued for it.
#[derive(Debug)]
struct Shard {
    model: Synopsis,
    pending: Vec<PendingUpdate>,
}

impl Shard {
    /// Replaces the model with one built from `examples`, dropping the queue.
    fn rebuild(&mut self, kind: SynopsisKind, examples: &[SynopsisExample]) {
        self.pending.clear();
        self.model = Synopsis::from_examples(kind, examples);
    }
}

/// Everything a [`ShardedStore`] holds, behind its one lock.
#[derive(Debug)]
struct State {
    kind: SynopsisKind,
    batch: usize,
    router: Router,
    shards: Vec<Shard>,
    drains: u64,
    log: Persist,
}

/// Where a store's drained outcomes go besides its models.
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
    /// The model owning `symptoms`' region.
    fn routed(&self, symptoms: &[f64]) -> &Synopsis {
        &self.shards[self.router.route(symptoms)].model
    }

    /// Folds shard `index`'s queue into its model with one combined refit,
    /// first appending the outcomes to the incremental log when one is
    /// active; `false` when nothing was queued.  The queue keeps its
    /// capacity, so a batch-1 record allocates only its symptom vector.
    ///
    /// A failed append (a full disk, a bad handle) detaches the log: the
    /// store keeps learning in memory, and
    /// [`log_detached`](SynopsisStore::log_detached) says so.
    fn absorb_pending(&mut self, index: usize) -> bool {
        let Shard { model, pending } = &mut self.shards[index];
        if pending.is_empty() {
            return false;
        }
        if let Persist::Log(log) = &self.log {
            let outcomes = pending.iter().map(|(s, fix, ok)| (s.as_slice(), *fix, *ok));
            if log.append_outcomes(outcomes).is_err() {
                self.log = Persist::Detached;
            }
        }
        model.absorb(pending.drain(..));
        true
    }

    /// Drains every shard's queue (each non-empty one counts as a drain).
    fn flush(&mut self) {
        for index in 0..self.shards.len() {
            self.drains += u64::from(self.absorb_pending(index));
        }
    }

    /// Every shard's folded experience; queued updates are not in it.
    fn experience(&self) -> SynopsisSnapshot {
        let mut snapshot = SynopsisSnapshot::new(self.kind);
        for shard in &self.shards {
            append_synopsis(&mut snapshot, &shard.model);
        }
        snapshot
    }

    /// Rebuilds every shard's model from `snapshot`, partitioned by the
    /// router's current centroids.
    fn partition(&mut self, snapshot: &SynopsisSnapshot) {
        let kind = self.kind;
        // One shard owns everything: rebuild straight from the snapshot
        // instead of copying it into a per-shard slice first.
        if let [only] = self.shards.as_mut_slice() {
            return only.rebuild(kind, &snapshot.examples);
        }
        let mut per_shard = vec![Vec::new(); self.shards.len()];
        for example in &snapshot.examples {
            per_shard[self.router.route(&example.symptoms)].push(example.clone());
        }
        for (shard, examples) in self.shards.iter_mut().zip(&per_shard) {
            shard.rebuild(kind, examples);
        }
    }
}

/// The one synopsis store: a cloneable handle to `k` synopses that
/// partition symptom space, each with a queue of updates it drains in
/// batches.  Clones share state.
///
/// Every suggest/record is routed to the shard owning the symptom's region
/// (nearest fitted centroid).  A [`record`](Learner::record) appends to the
/// shard's queue; once the queue holds `batch` updates it is drained into
/// the model with a *single* combined refit.  Batching trades staleness for
/// fewer refits: a freshly learned fix becomes visible after at most
/// `batch - 1` further updates to its shard (or a
/// [`flush`](SynopsisStore::flush)).  With `k = 1` the router is inert and
/// the store is one synopsis; with batch 1 every record drains at once.
///
/// All of it — router, models, queues, drain count, log — sits behind one
/// `Mutex`.  Nothing contends for it: the fleet's gate admits one replica
/// at a time (see the module docs), so no method waits on it in practice,
/// and none re-locks it while holding it.
#[derive(Debug, Clone)]
pub struct ShardedStore {
    state: Arc<Mutex<State>>,
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
        let state = State {
            kind,
            batch: batch.max(1),
            router: Router::new(shards, Self::DEFAULT_FIT_AFTER),
            shards: (0..shards)
                .map(|_| Shard {
                    model: Synopsis::new(kind),
                    pending: Vec::new(),
                })
                .collect(),
            drains: 0,
            log: Persist::Off,
        };
        ShardedStore {
            state: Arc::new(Mutex::new(state)),
        }
    }

    /// The store's state, locked.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("synopsis store poisoned")
    }

    /// Successful-fix examples per shard — how the symptom space actually
    /// partitioned.
    pub(crate) fn shard_sizes(&self) -> Vec<usize> {
        let shards = &self.state().shards;
        shards
            .iter()
            .map(|s| s.model.correct_fixes_learned())
            .collect()
    }
}

impl Learner for ShardedStore {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        self.state().routed(symptoms).suggest(symptoms)
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &HashSet<FixKind>,
    ) -> Option<(FixKind, f64)> {
        let state = self.state();
        state.routed(symptoms).suggest_excluding(symptoms, excluded)
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        let mut guard = self.state();
        let state = &mut *guard;
        if state.router.observe(symptoms) {
            // The partition just froze.  Everything recorded so far routed
            // to shard 0; re-home it under the new centroids so pre-fit
            // experience stays reachable from its region's shard instead of
            // being stranded.  Moving experience is not a drain, so the
            // queues fold in uncounted (and are logged).
            for index in 0..state.shards.len() {
                state.absorb_pending(index);
            }
            let resident = state.experience();
            state.partition(&resident);
        }
        let index = state.router.route(symptoms);
        let pending = &mut state.shards[index].pending;
        pending.push((symptoms.to_vec(), fix, success));
        if pending.len() >= state.batch {
            state.absorb_pending(index);
            state.drains += 1;
        }
    }

    fn correct_fixes_learned(&self) -> usize {
        self.shard_sizes().iter().sum()
    }
}

impl SynopsisStore for ShardedStore {
    fn kind(&self) -> SynopsisKind {
        self.state().kind
    }

    fn flush(&self) {
        self.state().flush();
    }

    fn pending_updates(&self) -> usize {
        self.state().shards.iter().map(|s| s.pending.len()).sum()
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
        for shard in &state.shards {
            tally.add_synopsis(&shard.model);
        }
        tally.finish()
    }

    fn failure_memory(&self) -> (usize, usize) {
        let state = self.state();
        let models = state.shards.iter().map(|s| s.model.failure_memory());
        models.fold((0, 0), |(recorded, kept), (r, k)| (recorded + r, kept + k))
    }

    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        let mut state = self.state();
        // Refit the routing centroids from the snapshot's symptom vectors so
        // restored experience lands on the shards that will serve it.  With
        // too few examples to fit, stale centroids from a previous fit are
        // discarded too — routing falls back to shard 0 (where the examples
        // are about to land) until the warm-up buffer refills.
        let shards = state.shards.len();
        if shards > 1 {
            let router = &mut state.router;
            router.buffer = snapshot
                .examples
                .iter()
                .map(|e| e.symptoms.clone())
                .collect();
            router.fitted = false;
            router.centroids.clear();
            if router.buffer.len() >= shards {
                router.fit();
            }
        }
        state.partition(snapshot);
        // An active log is recreated from the restored experience (the
        // queues were just emptied, so there is nothing to flush); one that
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

    impl ShardedStore {
        /// Whether the routing centroids have been fitted yet (before the fit,
        /// all traffic goes to shard 0).
        pub(crate) fn routing_fitted(&self) -> bool {
            self.state().router.fitted
        }

        /// How many batched drains have run across all shards.
        pub(crate) fn drains(&self) -> u64 {
            self.state().drains
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
        store.state().shards.iter().map(|s| stat(&s.model)).sum()
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
        let mut concrete = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 1, 1);
        concrete.restore(&snap);
        assert_eq!(over_models(&concrete, |m| m.failed_fixes_recorded()), 1);
        assert_eq!(over_models(&concrete, |m| m.retrains() as usize), 1);
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
        let mut private = LearnerChoice::Private.build_store(SynopsisKind::NearestNeighbor);
        private.record(&symptom(0), FIXES[0], true);
        private.persist_to(&private_path).unwrap();
        private.record(&symptom(1), FIXES[1], false);
        // Immediate-apply store: every record is a drain.
        assert_eq!(SynopsisSnapshot::load(&private_path).unwrap().len(), 2);

        std::fs::remove_file(&sharded_path).ok();
        std::fs::remove_file(&private_path).ok();
    }

    #[test]
    fn a_log_that_cannot_be_written_is_detached_and_learning_goes_on() {
        let dir = std::env::temp_dir().join("selfheal_store_detach_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("read_only.jsonl");
        let mut store = ShardedStore::with_batch(SynopsisKind::NearestNeighbor, 1, 1);
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
