//! The epoch engine: a resident, id-keyed fleet of replica runners that a
//! persistent worker pool advances one tick-slice at a time.
//!
//! Everything in the workspace that "advances N runners one epoch against a
//! shared store" goes through [`EpochEngine::advance`]: the batch
//! [`FleetEngine::run`](crate::FleetEngine::run) (insert the replicas,
//! advance until the tick horizon, collect outcomes) and the resident
//! daemon's supervisor (advance one slice per loop turn, fold the results
//! into health and restart-with-backoff).  Membership, failure policy and
//! horizon belong to the caller; the engine owns the sweep, the fleet
//! analogue of a cyclic block-coordinate pass:
//!
//! * Time is cut into **epochs**: one `advance(ticks)` call each.  Within an
//!   epoch, workers claim replicas off an atomic counter in id order and
//!   advance each claimed replica through the epoch's ticks; the calling
//!   thread is the permanent barrier leader (it sweeps too), the helper
//!   threads live across epochs, and between two `advance` calls nothing
//!   runs — which is where the caller inserts, removes, swaps or inspects
//!   runners.  No replica ever runs more than one slice ahead of another.
//! * Cross-replica [`FleetEvent`](crate::events::FleetEvent)s are resolved
//!   into per-replica actions up front and applied by whichever worker
//!   steps the replica through the action's exact tick — event timing is
//!   therefore independent of worker count *and* slice width.
//! * With a fleet-shared store, every replica's store accesses go through a
//!   store gate keyed by the live replica ids: replica `r`'s
//!   suggests/records wait until every live replica below `r` has finished
//!   the current epoch.  The store therefore observes *exactly* the
//!   sequential round-robin interleave, and a parallel run is
//!   fingerprint-identical to a one-worker run at any worker count
//!   (`tests/scheduler.rs` and `tests/daemon.rs` assert this) — while the
//!   simulation work of gated replicas still overlaps (replica `r+1` can
//!   serve traffic while replica `r` retrains).
//! * A panicking replica does not abort the fleet: the panic is caught at
//!   the slice boundary, the runner is dropped, the gate turn is handed on,
//!   and `advance` reports a [`ReplicaError`] for that replica.  What
//!   happens next is the caller's policy — the batch engine retires the
//!   slot, the daemon inserts a rebuilt runner after a backoff.
//! * Reactive engines ([`crate::reactive`]) are evaluated by the leader at
//!   the start of every epoch whose first tick is a
//!   [`REACTIVE_PERIOD`] multiple, and their actions apply from that tick.
//!
//! With one `advance` spanning the whole run there is a single epoch and
//! (for private learners) the engine degenerates to run-to-completion
//! parallelism; shared stores keep the deterministic ordering at every
//! slice width, because reproducible fleet learning is the point.

use crate::events::{ActionSchedule, ReplicaAction};
use crate::reactive::{
    FleetView, ReactiveContext, ReactivePlan, ReactiveRecord, ReplicaView, REACTIVE_PERIOD,
};
use selfheal_core::snapshot::SynopsisSnapshot;
use selfheal_core::store::SynopsisStore;
use selfheal_core::synopsis::{Learner, SynopsisKind};
use selfheal_faults::FixKind;
use selfheal_sim::scenario::{Healer, ScenarioRunner};
use std::collections::HashSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{
    Arc, Barrier, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard,
    RwLockWriteGuard,
};
use std::thread::{self, JoinHandle};

/// A replica that died mid-run: its id and the panic payload, reported by
/// [`EpochEngine::advance`] instead of aborting the surviving replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaError {
    /// Id of the replica that failed.
    pub replica: usize,
    /// Human-readable panic message.
    pub message: String,
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica {} panicked: {}", self.replica, self.message)
    }
}

impl std::error::Error for ReplicaError {}

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Locks past poison: every panic the engine expects is caught before a
/// guard drops, and one dead replica must never take the sweep down.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---------------------------------------------------------------------------
// StoreGate
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct GateState {
    /// The replica ids live this epoch, ascending.
    live: Vec<usize>,
    /// `done[i]`: `live[i]` has completed its slice.
    done: Vec<bool>,
    /// Position in `live` of the first incomplete replica — the only one
    /// allowed to touch the shared store.  Past the end between epochs: the
    /// gate stands open.
    next: usize,
    /// Replicas parked in [`StoreGate::wait_for`]; nobody is woken (a
    /// syscall per slice) while there are none.
    waiting: usize,
}

/// Orders shared-store access within an epoch: replica `r` may touch the
/// store only once every live replica below `r` has completed its slice,
/// reproducing the sequential round-robin interleave under parallel
/// execution.  Keyed by whichever ids are live, so removed, panicked and
/// backed-off replicas never hold a turn.
#[derive(Debug, Default)]
struct StoreGate {
    state: Mutex<GateState>,
    turn: Condvar,
}

impl StoreGate {
    /// Blocks until every live replica below `replica` has completed the
    /// current epoch.  Called by [`GatedStore`] before each store operation;
    /// the operations of the slice being stepped keep the turn (`next` stays
    /// on `replica` until the slice completes).
    fn wait_for(&self, replica: usize) {
        let mut state = lock(&self.state);
        while state.live.get(state.next).is_some_and(|id| *id < replica) {
            state.waiting += 1;
            state = self
                .turn
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
    }

    /// Marks `replica`'s slice complete for this epoch and hands the turn
    /// to the next incomplete replica.
    fn complete(&self, replica: usize) {
        let mut state = lock(&self.state);
        if let Ok(at) = state.live.binary_search(&replica) {
            state.done[at] = true;
        }
        while state.done.get(state.next) == Some(&true) {
            state.next += 1;
        }
        if state.waiting > 0 {
            self.turn.notify_all();
        }
    }

    /// Arms the gate for an epoch over the `live` replica ids (ascending)
    /// and returns how many there are.  Called by the leader between epochs,
    /// when no replica is stepping.
    fn arm(&self, live: impl Iterator<Item = usize>) -> usize {
        let mut state = lock(&self.state);
        let state = &mut *state;
        state.live.clear();
        state.live.extend(live);
        state.done.clear();
        state.done.resize(state.live.len(), false);
        state.next = 0;
        state.live.len()
    }
}

/// A per-replica handle to the fleet-shared store that waits for the
/// replica's turn (as defined by the [`StoreGate`]) before every learning
/// operation, making parallel shared-store runs replay the sequential
/// interleave exactly.  Lifecycle operations (flush, snapshot, restore) are
/// not gated — callers only use them between epochs.
struct GatedStore {
    inner: Box<dyn SynopsisStore>,
    replica: usize,
    gate: Arc<StoreGate>,
}

impl std::fmt::Debug for GatedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatedStore")
            .field("replica", &self.replica)
            .finish_non_exhaustive()
    }
}

impl Learner for GatedStore {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        self.gate.wait_for(self.replica);
        self.inner.suggest(symptoms)
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &HashSet<FixKind>,
    ) -> Option<(FixKind, f64)> {
        self.gate.wait_for(self.replica);
        self.inner.suggest_excluding(symptoms, excluded)
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        self.gate.wait_for(self.replica);
        self.inner.record(symptoms, fix, success);
    }

    fn correct_fixes_learned(&self) -> usize {
        self.gate.wait_for(self.replica);
        self.inner.correct_fixes_learned()
    }
}

// lint:allow(choice-mirror): GatedStore is the engine-internal barrier
// wrapper around whichever store LearnerChoice built — it is plumbing, not
// a configurable scenario, so it has no enum variant by design.
impl SynopsisStore for GatedStore {
    fn kind(&self) -> SynopsisKind {
        self.inner.kind()
    }

    fn flush(&self) {
        self.inner.flush();
    }

    fn pending_updates(&self) -> usize {
        self.inner.pending_updates()
    }

    fn snapshot(&self) -> SynopsisSnapshot {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        self.inner.restore(snapshot);
    }

    fn clone_store(&self) -> Box<dyn SynopsisStore> {
        Box::new(GatedStore {
            inner: self.inner.clone_store(),
            replica: self.replica,
            gate: Arc::clone(&self.gate),
        })
    }

    fn persist_to(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        self.inner.persist_to(path)
    }
}

// ---------------------------------------------------------------------------
// The epoch engine
// ---------------------------------------------------------------------------

/// The runner type every slot holds.
pub type ReplicaRunner = ScenarioRunner<Box<dyn Healer>>;

/// One replica's slot.
struct ReplicaSlot {
    /// The live runner; `None` once it has panicked, until the caller
    /// inserts a replacement.
    runner: Option<ReplicaRunner>,
    /// The panic that retired the runner this epoch, until the leader
    /// collects it.
    panic: Option<String>,
    /// Reactive actions to apply before the first tick of the next epoch.
    pending: Vec<ReplicaAction>,
    /// Replacement runners inserted into this slot so far.
    restarts: u32,
}

/// The state the workers share for one epoch; the leader rewrites it only
/// between epochs, while every helper is parked at the barrier.
struct Fleet {
    /// Slots in ascending id order (ids may be sparse).
    slots: Vec<(usize, Mutex<ReplicaSlot>)>,
    schedule: ActionSchedule,
    /// The ticks of the current epoch.
    window: Range<u64>,
}

impl Fleet {
    fn slot(&self, replica: usize) -> Option<&Mutex<ReplicaSlot>> {
        self.slots
            .binary_search_by_key(&replica, |(id, _)| *id)
            .ok()
            .map(|at| &self.slots[at].1)
    }

    /// Builds the [`FleetView`] the reactive engines observe at a barrier —
    /// a pure function of the run so far.  Indexed by replica id: ids
    /// without a live runner (removed, panicked, in backoff) read as
    /// retired.
    fn view(&self, tick: u64) -> FleetView {
        let len = self.slots.last().map_or(0, |(id, _)| id + 1);
        let mut replicas: Vec<ReplicaView> = (0..len).map(ReplicaView::retired).collect();
        for (id, slot) in &self.slots {
            let slot = lock(slot);
            let Some(runner) = &slot.runner else { continue };
            let recovery = runner.recovery();
            let recent: Vec<u64> = recovery
                .episodes()
                .iter()
                .rev()
                .filter_map(|e| e.recovery_ticks())
                .take(5)
                .collect();
            replicas[*id] = ReplicaView {
                replica: *id,
                ticks: runner.ticks_run(),
                retired: false,
                open_episodes: usize::from(recovery.in_episode()),
                episodes: recovery.len(),
                recent_mean_recovery: (!recent.is_empty())
                    .then(|| recent.iter().sum::<u64>() as f64 / recent.len() as f64),
                fixes_initiated: runner.fixes_initiated(),
                restarts: slot.restarts,
            };
        }
        FleetView { tick, replicas }
    }
}

fn apply(runner: &mut ReplicaRunner, action: &ReplicaAction) {
    match action {
        ReplicaAction::Inject(fault) => runner.inject(fault.clone()),
        ReplicaAction::Surge { factor, until_tick } => runner.apply_surge(*factor, *until_tick),
    }
}

/// What the leader and the helper threads share.
struct Shared {
    fleet: RwLock<Fleet>,
    /// The epoch's claim counter: an index into `Fleet::slots`.
    next: AtomicUsize,
    gate: Arc<StoreGate>,
    /// Tells helpers released from the barrier to exit instead of sweeping.
    stop: AtomicBool,
}

impl Shared {
    fn fleet(&self) -> RwLockReadGuard<'_, Fleet> {
        self.fleet.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn fleet_mut(&self) -> RwLockWriteGuard<'_, Fleet> {
        self.fleet.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims and advances replicas through the current epoch window until
    /// the counter runs dry.  Panics inside a replica's step are caught here
    /// — the one place the workspace steps a runner inside `catch_unwind` —
    /// and the gate turn is always handed on, so siblings never stall behind
    /// a dead replica.
    fn sweep(&self) {
        let fleet = self.fleet();
        let window = fleet.window.clone();
        while let Some((id, slot)) = fleet.slots.get(self.next.fetch_add(1, Ordering::SeqCst)) {
            let mut slot = lock(slot);
            let ReplicaSlot {
                runner,
                panic,
                pending,
                ..
            } = &mut *slot;
            let Some(live) = runner.as_mut() else {
                continue;
            };
            let reactive = std::mem::take(pending);
            let stepped = catch_unwind(AssertUnwindSafe(|| {
                for tick in window.clone() {
                    for action in fleet.schedule.actions_for(*id, tick) {
                        apply(live, action);
                    }
                    if tick == window.start {
                        for action in &reactive {
                            apply(live, action);
                        }
                    }
                    live.step();
                }
            }));
            if let Err(payload) = stepped {
                // The runner may be mid-tick inconsistent; drop the whole
                // incarnation.
                *runner = None;
                *panic = Some(panic_message(payload));
            }
            drop(slot);
            self.gate.complete(*id);
        }
    }
}

fn helper_loop(shared: &Shared, barrier: &Barrier) {
    loop {
        barrier.wait();
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        shared.sweep();
        barrier.wait();
    }
}

/// The one epoch engine (see the [module docs](self)): slots keyed by
/// replica id, a worker pool that lives across epochs, the store gate, and
/// the reactive context — behind a single [`advance`](Self::advance).
pub struct EpochEngine {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    /// Two-phase epoch barrier over the helpers plus the calling thread.
    barrier: Arc<Barrier>,
    max_workers: usize,
    tick: u64,
    reactive: ReactiveContext,
}

impl std::fmt::Debug for EpochEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochEngine")
            .field("tick", &self.tick)
            .field("workers", &(self.helpers.len() + 1))
            .finish_non_exhaustive()
    }
}

impl EpochEngine {
    /// An empty engine at tick 0 that sweeps on at most `max_workers` OS
    /// threads (`None` = one per available core; the calling thread counts,
    /// and each epoch uses no more workers than it has live replicas).
    pub fn new(max_workers: Option<usize>) -> Self {
        let max_workers = max_workers.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        EpochEngine {
            shared: Arc::new(Shared {
                fleet: RwLock::new(Fleet {
                    slots: Vec::new(),
                    schedule: ActionSchedule::default(),
                    window: 0..0,
                }),
                next: AtomicUsize::new(0),
                gate: Arc::default(),
                stop: AtomicBool::new(false),
            }),
            helpers: Vec::new(),
            barrier: Arc::new(Barrier::new(1)),
            max_workers: max_workers.max(1),
            tick: 0,
            reactive: ReactiveContext::default(),
        }
    }

    /// Installs the resolved cross-replica event schedule.
    pub(crate) fn with_schedule(self, schedule: ActionSchedule) -> Self {
        self.shared.fleet_mut().schedule = schedule;
        self
    }

    /// Ticks advanced so far: the first tick of the next epoch.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// A handle to `store` for replica `replica`'s healer whose learning
    /// operations wait for the replica's turn in the epoch's id order.
    pub fn gated_store(&self, store: &dyn SynopsisStore, replica: usize) -> Box<dyn SynopsisStore> {
        Box::new(GatedStore {
            inner: store.clone_store(),
            replica,
            gate: Arc::clone(&self.shared.gate),
        })
    }

    /// Puts `runner` into slot `replica`, replacing (and counting as a
    /// restart of) whatever the slot held.
    pub fn insert(&mut self, replica: usize, runner: ReplicaRunner) {
        let mut fleet = self.shared.fleet_mut();
        match fleet.slots.binary_search_by_key(&replica, |(id, _)| *id) {
            Ok(at) => {
                let mut slot = lock(&fleet.slots[at].1);
                slot.runner = Some(runner);
                slot.pending.clear();
                slot.restarts += 1;
            }
            Err(at) => fleet.slots.insert(
                at,
                (
                    replica,
                    Mutex::new(ReplicaSlot {
                        runner: Some(runner),
                        panic: None,
                        pending: Vec::new(),
                        restarts: 0,
                    }),
                ),
            ),
        }
    }

    /// Drops slot `replica` and its runner.
    pub fn remove(&mut self, replica: usize) {
        self.shared
            .fleet_mut()
            .slots
            .retain(|(id, _)| *id != replica);
    }

    /// Runs `f` on the live runner in slot `replica`; `None` when the slot
    /// is absent or its runner has panicked.
    pub fn with_runner<R>(
        &self,
        replica: usize,
        f: impl FnOnce(&mut ReplicaRunner) -> R,
    ) -> Option<R> {
        let fleet = self.shared.fleet();
        let mut slot = lock(fleet.slot(replica)?);
        slot.runner.as_mut().map(f)
    }

    /// Replaces the reactive engines (an empty plan switches them off); the
    /// fault-id counter and the action log carry over.  `slice` is the epoch
    /// width the caller advances by: it must divide [`REACTIVE_PERIOD`], or
    /// runs of different slice widths would observe different views.
    pub fn set_reactive(&mut self, plan: ReactivePlan, slice: u64) -> Result<(), String> {
        if !plan.is_empty() && !REACTIVE_PERIOD.is_multiple_of(slice.max(1)) {
            return Err(format!(
                "reactive engines evaluate at {REACTIVE_PERIOD}-tick barriers, so the slice \
                 ({slice}) must divide the reactive period — use a slice of 1, 2, 4, 8, 16, \
                 32, or 64"
            ));
        }
        self.reactive.set_plan(plan);
        Ok(())
    }

    /// Drains the log of actions the reactive engines emitted since the
    /// last call, in emission order.
    pub fn take_reactive_log(&mut self) -> Vec<ReactiveRecord> {
        self.reactive.take_log()
    }

    /// Advances every live replica `ticks` ticks — one epoch — and returns
    /// one entry per replica that was live when the epoch began, in id
    /// order: `Ok` when it completed the slice, the [`ReplicaError`]
    /// describing the panic that killed its runner otherwise.
    pub fn advance(&mut self, ticks: u64) -> Vec<(usize, Result<(), ReplicaError>)> {
        let start = self.tick;
        let mut fleet = self.shared.fleet_mut();
        fleet.window = start..start + ticks;
        // The reactive barrier: the engines see the fleet as the previous
        // epoch left it (untouched at tick 0) and act from this tick on.
        if !self.reactive.is_empty() && start.is_multiple_of(REACTIVE_PERIOD) {
            let view = fleet.view(start);
            for (replica, action) in self.reactive.evaluate(&view) {
                if let Some(slot) = fleet.slot(replica) {
                    let mut slot = lock(slot);
                    if slot.runner.is_some() {
                        slot.pending.push(action);
                    }
                }
            }
        }
        let live = self.shared.gate.arm(
            fleet
                .slots
                .iter()
                .filter(|(_, slot)| lock(slot).runner.is_some())
                .map(|(id, _)| *id),
        );
        drop(fleet);

        self.shared.next.store(0, Ordering::SeqCst);
        self.resize_pool(self.max_workers.min(live).max(1) - 1);
        if self.helpers.is_empty() {
            self.shared.sweep();
        } else {
            // Two-phase barrier: release the helpers into the epoch, sweep
            // beside them, then wait until the last one has run dry.
            self.barrier.wait();
            self.shared.sweep();
            self.barrier.wait();
        }
        self.tick += ticks;

        let fleet = self.shared.fleet();
        fleet
            .slots
            .iter()
            .filter_map(|(id, slot)| {
                let mut slot = lock(slot);
                match slot.panic.take() {
                    Some(message) => Some((
                        *id,
                        Err(ReplicaError {
                            replica: *id,
                            message,
                        }),
                    )),
                    None => slot.runner.is_some().then_some((*id, Ok(()))),
                }
            })
            .collect()
    }

    /// Brings the helper pool to `wanted` threads (membership changes are
    /// rare, so the pool is simply rebuilt when the count moves).
    fn resize_pool(&mut self, wanted: usize) {
        if self.helpers.len() == wanted {
            return;
        }
        self.stop_pool();
        self.barrier = Arc::new(Barrier::new(wanted + 1));
        self.helpers = (0..wanted)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                let barrier = Arc::clone(&self.barrier);
                thread::Builder::new()
                    .name("epoch-worker".to_string())
                    .spawn(move || helper_loop(&shared, &barrier))
                    .expect("cannot spawn an epoch worker thread")
            })
            .collect();
    }

    fn stop_pool(&mut self) {
        if self.helpers.is_empty() {
            return;
        }
        self.shared.stop.store(true, Ordering::SeqCst);
        self.barrier.wait();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
        self.shared.stop.store(false, Ordering::SeqCst);
    }
}

impl Drop for EpochEngine {
    fn drop(&mut self) {
        self.stop_pool();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_core::store::ShardedStore;
    use selfheal_faults::{FixAction, InjectionPlan};
    use selfheal_sim::scenario::NoHealing;
    use selfheal_sim::service::TickOutcome;
    use selfheal_sim::{MultiTierService, ServiceConfig};
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};

    /// A healer that panics once its replica reaches a given tick.
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
                panic!("synthetic replica failure at tick {}", self.tick);
            }
            self.seen += 1;
            Vec::new()
        }
    }

    fn runner(healer: Box<dyn Healer>) -> ReplicaRunner {
        let service = MultiTierService::new(ServiceConfig::tiny());
        let workload = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 20.0 },
            7,
        );
        ScenarioRunner::new(service, workload, InjectionPlan::empty(), healer)
    }

    /// Advances `engine` to `ticks` in `slice`-tick epochs; returns every
    /// error reported on the way.
    fn drive(engine: &mut EpochEngine, ticks: u64, slice: u64) -> Vec<ReplicaError> {
        let mut errors = Vec::new();
        while engine.tick() < ticks {
            let results = engine.advance(slice.min(ticks - engine.tick()));
            errors.extend(results.into_iter().filter_map(|(_, result)| result.err()));
        }
        errors
    }

    fn ticks_run(engine: &EpochEngine, replica: usize) -> Option<u64> {
        engine.with_runner(replica, |runner| runner.ticks_run())
    }

    #[test]
    fn a_panicking_replica_is_retired_without_aborting_the_fleet() {
        let mut engine = EpochEngine::new(Some(2));
        engine.insert(0, runner(Box::new(NoHealing)));
        engine.insert(1, runner(Box::new(PanicAt { tick: 13, seen: 0 })));
        engine.insert(2, runner(Box::new(NoHealing)));
        let errors = drive(&mut engine, 40, 1);
        assert_eq!(ticks_run(&engine, 0), Some(40), "survivor 0 ran on");
        assert_eq!(ticks_run(&engine, 2), Some(40), "survivor 2 ran on");
        assert_eq!(ticks_run(&engine, 1), None, "the dead runner is gone");
        assert_eq!(errors.len(), 1, "reported once, in the epoch it died");
        assert_eq!(errors[0].replica, 1);
        assert!(
            errors[0].message.contains("synthetic replica failure"),
            "panic payload surfaced: {}",
            errors[0].message
        );
    }

    /// A healer that consults its (gated) store on every tick — the worst
    /// case for a gate that fails to hand the turn past a dead replica.
    struct TouchStore {
        store: Box<dyn SynopsisStore>,
    }

    impl Healer for TouchStore {
        fn name(&self) -> &str {
            "touch_store"
        }

        fn observe(&mut self, _outcome: &TickOutcome) -> Vec<FixAction> {
            let _ = self.store.suggest(&[1.0, 2.0, 3.0]);
            Vec::new()
        }
    }

    #[test]
    fn a_panicking_replica_does_not_stall_gated_siblings() {
        let store = ShardedStore::new(SynopsisKind::NearestNeighbor, 1);
        let mut engine = EpochEngine::new(Some(3));
        // Sparse ids: the gate is keyed by whichever ids are live, not by
        // `0..n`.  Survivors consult the gated store every single tick: if
        // the dead replica kept the turn, they would block forever and this
        // test would hang.
        engine.insert(2, runner(Box::new(PanicAt { tick: 5, seen: 0 })));
        for replica in [5, 9] {
            let store = engine.gated_store(&store, replica);
            engine.insert(replica, runner(Box::new(TouchStore { store })));
        }
        let errors = drive(&mut engine, 30, 1);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].replica, 2);
        assert_eq!(ticks_run(&engine, 5), Some(30));
        assert_eq!(ticks_run(&engine, 9), Some(30));

        // A replacement in the dead slot takes its turn again (first in id
        // order), a removed sibling is passed over, and a late joiner with
        // the highest id goes last.
        engine.insert(2, runner(Box::new(NoHealing)));
        engine.remove(5);
        let late = engine.gated_store(&store, 11);
        engine.insert(11, runner(Box::new(TouchStore { store: late })));
        assert!(drive(&mut engine, 50, 1).is_empty());
        assert_eq!(ticks_run(&engine, 2), Some(20));
        assert_eq!(ticks_run(&engine, 5), None);
        assert_eq!(ticks_run(&engine, 9), Some(50));
        assert_eq!(ticks_run(&engine, 11), Some(20));
    }

    #[test]
    fn slice_widths_partition_the_run_exactly() {
        for slice in [1, 7, 64, 1000] {
            let mut engine = EpochEngine::new(Some(1));
            engine.insert(0, runner(Box::new(NoHealing)));
            assert!(drive(&mut engine, 50, slice).is_empty());
            assert_eq!(ticks_run(&engine, 0), Some(50), "slice {slice}");
        }
    }

    #[test]
    fn reactive_plans_reject_a_slice_that_does_not_divide_the_period() {
        use crate::reactive::AdversarySource;
        use selfheal_faults::FaultKind;
        let plan = || {
            ReactivePlan::new().with(AdversarySource::new(
                FaultKind::BufferContention,
                0.9,
                0,
                u64::MAX,
            ))
        };
        let mut engine = EpochEngine::new(Some(1));
        assert!(engine.set_reactive(plan(), 48).is_err());
        assert!(engine.set_reactive(ReactivePlan::new(), 48).is_ok(), "off");
        assert!(engine.set_reactive(plan(), 32).is_ok());
    }
}
