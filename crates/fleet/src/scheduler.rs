//! The epoch engine: a resident, id-keyed fleet of replica runners that a
//! persistent worker pool advances one window of tick-slices at a time.
//!
//! Everything in the workspace that "advances N runners against a shared
//! store" goes through [`EpochEngine::advance`]: the batch
//! [`FleetEngine::run`](crate::FleetEngine::run) (insert the replicas,
//! advance to the tick horizon, collect outcomes) and the resident daemon's
//! supervisor (advance one slice per loop turn, fold the results into
//! health and restart-with-backoff).  Membership, failure policy and
//! horizon belong to the caller; the engine owns the sweep, the fleet
//! analogue of a cyclic block-coordinate pass:
//!
//! * One `advance(ticks)` call is a **window**, cut into **slices** of the
//!   engine's slice width (a window is a single slice unless the caller
//!   set a narrower one).  The window's work is the **units** (slice `k`,
//!   live replica at position `p` in id order), and their **cyclic order**
//!   `(0,0) (0,1) … (1,0) (1,1) …` is the sweep one worker runs — literally:
//!   an engine with one worker steps the units in that order.  Several
//!   workers share a window by **turns**: a worker takes hold of the first
//!   replica nobody holds (whoever arrives first gets the one no gate holds
//!   back), steps it through its next slices (a few dozen ticks, so the
//!   replica's state stays in that core's cache and the workers exchange a
//!   cache line per turn, not per tick), lets go, and looks for the next
//!   free one from as many positions on as there are workers — so workers
//!   in step keep to disjoint replicas, a replica changes cores only when
//!   one worker falls behind, and the replicas advance together, a turn or
//!   so apart.  (Who steps what is the one thing in a window that depends
//!   on timing, and a replica's state is what moving it costs: how much
//!   depends on how far apart the host put the cores, so an engine that
//!   hands replicas over every tick runs at the host's whim.)
//!   The calling thread sweeps too, the helper threads live across windows,
//!   and the only fleet-wide synchronisation is one two-phase barrier per
//!   window: between two `advance` calls nothing runs — which is where the
//!   caller inserts, removes, swaps or inspects runners.
//! * Cross-replica events ([`EventPlan`](crate::events::EventPlan)) are resolved
//!   into per-replica actions up front and applied by whichever worker
//!   steps the replica through the action's exact tick — event timing is
//!   therefore independent of worker count *and* slice width.
//! * **The ordering rule.**  Replicas synchronise where they can observe
//!   each other — at the fleet-shared store — and nowhere else.  Every
//!   store access goes through a gated handle: a replica in its slice `k`
//!   may touch the store once every live replica below it has completed
//!   more than `k` slices and every one above it at least `k`, i.e. once
//!   its unit is the first incomplete one of the cyclic order.  The store
//!   therefore observes *exactly* the one-worker interleave, and a parallel
//!   run is fingerprint-identical to a one-worker run at any worker count
//!   and any window length (`tests/scheduler.rs` and `tests/daemon.rs`
//!   assert this) — while a replica that does not consult the store runs
//!   on freely, and the simulation work of gated replicas still overlaps
//!   (replica `r+1` can serve traffic while replica `r` retrains).  A
//!   worker whose replica reaches the store early does not sit there: the
//!   replicas that are behind and held by nobody it steps up to the turn
//!   itself, nested on its own stack, and it waits only for those another
//!   worker is stepping — in a window of many turns looking on for a few
//!   turns' length before it parks, because the replica is about a turn
//!   away and a park costs a wake-up from another core.
//! * **Why no worker count can deadlock it.**  The store is the only place
//!   a worker waits, and it waits only for a replica that another worker
//!   holds.  A worker may be stopped at the store in several units at once
//!   — the one it was stepping, and under it the ones it was bringing up —
//!   so take, over all workers, the stopped unit that comes first in the
//!   cyclic order.  The replica it waits for is behind it, so that
//!   replica's next unit comes earlier still, and its holder is in that
//!   unit: not stopped at the store there (it would have been the first),
//!   hence stepping it, and it will complete.  A replica let go with slices
//!   left — a turn ended, or it was needed only up to somebody's slice —
//!   wakes whoever waits for it, to take it up themselves.
//! * A panicking replica does not abort the fleet: the panic is caught at
//!   the slice boundary, the runner is dropped, its remaining units count
//!   as complete, and `advance` reports a [`ReplicaError`] for that replica
//!   when the window ends.  What happens next is the caller's policy — the
//!   batch engine retires the slot, the daemon inserts a rebuilt runner
//!   after a backoff.
//! * Reactive engines ([`crate::reactive`]) are evaluated by the leader at
//!   the start of every window whose first tick is a [`REACTIVE_PERIOD`]
//!   multiple, and their actions apply from that tick; a caller with a
//!   reactive plan therefore advances in windows of at most that period.
//!
//! With private learners nothing is shared, so the batch engine leaves the
//! window uncut — one slice, one turn — and each replica runs to the
//! horizon on one core; shared stores keep the deterministic ordering at
//! every slice width, because reproducible fleet learning is the point.
//!
//! # Which test pins which path
//!
//! A window runs one of three paths: `sweep_in_order` when the engine has
//! one worker, turns in `sweep` when it has several, and under those turns
//! the nested catch-up in `wait_for` once a replica consults a gated store.
//!
//! * `sweep_in_order`: `slice_widths_partition_the_run_exactly` and the
//!   one-worker leg of `one_window_admits_store_accesses_in_the_slice_at_a_time_order`
//!   (unit tests below); the `ExecutionMode::Sequential` side of every
//!   equivalence in `tests/scheduler.rs` and the batch twin of
//!   `tests/daemon.rs::multi_replica_supervisor_matches_the_sequential_batch_fleet`.
//!   `reactive_plans_reject_a_slice_that_does_not_divide_the_period` is
//!   refused before any path runs.
//! * Turns in `sweep`, no gate consulted:
//!   `a_panicking_replica_is_retired_without_aborting_the_fleet`,
//!   `a_window_crosses_the_barrier_once_however_many_slices_it_has` and
//!   `a_replica_changes_workers_at_most_once_a_turn`;
//!   `tests/scheduler.rs::slice_width_is_invariant_for_private_learners`
//!   and `workload_surges_amplify_traffic_fleet_wide` (private learners).
//! * Nested catch-up in `wait_for`: the several-worker legs of
//!   `one_window_admits_store_accesses_in_the_slice_at_a_time_order`,
//!   `the_gate_admits_one_replica_to_the_store_at_a_time` (which is why a
//!   store's one lock is never contended),
//!   `fewer_workers_than_gated_replicas_cannot_deadlock`,
//!   `a_panicking_replica_does_not_stall_gated_siblings` and
//!   `a_replica_dying_mid_window_is_reported_once_at_the_windows_end`;
//!   the parallel side of `tests/scheduler.rs`'s locked-store tests
//!   (`tick_sliced_parallel_matches_sequential_with_a_shared_store`,
//!   `parallel_and_sequential_agree_at_any_matching_slice_width`,
//!   `fault_storms_are_deterministic_across_worker_counts`,
//!   `warm_started_fleets_shrug_off_a_storm`); and every multi-replica test
//!   in `tests/daemon.rs`, whose supervisor takes one worker per core
//!   (on a one-core host those run `sweep_in_order` instead).

use crate::events::{ActionSchedule, ReplicaAction};
use crate::reactive::{FleetView, ReactivePlan, ReactiveRecord, ReplicaView, REACTIVE_PERIOD};
use selfheal_core::harness::ReactiveChoice;
use selfheal_core::snapshot::{SnapshotLog, SynopsisSnapshot};
use selfheal_core::store::{FixStats, SynopsisStore};
use selfheal_core::synopsis::{FixExclusions, Learner, SynopsisKind};
use selfheal_faults::FixKind;
use selfheal_sim::scenario::{Healer, ScenarioRunner};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Condvar, Mutex, MutexGuard, PoisonError, Weak};
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
// GatedStore
// ---------------------------------------------------------------------------

/// A per-replica handle to the fleet-shared store that waits for the
/// replica's turn (see [`Shared::wait_for`]) before every learning
/// operation, making parallel shared-store runs replay the sequential
/// interleave exactly.  Lifecycle operations (flush, snapshot, restore) are
/// not gated — callers only use them between windows.
struct GatedStore {
    inner: Box<dyn SynopsisStore>,
    replica: usize,
    /// The engine whose sweep orders the accesses; weak, because the engine
    /// owns the runner that owns this handle.
    engine: Weak<Shared>,
}

impl GatedStore {
    fn wait_for_turn(&self) {
        if let Some(engine) = self.engine.upgrade() {
            engine.wait_for(self.replica);
        }
    }
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
        self.wait_for_turn();
        self.inner.suggest(symptoms)
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &FixExclusions,
    ) -> Option<(FixKind, f64)> {
        self.wait_for_turn();
        self.inner.suggest_excluding(symptoms, excluded)
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        self.wait_for_turn();
        self.inner.record(symptoms, fix, success);
    }

    fn correct_fixes_learned(&self) -> usize {
        self.wait_for_turn();
        self.inner.correct_fixes_learned()
    }
}

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

    fn fix_stats(&self) -> Vec<FixStats> {
        self.inner.fix_stats()
    }

    fn restore(&mut self, snapshot: &SynopsisSnapshot) {
        self.inner.restore(snapshot);
    }

    fn clone_store(&self) -> Box<dyn SynopsisStore> {
        Box::new(GatedStore {
            inner: self.inner.clone_store(),
            replica: self.replica,
            engine: Weak::clone(&self.engine),
        })
    }

    fn persist_to(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        self.inner.persist_to(path)
    }

    fn attach_log(&mut self, log: SnapshotLog) -> std::io::Result<()> {
        self.inner.attach_log(log)
    }

    fn log_detached(&self) -> bool {
        self.inner.log_detached()
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
    /// The panic that retired the runner this window, until the leader
    /// collects it.
    panic: Option<String>,
    /// Reactive actions to apply before the first tick of the next window.
    pending: Vec<ReplicaAction>,
}

/// The state the workers share for one window; the leader rewrites it only
/// between windows, when it holds the only reference.
struct Fleet {
    /// Slots in ascending id order (ids may be sparse).
    slots: Vec<(usize, Mutex<ReplicaSlot>)>,
    schedule: ActionSchedule,
    /// The ticks of the current window.
    window: Range<u64>,
    /// Ticks per slice of the current window (the last one may be shorter).
    slice: u64,
    /// Slices per replica in the current window.
    slices: u64,
    /// The replicas live when the window began, ascending by id; a
    /// replica's index here is its position in the cyclic order.
    live: Vec<LiveReplica>,
    /// Workers sweeping the current window.
    workers: usize,
}

/// One live replica's place in a window.  Aligned so that the progress a
/// worker publishes every slice shares a cache line with no other replica's.
#[repr(align(128))]
struct LiveReplica {
    id: usize,
    /// Its index in `Fleet::slots`.
    slot: usize,
    /// Slices completed this window; `u64::MAX` once its runner has died
    /// (complete forever).  Written only by the worker holding the replica.
    done: AtomicU64,
    /// Whether a worker is stepping the replica (or about to).
    held: AtomicBool,
    /// The lowest `done` a parked worker is waiting for; `u64::MAX` while
    /// nobody is parked on this replica, so no slice pays for a wake-up.
    wake_at: AtomicU64,
}

impl Fleet {
    /// Slices a worker advances a replica by before it looks for another.
    fn turn(&self) -> u64 {
        (TURN_TICKS / self.slice).max(1)
    }

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
            replicas[*id] = ReplicaView {
                replica: *id,
                retired: false,
                open_episodes: usize::from(runner.recovery().in_episode()),
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

/// Ticks a worker advances a replica by before it looks for another: long
/// enough that a replica's state stays in the core's cache and the workers
/// exchange a cache line per turn rather than per tick, short enough that
/// replicas sharing a store stay close — a replica at the store waits for
/// the ones behind it.
const TURN_TICKS: u64 = 32;

/// How long a worker looks on at a held replica before it parks: this many
/// checks a pause apart, then this many more a yield of the core apart.  A
/// held replica is about a turn from where it is wanted, and a park costs a
/// wake-up from another core — on a busy host the slowest thing a worker
/// can wait for — so a worker parks only when the holder has lost its core.
const PAUSES_BEFORE_PARKING: usize = 256;
const YIELDS_BEFORE_PARKING: usize = 4096;

/// What the leader and the helper threads share.
struct Shared {
    /// Shared by reference count so that a worker and the store handles
    /// below it on the stack can both hold the window's fleet; the leader
    /// mutates it between windows, when nobody else holds a reference.
    fleet: Mutex<Arc<Fleet>>,
    /// Where workers park when the replica they wait for is held, and how
    /// many times they look on first.
    parking: Mutex<()>,
    progress: Condvar,
    patience: usize,
    /// Tells helpers released from the barrier to exit instead of sweeping.
    stop: AtomicBool,
}

/// A replica held for stepping; letting go wakes whoever parked on it.
struct Held<'a> {
    shared: &'a Shared,
    replica: &'a LiveReplica,
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        self.replica.held.store(false, Ordering::SeqCst);
        self.shared.wake(self.replica, u64::MAX);
    }
}

impl Shared {
    fn fleet(&self) -> Arc<Fleet> {
        Arc::clone(&lock(&self.fleet))
    }

    /// Runs `f` on the fleet between windows, when the engine's is the only
    /// reference to it.
    fn fleet_mut<R>(&self, f: impl FnOnce(&mut Fleet) -> R) -> R {
        let mut fleet = lock(&self.fleet);
        f(Arc::get_mut(&mut fleet).expect("no window is in flight"))
    }

    /// Takes hold of `replica` unless another worker has it.
    fn hold<'a>(&'a self, replica: &'a LiveReplica) -> Option<Held<'a>> {
        // Lazily: a `Held` built for nothing would let go of the holder's.
        let free = !replica.held.swap(true, Ordering::SeqCst);
        free.then(|| Held {
            shared: self,
            replica,
        })
    }

    /// Wakes the workers parked on `replica` if one of them waits for no
    /// more than `done` slices (`u64::MAX`: whatever it waits for — the
    /// replica was let go, or is dead).
    fn wake(&self, replica: &LiveReplica, done: u64) {
        let wanted = replica.wake_at.load(Ordering::SeqCst);
        if wanted != u64::MAX && wanted <= done {
            replica.wake_at.store(u64::MAX, Ordering::SeqCst);
            // Through the lock, so the wake-up cannot fall between a parking
            // worker's last look and its wait.
            drop(lock(&self.parking));
            self.progress.notify_all();
        }
    }

    /// One worker's share of a window with several workers: takes the first
    /// replica nobody holds, advances it one turn, lets go, and looks for the
    /// next free one from `workers` positions on — so that workers in step
    /// keep to disjoint replicas, and a replica's state to one core's cache
    /// — until every replica has finished the window.
    fn sweep(&self) {
        let fleet = self.fleet();
        let (turn, live) = (fleet.turn(), fleet.live.len());
        let mut from = 0;
        loop {
            // Round the fleet from `from`: the first unfinished replica
            // nobody holds gets a turn; failing that, remember one that
            // somebody does hold.
            let (mut took, mut held) = (None, None);
            for at in (from..live).chain(0..from) {
                let replica = &fleet.live[at];
                if replica.done.load(Ordering::SeqCst) >= fleet.slices {
                    continue;
                }
                if let Some(_held) = self.hold(replica) {
                    let done = replica.done.load(Ordering::SeqCst);
                    self.run(&fleet, at, done.saturating_add(turn).min(fleet.slices));
                    took = Some(at);
                    break;
                }
                held = held.or(Some(replica));
            }
            match (took, held) {
                (Some(at), _) => from = (at + fleet.workers) % live,
                // What is unfinished is held: by a worker that will finish
                // it, when a replica's window is a single turn; otherwise it
                // may be let go with slices left, so wait for that.
                (None, Some(replica)) if fleet.slices > turn => {
                    self.wait_until(&fleet, replica, fleet.slices);
                }
                _ => return,
            }
        }
    }

    /// The whole window on one worker, in the cyclic order itself — the
    /// reference interleave, which needs no gate.
    fn sweep_in_order(&self) {
        let fleet = self.fleet();
        for slice in 1..=fleet.slices {
            for at in 0..fleet.live.len() {
                self.run(&fleet, at, slice);
            }
        }
    }

    /// Steps the replica at live position `at`, which the caller holds (or,
    /// sweeping alone, has to itself), until it has completed `until` slices
    /// of the window or died.
    fn run(&self, fleet: &Fleet, at: usize, until: u64) {
        let replica = &fleet.live[at];
        let (id, slot) = &fleet.slots[replica.slot];
        let mut slot = lock(slot);
        loop {
            let done = replica.done.load(Ordering::SeqCst);
            if done >= until {
                return;
            }
            let alive = Self::step_slice(fleet, *id, done, &mut slot);
            let done = if alive { done + 1 } else { u64::MAX };
            replica.done.store(done, Ordering::SeqCst);
            self.wake(replica, done);
        }
    }

    /// Advances a replica through slice `slice` of the window; `false` when
    /// its runner died (or had died before).  Panics inside a replica's step
    /// are caught here — the one place the workspace steps a runner inside
    /// `catch_unwind` — so a dead replica is just one that has completed
    /// every slice it had left, and siblings never stall behind it.
    fn step_slice(fleet: &Fleet, id: usize, slice: u64, slot: &mut ReplicaSlot) -> bool {
        let ReplicaSlot {
            runner,
            panic,
            pending,
            ..
        } = slot;
        let Some(live) = runner.as_mut() else {
            return false;
        };
        let window = &fleet.window;
        let start = window.start + slice * fleet.slice;
        let ticks = start..start.saturating_add(fleet.slice).min(window.end);
        let reactive = std::mem::take(pending);
        let stepped = catch_unwind(AssertUnwindSafe(|| {
            for tick in ticks {
                for action in fleet.schedule.actions_for(id, tick) {
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
        runner.is_some()
    }

    /// Blocks until `replica`'s current slice is the first incomplete unit
    /// of the window's cyclic order (the [module docs](self) have the rule
    /// and why it cannot deadlock).  Called by [`GatedStore`] before each
    /// store operation, on the worker that is stepping `replica`: it brings
    /// the replicas that are behind and held by nobody up itself, nested on
    /// its own stack, and waits only for those another worker is stepping.
    /// Between windows the gate stands open.
    fn wait_for(&self, replica: usize) {
        let fleet = self.fleet();
        let Ok(at) = fleet.live.binary_search_by_key(&replica, |live| live.id) else {
            return;
        };
        let slice = fleet.live[at].done.load(Ordering::SeqCst);
        if slice >= fleet.slices {
            return;
        }
        // The others in cyclic order from here on: the positions above must
        // have completed `slice` slices, the positions below one more.
        let others = || (at + 1..fleet.live.len()).chain(0..at);
        loop {
            let mut waiting_for = None;
            for other in others() {
                let due = slice + u64::from(other < at);
                let behind = &fleet.live[other];
                if behind.done.load(Ordering::SeqCst) >= due {
                    continue;
                }
                match self.hold(behind) {
                    Some(_held) => self.run(&fleet, other, due),
                    None => waiting_for = waiting_for.or(Some((behind, due))),
                }
            }
            match waiting_for {
                Some((behind, due)) => self.wait_until(&fleet, behind, due),
                None => return,
            }
        }
    }

    /// Waits until `replica`, which another worker holds, has completed
    /// `due` slices — or has been let go before it got there, for the
    /// caller to take.  The worker looks on first only in a window of many
    /// turns, where the replica is about a turn away: when the window is a
    /// single turn (a daemon's epoch) the wait is for the rest of it, and
    /// the core is wanted by whoever the fleet shares the machine with.
    fn wait_until(&self, fleet: &Fleet, replica: &LiveReplica, due: u64) {
        let settled =
            || replica.done.load(Ordering::SeqCst) >= due || !replica.held.load(Ordering::SeqCst);
        let patience = if fleet.slices > fleet.turn() {
            self.patience
        } else {
            0
        };
        for check in 0..patience {
            if settled() {
                return;
            }
            if check < PAUSES_BEFORE_PARKING {
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        let mut parked = lock(&self.parking);
        loop {
            replica.wake_at.fetch_min(due, Ordering::SeqCst);
            if settled() {
                return;
            }
            parked = self
                .progress
                .wait(parked)
                .unwrap_or_else(PoisonError::into_inner);
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

/// The one epoch engine (see the module docs): slots keyed by
/// replica id, a worker pool that lives across windows, the store gate, and
/// the reactive context — behind a single [`advance`](Self::advance).
pub struct EpochEngine {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    /// Two-phase window barrier over the helpers plus the calling thread.
    barrier: Arc<Barrier>,
    max_workers: usize,
    /// Slice width windows are cut into; `u64::MAX` leaves them uncut.
    slice: u64,
    tick: u64,
    reactive: ReactivePlan,
    /// Barrier crossings so far: the engine's synchronisation cost as a
    /// count.
    crossings: u64,
}

impl std::fmt::Debug for EpochEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochEngine")
            .field("tick", &self.tick)
            .field("workers", &(self.helpers.len() + 1))
            .field("barrier_crossings", &self.crossings)
            .finish_non_exhaustive()
    }
}

impl EpochEngine {
    /// An empty engine at tick 0 that sweeps on at most `max_workers` OS
    /// threads (`None` = one per available core; the calling thread counts,
    /// and each window uses no more workers than it has live replicas).
    pub fn new(max_workers: Option<usize>) -> Self {
        let max_workers = max_workers.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        EpochEngine {
            shared: Arc::new(Shared {
                fleet: Mutex::new(Arc::new(Fleet {
                    slots: Vec::new(),
                    schedule: ActionSchedule::default(),
                    window: 0..0,
                    slice: 1,
                    slices: 0,
                    live: Vec::new(),
                    workers: 1,
                })),
                parking: Mutex::new(()),
                progress: Condvar::new(),
                patience: PAUSES_BEFORE_PARKING + YIELDS_BEFORE_PARKING,
                stop: AtomicBool::new(false),
            }),
            helpers: Vec::new(),
            barrier: Arc::new(Barrier::new(1)),
            max_workers: max_workers.max(1),
            slice: u64::MAX,
            tick: 0,
            reactive: ReactivePlan::default(),
            crossings: 0,
        }
    }

    /// Cuts every window into `slice`-tick slices: the granularity at which
    /// replicas sharing a gated store take turns on it.  Unset, a window is
    /// one slice — right whenever replicas share nothing, or the caller
    /// advances slice by slice itself.
    pub(crate) fn with_slice(mut self, slice: u64) -> Self {
        self.slice = slice.max(1);
        self
    }

    /// Installs the resolved cross-replica event schedule.
    pub(crate) fn with_schedule(self, schedule: ActionSchedule) -> Self {
        self.shared.fleet_mut(|fleet| fleet.schedule = schedule);
        self
    }

    /// Ticks advanced so far: the first tick of the next window.
    pub(crate) fn tick(&self) -> u64 {
        self.tick
    }

    /// A handle to `store` for replica `replica`'s healer whose learning
    /// operations wait for the replica's turn in the window's cyclic order.
    pub fn gated_store(&self, store: &dyn SynopsisStore, replica: usize) -> Box<dyn SynopsisStore> {
        Box::new(GatedStore {
            inner: store.clone_store(),
            replica,
            engine: Arc::downgrade(&self.shared),
        })
    }

    /// Puts `runner` into slot `replica`, replacing whatever the slot held.
    pub fn insert(&mut self, replica: usize, runner: ReplicaRunner) {
        self.shared.fleet_mut(|fleet| {
            match fleet.slots.binary_search_by_key(&replica, |(id, _)| *id) {
                Ok(at) => {
                    let mut slot = lock(&fleet.slots[at].1);
                    slot.runner = Some(runner);
                    slot.pending.clear();
                }
                Err(at) => fleet.slots.insert(
                    at,
                    (
                        replica,
                        Mutex::new(ReplicaSlot {
                            runner: Some(runner),
                            panic: None,
                            pending: Vec::new(),
                        }),
                    ),
                ),
            }
        });
    }

    /// Drops slot `replica` and its runner.
    pub fn remove(&mut self, replica: usize) {
        self.shared
            .fleet_mut(|fleet| fleet.slots.retain(|(id, _)| *id != replica));
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

    /// Replaces the reactive engines with fresh ones built from `choices`
    /// (none switches them off); the fault-id counter and the action log
    /// carry over.  `slice` is the width
    /// of the caller's slices (of its windows, when it advances slice by
    /// slice): it must divide [`REACTIVE_PERIOD`], or the reactive barriers
    /// would fall inside a slice and runs of different widths would observe
    /// different views.
    pub fn set_reactive(&mut self, choices: &[ReactiveChoice], slice: u64) -> Result<(), String> {
        if !choices.is_empty() && !REACTIVE_PERIOD.is_multiple_of(slice.max(1)) {
            return Err(format!(
                "reactive engines evaluate at {REACTIVE_PERIOD}-tick barriers, so the slice \
                 ({slice}) must divide the reactive period — use a slice of 1, 2, 4, 8, 16, \
                 32, or 64"
            ));
        }
        self.reactive.set(choices);
        Ok(())
    }

    /// Drains the log of actions the reactive engines emitted since the
    /// last call, in emission order.
    pub fn take_reactive_log(&mut self) -> Vec<ReactiveRecord> {
        self.reactive.take_log()
    }

    /// Advances every live replica `ticks` ticks — one window, crossing the
    /// worker barrier once — and returns one entry per replica that was live
    /// when the window began, in id order: `Ok` when it completed the
    /// window, the [`ReplicaError`] describing the panic that killed its
    /// runner otherwise.
    pub fn advance(&mut self, ticks: u64) -> Vec<(usize, Result<(), ReplicaError>)> {
        let start = self.tick;
        let (slice, reactive, max_workers) = (self.slice, &mut self.reactive, self.max_workers);
        let workers = self.shared.fleet_mut(|fleet| {
            fleet.window = start..start + ticks;
            fleet.slice = slice.min(ticks).max(1);
            fleet.slices = ticks.div_ceil(fleet.slice);
            // The reactive barrier: the engines see the fleet as the
            // previous window left it (untouched at tick 0) and act from
            // this tick on.
            if !reactive.is_empty() && start.is_multiple_of(REACTIVE_PERIOD) {
                let view = fleet.view(start);
                for (replica, action) in reactive.evaluate(&view) {
                    if let Some(slot) = fleet.slot(replica) {
                        let mut slot = lock(slot);
                        if slot.runner.is_some() {
                            slot.pending.push(action);
                        }
                    }
                }
            }
            fleet.live.clear();
            for (at, (id, slot)) in fleet.slots.iter().enumerate() {
                if lock(slot).runner.is_some() {
                    fleet.live.push(LiveReplica {
                        id: *id,
                        slot: at,
                        done: AtomicU64::new(0),
                        held: AtomicBool::new(false),
                        wake_at: AtomicU64::new(u64::MAX),
                    });
                }
            }
            fleet.workers = max_workers.min(fleet.live.len()).max(1);
            fleet.workers
        });

        self.resize_pool(workers - 1);
        if self.helpers.is_empty() {
            self.shared.sweep_in_order();
        } else {
            // Two-phase barrier: release the helpers into the window, sweep
            // beside them, then wait until the last one has found nothing
            // left to take.
            self.barrier.wait();
            self.shared.sweep();
            self.barrier.wait();
            self.crossings += 2;
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
    use selfheal_core::store::BatchedStore;
    use selfheal_faults::{FixAction, InjectionPlan, ScriptedSource};
    use selfheal_sim::scenario::NoHealing;
    use selfheal_sim::service::TickOutcome;
    use selfheal_sim::{MultiTierService, ServiceConfig};
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};
    use std::sync::atomic::AtomicUsize;

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
        ScenarioRunner::with_faults(
            service,
            Box::new(workload),
            Box::new(ScriptedSource::new(InjectionPlan::empty())),
            healer,
        )
    }

    /// Advances `engine` to `ticks` in `window`-tick windows; returns every
    /// error reported on the way.
    fn drive(engine: &mut EpochEngine, ticks: u64, window: u64) -> Vec<ReplicaError> {
        let mut errors = Vec::new();
        while engine.tick() < ticks {
            let results = engine.advance(window.min(ticks - engine.tick()));
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
        assert_eq!(errors.len(), 1, "reported once, in the window it died");
        assert_eq!(errors[0].replica, 1);
        assert!(
            errors[0].message.contains("synthetic replica failure"),
            "panic payload surfaced: {}",
            errors[0].message
        );
    }

    /// The order in which a store saw its accesses: `(replica, tick)`.
    type AccessLog = Arc<Mutex<Vec<(usize, u64)>>>;

    /// A healer that consults its (gated) store every `period`-th tick and
    /// logs each access; at period 1 the worst case for a gate that fails to
    /// hand the turn on.  The log entry is pushed while the replica still
    /// holds the turn (a turn lasts until the slice completes), so the log
    /// is the store's view.  While it holds the turn it also marks itself
    /// in `in_turn` and yields, panicking if another replica already holds
    /// the mark: the store is never entered by two replicas at once.
    struct TouchStore {
        store: Box<dyn SynopsisStore>,
        replica: usize,
        period: u64,
        seen: u64,
        log: AccessLog,
        in_turn: Arc<AtomicUsize>,
    }

    impl Healer for TouchStore {
        fn name(&self) -> &str {
            "touch_store"
        }

        fn observe(&mut self, _outcome: &TickOutcome) -> Vec<FixAction> {
            if self.seen.is_multiple_of(self.period) {
                let _ = self.store.suggest(&[1.0, 2.0, 3.0]);
                let holders = self.in_turn.fetch_add(1, Ordering::SeqCst);
                assert_eq!(holders, 0, "replica {} shares the store", self.replica);
                for _ in 0..3 {
                    thread::yield_now();
                }
                self.in_turn.fetch_sub(1, Ordering::SeqCst);
                lock(&self.log).push((self.replica, self.seen));
            }
            self.seen += 1;
            Vec::new()
        }
    }

    /// One store, its access log, and the gated healers touching it.
    struct Touched {
        store: BatchedStore,
        log: AccessLog,
        in_turn: Arc<AtomicUsize>,
    }

    impl Touched {
        fn new() -> Self {
            Touched {
                store: BatchedStore::new(
                    SynopsisKind::NearestNeighbor,
                    BatchedStore::DEFAULT_BATCH,
                ),
                log: AccessLog::default(),
                in_turn: Arc::default(),
            }
        }

        /// Inserts a replica whose healer touches the store through a gated
        /// handle every `period`-th tick.
        fn insert(&self, engine: &mut EpochEngine, replica: usize, period: u64) {
            let healer = TouchStore {
                store: engine.gated_store(&self.store, replica),
                replica,
                period,
                seen: 0,
                log: Arc::clone(&self.log),
                in_turn: Arc::clone(&self.in_turn),
            };
            engine.insert(replica, runner(Box::new(healer)));
        }

        fn take_log(&self) -> Vec<(usize, u64)> {
            std::mem::take(&mut *lock(&self.log))
        }
    }

    #[test]
    fn a_panicking_replica_does_not_stall_gated_siblings() {
        let touched = Touched::new();
        let mut engine = EpochEngine::new(Some(3));
        // Sparse ids: the gate is keyed by whichever ids are live, not by
        // `0..n`.  Survivors consult the gated store every single tick: if
        // the dead replica kept the turn, they would block forever and this
        // test would hang.
        engine.insert(2, runner(Box::new(PanicAt { tick: 5, seen: 0 })));
        for replica in [5, 9] {
            touched.insert(&mut engine, replica, 1);
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
        touched.insert(&mut engine, 11, 1);
        assert!(drive(&mut engine, 50, 1).is_empty());
        assert_eq!(ticks_run(&engine, 2), Some(20));
        assert_eq!(ticks_run(&engine, 5), None);
        assert_eq!(ticks_run(&engine, 9), Some(50));
        assert_eq!(ticks_run(&engine, 11), Some(20));
    }

    /// Sparse ids, each touching the store at its own period so that some
    /// replicas could run far ahead of others between accesses.
    const TOUCHERS: [(usize, u64); 4] = [(2, 1), (5, 2), (9, 3), (11, 4)];

    impl EpochEngine {
        /// A fresh engine whose workers look on `patience` times before
        /// they park: zero takes every wait through the parking and waking
        /// that patient workers almost never need.
        fn with_patience(mut self, patience: usize) -> Self {
            let shared = Arc::get_mut(&mut self.shared).expect("a fresh engine");
            shared.patience = patience;
            self
        }
    }

    /// Parking at once, and the engine's own patience.
    const PATIENCES: [usize; 2] = [0, PAUSES_BEFORE_PARKING + YIELDS_BEFORE_PARKING];

    /// The store's view of 200 ticks of [`TOUCHERS`], cut into `slice`-tick
    /// slices and advanced in `window`-tick windows on `workers` workers
    /// that park after `patience` looks.
    fn access_log(workers: usize, slice: u64, window: u64, patience: usize) -> Vec<(usize, u64)> {
        let touched = Touched::new();
        let mut engine = EpochEngine::new(Some(workers))
            .with_slice(slice)
            .with_patience(patience);
        for (replica, period) in TOUCHERS {
            touched.insert(&mut engine, replica, period);
        }
        assert!(drive(&mut engine, 200, window).is_empty());
        touched.take_log()
    }

    #[test]
    fn one_window_admits_store_accesses_in_the_slice_at_a_time_order() {
        for slice in [1, 7, 64] {
            // The cyclic sweep, written out: slice by slice, replica by
            // replica in id order, tick by tick.
            let mut expected = Vec::new();
            for start in (0..200).step_by(slice as usize) {
                for (replica, period) in TOUCHERS {
                    let ticks = start..(start + slice).min(200);
                    expected.extend(
                        ticks
                            .filter(|tick| tick % period == 0)
                            .map(|tick| (replica, tick)),
                    );
                }
            }
            for workers in [1, 2, 3, TOUCHERS.len() + 1] {
                for window in [slice, 200] {
                    for patience in PATIENCES {
                        assert_eq!(
                            access_log(workers, slice, window, patience),
                            expected,
                            "slice {slice}, {workers} workers, {window}-tick windows, \
                             patience {patience}"
                        );
                    }
                }
            }
        }
    }

    /// The premise of the store's one uncontended lock: the gate lets one
    /// replica at a time into the store.  Every [`TouchStore`] checks it on
    /// each access, so a second replica let in while another yields inside
    /// its turn panics, and the window reports that replica.
    #[test]
    fn the_gate_admits_one_replica_to_the_store_at_a_time() {
        for workers in [2, 3, 4] {
            for slice in [1, 7] {
                for patience in PATIENCES {
                    let touched = Touched::new();
                    let mut engine = EpochEngine::new(Some(workers))
                        .with_slice(slice)
                        .with_patience(patience);
                    for (replica, period) in TOUCHERS {
                        touched.insert(&mut engine, replica, period);
                    }
                    let errors = drive(&mut engine, 200, 200);
                    assert!(
                        errors.is_empty(),
                        "slice {slice}, {workers} workers, patience {patience}: {errors:?}"
                    );
                }
            }
        }
    }

    /// The worst case for synchronising lazily: more replicas than workers,
    /// every replica at the gate on every tick.  A worker waiting for a
    /// replica whose predecessors nobody holds — or missing the wake-up when
    /// it parks — would hang this forever, so it runs under a watchdog.
    #[test]
    fn fewer_workers_than_gated_replicas_cannot_deadlock() {
        for patience in PATIENCES {
            let (finished, watchdog) = std::sync::mpsc::channel();
            thread::spawn(move || {
                let touched = Touched::new();
                let mut engine = EpochEngine::new(Some(2))
                    .with_slice(1)
                    .with_patience(patience);
                for replica in 0..5 {
                    touched.insert(&mut engine, replica, 1);
                }
                let results = engine.advance(300);
                let _ = finished.send((results, touched.take_log()));
            });
            let (results, log) = watchdog
                .recv_timeout(std::time::Duration::from_secs(120))
                .expect("the window deadlocked (or its thread panicked)");
            assert!(results.iter().all(|(_, result)| result.is_ok()));
            let expected: Vec<(usize, u64)> = (0..300)
                .flat_map(|tick| (0..5).map(move |replica| (replica, tick)))
                .collect();
            assert_eq!(log, expected, "patience {patience}");
        }
    }

    #[test]
    fn a_replica_dying_mid_window_is_reported_once_at_the_windows_end() {
        let touched = Touched::new();
        let mut engine = EpochEngine::new(Some(2)).with_slice(1);
        engine.insert(2, runner(Box::new(PanicAt { tick: 5, seen: 0 })));
        for replica in [5, 9] {
            touched.insert(&mut engine, replica, 1);
        }
        let results = engine.advance(30);
        let failed: Vec<usize> = results
            .iter()
            .filter(|(_, result)| result.is_err())
            .map(|(replica, _)| *replica)
            .collect();
        assert_eq!(results.len(), 3, "one entry per replica live at the start");
        assert_eq!(failed, [2]);
        assert_eq!(ticks_run(&engine, 5), Some(30), "sibling 5 finished");
        assert_eq!(ticks_run(&engine, 9), Some(30), "sibling 9 finished");
        assert_eq!(touched.take_log().len(), 60);

        // Not reported again, and a replacement takes the dead replica's
        // place in the cyclic order: first.
        touched.insert(&mut engine, 2, 1);
        let results = engine.advance(10);
        assert!(results.iter().all(|(_, result)| result.is_ok()));
        let expected: Vec<(usize, u64)> = (0..10)
            .flat_map(|tick| [(2, tick), (5, 30 + tick), (9, 30 + tick)])
            .collect();
        assert_eq!(touched.take_log(), expected);
    }

    /// A count, not a timing: the fleet synchronises once per window, not
    /// once per slice.
    #[test]
    fn a_window_crosses_the_barrier_once_however_many_slices_it_has() {
        let mut engine = EpochEngine::new(Some(2)).with_slice(1);
        for replica in 0..3 {
            engine.insert(replica, runner(Box::new(NoHealing)));
        }
        assert!(drive(&mut engine, 1000, 1000).is_empty());
        assert_eq!(engine.crossings, 2, "one two-phase barrier");
        for replica in 0..3 {
            assert_eq!(ticks_run(&engine, replica), Some(1000));
        }
    }

    /// Another count: however narrow the slice, a replica changes workers at
    /// most once a turn — never once a slice, which would make a run's speed
    /// depend on what moving a replica's state between cores costs that day.
    #[test]
    fn a_replica_changes_workers_at_most_once_a_turn() {
        type Steppers = Arc<Mutex<Vec<(usize, thread::ThreadId)>>>;
        struct WhoSteps {
            replica: usize,
            log: Steppers,
        }
        impl Healer for WhoSteps {
            fn name(&self) -> &str {
                "who_steps"
            }

            fn observe(&mut self, _outcome: &TickOutcome) -> Vec<FixAction> {
                // Ticks long enough that the helper joins in early on, and
                // uneven, so the workers do not stay in step by themselves.
                (0..100 * (1 + self.replica)).for_each(|_| std::hint::spin_loop());
                #[allow(
                    clippy::disallowed_methods,
                    reason = "the stepping thread is counted, never fingerprinted"
                )]
                let worker = thread::current().id();
                lock(&self.log).push((self.replica, worker));
                Vec::new()
            }
        }

        let log = Steppers::default();
        let mut engine = EpochEngine::new(Some(2)).with_slice(1);
        for replica in 0..4 {
            let log = Arc::clone(&log);
            engine.insert(replica, runner(Box::new(WhoSteps { replica, log })));
        }
        assert!(drive(&mut engine, 1000, 1000).is_empty());
        let log = lock(&log);
        for replica in 0..4 {
            let steppers: Vec<_> = log.iter().filter(|(r, _)| *r == replica).collect();
            assert_eq!(steppers.len(), 1000);
            let changes = steppers.windows(2).filter(|w| w[0].1 != w[1].1).count();
            assert!(
                changes <= 1000 / TURN_TICKS as usize,
                "replica {replica} changed workers {changes} times in 1000 ticks"
            );
        }
    }

    #[test]
    fn slice_widths_partition_the_run_exactly() {
        for slice in [1, 7, 64, 1000] {
            // As windows of one slice each, and as slices of one window.
            for window in [slice, 50] {
                let mut engine = EpochEngine::new(Some(1)).with_slice(slice);
                engine.insert(0, runner(Box::new(NoHealing)));
                assert!(drive(&mut engine, 50, window).is_empty());
                assert_eq!(ticks_run(&engine, 0), Some(50), "slice {slice}");
            }
        }
    }

    #[test]
    fn reactive_plans_reject_a_slice_that_does_not_divide_the_period() {
        use selfheal_faults::FaultKind;
        let plan = [ReactiveChoice::adversary(
            FaultKind::BufferContention,
            0.9,
            0,
            u64::MAX,
        )];
        let mut engine = EpochEngine::new(Some(1));
        assert!(engine.set_reactive(&plan, 48).is_err());
        assert!(engine.set_reactive(&[], 48).is_ok(), "off");
        assert!(engine.set_reactive(&plan, 32).is_ok());
    }
}
