//! Heap allocations on the simulator's tick path, as exact counts.
//!
//! What a tick allocates must not depend on how many requests it serves:
//! the request paths are a table built with the service, the per-EJB and
//! per-table accumulators live in it, and the SLO and symptom windows are
//! read where they lie.  What a run's outcome allocates must not depend on
//! how long the run was: it copies folds and the last few episodes, never a
//! history.  The counter is per thread, so the tests do not see each
//! other's allocations.

use selfheal::faults::ServiceProfile;
use selfheal::fleet::FleetConfig;
use selfheal::healing::harness::{FaultChoice, PolicyChoice};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::{MultiTierService, ServiceConfig};
use selfheal::workload::{ArrivalProcess, Request, RequestKind, WorkloadMix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls each thread makes.  `realloc`
/// and `alloc_zeroed` keep their default bodies, which go through `alloc`,
/// so each counts once.
struct Counting;

// SAFETY: both methods hand their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract.  The counter is a `const`-initialised
// thread-local `Cell<u64>`: it has no destructor and needs no lazy
// initialisation, so touching it never allocates and is valid at every point
// of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many allocations this thread made meanwhile.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// `n` requests cycling through every kind.
fn batch(n: usize, tick: u64) -> Vec<Request> {
    (0..n)
        .map(|i| Request::new(i as u64, RequestKind::ALL[i % RequestKind::ALL.len()], tick))
        .collect()
}

/// Most allocations a steady-state `ScenarioRunner::step` may make: the
/// workload's batch and the tick's sample.
const STEP_ALLOCATIONS: u64 = 2;

#[test]
fn a_tick_allocates_the_same_for_ten_requests_as_for_two_hundred() {
    let mut service = MultiTierService::new(ServiceConfig::rubis_default());
    for tick in 0..50 {
        service.tick(&batch(40, tick));
    }
    let (small, large) = (batch(10, 50), batch(200, 51));
    let (for_ten, outcome) = allocations_in(|| service.tick(&small));
    assert!(outcome.violations.is_empty() && outcome.errors == 0);
    let (for_two_hundred, outcome) = allocations_in(|| service.tick(&large));
    assert_eq!(outcome.arrived, 200);
    println!(
        "MultiTierService::tick: {for_ten} allocations for 10 requests, {for_two_hundred} for 200"
    );
    assert_eq!(for_ten, for_two_hundred);
    assert_eq!(for_ten, 1, "the sample's row is the only allocation");

    // FixSym, then the hybrid, over a private learner under the default
    // Poisson-40 workload, stepped until the baseline is frozen and the
    // hybrid's diagnosis history, which holds only the samples its engines
    // read, is full.
    for policy in [
        PolicyChoice::FixSym(SynopsisKind::NearestNeighbor),
        PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor),
    ] {
        let label = policy.label();
        let mut runner = FleetConfig::builder()
            .policy(policy)
            .build()
            .replica_runner(0, None);
        for _ in 0..600 {
            runner.step();
        }
        let per_step: Vec<u64> = (0..200)
            .map(|_| allocations_in(|| runner.step()).0)
            .collect();
        println!("ScenarioRunner::step ({label}): {per_step:?}");
        // Poisson bursts open a short SLO episode every few dozen ticks; the
        // steps in which the healer opens, works on or closes one do its
        // bookkeeping on top and are not the steady state.
        let steady = per_step
            .iter()
            .filter(|count| **count <= STEP_ALLOCATIONS)
            .count();
        assert!(
            steady >= 180,
            "{label}: only {steady} of 200 steps stayed in bounds"
        );
    }
}

/// Ticks after which `ScenarioRunner::outcome`'s allocations are counted:
/// both long past the point where the episode log holds its last 64.
const OUTCOME_AT: [u64; 2] = [20_000, 100_000];

/// What `outcome` allocates besides one fix list per held episode that
/// attempted a fix: the healer's name and the ring of held episodes.
const OUTCOME_ALLOCATIONS: u64 = 2;

#[test]
fn an_outcome_allocates_nothing_that_grows_with_the_run() {
    let tiny = ServiceConfig::tiny();
    let mut runner = FleetConfig::builder()
        .service(tiny.clone())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .faults(FaultChoice::mix_for(ServiceProfile::Online, 0.0005, &tiny))
        .build()
        .replica_runner(0, None);
    for until in OUTCOME_AT {
        // Counted between episodes, so no open one is copied on top.
        while runner.ticks_run() < until || runner.recovery().in_episode() {
            assert!(
                runner.ticks_run() < until + 5_000,
                "no gap between episodes"
            );
            runner.step();
        }
        let (count, outcome) = allocations_in(|| runner.outcome());
        let held = outcome.recovery.episodes();
        let with_fixes = held.iter().filter(|e| !e.fixes_attempted.is_empty());
        let with_fixes = with_fixes.count() as u64;
        println!(
            "ScenarioRunner::outcome at tick {}: {count} allocations; \
             {} episodes, {} held, {with_fixes} of them with fixes",
            outcome.ticks,
            outcome.recovery.len(),
            held.len()
        );
        assert!(
            outcome.recovery.len() > held.len(),
            "the ring has turned over"
        );
        assert_eq!(count, OUTCOME_ALLOCATIONS + with_fixes);
    }
}
