//! What a resident tenant remembers, as live heap bytes.
//!
//! The daemon's default tenant injects faults faster than FixSym clears
//! them, so hundreds are active per replica and failed fix attempts arrive
//! for as long as it lives.  An episode must therefore hold a count of the
//! faults active at detection, not a copy of the set, an episode log its
//! most recent episodes and folds of the rest, and a synopsis the most
//! recent failed examples, not all of them — or memory grows with simulated
//! time, or its square.  A hybrid healer, likewise, keeps the metric
//! history its diagnosis engines read and no more.  This file holds one
//! test, so no other test thread allocates while it measures.

use selfheal::daemon::{DaemonConfig, Supervisor};
use selfheal::faults::{FaultId, FaultKind, FaultSpec, FaultTarget, InjectionPlan, ScriptedSource};
use selfheal::healing::{HybridHealer, SynopsisKind};
use selfheal::sim::scenario::{Healer, NoHealing, ScenarioRunner};
use selfheal::sim::{MultiTierService, ServiceConfig};
use selfheal::workload::{ArrivalProcess, TraceGenerator, WorkloadMix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Bytes allocated and not yet freed, over every thread (the supervisor's
/// engine sweeps on workers).  A statistic: it publishes nothing.
static LIVE_BYTES: AtomicIsize = AtomicIsize::new(0);

/// The system allocator, keeping [`LIVE_BYTES`].  `realloc` and
/// `alloc_zeroed` keep their default bodies, which go through `alloc` and
/// `dealloc`.
struct Counting;

// SAFETY: both methods hand their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a plain atomic and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's `layout` is passed through as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this same `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live_bytes() -> isize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Live bytes the step that opens a replica's first episode leaves behind,
/// with `inert` faults active beside the one that causes it.
fn bytes_held_by_opening_an_episode(inert: u64) -> isize {
    let service = MultiTierService::new(ServiceConfig::tiny());
    let workload = TraceGenerator::new(
        WorkloadMix::bidding(),
        ArrivalProcess::Constant { rate: 40.0 },
        11,
    );
    let mut runner = ScenarioRunner::with_faults(
        service,
        Box::new(workload),
        Box::new(ScriptedSource::new(InjectionPlan::empty())),
        NoHealing,
    );
    runner.inject(FaultSpec::new(
        FaultId(0),
        FaultKind::BottleneckedTier,
        FaultTarget::DatabaseTier,
        0.95,
    ));
    for id in 1..=inert {
        // A table the service does not have: active, and touching nothing.
        runner.inject(FaultSpec::new(
            FaultId(id),
            FaultKind::SuboptimalQueryPlan,
            FaultTarget::Table { index: 99 },
            0.5,
        ));
    }
    for _ in 0..200 {
        let before = live_bytes();
        drop(runner.step());
        if runner.recovery().in_episode() {
            assert_eq!(runner.service().active_faults().len() as u64, inert + 1);
            return live_bytes() - before;
        }
    }
    panic!("a 95 % database bottleneck opened no episode in 200 ticks");
}

/// Live bytes a hybrid healer on `rubis_default` holds after observing 100
/// ticks and after 5 000: what its own `observe` calls allocated and did
/// not free, the service and workload around it left out.
fn bytes_held_by_a_hybrid_healer() -> (isize, isize) {
    let config = ServiceConfig::rubis_default();
    let mut service = MultiTierService::new(config.clone());
    let mut workload = TraceGenerator::new(
        WorkloadMix::bidding(),
        ArrivalProcess::Constant { rate: 40.0 },
        11,
    );
    let mut healer = HybridHealer::new(
        service.schema(),
        SynopsisKind::NearestNeighbor,
        config.slo_targets(),
    );
    let (mut held, mut at_100) = (0, 0);
    for tick in 1..=5_000 {
        let outcome = service.tick(&workload.tick(service.current_tick()));
        let before = live_bytes();
        drop(healer.observe(&outcome));
        held += live_bytes() - before;
        if tick == 100 {
            at_100 = held;
        }
    }
    (at_100, held)
}

/// Most a hybrid healer's live heap may grow from its 100th observation to
/// its 5 000th.  Its diagnosis history holds the 35 samples its engines
/// read, full long before the 100th; a 4 096-row history grew by about a
/// megabyte over the same stretch.
const HYBRID_GROWTH_CEILING_BYTES: isize = 64 * 1024;

/// Most the default tenant's live heap may grow over epochs 3 000 to 6 000.
/// An episode log holds its last 64 episodes and folds the rest, and a
/// runner keeps no metric history.  The window grew by 47 104 bytes as
/// measured, 28 672 of them one `ActiveFault` list per replica doubling
/// from 256 to 512 entries of 56 bytes (active faults per replica go
/// [204, 134] → [415, 324]); the rest is not attributed.  The ceiling
/// leaves the same ≈ 1.3× headroom as the 220 KiB one did over the 169 280
/// bytes measured while the log kept every episode (≈ 300 more per
/// replica).  With every episode holding the active set and every failed
/// attempt kept, the window grew by 681 300 bytes.
const GROWTH_CEILING_BYTES: isize = 61 * 1024;

#[test]
fn a_tenant_does_not_remember_more_the_longer_it_lives() {
    // An episode holds what it read of the fault set, whatever its size.
    let few = bytes_held_by_opening_an_episode(10);
    let many = bytes_held_by_opening_an_episode(1_000);
    println!("opening an episode holds {few} bytes beside 10 faults, {many} beside 1 000");
    assert_eq!(few, many);

    // A healer holds the history it reads, however long it observes.
    let (at_100, at_5000) = bytes_held_by_a_hybrid_healer();
    let growth = at_5000 - at_100;
    println!("hybrid healer on rubis_default holds {at_100} bytes at tick 100, {at_5000} at 5 000");
    assert!(
        growth < HYBRID_GROWTH_CEILING_BYTES,
        "a hybrid healer grew {growth} bytes from tick 100 to 5 000 \
         (ceiling {HYBRID_GROWTH_CEILING_BYTES})"
    );

    let mut supervisor = Supervisor::new(DaemonConfig::default()).expect("default config");
    for _ in 0..2 {
        supervisor.add_replica("default").expect("add replica");
    }
    for _ in 0..3_000 {
        supervisor.advance_epoch();
    }
    let at_3000 = live_bytes();
    for _ in 0..3_000 {
        supervisor.advance_epoch();
    }
    let growth = live_bytes() - at_3000;
    let (recorded, kept) = supervisor.store().failure_memory();
    println!(
        "default tenant, epochs 3 000 → 6 000: live heap grew {growth} bytes \
         ({recorded} failures recorded, {kept} held)"
    );
    assert!(recorded > kept, "the failure ring has turned over");
    assert!(
        growth < GROWTH_CEILING_BYTES,
        "live heap grew {growth} bytes over 3 000 epochs (ceiling {GROWTH_CEILING_BYTES})"
    );
    supervisor.shutdown();
}
