//! Reactive chaos engine integration tests: worker-count invariance of
//! state-observing engines, and the horizon-aware auto-quiesce bound.
//!
//! The engines under test observe live fleet state (open episodes) at epoch
//! barriers and mutate the run in response — the adversary strikes the
//! weakest replica, the cascade propagates along the dependency ring.  The
//! contract is that those observations happen *only* at the deterministic
//! barriers, so the fingerprints cannot depend on how many worker threads
//! the scheduler uses.

use selfheal::fleet::{ExecutionMode, FleetConfig, HEALING_TAIL};
use selfheal::healing::harness::LearnerChoice;
use selfheal_bench::fleet::{adversary, cascade, reactive_strike_stats, seasons, ADVERSARY_UNTIL};

const SHARED: LearnerChoice = LearnerChoice::Locked { batch: 1 };

const SEED: u64 = 7;

/// Runs one reactive fleet recipe sequentially and with 2 and 4 worker
/// threads, asserting all three interleavings produce identical per-replica
/// fingerprints.
fn assert_worker_invariant(label: &str, slice: u64, build: impl Fn() -> FleetConfig) {
    let sequential = build().mode(ExecutionMode::Sequential).slice(slice).run();
    for workers in [2usize, 4] {
        let parallel = build()
            .mode(ExecutionMode::Parallel {
                threads: Some(workers),
            })
            .slice(slice)
            .run();
        assert_eq!(
            parallel.fingerprints(),
            sequential.fingerprints(),
            "{label}: slice {slice}, {workers} workers must match sequential"
        );
    }
}

#[test]
fn adversary_runs_are_worker_count_invariant() {
    for slice in [1u64, 64] {
        assert_worker_invariant("adversary", slice, || {
            adversary(5, SEED, 1).fleet(SHARED).ticks(640)
        });
    }
}

#[test]
fn seasons_runs_are_worker_count_invariant() {
    for slice in [1u64, 64] {
        assert_worker_invariant("seasons", slice, || seasons(3, 512, SEED, 1).fleet(SHARED));
    }
}

#[test]
fn cascade_runs_are_worker_count_invariant() {
    for slice in [1u64, 64] {
        assert_worker_invariant("cascade", slice, || {
            cascade(4, SEED, 3, 1)
                .fleet(LearnerChoice::locked())
                .ticks(640)
        });
    }
}

#[test]
fn run_to_quiescence_stops_one_healing_tail_past_the_horizon() {
    let replicas = 5usize;
    let config = adversary(replicas, SEED, 64).fleet(SHARED);
    assert_eq!(
        config.stimulus_horizon(),
        Some(ADVERSARY_UNTIL - 1),
        "the adversary's last possible strike bounds the stimulus horizon"
    );
    let outcome = config.run_to_quiescence();
    assert_eq!(
        outcome.total_ticks(),
        replicas as u64 * (ADVERSARY_UNTIL + HEALING_TAIL),
        "every replica runs exactly one healing tail past the horizon"
    );
    let stats = reactive_strike_stats(&outcome);
    assert!(stats.strikes > 0, "the adversary struck inside its window");
    assert!(stats.matched > 0, "strikes opened attributable episodes");
    assert_eq!(
        stats.open, 0,
        "the healing tail closed every attributed episode"
    );
    let last_strike = outcome
        .reactive_log()
        .iter()
        .map(|record| record.tick)
        .max()
        .unwrap();
    assert!(
        last_strike < ADVERSARY_UNTIL,
        "no strike past the stand-down tick"
    );
}
