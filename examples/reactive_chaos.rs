//! Reactive chaos: state-observing engines that watch the fleet at epoch
//! barriers and strike back — plus horizon-aware auto-quiesce.
//!
//! ```bash
//! cargo run --release --example reactive_chaos
//! ```
//!
//! Demonstrates the reactive subsystem end to end:
//!
//! 1. **Adversary** — a weakest-replica targeter strikes whichever replica
//!    has the most open episodes at every reactive barrier.  A scout
//!    injection teaches the shared synopsis the fix first, so every strike
//!    is healed on the first attempt.
//! 2. **Auto-quiesce** — `run_to_quiescence()` reads the configuration's
//!    stimulus horizon (scripted plans, fault sources, reactive engines)
//!    and runs exactly one healing tail past it: no hand-tuned tick counts.
//! 3. **Shared vs isolated under attack** — the paper's claim, forced: an
//!    adversary that piles onto the weak makes shared fix synopses
//!    out-heal isolated learners.
//! 4. **Cascade** — a correlated-failure ring: each replica that *enters*
//!    an episode seeds a fault in its dependent, bounded by a budget.
//!
//! All reactive runs are fingerprint-deterministic at any worker count
//! because engines observe the fleet only at barriers, where every replica
//! has completed exactly the same tick.

use selfheal::fleet::HEALING_TAIL;
use selfheal_bench::fleet::{adversary, cascade, reactive_strike_stats, ADVERSARY_UNTIL};

fn main() {
    // 1 + 2. An adversarial fleet, auto-quiesced: the horizon is the last
    // tick the adversary may still strike, and the run extends one healing
    // tail past it.
    let experiment = adversary(6, 42, 64);
    let config = experiment.fleet(experiment.shared);
    let horizon = config.stimulus_horizon().expect("adversary is bounded");
    assert_eq!(horizon, ADVERSARY_UNTIL - 1, "the last strikeable tick");
    let outcome = config.run_to_quiescence();
    let ticks_per_replica = outcome.total_ticks() / outcome.replicas().len() as u64;
    println!(
        "auto-quiesce: stimulus horizon {horizon}, healing tail {HEALING_TAIL} \
         -> {ticks_per_replica} ticks per replica"
    );
    assert_eq!(ticks_per_replica, horizon + 1 + HEALING_TAIL);

    println!("\nadversary strike log (each strike targets the weakest replica):");
    for record in outcome.reactive_log() {
        println!(
            "  tick {:>4}  {} -> replica {}",
            record.tick, record.event, record.replica
        );
    }
    let stats = reactive_strike_stats(&outcome);
    println!(
        "shared synopsis: {} strikes, {} matched episodes, {} open, \
         {:.2} mean attempts, {:.1} mean recovery ticks",
        stats.strikes, stats.matched, stats.open, stats.mean_attempts, stats.mean_recovery
    );

    // 3. The head-to-head: one fleet pools its fixes, the other learns in
    // isolation; the adversary reacts to each fleet's own health.
    let report = experiment.compare();
    println!("\nshared vs isolated under adversarial targeting:");
    for (label, side) in [("shared  ", report.shared), ("isolated", report.isolated)] {
        println!(
            "  {label} {} strikes, {} matched, {:.2} attempts, {:>5.1} recovery ticks",
            side.strikes, side.matched, side.mean_attempts, side.mean_recovery
        );
    }
    assert!(report.shared_recovers_faster());

    // 4. The cascade ring, and worker-count determinism: the same reactive
    // run, sequential and parallel, is fingerprint-identical.
    let ring = cascade(4, 7, 3, 64);
    let (sequential, propagations) = ring.measure(ring.shared);
    println!("\ncascade propagation chain:");
    for record in sequential.reactive_log() {
        println!(
            "  tick {:>4}  {} seeds replica {}",
            record.tick, record.event, record.replica
        );
    }
    let equivalent = ring.parallel_matches(&sequential);
    println!(
        "cascade: {} propagations within budget 3, fingerprints parallel == sequential: \
         {equivalent}",
        propagations.strikes
    );
    assert!(equivalent);
}
