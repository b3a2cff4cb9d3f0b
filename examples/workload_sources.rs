//! Pluggable workload sources: record/replay a synthetic trace, then stress
//! the healer with recurring flash-crowd storms.
//!
//! ```bash
//! cargo run --release --example workload_sources
//! ```
//!
//! Demonstrates the `TraceSource` API end to end:
//!
//! 1. **Record** a synthetic `TraceGenerator` run into a `RecordedTrace`,
//!    round-trip it through the JSON-lines codec, and **replay** it —
//!    asserting the replayed scenario is byte-identical (same
//!    `ScenarioOutcome::fingerprint()`) to the synthetic original.
//! 2. Replay the same trace **phase-shifted** (starting mid-trace, looping),
//!    the per-replica stagger a fleet applies.
//! 3. Drive the service with a **`BurstSource`** — 5× flash crowds every 200
//!    ticks — and show the hybrid healer coping with the storms.

use selfheal::faults::{FaultKind, FaultTarget, InjectionPlanBuilder};
use selfheal::healing::harness::{FaultChoice, PolicyChoice, SelfHealingService, WorkloadChoice};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;
use selfheal::workload::{
    ArrivalProcess, BurstSource, RecordedTrace, ReplayMode, ReplaySource, TraceGenerator,
    WorkloadMix,
};

fn main() {
    let config = ServiceConfig::tiny();
    let ticks = 600u64;
    let plan = InjectionPlanBuilder::new()
        .inject(
            150,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        )
        .build();

    // 1. Record a synthetic run and replay it byte-identically.
    let mix = WorkloadMix::bidding();
    let arrivals = ArrivalProcess::Poisson { rate: 40.0 };
    let seed = 7u64;

    let synthetic = SelfHealingService::builder()
        .config(config.clone())
        .workload_choice(WorkloadChoice::synthetic(mix.clone(), arrivals.clone()))
        .faults(FaultChoice::Scripted(plan.clone()))
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .seed(seed)
        .run(ticks);

    let mut generator = TraceGenerator::new(mix, arrivals, seed);
    let trace = RecordedTrace::capture(&mut generator, ticks);
    let jsonl = trace.to_jsonl();
    let parsed = RecordedTrace::from_jsonl(&jsonl).expect("codec round trip");
    assert_eq!(parsed, trace, "parse ∘ serialize = id");
    println!(
        "recorded {} ticks / {} requests ({} KiB of JSON lines)",
        trace.len(),
        trace.total_requests(),
        jsonl.len() / 1024
    );

    let replayed = SelfHealingService::builder()
        .config(config.clone())
        .workload(ReplaySource::new(parsed, ReplayMode::Truncate))
        .faults(FaultChoice::Scripted(plan.clone()))
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .run(ticks);
    assert_eq!(
        synthetic.fingerprint(),
        replayed.fingerprint(),
        "replay must be byte-identical to the synthetic run"
    );
    println!(
        "replay is byte-identical to the synthetic run (fingerprint {:#018x})",
        replayed.fingerprint()
    );

    // 2. Phase-shifted loop replay: the same trace entered 150 ticks in —
    // what replica 1 of a fleet with `phase_step = 150` would see.
    let shifted = SelfHealingService::builder()
        .config(config.clone())
        .workload(ReplaySource::new(trace, ReplayMode::Loop).with_phase(150))
        .faults(FaultChoice::Scripted(plan))
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .run(ticks);
    println!(
        "phase-shifted replay: fingerprint {:#018x} (differs from {:#018x})",
        shifted.fingerprint(),
        replayed.fingerprint()
    );
    assert_ne!(shifted.fingerprint(), replayed.fingerprint());

    // 3. Flash-crowd storms: 5x the baseline for 30 of every 200 ticks.
    // The same service that is comfortably SLO-compliant under the steady
    // baseline is pushed into repeated violation episodes by the storms —
    // the scenario shape the paper's Walmart.com Thanksgiving example
    // describes.
    let burst = BurstSource::new(WorkloadMix::bidding(), 25.0, 5.0, 200, 30, 11);
    println!(
        "\n== flash crowds (base 25 req/tick, 5x for 30/200 ticks) ==\n\
         storm windows carry {:.0} req/tick",
        burst.rate_at(0)
    );
    let steady = SelfHealingService::builder()
        .config(config.clone())
        .workload_choice(WorkloadChoice::synthetic(
            WorkloadMix::bidding(),
            ArrivalProcess::Poisson { rate: 25.0 },
        ))
        .run(1000);
    let stormy = SelfHealingService::builder()
        .config(config.clone())
        .workload(burst)
        .run(1000);
    println!(
        "  steady baseline: violation fraction {:.3}  goodput {:.1}%",
        steady.violation_fraction,
        100.0 * steady.goodput_fraction()
    );
    println!(
        "  under storms:    violation fraction {:.3}  goodput {:.1}%",
        stormy.violation_fraction,
        100.0 * stormy.goodput_fraction()
    );
    assert!(stormy.violation_fraction > steady.violation_fraction);

    // The same storms as a declarative fleet workload: every replica rides
    // out its own independently-seeded copy of the flash crowds.
    let fleet = selfheal::fleet::FleetConfig::builder()
        .service(config)
        .workload(WorkloadChoice::burst(
            WorkloadMix::bidding(),
            25.0,
            5.0,
            200,
            30,
        ))
        .replicas(4)
        .ticks(600)
        .run();
    println!(
        "  4-replica burst fleet: mean violation fraction {:.3}, goodput {:.1}%",
        fleet.mean_violation_fraction(),
        100.0 * fleet.goodput_fraction()
    );
}
