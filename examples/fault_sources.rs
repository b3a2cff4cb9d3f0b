//! Pluggable fault sources: scripted plans, demographic generation from the
//! paper's failure-cause mixes, catalog coverage sweeps, and CauseMix-driven
//! fault storms.
//!
//! ```bash
//! cargo run --release --example fault_sources
//! ```
//!
//! Demonstrates the `FaultSource` API end to end:
//!
//! 1. **Scripted** — wrap an `InjectionPlan` in a `ScriptedSource` and show
//!    the run is byte-identical (same `ScenarioOutcome::fingerprint()`) to
//!    the plan-accepting constructor path.
//! 2. **Demographic mix** — generate faults stochastically from the
//!    `Online` service profile's Figure 1 cause mix (Section 4.2's active
//!    preproduction stimulation) and compare the realized cause demographics
//!    with the configured weights.
//! 3. **Catalog sweep** — one fault of every Table 1 / catalog class at a
//!    fixed cadence: the FixSym training-coverage run, after which the
//!    synopsis knows a fix for every signature it met.
//! 4. **Catalog storm** — a fleet-wide correlated outage whose victims each
//!    manifest a *different* class drawn from the cause mix.

use selfheal::faults::{FailureCause, FaultSource, MixSource, ServiceProfile};
use selfheal::fleet::{ExecutionMode, FleetConfig};
use selfheal::healing::harness::{
    EventChoice, FaultChoice, LearnerChoice, PolicyChoice, SelfHealingService,
};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;
use selfheal::workload::{ArrivalProcess, WorkloadMix};
use std::collections::HashMap;

fn main() {
    let config = ServiceConfig::tiny();

    // 1. Scripted sources are the old injection plans, verbatim.
    let plan = selfheal::faults::InjectionPlanBuilder::new()
        .inject(
            100,
            selfheal::faults::FaultKind::BufferContention,
            selfheal::faults::FaultTarget::DatabaseTier,
            0.9,
        )
        .build();
    let via_plan = SelfHealingService::builder()
        .config(config.clone())
        .faults(FaultChoice::Scripted(plan.clone()))
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .seed(7)
        .run(400);
    let via_source = SelfHealingService::builder()
        .config(config.clone())
        .faults(FaultChoice::Scripted(plan))
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .seed(7)
        .run(400);
    assert_eq!(via_plan.fingerprint(), via_source.fingerprint());
    println!(
        "scripted: plan path == ScriptedSource path (fingerprint {:#018x})",
        via_plan.fingerprint()
    );

    // 2. Demographic generation: the Figure 1 cause mix as a generator.
    let profile = ServiceProfile::Online;
    let mut source = MixSource::new(profile, 1.0, 42);
    let mut counts: HashMap<FailureCause, usize> = HashMap::new();
    let n = 5_000u64;
    for tick in 0..n {
        for fault in source.due_at(tick) {
            *counts.entry(fault.cause).or_insert(0) += 1;
        }
    }
    println!(
        "\n{} demographics over {n} generated faults:",
        profile.name()
    );
    for &(cause, weight) in profile.cause_mix().probabilities() {
        let freq = counts.get(&cause).copied().unwrap_or(0) as f64 / n as f64;
        println!("  {cause:<10} configured {weight:.2}  realized {freq:.3}");
    }

    // ...and as a live run: faults at 2% per tick for 400 ticks, then a
    // quiet tail in which the hybrid healer drains every episode.
    let mix_run = SelfHealingService::builder()
        .config(config.clone())
        .faults(FaultChoice::mix_for(profile, 0.02, &config).active_for(400))
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .seed(42)
        .run(800);
    let healed = mix_run
        .recovery
        .episodes()
        .iter()
        .filter(|e| e.recovery_ticks().is_some())
        .count();
    println!(
        "mix run: {} episodes, {healed} healed, {} fixes, goodput {:.3}",
        mix_run.recovery.len(),
        mix_run.fixes_initiated,
        mix_run.goodput_fraction()
    );

    // 3. Catalog sweep: FixSym training coverage.
    let sweep_run = SelfHealingService::builder()
        .config(config.clone())
        .faults(FaultChoice::sweep(50, 400))
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .seed(3)
        .run(50 + 400 * 12 + 600);
    println!(
        "\ncatalog sweep: {} classes injected -> {} episodes, {} fixes initiated",
        selfheal::faults::CatalogSweep::kinds().len(),
        sweep_run.recovery.len(),
        sweep_run.fixes_initiated
    );

    // 4. A CauseMix-driven storm: at tick 100, every replica is hit, each
    // with its own class drawn from the Online mix.
    let storm = FleetConfig::builder()
        .service(config)
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(6)
        .ticks(500)
        .base_seed(9)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .learner(LearnerChoice::locked())
        .event(EventChoice::catalog_storm(100, ServiceProfile::Online, 1.0))
        .mode(ExecutionMode::Sequential)
        .run();
    println!("\ncatalog storm victims:");
    for replica in storm.replicas() {
        let mut kinds: Vec<String> = replica
            .outcome
            .recovery
            .episodes()
            .iter()
            .filter_map(|e| e.primary_fault())
            .map(|k| k.to_string())
            .collect();
        kinds.dedup();
        println!("  replica {}: {}", replica.replica, kinds.join(", "));
    }
    println!(
        "storm fleet: {} episodes across {} replicas, all deterministic at any worker count",
        storm.total_episodes(),
        storm.replicas().len()
    );
}
