//! Quickstart: run the RUBiS-like service, break it, and let the hybrid
//! (FixSym + diagnosis) policy heal it.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use selfheal::faults::{FaultKind, FaultTarget, InjectionPlanBuilder};
use selfheal::healing::harness::{FaultChoice, PolicyChoice, SelfHealingService};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;

fn main() {
    let config = ServiceConfig::rubis_default();

    // Schedule two failures from Table 1 of the paper: a starved database
    // buffer pool and an EJB that starts throwing unhandled exceptions.
    let injections = InjectionPlanBuilder::new()
        .inject(
            120,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        )
        .inject(
            700,
            FaultKind::UnhandledException,
            FaultTarget::Ejb { index: 1 },
            0.9,
        )
        .build();

    println!("== no self-healing ==");
    let baseline = SelfHealingService::builder()
        .config(config.clone())
        .faults(FaultChoice::Scripted(injections.clone()))
        .policy(PolicyChoice::None)
        .run(1200);
    report(&baseline);

    println!("\n== hybrid FixSym + diagnosis self-healing ==");
    let healed = SelfHealingService::builder()
        .config(config)
        .faults(FaultChoice::Scripted(injections))
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .run(1200);
    report(&healed);

    println!(
        "\nSLO violation time reduced from {:.1}% to {:.1}% of the run.",
        100.0 * baseline.violation_fraction,
        100.0 * healed.violation_fraction
    );
}

fn report(outcome: &selfheal::sim::ScenarioOutcome) {
    println!(
        "ticks={}  arrived={}  completed={}  errors={}  goodput={:.1}%",
        outcome.ticks,
        outcome.arrived,
        outcome.completed,
        outcome.errors,
        100.0 * outcome.goodput_fraction()
    );
    println!(
        "slo violation fraction={:.3}  fixes initiated={}  failure episodes={}",
        outcome.violation_fraction,
        outcome.fixes_initiated,
        outcome.recovery.len()
    );
    for (i, episode) in outcome.recovery.episodes().iter().enumerate() {
        match episode.recovery_ticks() {
            Some(t) => println!(
                "  episode {i}: detected at tick {}, recovered after {t} ticks ({} fix attempts)",
                episode.detected_at,
                episode.fixes_attempted.len()
            ),
            None => println!(
                "  episode {i}: detected at tick {}, never recovered",
                episode.detected_at
            ),
        }
    }
}
