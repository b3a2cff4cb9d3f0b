//! Proactive healing (Section 5.3 of the paper): software aging slowly leaks
//! resources in the application tier; the proactive healer forecasts the
//! response-time trajectory and rejuvenates the tier *before* the SLO is
//! violated, compared against reacting only after the violation.
//!
//! ```bash
//! cargo run --release --example proactive_rejuvenation
//! ```

use selfheal::faults::{FaultKind, FaultTarget, InjectionPlanBuilder};
use selfheal::healing::control;
use selfheal::healing::harness::{FaultChoice, PolicyChoice, SelfHealingService};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;
use selfheal::telemetry::Value;

fn main() {
    let config = ServiceConfig::tiny();
    let injections = InjectionPlanBuilder::new()
        .inject(80, FaultKind::SoftwareAging, FaultTarget::AppTier, 0.9)
        .build();

    let policies = [
        ("no healing", PolicyChoice::None),
        (
            "reactive hybrid",
            PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor),
        ),
        ("proactive", PolicyChoice::Proactive),
    ];

    println!("software aging injected at tick 80 (slow leak in the application tier)\n");
    for (name, policy) in policies {
        let outcome = SelfHealingService::builder()
            .config(config.clone())
            .faults(FaultChoice::Scripted(injections.clone()))
            .policy(policy)
            .run(900);

        // Control-theoretic view of the response-time trajectory after the
        // disturbance (Section 5.4): settling time, overshoot, oscillation.
        let response_id = outcome.series.schema().expect_id("svc.response_ms");
        let trajectory: Vec<Value> = outcome
            .series
            .iter()
            .filter(|s| s.tick() >= 80)
            .map(|s| s.get(response_id))
            .collect();
        let analysis = control::analyze(&trajectory, 40.0, 0.9);

        println!("policy = {name}");
        println!(
            "  SLO violation fraction = {:.3}, fixes initiated = {}, goodput = {:.1}%",
            outcome.violation_fraction,
            outcome.fixes_initiated,
            100.0 * outcome.goodput_fraction()
        );
        println!(
            "  response-time control analysis: settling = {:?} ticks, overshoot = {:.1}x, oscillations = {}, stable = {}\n",
            analysis.settling_ticks,
            analysis.overshoot_ratio,
            analysis.oscillations,
            analysis.is_stable()
        );
    }
}
