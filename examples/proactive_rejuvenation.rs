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
use selfheal::healing::harness::{
    FaultChoice, PolicyChoice, ReplicaPlan, ReplicaSeeds, WorkloadChoice,
};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::seeds::{split_seed, SeedStream};
use selfheal::sim::ServiceConfig;

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
        // `SelfHealingService::builder().seed(42)`'s replica, stepped here
        // so the example can keep the one trajectory it analyses.
        let plan = ReplicaPlan {
            service: config.clone(),
            workload: WorkloadChoice::default(),
            faults: FaultChoice::Scripted(injections.clone()),
            policy,
        };
        let seeds = ReplicaSeeds {
            service: config.seed,
            workload: 42,
            faults: split_seed(42, 0, SeedStream::Faults),
        };
        let mut runner = plan.runner(0, seeds, None);
        let response_id = runner.service().schema().expect_id("svc.response_ms");
        let mut trajectory = Vec::new();
        for _ in 0..900 {
            let tick = runner.step();
            if tick.sample.tick() >= 80 {
                trajectory.push(tick.sample.get(response_id));
            }
        }
        let outcome = runner.outcome();

        // Control-theoretic view of the response-time trajectory after the
        // disturbance (Section 5.4): settling time, overshoot, oscillation.
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
