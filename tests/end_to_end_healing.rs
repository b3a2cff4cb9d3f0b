//! Integration tests spanning the whole stack: workload → simulator →
//! telemetry → diagnosis/FixSym → fix actuation → recovery.

use selfheal::faults::{FaultKind, FaultTarget, FixKind, InjectionPlanBuilder};
use selfheal::healing::harness::{FaultChoice, PolicyChoice, SelfHealingService};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;

fn scenario(policy: PolicyChoice, ticks: u64) -> selfheal::sim::ScenarioOutcome {
    let config = ServiceConfig::tiny();
    let injections = InjectionPlanBuilder::new()
        .inject(
            60,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        )
        .inject(
            500,
            FaultKind::UnhandledException,
            FaultTarget::Ejb { index: 1 },
            0.9,
        )
        .inject(
            940,
            FaultKind::SuboptimalQueryPlan,
            FaultTarget::Table { index: 0 },
            0.9,
        )
        .build();
    SelfHealingService::builder()
        .config(config)
        .faults(FaultChoice::Scripted(injections))
        .policy(policy)
        .seed(23)
        .run(ticks)
}

#[test]
fn unhealed_service_stays_broken_and_healed_service_recovers() {
    let unhealed = scenario(PolicyChoice::None, 1400);
    let healed = scenario(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor), 1400);

    // Without healing the first fault never goes away, so most of the run is
    // spent in violation; with the hybrid policy the violations are short.
    assert!(
        unhealed.violation_fraction > 0.5,
        "unhealed {}",
        unhealed.violation_fraction
    );
    assert!(
        healed.violation_fraction < unhealed.violation_fraction / 2.0,
        "healed {} vs unhealed {}",
        healed.violation_fraction,
        unhealed.violation_fraction
    );
    assert!(
        healed.fixes_initiated >= 3,
        "one fix per injected failure at least"
    );
    // Healing costs goodput while disruptive fixes are applied (restarts and
    // reboots shed in-flight requests), so goodput is only sanity-checked;
    // the figure of merit for self-healing is the SLO-violation time above.
    assert!(
        healed.goodput_fraction() > 0.5,
        "healed goodput {}",
        healed.goodput_fraction()
    );

    // The detected episodes recover under the hybrid policy (the very last
    // one may still be mid-recovery when the run ends, e.g. while a slow
    // escalation completes).
    let recovered = healed
        .recovery
        .episodes()
        .iter()
        .filter(|e| e.recovery_ticks().is_some())
        .count();
    assert!(
        recovered + 1 >= healed.recovery.len(),
        "at most the final episode may be unrecovered: {recovered} of {}",
        healed.recovery.len()
    );
    assert!(healed.recovery.len() >= 3);
}

#[test]
fn fixsym_policy_handles_recurring_failures_with_fewer_attempts_over_time() {
    let config = ServiceConfig::tiny();
    // The same failure recurs four times.
    let injections = InjectionPlanBuilder::new()
        .inject(
            60,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        )
        .inject(
            500,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        )
        .inject(
            940,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        )
        .inject(
            1380,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        )
        .build();
    let outcome = SelfHealingService::builder()
        .config(config)
        .faults(FaultChoice::Scripted(injections))
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .seed(29)
        .run(1800);

    let episodes = outcome.recovery.episodes();
    assert!(
        episodes.len() >= 3,
        "expected several episodes, got {}",
        episodes.len()
    );
    let first_attempts = episodes.front().unwrap().fixes_attempted.len();
    // Brief SLO flaps can open (and close) unrelated episodes around the
    // real injections; judge the synopsis by the last recovered episode that
    // was actually caused by the injected fault (ground truth is recorded on
    // the episode for exactly this kind of scoring).
    let last = episodes
        .iter()
        .rev()
        .find(|e| {
            e.recovery_ticks().is_some() && e.primary_fault() == Some(FaultKind::BufferContention)
        })
        .unwrap();
    assert!(
        last.fixes_attempted.len() <= first_attempts,
        "the learned synopsis should not need more attempts than the first encounter \
         (first {first_attempts}, last {})",
        last.fixes_attempted.len()
    );
    // Later episodes should not escalate to a full restart.
    assert!(
        !last.escalated,
        "a learned recurring failure must not require escalation"
    );
    assert!(
        last.fixes_attempted
            .iter()
            .any(|f| f.kind == FixKind::RepartitionMemory),
        "the learned fix should be the catalog fix for buffer contention"
    );
}

#[test]
fn manual_rules_escalate_on_failures_outside_their_rule_base() {
    // A network partition matches none of the expert rules, so the manual
    // policy falls through to its coarse catch-all restart (one of the
    // weaknesses of static rules the paper lists in Section 3).
    let config = ServiceConfig::tiny();
    let injections = InjectionPlanBuilder::new()
        .inject(
            60,
            FaultKind::NetworkPartition,
            FaultTarget::WholeService,
            0.9,
        )
        .build();
    let outcome = SelfHealingService::builder()
        .config(config)
        .faults(FaultChoice::Scripted(injections))
        .policy(PolicyChoice::ManualRules)
        .seed(31)
        .run(700);
    assert!(outcome.fixes_initiated >= 1);
    assert!(
        outcome.recovery.escalations() > 0,
        "the manual policy should escalate for an unforeseen failure class"
    );
}
