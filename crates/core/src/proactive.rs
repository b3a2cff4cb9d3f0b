//! Proactive application of fixes (Section 5.3).
//!
//! "Some failures can force the service into a state where it is not
//! possible to use or recover the service quickly.  In these settings, an
//! approach where failures are predicted in advance and fixes applied
//! proactively, can be more attractive.  Such strategies need synopses that
//! can forecast failures."
//!
//! [`ProactiveHealer`] forecasts the response-time trajectory with a sliding
//! linear trend; when the forecast crosses the SLO threshold within the
//! configured horizon, it applies a preventive fix *before* the SLO is
//! violated — choosing the fix from the diagnosis engines evaluated on the
//! degradation seen so far (and falling back to an application-tier reboot,
//! the generic remedy for gradual degradation such as software aging).
//! When a violation does slip through, it reacts like the reactive hybrid:
//! the diagnosis engines' untried recommendation, else lines 18–20.

use crate::policy::{
    choose, DiagnosisEngine, DiagnosisPanel, EpisodeTracker, Source, ESCALATE, VERIFY_TICKS,
};
use crate::synopsis::Synopsis;
use selfheal_faults::{FaultTarget, FixAction, FixKind};
use selfheal_learn::forecast::{steps_until_threshold, Forecaster, SlidingLinearTrend};
use selfheal_sim::scenario::Healer;
use selfheal_sim::service::TickOutcome;
use selfheal_telemetry::{Schema, SloTargets};
use std::collections::HashSet;

/// How far ahead (ticks) the forecast must cross the SLO before acting.
const HORIZON_TICKS: usize = 60;

/// Minimum ticks between proactive interventions.
const COOLDOWN_TICKS: u64 = 120;

/// The reactive path's sources below the threshold.
const REACTIVE: &[Source] = &[
    Source::Diagnosis {
        repeat_provisioning: false,
    },
    Source::Escalate { idle_ticks: 0 },
];

/// Forecast-driven proactive healer.
#[derive(Debug)]
pub(crate) struct ProactiveHealer {
    panel: DiagnosisPanel,
    forecaster: SlidingLinearTrend,
    tracker: EpisodeTracker,
    last_proactive_at: Option<u64>,
}

impl ProactiveHealer {
    /// Creates a proactive healer for a service with the given schema and
    /// SLO targets.
    pub(crate) fn new(schema: &Schema, targets: SloTargets) -> Self {
        ProactiveHealer {
            panel: DiagnosisPanel::new(schema, targets, DiagnosisEngine::hybrid()),
            forecaster: SlidingLinearTrend::new(30),
            tracker: EpisodeTracker::new(3, VERIFY_TICKS),
            last_proactive_at: None,
        }
    }
}

impl Healer for ProactiveHealer {
    fn name(&self) -> &str {
        "proactive"
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        let violated = !outcome.violations.is_empty();
        self.panel.push(&outcome.sample, violated);
        self.forecaster
            .observe(outcome.sample.get(self.panel.ctx.response_ms));

        let _ = self.tracker.resolve(outcome, violated);

        // Reactive path when a violation slipped through.
        if self.tracker.should_act(violated) {
            let sources = if self.tracker.exhausted() {
                ESCALATE
            } else {
                REACTIVE
            };
            let (action, _, _) = choose(
                sources,
                None::<&Synopsis>,
                Some(&self.panel),
                &[],
                &self.tracker.tried_kinds(),
                FixAction::untargeted,
            )
            .expect("escalation always offers a fix");
            self.tracker.record_attempt(action);
            return vec![action];
        }

        // Proactive path: act when the forecast crosses the SLO soon.
        if violated || self.tracker.in_episode() {
            return Vec::new();
        }
        let in_cooldown = self
            .last_proactive_at
            .map(|t| outcome.tick.saturating_sub(t) < COOLDOWN_TICKS)
            .unwrap_or(false);
        if in_cooldown || self.forecaster.observations() < 30 {
            return Vec::new();
        }
        let crossing = steps_until_threshold(
            &self.forecaster,
            self.panel.ctx.slo_response_ms,
            HORIZON_TICKS,
        );
        if crossing.is_none() {
            return Vec::new();
        }

        // A violation is coming: pick the best preventive fix from the
        // diagnosis engines, defaulting to rejuvenating the application tier
        // (the classic countermeasure to gradual degradation).
        let action = self.panel.best_untried(&HashSet::new(), false).map_or_else(
            || FixAction::targeted(FixKind::RebootTier, FaultTarget::AppTier),
            |(action, _)| action,
        );
        self.last_proactive_at = Some(outcome.tick);
        vec![action]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::{FaultId, FaultKind, FaultSpec};
    use selfheal_sim::{MultiTierService, ServiceConfig};
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};

    fn run_aging_scenario<H: Healer>(mut healer: H, ticks: u64) -> (MultiTierService, H, u64) {
        let config = ServiceConfig::tiny();
        let mut service = MultiTierService::new(config);
        let mut workload = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
            13,
        );
        let mut fixes = 0u64;
        for t in 0..ticks {
            if t == 50 {
                service.inject(FaultSpec::new(
                    FaultId(1),
                    FaultKind::SoftwareAging,
                    FaultTarget::AppTier,
                    0.9,
                ));
            }
            let requests = workload.tick(service.current_tick());
            let outcome = service.tick(&requests);
            for action in healer.observe(&outcome) {
                service.apply_fix(action);
                fixes += 1;
            }
        }
        (service, healer, fixes)
    }

    #[test]
    fn proactive_healer_intervenes_and_limits_violations_under_aging() {
        let config = ServiceConfig::tiny();
        let schema = MultiTierService::new(config.clone()).schema().clone();
        let healer = ProactiveHealer::new(&schema, config.slo_targets());
        let (service, healer, fixes) = run_aging_scenario(healer, 500);
        assert!(fixes >= 1, "the healer must act");
        // Aging under a proactive/reactive healer ends up either repaired
        // (tier reboot removed the leak) or fully mitigated (extra capacity
        // provisioned); in both cases the service must be SLO-compliant.
        assert!(
            service.active_faults().is_empty() || !service.slo_violated(),
            "the service must end the run repaired or mitigated"
        );
        assert_eq!(healer.name(), "proactive");
    }

    #[test]
    fn proactive_healer_beats_no_healing_on_slo_violation_time() {
        let config = ServiceConfig::tiny();
        let schema = MultiTierService::new(config.clone()).schema().clone();
        let healer = ProactiveHealer::new(&schema, config.slo_targets());
        let (healed_service, _, _) = run_aging_scenario(healer, 500);
        let (unhealed_service, _, _) = run_aging_scenario(selfheal_sim::scenario::NoHealing, 500);
        assert!(
            healed_service.violation_fraction() < unhealed_service.violation_fraction(),
            "healed {} vs unhealed {}",
            healed_service.violation_fraction(),
            unhealed_service.violation_fraction()
        );
    }

    #[test]
    fn healthy_service_triggers_no_proactive_fixes() {
        let config = ServiceConfig::tiny();
        let mut service = MultiTierService::new(config.clone());
        let mut workload = TraceGenerator::new(
            WorkloadMix::browsing(),
            ArrivalProcess::Constant { rate: 20.0 },
            17,
        );
        let mut healer = ProactiveHealer::new(service.schema(), config.slo_targets());
        for _ in 0..200 {
            let requests = workload.tick(service.current_tick());
            let outcome = service.tick(&requests);
            assert!(healer.observe(&outcome).is_empty());
        }
    }
}
