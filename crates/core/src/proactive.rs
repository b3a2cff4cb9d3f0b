//! Proactive application of fixes (Section 5.3).
//!
//! "Some failures can force the service into a state where it is not
//! possible to use or recover the service quickly.  In these settings, an
//! approach where failures are predicted in advance and fixes applied
//! proactively, can be more attractive.  Such strategies need synopses that
//! can forecast failures."
//!
//! The proactive policy is a [`crate::HybridHealer`] with a [`Forecast`]: a
//! sliding linear trend of the response time.  On a healthy tick, when the
//! trend crosses the SLO threshold within the horizon, the healer applies a
//! preventive fix *before* the SLO is violated — the diagnosis engines'
//! recommendation on the degradation seen so far, else an application-tier
//! reboot, the generic remedy for gradual degradation such as software
//! aging.  When a violation does slip through, the healer's reactive loop
//! handles it like any other.

use crate::policy::DiagnosisPanel;
use crate::synopsis::FixExclusions;
use selfheal_faults::{FaultTarget, FixAction, FixKind};
use selfheal_learn::forecast::{steps_until_threshold, Forecaster, SlidingLinearTrend};

/// How far ahead (ticks) the forecast must cross the SLO before acting.
const HORIZON_TICKS: usize = 60;

/// Minimum ticks between proactive interventions.
const COOLDOWN_TICKS: u64 = 120;

/// The response-time trend and when it last called for a fix.
#[derive(Debug)]
pub(crate) struct Forecast {
    trend: SlidingLinearTrend,
    last_fix_at: Option<u64>,
}

impl Forecast {
    pub(crate) fn new() -> Self {
        Forecast {
            trend: SlidingLinearTrend::new(30),
            last_fix_at: None,
        }
    }

    /// Adds this tick's mean response time to the trend.
    pub(crate) fn observe(&mut self, response_ms: f64) {
        self.trend.observe(response_ms);
    }

    /// On a healthy tick at `tick`: the preventive fix, when the trend
    /// crosses `panel`'s SLO within the horizon and the last one is past
    /// its cooldown.
    pub(crate) fn preventive_fix(
        &mut self,
        tick: u64,
        panel: &DiagnosisPanel,
    ) -> Option<FixAction> {
        let cooling = (self.last_fix_at).is_some_and(|at| tick.saturating_sub(at) < COOLDOWN_TICKS);
        if cooling || self.trend.observations() < 30 {
            return None;
        }
        steps_until_threshold(&self.trend, panel.ctx.slo_response_ms, HORIZON_TICKS)?;
        self.last_fix_at = Some(tick);
        Some((panel.best_untried(&FixExclusions::new(), false)).map_or(
            FixAction::targeted(FixKind::RebootTier, FaultTarget::AppTier),
            |(action, _)| action,
        ))
    }
}

#[cfg(test)]
mod tests {
    use crate::harness::PolicyChoice;
    use crate::synopsis::Synopsis;
    use crate::HybridHealer;
    use selfheal_faults::{FaultId, FaultKind, FaultSpec, FaultTarget};
    use selfheal_sim::scenario::Healer;
    use selfheal_sim::{MultiTierService, ServiceConfig};
    use selfheal_telemetry::{Schema, SloTargets};
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};

    fn proactive(schema: &Schema, targets: SloTargets) -> HybridHealer {
        (PolicyChoice::Proactive.healer(schema, targets, None::<Synopsis>))
            .expect("the proactive policy is a HybridHealer")
    }

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
        let healer = proactive(&schema, config.slo_targets());
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
        let healer = proactive(&schema, config.slo_targets());
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
        let mut healer = proactive(service.schema(), config.slo_targets());
        for _ in 0..200 {
            let requests = workload.tick(service.current_tick());
            let outcome = service.tick(&requests);
            assert!(healer.observe(&outcome).is_empty());
        }
    }
}
