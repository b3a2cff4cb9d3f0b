//! Hybrid policy: FixSym + diagnosis-based fallback (Section 5.1).
//!
//! "The signature-based approach is good at dealing with scenarios where
//! same workloads and failures tend to recur.  However, this approach can be
//! ineffective at finding fixes for previously-unseen or rarely-seen
//! failures.  This disadvantage could be overcome ... \[by\] combining the
//! signature-based approach with one or more of the diagnosis-based
//! approaches that find the cause of a new failure to recommend a fix."
//!
//! [`HybridHealer`] does exactly that: when FixSym's synopsis is confident
//! about a failure signature it uses the signature-based suggestion (cheap,
//! no diagnosis needed); when the synopsis is unsure — a novel failure — it
//! falls back to the diagnosis engines, ranks their recommendations by
//! confidence, applies the best one, and *teaches the synopsis* the outcome
//! so that the next occurrence of the same signature is handled by the
//! signature path.

use crate::fixsym::{SignatureLoop, Step};
use crate::policy::{target_for_fix, DiagnosisPanel};
use crate::synopsis::{Learner, Synopsis, SynopsisKind};
use selfheal_faults::FixAction;
use selfheal_sim::scenario::Healer;
use selfheal_sim::service::TickOutcome;
use selfheal_telemetry::{Schema, SloTargets};

/// Combined signature + diagnosis healer.
///
/// Generic over the [`Learner`] backing the signature path (default: a
/// privately owned [`Synopsis`]; fleets pass a
/// [`crate::store::SynopsisStore`] handle).
#[derive(Debug)]
pub struct HybridHealer<L: Learner = Synopsis> {
    figure3: SignatureLoop<L>,
    panel: DiagnosisPanel,
    schema: Schema,
    /// Synopsis confidence above which the signature path is trusted.
    pub signature_confidence_threshold: f64,
    signature_decisions: u64,
    diagnosis_decisions: u64,
}

impl HybridHealer {
    /// Creates a hybrid healer for a service with the given schema and SLO
    /// targets.
    pub fn new(schema: &Schema, kind: SynopsisKind, targets: SloTargets) -> Self {
        Self::with_learner(schema, Synopsis::new(kind), targets)
    }
}

impl<L: Learner> HybridHealer<L> {
    /// Creates a hybrid healer around an existing learner (e.g. a
    /// fleet-shared synopsis handle).
    pub(crate) fn with_learner(schema: &Schema, learner: L, targets: SloTargets) -> Self {
        HybridHealer {
            figure3: SignatureLoop::new(schema, learner, 4, 25),
            panel: DiagnosisPanel::new(schema, targets),
            schema: schema.clone(),
            signature_confidence_threshold: 0.5,
            signature_decisions: 0,
            diagnosis_decisions: 0,
        }
    }
}

impl<L: Learner> Healer for HybridHealer<L> {
    fn name(&self) -> &str {
        "hybrid_fixsym_diagnosis"
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        self.panel.push(&outcome.sample);
        let (symptoms, tried) = match self.figure3.step(outcome) {
            Step::Choose(symptoms, tried) => (symptoms, tried),
            Step::Done(actions) => return actions,
        };

        // Signature path: trust the synopsis when it is confident.
        if let Some((fix, confidence)) = self.figure3.synopsis.suggest_excluding(&symptoms, &tried)
        {
            if confidence >= self.signature_confidence_threshold {
                self.signature_decisions += 1;
                let action = target_for_fix(fix, &self.schema, &outcome.sample);
                return self.figure3.tracker.attempt(action);
            }
        }

        // Diagnosis fallback for novel / low-confidence failures.
        if let Some(action) = self.panel.best_untried(&tried) {
            self.diagnosis_decisions += 1;
            return self.figure3.tracker.attempt(action);
        }

        // Neither path has anything new: escalate.
        self.figure3.tracker.escalate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::{FaultId, FaultKind, FaultSpec, FaultTarget};
    use selfheal_sim::{MultiTierService, ServiceConfig};
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};

    impl<L: Learner> HybridHealer<L> {
        /// How many fixes were chosen by the signature path vs the diagnosis
        /// fallback: `(signature, diagnosis)`.
        pub(crate) fn decision_counts(&self) -> (u64, u64) {
            (self.signature_decisions, self.diagnosis_decisions)
        }
    }

    impl HybridHealer {
        /// The learned synopsis.
        pub(crate) fn synopsis(&self) -> &Synopsis {
            &self.figure3.synopsis
        }
    }

    fn run(
        healer: &mut HybridHealer,
        service: &mut MultiTierService,
        workload: &mut TraceGenerator,
        ticks: u64,
        inject: Option<(u64, FaultSpec)>,
    ) {
        for _ in 0..ticks {
            let t = service.current_tick();
            if let Some((at, fault)) = &inject {
                if t == *at {
                    service.inject(fault.clone());
                }
            }
            let requests = workload.tick(t);
            let outcome = service.tick(&requests);
            for action in healer.observe(&outcome) {
                service.apply_fix(action);
            }
        }
    }

    #[test]
    fn novel_failure_uses_diagnosis_then_signature_handles_the_recurrence() {
        let config = ServiceConfig::tiny();
        let mut service = MultiTierService::new(config.clone());
        let mut workload = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
            9,
        );
        let mut healer = HybridHealer::new(
            service.schema(),
            SynopsisKind::NearestNeighbor,
            config.slo_targets(),
        );

        // First occurrence: the synopsis is empty, so the diagnosis fallback
        // must handle it.
        let fault = FaultSpec::new(
            FaultId(1),
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        );
        run(
            &mut healer,
            &mut service,
            &mut workload,
            250,
            Some((40, fault)),
        );
        assert!(
            service.active_faults().is_empty(),
            "first occurrence should be repaired"
        );
        let (sig_first, diag_first) = healer.decision_counts();
        assert!(
            diag_first >= 1,
            "the first occurrence must use the diagnosis path"
        );
        assert!(
            healer.synopsis().correct_fixes_learned() >= 1,
            "the outcome must be learned"
        );

        // Second occurrence of the same failure signature: the signature
        // path should now contribute.
        let fault2 = FaultSpec::new(
            FaultId(2),
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        );
        let tick = service.current_tick();
        run(
            &mut healer,
            &mut service,
            &mut workload,
            250,
            Some((tick + 30, fault2)),
        );
        assert!(
            service.active_faults().is_empty(),
            "second occurrence should be repaired"
        );
        let (sig_second, _) = healer.decision_counts();
        assert!(
            sig_second > sig_first,
            "the recurrence should be handled by the signature path ({sig_first} -> {sig_second})"
        );
    }

    #[test]
    fn healthy_run_takes_no_action() {
        let config = ServiceConfig::tiny();
        let mut service = MultiTierService::new(config.clone());
        let mut workload = TraceGenerator::new(
            WorkloadMix::browsing(),
            ArrivalProcess::Constant { rate: 20.0 },
            3,
        );
        let mut healer =
            HybridHealer::new(service.schema(), SynopsisKind::KMeans, config.slo_targets());
        run(&mut healer, &mut service, &mut workload, 100, None);
        assert_eq!(healer.decision_counts(), (0, 0));
        assert_eq!(healer.name(), "hybrid_fixsym_diagnosis");
    }
}
