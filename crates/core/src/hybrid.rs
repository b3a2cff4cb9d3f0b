//! The one online healer: Figure 3's loop around line 9 (Section 5.1).
//!
//! "The signature-based approach is good at dealing with scenarios where
//! same workloads and failures tend to recur.  However, this approach can be
//! ineffective at finding fixes for previously-unseen or rarely-seen
//! failures.  This disadvantage could be overcome ... \[by\] combining the
//! signature-based approach with one or more of the diagnosis-based
//! approaches that find the cause of a new failure to recommend a fix."
//!
//! [`HybridHealer`] runs the online loop — symptom extraction from the live
//! metric stream, `check_fix` from SLO recovery, `update_synopsis`, the
//! THRESHOLD escalation — and takes each next fix from [`choose`] over its
//! constant list of [`Source`]s.  Every policy of Table 2 but no healing is
//! one of these lists ([`crate::harness::PolicyChoice`] holds them all): the
//! hybrid trusts a confident synopsis, falls back to the diagnosis engines
//! for a novel failure, and *teaches the synopsis* the outcome so that the
//! next occurrence of the same signature takes the signature path; FixSym
//! has no diagnosis, and a diagnosis baseline no synopsis.

use crate::policy::{choose, target_for_fix, DiagnosisPanel, EpisodeTracker, Source, VERIFY_TICKS};
use crate::symptom::SymptomExtractor;
use crate::synopsis::{Learner, Synopsis, SynopsisKind};
use selfheal_faults::FixAction;
use selfheal_sim::scenario::Healer;
use selfheal_sim::service::TickOutcome;
use selfheal_telemetry::{Schema, SloTargets};

/// An online healer: a name, an attempt threshold, a constant list of fix
/// sources, and the synopsis and diagnosis panel those sources read.
///
/// Generic over the [`Learner`] backing the synopsis (default: a privately
/// owned [`Synopsis`]; fleets pass a [`crate::store::SynopsisStore`] handle
/// so every replica's healer learns from — and teaches — the same model).
#[derive(Debug)]
pub struct HybridHealer<L: Learner = Synopsis> {
    name: &'static str,
    sources: &'static [Source],
    synopsis: Option<L>,
    panel: Option<DiagnosisPanel>,
    schema: Schema,
    extractor: SymptomExtractor,
    tracker: EpisodeTracker,
    current_symptoms: Option<Vec<f64>>,
    /// Ticks since the last fix this healer initiated on which only an
    /// `Escalate` source had a fix to offer.
    idle_ticks: u32,
}

impl HybridHealer {
    /// Creates a hybrid healer for a service with the given schema and SLO
    /// targets.
    pub fn new(schema: &Schema, kind: SynopsisKind, targets: SloTargets) -> Self {
        crate::harness::PolicyChoice::Hybrid(kind)
            .healer(schema, targets, Some(Synopsis::new(kind)))
            .expect("the hybrid policy is a HybridHealer")
    }
}

impl<L: Learner> HybridHealer<L> {
    /// The healer `name` that tries at most `threshold` fixes per episode
    /// before escalating and takes each from `sources`.
    pub(crate) fn with_sources(
        name: &'static str,
        threshold: u32,
        sources: &'static [Source],
        schema: &Schema,
        synopsis: Option<L>,
        panel: Option<DiagnosisPanel>,
    ) -> Self {
        HybridHealer {
            name,
            sources,
            synopsis,
            panel,
            schema: schema.clone(),
            extractor: SymptomExtractor::new(schema, 30, 5),
            tracker: EpisodeTracker::new(threshold, VERIFY_TICKS),
            current_symptoms: None,
            idle_ticks: 0,
        }
    }

    /// One step of the online loop: the fix initiated this tick, if any, and
    /// the source it came from.
    fn decide(&mut self, outcome: &TickOutcome) -> Option<(FixAction, Source)> {
        let violated = !outcome.violations.is_empty();
        if let Some(panel) = &mut self.panel {
            panel.push(&outcome.sample, violated);
        }
        self.extractor
            .observe(&outcome.sample, !violated && !self.tracker.in_episode());

        // Resolve the outcome of a previously applied fix (check_fix) and
        // teach it to the synopsis (update_synopsis).
        if let Some((fix, success)) = self.tracker.resolve(outcome, violated) {
            if let (Some(synopsis), Some(symptoms)) = (&mut self.synopsis, &self.current_symptoms) {
                synopsis.record(symptoms, fix.kind, success);
            }
            if success {
                self.current_symptoms = None;
            }
        }

        // Nothing to do while healthy or while a fix is in flight / settling.
        if !self.tracker.should_act(violated) {
            return None;
        }
        // New failure data point (or next attempt for the current one).
        let symptoms = self.extractor.symptoms()?;
        if self.current_symptoms.is_none() {
            self.current_symptoms = Some(symptoms.clone());
        }

        // Past the threshold, lines 18–20 escalate at once.
        let sources: &[Source] = if self.tracker.exhausted() {
            &[Source::Escalate { idle_ticks: 0 }]
        } else {
            self.sources
        };
        let (action, source, _) = choose(
            sources,
            self.synopsis.as_ref(),
            self.panel.as_ref(),
            &symptoms,
            &self.tracker.tried_kinds(),
            |kind| target_for_fix(kind, &self.schema, &outcome.sample),
        )?;
        if let Source::Escalate { idle_ticks } = source {
            if self.idle_ticks < idle_ticks {
                self.idle_ticks += 1;
                return None;
            }
        }
        self.idle_ticks = 0;
        self.tracker.record_attempt(action);
        Some((action, source))
    }
}

impl<L: Learner> Healer for HybridHealer<L> {
    fn name(&self) -> &str {
        self.name
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        self.decide(outcome)
            .map_or_else(Vec::new, |(action, _)| vec![action])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::{FaultId, FaultKind, FaultSpec, FaultTarget};
    use selfheal_sim::{MultiTierService, ServiceConfig};
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};

    impl HybridHealer {
        /// The learned synopsis.
        pub(crate) fn synopsis(&self) -> &Synopsis {
            self.synopsis.as_ref().expect("the hybrid learns")
        }
    }

    /// Runs `ticks` ticks and returns the source of every fix chosen.
    fn run(
        healer: &mut HybridHealer,
        service: &mut MultiTierService,
        workload: &mut TraceGenerator,
        ticks: u64,
        inject: Option<(u64, FaultSpec)>,
    ) -> Vec<Source> {
        let mut sources = Vec::new();
        for _ in 0..ticks {
            let t = service.current_tick();
            if let Some((at, fault)) = &inject {
                if t == *at {
                    service.inject(fault.clone());
                }
            }
            let requests = workload.tick(t);
            let outcome = service.tick(&requests);
            if let Some((action, source)) = healer.decide(&outcome) {
                service.apply_fix(action);
                sources.push(source);
            }
        }
        sources
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
        let first = run(
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
        assert!(
            first.iter().any(|s| matches!(s, Source::Diagnosis { .. })),
            "the first occurrence must use the diagnosis path: {first:?}"
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
        let second = run(
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
        assert!(
            second.iter().any(|s| matches!(s, Source::Synopsis { .. })),
            "the recurrence should be handled by the signature path: {second:?}"
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
        assert!(run(&mut healer, &mut service, &mut workload, 100, None).is_empty());
        assert_eq!(healer.name(), "hybrid_fixsym_diagnosis");
    }
}
