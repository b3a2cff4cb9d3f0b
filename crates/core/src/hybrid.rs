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
//! metric stream, then the [`EpisodeTracker`]'s phase machine: `check_fix`
//! from SLO recovery, `update_synopsis`, the THRESHOLD escalation, paging
//! when nothing is left to try — and takes each next fix from [`choose`]
//! over its constant list of [`Source`]s.  Every policy but no healing is
//! one of these lists ([`crate::harness::PolicyChoice`] holds them all): the
//! hybrid trusts a confident synopsis, falls back to the diagnosis engines
//! for a novel failure, and *teaches the synopsis* the outcome so that the
//! next occurrence of the same signature takes the signature path; FixSym
//! has no diagnosis, a diagnosis baseline no synopsis, and the proactive
//! policy adds a forecast ([`crate::proactive`]) that may act before the
//! SLO is violated.

use crate::policy::{
    choose, target_for_fix, DiagnosisPanel, EpisodeTracker, Phase, Source, VERIFY_TICKS,
};
use crate::proactive::Forecast;
use crate::symptom::SymptomExtractor;
use crate::synopsis::{Learner, Synopsis, SynopsisKind};
use selfheal_faults::FixAction;
use selfheal_sim::scenario::Healer;
use selfheal_sim::service::TickOutcome;
use selfheal_telemetry::{Schema, SloTargets};

/// An online healer: a name, an attempt threshold, a constant list of fix
/// sources, the synopsis and diagnosis panel those sources read, and — for
/// the proactive policy alone — a forecast that may act on a healthy tick.
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
    forecast: Option<Forecast>,
    schema: Schema,
    extractor: SymptomExtractor,
    tracker: EpisodeTracker,
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
        forecast: Option<Forecast>,
    ) -> Self {
        HybridHealer {
            name,
            sources,
            synopsis,
            panel,
            forecast,
            schema: schema.clone(),
            extractor: SymptomExtractor::new(schema, 30, 5),
            tracker: EpisodeTracker::new(threshold, VERIFY_TICKS),
        }
    }

    /// One step of the online loop: the fix initiated this tick, if any, and
    /// the source it came from.
    fn decide(&mut self, outcome: &TickOutcome) -> Option<(FixAction, Source)> {
        let violated = !outcome.violations.is_empty();
        if let Some(panel) = &mut self.panel {
            panel.push(&outcome.sample, violated);
        }
        let healthy = !violated && self.tracker.phase() == Phase::Healthy;
        self.extractor.observe(&outcome.sample, healthy);

        // check_fix, update_synopsis, and whether line 9 runs this tick.
        let synopsis = &mut self.synopsis;
        let choosing = self
            .tracker
            .advance(outcome, violated, |symptoms, fix, success| {
                if let Some(synopsis) = synopsis {
                    synopsis.record(symptoms, fix, success);
                }
            });
        if !choosing {
            return None;
        }
        let symptoms = self.extractor.symptoms()?;
        let offer = choose(
            self.tracker.sources(self.sources),
            self.synopsis.as_ref(),
            self.panel.as_ref(),
            &symptoms,
            &self.tracker.tried_kinds(),
            |kind| target_for_fix(kind, &self.schema, &outcome.sample),
        );
        self.tracker.start(offer, symptoms)
    }
}

impl<L: Learner> Healer for HybridHealer<L> {
    fn name(&self) -> &str {
        self.name
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        let mut action = self.decide(outcome).map(|(action, _)| action);
        if let (Some(forecast), Some(panel)) = (&mut self.forecast, &self.panel) {
            forecast.observe(outcome.sample.get(panel.ctx.response_ms));
            if action.is_none() && self.tracker.phase() == Phase::Healthy {
                action = forecast.preventive_fix(outcome.tick, panel);
            }
        }
        action.map_or_else(Vec::new, |action| vec![action])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{FaultChoice, LearnerChoice, PolicyChoice, ReplicaSeeds, WorkloadChoice};
    use selfheal_faults::{FaultId, FaultKind, FaultSpec, FaultTarget, ServiceProfile};
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

    /// FixSym's dead state, named: replica 0 of a FixSym fleet at base seed
    /// 6 on the tiny service under the light online mix has tried the nine
    /// non-escalation candidates and the restart by tick 2 305, and no
    /// source offers another fix.  The healer pages, and starts no fix for
    /// as long as the service stays violated.
    #[test]
    fn fixsym_pages_when_nothing_is_left_to_try_and_waits_while_violated() {
        let config = ServiceConfig::tiny();
        let seeds = ReplicaSeeds::split(6, 0);
        let mut service = MultiTierService::new(ServiceConfig {
            seed: seeds.service,
            ..config.clone()
        });
        let bidding = WorkloadChoice::synthetic(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        );
        let mut workload = bidding.source_for_replica(seeds.workload, 0);
        let mix = FaultChoice::mix_for(ServiceProfile::Online, 0.002, &config);
        let mut faults = mix.source_for_replica(seeds.faults, 0);
        let kind = SynopsisKind::NearestNeighbor;
        let store = LearnerChoice::Private.build_store(kind);
        let mut healer = (PolicyChoice::FixSym(kind))
            .healer(service.schema(), config.slo_targets(), Some(store))
            .expect("FixSym is a HybridHealer");
        let mut paged_at = None;
        while service.current_tick() < 3_000 {
            let tick = service.current_tick();
            for fault in faults.due_at(tick) {
                service.inject(fault);
            }
            let outcome = service.tick(&workload.next_tick(tick));
            let fixes = healer.observe(&outcome);
            for &fix in &fixes {
                service.apply_fix(fix);
            }
            let paged = healer.tracker.phase() == Phase::Paged;
            if paged_at.is_none() && paged {
                paged_at = Some(outcome.tick);
            }
            if paged_at.is_some() {
                if outcome.violations.is_empty() {
                    break;
                }
                assert!(paged && fixes.is_empty(), "tick {tick}");
            }
        }
        assert_eq!(paged_at, Some(2_305));
        assert!(service.slo_violated(), "still violated at the end");
    }
}
