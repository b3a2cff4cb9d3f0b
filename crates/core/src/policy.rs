//! Healing policies: episode tracking, fix targeting, and line 9 of
//! Figure 3 — [`choose`], which asks a healer's constant list of fix
//! [`Source`]s (the synopsis, a [`DiagnosisPanel`] over the manual rule base
//! or the diagnosis engines, the cheapest untried candidate, escalation) for
//! the next fix, so every approach in Table 2 of the paper drives the
//! simulated service through the same [`crate::HybridHealer`].

use crate::synopsis::{FixExclusions, Learner};
use selfheal_diagnosis::{
    AnomalyDetector, BottleneckAnalyzer, CorrelationAnalyzer, Diagnosis, DiagnosisContext,
    ManualRuleBase,
};
use selfheal_faults::{FaultTarget, FixAction, FixKind};
use selfheal_sim::service::TickOutcome;
use selfheal_telemetry::{Sample, Schema, SeriesStore, SloTargets};

/// Ticks every online healer waits after a fix completes before judging
/// whether it worked ("care should be taken to let the service recover
/// fully").
pub(crate) const VERIFY_TICKS: u32 = 25;

/// Tracks the state of the current failure episode for an online healer:
/// which fixes have been tried, whether a fix is in flight, and whether the
/// post-fix verification window has elapsed.
#[derive(Debug, Clone)]
pub(crate) struct EpisodeTracker {
    threshold: u32,
    verify_ticks: u32,
    attempts: Vec<FixAction>,
    pending: Option<FixAction>,
    verify_remaining: Option<u32>,
    in_episode: bool,
}

impl EpisodeTracker {
    /// Creates a tracker with the given attempt threshold and verification
    /// delay (ticks to wait after a fix completes before judging it).
    pub(crate) fn new(threshold: u32, verify_ticks: u32) -> Self {
        EpisodeTracker {
            threshold: threshold.max(1),
            verify_ticks,
            attempts: Vec::new(),
            pending: None,
            verify_remaining: None,
            in_episode: false,
        }
    }

    /// Returns `true` while a failure episode is being handled.
    pub(crate) fn in_episode(&self) -> bool {
        self.in_episode
    }

    /// The kinds of fixes already tried in the current episode.
    pub(crate) fn tried_kinds(&self) -> FixExclusions {
        self.attempts.iter().map(|a| a.kind).collect()
    }

    /// Returns `true` when the attempt threshold has been reached and the
    /// next action should be the escalation.
    pub(crate) fn exhausted(&self) -> bool {
        self.attempts.len() as u32 >= self.threshold
            && !self.attempts.iter().any(|a| a.kind.is_escalation())
    }

    /// Records that a fix was initiated.
    pub(crate) fn record_attempt(&mut self, action: FixAction) {
        self.attempts.push(action);
        self.pending = Some(action);
        self.verify_remaining = None;
        self.in_episode = true;
    }

    /// Advances the tracker with this tick's outcome.  Returns
    /// `Some((action, success))` when a previously initiated fix has
    /// completed and its verification window has elapsed; `success` is
    /// judged from whether the service is still in violation.
    pub(crate) fn resolve(
        &mut self,
        outcome: &TickOutcome,
        violated: bool,
    ) -> Option<(FixAction, bool)> {
        // Has the in-flight fix finished being applied?
        if let Some(pending) = self.pending {
            if outcome
                .completed_fixes
                .iter()
                .any(|f| f.action.kind == pending.kind && f.action.target == pending.target)
            {
                self.verify_remaining = Some(self.verify_ticks);
                self.pending = None;
            }
        }
        // Count down the verification window.
        if let Some(remaining) = self.verify_remaining {
            if remaining == 0 {
                self.verify_remaining = None;
                let action = *self
                    .attempts
                    .last()
                    .expect("verification implies an attempt");
                let success = !violated;
                if success {
                    self.close_episode();
                }
                return Some((action, success));
            }
            self.verify_remaining = Some(remaining - 1);
            return None;
        }
        // No fix in flight: a quiet service closes any lingering episode.
        if self.in_episode && self.pending.is_none() && !violated {
            self.close_episode();
        }
        None
    }

    /// Returns `true` when the healer should pick a (new) fix this tick:
    /// the service is in confirmed violation and no fix is being applied or
    /// verified.
    pub(crate) fn should_act(&mut self, violated: bool) -> bool {
        if violated {
            self.in_episode = true;
        }
        violated && self.pending.is_none() && self.verify_remaining.is_none()
    }

    fn close_episode(&mut self) {
        self.in_episode = false;
        self.attempts.clear();
        self.pending = None;
        self.verify_remaining = None;
    }
}

/// Chooses a concrete target for a targeted fix kind from the current
/// sample, using the simulator's metric naming convention: the EJB with the
/// most errors (falling back to the most calls), the busiest table, or the
/// most utilized tier.
pub(crate) fn target_for_fix(kind: FixKind, schema: &Schema, sample: &Sample) -> FixAction {
    if !kind.needs_target() {
        return FixAction::untargeted(kind);
    }
    let max_indexed = |prefix: &str, suffix: &str| -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for i in 0.. {
            match schema.id(&format!("{prefix}{i}{suffix}")) {
                Some(id) => {
                    let v = sample.get(id);
                    if best.map(|(_, bv)| v > bv).unwrap_or(true) {
                        best = Some((i, v));
                    }
                }
                None => break,
            }
        }
        best.map(|(i, _)| i)
    };

    match kind {
        FixKind::MicrorebootEjb | FixKind::KillHungQuery => {
            let by_errors = max_indexed("app.ejb", "_errors").filter(|i| {
                schema
                    .id(&format!("app.ejb{i}_errors"))
                    .map(|id| sample.get(id) > 0.0)
                    .unwrap_or(false)
            });
            let index = by_errors
                .or_else(|| max_indexed("app.ejb", "_calls"))
                .unwrap_or(0);
            FixAction::targeted(kind, FaultTarget::Ejb { index })
        }
        FixKind::UpdateStatistics | FixKind::RepartitionTable | FixKind::RebuildIndex => {
            let index = max_indexed("db.table", "_accesses").unwrap_or(0);
            FixAction::targeted(kind, FaultTarget::Table { index })
        }
        FixKind::RebootTier | FixKind::ProvisionResources => {
            let tiers = [
                ("web.util", FaultTarget::WebTier),
                ("app.util", FaultTarget::AppTier),
                ("db.util", FaultTarget::DatabaseTier),
            ];
            let target = tiers
                .iter()
                .filter_map(|(name, t)| schema.id(name).map(|id| (sample.get(id), *t)))
                .max_by(|a, b| a.0.partial_cmp(&b.0).expect("finite utilization"))
                .map(|(_, t)| t)
                .unwrap_or(FaultTarget::AppTier);
            FixAction::targeted(kind, target)
        }
        _ => FixAction::untargeted(kind),
    }
}

/// Where line 9 of Figure 3 (`probFix = suggest_fix(S, f, F)`) may take the
/// next fix from.  Every online healer and the offline engine hold a
/// constant list of sources; [`choose`] asks them in order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Source {
    /// The synopsis's best untried suggestion, when its confidence is at
    /// least `min_confidence` (every learner's confidence lies in `[0, 1]`,
    /// so 0 means no floor).
    Synopsis { min_confidence: f64 },
    /// The diagnosis panel's most confident untried recommendation;
    /// provisioning is additive, so `repeat_provisioning` lets
    /// `ProvisionResources` be chosen again within an episode.
    Diagnosis { repeat_provisioning: bool },
    /// The cheapest untried candidate of F, escalations excluded ("domain
    /// knowledge may be used").
    CheapestUntried,
    /// Lines 18–20: restart the service and notify the administrator.  The
    /// one place a restart is built: it is always offered, and the healer
    /// applies it on the first tick it comes up after `idle_ticks` such
    /// ticks since the healer's last fix (waiting for the detectors'
    /// history).  Online the restart is the whole escalation, judged and
    /// learned like any fix; offline the administrator's fix is learned
    /// instead ([`crate::fixsym::FixSymEngine::run_episode`]).
    Escalate { idle_ticks: u32 },
}

/// The sources past the THRESHOLD of Figure 3: lines 18–20 at once.
pub(crate) const ESCALATE: &[Source] = &[Source::Escalate { idle_ticks: 0 }];

/// Line 9: the first of `sources` that offers a fix whose kind is not in
/// `tried`, with the source and its confidence (0 for the last two
/// sources).  `target` aims a kind the synopsis or the candidate set
/// names; a diagnosis carries its own target.
pub(crate) fn choose(
    sources: &[Source],
    synopsis: Option<&impl Learner>,
    panel: Option<&DiagnosisPanel>,
    symptoms: &[f64],
    tried: &FixExclusions,
    target: impl Fn(FixKind) -> FixAction,
) -> Option<(FixAction, Source, f64)> {
    sources.iter().find_map(|&source| {
        let (action, score) = match source {
            Source::Synopsis { min_confidence } => synopsis?
                .suggest_excluding(symptoms, tried)
                .filter(|(_, confidence)| *confidence >= min_confidence)
                .map(|(kind, confidence)| (target(kind), confidence))?,
            Source::Diagnosis {
                repeat_provisioning,
            } => panel?.best_untried(tried, repeat_provisioning)?,
            Source::CheapestUntried => (target(cheapest_untried(tried)?), 0.0),
            Source::Escalate { .. } => (FixAction::untargeted(FixKind::FullServiceRestart), 0.0),
        };
        Some((action, source, score))
    })
}

/// The cheapest fix of the candidate set F of Figure 3 not yet tried in this
/// episode (escalations excluded).
fn cheapest_untried(tried: &FixExclusions) -> Option<FixKind> {
    FixKind::CANDIDATES
        .iter()
        .filter(|f| !tried.contains(f) && !f.is_escalation())
        .min_by(|a, b| {
            a.default_cost()
                .penalty()
                .partial_cmp(&b.default_cost().penalty())
                .expect("finite penalties")
        })
        .copied()
}

/// One diagnosis engine of a [`DiagnosisPanel`].
#[derive(Debug)]
pub(crate) enum DiagnosisEngine {
    /// Manual rule-based baseline (Section 3).
    Manual(ManualRuleBase),
    /// Anomaly detection (Section 4.3.1).
    Anomaly(AnomalyDetector),
    /// Correlation analysis (Section 4.3.2).
    Correlation(CorrelationAnalyzer),
    /// Bottleneck analysis (Section 4.3.3).
    Bottleneck(BottleneckAnalyzer),
}

impl DiagnosisEngine {
    /// The engines the hybrid and proactive healers consult (Section 5.1):
    /// the anomaly detector, the bottleneck analyzer, and the manual rules
    /// without their catch-all restart, which is a last resort and not a
    /// peer (no specific rule yields a restart).
    pub(crate) fn hybrid() -> Vec<DiagnosisEngine> {
        let mut manual = ManualRuleBase::standard();
        manual.catch_all_restart = false;
        vec![
            DiagnosisEngine::Anomaly(AnomalyDetector::standard()),
            DiagnosisEngine::Bottleneck(BottleneckAnalyzer::standard()),
            DiagnosisEngine::Manual(manual),
        ]
    }

    /// How many of the latest samples the engine's `diagnose` reads.
    fn history(&self) -> usize {
        match self {
            DiagnosisEngine::Manual(e) => e.history(),
            DiagnosisEngine::Anomaly(e) => e.history(),
            DiagnosisEngine::Correlation(e) => e.history(),
            DiagnosisEngine::Bottleneck(e) => e.history(),
        }
    }

    fn diagnose(&self, series: &SeriesStore, ctx: &DiagnosisContext) -> Vec<Diagnosis> {
        match self {
            DiagnosisEngine::Manual(e) => e.diagnose(series, ctx),
            DiagnosisEngine::Anomaly(e) => e.diagnose(series, ctx),
            DiagnosisEngine::Correlation(e) => e.diagnose(series, ctx),
            DiagnosisEngine::Bottleneck(e) => e.diagnose(series, ctx),
        }
    }
}

/// One or more diagnosis engines evaluated over one shared metric history.
///
/// The history holds the most any engine reads — the largest of their
/// `history()`, 35 samples for the hybrid's standard windows — and no more:
/// every engine reads only the latest rows, so a longer store would answer
/// the same (`crates/diagnosis/tests/history.rs` holds each engine to a
/// 4 096-row store).  The engines are private to the panel, so their
/// windows cannot change after the store is sized.  (The correlation
/// analyzer's own observation window is separate.)
#[derive(Debug)]
pub(crate) struct DiagnosisPanel {
    series: SeriesStore,
    pub(crate) ctx: DiagnosisContext,
    engines: Vec<DiagnosisEngine>,
}

impl DiagnosisPanel {
    pub(crate) fn new(schema: &Schema, targets: SloTargets, engines: Vec<DiagnosisEngine>) -> Self {
        let history = engines
            .iter()
            .map(DiagnosisEngine::history)
            .fold(1, usize::max);
        DiagnosisPanel {
            series: SeriesStore::new(schema.clone(), history),
            ctx: DiagnosisContext::from_schema(schema, targets),
            engines,
        }
    }

    /// Appends this tick's sample to the history the engines diagnose.
    pub(crate) fn push(&mut self, sample: &Sample, violated: bool) {
        self.series.push_copy(sample);
        for engine in &mut self.engines {
            if let DiagnosisEngine::Correlation(analyzer) = engine {
                analyzer.observe(sample, violated);
            }
        }
    }

    /// Ranks every engine's recommendations by confidence (a stable sort, so
    /// one engine keeps its own ranking) and returns the best one whose fix
    /// kind is not in `tried`, with its confidence.
    pub(crate) fn best_untried(
        &self,
        tried: &FixExclusions,
        repeat_provisioning: bool,
    ) -> Option<(FixAction, f64)> {
        let mut candidates: Vec<Diagnosis> = self
            .engines
            .iter()
            .flat_map(|engine| engine.diagnose(&self.series, &self.ctx))
            .collect();
        candidates.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .expect("finite confidence")
        });
        candidates
            .into_iter()
            .find(|d| {
                !tried.contains(&d.fix.kind)
                    || (repeat_provisioning && d.fix.kind == FixKind::ProvisionResources)
            })
            .map(|d| (d.fix, d.confidence))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::PolicyChoice;
    use crate::synopsis::Synopsis;
    use selfheal_faults::{FaultId, FaultKind, FaultSpec};
    use selfheal_sim::scenario::Healer;
    use selfheal_sim::{MultiTierService, ServiceConfig};
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};

    /// The one-engine healer `policy` names, which learns nothing.
    fn baseline(
        policy: PolicyChoice,
        schema: &Schema,
        targets: SloTargets,
    ) -> crate::HybridHealer<Synopsis> {
        policy
            .healer(schema, targets, None)
            .expect("a diagnosis policy")
    }

    fn run_with_healer<H: Healer>(
        mut healer: H,
        fault: FaultKind,
        target: FaultTarget,
        ticks: u64,
    ) -> (MultiTierService, H, u64) {
        let config = ServiceConfig::tiny();
        let mut service = MultiTierService::new(config);
        let mut workload = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
            5,
        );
        let mut fixes = 0u64;
        for t in 0..ticks {
            if t == 40 {
                service.inject(FaultSpec::new(FaultId(1), fault, target, 0.9));
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
    fn episode_tracker_lifecycle() {
        let mut tracker = EpisodeTracker::new(2, 0);
        assert!(!tracker.in_episode());
        assert!(!tracker.should_act(false));
        assert!(tracker.should_act(true));
        tracker.record_attempt(FixAction::untargeted(FixKind::RepartitionMemory));
        assert!(tracker.in_episode());
        assert!(!tracker.should_act(true), "a fix is in flight");
        assert_eq!(tracker.tried_kinds().len(), 1);
        assert!(!tracker.exhausted());
        tracker.record_attempt(FixAction::untargeted(FixKind::RebootTier));
        assert!(tracker.exhausted());
    }

    /// A synopsis that always suggests one fix, unless it was tried.
    struct Fixed(FixKind, f64);

    impl Learner for Fixed {
        fn suggest(&self, _: &[f64]) -> Option<(FixKind, f64)> {
            Some((self.0, self.1))
        }

        fn suggest_excluding(&self, _: &[f64], excluded: &FixExclusions) -> Option<(FixKind, f64)> {
            (!excluded.contains(&self.0)).then_some((self.0, self.1))
        }

        fn record(&mut self, _: &[f64], _: FixKind, _: bool) {}

        fn correct_fixes_learned(&self) -> usize {
            0
        }
    }

    /// One rule of [`choose`]: what it says, the sources, the panel, the
    /// kinds already tried, and the fix and source expected.
    type Row<'a> = (
        &'a str,
        &'a [Source],
        &'a DiagnosisPanel,
        &'a [FixKind],
        Option<(FixKind, Source)>,
    );

    #[test]
    fn choose_takes_the_first_source_that_offers_an_untried_fix() {
        use FixKind::*;
        use Source::{CheapestUntried, Diagnosis, Escalate};
        let config = ServiceConfig::tiny();
        let schema = MultiTierService::new(config.clone()).schema().clone();
        // A manual-rules panel that has seen one sample with `metric` high.
        let panel = |metric: &str, value: f64| {
            let manual = DiagnosisEngine::Manual(ManualRuleBase::standard());
            let mut panel = DiagnosisPanel::new(&schema, config.slo_targets(), vec![manual]);
            let mut sample = Sample::zeroed(&schema, 0);
            sample.set(schema.expect_id(metric), value);
            panel.push(&sample, true);
            panel
        };
        let provisions = panel("db.util", 0.99);
        let repartitions = panel("db.buffer_miss_rate", 0.9);
        let synopsis = Fixed(RebootTier, 0.3);
        let (floor_03, floor_05) = (
            Source::Synopsis {
                min_confidence: 0.3,
            },
            Source::Synopsis {
                min_confidence: 0.5,
            },
        );
        let (repeat, once) = (
            Diagnosis {
                repeat_provisioning: true,
            },
            Diagnosis {
                repeat_provisioning: false,
            },
        );
        let escalate = Escalate { idle_ticks: 90 };
        let non_escalations: Vec<FixKind> = FixKind::CANDIDATES
            .into_iter()
            .filter(|kind| !kind.is_escalation())
            .collect();
        #[rustfmt::skip]
        let rows: [Row; 14] = [
            ("a suggestion at the floor is taken", &[floor_03, CheapestUntried], &provisions, &[], Some((RebootTier, floor_03))),
            ("a suggestion below the floor falls through", &[floor_05, CheapestUntried], &provisions, &[], Some((KillHungQuery, CheapestUntried))),
            ("a tried suggestion falls through", &[floor_03, escalate], &provisions, &[RebootTier], Some((FullServiceRestart, escalate))),
            ("provisioning may repeat", &[repeat], &provisions, &[ProvisionResources], Some((ProvisionResources, repeat))),
            ("provisioning may not repeat", &[once], &provisions, &[ProvisionResources], None),
            ("an untried diagnosis is taken", &[once], &repartitions, &[ProvisionResources], Some((RepartitionMemory, once))),
            ("repeating covers only provisioning", &[repeat], &repartitions, &[RepartitionMemory], None),
            ("the cheapest candidate first", &[CheapestUntried], &provisions, &[], Some((KillHungQuery, CheapestUntried))),
            ("the cheapest untried candidate", &[CheapestUntried], &provisions, &[KillHungQuery], Some((MicrorebootEjb, CheapestUntried))),
            ("escalations are never the cheapest", &[CheapestUntried], &provisions, &non_escalations, None),
            ("escalation always offers the restart", &[escalate], &provisions, &[FullServiceRestart], Some((FullServiceRestart, escalate))),
            ("the first source wins", &[CheapestUntried, floor_03], &provisions, &[], Some((KillHungQuery, CheapestUntried))),
            ("an empty source falls through", &[once, floor_03], &provisions, &[ProvisionResources], Some((RebootTier, floor_03))),
            ("no sources, no fix", &[], &provisions, &[], None),
        ];
        for (rule, sources, panel, tried, expected) in rows {
            let tried = tried.iter().copied().collect();
            let chosen = choose(
                sources,
                Some(&synopsis),
                Some(panel),
                &[],
                &tried,
                FixAction::untargeted,
            );
            assert_eq!(
                chosen.map(|(fix, source, _)| (fix.kind, source)),
                expected,
                "{rule}"
            );
        }
        // The score is the source's confidence, 0 for the two fallbacks; a
        // healer without a synopsis or a panel skips those sources.
        let none = FixExclusions::new();
        let score = |sources: &[Source], synopsis: Option<&Fixed>, panel| {
            choose(sources, synopsis, panel, &[], &none, FixAction::untargeted)
                .map(|(fix, _, score)| (fix.kind, score))
        };
        assert_eq!(
            score(&[floor_03], Some(&synopsis), None),
            Some((RebootTier, 0.3))
        );
        assert_eq!(
            score(&[once], None, Some(&repartitions)),
            Some((RepartitionMemory, 0.7))
        );
        assert_eq!(
            score(&[CheapestUntried], None, None),
            Some((KillHungQuery, 0.0))
        );
        assert_eq!(
            score(&[floor_03, once, escalate], None, None),
            Some((FullServiceRestart, 0.0))
        );
    }

    #[test]
    fn target_selection_picks_the_implicated_components() {
        let config = ServiceConfig::tiny();
        let service = MultiTierService::new(config);
        let schema = service.schema().clone();
        let mut sample = Sample::zeroed(&schema, 0);
        sample.set(schema.expect_id("app.ejb2_errors"), 5.0);
        sample.set(schema.expect_id("db.table1_accesses"), 99.0);
        sample.set(schema.expect_id("db.util"), 0.99);
        sample.set(schema.expect_id("app.util"), 0.30);

        let micro = target_for_fix(FixKind::MicrorebootEjb, &schema, &sample);
        assert_eq!(micro.target, Some(FaultTarget::Ejb { index: 2 }));
        let stats = target_for_fix(FixKind::UpdateStatistics, &schema, &sample);
        assert_eq!(stats.target, Some(FaultTarget::Table { index: 1 }));
        let provision = target_for_fix(FixKind::ProvisionResources, &schema, &sample);
        assert_eq!(provision.target, Some(FaultTarget::DatabaseTier));
        let restart = target_for_fix(FixKind::FullServiceRestart, &schema, &sample);
        assert_eq!(restart.target, None);
    }

    #[test]
    fn manual_rule_healer_repairs_a_buffer_contention_fault() {
        let config = ServiceConfig::tiny();
        let schema = MultiTierService::new(config.clone()).schema().clone();
        let healer = baseline(PolicyChoice::ManualRules, &schema, config.slo_targets());
        let (service, healer, fixes) = run_with_healer(
            healer,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            220,
        );
        assert!(fixes >= 1);
        assert!(
            service.active_faults().is_empty(),
            "the fault should be repaired"
        );
        assert!(!service.slo_violated());
        assert_eq!(healer.name(), "manual_rules");
    }

    #[test]
    fn bottleneck_healer_provisions_a_bottlenecked_tier() {
        let config = ServiceConfig::tiny();
        let schema = MultiTierService::new(config.clone()).schema().clone();
        let healer = baseline(
            PolicyChoice::BottleneckAnalysis,
            &schema,
            config.slo_targets(),
        );
        let (service, _healer, fixes) = run_with_healer(
            healer,
            FaultKind::BottleneckedTier,
            FaultTarget::DatabaseTier,
            400,
        );
        assert!(fixes >= 1);
        assert!(
            service.active_faults().is_empty(),
            "provisioning should eventually repair the bottleneck"
        );
    }

    #[test]
    fn anomaly_healer_microreboots_a_failing_ejb() {
        let config = ServiceConfig::tiny();
        let schema = MultiTierService::new(config.clone()).schema().clone();
        let healer = baseline(
            PolicyChoice::AnomalyDetection,
            &schema,
            config.slo_targets(),
        );
        let (service, _healer, fixes) = run_with_healer(
            healer,
            FaultKind::UnhandledException,
            FaultTarget::Ejb { index: 1 },
            300,
        );
        assert!(fixes >= 1);
        assert!(service.active_faults().is_empty());
        assert!(!service.slo_violated());
    }
}
