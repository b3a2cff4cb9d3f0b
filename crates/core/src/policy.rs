//! Healing policies: episode tracking, fix targeting, and healers that wrap
//! the manual rule base and the three diagnosis-based engines so every
//! approach in Table 2 of the paper can drive the simulated service through
//! the same [`Healer`] interface.

use selfheal_diagnosis::{
    AnomalyDetector, BottleneckAnalyzer, CorrelationAnalyzer, DiagnosisContext, ManualRuleBase,
};
use selfheal_faults::{FaultTarget, FixAction, FixKind};
use selfheal_sim::scenario::Healer;
use selfheal_sim::service::TickOutcome;
use selfheal_telemetry::{Sample, Schema, SeriesStore, SloTargets};
use std::collections::HashSet;

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
    episodes_completed: u64,
    escalations: u64,
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
            episodes_completed: 0,
            escalations: 0,
        }
    }

    /// Returns `true` while a failure episode is being handled.
    pub(crate) fn in_episode(&self) -> bool {
        self.in_episode
    }

    /// The kinds of fixes already tried in the current episode.
    pub(crate) fn tried_kinds(&self) -> HashSet<FixKind> {
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
        if action.kind.is_escalation() {
            self.escalations += 1;
        }
        self.attempts.push(action);
        self.pending = Some(action);
        self.verify_remaining = None;
        self.in_episode = true;
    }

    /// [`record_attempt`](Self::record_attempt), returning the fix as this
    /// tick's actions — how a healer's `observe` initiates its choice.
    pub(crate) fn attempt(&mut self, action: FixAction) -> Vec<FixAction> {
        self.record_attempt(action);
        vec![action]
    }

    /// Initiates the escalation of Figure 3, line 19 — restart the service
    /// (and notify the administrator) — and returns it as this tick's
    /// actions.  Every healer escalates through here.
    pub(crate) fn escalate(&mut self) -> Vec<FixAction> {
        self.attempt(FixAction::untargeted(FixKind::FullServiceRestart))
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
        if self.in_episode {
            self.episodes_completed += 1;
        }
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

/// The diagnosis engines a signature-less healer consults (Section 5.1):
/// the anomaly detector, the bottleneck analyzer and the manual rule base,
/// evaluated over one shared metric history.
///
/// The history holds the most any engine reads — the largest of their
/// `history()`, 35 samples for the standard windows — and no more: every
/// engine reads only the latest rows, so a longer store would answer the
/// same (`crates/diagnosis/tests/history.rs` holds each engine to a
/// 4 096-row store).  The engines are private to the panel, so their
/// windows cannot change after the store is sized.
#[derive(Debug)]
pub(crate) struct DiagnosisPanel {
    series: SeriesStore,
    pub(crate) ctx: DiagnosisContext,
    anomaly: AnomalyDetector,
    bottleneck: BottleneckAnalyzer,
    manual: ManualRuleBase,
}

impl DiagnosisPanel {
    pub(crate) fn new(schema: &Schema, targets: SloTargets) -> Self {
        let (anomaly, bottleneck, manual) = (
            AnomalyDetector::standard(),
            BottleneckAnalyzer::standard(),
            ManualRuleBase::standard(),
        );
        let history = anomaly
            .history()
            .max(bottleneck.history())
            .max(manual.history());
        DiagnosisPanel {
            series: SeriesStore::new(schema.clone(), history),
            ctx: DiagnosisContext::from_schema(schema, targets),
            anomaly,
            bottleneck,
            manual,
        }
    }

    /// Appends this tick's sample to the history the engines diagnose.
    pub(crate) fn push(&mut self, sample: &Sample) {
        self.series.push_copy(sample);
    }

    /// Ranks every engine's recommendations by confidence and returns the
    /// best one whose fix kind is not in `tried`.
    pub(crate) fn best_untried(&self, tried: &HashSet<FixKind>) -> Option<FixAction> {
        let mut candidates = self.anomaly.diagnose(&self.series, &self.ctx);
        candidates.extend(self.bottleneck.diagnose(&self.series, &self.ctx));
        let mut manual = self.manual.diagnose(&self.series, &self.ctx);
        // The manual catch-all restart is a last resort, not a fallback peer.
        manual.retain(|d| d.fix.kind != FixKind::FullServiceRestart);
        candidates.extend(manual);
        candidates.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .expect("finite confidence")
        });
        candidates
            .into_iter()
            .find(|d| !tried.contains(&d.fix.kind))
            .map(|d| d.fix)
    }
}

/// The diagnosis engine wrapped by a [`DiagnosisHealer`].
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
    fn label(&self) -> &'static str {
        match self {
            DiagnosisEngine::Manual(_) => "manual_rules",
            DiagnosisEngine::Anomaly(_) => "anomaly_detection",
            DiagnosisEngine::Correlation(_) => "correlation_analysis",
            DiagnosisEngine::Bottleneck(_) => "bottleneck_analysis",
        }
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
}

/// A healer that drives the service with one diagnosis-based engine (or the
/// manual rule base).
///
/// Its metric history holds the engine's `history()` samples and no more
/// (the correlation analyzer's own observation window is separate).  The
/// engine is private to the healer once built, so its windows cannot change
/// after the store is sized.
#[derive(Debug)]
pub(crate) struct DiagnosisHealer {
    engine: DiagnosisEngine,
    series: SeriesStore,
    ctx: DiagnosisContext,
    tracker: EpisodeTracker,
    name: &'static str,
    /// Ticks spent in violation with nothing (new) to suggest; once it
    /// exceeds `max_wait_ticks` the healer escalates rather than waiting
    /// forever for more data.
    idle_violation_ticks: u32,
    max_wait_ticks: u32,
}

impl DiagnosisHealer {
    /// Creates a healer around the given engine for a service with `schema`
    /// and the given SLO targets (used as the failure indicator by the
    /// correlation analyzer).
    pub(crate) fn new(engine: DiagnosisEngine, schema: &Schema, targets: SloTargets) -> Self {
        let ctx = DiagnosisContext::from_schema(schema, targets);
        let name = engine.label();
        DiagnosisHealer {
            series: SeriesStore::new(schema.clone(), engine.history().max(1)),
            engine,
            ctx,
            tracker: EpisodeTracker::new(3, 25),
            name,
            idle_violation_ticks: 0,
            max_wait_ticks: 90,
        }
    }

    /// Convenience constructors for the four engines.
    pub(crate) fn manual(schema: &Schema, targets: SloTargets) -> Self {
        Self::new(
            DiagnosisEngine::Manual(ManualRuleBase::standard()),
            schema,
            targets,
        )
    }

    /// Anomaly-detection healer with the standard window sizes.
    pub(crate) fn anomaly(schema: &Schema, targets: SloTargets) -> Self {
        Self::new(
            DiagnosisEngine::Anomaly(AnomalyDetector::standard()),
            schema,
            targets,
        )
    }

    /// Correlation-analysis healer with the standard window.
    pub(crate) fn correlation(schema: &Schema, targets: SloTargets) -> Self {
        let ctx = DiagnosisContext::from_schema(schema, targets);
        Self::new(
            DiagnosisEngine::Correlation(CorrelationAnalyzer::standard(&ctx)),
            schema,
            targets,
        )
    }

    /// Bottleneck-analysis healer with the standard thresholds.
    pub(crate) fn bottleneck(schema: &Schema, targets: SloTargets) -> Self {
        Self::new(
            DiagnosisEngine::Bottleneck(BottleneckAnalyzer::standard()),
            schema,
            targets,
        )
    }
}

impl Healer for DiagnosisHealer {
    fn name(&self) -> &str {
        self.name
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        let violated = !outcome.violations.is_empty();
        self.series.push_copy(&outcome.sample);
        if let DiagnosisEngine::Correlation(analyzer) = &mut self.engine {
            analyzer.observe(&outcome.sample, violated);
        }

        let _ = self.tracker.resolve(outcome, violated);
        if !self.tracker.should_act(violated) {
            return Vec::new();
        }
        if self.tracker.exhausted() {
            return self.tracker.escalate();
        }

        let diagnoses = match &self.engine {
            DiagnosisEngine::Manual(e) => e.diagnose(&self.series, &self.ctx),
            DiagnosisEngine::Anomaly(e) => e.diagnose(&self.series, &self.ctx),
            DiagnosisEngine::Correlation(e) => e.diagnose(&self.series, &self.ctx),
            DiagnosisEngine::Bottleneck(e) => e.diagnose(&self.series, &self.ctx),
        };
        let tried = self.tracker.tried_kinds();
        // Provisioning is additive (each application adds capacity), so it
        // may be repeated; every other fix kind is only tried once per
        // episode.
        let next = diagnoses
            .into_iter()
            .find(|d| !tried.contains(&d.fix.kind) || d.fix.kind == FixKind::ProvisionResources);
        match next {
            Some(diagnosis) => {
                self.idle_violation_ticks = 0;
                self.tracker.attempt(diagnosis.fix)
            }
            None => {
                // The engine has nothing (new) to suggest.  Wait a bounded
                // amount of time for more data (the detectors need history),
                // then fall back to the expensive universal fix.
                self.idle_violation_ticks += 1;
                if self.idle_violation_ticks > self.max_wait_ticks {
                    self.idle_violation_ticks = 0;
                    self.tracker.escalate()
                } else {
                    Vec::new()
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::{FaultId, FaultKind, FaultSpec};
    use selfheal_sim::{MultiTierService, ServiceConfig};
    use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};

    impl EpisodeTracker {
        /// Number of escalations recorded.
        pub(crate) fn escalations(&self) -> u64 {
            self.escalations
        }
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
        assert_eq!(tracker.escalations(), 0);
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
        let healer = DiagnosisHealer::manual(&schema, config.slo_targets());
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
        let healer = DiagnosisHealer::bottleneck(&schema, config.slo_targets());
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
        let healer = DiagnosisHealer::anomaly(&schema, config.slo_targets());
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
