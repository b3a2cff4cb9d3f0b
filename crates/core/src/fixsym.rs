//! FixSym: the signature-based self-healing engine (Figure 3 of the paper).

use crate::policy::{target_for_fix, EpisodeTracker};
use crate::symptom::SymptomExtractor;
use crate::synopsis::{Learner, Synopsis, SynopsisKind};
use selfheal_faults::{FixAction, FixKind};
use selfheal_sim::scenario::Healer;
use selfheal_sim::service::TickOutcome;
use selfheal_telemetry::Schema;
use std::collections::HashSet;

/// Configuration of the FixSym loop.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixSymConfig {
    /// Maximum fix attempts per failure before escalating (the THRESHOLD of
    /// Figure 3).
    pub threshold: u32,
    /// Minimum synopsis confidence required to act on a suggestion; below
    /// it FixSym still acts (it has nothing better) but hybrid policies use
    /// the value to decide when to defer to a diagnosis engine.
    pub min_confidence: f64,
    /// Ticks to wait after a fix completes before judging whether it worked
    /// ("care should be taken to let the service recover fully").
    pub verify_ticks: u32,
}

impl Default for FixSymConfig {
    fn default() -> Self {
        FixSymConfig {
            threshold: 4,
            min_confidence: 0.05,
            verify_ticks: 25,
        }
    }
}

/// Result of healing one failure episode with [`FixSymEngine::run_episode`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeResult {
    /// Fixes attempted, in order.
    pub attempts: Vec<FixKind>,
    /// The fix that finally worked (`None` when the loop escalated).
    pub successful_fix: Option<FixKind>,
    /// Whether the loop escalated to the expensive universal fix.
    pub escalated: bool,
}

impl EpisodeResult {
    /// Number of attempts made (including the successful one).
    pub fn attempt_count(&self) -> usize {
        self.attempts.len()
    }
}

/// The offline/episodic FixSym engine used by the Figure 4 / Table 3
/// experiments: each failure data point is healed against an oracle that
/// reports whether an attempted fix repaired the failure (in the
/// experiments, the simulator's ground-truth catalog plays that role, just
/// as the authors' simulator did).
#[derive(Debug)]
pub struct FixSymEngine {
    synopsis: Synopsis,
    config: FixSymConfig,
    episodes: u64,
    escalations: u64,
}

impl FixSymEngine {
    /// Creates an engine with the given synopsis kind and default config.
    pub fn new(kind: SynopsisKind) -> Self {
        Self::with_config(kind, FixSymConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    pub(crate) fn with_config(kind: SynopsisKind, config: FixSymConfig) -> Self {
        FixSymEngine {
            synopsis: Synopsis::new(kind),
            config,
            episodes: 0,
            escalations: 0,
        }
    }

    /// The synopsis (e.g. to measure accuracy or training cost).
    pub fn synopsis(&self) -> &Synopsis {
        &self.synopsis
    }

    /// Number of episodes that ended in escalation.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Heals one failure data point (Figure 3, lines 4–21).
    ///
    /// `check_fix` is the oracle of line 13: it applies the candidate fix to
    /// the (simulated) service and reports whether the service recovered.
    /// The synopsis is updated after every attempt with the observed
    /// outcome, exactly as in the pseudocode.
    pub fn run_episode<F>(&mut self, symptoms: &[f64], mut check_fix: F) -> EpisodeResult
    where
        F: FnMut(FixKind) -> bool,
    {
        self.episodes += 1;
        let mut attempts = Vec::new();
        let mut tried: HashSet<FixKind> = HashSet::new();
        let mut count = 0u32;

        while count < self.config.threshold {
            // Line 9: query the current synopsis for the probable fix.  With
            // an empty synopsis (first-ever failure) fall back to the
            // cheapest untried candidate, mirroring "domain knowledge may be
            // used" to initialize the synopsis.
            let suggestion = self
                .synopsis
                .suggest_excluding(symptoms, &tried)
                .map(|(fix, _)| fix)
                .or_else(|| cheapest_untried(&tried));
            let Some(fix) = suggestion else { break };

            // Lines 11–13: apply the fix and check whether it worked.
            attempts.push(fix);
            tried.insert(fix);
            let fixed = check_fix(fix);

            // Line 15: update the synopsis with the new data point.
            self.synopsis.update(symptoms, fix, fixed);

            if fixed {
                return EpisodeResult {
                    attempts,
                    successful_fix: Some(fix),
                    escalated: false,
                };
            }
            count += 1;
        }

        // Lines 18–20: threshold exceeded — restart the service and notify
        // the administrator; the fix found by the administrator (here: the
        // universal restart) is learned too.
        self.escalations += 1;
        let escalation = FixKind::FullServiceRestart;
        attempts.push(escalation);
        let fixed = check_fix(escalation);
        self.synopsis.update(symptoms, escalation, fixed);
        EpisodeResult {
            attempts,
            successful_fix: if fixed { Some(escalation) } else { None },
            escalated: true,
        }
    }
}

/// The cheapest fix of the candidate set F of Figure 3 not yet tried in this
/// episode (escalations excluded) — what FixSym applies when the synopsis
/// has no suggestion.
fn cheapest_untried(tried: &HashSet<FixKind>) -> Option<FixKind> {
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

/// What the shared part of one online Figure 3 step decided.
pub(crate) enum Step {
    /// Nothing to choose this tick: the service is healthy, a fix is in
    /// flight or settling, or the threshold escalation was just initiated.
    Done(Vec<FixAction>),
    /// Line 9 is due: choose a fix for these symptoms outside the kinds
    /// already tried in this episode, then [`EpisodeTracker::attempt`] it.
    Choose(Vec<f64>, HashSet<FixKind>),
}

/// The online Figure 3 loop minus line 9: symptom extraction from the live
/// metric stream, `check_fix` from SLO recovery, `update_synopsis`, and the
/// THRESHOLD escalation.  [`FixSymHealer`] and [`crate::HybridHealer`] wrap
/// it and differ only in *which fix next*.
#[derive(Debug)]
pub(crate) struct SignatureLoop<L> {
    pub(crate) synopsis: L,
    extractor: SymptomExtractor,
    pub(crate) tracker: EpisodeTracker,
    current_symptoms: Option<Vec<f64>>,
}

impl<L: Learner> SignatureLoop<L> {
    pub(crate) fn new(schema: &Schema, learner: L, threshold: u32, verify_ticks: u32) -> Self {
        SignatureLoop {
            synopsis: learner,
            extractor: SymptomExtractor::new(schema, 30, 5),
            tracker: EpisodeTracker::new(threshold, verify_ticks),
            current_symptoms: None,
        }
    }

    pub(crate) fn step(&mut self, outcome: &TickOutcome) -> Step {
        let violated = !outcome.violations.is_empty();
        self.extractor
            .observe(&outcome.sample, !violated && !self.tracker.in_episode());

        // Resolve the outcome of a previously applied fix (check_fix) and
        // teach it to the synopsis (update_synopsis).
        if let Some((fix, success)) = self.tracker.resolve(outcome, violated) {
            if let Some(symptoms) = &self.current_symptoms {
                self.synopsis.record(symptoms, fix.kind, success);
            }
            if success {
                self.current_symptoms = None;
            }
        }

        // Nothing to do while healthy or while a fix is in flight / settling.
        if !self.tracker.should_act(violated) {
            return Step::Done(Vec::new());
        }

        // New failure data point (or next attempt for the current one).
        let Some(symptoms) = self.extractor.symptoms() else {
            return Step::Done(Vec::new());
        };
        if self.current_symptoms.is_none() {
            self.current_symptoms = Some(symptoms.clone());
        }

        if self.tracker.exhausted() {
            return Step::Done(self.tracker.escalate());
        }
        Step::Choose(symptoms, self.tracker.tried_kinds())
    }
}

/// The online FixSym healer: plugs the FixSym loop into the simulator's
/// scenario runner as a [`Healer`], extracting symptoms from the live metric
/// stream, applying fixes through the service's actuator, and judging
/// success from SLO recovery.
///
/// Generic over the [`Learner`] backing it: the default is a privately owned
/// [`Synopsis`]; a fleet passes a [`crate::store::SynopsisStore`] handle so
/// every replica's healer learns from — and teaches — the same model.
#[derive(Debug)]
pub(crate) struct FixSymHealer<L: Learner = Synopsis> {
    figure3: SignatureLoop<L>,
    config: FixSymConfig,
    schema: Schema,
}

impl<L: Learner> FixSymHealer<L> {
    /// Creates a healer around an existing learner (a fleet-shared synopsis
    /// handle, or a pre-bootstrapped private synopsis).
    pub(crate) fn with_learner(schema: &Schema, learner: L, config: FixSymConfig) -> Self {
        FixSymHealer {
            figure3: SignatureLoop::new(schema, learner, config.threshold, config.verify_ticks),
            config,
            schema: schema.clone(),
        }
    }
}

impl<L: Learner> Healer for FixSymHealer<L> {
    fn name(&self) -> &str {
        "fixsym"
    }

    fn observe(&mut self, outcome: &TickOutcome) -> Vec<FixAction> {
        let (symptoms, tried) = match self.figure3.step(outcome) {
            Step::Choose(symptoms, tried) => (symptoms, tried),
            Step::Done(actions) => return actions,
        };
        // Line 9: the synopsis's suggestion, else the cheapest untried
        // candidate ("domain knowledge may be used").
        let suggestion = self
            .figure3
            .synopsis
            .suggest_excluding(&symptoms, &tried)
            .filter(|(_, confidence)| *confidence >= self.config.min_confidence)
            .map(|(fix, _)| fix)
            .or_else(|| cheapest_untried(&tried));
        match suggestion {
            Some(kind) => {
                let action = target_for_fix(kind, &self.schema, &outcome.sample);
                self.figure3.tracker.attempt(action)
            }
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::{FaultKind, FixCatalog};

    impl FixSymEngine {
        /// Number of failure episodes processed.
        pub(crate) fn episodes(&self) -> u64 {
            self.episodes
        }
    }

    fn symptoms_for(kind: usize) -> Vec<f64> {
        match kind {
            0 => vec![9.0, 1.0, 1.0, 1.0],
            1 => vec![1.0, 9.0, 1.0, 1.0],
            _ => vec![1.0, 1.0, 9.0, 1.0],
        }
    }

    #[test]
    fn first_failure_is_healed_by_trial_and_error_then_remembered() {
        let mut engine = FixSymEngine::new(SynopsisKind::NearestNeighbor);
        let correct = FixKind::RepartitionMemory;

        let first = engine.run_episode(&symptoms_for(0), |fix| fix == correct);
        assert_eq!(first.successful_fix, Some(correct));
        assert!(first.attempt_count() >= 1);

        // The same symptoms next time are fixed on the first attempt.
        let second = engine.run_episode(&symptoms_for(0), |fix| fix == correct);
        assert_eq!(second.successful_fix, Some(correct));
        assert_eq!(second.attempt_count(), 1);
        assert_eq!(engine.episodes(), 2);
    }

    #[test]
    fn threshold_exceeded_escalates_to_full_restart() {
        let config = FixSymConfig {
            threshold: 3,
            ..FixSymConfig::default()
        };
        let mut engine = FixSymEngine::with_config(SynopsisKind::NearestNeighbor, config);
        // No narrow fix ever works; only the restart does.
        let result = engine.run_episode(&symptoms_for(1), |fix| fix == FixKind::FullServiceRestart);
        assert!(result.escalated);
        assert_eq!(result.successful_fix, Some(FixKind::FullServiceRestart));
        assert_eq!(
            result.attempts.len(),
            4,
            "three narrow attempts plus the escalation"
        );
        assert_eq!(engine.escalations(), 1);
    }

    #[test]
    fn failed_attempts_are_not_retried_within_an_episode() {
        let mut engine = FixSymEngine::new(SynopsisKind::NearestNeighbor);
        let correct = FixKind::UpdateStatistics;
        let result = engine.run_episode(&symptoms_for(2), |fix| fix == correct);
        let mut seen = HashSet::new();
        for fix in &result.attempts {
            assert!(
                seen.insert(*fix),
                "fix {fix} was retried within the episode"
            );
        }
        assert_eq!(result.successful_fix, Some(correct));
    }

    #[test]
    fn engine_learns_distinct_fixes_for_distinct_failure_signatures() {
        let mut engine = FixSymEngine::new(SynopsisKind::AdaBoost(20));
        let catalog = FixCatalog::standard();
        let mapping = [
            (0usize, catalog.preferred_fix(FaultKind::BufferContention)),
            (1usize, catalog.preferred_fix(FaultKind::DeadlockedThreads)),
            (
                2usize,
                catalog.preferred_fix(FaultKind::SuboptimalQueryPlan),
            ),
        ];
        // Teach the engine by letting it heal each failure type a few times.
        for _ in 0..4 {
            for (class, correct) in mapping {
                engine.run_episode(&symptoms_for(class), |fix| fix == correct);
            }
        }
        // Now every failure type is healed on the first attempt.
        for (class, correct) in mapping {
            let result = engine.run_episode(&symptoms_for(class), |fix| fix == correct);
            assert_eq!(result.attempt_count(), 1, "class {class}");
            assert_eq!(result.successful_fix, Some(correct));
        }
    }

    #[test]
    fn synopsis_statistics_are_exposed() {
        let mut engine = FixSymEngine::new(SynopsisKind::KMeans);
        engine.run_episode(&symptoms_for(0), |fix| fix == FixKind::KillHungQuery);
        assert!(engine.synopsis().correct_fixes_learned() >= 1);
        assert!(engine.synopsis().retrains() >= 1);
    }
}
