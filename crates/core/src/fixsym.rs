//! FixSym: the signature-based self-healing engine (Figure 3 of the paper).

use crate::policy::{choose, Source, ESCALATE};
use crate::synopsis::{Synopsis, SynopsisKind};
use selfheal_faults::{FixAction, FixKind};
use std::collections::HashSet;

/// Maximum fix attempts per failure before escalating (the THRESHOLD of
/// Figure 3).
pub(crate) const THRESHOLD: u32 = 4;

/// Line 9 of the offline engine: the synopsis's suggestion with no
/// confidence floor, else the cheapest untried candidate, else lines 18–20
/// (which [`ESCALATE`] also takes past the threshold).
const OFFLINE: &[Source] = &[
    Source::Synopsis {
        min_confidence: 0.0,
    },
    Source::CheapestUntried,
    Source::Escalate { idle_ticks: 0 },
];

/// Result of healing one failure episode with [`FixSymEngine::run_episode`].
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeResult {
    /// Fixes attempted, in order.
    pub attempts: Vec<FixKind>,
    /// The fix that finally worked (`None` when the loop escalated).
    pub successful_fix: Option<FixKind>,
    /// Whether the loop escalated (lines 18–20): it restarted the service
    /// and learned the administrator's fix.
    pub escalated: bool,
}

impl EpisodeResult {
    /// Number of attempts made (including the successful one).
    pub fn attempt_count(&self) -> usize {
        self.attempts.len()
    }
}

/// The offline/episodic FixSym engine used by the Figure 4 / Table 3
/// experiments: each failure data point is healed against an oracle, the
/// fix that repairs it (in the experiments, the simulator's ground-truth
/// catalog plays that role, just as the authors' simulator did).
#[derive(Debug)]
pub struct FixSymEngine {
    synopsis: Synopsis,
    escalations: u64,
}

impl FixSymEngine {
    /// Creates an engine with the given synopsis kind.
    pub fn new(kind: SynopsisKind) -> Self {
        FixSymEngine {
            synopsis: Synopsis::new(kind),
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

    /// Heals one failure data point (Figure 3, lines 4–21) whose catalogue
    /// fix is `fix`.
    ///
    /// `fix` is the oracle: line 13's `check_fix` reports whether an
    /// attempted fix is it, and past the threshold it is the administrator's
    /// answer of lines 18–20.  The synopsis is updated after every attempt
    /// with the observed outcome, exactly as in the pseudocode, and learns
    /// the administrator's answer as a positive.
    pub fn run_episode(&mut self, symptoms: &[f64], fix: FixKind) -> EpisodeResult {
        let mut attempts = Vec::new();
        let mut tried: HashSet<FixKind> = HashSet::new();
        loop {
            // Line 9: query the current synopsis for the probable fix.  With
            // an empty synopsis (first-ever failure) fall back to the
            // cheapest untried candidate, mirroring "domain knowledge may be
            // used" to initialize the synopsis.
            let sources = if attempts.len() < THRESHOLD as usize {
                OFFLINE
            } else {
                ESCALATE
            };
            let (action, source, _) = choose(
                sources,
                Some(&self.synopsis),
                None,
                symptoms,
                &tried,
                FixAction::untargeted,
            )
            .expect("escalation always offers a fix");
            attempts.push(action.kind);
            tried.insert(action.kind);

            // Lines 11–15: apply the fix, check whether it worked and update
            // the synopsis with the new data point.  Lines 18–20: restart the
            // service and notify the administrator; the fix found by the
            // administrator is learned too.
            let escalated = matches!(source, Source::Escalate { .. });
            let (learned, fixed) = if escalated {
                (fix, true)
            } else {
                (action.kind, action.kind == fix)
            };
            self.synopsis.update(symptoms, learned, fixed);
            if fixed {
                self.escalations += u64::from(escalated);
                return EpisodeResult {
                    attempts,
                    successful_fix: (!escalated).then_some(fix),
                    escalated,
                };
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::{FaultKind, FixCatalog};

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

        let first = engine.run_episode(&symptoms_for(0), correct);
        assert_eq!(first.successful_fix, Some(correct));
        assert!(first.attempt_count() >= 1);

        // The same symptoms next time are fixed on the first attempt.
        let second = engine.run_episode(&symptoms_for(0), correct);
        assert_eq!(second.successful_fix, Some(correct));
        assert_eq!(second.attempt_count(), 1);
    }

    #[test]
    fn past_the_threshold_the_administrators_fix_is_learned() {
        let mut engine = FixSymEngine::new(SynopsisKind::NearestNeighbor);
        // The tier reboot is not among the four cheapest candidates, so
        // trial and error cannot reach it.
        let correct = FixKind::RebootTier;
        let result = engine.run_episode(&symptoms_for(1), correct);
        assert!(result.escalated);
        assert_eq!(result.successful_fix, None);
        assert_eq!(
            result.attempts[THRESHOLD as usize..],
            [FixKind::FullServiceRestart],
            "THRESHOLD narrow attempts, then the escalation"
        );
        assert!(!result.attempts.contains(&correct));
        assert_eq!(engine.escalations(), 1);
        // The administrator's fix is the one positive learned.
        assert_eq!(engine.synopsis().correct_fixes_learned(), 1);
        assert_eq!(
            engine
                .synopsis()
                .suggest(&symptoms_for(1))
                .map(|(fix, _)| fix),
            Some(correct)
        );
        // The next episode with the same symptoms succeeds at once.
        let next = engine.run_episode(&symptoms_for(1), correct);
        assert_eq!(next.attempts, [correct]);
        assert_eq!(next.successful_fix, Some(correct));
    }

    #[test]
    fn failed_attempts_are_not_retried_within_an_episode() {
        let mut engine = FixSymEngine::new(SynopsisKind::NearestNeighbor);
        let correct = FixKind::UpdateStatistics;
        let result = engine.run_episode(&symptoms_for(2), correct);
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
                engine.run_episode(&symptoms_for(class), correct);
            }
        }
        // Now every failure type is healed on the first attempt.
        for (class, correct) in mapping {
            let result = engine.run_episode(&symptoms_for(class), correct);
            assert_eq!(result.attempt_count(), 1, "class {class}");
            assert_eq!(result.successful_fix, Some(correct));
        }
    }

    #[test]
    fn synopsis_statistics_are_exposed() {
        let mut engine = FixSymEngine::new(SynopsisKind::KMeans);
        engine.run_episode(&symptoms_for(0), FixKind::KillHungQuery);
        assert!(engine.synopsis().correct_fixes_learned() >= 1);
        assert!(engine.synopsis().retrains() >= 1);
    }
}
