//! FixSym: the signature-based self-healing engine (Figure 3 of the paper).

use crate::policy::{choose, Source};
use crate::synopsis::{Synopsis, SynopsisKind};
use selfheal_faults::{FixAction, FixKind};
use std::collections::HashSet;

/// Maximum fix attempts per failure before escalating (the THRESHOLD of
/// Figure 3).
pub(crate) const THRESHOLD: u32 = 4;

/// Line 9 of the offline engine: the synopsis's suggestion with no
/// confidence floor, else the cheapest untried candidate; when both are
/// empty the episode escalates.
const OFFLINE: &[Source] = &[
    Source::Synopsis {
        min_confidence: 0.0,
    },
    Source::CheapestUntried,
];

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
    episodes: u64,
    escalations: u64,
}

impl FixSymEngine {
    /// Creates an engine with the given synopsis kind.
    pub fn new(kind: SynopsisKind) -> Self {
        FixSymEngine {
            synopsis: Synopsis::new(kind),
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

        while attempts.len() < THRESHOLD as usize {
            // Line 9: query the current synopsis for the probable fix.  With
            // an empty synopsis (first-ever failure) fall back to the
            // cheapest untried candidate, mirroring "domain knowledge may be
            // used" to initialize the synopsis.
            let Some((action, _, _)) = choose(
                OFFLINE,
                Some(&self.synopsis),
                None,
                symptoms,
                &tried,
                FixAction::untargeted,
            ) else {
                break;
            };
            let fix = action.kind;

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
        let mut engine = FixSymEngine::new(SynopsisKind::NearestNeighbor);
        // No narrow fix ever works; only the restart does.
        let result = engine.run_episode(&symptoms_for(1), |fix| fix == FixKind::FullServiceRestart);
        assert!(result.escalated);
        assert_eq!(result.successful_fix, Some(FixKind::FullServiceRestart));
        assert_eq!(
            result.attempts.len(),
            THRESHOLD as usize + 1,
            "THRESHOLD narrow attempts plus the escalation"
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
