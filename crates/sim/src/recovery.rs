//! Failure-episode and recovery-time accounting.
//!
//! Figure 2 of the paper compares how long the three surveyed services took
//! to recover from failures of each cause category.  The scenario runner
//! opens a [`FailureEpisode`] when an SLO violation is confirmed, records
//! every fix attempted during the episode, and closes it when the service is
//! compliant again.  The log is a fold over the run: whole-run counts and
//! sums (episodes, recovered, recovery ticks, fix attempts, escalations),
//! which every aggregate reads, and the last 64 closed episodes whole.  What
//! it holds does not grow with simulated time.

use selfheal_faults::{FailureCause, FaultKind, FixAction};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Closed episodes a log keeps whole, newest last; older ones live on only
/// in its folds.
const RECENT_EPISODES: usize = 64;

/// One contiguous period of SLO violation and the recovery that ended it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureEpisode {
    /// Tick at which the violation was confirmed (detection time).
    pub detected_at: u64,
    /// Tick at which the service was compliant again, if it recovered.
    pub recovered_at: Option<u64>,
    /// Kind and cause category of the first (oldest) fault active when the
    /// episode was detected — ground truth used only for scoring; `None`
    /// when no fault was active (e.g. a pure overload episode).
    pub primary: Option<(FaultKind, FailureCause)>,
    /// How many faults were active at detection.  An episode records the
    /// count and not the set: nothing reads past the first, and a resident
    /// service has hundreds active per episode.
    pub active_faults: usize,
    /// Fixes attempted during the episode, in order.
    pub fixes_attempted: Vec<FixAction>,
    /// Whether the episode ended in an escalation (full restart or operator
    /// notification).
    pub escalated: bool,
}

impl FailureEpisode {
    /// Recovery time in ticks, if the episode has closed.
    pub fn recovery_ticks(&self) -> Option<u64> {
        self.recovered_at
            .map(|r| r.saturating_sub(self.detected_at))
    }

    /// The primary (first) cause recorded for the episode, defaulting to
    /// `Unknown` when no fault was active at detection time (e.g. a pure
    /// overload episode).
    pub(crate) fn primary_cause(&self) -> FailureCause {
        self.primary
            .map_or(FailureCause::Unknown, |(_, cause)| cause)
    }

    /// The primary (first) fault kind recorded, if any.
    pub fn primary_fault(&self) -> Option<FaultKind> {
        self.primary.map(|(kind, _)| kind)
    }
}

/// The episodes of a run, folded: whole-run counts and sums, and the last
/// 64 closed episodes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryLog {
    recent: VecDeque<FailureEpisode>,
    open: Option<FailureEpisode>,
    episodes: usize,
    recovered: usize,
    recovery_ticks: u64,
    fix_attempts: usize,
    escalations: usize,
}

impl RecoveryLog {
    /// Returns `true` if an episode is currently open.
    pub fn in_episode(&self) -> bool {
        self.open.is_some()
    }

    /// Opens an episode at `tick` given the ground truth at detection — the
    /// first active fault's kind and cause, and how many were active
    /// (ignored if an episode is already open).
    pub(crate) fn open_episode(
        &mut self,
        tick: u64,
        primary: Option<(FaultKind, FailureCause)>,
        active_faults: usize,
    ) {
        if self.open.is_some() {
            return;
        }
        self.open = Some(FailureEpisode {
            detected_at: tick,
            recovered_at: None,
            primary,
            active_faults,
            fixes_attempted: Vec::new(),
            escalated: false,
        });
    }

    /// Records a fix attempted during the current episode (no-op when no
    /// episode is open).
    pub(crate) fn record_fix(&mut self, action: FixAction) {
        if let Some(ep) = &mut self.open {
            if action.kind.is_escalation() {
                ep.escalated = true;
            }
            ep.fixes_attempted.push(action);
        }
    }

    /// Closes the open episode, recovered at `recovered_at` — or never,
    /// when the run is abandoned with the episode open — and returns it
    /// (`None` when no episode is open).
    pub(crate) fn close_episode(&mut self, recovered_at: Option<u64>) -> Option<&FailureEpisode> {
        let mut ep = self.open.take()?;
        ep.recovered_at = recovered_at;
        self.episodes += 1;
        if let Some(ticks) = ep.recovery_ticks() {
            self.recovered += 1;
            self.recovery_ticks += ticks;
        }
        self.fix_attempts += ep.fixes_attempted.len();
        self.escalations += usize::from(ep.escalated);
        if self.recent.len() == RECENT_EPISODES {
            self.recent.pop_front();
        }
        self.recent.push_back(ep);
        self.recent.back()
    }

    /// The last 64 recorded episodes, oldest first (in an outcome, the last
    /// may be one the run ended in, unrecovered).
    pub fn episodes(&self) -> &VecDeque<FailureEpisode> {
        &self.recent
    }

    /// Number of recorded episodes over the whole run.
    pub fn len(&self) -> usize {
        self.episodes
    }

    /// Returns `true` if no episodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.episodes == 0
    }

    /// How many recorded episodes recovered, and their recovery times
    /// (ticks) summed.
    pub fn recovered(&self) -> (usize, u64) {
        (self.recovered, self.recovery_ticks)
    }

    /// Mean recovery time (ticks) over recovered episodes, `None` when no
    /// episode recovered.
    pub fn mean_recovery_ticks(&self) -> Option<f64> {
        (self.recovered > 0).then(|| self.recovery_ticks as f64 / self.recovered as f64)
    }

    /// Mean number of fix attempts per episode.
    pub fn mean_fix_attempts(&self) -> f64 {
        if self.episodes == 0 {
            return 0.0;
        }
        self.fix_attempts as f64 / self.episodes as f64
    }

    /// Number of recorded episodes that ended in escalation.
    pub fn escalations(&self) -> usize {
        self.escalations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::FixKind;

    #[test]
    fn episode_lifecycle_and_recovery_time() {
        let mut log = RecoveryLog::default();
        assert!(!log.in_episode());
        log.open_episode(
            100,
            Some((FaultKind::BufferContention, FailureCause::Software)),
            1,
        );
        assert!(log.in_episode());
        // Opening again while open is ignored.
        log.open_episode(
            105,
            Some((FaultKind::SourceCodeBug, FailureCause::Software)),
            1,
        );
        log.record_fix(FixAction::untargeted(FixKind::RepartitionMemory));
        log.close_episode(Some(130));
        assert!(!log.in_episode());
        assert_eq!(log.len(), 1);
        let ep = &log.episodes()[0];
        assert_eq!(ep.recovery_ticks(), Some(30));
        assert_eq!(ep.primary_cause(), FailureCause::Software);
        assert_eq!(ep.primary_fault(), Some(FaultKind::BufferContention));
        assert_eq!(ep.fixes_attempted.len(), 1);
        assert!(!ep.escalated);
    }

    #[test]
    fn escalation_is_flagged() {
        let mut log = RecoveryLog::default();
        log.open_episode(
            0,
            Some((FaultKind::SourceCodeBug, FailureCause::Software)),
            1,
        );
        log.record_fix(FixAction::untargeted(FixKind::MicrorebootEjb));
        log.record_fix(FixAction::untargeted(FixKind::FullServiceRestart));
        log.close_episode(Some(400));
        assert_eq!(log.escalations(), 1);
        assert_eq!(log.mean_fix_attempts(), 2.0);
    }

    #[test]
    fn aggregates_fold_every_episode() {
        let mut log = RecoveryLog::default();
        log.open_episode(
            0,
            Some((FaultKind::OperatorMisconfiguration, FailureCause::Operator)),
            1,
        );
        log.close_episode(Some(200));
        log.open_episode(
            300,
            Some((FaultKind::BufferContention, FailureCause::Software)),
            1,
        );
        log.close_episode(Some(320));
        assert_eq!(log.mean_recovery_ticks(), Some(110.0));
        assert_eq!(log.recovered(), (2, 220));
        let by_cause: Vec<_> = log
            .episodes()
            .iter()
            .map(|e| (e.primary_cause(), e.recovery_ticks()))
            .collect();
        assert_eq!(
            by_cause,
            [
                (FailureCause::Operator, Some(200)),
                (FailureCause::Software, Some(20))
            ]
        );
    }

    #[test]
    fn the_ring_keeps_the_last_episodes_and_the_folds_keep_all() {
        let mut log = RecoveryLog::default();
        for i in 0..100 {
            log.open_episode(i * 10, None, 0);
            log.record_fix(FixAction::untargeted(FixKind::RepartitionMemory));
            log.close_episode(Some(i * 10 + 1 + i % 2));
        }
        assert_eq!(log.len(), 100);
        assert_eq!(log.episodes().len(), RECENT_EPISODES);
        assert_eq!(log.episodes()[0].detected_at, 360);
        assert_eq!(log.mean_recovery_ticks(), Some(1.5));
        assert_eq!(log.mean_fix_attempts(), 1.0);
    }

    #[test]
    fn unfinished_episode_is_recorded_without_recovery() {
        let mut log = RecoveryLog::default();
        log.open_episode(10, None, 0);
        log.close_episode(None);
        assert_eq!(log.len(), 1);
        assert_eq!(log.episodes()[0].recovery_ticks(), None);
        assert_eq!(log.episodes()[0].primary_cause(), FailureCause::Unknown);
        assert_eq!(log.mean_recovery_ticks(), None);
    }

    #[test]
    fn empty_log_aggregates_to_defaults() {
        let log = RecoveryLog::default();
        assert!(log.is_empty());
        assert_eq!(log.mean_fix_attempts(), 0.0);
        assert_eq!(log.escalations(), 0);
    }
}
