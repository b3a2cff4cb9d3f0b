//! Failure-episode and recovery-time accounting.
//!
//! Figure 2 of the paper compares how long the three surveyed services took
//! to recover from failures of each cause category.  The scenario runner
//! opens a [`FailureEpisode`] when an SLO violation is confirmed, records
//! every fix attempted during the episode, and closes it when the service is
//! compliant again; the episode log is then aggregated per cause or per
//! fault kind by the benchmarks.

use selfheal_faults::{FailureCause, FaultKind, FixAction};
use serde::{Deserialize, Serialize};

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

/// The log of all failure episodes in a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryLog {
    episodes: Vec<FailureEpisode>,
    open: Option<FailureEpisode>,
}

impl RecoveryLog {
    /// Creates an empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

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

    /// Closes the current episode at `tick` (no-op when none is open).
    pub(crate) fn close_episode(&mut self, tick: u64) {
        if let Some(mut ep) = self.open.take() {
            ep.recovered_at = Some(tick);
            self.episodes.push(ep);
        }
    }

    /// Abandons the run: any open episode is recorded as never recovered.
    pub(crate) fn finish(&mut self) {
        if let Some(ep) = self.open.take() {
            self.episodes.push(ep);
        }
    }

    /// All recorded episodes (closed ones plus, after `RecoveryLog::finish`,
    /// any unrecovered one).
    pub fn episodes(&self) -> &[FailureEpisode] {
        &self.episodes
    }

    /// Number of recorded episodes.
    pub fn len(&self) -> usize {
        self.episodes.len()
    }

    /// Returns `true` if no episodes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Mean recovery time (ticks) over recovered episodes, `None` when no
    /// episode recovered.
    pub fn mean_recovery_ticks(&self) -> Option<f64> {
        let recovered: Vec<u64> = self
            .episodes
            .iter()
            .filter_map(FailureEpisode::recovery_ticks)
            .collect();
        if recovered.is_empty() {
            None
        } else {
            Some(recovered.iter().sum::<u64>() as f64 / recovered.len() as f64)
        }
    }

    /// Mean number of fix attempts per episode.
    pub fn mean_fix_attempts(&self) -> f64 {
        if self.episodes.is_empty() {
            return 0.0;
        }
        self.episodes
            .iter()
            .map(|e| e.fixes_attempted.len())
            .sum::<usize>() as f64
            / self.episodes.len() as f64
    }

    /// Fraction of episodes that ended in escalation.
    pub fn escalation_fraction(&self) -> f64 {
        if self.episodes.is_empty() {
            return 0.0;
        }
        self.episodes.iter().filter(|e| e.escalated).count() as f64 / self.episodes.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_faults::FixKind;

    impl RecoveryLog {
        /// Mean recovery time (ticks) for episodes whose primary cause is
        /// `cause`.
        pub(crate) fn mean_recovery_ticks_for_cause(&self, cause: FailureCause) -> Option<f64> {
            let recovered: Vec<u64> = self
                .episodes
                .iter()
                .filter(|e| e.primary_cause() == cause)
                .filter_map(FailureEpisode::recovery_ticks)
                .collect();
            if recovered.is_empty() {
                None
            } else {
                Some(recovered.iter().sum::<u64>() as f64 / recovered.len() as f64)
            }
        }

        /// Counts episodes by primary cause, as `(cause, count)` pairs in
        /// [`FailureCause::ALL`] order (causes with zero episodes included).
        pub(crate) fn cause_counts(&self) -> Vec<(FailureCause, usize)> {
            FailureCause::ALL
                .iter()
                .map(|c| {
                    (
                        *c,
                        self.episodes
                            .iter()
                            .filter(|e| e.primary_cause() == *c)
                            .count(),
                    )
                })
                .collect()
        }
    }

    #[test]
    fn episode_lifecycle_and_recovery_time() {
        let mut log = RecoveryLog::new();
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
        log.close_episode(130);
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
        let mut log = RecoveryLog::new();
        log.open_episode(
            0,
            Some((FaultKind::SourceCodeBug, FailureCause::Software)),
            1,
        );
        log.record_fix(FixAction::untargeted(FixKind::MicrorebootEjb));
        log.record_fix(FixAction::untargeted(FixKind::FullServiceRestart));
        log.close_episode(400);
        assert_eq!(log.escalation_fraction(), 1.0);
        assert_eq!(log.mean_fix_attempts(), 2.0);
    }

    #[test]
    fn per_cause_aggregation() {
        let mut log = RecoveryLog::new();
        log.open_episode(
            0,
            Some((FaultKind::OperatorMisconfiguration, FailureCause::Operator)),
            1,
        );
        log.close_episode(200);
        log.open_episode(
            300,
            Some((FaultKind::BufferContention, FailureCause::Software)),
            1,
        );
        log.close_episode(320);
        assert_eq!(log.mean_recovery_ticks(), Some(110.0));
        assert_eq!(
            log.mean_recovery_ticks_for_cause(FailureCause::Operator),
            Some(200.0)
        );
        assert_eq!(
            log.mean_recovery_ticks_for_cause(FailureCause::Software),
            Some(20.0)
        );
        assert_eq!(
            log.mean_recovery_ticks_for_cause(FailureCause::Hardware),
            None
        );
        let counts = log.cause_counts();
        assert_eq!(counts[0], (FailureCause::Operator, 1));
        assert_eq!(counts[2], (FailureCause::Software, 1));
    }

    #[test]
    fn unfinished_episode_is_recorded_without_recovery() {
        let mut log = RecoveryLog::new();
        log.open_episode(10, None, 0);
        log.finish();
        assert_eq!(log.len(), 1);
        assert_eq!(log.episodes()[0].recovery_ticks(), None);
        assert_eq!(log.episodes()[0].primary_cause(), FailureCause::Unknown);
        assert_eq!(log.mean_recovery_ticks(), None);
    }

    #[test]
    fn empty_log_aggregates_to_defaults() {
        let log = RecoveryLog::new();
        assert!(log.is_empty());
        assert_eq!(log.mean_fix_attempts(), 0.0);
        assert_eq!(log.escalation_fraction(), 0.0);
    }
}
