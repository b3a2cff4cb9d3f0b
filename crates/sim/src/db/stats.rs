//! Per-table optimizer statistics and plan quality.
//!
//! Example 5 of the paper: "Database servers maintain statistics about
//! stored data in order to choose good execution plans for queries.  Unless
//! these statistics are updated in a timely fashion, they can become out of
//! date under heavy transactional workloads; causing failures due to
//! suboptimal query plans."  The fix pattern the paper suggests watches the
//! divergence between the optimizer's *estimated* and the *actual* number of
//! rows returned, and schedules a statistics update when they differ
//! significantly — so the misestimate factor is exposed as a metric.

use serde::{Deserialize, Serialize};

/// Extra work factor charged when an injected suboptimal-plan fault is
/// active, on top of any organic staleness.
const INJECTED_PLAN_PENALTY: f64 = 6.0;

/// Maximum organic misestimate factor from staleness alone.
const MAX_ORGANIC_PENALTY: f64 = 4.0;

/// Optimizer statistics for one table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TableStatistics {
    /// Writes applied since the statistics were last refreshed.
    writes_since_refresh: u64,
    /// Number of writes after which the statistics are fully stale.
    staleness_threshold: u64,
    /// How many times the statistics have been refreshed.
    refresh_count: u64,
    /// The misestimate factor staleness alone accounts for: 1.0 when fresh,
    /// ramping linearly up to `MAX_ORGANIC_PENALTY`.  It moves only with
    /// `writes_since_refresh`, so it is worked out where that changes.
    organic: f64,
}

impl TableStatistics {
    /// Creates fresh statistics with the given staleness threshold.
    pub(crate) fn new(staleness_threshold: u64) -> Self {
        TableStatistics {
            writes_since_refresh: 0,
            staleness_threshold: staleness_threshold.max(1),
            refresh_count: 0,
            organic: 1.0,
        }
    }

    /// Records `rows` written to the table.
    pub(crate) fn record_writes(&mut self, rows: u64) {
        self.writes_since_refresh = self.writes_since_refresh.saturating_add(rows);
        self.organic = 1.0 + (MAX_ORGANIC_PENALTY - 1.0) * self.staleness().min(1.0);
    }

    /// Fraction of the staleness threshold consumed (0 = fresh, ≥1 = fully
    /// stale).
    pub(crate) fn staleness(&self) -> f64 {
        self.writes_since_refresh as f64 / self.staleness_threshold as f64
    }

    /// The factor by which queries against this table are misestimated (and
    /// therefore slowed down by bad plans).
    ///
    /// 1.0 means estimates are accurate.  Organic staleness ramps the factor
    /// linearly up to `MAX_ORGANIC_PENALTY`; an injected suboptimal-plan
    /// fault pins it at least at `INJECTED_PLAN_PENALTY`.
    pub(crate) fn misestimate_factor(&self, injected_fault: bool) -> f64 {
        if injected_fault {
            self.organic.max(INJECTED_PLAN_PENALTY)
        } else {
            self.organic
        }
    }

    /// Refreshes the statistics (the `UpdateStatistics` fix / `RUNSTATS`).
    pub(crate) fn refresh(&mut self) {
        self.writes_since_refresh = 0;
        self.refresh_count += 1;
        self.organic = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TableStatistics {
        /// How many times the statistics have been refreshed.
        pub(crate) fn refresh_count(&self) -> u64 {
            self.refresh_count
        }
    }

    #[test]
    fn fresh_statistics_have_unit_factor() {
        let s = TableStatistics::new(100);
        assert_eq!(s.staleness(), 0.0);
        assert_eq!(s.misestimate_factor(false), 1.0);
    }

    #[test]
    fn staleness_grows_with_writes_and_saturates() {
        let mut s = TableStatistics::new(100);
        s.record_writes(50);
        assert!((s.staleness() - 0.5).abs() < 1e-12);
        let halfway = s.misestimate_factor(false);
        assert!(halfway > 1.0 && halfway < MAX_ORGANIC_PENALTY);
        s.record_writes(1_000);
        assert!(s.staleness() > 1.0);
        assert_eq!(s.misestimate_factor(false), MAX_ORGANIC_PENALTY);
    }

    #[test]
    fn injected_fault_dominates_organic_staleness() {
        let mut s = TableStatistics::new(100);
        assert_eq!(s.misestimate_factor(true), INJECTED_PLAN_PENALTY);
        s.record_writes(1_000);
        assert!(s.misestimate_factor(true) >= INJECTED_PLAN_PENALTY);
    }

    #[test]
    fn refresh_resets_staleness_and_counts() {
        let mut s = TableStatistics::new(10);
        s.record_writes(100);
        s.refresh();
        assert_eq!(s.staleness(), 0.0);
        assert_eq!(s.misestimate_factor(false), 1.0);
        assert_eq!(s.refresh_count(), 1);
    }

    #[test]
    fn zero_threshold_is_clamped() {
        let s = TableStatistics::new(0);
        assert_eq!(s.staleness(), 0.0);
    }
}
