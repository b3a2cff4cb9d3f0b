//! Block/lock contention model.
//!
//! Table 1's "read/write contention on table block" failure is repaired by
//! repartitioning the table "to balance accesses across partitions".  The
//! lock manager models each table as a set of partitions; accesses pile onto
//! the hottest partition, and the wait time grows with the concurrent write
//! traffic hitting that partition.  Repartitioning increases the partition
//! count for the table, spreading the load.

use serde::{Deserialize, Serialize};

/// Milliseconds of wait charged per unit of concurrent conflicting work.
const WAIT_PER_CONFLICT_MS: f64 = 0.1;

/// Extra skew factor applied while an injected block-contention fault is
/// active (all accesses hammer one hot block).
const INJECTED_SKEW: f64 = 16.0;

/// The lock manager for all tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LockManager {
    /// Number of partitions per table (starts at 1; repartitioning raises it).
    partitions: Vec<u32>,
    /// Write rows seen per table this tick.
    tick_write_rows: Vec<f64>,
    /// Lock wait accumulated this tick (ms).
    tick_wait_ms: f64,
}

impl LockManager {
    /// Creates a lock manager for `table_count` tables, each with a single
    /// partition.
    pub(crate) fn new(table_count: usize) -> Self {
        assert!(table_count > 0, "lock manager needs at least one table");
        LockManager {
            partitions: vec![1; table_count],
            tick_write_rows: vec![0.0; table_count],
            tick_wait_ms: 0.0,
        }
    }

    /// Records one access and returns the lock wait (ms) it incurred.
    ///
    /// Reads only wait when there is concurrent write traffic on the same
    /// table; writes also conflict with each other.  The injected
    /// block-contention fault concentrates all traffic on one block,
    /// multiplying the conflict rate by `INJECTED_SKEW`.
    ///
    /// # Panics
    /// Panics if `table` is not one of the manager's tables.
    #[inline(always)]
    pub(crate) fn access(
        &mut self,
        table: usize,
        rows: f64,
        is_write: bool,
        contention_fault: bool,
    ) -> f64 {
        let partitions = self.partitions[table] as f64;
        let concurrent_writes = self.tick_write_rows[table];

        let skew = if contention_fault { INJECTED_SKEW } else { 1.0 };
        let conflicting = concurrent_writes * skew / partitions;
        let wait = if is_write {
            (conflicting + rows * 0.1 * skew / partitions) * WAIT_PER_CONFLICT_MS
        } else {
            conflicting * WAIT_PER_CONFLICT_MS * 0.5
        };

        if is_write {
            self.tick_write_rows[table] += rows;
        }
        self.tick_wait_ms += wait;
        wait
    }

    /// Repartitions a table (the `RepartitionTable` fix), doubling its
    /// partition count (capped at 64).
    pub(crate) fn rebalance(&mut self, table: usize) {
        let idx = table % self.partitions.len();
        self.partitions[idx] = (self.partitions[idx] * 2).min(64);
    }

    /// Ends the tick, returning the accumulated lock wait (ms).
    pub(crate) fn finish_tick(&mut self) -> f64 {
        let wait = self.tick_wait_ms;
        self.tick_wait_ms = 0.0;
        for w in &mut self.tick_write_rows {
            *w = 0.0;
        }
        wait
    }

    /// Resets all state, including partition layouts (database restart).
    pub(crate) fn reset(&mut self) {
        for p in &mut self.partitions {
            *p = 1;
        }
        self.tick_wait_ms = 0.0;
        for w in &mut self.tick_write_rows {
            *w = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl LockManager {
        /// Number of partitions of a table.
        pub(crate) fn partitions(&self, table: usize) -> u32 {
            self.partitions[table % self.partitions.len()]
        }
    }

    #[test]
    fn reads_without_writes_do_not_wait() {
        let mut lm = LockManager::new(2);
        assert_eq!(lm.access(0, 100.0, false, false), 0.0);
        assert_eq!(lm.finish_tick(), 0.0);
    }

    #[test]
    fn writes_conflict_with_prior_writes_in_the_same_tick() {
        let mut lm = LockManager::new(2);
        let first = lm.access(0, 10.0, true, false);
        let second = lm.access(0, 10.0, true, false);
        assert!(second > first, "later writes wait behind earlier ones");
        // A write to a different table does not conflict.
        let other_table = lm.access(1, 10.0, true, false);
        assert!(other_table <= first + 1e-9);
    }

    #[test]
    fn injected_contention_multiplies_waits_and_repartition_relieves_it() {
        let mut lm = LockManager::new(1);
        lm.access(0, 20.0, true, false);
        let normal = lm.access(0, 20.0, true, false);
        lm.finish_tick();

        lm.access(0, 20.0, true, true);
        let contended = lm.access(0, 20.0, true, true);
        assert!(
            contended > 3.0 * normal,
            "contended {contended} vs normal {normal}"
        );
        lm.finish_tick();

        for _ in 0..3 {
            lm.rebalance(0);
        }
        assert_eq!(lm.partitions(0), 8);
        lm.access(0, 20.0, true, true);
        let repartitioned = lm.access(0, 20.0, true, true);
        assert!(repartitioned < contended / 4.0);
    }

    #[test]
    fn partition_count_is_capped() {
        let mut lm = LockManager::new(1);
        for _ in 0..20 {
            lm.rebalance(0);
        }
        assert_eq!(lm.partitions(0), 64);
    }

    #[test]
    fn reset_restores_single_partitions() {
        let mut lm = LockManager::new(2);
        lm.rebalance(1);
        lm.access(1, 5.0, true, false);
        lm.reset();
        assert_eq!(lm.partitions(1), 1);
        assert_eq!(lm.finish_tick(), 0.0);
    }

    #[test]
    fn reads_wait_behind_concurrent_writes() {
        let mut lm = LockManager::new(1);
        lm.access(0, 50.0, true, false);
        let read_wait = lm.access(0, 10.0, false, false);
        assert!(read_wait > 0.0);
    }
}
