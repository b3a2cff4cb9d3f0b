//! Database-tier internals.
//!
//! The database tier is where several of Table 1's failure classes live:
//! suboptimal query plans from stale optimizer statistics, read/write
//! contention on table blocks, and contention for buffer memory.  To make
//! those failures (and their fixes) behave realistically, the simulator
//! models the pieces of a database engine they involve:
//!
//! * [`buffer::BufferPool`] — a working-set model of the buffer cache whose
//!   miss rate drives extra I/O demand; `RepartitionMemory` resets it.
//! * [`stats::TableStatistics`] — per-table optimizer statistics with a
//!   staleness counter driven by write traffic; `UpdateStatistics` refreshes
//!   them and restores good plans (Example 5 of the paper).
//! * [`locks::LockManager`] — block-contention model for read/write
//!   hot-spots; `RepartitionTable` spreads the accesses and removes the
//!   contention.
//! * [`DatabaseTier`] — glues the three together and charges each request's
//!   table accesses.

pub(crate) mod buffer;
pub(crate) mod locks;
pub(crate) mod stats;

pub(crate) use buffer::BufferPool;
pub(crate) use locks::LockManager;
pub(crate) use stats::TableStatistics;

use serde::{Deserialize, Serialize};

/// Aggregate database-tier counters produced for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub(crate) struct DbTickCounters {
    /// Rows read this tick.
    pub rows_read: f64,
    /// Rows written this tick.
    pub rows_written: f64,
    /// Buffer miss rate observed this tick.
    pub buffer_miss_rate: f64,
    /// Milliseconds of lock wait accumulated this tick.
    pub lock_wait_ms: f64,
    /// Mean ratio of actual to optimizer-estimated rows across accesses
    /// this tick (1.0 = estimates accurate; grows as statistics go stale).
    pub plan_misestimate: f64,
}

/// The simulated database engine state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DatabaseTier {
    buffer: BufferPool,
    stats: Vec<TableStatistics>,
    locks: LockManager,
    /// Row-weighted sum of the misestimate factors actually charged this
    /// tick (including injected plan faults), and the corresponding weight.
    tick_misestimate_weighted: f64,
    tick_misestimate_weight: f64,
}

/// Per-access outcome used by the service to attribute latency.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct AccessCharge {
    /// Extra service demand in ms for this access beyond the nominal cost.
    pub extra_ms: f64,
    /// Lock wait in ms for this access.
    pub lock_wait_ms: f64,
}

impl DatabaseTier {
    /// Creates a database tier with `table_count` tables, a buffer pool of
    /// `buffer_pages`, a per-table working set of `working_set_pages`, and
    /// the given staleness threshold (writes before statistics go stale).
    pub(crate) fn new(
        table_count: usize,
        buffer_pages: u64,
        working_set_pages: u64,
        staleness_threshold_writes: u64,
    ) -> Self {
        assert!(table_count > 0, "database needs at least one table");
        DatabaseTier {
            buffer: BufferPool::new(buffer_pages, working_set_pages, table_count),
            stats: (0..table_count)
                .map(|_| TableStatistics::new(staleness_threshold_writes))
                .collect(),
            locks: LockManager::new(table_count),
            tick_misestimate_weighted: 0.0,
            tick_misestimate_weight: 0.0,
        }
    }

    /// Mutable access to the buffer pool (used by fault effects and fixes).
    pub(crate) fn buffer_mut(&mut self) -> &mut BufferPool {
        &mut self.buffer
    }

    /// Charges one table access and returns the latency consequences.
    ///
    /// `plan_penalty_active` marks the table as suffering an injected
    /// suboptimal-plan fault (in addition to any organic staleness), and
    /// `contention_active` marks it as suffering injected block contention.
    /// Inlined, with everything it calls, into the request loop.
    ///
    /// # Panics
    /// Panics if `table` is not below [`DatabaseTier::table_count`].
    #[inline(always)]
    pub(crate) fn charge_access(
        &mut self,
        table: usize,
        rows: f64,
        is_write: bool,
        nominal_ms: f64,
        plan_penalty_active: bool,
        contention_active: bool,
    ) -> AccessCharge {
        // Buffer pool: misses add I/O time proportional to the rows touched.
        let miss_rate = self.buffer.access(table, rows);
        let miss_ms = nominal_ms * miss_rate * 2.0;

        // Plan quality: stale or sabotaged statistics inflate the work done.
        let stats = &mut self.stats[table];
        if is_write {
            stats.record_writes(rows.max(1.0) as u64);
        }
        let misestimate = stats.misestimate_factor(plan_penalty_active);
        let plan_ms = nominal_ms * (misestimate - 1.0).max(0.0);
        self.tick_misestimate_weighted += misestimate * rows.max(1.0);
        self.tick_misestimate_weight += rows.max(1.0);

        // Lock contention: writes (and injected block contention) queue.
        let lock_wait_ms = self.locks.access(table, rows, is_write, contention_active);

        AccessCharge {
            extra_ms: miss_ms + plan_ms,
            lock_wait_ms,
        }
    }

    /// Finishes a tick: rolls per-tick counters and returns them.
    pub(crate) fn finish_tick(&mut self) -> DbTickCounters {
        let (rows_read, rows_written, miss_rate) = self.buffer.finish_tick();
        let lock_wait_ms = self.locks.finish_tick();
        // The exposed plan-quality metric is the row-weighted misestimate of
        // the plans actually executed this tick (estimated-vs-actual rows,
        // the signal Example 5 of the paper watches); when the tick ran no
        // queries it falls back to the per-table statistics staleness.
        let plan_misestimate = if self.tick_misestimate_weight > 0.0 {
            self.tick_misestimate_weighted / self.tick_misestimate_weight
        } else {
            self.stats
                .iter()
                .map(|s| s.misestimate_factor(false))
                .sum::<f64>()
                / self.stats.len() as f64
        };
        self.tick_misestimate_weighted = 0.0;
        self.tick_misestimate_weight = 0.0;
        DbTickCounters {
            rows_read,
            rows_written,
            buffer_miss_rate: miss_rate,
            lock_wait_ms,
            plan_misestimate,
        }
    }

    /// Applies the `UpdateStatistics` fix to one table.
    pub(crate) fn update_statistics(&mut self, table: usize) {
        let table = table % self.stats.len();
        self.stats[table].refresh();
    }

    /// Applies the `RepartitionTable` fix to one table.
    pub(crate) fn repartition_table(&mut self, table: usize) {
        let table = table % self.stats.len();
        self.locks.rebalance(table);
    }

    /// Applies the `RepartitionMemory` fix: restores the configured buffer
    /// allocation.
    pub(crate) fn repartition_memory(&mut self) {
        self.buffer.restore_nominal();
    }

    /// Full database restart: clears all transient state and refreshes all
    /// statistics.
    pub(crate) fn restart(&mut self) {
        self.buffer.restore_nominal();
        self.locks.reset();
        for s in &mut self.stats {
            s.refresh();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl DatabaseTier {
        /// Number of tables.
        pub(crate) fn table_count(&self) -> usize {
            self.stats.len()
        }

        /// Statistics of one table.
        pub(crate) fn table_stats(&self, table: usize) -> &TableStatistics {
            &self.stats[table]
        }
    }

    fn db() -> DatabaseTier {
        DatabaseTier::new(3, 1200, 500, 1_000)
    }

    #[test]
    fn healthy_access_has_small_overhead() {
        let mut d = db();
        let charge = d.charge_access(0, 10.0, false, 5.0, false, false);
        assert!(charge.extra_ms < 5.0);
        assert_eq!(charge.lock_wait_ms, 0.0);
        let counters = d.finish_tick();
        assert_eq!(counters.rows_read, 10.0);
        assert_eq!(counters.rows_written, 0.0);
        assert!(counters.plan_misestimate >= 1.0);
    }

    #[test]
    fn plan_penalty_inflates_extra_time() {
        let mut d = db();
        let healthy = d.charge_access(1, 20.0, false, 10.0, false, false).extra_ms;
        let degraded = d.charge_access(1, 20.0, false, 10.0, true, false).extra_ms;
        assert!(
            degraded > healthy + 5.0,
            "degraded {degraded} vs healthy {healthy}"
        );
    }

    #[test]
    fn contention_adds_lock_wait_and_repartition_removes_it() {
        let mut d = db();
        // Two writes in the same tick: the second waits behind the first.
        d.charge_access(2, 10.0, true, 5.0, false, true);
        let contended = d
            .charge_access(2, 10.0, true, 5.0, false, true)
            .lock_wait_ms;
        assert!(contended > 0.0);
        d.finish_tick();
        // Repartition the table, then repeat the same access pattern.
        d.repartition_table(2);
        d.repartition_table(2);
        d.charge_access(2, 10.0, true, 5.0, false, true);
        let after = d
            .charge_access(2, 10.0, true, 5.0, false, true)
            .lock_wait_ms;
        assert!(after < contended, "after {after} vs contended {contended}");
    }

    #[test]
    fn organic_staleness_builds_with_writes_and_update_statistics_fixes_it() {
        let mut d = DatabaseTier::new(2, 1200, 500, 100);
        for _ in 0..200 {
            d.charge_access(0, 10.0, true, 2.0, false, false);
        }
        let stale = d.table_stats(0).misestimate_factor(false);
        assert!(stale > 1.0, "statistics should be stale, factor {stale}");
        d.update_statistics(0);
        assert_eq!(d.table_stats(0).misestimate_factor(false), 1.0);
    }

    #[test]
    fn restart_clears_all_degradation() {
        let mut d = DatabaseTier::new(2, 1200, 500, 10);
        d.buffer_mut().shrink_to_fraction(0.1);
        for _ in 0..50 {
            d.charge_access(0, 10.0, true, 2.0, false, true);
        }
        d.restart();
        assert_eq!(d.table_stats(0).misestimate_factor(false), 1.0);
        let charge = d.charge_access(0, 10.0, false, 5.0, false, false);
        assert!(charge.extra_ms < 5.0);
        assert_eq!(d.table_count(), 2);
    }
}
