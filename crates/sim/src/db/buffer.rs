//! Buffer-pool working-set model.
//!
//! The buffer pool caches table pages.  Its miss rate follows a simple
//! working-set law: when the pool is at least as large as the combined
//! working set of the tables being accessed, misses are rare (cold misses
//! only); as the pool shrinks below the working set, the miss rate grows
//! toward 1.  Buffer contention (Table 1) and operator misconfiguration are
//! simulated by shrinking the pool; `RepartitionMemory` restores the
//! nominal allocation.

use serde::{Deserialize, Serialize};

/// Baseline (cold/compulsory) miss rate of a healthy, warm buffer pool.
const COLD_MISS_RATE: f64 = 0.02;

/// The buffer pool.  Every operation is constant time: the number of tables
/// accessed this tick, which the miss rate depends on, is kept up to date by
/// the accesses themselves instead of being recounted on each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct BufferPool {
    nominal_pages: u64,
    current_pages: u64,
    working_set_pages: u64,
    /// Per-table access weight this tick (rows touched).
    tick_access_rows: Vec<f64>,
    /// How many entries of `tick_access_rows` are positive, kept as
    /// [`BufferPool::access`] and [`BufferPool::finish_tick`] change them.
    active_tables: usize,
    tick_rows_read: f64,
    tick_rows_written: f64,
    tick_miss_weighted: f64,
    tick_access_weight: f64,
}

impl BufferPool {
    /// Creates a pool of `nominal_pages` pages serving `table_count` tables,
    /// each with a working set of `working_set_pages`.
    pub(crate) fn new(nominal_pages: u64, working_set_pages: u64, table_count: usize) -> Self {
        assert!(nominal_pages > 0, "buffer pool must have at least one page");
        assert!(table_count > 0, "buffer pool must serve at least one table");
        BufferPool {
            nominal_pages,
            current_pages: nominal_pages,
            working_set_pages: working_set_pages.max(1),
            tick_access_rows: vec![0.0; table_count],
            active_tables: 0,
            tick_rows_read: 0.0,
            tick_rows_written: 0.0,
            tick_miss_weighted: 0.0,
            tick_access_weight: 0.0,
        }
    }

    /// Shrinks the effective pool to `fraction` of nominal (fault effect).
    pub(crate) fn shrink_to_fraction(&mut self, fraction: f64) {
        let fraction = fraction.clamp(0.01, 1.0);
        self.current_pages = ((self.nominal_pages as f64) * fraction).max(1.0) as u64;
    }

    /// Restores the nominal allocation (the `RepartitionMemory` fix).
    pub(crate) fn restore_nominal(&mut self) {
        self.current_pages = self.nominal_pages;
    }

    /// Current miss rate given the set of tables recently accessed.
    ///
    /// The demanded working set is `working_set_pages` per actively accessed
    /// table; the miss rate interpolates between the cold-miss floor (pool ≥
    /// demand) and ~1.0 (pool ≪ demand).
    pub(crate) fn miss_rate(&self) -> f64 {
        let active_tables = self.active_tables.max(1) as f64;
        let demand = active_tables * self.working_set_pages as f64;
        let available = self.current_pages as f64;
        if available >= demand {
            COLD_MISS_RATE
        } else {
            let shortfall = 1.0 - available / demand;
            (COLD_MISS_RATE + shortfall * (1.0 - COLD_MISS_RATE)).min(1.0)
        }
    }

    /// Records one access of `rows` rows against `table` and returns the
    /// miss rate charged to it.
    ///
    /// # Panics
    /// Panics if `table` is not below the pool's table count.
    #[inline(always)]
    pub(crate) fn access(&mut self, table: usize, rows: f64) -> f64 {
        let accessed = &mut self.tick_access_rows[table];
        let was_active = *accessed > 0.0;
        *accessed += rows;
        match (was_active, *accessed > 0.0) {
            (false, true) => self.active_tables += 1,
            (true, false) => self.active_tables -= 1,
            _ => {}
        }
        let miss = self.miss_rate();
        self.tick_rows_read += rows;
        self.tick_miss_weighted += miss * rows;
        self.tick_access_weight += rows;
        miss
    }

    /// Records rows written (for the tick counters; writes also read pages,
    /// which is already captured by [`BufferPool::access`]).
    pub(crate) fn record_write(&mut self, rows: f64) {
        self.tick_rows_written += rows;
    }

    /// Ends the tick, returning `(rows_read, rows_written, mean_miss_rate)`
    /// and resetting the per-tick counters.
    pub(crate) fn finish_tick(&mut self) -> (f64, f64, f64) {
        let miss = if self.tick_access_weight > 0.0 {
            self.tick_miss_weighted / self.tick_access_weight
        } else {
            COLD_MISS_RATE
        };
        let result = (self.tick_rows_read, self.tick_rows_written, miss);
        self.tick_rows_read = 0.0;
        self.tick_rows_written = 0.0;
        self.tick_miss_weighted = 0.0;
        self.tick_access_weight = 0.0;
        self.tick_access_rows.fill(0.0);
        self.active_tables = 0;
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl BufferPool {
        /// Nominal (configured) size in pages.
        pub(crate) fn nominal_pages(&self) -> u64 {
            self.nominal_pages
        }

        /// Current effective size in pages.
        pub(crate) fn current_pages(&self) -> u64 {
            self.current_pages
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// After every step of any sequence of operations the maintained
        /// count of active tables equals a recount.  Rows are rounded so
        /// that zero-row accesses and exact cancellations occur.
        #[test]
        fn active_table_count_equals_a_recount(
            ops in prop::collection::vec((0usize..6, 0usize..8, -3.0f64..6.0), 1..80),
        ) {
            let mut pool = BufferPool::new(4000, 900, 8);
            for (op, table, rows) in ops {
                match op {
                    0 => pool.shrink_to_fraction(rows / 6.0),
                    1 => pool.restore_nominal(),
                    2 => {
                        pool.finish_tick();
                    }
                    _ => {
                        pool.access(table, rows.round());
                    }
                }
                let recount = pool.tick_access_rows.iter().filter(|r| **r > 0.0).count();
                prop_assert_eq!(pool.active_tables, recount);
            }
        }
    }

    #[test]
    fn healthy_pool_has_cold_miss_rate_only() {
        let mut pool = BufferPool::new(4000, 900, 4);
        let miss = pool.access(0, 100.0);
        assert!((miss - COLD_MISS_RATE).abs() < 1e-9);
        let (read, written, rate) = pool.finish_tick();
        assert_eq!(read, 100.0);
        assert_eq!(written, 0.0);
        assert!((rate - COLD_MISS_RATE).abs() < 1e-9);
    }

    #[test]
    fn shrinking_the_pool_raises_the_miss_rate() {
        let mut pool = BufferPool::new(4000, 900, 4);
        pool.access(0, 10.0);
        pool.access(1, 10.0);
        let healthy = pool.miss_rate();
        pool.shrink_to_fraction(0.1);
        let starved = pool.miss_rate();
        assert!(
            starved > healthy + 0.3,
            "starved {starved} vs healthy {healthy}"
        );
        pool.restore_nominal();
        assert!((pool.miss_rate() - healthy).abs() < 1e-9);
        assert_eq!(pool.current_pages(), pool.nominal_pages());
    }

    #[test]
    fn more_active_tables_demand_more_buffer() {
        let mut pool = BufferPool::new(2000, 900, 6);
        pool.access(0, 10.0);
        let one_table = pool.miss_rate();
        for t in 1..6 {
            pool.access(t, 10.0);
        }
        let six_tables = pool.miss_rate();
        assert!(six_tables > one_table);
    }

    #[test]
    fn tick_counters_reset_after_finish() {
        let mut pool = BufferPool::new(1000, 500, 2);
        pool.access(0, 50.0);
        pool.record_write(20.0);
        let (r, w, _) = pool.finish_tick();
        assert_eq!((r, w), (50.0, 20.0));
        let (r2, w2, rate2) = pool.finish_tick();
        assert_eq!((r2, w2), (0.0, 0.0));
        assert!((rate2 - COLD_MISS_RATE).abs() < 1e-9);
    }

    #[test]
    fn shrink_fraction_is_clamped() {
        let mut pool = BufferPool::new(1000, 500, 2);
        pool.shrink_to_fraction(-1.0);
        assert!(pool.current_pages() >= 10);
        pool.shrink_to_fraction(5.0);
        assert_eq!(pool.current_pages(), 1000);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_page_pool_is_rejected() {
        BufferPool::new(0, 10, 1);
    }
}
