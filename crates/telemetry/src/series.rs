//! Bounded in-memory store of time-series samples.

use crate::sample::Sample;
use crate::schema::Schema;
use crate::window::{Window, WindowSpec};
use std::collections::VecDeque;

/// A bounded, append-only store of [`Sample`]s in tick order.
///
/// The store keeps at most `capacity` samples; the oldest are evicted as new
/// ones arrive.  This mirrors how a monitoring pipeline only retains a finite
/// history for online analysis — the anomaly detector's baseline window `Nb`
/// must fit in the retained history.
#[derive(Debug, Clone)]
pub struct SeriesStore {
    schema: Schema,
    capacity: usize,
    samples: VecDeque<Sample>,
}

impl SeriesStore {
    /// Creates a store that retains at most `capacity` samples.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(schema: Schema, capacity: usize) -> Self {
        assert!(capacity > 0, "series store capacity must be positive");
        SeriesStore {
            schema,
            capacity,
            samples: VecDeque::with_capacity(capacity.min(4096)),
        }
    }

    /// The schema of all stored samples.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of samples currently retained.
    #[inline]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` if the store holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Appends a sample, evicting the oldest if the store is full.
    ///
    /// # Panics
    /// Panics if the sample's width does not match the schema, or if its tick
    /// is older than the most recent stored tick (samples must arrive in
    /// nondecreasing tick order).
    pub fn push(&mut self, sample: Sample) {
        self.check(&sample);
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    /// Appends a copy of `sample`; a full store copies it into the row it
    /// evicts and allocates nothing.  Panics as [`SeriesStore::push`] does.
    pub fn push_copy(&mut self, sample: &Sample) {
        self.check(sample);
        if self.samples.len() < self.capacity {
            return self.samples.push_back(sample.clone());
        }
        let mut row = self.samples.pop_front().expect("capacity is positive");
        row.copy_from(sample);
        self.samples.push_back(row);
    }

    fn check(&self, sample: &Sample) {
        assert_eq!(
            sample.width(),
            self.schema.len(),
            "sample width does not match store schema"
        );
        if let Some(last) = self.samples.back() {
            assert!(
                sample.tick() >= last.tick(),
                "samples must be pushed in nondecreasing tick order ({} < {})",
                sample.tick(),
                last.tick()
            );
        }
    }

    /// Iterates over all retained samples in tick order.
    pub fn iter(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Materializes a [`Window`] according to `spec`, anchored at the most
    /// recent sample.
    ///
    /// Returns `None` if fewer samples are retained than the window requires.
    pub fn window(&self, spec: WindowSpec) -> Option<Window> {
        Window::from_store(self, spec)
    }

    /// Materializes the paper's baseline/current window pair: a baseline
    /// window of `nb` samples immediately preceding a current window of `nc`
    /// samples ending at the most recent sample.
    ///
    /// Returns `None` until at least `nb + nc` samples are retained.
    pub fn baseline_current(&self, nb: usize, nc: usize) -> Option<(Window, Window)> {
        if self.samples.len() < nb + nc || nb == 0 || nc == 0 {
            return None;
        }
        let total = self.samples.len();
        let baseline = self.samples.range(total - nc - nb..total - nc);
        let current = self.samples.range(total - nc..);
        Some((
            Window::from_iter(&self.schema, baseline),
            Window::from_iter(&self.schema, current),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{MetricId, MetricKind, Tier};
    use crate::schema::SchemaBuilder;
    use crate::{Tick, Value};

    impl SeriesStore {
        /// The tick of the most recent sample, if any.
        pub(crate) fn latest_tick(&self) -> Option<Tick> {
            self.samples.back().map(Sample::tick)
        }

        /// Returns the last `n` samples (or fewer if not enough are retained),
        /// oldest first.
        ///
        /// Allocation-free: borrows directly from the ring buffer.  Diagnosis
        /// engines probe the tail of the series every tick, so this path must
        /// not clone or collect.
        pub(crate) fn last_n(&self, n: usize) -> impl ExactSizeIterator<Item = &Sample> + Clone {
            let start = self.samples.len().saturating_sub(n);
            self.samples.range(start..)
        }

        /// Returns all samples with tick in `[from, to)`, oldest first.
        ///
        /// Samples are tick-ordered, so both endpoints are found by binary
        /// search and the result borrows a contiguous stretch of the ring
        /// buffer — no per-call allocation, no full scan.
        pub(crate) fn range(
            &self,
            from: Tick,
            to: Tick,
        ) -> impl ExactSizeIterator<Item = &Sample> + Clone {
            let lo = self.samples.partition_point(|s| s.tick() < from);
            let hi = self.samples.partition_point(|s| s.tick() < to).max(lo);
            self.samples.range(lo..hi)
        }

        /// Extracts the values of one metric over the last `n` samples, oldest
        /// first, without materializing the sample list.
        pub(crate) fn metric_tail(
            &self,
            id: MetricId,
            n: usize,
        ) -> impl Iterator<Item = Value> + '_ {
            self.last_n(n).map(move |s| s.get(id))
        }

        /// Removes all samples (the schema and capacity are kept).
        pub(crate) fn clear(&mut self) {
            self.samples.clear();
        }
    }

    fn schema() -> Schema {
        SchemaBuilder::new()
            .metric("a", Tier::Web, MetricKind::Count)
            .metric("b", Tier::Database, MetricKind::Gauge)
            .build()
    }

    fn sample(schema: &Schema, tick: Tick, a: f64, b: f64) -> Sample {
        let mut s = Sample::zeroed(schema, tick);
        s.set(schema.expect_id("a"), a);
        s.set(schema.expect_id("b"), b);
        s
    }

    #[test]
    fn push_and_query_in_order() {
        let sc = schema();
        let mut store = SeriesStore::new(sc.clone(), 10);
        for t in 0..5 {
            store.push(sample(&sc, t, t as f64, 0.0));
        }
        assert_eq!(store.len(), 5);
        assert_eq!(store.latest_tick(), Some(4));
        let tail: Vec<f64> = store.metric_tail(sc.expect_id("a"), 3).collect();
        assert_eq!(tail, vec![2.0, 3.0, 4.0]);
        assert_eq!(store.range(1, 3).count(), 2);
        let ticks: Vec<Tick> = store.range(1, 4).map(Sample::tick).collect();
        assert_eq!(ticks, vec![1, 2, 3]);
        assert_eq!(store.range(9, 20).count(), 0);
        assert_eq!(store.range(3, 3).count(), 0);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let sc = schema();
        let mut store = SeriesStore::new(sc.clone(), 3);
        let mut copied = SeriesStore::new(sc.clone(), 3);
        for t in 0..10 {
            store.push(sample(&sc, t, t as f64, 0.0));
            copied.push_copy(&sample(&sc, t, t as f64, 0.0));
            assert!(store.iter().eq(copied.iter()));
        }
        assert_eq!(store.len(), 3);
        let ticks: Vec<Tick> = store.iter().map(Sample::tick).collect();
        assert_eq!(ticks, vec![7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "nondecreasing tick order")]
    fn out_of_order_push_is_rejected() {
        let sc = schema();
        let mut store = SeriesStore::new(sc.clone(), 10);
        store.push(sample(&sc, 5, 0.0, 0.0));
        store.push(sample(&sc, 4, 0.0, 0.0));
    }

    #[test]
    fn baseline_current_splits_history() {
        let sc = schema();
        let mut store = SeriesStore::new(sc.clone(), 100);
        assert!(store.baseline_current(5, 2).is_none());
        for t in 0..10 {
            store.push(sample(&sc, t, t as f64, 0.0));
        }
        let (baseline, current) = store.baseline_current(5, 2).unwrap();
        assert_eq!(baseline.len(), 5);
        assert_eq!(current.len(), 2);
        // Current window holds the newest two samples (ticks 8, 9);
        // baseline holds the five before them (ticks 3..=7).
        assert_eq!(current.column(sc.expect_id("a")), vec![8.0, 9.0]);
        assert_eq!(
            baseline.column(sc.expect_id("a")),
            vec![3.0, 4.0, 5.0, 6.0, 7.0]
        );
    }

    #[test]
    fn last_n_handles_short_history() {
        let sc = schema();
        let mut store = SeriesStore::new(sc.clone(), 10);
        store.push(sample(&sc, 0, 1.0, 2.0));
        assert_eq!(store.last_n(5).count(), 1);
    }

    #[test]
    fn clear_retains_schema() {
        let sc = schema();
        let mut store = SeriesStore::new(sc.clone(), 10);
        store.push(sample(&sc, 0, 1.0, 2.0));
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.schema().len(), 2);
    }
}
