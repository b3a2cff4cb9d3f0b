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
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Sample> {
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
    use crate::metric::{MetricKind, Tier};
    use crate::schema::SchemaBuilder;
    use crate::Tick;

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

    /// Every capacity and push count up to a few rings' worth: the store
    /// holds the latest `capacity` samples, in tick order.
    #[test]
    fn series_store_is_bounded_and_ordered() {
        let sc = schema();
        for capacity in 1..24 {
            for pushes in 0..60 {
                let mut store = SeriesStore::new(sc.clone(), capacity);
                for t in 0..pushes {
                    store.push(Sample::zeroed(&sc, t));
                }
                let ticks: Vec<Tick> = store.iter().map(Sample::tick).collect();
                let kept: Vec<Tick> = (pushes.saturating_sub(capacity as Tick)..pushes).collect();
                assert_eq!(ticks, kept, "capacity {capacity}, {pushes} pushes");
            }
        }
    }

    #[test]
    fn push_and_query_in_order() {
        let sc = schema();
        let mut store = SeriesStore::new(sc.clone(), 10);
        for t in 0..5 {
            store.push(sample(&sc, t, t as f64, 0.0));
        }
        assert_eq!(store.len(), 5);
        let a = sc.expect_id("a");
        let values: Vec<f64> = store.iter().map(|s| s.get(a)).collect();
        assert_eq!(values, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
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
    #[should_panic(expected = "sample width does not match store schema")]
    fn a_sample_of_another_width_is_rejected() {
        let narrow = SchemaBuilder::new()
            .metric("a", Tier::Web, MetricKind::Count)
            .build();
        let mut store = SeriesStore::new(schema(), 10);
        store.push(Sample::zeroed(&narrow, 0));
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
        // Current window holds the newest two samples (ticks 8, 9);
        // baseline holds the five before them (ticks 3..=7).
        let (current, baseline) = (
            current.summary(sc.expect_id("a")),
            baseline.summary(sc.expect_id("a")),
        );
        assert_eq!((current.count, current.min, current.max), (2, 8.0, 9.0));
        assert_eq!((baseline.count, baseline.min, baseline.max), (5, 3.0, 7.0));
        assert_eq!(baseline.mean, 5.0);
    }
}
