//! Sliding windows over the time series.
//!
//! The anomaly detector of Section 4.3.1 contrasts a long *baseline* window
//! of `Nb` samples with a short *current* window of `Nc` samples
//! (`Nc ≪ Nb`).  A [`Window`] is a materialized, columnar copy of a
//! contiguous stretch of samples with the aggregation helpers those analyses
//! need.

use crate::metric::MetricId;
use crate::sample::Sample;
use crate::schema::Schema;
use crate::series::SeriesStore;
use crate::stats::Summary;
use crate::Value;

/// Specification of a window anchored at the newest retained sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Number of samples in the window.
    pub len: usize,
    /// Number of samples to skip back from the newest sample before the
    /// window ends.  `offset = 0` means the window ends at the newest sample.
    pub offset: usize,
}

impl WindowSpec {
    /// Window of the latest `len` samples.
    pub fn latest(len: usize) -> Self {
        WindowSpec { len, offset: 0 }
    }
}

/// A materialized, columnar window of consecutive samples.
#[derive(Debug, Clone)]
pub struct Window {
    /// Column-major storage: `columns[c][r]` is the value of metric `c` in
    /// row `r` of the window.
    columns: Vec<Vec<Value>>,
}

impl Window {
    /// Builds a window from borrowed samples (oldest first).
    pub fn from_samples(schema: Schema, samples: &[&Sample]) -> Self {
        Window::from_iter(&schema, samples.iter().copied())
    }

    /// Builds a window by draining an iterator of borrowed samples (oldest
    /// first) — the allocation-minimal construction path used by
    /// [`SeriesStore::baseline_current`] and [`Window::from_store`], which
    /// borrow straight from the store's ring buffer.
    pub(crate) fn from_iter<'a>(
        schema: &Schema,
        samples: impl IntoIterator<Item = &'a Sample>,
    ) -> Self {
        let samples = samples.into_iter();
        let width = schema.len();
        let hint = samples.size_hint().0;
        let mut columns = vec![Vec::with_capacity(hint); width];
        for sample in samples {
            debug_assert_eq!(sample.width(), width);
            for (c, column) in columns.iter_mut().enumerate() {
                column.push(sample.values()[c]);
            }
        }
        Window { columns }
    }

    /// Builds a window from a store according to `spec`.
    ///
    /// Returns `None` if the store does not retain enough samples.
    pub(crate) fn from_store(store: &SeriesStore, spec: WindowSpec) -> Option<Self> {
        if spec.len == 0 || store.len() < spec.len + spec.offset {
            return None;
        }
        let total = store.len();
        let start = total - spec.offset - spec.len;
        Some(Window::from_iter(
            store.schema(),
            store.iter().skip(start).take(spec.len),
        ))
    }

    /// Mean of one metric over the window (0.0 for an empty window).
    pub fn mean(&self, id: MetricId) -> Value {
        let col = &self.columns[id.index()];
        if col.is_empty() {
            0.0
        } else {
            col.iter().sum::<Value>() / col.len() as Value
        }
    }

    /// Sum of one metric over the window.
    pub fn sum(&self, id: MetricId) -> Value {
        self.columns[id.index()].iter().sum()
    }

    /// Full descriptive summary of one metric over the window.
    pub fn summary(&self, id: MetricId) -> Summary {
        Summary::of(&self.columns[id.index()])
    }

    /// Normalizes a column into a discrete distribution (values scaled to sum
    /// to 1.0).  Returns `None` if the column sums to zero or contains a
    /// negative value — distributions are only meaningful for nonnegative
    /// count-like metrics.
    ///
    /// The anomaly detector uses this to compare how calls from one EJB type
    /// are split across other EJB types (Example 2 of the paper).
    pub fn distribution(&self, ids: &[MetricId]) -> Option<Vec<Value>> {
        let sums: Vec<Value> = ids.iter().map(|id| self.sum(*id)).collect();
        if sums.iter().any(|v| *v < 0.0) {
            return None;
        }
        let total: Value = sums.iter().sum();
        if total <= 0.0 {
            return None;
        }
        Some(sums.into_iter().map(|v| v / total).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{MetricKind, Tier};
    use crate::schema::SchemaBuilder;

    impl WindowSpec {
        /// Window of `len` samples ending `offset` samples before the newest one.
        pub(crate) fn offset(len: usize, offset: usize) -> Self {
            WindowSpec { len, offset }
        }
    }

    fn setup() -> (Schema, SeriesStore) {
        let schema = SchemaBuilder::new()
            .metric("a", Tier::Web, MetricKind::Count)
            .metric("b", Tier::App, MetricKind::Count)
            .metric("lat", Tier::Service, MetricKind::LatencyMs)
            .build();
        let mut store = SeriesStore::new(schema.clone(), 128);
        for t in 0..10u64 {
            let mut s = Sample::zeroed(&schema, t);
            s.set(schema.expect_id("a"), t as f64);
            s.set(schema.expect_id("b"), 2.0 * t as f64);
            s.set(schema.expect_id("lat"), 100.0 + t as f64);
            store.push(s);
        }
        (schema, store)
    }

    #[test]
    fn latest_window_contains_newest_samples() {
        let (schema, store) = setup();
        let w = store.window(WindowSpec::latest(3)).unwrap();
        let a = w.summary(schema.expect_id("a"));
        assert_eq!((a.count, a.min, a.max), (3, 7.0, 9.0));
        assert_eq!(w.mean(schema.expect_id("a")), 8.0);
        assert_eq!(w.sum(schema.expect_id("b")), 48.0);
    }

    #[test]
    fn offset_window_skips_newest_samples() {
        let (schema, store) = setup();
        let w = store.window(WindowSpec::offset(4, 3)).unwrap();
        let a = w.summary(schema.expect_id("a"));
        assert_eq!((a.count, a.min, a.max, a.mean), (4, 3.0, 6.0, 4.5));
    }

    #[test]
    fn window_requires_enough_history() {
        let (_, store) = setup();
        assert!(store.window(WindowSpec::latest(11)).is_none());
        assert!(store.window(WindowSpec::offset(8, 5)).is_none());
        assert!(store.window(WindowSpec::latest(0)).is_none());
    }

    #[test]
    fn distribution_normalizes_counts() {
        let (schema, store) = setup();
        let w = store.window(WindowSpec::latest(5)).unwrap();
        let ids = [schema.expect_id("a"), schema.expect_id("b")];
        let dist = w.distribution(&ids).unwrap();
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        // b is always twice a, so it should carry 2/3 of the mass.
        assert!((dist[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distribution_rejects_zero_mass() {
        let schema = SchemaBuilder::new()
            .metric("a", Tier::Web, MetricKind::Count)
            .build();
        let mut store = SeriesStore::new(schema.clone(), 8);
        store.push(Sample::zeroed(&schema, 0));
        let w = store.window(WindowSpec::latest(1)).unwrap();
        assert!(w.distribution(&[schema.expect_id("a")]).is_none());
    }

    #[test]
    fn summary_and_max_agree_with_column() {
        let (schema, store) = setup();
        let w = store.window(WindowSpec::latest(5)).unwrap();
        let lat = schema.expect_id("lat");
        let summary = w.summary(lat);
        let column: Vec<f64> = store.iter().skip(5).map(|s| s.get(lat)).collect();
        assert_eq!(column, [105.0, 106.0, 107.0, 108.0, 109.0]);
        assert_eq!(summary.max, column.iter().copied().fold(f64::MIN, f64::max));
        assert_eq!(summary.min, column[0]);
        assert_eq!(summary.mean, w.mean(lat));
        assert_eq!(summary.count, column.len());
    }
}
