//! One timestamped row of the multidimensional time series.

use crate::metric::MetricId;
use crate::schema::Schema;
use crate::{Tick, Value};
use serde::{Deserialize, Serialize};

/// A single observation of all metrics at one tick.
///
/// A sample is a dense row: it always carries a value for every column of the
/// schema it was created from (missing measurements are represented as 0.0 by
/// the simulator, matching how counters read when nothing happened in the
/// interval).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    tick: Tick,
    values: Vec<Value>,
}

impl Sample {
    /// Creates a sample with every metric set to zero.
    pub fn zeroed(schema: &Schema, tick: Tick) -> Self {
        Sample {
            tick,
            values: vec![0.0; schema.len()],
        }
    }

    /// Overwrites this sample with `other`, keeping its row's allocation.
    pub(crate) fn copy_from(&mut self, other: &Sample) {
        self.tick = other.tick;
        other.values.clone_into(&mut self.values);
    }

    /// The tick at which this sample was collected.
    #[inline]
    pub fn tick(&self) -> Tick {
        self.tick
    }

    /// Number of columns in the sample.
    #[inline]
    pub fn width(&self) -> usize {
        self.values.len()
    }

    /// Reads the value of one metric.
    #[inline]
    pub fn get(&self, id: MetricId) -> Value {
        self.values[id.index()]
    }

    /// Sets the value of one metric.
    #[inline]
    pub fn set(&mut self, id: MetricId, value: Value) {
        self.values[id.index()] = value;
    }

    /// Borrow the full row of values in column order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Returns `true` if every value is finite (no NaN / infinity).
    pub fn is_finite(&self) -> bool {
        self.values.iter().all(|v| v.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{MetricKind, Tier};
    use crate::schema::SchemaBuilder;

    fn schema() -> Schema {
        SchemaBuilder::new()
            .metric("a", Tier::Web, MetricKind::Count)
            .metric("b", Tier::App, MetricKind::Gauge)
            .metric("c", Tier::Database, MetricKind::Ratio)
            .build()
    }

    #[test]
    fn zeroed_sample_has_schema_width() {
        let s = schema();
        let sample = Sample::zeroed(&s, 42);
        assert_eq!(sample.width(), 3);
        assert_eq!(sample.tick(), 42);
        assert!(sample.values().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn set_then_get() {
        let s = schema();
        let a = s.expect_id("a");
        let b = s.expect_id("b");
        let mut sample = Sample::zeroed(&s, 0);
        sample.set(a, 3.0);
        sample.set(b, 7.0);
        sample.set(a, 5.0);
        assert_eq!(sample.get(a), 5.0);
        assert_eq!(sample.get(b), 7.0);
        assert_eq!(sample.values(), [5.0, 7.0, 0.0]);
    }

    #[test]
    fn finiteness_check_detects_nan() {
        let s = schema();
        let mut sample = Sample::zeroed(&s, 0);
        assert!(sample.is_finite());
        sample.set(s.expect_id("b"), f64::NAN);
        assert!(!sample.is_finite());
    }
}
