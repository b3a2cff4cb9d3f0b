//! Descriptive statistics shared by the diagnosis and learning layers.
//!
//! These are deliberately small, dependency-free routines.  The chi-square and correlation machinery used by
//! the diagnosis engines lives in `selfheal-learn::stats`, which builds on
//! top of these.

use crate::Value;
use serde::{Deserialize, Serialize};

/// Descriptive summary of a set of values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean (0.0 when `count == 0`).
    pub mean: Value,
    /// Population variance (0.0 when `count == 0`).
    pub variance: Value,
    /// Minimum value (0.0 when `count == 0`).
    pub min: Value,
    /// Maximum value (0.0 when `count == 0`).
    pub max: Value,
}

impl Summary {
    /// Computes the summary of `values`.
    pub(crate) fn of(values: &[Value]) -> Self {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                variance: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let count = values.len();
        let mean = values.iter().sum::<Value>() / count as Value;
        let variance = values
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<Value>()
            / count as Value;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            count,
            mean,
            variance,
            min,
            max,
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> Value {
        self.variance.sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.variance - 4.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_of_empty_slice_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }
}
