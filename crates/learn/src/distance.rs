//! Distance metrics over feature vectors.

use serde::{Deserialize, Serialize};

/// Distance metric used by the instance-based learners (nearest neighbor and
/// k-means).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub(crate) enum Distance {
    /// Euclidean (L2) distance.
    #[default]
    Euclidean,
}

impl Distance {
    /// Computes the distance between two vectors.
    ///
    /// # Panics
    /// Panics (in debug builds) if the vectors have different lengths.
    pub(crate) fn between(self, a: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(
            a.len(),
            b.len(),
            "distance between vectors of different lengths"
        );
        match self {
            Distance::Euclidean => a
                .iter()
                .zip(b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_hand_computation() {
        let d = Distance::Euclidean.between(&[0.0, 0.0], &[3.0, 4.0]);
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let v = [1.5, -2.0, 7.0];
        assert_eq!(Distance::Euclidean.between(&v, &v), 0.0);
    }

    #[test]
    fn default_is_euclidean() {
        assert_eq!(Distance::default(), Distance::Euclidean);
    }

    #[test]
    fn triangle_inequality_holds_for_euclidean() {
        let a = [0.0, 0.0];
        let b = [1.0, 2.0];
        let c = [3.0, 1.0];
        let ab = Distance::Euclidean.between(&a, &b);
        let bc = Distance::Euclidean.between(&b, &c);
        let ac = Distance::Euclidean.between(&a, &c);
        assert!(ac <= ab + bc + 1e-12);
    }
}
