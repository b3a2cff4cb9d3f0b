//! Decision stumps — the weak learners combined by AdaBoost.
//!
//! A stump is a one-level decision tree: it tests a single feature against a
//! threshold and predicts one label on each side.  Individually a stump is a
//! "simple and moderately inaccurate synopsis" (the paper's phrase for a
//! weak learner); AdaBoost combines many of them into an accurate ensemble.

use crate::dataset::Dataset;
use crate::Label;
use serde::{Deserialize, Serialize};

/// A one-feature threshold classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct DecisionStump {
    /// Index of the feature tested.
    pub feature: usize,
    /// Threshold the feature is compared against.
    pub threshold: f64,
    /// Label predicted when `features[feature] <= threshold`.
    pub below: Label,
    /// Label predicted when `features[feature] > threshold`.
    pub above: Label,
}

impl DecisionStump {
    /// Predicts the label of a feature vector.
    pub(crate) fn predict(&self, features: &[f64]) -> Label {
        if features[self.feature] <= self.threshold {
            self.below
        } else {
            self.above
        }
    }

    /// Fits the stump that minimizes weighted classification error on
    /// `data`, where `weights[i]` is the weight of example `i` (weights need
    /// not be normalized).  Returns the stump, its weighted error, and the
    /// number of candidate (feature, threshold) evaluations performed — the
    /// unit of the deterministic training-cost model used for Table 3.
    ///
    /// Candidate thresholds are the midpoints between consecutive distinct
    /// sorted values of each feature (plus one threshold below the minimum),
    /// which is the standard exhaustive stump search.
    ///
    /// # Panics
    /// Panics if `data` is empty or `weights.len() != data.len()`.
    pub(crate) fn fit_weighted(data: &Dataset, weights: &[f64]) -> (DecisionStump, f64, u64) {
        assert!(!data.is_empty(), "cannot fit a stump on an empty dataset");
        assert_eq!(weights.len(), data.len(), "one weight per example required");

        let labels = data.labels();
        let total_weight: f64 = weights.iter().sum();
        let mut evaluations = 0u64;
        let mut best: Option<(DecisionStump, f64)> = None;

        for feature in 0..data.width() {
            // Sort example indices by this feature's value.
            let mut order: Vec<usize> = (0..data.len()).collect();
            order.sort_by(|a, b| {
                data.examples()[*a].features[feature]
                    .partial_cmp(&data.examples()[*b].features[feature])
                    .expect("finite feature values")
            });

            // Candidate thresholds: below the minimum, then midpoints.
            let mut thresholds = Vec::with_capacity(data.len());
            let first = data.examples()[order[0]].features[feature];
            thresholds.push(first - 1.0);
            for w in order.windows(2) {
                let a = data.examples()[w[0]].features[feature];
                let b = data.examples()[w[1]].features[feature];
                if (b - a).abs() > f64::EPSILON {
                    thresholds.push((a + b) / 2.0);
                }
            }

            for threshold in thresholds {
                // For this split, pick the best label on each side by
                // weighted majority.
                let mut below_weight: Vec<f64> = vec![0.0; labels.len()];
                let mut above_weight: Vec<f64> = vec![0.0; labels.len()];
                for (i, example) in data.examples().iter().enumerate() {
                    let label_idx = labels
                        .iter()
                        .position(|l| *l == example.label)
                        .expect("label present");
                    if example.features[feature] <= threshold {
                        below_weight[label_idx] += weights[i];
                    } else {
                        above_weight[label_idx] += weights[i];
                    }
                }
                evaluations += data.len() as u64;

                let best_below = argmax(&below_weight);
                let best_above = argmax(&above_weight);
                let correct = below_weight[best_below] + above_weight[best_above];
                let error = if total_weight > 0.0 {
                    1.0 - correct / total_weight
                } else {
                    0.5
                };

                let stump = DecisionStump {
                    feature,
                    threshold,
                    below: labels[best_below],
                    above: labels[best_above],
                };
                if best.as_ref().map(|(_, e)| error < *e).unwrap_or(true) {
                    best = Some((stump, error));
                }
            }
        }

        let (stump, error) = best.expect("at least one candidate stump");
        (stump, error.max(0.0), evaluations)
    }
}

fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Example;

    fn separable_data() -> Dataset {
        Dataset::from_examples(vec![
            Example::new(vec![1.0, 50.0], 0),
            Example::new(vec![2.0, 60.0], 0),
            Example::new(vec![3.0, 40.0], 0),
            Example::new(vec![8.0, 55.0], 1),
            Example::new(vec![9.0, 45.0], 1),
            Example::new(vec![10.0, 65.0], 1),
        ])
    }

    #[test]
    fn stump_finds_the_separating_feature() {
        let data = separable_data();
        let weights = vec![1.0; data.len()];
        let (stump, error, evals) = DecisionStump::fit_weighted(&data, &weights);
        assert_eq!(stump.feature, 0, "feature 0 separates the classes");
        assert!(
            error < 1e-9,
            "separable data should give zero error, got {error}"
        );
        assert!(evals > 0);
        for (features, label) in data.iter() {
            assert_eq!(stump.predict(features), label);
        }
    }

    #[test]
    fn weights_steer_the_stump() {
        // Feature 0 separates classes except for one heavily weighted outlier
        // that only feature 1 classifies correctly.
        let data = Dataset::from_examples(vec![
            Example::new(vec![0.0, 0.0], 0),
            Example::new(vec![1.0, 0.0], 0),
            Example::new(vec![10.0, 0.0], 1),
            Example::new(vec![11.0, 0.0], 1),
            // Outlier: low feature 0 but label 1, separable on feature 1.
            Example::new(vec![0.5, 10.0], 1),
        ]);
        let uniform = vec![1.0; data.len()];
        let (stump_uniform, _, _) = DecisionStump::fit_weighted(&data, &uniform);
        assert_eq!(stump_uniform.feature, 0);

        let mut outlier_heavy = vec![0.1; data.len()];
        outlier_heavy[4] = 10.0;
        let (stump_weighted, _, _) = DecisionStump::fit_weighted(&data, &outlier_heavy);
        // With the outlier dominating, the stump must classify it correctly.
        assert_eq!(stump_weighted.predict(&[0.5, 10.0]), 1);
    }

    #[test]
    fn single_class_data_yields_zero_error() {
        let data =
            Dataset::from_examples(vec![Example::new(vec![1.0], 3), Example::new(vec![2.0], 3)]);
        let (stump, error, _) = DecisionStump::fit_weighted(&data, &[1.0, 1.0]);
        assert_eq!(stump.below, 3);
        assert_eq!(stump.above, 3);
        assert!(error.abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_is_rejected() {
        DecisionStump::fit_weighted(&Dataset::new(2), &[]);
    }

    #[test]
    #[should_panic(expected = "one weight per example")]
    fn weight_length_mismatch_is_rejected() {
        let data = separable_data();
        DecisionStump::fit_weighted(&data, &[1.0, 2.0]);
    }
}
