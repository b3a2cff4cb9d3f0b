//! Nearest-neighbor synopsis.
//!
//! "Nearest neighbor is a simple machine-learning algorithm that maps a new
//! failure data point *f* to the data point *f′* that is closest to *f*
//! among all failure data points observed so far.  The fix recommended for
//! *f* is the fix that worked for *f′*." (Section 5.2 of the paper.)
//!
//! The implementation generalizes to k-NN with majority voting (k = 1 by
//! default, matching the paper) and supports O(1) incremental insertion, so
//! updating the synopsis after each fixed failure is cheap — which is why
//! Table 3 reports its time-to-generate as low.

use crate::dataset::{Dataset, Example};
use crate::distance::Distance;
use crate::{Classifier, Label};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// k-nearest-neighbor classifier (k = 1 reproduces the paper's synopsis).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NearestNeighbor {
    k: usize,
    metric: Distance,
    examples: Vec<Example>,
    last_fit_cost: u64,
}

impl NearestNeighbor {
    /// Creates a 1-nearest-neighbor classifier with Euclidean distance.
    pub fn new() -> Self {
        Self::with_k(1)
    }

    /// Creates a k-nearest-neighbor classifier with Euclidean distance.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn with_k(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        NearestNeighbor {
            k,
            metric: Distance::Euclidean,
            examples: Vec::new(),
            last_fit_cost: 0,
        }
    }

    /// Returns the `k` nearest stored examples to `features`, closest first,
    /// as `(distance, label)` pairs.
    pub fn neighbors(&self, features: &[f64]) -> Vec<(f64, Label)> {
        let mut dists: Vec<(f64, Label)> = self
            .examples
            .iter()
            .map(|e| (self.metric.between(&e.features, features), e.label))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        dists.truncate(self.k);
        dists
    }
}

impl Default for NearestNeighbor {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier for NearestNeighbor {
    fn fit(&mut self, data: &Dataset) {
        self.examples = data.examples().to_vec();
        // "Fitting" a kNN model is just storing the data.
        self.last_fit_cost = data.len() as u64;
    }

    fn predict(&self, features: &[f64]) -> Label {
        self.predict_with_confidence(features).0
    }

    fn predict_with_confidence(&self, features: &[f64]) -> (Label, f64) {
        if self.examples.is_empty() {
            return (0, 0.0);
        }
        let neighbors = self.neighbors(features);
        let mut votes: BTreeMap<Label, usize> = BTreeMap::new();
        for (_, label) in &neighbors {
            *votes.entry(*label).or_insert(0) += 1;
        }
        let (label, count) = votes
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("at least one neighbor");
        (label, count as f64 / neighbors.len() as f64)
    }

    fn last_fit_cost(&self) -> u64 {
        self.last_fit_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_data() -> Dataset {
        // Two well-separated clusters: label 0 near the origin, label 1 near (10, 10).
        Dataset::from_examples(vec![
            Example::new(vec![0.0, 0.1], 0),
            Example::new(vec![0.2, 0.0], 0),
            Example::new(vec![0.1, 0.2], 0),
            Example::new(vec![10.0, 10.1], 1),
            Example::new(vec![10.2, 9.9], 1),
            Example::new(vec![9.9, 10.0], 1),
        ])
    }

    #[test]
    fn one_nn_recovers_cluster_labels() {
        let mut nn = NearestNeighbor::new();
        nn.fit(&training_data());
        assert_eq!(nn.predict(&[0.05, 0.05]), 0);
        assert_eq!(nn.predict(&[9.5, 10.5]), 1);
    }

    #[test]
    fn knn_majority_vote_and_confidence() {
        let mut nn = NearestNeighbor::with_k(3);
        nn.fit(&training_data());
        let (label, confidence) = nn.predict_with_confidence(&[0.0, 0.0]);
        assert_eq!(label, 0);
        assert_eq!(confidence, 1.0);
        // A point between the clusters but closer to cluster 1.
        let (label, confidence) = nn.predict_with_confidence(&[7.0, 7.0]);
        assert_eq!(label, 1);
        assert!(confidence >= 2.0 / 3.0);
    }

    #[test]
    fn neighbors_are_sorted_by_distance() {
        let mut nn = NearestNeighbor::with_k(3);
        nn.fit(&training_data());
        let neighbors = nn.neighbors(&[0.0, 0.0]);
        assert_eq!(neighbors.len(), 3);
        assert!(neighbors[0].0 <= neighbors[1].0);
        assert!(neighbors[1].0 <= neighbors[2].0);
    }

    #[test]
    fn exact_training_point_is_its_own_neighbor() {
        let mut nn = NearestNeighbor::new();
        let data = training_data();
        nn.fit(&data);
        for (features, label) in data.iter() {
            assert_eq!(nn.predict(features), label);
        }
    }

    #[test]
    fn fit_cost_equals_dataset_size() {
        let mut nn = NearestNeighbor::new();
        nn.fit(&training_data());
        assert_eq!(Classifier::last_fit_cost(&nn), 6);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_is_rejected() {
        NearestNeighbor::with_k(0);
    }
}
