//! K-means clustering synopsis.
//!
//! The paper's description (Section 5.2): "K-means clustering works by
//! partitioning the failure data points collected so far into clusters based
//! on the successful fix found for each point.  A representative data point
//! is computed for each cluster, e.g., the mean of all points in the
//! cluster.  Each new failure data point *f* is mapped to the cluster whose
//! representative point is closest to *f*, and the corresponding fix is
//! recommended for *f*.  The clustering is redone after each failure is
//! fixed successfully."
//!
//! Two variants are provided:
//!
//! * [`KMeans`] in *label-partition* mode (the default, matching the paper's
//!   wording): one cluster per observed label whose representative is the
//!   mean of that label's points.  This is effectively a nearest-centroid
//!   classifier; its accuracy plateaus when classes are not unimodal blobs,
//!   which is exactly the behaviour Figure 4 shows (k-means converging to
//!   ~87% while the other synopses reach ~98%).
//! * [`KMeans`] in *lloyd* mode: classic unsupervised Lloyd iterations with
//!   `k` centroids, each cluster voting its majority label.  Used by the
//!   correlation-analysis diagnosis ("by clustering the data as in \[8\]") and
//!   by the ablation benchmarks.

use crate::dataset::Dataset;
use crate::distance::Distance;
use crate::{Classifier, Label};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// How the clusters are formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum ClusterMode {
    /// One cluster per label; representative = mean of the label's points
    /// (the paper's description of the k-means synopsis).
    LabelPartition,
    /// Classic unsupervised Lloyd's algorithm with `k` clusters; each
    /// cluster is labelled by majority vote of its members.
    Lloyd {
        /// Number of clusters.
        k: usize,
        /// Maximum number of Lloyd iterations.
        max_iters: usize,
    },
}

/// A cluster: its centroid, its label, and how many points it represents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    /// Mean of the member points.
    pub centroid: Vec<f64>,
    /// Label recommended for points mapped to this cluster.
    pub label: Label,
    /// Number of member points.
    pub size: usize,
}

/// K-means synopsis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KMeans {
    mode: ClusterMode,
    metric: Distance,
    seed: u64,
    clusters: Vec<Cluster>,
    last_fit_cost: u64,
}

impl KMeans {
    /// Creates the paper's label-partition k-means synopsis.
    pub fn new() -> Self {
        KMeans {
            mode: ClusterMode::LabelPartition,
            metric: Distance::Euclidean,
            seed: 0x5e1f_4ea1,
            clusters: Vec::new(),
            last_fit_cost: 0,
        }
    }

    /// Creates an unsupervised Lloyd's-algorithm k-means with `k` clusters.
    ///
    /// # Panics
    /// Panics if `k` is zero.
    pub fn lloyd(k: usize, max_iters: usize) -> Self {
        assert!(k > 0, "k must be positive");
        KMeans {
            mode: ClusterMode::Lloyd {
                k,
                max_iters: max_iters.max(1),
            },
            metric: Distance::Euclidean,
            seed: 0x5e1f_4ea1,
            clusters: Vec::new(),
            last_fit_cost: 0,
        }
    }

    /// Sets the seed used for Lloyd initialization.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The fitted clusters.
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    fn fit_label_partition(&mut self, data: &Dataset) {
        let mut by_label: BTreeMap<Label, (Vec<f64>, usize)> = BTreeMap::new();
        for (features, label) in data.iter() {
            let entry = by_label
                .entry(label)
                .or_insert_with(|| (vec![0.0; data.width()], 0));
            for (acc, v) in entry.0.iter_mut().zip(features) {
                *acc += v;
            }
            entry.1 += 1;
        }
        let mut clusters: Vec<Cluster> = by_label
            .into_iter()
            .map(|(label, (mut sums, count))| {
                for s in &mut sums {
                    *s /= count as f64;
                }
                Cluster {
                    centroid: sums,
                    label,
                    size: count,
                }
            })
            .collect();
        clusters.sort_by_key(|c| c.label);
        self.last_fit_cost = data.len() as u64;
        self.clusters = clusters;
    }

    fn fit_lloyd(&mut self, data: &Dataset, k: usize, max_iters: usize) {
        let mut cost = 0u64;
        let examples = data.examples();
        if examples.is_empty() {
            self.clusters = Vec::new();
            self.last_fit_cost = 0;
            return;
        }
        let k = k.min(examples.len());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut indices: Vec<usize> = (0..examples.len()).collect();
        indices.shuffle(&mut rng);
        let mut centroids: Vec<Vec<f64>> = indices
            .iter()
            .take(k)
            .map(|i| examples[*i].features.clone())
            .collect();
        let mut assignment = vec![0usize; examples.len()];

        for _ in 0..max_iters {
            // Assignment step.
            let mut changed = false;
            for (i, e) in examples.iter().enumerate() {
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = self.metric.between(&e.features, centroid);
                    cost += 1;
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                if assignment[i] != best {
                    assignment[i] = best;
                    changed = true;
                }
            }
            // Update step.
            let mut sums = vec![vec![0.0; data.width()]; k];
            let mut counts = vec![0usize; k];
            for (i, e) in examples.iter().enumerate() {
                let c = assignment[i];
                counts[c] += 1;
                for (acc, v) in sums[c].iter_mut().zip(&e.features) {
                    *acc += v;
                }
            }
            for c in 0..k {
                if counts[c] > 0 {
                    for v in &mut sums[c] {
                        *v /= counts[c] as f64;
                    }
                    centroids[c] = sums[c].clone();
                }
            }
            if !changed {
                break;
            }
        }

        // Label each cluster by majority vote.
        let mut clusters = Vec::with_capacity(k);
        for (c, centroid) in centroids.into_iter().enumerate() {
            let mut votes: BTreeMap<Label, usize> = BTreeMap::new();
            let mut size = 0usize;
            for (i, e) in examples.iter().enumerate() {
                if assignment[i] == c {
                    *votes.entry(e.label).or_insert(0) += 1;
                    size += 1;
                }
            }
            if size == 0 {
                continue;
            }
            let label = votes
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map(|(l, _)| l)
                .unwrap_or(0);
            clusters.push(Cluster {
                centroid,
                label,
                size,
            });
        }
        self.last_fit_cost = cost;
        self.clusters = clusters;
    }
}

impl Default for KMeans {
    fn default() -> Self {
        Self::new()
    }
}

impl Classifier for KMeans {
    fn fit(&mut self, data: &Dataset) {
        match self.mode {
            ClusterMode::LabelPartition => self.fit_label_partition(data),
            ClusterMode::Lloyd { k, max_iters } => self.fit_lloyd(data, k, max_iters),
        }
    }

    fn predict(&self, features: &[f64]) -> Label {
        self.predict_with_confidence(features).0
    }

    fn predict_with_confidence(&self, features: &[f64]) -> (Label, f64) {
        if self.clusters.is_empty() {
            return (0, 0.0);
        }
        let mut best: Option<(f64, &Cluster)> = None;
        let mut second_best = f64::INFINITY;
        for cluster in &self.clusters {
            let d = self.metric.between(features, &cluster.centroid);
            match best {
                None => best = Some((d, cluster)),
                Some((bd, _)) if d < bd => {
                    second_best = bd;
                    best = Some((d, cluster));
                }
                Some(_) => second_best = second_best.min(d),
            }
        }
        let (best_d, cluster) = best.expect("nonempty clusters");
        // Confidence: how much closer the winning centroid is than the
        // runner-up (1.0 when unambiguous, 0.5 when equidistant).
        let confidence = if self.clusters.len() == 1 || !second_best.is_finite() {
            1.0
        } else if best_d + second_best <= f64::EPSILON {
            0.5
        } else {
            (second_best / (best_d + second_best)).clamp(0.0, 1.0)
        };
        (cluster.label, confidence)
    }

    fn last_fit_cost(&self) -> u64 {
        self.last_fit_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Example;

    fn blob_data() -> Dataset {
        let mut examples = Vec::new();
        for i in 0..10 {
            let jitter = i as f64 * 0.01;
            examples.push(Example::new(vec![0.0 + jitter, 0.0 - jitter], 0));
            examples.push(Example::new(vec![5.0 + jitter, 5.0 - jitter], 1));
            examples.push(Example::new(vec![10.0 + jitter, 0.0 + jitter], 2));
        }
        Dataset::from_examples(examples)
    }

    #[test]
    fn label_partition_builds_one_cluster_per_label() {
        let mut km = KMeans::new();
        km.fit(&blob_data());
        assert_eq!(km.clusters().len(), 3);
        for c in km.clusters() {
            assert_eq!(c.size, 10);
        }
    }

    #[test]
    fn label_partition_classifies_blob_points() {
        let mut km = KMeans::new();
        km.fit(&blob_data());
        assert_eq!(km.predict(&[0.1, 0.1]), 0);
        assert_eq!(km.predict(&[5.2, 4.8]), 1);
        assert_eq!(km.predict(&[9.8, 0.2]), 2);
    }

    #[test]
    fn confidence_reflects_ambiguity() {
        let mut km = KMeans::new();
        km.fit(&blob_data());
        let (_, confident) = km.predict_with_confidence(&[0.0, 0.0]);
        let (_, ambiguous) = km.predict_with_confidence(&[2.5, 2.5]);
        assert!(confident > ambiguous);
    }

    #[test]
    fn lloyd_recovers_well_separated_clusters() {
        let mut km = KMeans::lloyd(3, 50).with_seed(42);
        km.fit(&blob_data());
        assert!(km.clusters().len() >= 2);
        assert_eq!(km.predict(&[0.0, 0.0]), 0);
        assert_eq!(km.predict(&[10.0, 0.0]), 2);
        assert!(Classifier::last_fit_cost(&km) > 0);
    }

    #[test]
    fn empty_model_predicts_default_label() {
        let km = KMeans::new();
        assert_eq!(km.predict_with_confidence(&[1.0, 2.0]), (0, 0.0));
    }

    #[test]
    fn lloyd_handles_k_larger_than_dataset() {
        let mut km = KMeans::lloyd(10, 10);
        let data =
            Dataset::from_examples(vec![Example::new(vec![0.0], 0), Example::new(vec![1.0], 1)]);
        km.fit(&data);
        assert!(km.clusters().len() <= 2);
    }

    #[test]
    fn refitting_replaces_clusters() {
        let mut km = KMeans::new();
        km.fit(&blob_data());
        let data2 = Dataset::from_examples(vec![Example::new(vec![100.0, 100.0], 9)]);
        km.fit(&data2);
        assert_eq!(km.clusters().len(), 1);
        assert_eq!(km.predict(&[0.0, 0.0]), 9);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn lloyd_rejects_zero_k() {
        KMeans::lloyd(0, 10);
    }
}
