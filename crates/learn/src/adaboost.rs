//! AdaBoost ensemble synopsis.
//!
//! "Adaboost is an ensemble learning technique that can produce accurate
//! predictions by combining many simple and moderately inaccurate synopses
//! (or weak learners). ... The number 60 for Adaboost in Figure 4 and Table
//! 3 is the optimal value in our setting for Adaboost's single configuration
//! parameter, namely, the number of weak learners combined to generate the
//! final synopsis." (Section 5.2.)
//!
//! This is the multi-class SAMME variant of AdaBoost (Zhu et al.) over
//! [`DecisionStump`] weak learners, which reduces to the classic Freund &
//! Schapire algorithm for two classes.  Training cost scales with
//! `rounds × examples × features × distinct thresholds`, which is what makes
//! the ensemble synopsis one to two orders of magnitude more expensive to
//! generate than nearest neighbor or k-means (Table 3) while reaching higher
//! accuracy with fewer training samples (Figure 4).

use crate::dataset::Dataset;
use crate::stump::DecisionStump;
use crate::{Classifier, Label};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One boosting round: a weak learner and its vote weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct WeightedStump {
    /// The weak learner.
    pub stump: DecisionStump,
    /// The learner's vote weight (alpha).
    pub alpha: f64,
}

/// Multi-class AdaBoost (SAMME) over decision stumps.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaBoost {
    rounds: usize,
    ensemble: Vec<WeightedStump>,
    classes: Vec<Label>,
    last_fit_cost: u64,
}

impl AdaBoost {
    /// Creates an AdaBoost synopsis with `rounds` weak learners.
    ///
    /// # Panics
    /// Panics if `rounds` is zero.
    pub fn new(rounds: usize) -> Self {
        assert!(rounds > 0, "AdaBoost needs at least one round");
        AdaBoost {
            rounds,
            ensemble: Vec::new(),
            classes: Vec::new(),
            last_fit_cost: 0,
        }
    }

    /// Per-class weighted vote scores for a feature vector, normalized to
    /// sum to 1.0 (empty map before fitting).
    ///
    /// Returned as a [`BTreeMap`] so iteration (and the normalization sum,
    /// whose floating-point result depends on summation order) is always in
    /// ascending label order — callers ranking these scores stay
    /// deterministic without re-sorting.
    pub fn class_scores(&self, features: &[f64]) -> BTreeMap<Label, f64> {
        let mut scores: BTreeMap<Label, f64> = BTreeMap::new();
        for member in &self.ensemble {
            *scores.entry(member.stump.predict(features)).or_insert(0.0) += member.alpha;
        }
        let total: f64 = scores.values().sum();
        if total > 0.0 {
            for v in scores.values_mut() {
                *v /= total;
            }
        }
        scores
    }
}

impl Classifier for AdaBoost {
    fn fit(&mut self, data: &Dataset) {
        self.ensemble.clear();
        self.classes = data.labels();
        self.last_fit_cost = 0;
        if data.is_empty() {
            return;
        }
        let n = data.len();
        let k = self.classes.len().max(2) as f64;
        let mut weights = vec![1.0 / n as f64; n];

        for _ in 0..self.rounds {
            let (stump, error, evals) = DecisionStump::fit_weighted(data, &weights);
            self.last_fit_cost += evals;

            // SAMME vote weight; guard the degenerate cases.
            let error = error.clamp(1e-10, 1.0 - 1e-10);
            let alpha = ((1.0 - error) / error).ln() + (k - 1.0).ln();
            if alpha <= 0.0 {
                // Weak learner no better than chance for K classes: stop.
                if self.ensemble.is_empty() {
                    self.ensemble.push(WeightedStump { stump, alpha: 1.0 });
                }
                break;
            }

            // Reweight: misclassified examples get boosted.
            let mut total = 0.0;
            for (i, example) in data.examples().iter().enumerate() {
                let predicted = stump.predict(&example.features);
                if predicted != example.label {
                    weights[i] *= alpha.exp().min(1e12);
                }
                total += weights[i];
            }
            if total > 0.0 {
                for w in &mut weights {
                    *w /= total;
                }
            }

            self.ensemble.push(WeightedStump { stump, alpha });

            // Perfect separation: additional rounds would just duplicate the
            // same stump with saturated weights.
            if error <= 1e-9 {
                break;
            }
        }
    }

    fn predict(&self, features: &[f64]) -> Label {
        self.predict_with_confidence(features).0
    }

    fn predict_with_confidence(&self, features: &[f64]) -> (Label, f64) {
        if self.ensemble.is_empty() {
            return (0, 0.0);
        }
        let scores = self.class_scores(features);
        let (label, score) = scores
            .into_iter()
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("finite scores")
                    .then(b.0.cmp(&a.0))
            })
            .expect("nonempty ensemble yields at least one score");
        (label, score.clamp(0.0, 1.0))
    }

    fn last_fit_cost(&self) -> u64 {
        self.last_fit_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Example;
    use crate::eval::accuracy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    impl AdaBoost {
        /// The paper's configuration: 60 weak learners.
        fn paper_default() -> Self {
            Self::new(60)
        }

        fn rounds(&self) -> usize {
            self.rounds
        }

        fn ensemble(&self) -> &[WeightedStump] {
            &self.ensemble
        }
    }

    /// A dataset with a diagonal decision boundary (`x + y > 1`): a single
    /// axis-aligned stump can only reach ~75% accuracy, but an ensemble of
    /// stumps approximates the diagonal well.
    fn diagonal_data(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut examples = Vec::new();
        for _ in 0..n {
            let x: f64 = rng.gen_range(0.0..1.0);
            let y: f64 = rng.gen_range(0.0..1.0);
            let label = usize::from(x + y > 1.0);
            examples.push(Example::new(vec![x, y], label));
        }
        Dataset::from_examples(examples)
    }

    fn three_class_blobs(n_per_class: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers = [(0.0, 0.0), (5.0, 5.0), (10.0, 0.0)];
        let mut examples = Vec::new();
        for (label, (cx, cy)) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                let x = cx + rng.gen_range(-1.0..1.0);
                let y = cy + rng.gen_range(-1.0..1.0);
                examples.push(Example::new(vec![x, y], label));
            }
        }
        Dataset::from_examples(examples)
    }

    #[test]
    fn boosting_beats_a_single_stump_on_a_diagonal_boundary() {
        let train = diagonal_data(300, 1);
        let test = diagonal_data(200, 2);

        let mut single = AdaBoost::new(1);
        single.fit(&train);
        let single_acc = accuracy(&single, &test);

        let mut boosted = AdaBoost::new(60);
        boosted.fit(&train);
        let boosted_acc = accuracy(&boosted, &test);

        assert!(
            boosted_acc > single_acc + 0.1,
            "boosted {boosted_acc} should clearly beat single stump {single_acc}"
        );
        assert!(boosted_acc > 0.85, "boosted accuracy {boosted_acc}");
    }

    #[test]
    fn multiclass_blobs_are_classified_accurately() {
        let train = three_class_blobs(40, 3);
        let test = three_class_blobs(40, 4);
        let mut model = AdaBoost::paper_default();
        model.fit(&train);
        let acc = accuracy(&model, &test);
        assert!(acc > 0.9, "three-class accuracy {acc}");
        assert_eq!(model.rounds(), 60);
    }

    #[test]
    fn confidence_is_higher_far_from_the_boundary() {
        let train = three_class_blobs(40, 5);
        let mut model = AdaBoost::new(30);
        model.fit(&train);
        let (_, deep) = model.predict_with_confidence(&[0.0, 0.0]);
        let (_, boundary) = model.predict_with_confidence(&[2.5, 2.5]);
        assert!(deep >= boundary, "deep {deep} vs boundary {boundary}");
    }

    #[test]
    fn fit_cost_grows_with_rounds() {
        let train = diagonal_data(200, 6);
        let mut small = AdaBoost::new(5);
        small.fit(&train);
        let mut large = AdaBoost::new(40);
        large.fit(&train);
        assert!(Classifier::last_fit_cost(&large) > Classifier::last_fit_cost(&small));
        assert!(Classifier::last_fit_cost(&small) > 0);
    }

    #[test]
    fn separable_data_terminates_early_without_panic() {
        let train = Dataset::from_examples(vec![
            Example::new(vec![0.0], 0),
            Example::new(vec![1.0], 0),
            Example::new(vec![10.0], 1),
            Example::new(vec![11.0], 1),
        ]);
        let mut model = AdaBoost::new(60);
        model.fit(&train);
        assert!(model.ensemble().len() < 60, "early stop on separable data");
        assert_eq!(model.predict(&[0.5]), 0);
        assert_eq!(model.predict(&[10.5]), 1);
    }

    #[test]
    fn unfitted_model_returns_default_with_zero_confidence() {
        let model = AdaBoost::new(10);
        assert_eq!(model.predict_with_confidence(&[1.0, 2.0]), (0, 0.0));
    }

    #[test]
    fn class_scores_sum_to_one_after_fit() {
        let train = three_class_blobs(20, 7);
        let mut model = AdaBoost::new(20);
        model.fit(&train);
        let scores = model.class_scores(&[5.0, 5.0]);
        let total: f64 = scores.values().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    /// Regression test for an iteration-order leak: `class_scores` used to
    /// return a `HashMap`, so the normalization sum (floating-point, hence
    /// order-sensitive) and any caller ranking tied scores depended on the
    /// map's per-instance random iteration order.  Two identically fitted
    /// models must now produce bitwise-identical, label-ascending scores.
    #[test]
    fn class_scores_are_label_ordered_and_bitwise_deterministic() {
        let train = three_class_blobs(20, 7);
        let mut a = AdaBoost::new(20);
        let mut b = AdaBoost::new(20);
        a.fit(&train);
        b.fit(&train);
        for probe in [[5.0, 5.0], [0.0, 0.0], [10.0, 0.0]] {
            let sa: Vec<(Label, f64)> = a.class_scores(&probe).into_iter().collect();
            let sb: Vec<(Label, f64)> = b.class_scores(&probe).into_iter().collect();
            assert_eq!(sa, sb, "identically fitted models must score identically");
            assert!(
                sa.windows(2).all(|w| w[0].0 < w[1].0),
                "scores must iterate in ascending label order"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_is_rejected() {
        AdaBoost::new(0);
    }
}
