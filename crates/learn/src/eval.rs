//! Model evaluation: accuracy on a fixed test set.
//!
//! Figure 4 of the paper plots "the accuracy of the current synopsis
//! computed on a fixed test set comprising 1000 failure states (symptoms)
//! and correct fixes generated by the simulator" against the number of
//! correct fixes seen so far.  [`accuracy`] computes it.

use crate::dataset::Dataset;
use crate::Classifier;

/// Fraction of test examples classified correctly.
pub fn accuracy<C: Classifier + ?Sized>(model: &C, test: &Dataset) -> f64 {
    if test.is_empty() {
        return 0.0;
    }
    let correct = test
        .iter()
        .filter(|(features, label)| model.predict(features) == *label)
        .count();
    correct as f64 / test.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Example;
    use crate::knn::NearestNeighbor;

    fn data() -> Dataset {
        Dataset::from_examples(vec![
            Example::new(vec![0.0], 0),
            Example::new(vec![0.1], 0),
            Example::new(vec![10.0], 1),
            Example::new(vec![10.1], 1),
        ])
    }

    #[test]
    fn accuracy_of_a_perfect_model_is_one() {
        let mut nn = NearestNeighbor::new();
        let d = data();
        nn.fit(&d);
        assert_eq!(accuracy(&nn, &d), 1.0);
        assert_eq!(accuracy(&nn, &Dataset::new(1)), 0.0);
    }
}
