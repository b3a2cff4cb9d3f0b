//! Labelled datasets of feature vectors.

use crate::Label;
use serde::{Deserialize, Serialize};

/// One labelled example: a feature vector and its class label.
///
/// For FixSym, the features are the symptom vector of a failure (the values
/// of the attributes in the signature set Ω) and the label is the code of
/// the fix that repaired it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Example {
    /// Feature values.
    pub features: Vec<f64>,
    /// Class label.
    pub label: Label,
}

impl Example {
    /// Creates an example.
    pub fn new(features: Vec<f64>, label: Label) -> Self {
        Example { features, label }
    }
}

/// A collection of labelled examples with a fixed feature width.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    width: usize,
    examples: Vec<Example>,
}

impl Dataset {
    /// Creates an empty dataset of feature width `width`.
    pub fn new(width: usize) -> Self {
        Dataset {
            width,
            examples: Vec::new(),
        }
    }

    /// Creates a dataset from examples.
    ///
    /// # Panics
    /// Panics if examples have inconsistent widths.
    pub fn from_examples(examples: Vec<Example>) -> Self {
        let width = examples.first().map(|e| e.features.len()).unwrap_or(0);
        let mut ds = Dataset {
            width,
            examples: Vec::new(),
        };
        for e in examples {
            ds.push(e);
        }
        ds
    }

    /// Feature width (number of columns).
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Returns `true` if the dataset has no examples.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Adds an example.
    ///
    /// # Panics
    /// Panics if the feature width does not match (an empty dataset created
    /// with width 0 adopts the width of its first example).
    pub fn push(&mut self, example: Example) {
        if self.examples.is_empty() && self.width == 0 {
            self.width = example.features.len();
        }
        assert_eq!(
            example.features.len(),
            self.width,
            "example width {} does not match dataset width {}",
            example.features.len(),
            self.width
        );
        self.examples.push(example);
    }

    /// Borrow all examples.
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// Iterate over `(features, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&[f64], Label)> {
        self.examples
            .iter()
            .map(|e| (e.features.as_slice(), e.label))
    }

    /// The set of distinct labels present, sorted ascending.
    pub(crate) fn labels(&self) -> Vec<Label> {
        let mut labels: Vec<Label> = self.examples.iter().map(|e| e.label).collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        Dataset::from_examples(vec![
            Example::new(vec![0.0, 1.0, 2.0], 0),
            Example::new(vec![1.0, 1.0, 0.0], 1),
            Example::new(vec![2.0, 1.0, 4.0], 0),
            Example::new(vec![3.0, 1.0, 2.0], 2),
        ])
    }

    #[test]
    fn construction_and_accessors() {
        let d = dataset();
        assert_eq!(d.width(), 3);
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.labels(), vec![0, 1, 2]);
    }

    #[test]
    fn empty_dataset_adopts_first_example_width() {
        let mut d = Dataset::new(0);
        d.push(Example::new(vec![1.0, 2.0], 5));
        assert_eq!(d.width(), 2);
        assert_eq!(d.labels(), vec![5]);
    }

    #[test]
    #[should_panic(expected = "does not match dataset width")]
    fn mismatched_width_is_rejected() {
        let mut d = dataset();
        d.push(Example::new(vec![1.0], 0));
    }

    #[test]
    fn iter_yields_feature_label_pairs() {
        let d = dataset();
        let collected: Vec<Label> = d.iter().map(|(_, l)| l).collect();
        assert_eq!(collected, vec![0, 1, 0, 2]);
    }
}
