//! # selfheal-learn
//!
//! A small, from-scratch machine-learning substrate for learning-based
//! self-healing, providing exactly the model families *Toward Self-Healing
//! Multitier Services* (Cook et al., ICDE 2007) evaluates or references:
//!
//! * [`knn::NearestNeighbor`] — the nearest-neighbor synopsis of Section 5.2
//!   (maps a new failure data point to the closest previously seen point and
//!   recommends the fix that worked for it).
//! * [`kmeans::KMeans`] — the k-means synopsis (clusters failure points by
//!   the fix that repaired them and recommends the fix of the nearest
//!   cluster representative).
//! * [`adaboost::AdaBoost`] — the ensemble synopsis (SAMME-style multi-class
//!   AdaBoost over decision stumps; the paper uses 60 weak learners).
//! * [`stats`] — Pearson correlation and the chi-square test used by anomaly
//!   detection (Example 2: "Deviation can be detected, e.g., using the χ²
//!   statistical test").
//! * [`accuracy`] — test-set accuracy, used to regenerate Figure 4 and
//!   Table 3.
//! * [`forecast`] — time-series forecasting for proactive healing
//!   (Section 5.3).
//!
//! The Rust ecosystem has no ML library in the allowed offline crate set,
//! and the three learners the paper compares are fully specified and
//! standard, so implementing them here keeps the reproduction self-contained
//! and deterministic (all randomized routines take a caller-provided
//! [`rand::Rng`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod adaboost;
pub(crate) mod dataset;
pub(crate) mod distance;
pub(crate) mod eval;
pub mod forecast;
pub(crate) mod kmeans;
pub(crate) mod knn;
pub mod stats;
pub(crate) mod stump;

pub use adaboost::AdaBoost;
pub use dataset::{Dataset, Example};
pub use eval::accuracy;
pub use kmeans::KMeans;
pub use knn::NearestNeighbor;

/// A class label (for FixSym synopses: the code of the fix that repaired the
/// failure; see `selfheal_faults::FixKind::code`).
pub(crate) type Label = usize;

/// A classifier trained on labelled feature vectors.
///
/// All synopsis models implement this trait; the FixSym engine programs
/// against it so synopses can be swapped (Figure 4 / Table 3 compare three
/// implementations).
pub trait Classifier {
    /// Fits the model to a dataset, replacing any previous state.
    fn fit(&mut self, data: &Dataset);

    /// Predicts the label of a feature vector.
    ///
    /// Models return a default label (0) when asked to predict before any
    /// training data has been seen; the FixSym engine never relies on that
    /// path because it bootstraps the synopsis with at least one example.
    fn predict(&self, features: &[f64]) -> Label;

    /// Predicts a label together with a confidence estimate in `[0, 1]`.
    ///
    /// Confidence estimates enable ranking fixes when combining multiple
    /// approaches (Section 5.2, "Confidence estimates and ranking").
    fn predict_with_confidence(&self, features: &[f64]) -> (Label, f64) {
        (self.predict(features), 0.5)
    }

    /// A deterministic proxy for training cost: the number of elementary
    /// model-fitting operations performed by the last call to
    /// [`Classifier::fit`] (e.g. stump evaluations for AdaBoost, distance
    /// computations for k-means).  Used by the Table 3 harness alongside
    /// wall-clock time so the reported cost ordering is hardware-independent.
    fn last_fit_cost(&self) -> u64 {
        0
    }
}
