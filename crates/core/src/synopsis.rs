//! The synopsis `S` of the FixSym loop: a swappable learned model mapping
//! failure signatures to fixes.
//!
//! Section 5.2 of the paper compares three synopsis implementations —
//! nearest neighbor, k-means, and AdaBoost with 60 weak learners — on
//! accuracy (Figure 4) and time-to-generate (Table 3).  [`Synopsis`] wraps
//! all three behind one interface, records every training example (both
//! successful and failed fixes — "FixSym requires synopses to learn from
//! unsuccessful fixes ... in addition to successful fixes"), and tracks both
//! wall-clock and a deterministic model-operation count for the cost
//! comparison.
//!
//! Failures are a *bounded* memory: a resident service whose faults outrun
//! its healer records failed attempts for as long as it lives, no model is
//! fitted to them and nothing scans them, so a synopsis counts every one
//! per fix and holds only the most recent [`NEGATIVES_KEPT`] as examples.

use crate::snapshot::SynopsisExample;
use selfheal_faults::FixKind;
use selfheal_learn::{AdaBoost, Classifier, Dataset, Example, KMeans, NearestNeighbor};
use std::collections::VecDeque;

/// The fixes already tried for the current failure, which
/// [`Learner::suggest_excluding`] skips.
///
/// The deterministic crates ban `std`'s hash types (their `clippy.toml`):
/// iteration order differs per instance.  This set is the one exception,
/// because implementors outside the workspace name it through `Learner`.
/// Lookups and inserts are order-free, and clippy still refuses `.iter()`
/// and a `for` loop over it.
#[allow(
    clippy::disallowed_types,
    reason = "Learner's public signature names HashSet; iterating it stays banned"
)]
pub type FixExclusions = std::collections::HashSet<FixKind>;

/// A learned failure-signature → fix mapping, abstracted so healing policies
/// work identically against a bare [`Synopsis`] or a
/// [`crate::store::BatchedStore`] handle — one replica's own store or the
/// one its whole fleet shares.
///
/// This is the seam the fleet engine plugs into: [`crate::HybridHealer`],
/// the one online healer, is generic over `Learner`, so one replica's
/// healer can consult — and teach — a synopsis that every other replica in
/// the fleet shares.
pub trait Learner: Send {
    /// Suggests the most probable fix for a failure signature with a
    /// confidence estimate; `None` while nothing has been learned.
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)>;

    /// Suggests the best fix not in `excluded` (fixes already tried for the
    /// current failure).
    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &FixExclusions,
    ) -> Option<(FixKind, f64)>;

    /// Records the outcome of an attempted fix (Figure 3, line 15).
    ///
    /// Implementations may defer the model refit (a store drains queued
    /// updates in batches, one refit per batch); the example must still
    /// become visible to `suggest` eventually.
    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool);

    /// Number of successful-fix examples learned so far.
    fn correct_fixes_learned(&self) -> usize;
}

impl Learner for Synopsis {
    fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        Synopsis::suggest(self, symptoms)
    }

    fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &FixExclusions,
    ) -> Option<(FixKind, f64)> {
        Synopsis::suggest_excluding(self, symptoms, excluded)
    }

    fn record(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        self.update(symptoms, fix, success);
    }

    fn correct_fixes_learned(&self) -> usize {
        Synopsis::correct_fixes_learned(self)
    }
}

/// Which learner backs the synopsis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynopsisKind {
    /// 1-nearest-neighbor over all successfully fixed failures.
    NearestNeighbor,
    /// One cluster per fix, nearest-centroid classification.
    KMeans,
    /// SAMME AdaBoost over decision stumps with the given number of weak
    /// learners (the paper uses 60).
    AdaBoost(usize),
}

impl SynopsisKind {
    /// The three configurations compared in Figure 4 / Table 3.
    pub fn paper_set() -> Vec<SynopsisKind> {
        vec![
            SynopsisKind::AdaBoost(60),
            SynopsisKind::NearestNeighbor,
            SynopsisKind::KMeans,
        ]
    }

    /// Display label used in benchmark output.
    pub fn label(self) -> String {
        match self {
            SynopsisKind::NearestNeighbor => "nearest_neighbor".to_string(),
            SynopsisKind::KMeans => "k_means".to_string(),
            SynopsisKind::AdaBoost(n) => format!("adaboost_{n}"),
        }
    }

    /// Inverse of [`SynopsisKind::label`] — used by the synopsis codec when
    /// loading a saved model.
    pub(crate) fn from_label(label: &str) -> Option<SynopsisKind> {
        match label {
            "nearest_neighbor" => Some(SynopsisKind::NearestNeighbor),
            "k_means" => Some(SynopsisKind::KMeans),
            other => other
                .strip_prefix("adaboost_")
                .and_then(|n| n.parse::<usize>().ok())
                .map(SynopsisKind::AdaBoost),
        }
    }
}

enum Model {
    NearestNeighbor(NearestNeighbor),
    KMeans(KMeans),
    AdaBoost(AdaBoost),
}

impl Model {
    fn as_classifier(&self) -> &dyn Classifier {
        match self {
            Model::NearestNeighbor(m) => m,
            Model::KMeans(m) => m,
            Model::AdaBoost(m) => m,
        }
    }

    fn as_classifier_mut(&mut self) -> &mut dyn Classifier {
        match self {
            Model::NearestNeighbor(m) => m,
            Model::KMeans(m) => m,
            Model::AdaBoost(m) => m,
        }
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Model::NearestNeighbor(_) => write!(f, "Model::NearestNeighbor"),
            Model::KMeans(_) => write!(f, "Model::KMeans"),
            Model::AdaBoost(_) => write!(f, "Model::AdaBoost"),
        }
    }
}

/// How many failed-fix examples a synopsis holds: the most recent ones, in
/// recording order.
pub const NEGATIVES_KEPT: usize = 256;

/// A learned mapping from failure signatures to fixes.
#[derive(Debug)]
pub struct Synopsis {
    model: Model,
    /// Successful (symptom, fix) examples — the positive training set.
    positives: Dataset,
    /// The last [`NEGATIVES_KEPT`] failed fix attempts as (symptom, fix)
    /// pairs, oldest first — kept for the negative knowledge queries and
    /// the noisy-label ablation.
    negatives: VecDeque<Example>,
    /// Every failed attempt ever recorded, counted by fix code.
    failures: [usize; FixKind::ALL.len()],
    training_ops: u64,
    retrains: u64,
}

impl Synopsis {
    /// Creates an empty synopsis of the given kind.
    pub fn new(kind: SynopsisKind) -> Self {
        let model = match kind {
            SynopsisKind::NearestNeighbor => Model::NearestNeighbor(NearestNeighbor::new()),
            SynopsisKind::KMeans => Model::KMeans(KMeans::new()),
            SynopsisKind::AdaBoost(rounds) => Model::AdaBoost(AdaBoost::new(rounds.max(1))),
        };
        Synopsis {
            model,
            positives: Dataset::new(0),
            negatives: VecDeque::new(),
            failures: [0; FixKind::ALL.len()],
            training_ops: 0,
            retrains: 0,
        }
    }

    /// Number of successful-fix training examples seen so far (the x-axis of
    /// Figure 4).
    pub fn correct_fixes_learned(&self) -> usize {
        self.positives.len()
    }

    /// Number of failed fixes recorded (all of them, not only the
    /// [`NEGATIVES_KEPT`] still held as examples).
    pub(crate) fn failed_fixes_recorded(&self) -> usize {
        self.failures.iter().sum()
    }

    /// `(recorded, kept)`: failed fixes recorded, and how many of them are
    /// still held as examples.
    pub(crate) fn failure_memory(&self) -> (usize, usize) {
        (self.failed_fixes_recorded(), self.negatives.len())
    }

    /// Failed fixes recorded per fix, indexed by [`FixKind::code`].
    pub(crate) fn failures_by_fix(&self) -> &[usize] {
        &self.failures
    }

    /// The successful (symptom, fix) training examples, in insertion order —
    /// what the synopsis codec persists so another store can rebuild the
    /// model.
    pub(crate) fn positive_examples(&self) -> &[Example] {
        self.positives.examples()
    }

    /// The failed-fix examples still held — the most recent
    /// [`NEGATIVES_KEPT`] — in insertion order.
    pub(crate) fn negative_examples(&self) -> impl Iterator<Item = &Example> {
        self.negatives.iter()
    }

    /// Cumulative deterministic model-fitting operations (hardware
    /// independent cost proxy for Table 3).
    pub fn training_ops(&self) -> u64 {
        self.training_ops
    }

    /// Records the outcome of an attempted fix and updates the synopsis
    /// (Figure 3, line 15).  Successful fixes become training examples and
    /// trigger a refit; failed fixes are recorded as negative knowledge.
    pub fn update(&mut self, symptoms: &[f64], fix: FixKind, success: bool) {
        if success {
            self.positives
                .push(Example::new(symptoms.to_vec(), fix.code()));
            self.refit();
        } else {
            self.record_failure(Example::new(symptoms.to_vec(), fix.code()));
        }
    }

    /// Counts a failed attempt and holds it in place of the oldest one held
    /// once [`NEGATIVES_KEPT`] are.
    fn record_failure(&mut self, example: Example) {
        self.failures[example.label] += 1;
        if self.negatives.len() == NEGATIVES_KEPT {
            self.negatives.pop_front();
        }
        self.negatives.push_back(example);
    }

    /// Applies a batch of `(symptoms, fix, success)` outcomes with a single
    /// refit at the end (if any outcome was a success).
    ///
    /// This is the drain path of the fleet's shared synopsis: replicas queue
    /// updates cheaply and whichever replica trips the batch threshold pays
    /// for one combined retrain instead of one per example.
    pub fn absorb(&mut self, outcomes: impl IntoIterator<Item = (Vec<f64>, FixKind, bool)>) {
        let mut new_positives = false;
        for (symptoms, fix, success) in outcomes {
            let example = Example::new(symptoms, fix.code());
            if success {
                self.positives.push(example);
                new_positives = true;
            } else {
                self.record_failure(example);
            }
        }
        if new_positives {
            self.refit();
        }
    }

    /// Rebuilds a synopsis of `kind` from recorded outcomes with one refit
    /// and one clone per example it will hold: every success, and the last
    /// [`NEGATIVES_KEPT`] failures — the failures before those are counted,
    /// as they would be by now had each been recorded in turn.
    pub(crate) fn from_examples(kind: SynopsisKind, examples: &[SynopsisExample]) -> Synopsis {
        let mut synopsis = Synopsis::new(kind);
        let failures = examples.iter().filter(|e| !e.success);
        let counted_only = failures.clone().count().saturating_sub(NEGATIVES_KEPT);
        for early in failures.clone().take(counted_only) {
            synopsis.failures[early.fix.code()] += 1;
        }
        let successes = examples.iter().filter(|e| e.success);
        let held = successes.chain(failures.skip(counted_only));
        synopsis.absorb(held.map(|e| (e.symptoms.clone(), e.fix, e.success)));
        synopsis
    }

    fn refit(&mut self) {
        self.model.as_classifier_mut().fit(&self.positives);
        self.training_ops += self.model.as_classifier().last_fit_cost();
        self.retrains += 1;
    }

    /// Suggests the most probable fix for a failure signature, together with
    /// a confidence estimate.  Returns `None` before any successful fix has
    /// been learned.
    ///
    /// For the instance-based nearest-neighbor synopsis the raw majority
    /// vote is always unanimous (k = 1), so the confidence is additionally
    /// discounted by how *far* the nearest stored failure signature is: a
    /// signature unlike anything seen before yields low confidence, which is
    /// what lets hybrid policies detect novel failures and fall back to a
    /// diagnosis-based approach (Section 5.1 of the paper).
    pub fn suggest(&self, symptoms: &[f64]) -> Option<(FixKind, f64)> {
        if self.positives.is_empty() {
            return None;
        }
        let (code, mut confidence) = self.model.as_classifier().predict_with_confidence(symptoms);
        if let Model::NearestNeighbor(nn) = &self.model {
            if let Some((distance, _)) = nn.neighbors(symptoms).first() {
                confidence *= (-distance / 4.0).exp();
            }
        }
        FixKind::from_code(code).map(|fix| (fix, confidence))
    }

    /// Suggests the best fix that is *not* in `excluded` — used by the
    /// FixSym loop to avoid retrying a fix that already failed for the
    /// current failure (line 9 of Figure 3 on subsequent iterations).
    ///
    /// For the instance-based models this re-ranks by voting among the fixes
    /// of the stored examples closest in symptom space; for the ensemble it
    /// uses the per-class vote scores.
    pub(crate) fn suggest_excluding(
        &self,
        symptoms: &[f64],
        excluded: &FixExclusions,
    ) -> Option<(FixKind, f64)> {
        if self.positives.is_empty() {
            return None;
        }
        // Fast path: the primary suggestion is allowed.
        if let Some((fix, confidence)) = self.suggest(symptoms) {
            if !excluded.contains(&fix) {
                return Some((fix, confidence));
            }
        }
        match &self.model {
            Model::AdaBoost(model) => {
                let mut scores: Vec<(usize, f64)> =
                    model.class_scores(symptoms).into_iter().collect();
                // Tie-break equal scores toward the lower label code so the
                // re-ranked suggestion never depends on map iteration order.
                scores.sort_by(|a, b| {
                    b.1.partial_cmp(&a.1)
                        .expect("finite score")
                        .then(a.0.cmp(&b.0))
                });
                for (code, score) in scores {
                    if let Some(fix) = FixKind::from_code(code) {
                        if !excluded.contains(&fix) {
                            return Some((fix, score));
                        }
                    }
                }
                None
            }
            _ => {
                // Rank the labels of the k closest stored examples.
                let mut nn = NearestNeighbor::with_k(self.positives.len().min(25));
                nn.fit(&self.positives);
                let neighbors = nn.neighbors(symptoms);
                let total = neighbors.len() as f64;
                let mut votes: Vec<(usize, f64)> = Vec::new();
                for (_, label) in neighbors {
                    match votes.iter_mut().find(|(l, _)| *l == label) {
                        Some((_, v)) => *v += 1.0,
                        None => votes.push((label, 1.0)),
                    }
                }
                votes.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite vote"));
                for (code, count) in votes {
                    if let Some(fix) = FixKind::from_code(code) {
                        if !excluded.contains(&fix) {
                            return Some((fix, count / total));
                        }
                    }
                }
                None
            }
        }
    }

    /// Accuracy of the current synopsis on a labelled test set (the y-axis
    /// of Figure 4).
    pub fn accuracy_on(&self, test: &Dataset) -> f64 {
        if self.positives.is_empty() || test.is_empty() {
            return 0.0;
        }
        selfheal_learn::accuracy(self.model.as_classifier(), test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Synopsis {
        /// How many times the underlying model has been refitted.
        pub(crate) fn retrains(&self) -> u64 {
            self.retrains
        }
    }

    fn symptom(kind: usize) -> Vec<f64> {
        // Three well-separated symptom archetypes.
        match kind {
            0 => vec![8.0, 1.0, 1.0],
            1 => vec![1.0, 9.0, 1.0],
            _ => vec![1.0, 1.0, 7.0],
        }
    }

    fn train(synopsis: &mut Synopsis, n: usize) {
        let fixes = [
            FixKind::RepartitionMemory,
            FixKind::MicrorebootEjb,
            FixKind::UpdateStatistics,
        ];
        for i in 0..n {
            let class = i % 3;
            let mut s = symptom(class);
            s[0] += (i as f64 * 0.01) % 0.3;
            synopsis.update(&s, fixes[class], true);
        }
    }

    #[test]
    fn all_three_kinds_learn_the_symptom_to_fix_mapping() {
        for kind in SynopsisKind::paper_set() {
            let mut synopsis = Synopsis::new(kind);
            assert!(synopsis.suggest(&symptom(0)).is_none());
            train(&mut synopsis, 30);
            assert_eq!(synopsis.correct_fixes_learned(), 30);
            let (fix, confidence) = synopsis.suggest(&symptom(0)).unwrap();
            assert_eq!(fix, FixKind::RepartitionMemory, "{}", kind.label());
            assert!(confidence > 0.0);
            assert_eq!(
                synopsis.suggest(&symptom(1)).unwrap().0,
                FixKind::MicrorebootEjb
            );
            assert_eq!(
                synopsis.suggest(&symptom(2)).unwrap().0,
                FixKind::UpdateStatistics
            );
        }
    }

    #[test]
    fn failed_fixes_are_recorded_but_do_not_become_positive_examples() {
        let mut synopsis = Synopsis::new(SynopsisKind::NearestNeighbor);
        synopsis.update(&symptom(0), FixKind::KillHungQuery, false);
        assert_eq!(synopsis.correct_fixes_learned(), 0);
        assert_eq!(synopsis.failed_fixes_recorded(), 1);
        assert!(synopsis.suggest(&symptom(0)).is_none());
    }

    #[test]
    fn suggest_excluding_falls_back_to_the_next_best_fix() {
        for kind in SynopsisKind::paper_set() {
            let mut synopsis = Synopsis::new(kind);
            train(&mut synopsis, 30);
            let mut excluded = FixExclusions::new();
            excluded.insert(FixKind::RepartitionMemory);
            let (fix, _) = synopsis.suggest_excluding(&symptom(0), &excluded).unwrap();
            assert_ne!(fix, FixKind::RepartitionMemory, "{}", kind.label());
        }
    }

    #[test]
    fn adaboost_training_cost_dwarfs_nearest_neighbor() {
        let mut nn = Synopsis::new(SynopsisKind::NearestNeighbor);
        let mut ada = Synopsis::new(SynopsisKind::AdaBoost(20));
        train(&mut nn, 30);
        train(&mut ada, 30);
        assert!(
            ada.training_ops() > 50 * nn.training_ops(),
            "ada {} vs nn {}",
            ada.training_ops(),
            nn.training_ops()
        );
        assert_eq!(nn.retrains(), 30);
    }

    #[test]
    fn accuracy_on_a_test_set_reaches_one_for_separable_symptoms() {
        let mut synopsis = Synopsis::new(SynopsisKind::KMeans);
        train(&mut synopsis, 30);
        let mut test = Dataset::new(3);
        test.push(Example::new(symptom(0), FixKind::RepartitionMemory.code()));
        test.push(Example::new(symptom(1), FixKind::MicrorebootEjb.code()));
        test.push(Example::new(symptom(2), FixKind::UpdateStatistics.code()));
        assert_eq!(synopsis.accuracy_on(&test), 1.0);
        assert_eq!(Synopsis::new(SynopsisKind::KMeans).accuracy_on(&test), 0.0);
    }

    #[test]
    fn from_examples_is_recording_each_in_turn_with_one_refit() {
        let outcomes: Vec<SynopsisExample> = (0..2 * NEGATIVES_KEPT + 40)
            .map(|i| {
                let fix = FixKind::ALL[i % FixKind::ALL.len()];
                SynopsisExample::new(vec![i as f64, symptom(i % 3)[0]], fix, i % 5 == 0)
            })
            .collect();
        for cut in [0, 7, NEGATIVES_KEPT, outcomes.len()] {
            let rebuilt = Synopsis::from_examples(SynopsisKind::NearestNeighbor, &outcomes[..cut]);
            let mut recorded = Synopsis::new(SynopsisKind::NearestNeighbor);
            for outcome in &outcomes[..cut] {
                recorded.update(&outcome.symptoms, outcome.fix, outcome.success);
            }
            assert_eq!(rebuilt.positive_examples(), recorded.positive_examples());
            assert!(rebuilt.negative_examples().eq(recorded.negative_examples()));
            assert_eq!(rebuilt.failures_by_fix(), recorded.failures_by_fix());
            assert_eq!(rebuilt.retrains(), u64::from(cut > 0));
            assert_eq!(rebuilt.suggest(&[5.0, 1.0]), recorded.suggest(&[5.0, 1.0]));
        }
    }

    #[test]
    fn labels_round_trip_through_fixkind_codes() {
        let mut synopsis = Synopsis::new(SynopsisKind::NearestNeighbor);
        synopsis.update(&[1.0, 2.0], FixKind::ProvisionResources, true);
        let (fix, _) = synopsis.suggest(&[1.0, 2.0]).unwrap();
        assert_eq!(fix, FixKind::ProvisionResources);
    }
}
