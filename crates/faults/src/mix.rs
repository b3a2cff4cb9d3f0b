//! Failure-cause mixes for the three large services of Figure 1.
//!
//! Figure 1 of the paper summarizes the Oppenheimer et al. study of error
//! logs and failure-tracking databases from three large-scale multitier web
//! services: human operator error is "clearly the most prominent source of
//! failures", followed by software, hardware/network, and failures whose
//! cause was never determined.  [`CauseMix`] is a categorical distribution
//! over [`FailureCause`] and [`ServiceProfile`] provides three calibrated
//! mixes (one per surveyed service archetype) plus the mapping from cause to
//! the concrete [`FaultKind`]s that manifest it.

use crate::fault::{FailureCause, FaultKind};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A categorical distribution over failure causes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CauseMix {
    weights: Vec<(FailureCause, f64)>,
}

impl CauseMix {
    /// Creates a mix from `(cause, weight)` pairs; weights are normalized.
    ///
    /// # Panics
    /// Panics if no pair has positive weight.
    pub(crate) fn new(weights: Vec<(FailureCause, f64)>) -> Self {
        let total: f64 = weights.iter().map(|(_, w)| w.max(0.0)).sum();
        assert!(total > 0.0, "cause mix must have positive total weight");
        let weights = weights
            .into_iter()
            .map(|(c, w)| (c, w.max(0.0) / total))
            .collect();
        CauseMix { weights }
    }

    /// The normalized probability of each cause.
    pub fn probabilities(&self) -> &[(FailureCause, f64)] {
        &self.weights
    }

    /// Samples a cause according to the mix.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> FailureCause {
        let mut r: f64 = rng.gen_range(0.0..1.0);
        for (cause, w) in &self.weights {
            if r < *w {
                return *cause;
            }
            r -= *w;
        }
        self.weights.last().expect("nonempty mix").0
    }
}

/// The three service archetypes whose failure demographics Figure 1 reports.
///
/// The study anonymized the services as "Online", "Content", and "ReadMostly";
/// we keep those names.  The proportions below are calibrated to the
/// qualitative shape of Figure 1 (operator error dominant, then software,
/// with hardware/network and unknown causes making up the rest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ServiceProfile {
    /// An online transactional service (auctions / commerce).
    Online,
    /// A content-serving service.
    Content,
    /// A read-mostly service (search-like).
    ReadMostly,
}

impl ServiceProfile {
    /// All profiles.
    pub const ALL: [ServiceProfile; 3] = [
        ServiceProfile::Online,
        ServiceProfile::Content,
        ServiceProfile::ReadMostly,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ServiceProfile::Online => "Online",
            ServiceProfile::Content => "Content",
            ServiceProfile::ReadMostly => "ReadMostly",
        }
    }

    /// The failure-cause mix of this service archetype.
    pub fn cause_mix(self) -> CauseMix {
        match self {
            ServiceProfile::Online => CauseMix::new(vec![
                (FailureCause::Operator, 0.42),
                (FailureCause::Software, 0.25),
                (FailureCause::Hardware, 0.10),
                (FailureCause::Network, 0.13),
                (FailureCause::Unknown, 0.10),
            ]),
            ServiceProfile::Content => CauseMix::new(vec![
                (FailureCause::Operator, 0.36),
                (FailureCause::Software, 0.30),
                (FailureCause::Hardware, 0.09),
                (FailureCause::Network, 0.15),
                (FailureCause::Unknown, 0.10),
            ]),
            ServiceProfile::ReadMostly => CauseMix::new(vec![
                (FailureCause::Operator, 0.33),
                (FailureCause::Software, 0.20),
                (FailureCause::Hardware, 0.12),
                (FailureCause::Network, 0.25),
                (FailureCause::Unknown, 0.10),
            ]),
        }
    }

    /// The concrete fault kinds through which a cause manifests in this
    /// service, with relative weights.
    ///
    /// Operator errors frequently *manifest* as one of the Table 1 software
    /// symptoms (e.g. a misconfigured buffer shows up as buffer contention),
    /// which is why the healing layer cannot simply read the cause off the
    /// symptoms.
    pub(crate) fn kinds_for_cause(self, cause: FailureCause) -> Vec<(FaultKind, f64)> {
        match cause {
            FailureCause::Operator => vec![
                (FaultKind::OperatorMisconfiguration, 0.6),
                (FaultKind::OperatorProceduralError, 0.4),
            ],
            FailureCause::Hardware => vec![(FaultKind::HardwareFailure, 1.0)],
            FailureCause::Network => vec![(FaultKind::NetworkPartition, 1.0)],
            FailureCause::Unknown => vec![
                (FaultKind::SourceCodeBug, 0.5),
                (FaultKind::SoftwareAging, 0.5),
            ],
            FailureCause::Software => match self {
                ServiceProfile::Online => vec![
                    (FaultKind::DeadlockedThreads, 0.18),
                    (FaultKind::UnhandledException, 0.17),
                    (FaultKind::SoftwareAging, 0.10),
                    (FaultKind::SuboptimalQueryPlan, 0.18),
                    (FaultKind::TableBlockContention, 0.12),
                    (FaultKind::BufferContention, 0.10),
                    (FaultKind::BottleneckedTier, 0.10),
                    (FaultKind::SourceCodeBug, 0.05),
                ],
                ServiceProfile::Content => vec![
                    (FaultKind::DeadlockedThreads, 0.10),
                    (FaultKind::UnhandledException, 0.20),
                    (FaultKind::SoftwareAging, 0.20),
                    (FaultKind::SuboptimalQueryPlan, 0.10),
                    (FaultKind::TableBlockContention, 0.05),
                    (FaultKind::BufferContention, 0.10),
                    (FaultKind::BottleneckedTier, 0.15),
                    (FaultKind::SourceCodeBug, 0.10),
                ],
                ServiceProfile::ReadMostly => vec![
                    (FaultKind::DeadlockedThreads, 0.08),
                    (FaultKind::UnhandledException, 0.12),
                    (FaultKind::SoftwareAging, 0.15),
                    (FaultKind::SuboptimalQueryPlan, 0.20),
                    (FaultKind::TableBlockContention, 0.10),
                    (FaultKind::BufferContention, 0.15),
                    (FaultKind::BottleneckedTier, 0.15),
                    (FaultKind::SourceCodeBug, 0.05),
                ],
            },
        }
    }

    /// Samples a concrete fault kind for this service: first a cause from the
    /// cause mix, then a kind that manifests that cause.
    pub fn sample_kind<R: Rng + ?Sized>(self, rng: &mut R) -> (FailureCause, FaultKind) {
        let cause = self.cause_mix().sample(rng);
        let kinds = self.kinds_for_cause(cause);
        let total: f64 = kinds.iter().map(|(_, w)| w).sum();
        let mut r: f64 = rng.gen_range(0.0..total);
        for (kind, w) in &kinds {
            if r < *w {
                return (cause, *kind);
            }
            r -= *w;
        }
        (cause, kinds.last().expect("nonempty kinds").0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl CauseMix {
        /// Probability of one cause (0.0 if absent from the mix).
        pub(crate) fn probability(&self, cause: FailureCause) -> f64 {
            self.weights
                .iter()
                .find(|(c, _)| *c == cause)
                .map(|(_, w)| *w)
                .unwrap_or(0.0)
        }
    }

    #[test]
    fn mixes_are_normalized_and_operator_dominates() {
        for profile in ServiceProfile::ALL {
            let mix = profile.cause_mix();
            let total: f64 = mix.probabilities().iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-12, "{}", profile.name());
            let (dominant, _) = mix
                .probabilities()
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("nonempty mix");
            assert_eq!(*dominant, FailureCause::Operator, "{}", profile.name());
        }
    }

    #[test]
    fn sampled_cause_frequencies_match_probabilities() {
        let mut rng = StdRng::seed_from_u64(7);
        let mix = ServiceProfile::Online.cause_mix();
        let n = 20_000;
        let mut operator = 0usize;
        for _ in 0..n {
            if mix.sample(&mut rng) == FailureCause::Operator {
                operator += 1;
            }
        }
        let freq = operator as f64 / n as f64;
        let expected = mix.probability(FailureCause::Operator);
        assert!(
            (freq - expected).abs() < 0.02,
            "freq {freq} vs expected {expected}"
        );
    }

    #[test]
    fn kinds_for_cause_map_to_matching_cause_category() {
        for profile in ServiceProfile::ALL {
            for cause in [
                FailureCause::Operator,
                FailureCause::Hardware,
                FailureCause::Network,
            ] {
                for (kind, _) in profile.kinds_for_cause(cause) {
                    assert_eq!(kind.cause(), cause, "{kind} should manifest {cause}");
                }
            }
            // Software kinds are all Table 1 classes.
            for (kind, _) in profile.kinds_for_cause(FailureCause::Software) {
                assert!(FaultKind::TABLE1.contains(&kind));
            }
        }
    }

    #[test]
    fn sample_kind_is_deterministic_under_a_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(
                ServiceProfile::Content.sample_kind(&mut a),
                ServiceProfile::Content.sample_kind(&mut b)
            );
        }
    }

    #[test]
    fn probability_of_missing_cause_is_zero() {
        let mix = CauseMix::new(vec![(FailureCause::Operator, 1.0)]);
        assert_eq!(mix.probability(FailureCause::Hardware), 0.0);
        assert_eq!(mix.probability(FailureCause::Operator), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn zero_weight_mix_is_rejected() {
        CauseMix::new(vec![(FailureCause::Operator, 0.0)]);
    }
}
