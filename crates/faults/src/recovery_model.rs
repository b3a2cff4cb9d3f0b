//! Per-cause recovery-time model (Figure 2 of the paper).
//!
//! Figure 2 reports, for the same three services as Figure 1, how long it
//! took to recover from each failure-cause category.  The qualitative shape
//! is: operator-induced failures "tend to take longer to recover, as it is
//! the human component of the system that needs to recover from the failure
//! it has caused", while software and hardware failures recover faster
//! (often via automated restart or failover).
//!
//! [`RecoveryTimeModel`] assigns each [`FailureCause`] a log-normal-ish
//! recovery-time distribution (median + spread), representing the *manual*
//! recovery times observed in the study; the self-healing benchmarks contrast
//! these with the times achieved by the automated policies.

use crate::fault::FailureCause;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Parameters of one cause's recovery-time distribution, in minutes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct RecoveryParams {
    /// Median recovery time, in minutes.
    pub median_minutes: f64,
    /// Multiplicative spread: the 90th percentile is roughly
    /// `median * spread`.
    pub spread: f64,
}

impl RecoveryParams {
    /// Creates a parameter set.
    pub(crate) fn new(median_minutes: f64, spread: f64) -> Self {
        RecoveryParams {
            median_minutes: median_minutes.max(0.1),
            spread: spread.max(1.0),
        }
    }
}

/// Recovery-time model keyed by failure cause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecoveryTimeModel {
    params: BTreeMap<FailureCause, RecoveryParams>,
}

impl RecoveryTimeModel {
    /// The model calibrated to the qualitative shape of Figure 2: operator
    /// errors take the longest to recover (median on the order of hours),
    /// software failures tens of minutes, hardware/network failures less
    /// (failover), unknown causes in between.
    pub fn standard() -> Self {
        let mut params = BTreeMap::new();
        params.insert(FailureCause::Operator, RecoveryParams::new(120.0, 3.0));
        params.insert(FailureCause::Software, RecoveryParams::new(30.0, 2.5));
        params.insert(FailureCause::Hardware, RecoveryParams::new(15.0, 2.0));
        params.insert(FailureCause::Network, RecoveryParams::new(20.0, 2.5));
        params.insert(FailureCause::Unknown, RecoveryParams::new(60.0, 3.0));
        RecoveryTimeModel { params }
    }

    /// Returns the parameters for a cause.
    pub(crate) fn params(&self, cause: FailureCause) -> RecoveryParams {
        *self.params.get(&cause).expect("model covers every cause")
    }

    /// Samples a manual recovery time, in minutes.
    ///
    /// Uses a simple log-normal-like construction: `median * spread^z` where
    /// `z` is a standard-normal-ish value built from the sum of uniform
    /// draws (Irwin–Hall with 6 terms), keeping the crate free of any
    /// distribution dependency.
    pub fn sample_minutes<R: Rng + ?Sized>(&self, cause: FailureCause, rng: &mut R) -> f64 {
        let p = self.params(cause);
        // Irwin-Hall(6) centered: mean 0, variance 0.5; scale to ~N(0,1).
        let z: f64 = (0..6).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 3.0;
        let z = z / std::f64::consts::FRAC_1_SQRT_2;
        (p.median_minutes * p.spread.powf(z * 0.5)).max(0.5)
    }
}

impl Default for RecoveryTimeModel {
    fn default() -> Self {
        RecoveryTimeModel::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl RecoveryTimeModel {
        /// Median manual recovery time for a cause, in minutes.
        pub(crate) fn median_minutes(&self, cause: FailureCause) -> f64 {
            self.params(cause).median_minutes
        }

        /// Samples a manual recovery time, in ticks (one tick = one second of
        /// service time).
        pub(crate) fn sample_ticks<R: Rng + ?Sized>(
            &self,
            cause: FailureCause,
            rng: &mut R,
        ) -> u64 {
            (self.sample_minutes(cause, rng) * 60.0).round() as u64
        }
    }

    #[test]
    fn operator_failures_take_longest_to_recover() {
        let m = RecoveryTimeModel::standard();
        let op = m.median_minutes(FailureCause::Operator);
        for cause in [
            FailureCause::Software,
            FailureCause::Hardware,
            FailureCause::Network,
        ] {
            assert!(
                op > m.median_minutes(cause),
                "operator should exceed {cause}"
            );
        }
    }

    #[test]
    fn sampled_medians_track_configured_medians() {
        let m = RecoveryTimeModel::standard();
        let mut rng = StdRng::seed_from_u64(11);
        for cause in FailureCause::ALL {
            let mut samples: Vec<f64> = (0..4000)
                .map(|_| m.sample_minutes(cause, &mut rng))
                .collect();
            samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let median = samples[samples.len() / 2];
            let expected = m.median_minutes(cause);
            assert!(
                (median - expected).abs() / expected < 0.25,
                "{cause}: sampled median {median} vs configured {expected}"
            );
        }
    }

    #[test]
    fn sampled_times_are_positive_and_ticks_scale_by_60() {
        let m = RecoveryTimeModel::standard();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let minutes = m.sample_minutes(FailureCause::Hardware, &mut rng);
            assert!(minutes > 0.0);
        }
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let ticks = m.sample_ticks(FailureCause::Software, &mut a);
        let minutes = m.sample_minutes(FailureCause::Software, &mut b);
        assert_eq!(ticks, (minutes * 60.0).round() as u64);
    }

    #[test]
    fn params_clamp_degenerate_inputs() {
        let p = RecoveryParams::new(-5.0, 0.2);
        assert!(p.median_minutes > 0.0);
        assert!(p.spread >= 1.0);
    }
}
