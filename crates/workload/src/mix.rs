//! Workload mixes: probability distributions over request kinds.

use crate::request::RequestKind;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A draw of `gen_range(0.0..1.0)` is `k / DRAWS` for an integer `k < DRAWS`.
const DRAWS: u64 = 1 << 53;

/// A probability distribution over [`RequestKind`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadMix {
    name: String,
    weights: Vec<(RequestKind, f64)>,
    /// Per entry but the last, the least draw `k / DRAWS` whose [`scan`]
    /// passes it (1.0 when none does).  Rounded subtraction and `<` are
    /// monotone, so the entry the scan stops at never decreases as `k` grows
    /// and a draw's entry is the number of thresholds it has reached.
    thresholds: Vec<f64>,
}

/// The definition of a draw: the first entry whose weight exceeds what is
/// left of `r` after subtracting the weights before it, else the last.
fn scan(weights: &[(RequestKind, f64)], mut r: f64) -> usize {
    for (i, (_, w)) in weights.iter().enumerate() {
        if r < *w {
            return i;
        }
        r -= *w;
    }
    weights.len() - 1
}

impl WorkloadMix {
    /// Creates a mix from `(kind, weight)` pairs; weights are normalized.
    ///
    /// # Panics
    /// Panics if a weight is not finite or no pair has positive weight.
    pub(crate) fn new(name: impl Into<String>, mut weights: Vec<(RequestKind, f64)>) -> Self {
        let total: f64 = weights.iter().map(|(_, w)| w.max(0.0)).sum();
        assert!(
            total.is_finite() && weights.iter().all(|(_, w)| w.is_finite()),
            "workload mix must have finite weights and a finite total weight"
        );
        assert!(total > 0.0, "workload mix must have positive total weight");
        for (_, w) in &mut weights {
            *w = w.max(0.0) / total;
        }
        // A draw that reaches an entry has reached the ones before it, so
        // each binary search starts where the last one ended.
        let (mut lo, mut thresholds) = (0, Vec::new());
        for entry in 1..weights.len() {
            let mut hi = DRAWS;
            while lo < hi {
                let k = lo + (hi - lo) / 2;
                if scan(&weights, k as f64 / DRAWS as f64) >= entry {
                    hi = k;
                } else {
                    lo = k + 1;
                }
            }
            thresholds.push(lo as f64 / DRAWS as f64);
        }
        WorkloadMix {
            name: name.into(),
            weights,
            thresholds,
        }
    }

    /// The RUBiS *browsing* mix: read-only interactions only.
    pub fn browsing() -> Self {
        WorkloadMix::new(
            "browsing",
            vec![
                (RequestKind::Home, 0.10),
                (RequestKind::Browse, 0.28),
                (RequestKind::Search, 0.22),
                (RequestKind::ViewItem, 0.25),
                (RequestKind::ViewUser, 0.08),
                (RequestKind::Login, 0.04),
                (RequestKind::AboutMe, 0.03),
            ],
        )
    }

    /// The RUBiS *bidding* mix: roughly 15% read-write interactions, which
    /// is the mix the RUBiS bottleneck studies use.
    pub fn bidding() -> Self {
        WorkloadMix::new(
            "bidding",
            vec![
                (RequestKind::Home, 0.06),
                (RequestKind::Browse, 0.20),
                (RequestKind::Search, 0.16),
                (RequestKind::ViewItem, 0.20),
                (RequestKind::ViewUser, 0.07),
                (RequestKind::Bid, 0.11),
                (RequestKind::Buy, 0.03),
                (RequestKind::Sell, 0.05),
                (RequestKind::Register, 0.02),
                (RequestKind::Login, 0.07),
                (RequestKind::AboutMe, 0.03),
            ],
        )
    }

    /// Name of the mix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Samples a request kind: one draw, compared with every threshold.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> RequestKind {
        let r: f64 = rng.gen_range(0.0..1.0);
        let entry: usize = self.thresholds.iter().map(|t| (r >= *t) as usize).sum();
        self.weights[entry].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalProcess, BurstSource, Request, TraceGenerator, TraceSource};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    impl WorkloadMix {
        /// A write-heavy mix used for stress experiments (statistics staleness
        /// builds up fastest under heavy update traffic, Example 5 of the paper).
        pub(crate) fn write_heavy() -> Self {
            WorkloadMix::new(
                "write_heavy",
                vec![
                    (RequestKind::Browse, 0.10),
                    (RequestKind::Search, 0.10),
                    (RequestKind::ViewItem, 0.15),
                    (RequestKind::Bid, 0.30),
                    (RequestKind::Buy, 0.10),
                    (RequestKind::Sell, 0.15),
                    (RequestKind::Register, 0.05),
                    (RequestKind::Login, 0.05),
                ],
            )
        }

        /// Normalized `(kind, probability)` pairs.
        fn probabilities(&self) -> &[(RequestKind, f64)] {
            &self.weights
        }

        /// Probability of one request kind (0.0 when absent).
        fn probability(&self, kind: RequestKind) -> f64 {
            self.weights
                .iter()
                .find(|(k, _)| *k == kind)
                .map(|(_, w)| *w)
                .unwrap_or(0.0)
        }

        /// The fraction of requests that write to the database.
        fn write_fraction(&self) -> f64 {
            self.weights
                .iter()
                .filter(|(k, _)| k.is_write())
                .map(|(_, w)| w)
                .sum()
        }

        /// Expected database demand (ms) of one request drawn from the mix.
        fn expected_db_demand_ms(&self) -> f64 {
            self.weights.iter().map(|(k, w)| k.demand().db_ms * w).sum()
        }
    }

    /// An RNG whose every `gen_range(0.0..1.0)` is `k / DRAWS`.
    struct Draw(u64);

    impl RngCore for Draw {
        fn next_u64(&mut self) -> u64 {
            self.0 << 11
        }
    }

    /// The kind the scan — the definition of a draw — gives `r`.
    fn by_scan(mix: &WorkloadMix, r: f64) -> RequestKind {
        mix.weights[scan(&mix.weights, r)].0
    }

    /// Holds `sample` to the scan at both ends of the draw's range, within
    /// four draws of every threshold, and on `draws` seeded draws.  The
    /// mix's kinds must be distinct, so that equal kinds are equal entries.
    fn assert_sample_is_the_scan(mix: &WorkloadMix, draws: usize) {
        assert_eq!(mix.thresholds.len(), mix.weights.len() - 1);
        assert!(mix.thresholds.windows(2).all(|t| t[0] <= t[1]));
        let near = mix.thresholds.iter().flat_map(|t| {
            let k = (t * DRAWS as f64) as u64;
            assert_eq!(k as f64 / DRAWS as f64, *t);
            k.saturating_sub(4)..=(k + 4).min(DRAWS - 1)
        });
        for k in [0, DRAWS - 1].into_iter().chain(near) {
            let r = k as f64 / DRAWS as f64;
            assert_eq!(mix.sample(&mut Draw(k)), by_scan(mix, r), "k = {k}");
        }
        let mut rng = StdRng::seed_from_u64(draws as u64);
        let mut oracle = rng.clone();
        for _ in 0..draws {
            let r = oracle.gen_range(0.0..1.0);
            assert_eq!(mix.sample(&mut rng), by_scan(mix, r), "r = {r}");
        }
    }

    /// Whether the largest draw passes every entry of the scan, the last
    /// one too: the normalized weights sum to less than it.
    fn falls_through(mix: &WorkloadMix) -> bool {
        let mut r = (DRAWS - 1) as f64 / DRAWS as f64;
        mix.weights.iter().all(|(_, w)| {
            let passed = r >= *w;
            r -= *w;
            passed
        })
    }

    #[test]
    fn sampling_by_thresholds_is_the_scan_on_the_standard_mixes() {
        for mix in [
            WorkloadMix::browsing(),
            WorkloadMix::bidding(),
            WorkloadMix::write_heavy(),
        ] {
            assert_sample_is_the_scan(&mix, 700_000);
        }
        // The weights of `bidding` sum to less than one after rounding.
        assert!(falls_through(&WorkloadMix::bidding()));
        let single = WorkloadMix::new("single", vec![(RequestKind::Bid, 3.0)]);
        assert!(single.thresholds.is_empty());
        assert_sample_is_the_scan(&single, 1_000);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Mixes of 1 to 11 entries whose weights are zero, a repeat of the
        /// entry before, subnormal, dominant or ordinary.
        #[test]
        fn sampling_by_thresholds_is_the_scan_on_any_mix(
            picks in prop::collection::vec((0usize..6, 0.0f64..1.0), 1..12),
        ) {
            let mut weights: Vec<(RequestKind, f64)> = Vec::new();
            for (entry, (shape, x)) in picks.into_iter().enumerate() {
                let weight = match shape {
                    0 => 0.0,
                    1 => weights.last().map_or(x, |(_, w)| *w),
                    2 => f64::from_bits(1 + (x * 1e6) as u64),
                    3 => 1e9 * x,
                    _ => x,
                };
                weights.push((RequestKind::ALL[entry], weight));
            }
            if weights.iter().all(|(_, w)| *w == 0.0) {
                weights[0].1 = 1.0;
            }
            assert_sample_is_the_scan(&WorkloadMix::new("any", weights), 2_000);
        }
    }

    #[test]
    fn sources_emit_what_a_scan_driven_copy_emits() {
        /// The first 10 000 requests of a source seeded with `seed` whose
        /// arrivals at tick `t` follow `arrivals(t)`, every kind scanned.
        fn scanned(seed: u64, arrivals: impl Fn(u64) -> ArrivalProcess) -> Vec<Request> {
            let mix = WorkloadMix::bidding();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut requests = Vec::new();
            for tick in 0.. {
                if requests.len() >= 10_000 {
                    break;
                }
                for _ in 0..arrivals(tick).arrivals(tick, &mut rng) {
                    let kind = by_scan(&mix, rng.gen_range(0.0..1.0));
                    requests.push(Request::new(requests.len() as u64, kind, tick));
                }
            }
            requests.truncate(10_000);
            requests
        }
        fn emitted(mut source: impl TraceSource) -> Vec<Request> {
            let ticks = (0..).flat_map(|tick| source.next_tick(tick));
            ticks.take(10_000).collect()
        }

        let poisson = ArrivalProcess::Poisson { rate: 40.0 };
        let generator = TraceGenerator::new(WorkloadMix::bidding(), poisson.clone(), 17);
        assert_eq!(emitted(generator), scanned(17, |_| poisson.clone()));

        let burst = BurstSource::new(WorkloadMix::bidding(), 10.0, 5.0, 100, 20, 23);
        let rate_at = |tick| ArrivalProcess::Poisson {
            rate: burst.rate_at(tick),
        };
        assert_eq!(emitted(burst.clone()), scanned(23, rate_at));
    }

    #[test]
    fn standard_mixes_are_normalized() {
        for mix in [
            WorkloadMix::browsing(),
            WorkloadMix::bidding(),
            WorkloadMix::write_heavy(),
        ] {
            let total: f64 = mix.probabilities().iter().map(|(_, w)| w).sum();
            assert!((total - 1.0).abs() < 1e-12, "{}", mix.name());
        }
    }

    #[test]
    fn browsing_mix_has_no_writes_and_bidding_mix_does() {
        assert_eq!(WorkloadMix::browsing().write_fraction(), 0.0);
        let bidding = WorkloadMix::bidding().write_fraction();
        assert!(
            bidding > 0.1 && bidding < 0.3,
            "bidding write fraction {bidding}"
        );
        assert!(WorkloadMix::write_heavy().write_fraction() > 0.5);
    }

    #[test]
    fn sampling_matches_probabilities() {
        let mix = WorkloadMix::bidding();
        let mut rng = StdRng::seed_from_u64(21);
        let n = 50_000;
        let mut bids = 0usize;
        for _ in 0..n {
            if mix.sample(&mut rng) == RequestKind::Bid {
                bids += 1;
            }
        }
        let freq = bids as f64 / n as f64;
        assert!((freq - mix.probability(RequestKind::Bid)).abs() < 0.01);
    }

    #[test]
    fn probability_of_absent_kind_is_zero() {
        let mix = WorkloadMix::browsing();
        assert_eq!(mix.probability(RequestKind::Bid), 0.0);
        assert!(mix.probability(RequestKind::Browse) > 0.2);
    }

    #[test]
    fn expected_db_demand_is_positive_and_higher_for_search_heavy_mixes() {
        let browsing = WorkloadMix::browsing().expected_db_demand_ms();
        assert!(browsing > 0.0);
    }

    #[test]
    #[should_panic(expected = "positive total weight")]
    fn empty_mix_is_rejected() {
        WorkloadMix::new("bad", vec![(RequestKind::Home, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "finite weights")]
    fn infinite_weight_is_rejected() {
        let weights = vec![(RequestKind::Home, 1.0), (RequestKind::Bid, f64::INFINITY)];
        WorkloadMix::new("bad", weights);
    }

    #[test]
    #[should_panic(expected = "finite weights")]
    fn nan_weight_is_rejected() {
        let weights = vec![(RequestKind::Home, 1.0), (RequestKind::Bid, f64::NAN)];
        WorkloadMix::new("bad", weights);
    }
}
