//! Symptom extraction: turning raw metric samples into the failure data
//! points the synopses classify.
//!
//! FixSym (Section 4.3.4) "identifies a subset Ω of attributes in X1,...,Xn
//! that classify the symptoms of working and failed states of the service in
//! the best manner; the values of attributes in Ω denote the signature of
//! these states."  In this implementation the signature is the *scale-free*
//! deviation of every metric from its healthy baseline: the ratio of the
//! metric's mean over a short recent window to its mean over the baseline
//! established while the service was healthy.  This matches the
//! representation used by the simulator's failure-state generator, so
//! synopses trained offline (preproduction active stimulation) transfer
//! directly to online healing.

use selfheal_telemetry::{Sample, Schema, Value};
use std::collections::VecDeque;

/// Ratio features are clipped to this range (matching the generator).
const RATIO_CLIP: f64 = 25.0;

/// Maintains a healthy baseline and produces symptom vectors.
#[derive(Debug, Clone)]
pub(crate) struct SymptomExtractor {
    width: usize,
    baseline_target: usize,
    window: usize,
    baseline_sums: Vec<f64>,
    baseline_count: u64,
    frozen: bool,
    recent: VecDeque<Vec<Value>>,
}

impl SymptomExtractor {
    /// Creates an extractor for samples of `schema`, establishing the
    /// baseline from the first `baseline_ticks` *healthy* samples and
    /// summarizing symptoms over a `window`-sample recent window.
    pub(crate) fn new(schema: &Schema, baseline_ticks: usize, window: usize) -> Self {
        SymptomExtractor {
            width: schema.len(),
            baseline_target: baseline_ticks.max(5),
            window: window.max(1),
            baseline_sums: vec![0.0; schema.len()],
            baseline_count: 0,
            frozen: false,
            recent: VecDeque::new(),
        }
    }

    /// Observes one sample.  `healthy` should be `false` while the service
    /// is in (or suspected to be in) violation so the baseline is not
    /// contaminated — the paper's warning that "the baseline behavior may
    /// need to be captured when the service is not experiencing significant
    /// failures".
    pub(crate) fn observe(&mut self, sample: &Sample, healthy: bool) {
        debug_assert_eq!(sample.width(), self.width);
        if !self.frozen && healthy {
            for (acc, v) in self.baseline_sums.iter_mut().zip(sample.values()) {
                *acc += v;
            }
            self.baseline_count += 1;
            if self.baseline_count >= self.baseline_target as u64 {
                self.frozen = true;
            }
        }
        // A full window hands its oldest row back to hold the newest.
        let mut row = Vec::new();
        if self.recent.len() == self.window {
            row = self.recent.pop_front().unwrap_or_default();
        }
        sample.values().clone_into(&mut row);
        self.recent.push_back(row);
    }

    /// The healthy baseline mean of every metric (zeros until at least one
    /// healthy sample has been observed).
    pub(crate) fn baseline_means(&self) -> Vec<Value> {
        if self.baseline_count == 0 {
            return vec![0.0; self.width];
        }
        self.baseline_sums
            .iter()
            .map(|s| s / self.baseline_count as f64)
            .collect()
    }

    /// The current symptom vector: per-metric ratio of the recent-window
    /// mean to the baseline mean, clipped to `[0, 25]`.  Returns `None`
    /// until both a baseline and at least one recent sample exist.
    pub(crate) fn symptoms(&self) -> Option<Vec<Value>> {
        if self.baseline_count == 0 || self.recent.is_empty() {
            return None;
        }
        let baseline = self.baseline_means();
        let n = self.recent.len() as f64;
        let mut means = vec![0.0; self.width];
        for row in &self.recent {
            for (acc, v) in means.iter_mut().zip(row) {
                *acc += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        Some(
            means
                .iter()
                .zip(&baseline)
                .map(|(current, base)| ((current + 1e-3) / (base + 1e-3)).clamp(0.0, RATIO_CLIP))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_telemetry::{MetricKind, SchemaBuilder, Tier};

    impl SymptomExtractor {
        /// Number of metrics per symptom vector.
        pub(crate) fn width(&self) -> usize {
            self.width
        }

        /// Returns `true` once the baseline has been established.
        pub(crate) fn baseline_ready(&self) -> bool {
            self.frozen || self.baseline_count >= self.baseline_target as u64
        }
    }

    fn schema() -> Schema {
        SchemaBuilder::new()
            .metric("a", Tier::Service, MetricKind::LatencyMs)
            .metric("b", Tier::Database, MetricKind::Ratio)
            .build()
    }

    fn sample(schema: &Schema, tick: u64, a: f64, b: f64) -> Sample {
        let mut s = Sample::zeroed(schema, tick);
        s.set(schema.expect_id("a"), a);
        s.set(schema.expect_id("b"), b);
        s
    }

    #[test]
    fn baseline_freezes_after_enough_healthy_samples() {
        let sc = schema();
        let mut e = SymptomExtractor::new(&sc, 5, 3);
        assert!(!e.baseline_ready());
        for t in 0..5 {
            e.observe(&sample(&sc, t, 100.0, 0.02), true);
        }
        assert!(e.baseline_ready());
        // Later "healthy" samples no longer shift the baseline.
        for t in 5..20 {
            e.observe(&sample(&sc, t, 1_000.0, 0.9), true);
        }
        let baseline = e.baseline_means();
        assert!((baseline[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn symptoms_are_ratios_against_the_baseline() {
        let sc = schema();
        let mut e = SymptomExtractor::new(&sc, 5, 2);
        for t in 0..5 {
            e.observe(&sample(&sc, t, 100.0, 0.5), true);
        }
        for t in 5..7 {
            e.observe(&sample(&sc, t, 300.0, 0.5), false);
        }
        let symptoms = e.symptoms().unwrap();
        assert!(
            (symptoms[0] - 3.0).abs() < 0.01,
            "metric a tripled: {}",
            symptoms[0]
        );
        assert!(
            (symptoms[1] - 1.0).abs() < 0.01,
            "metric b unchanged: {}",
            symptoms[1]
        );
    }

    #[test]
    fn unhealthy_samples_do_not_contaminate_the_baseline() {
        let sc = schema();
        let mut e = SymptomExtractor::new(&sc, 5, 2);
        e.observe(&sample(&sc, 0, 100.0, 0.5), true);
        for t in 1..10 {
            e.observe(&sample(&sc, t, 10_000.0, 0.9), false);
        }
        let baseline = e.baseline_means();
        assert!((baseline[0] - 100.0).abs() < 1e-9);
        assert!(!e.baseline_ready(), "only one healthy sample so far");
    }

    #[test]
    fn symptoms_follow_the_window_after_it_has_turned_over() {
        let sc = schema();
        let at = |t: u64| sample(&sc, t, 100.0 + 7.0 * t as f64, 0.1 * t as f64);
        let mut recycling = SymptomExtractor::new(&sc, 5, 3);
        for t in 0..11 {
            recycling.observe(&at(t), true);
        }
        // An extractor that saw the same baseline and then only the last
        // three samples holds the same window in rows it never recycled.
        let mut fresh = SymptomExtractor::new(&sc, 5, 3);
        for t in 0..5 {
            fresh.observe(&at(t), true);
        }
        fresh.recent.clear();
        for t in 8..11 {
            fresh.observe(&at(t), true);
        }
        assert_eq!(recycling.recent, fresh.recent);
        assert_eq!(recycling.symptoms(), fresh.symptoms());
    }

    #[test]
    fn symptoms_are_clipped_and_none_before_any_data() {
        let sc = schema();
        let mut e = SymptomExtractor::new(&sc, 5, 2);
        assert!(e.symptoms().is_none());
        e.observe(&sample(&sc, 0, 1.0, 0.001), true);
        e.observe(&sample(&sc, 1, 1_000_000.0, 0.001), false);
        let symptoms = e.symptoms().unwrap();
        assert!(symptoms[0] <= 25.0);
        assert_eq!(e.width(), 2);
    }
}
