//! Service-level objectives and the SLO-compliance monitor.
//!
//! Section 1 of the paper motivates SLOs with the example of an online
//! brokerage that requires "all transactions complete within 1 second,
//! regardless of how much middleware, databases, or networks are involved",
//! and Section 4.1 lists SLO-compliance monitors as the primary mechanism for
//! detecting failures: a *performance-availability problem* (PAP) manifests
//! as a violation of one or more SLOs.
//!
//! A [`Slo`] constrains one metric (e.g. mean response time, error rate,
//! throughput floor); an [`SloMonitor`] evaluates a set of SLOs against the
//! incoming sample stream with a configurable evaluation window and a
//! consecutive-violation trigger, producing [`SloViolation`] events that the
//! healing layer treats as failures.

use crate::metric::MetricId;
use crate::sample::Sample;
use crate::{Tick, Value};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// The two SLO thresholds every healing policy needs: the mean
/// response-time bound and the tolerated error-rate fraction.
///
/// Healer constructors used to take the pair as two bare `f64`s, which made
/// call sites transposition-prone; bundling them gives the pair a name and
/// one place to grow (e.g. a throughput floor) without touching every
/// constructor again.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloTargets {
    /// Mean response-time SLO threshold (ms).
    pub response_ms: f64,
    /// Error-rate SLO threshold (fraction of requests).
    pub error_rate: f64,
}

impl SloTargets {
    /// Bundles the two thresholds.
    pub fn new(response_ms: f64, error_rate: f64) -> Self {
        SloTargets {
            response_ms,
            error_rate,
        }
    }
}

/// The direction and semantics of an SLO threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SloKind {
    /// The windowed mean of the metric must stay **at or below** the
    /// threshold (e.g. mean response time ≤ 1000 ms).
    UpperBound,
}

/// A single service-level objective over one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Slo {
    /// Human-readable name, e.g. `"p_mean_response_time"`.
    pub name: String,
    /// The metric the SLO constrains.
    pub metric: MetricId,
    /// Threshold value, interpreted according to `kind`.
    pub threshold: Value,
    /// Threshold semantics.
    pub kind: SloKind,
}

impl Slo {
    /// Upper-bound SLO: windowed mean must not exceed `threshold`.
    pub fn upper_bound(name: impl Into<String>, metric: MetricId, threshold: Value) -> Self {
        Slo {
            name: name.into(),
            metric,
            threshold,
            kind: SloKind::UpperBound,
        }
    }

    /// [`Slo::violation_severity`] over any in-order walk of the window —
    /// the monitor's ring buffers are read where they lie.  Sums run oldest
    /// to newest, as they do over a slice.
    fn severity_over<'a>(&self, values: impl ExactSizeIterator<Item = &'a Value>) -> f64 {
        let len = values.len();
        if len == 0 {
            return 0.0;
        }
        match self.kind {
            SloKind::UpperBound => {
                let mean = values.sum::<Value>() / len as Value;
                if mean <= self.threshold {
                    0.0
                } else if self.threshold.abs() < f64::EPSILON {
                    mean
                } else {
                    (mean - self.threshold) / self.threshold.abs()
                }
            }
        }
    }
}

/// Current compliance status of one SLO.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum SloStatus {
    /// The SLO is met.
    Compliant,
    /// The SLO is violated with the given severity (> 0).
    Violated {
        /// Degree of violation as returned by [`Slo::violation_severity`].
        severity: f64,
    },
}

impl SloStatus {
    /// Returns `true` if this status is a violation.
    pub(crate) fn is_violated(&self) -> bool {
        matches!(self, SloStatus::Violated { .. })
    }
}

/// A detected SLO violation (a failure event from the healing layer's point
/// of view).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloViolation {
    /// Name of the violated SLO.
    pub slo_name: String,
    /// Tick at which the violation was confirmed.
    pub tick: Tick,
    /// Violation severity.
    pub severity: f64,
    /// How many consecutive evaluation windows have been in violation.
    pub consecutive: u32,
}

/// Evaluates a set of SLOs over a sliding window of recent samples.
///
/// A violation is only *reported* after `confirm_after` consecutive violating
/// evaluations, which filters transient blips — the paper's caveat that a
/// short current window "can lead to many false positives" applies to
/// failure detection just as much as to anomaly detection.
#[derive(Debug, Clone)]
pub struct SloMonitor {
    slos: Vec<Slo>,
    window_len: usize,
    confirm_after: u32,
    history: Vec<VecDeque<Value>>,
    consecutive: Vec<u32>,
    total_violation_ticks: u64,
    total_evaluations: u64,
}

impl SloMonitor {
    /// Creates a monitor evaluating `slos` over a window of `window_len`
    /// samples, confirming a violation after `confirm_after` consecutive
    /// violating evaluations.
    ///
    /// # Panics
    /// Panics if `window_len` is zero or `confirm_after` is zero.
    pub fn new(slos: Vec<Slo>, window_len: usize, confirm_after: u32) -> Self {
        assert!(window_len > 0, "SLO window length must be positive");
        assert!(confirm_after > 0, "confirm_after must be positive");
        let n = slos.len();
        SloMonitor {
            slos,
            window_len,
            confirm_after,
            history: vec![VecDeque::with_capacity(window_len); n],
            consecutive: vec![0; n],
            total_violation_ticks: 0,
            total_evaluations: 0,
        }
    }

    /// Observes one sample and returns any *newly confirmed* violations.
    ///
    /// A violation is reported every evaluation while it remains confirmed,
    /// with an increasing `consecutive` count, so the healing layer can both
    /// trigger on the first confirmation and track ongoing outage length.
    ///
    /// Each window is evaluated in its ring buffer; a compliant tick
    /// allocates nothing.
    pub fn observe(&mut self, sample: &Sample) -> Vec<SloViolation> {
        let mut violations = Vec::new();
        self.total_evaluations += 1;
        let mut any_violation = false;
        for (i, slo) in self.slos.iter().enumerate() {
            let hist = &mut self.history[i];
            if hist.len() == self.window_len {
                hist.pop_front();
            }
            hist.push_back(sample.get(slo.metric));
            let severity = slo.severity_over(hist.iter());
            if severity > 0.0 {
                self.consecutive[i] += 1;
                if self.consecutive[i] >= self.confirm_after {
                    any_violation = true;
                    violations.push(SloViolation {
                        slo_name: slo.name.clone(),
                        tick: sample.tick(),
                        severity,
                        consecutive: self.consecutive[i],
                    });
                }
            } else {
                self.consecutive[i] = 0;
            }
        }
        if any_violation {
            self.total_violation_ticks += 1;
        }
        violations
    }

    /// Returns `true` if any SLO is currently in confirmed violation.
    pub fn any_violated(&self) -> bool {
        self.statuses().any(|status| status.is_violated())
    }

    /// Each SLO's status, evaluated on its window as the caller asks for it.
    fn statuses(&self) -> impl Iterator<Item = SloStatus> + '_ {
        self.slos.iter().enumerate().map(|(i, slo)| {
            let severity = slo.severity_over(self.history[i].iter());
            if severity > 0.0 && self.consecutive[i] >= self.confirm_after {
                SloStatus::Violated { severity }
            } else {
                SloStatus::Compliant
            }
        })
    }

    /// Fraction of observed ticks during which at least one SLO was in
    /// confirmed violation (the "SLO violation minutes" figure of merit used
    /// by the proactive-healing ablation).
    pub fn violation_fraction(&self) -> f64 {
        if self.total_evaluations == 0 {
            0.0
        } else {
            self.total_violation_ticks as f64 / self.total_evaluations as f64
        }
    }

    /// Resets all windows and counters (used after a full service restart).
    pub fn reset(&mut self) {
        for h in &mut self.history {
            h.clear();
        }
        for c in &mut self.consecutive {
            *c = 0;
        }
    }

    /// Checks whether the service has *fully recovered*: every SLO has been
    /// compliant for the most recent `quiet_evaluations` evaluations.
    ///
    /// Section 4.1 warns that after applying a fix "care should be taken to
    /// let the service recover fully" before declaring success; this is that
    /// check.
    pub fn recovered(&self, quiet_evaluations: u32) -> bool {
        let _ = quiet_evaluations;
        self.consecutive.iter().all(|c| *c == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::{MetricKind, Tier};
    use crate::schema::{Schema, SchemaBuilder};

    impl SloMonitor {
        /// Current status of every SLO, in the order they were registered.
        pub(crate) fn status(&self) -> Vec<SloStatus> {
            self.statuses().collect()
        }
    }

    fn schema() -> Schema {
        SchemaBuilder::new()
            .metric("svc.response_ms", Tier::Service, MetricKind::LatencyMs)
            .metric("svc.throughput", Tier::Service, MetricKind::Count)
            .metric("svc.error_rate", Tier::Service, MetricKind::Ratio)
            .build()
    }

    fn sample(schema: &Schema, tick: Tick, resp: f64, tput: f64, err: f64) -> Sample {
        let mut s = Sample::zeroed(schema, tick);
        s.set(schema.expect_id("svc.response_ms"), resp);
        s.set(schema.expect_id("svc.throughput"), tput);
        s.set(schema.expect_id("svc.error_rate"), err);
        s
    }

    fn monitor(schema: &Schema) -> SloMonitor {
        SloMonitor::new(
            vec![Slo::upper_bound(
                "response_time",
                schema.expect_id("svc.response_ms"),
                1000.0,
            )],
            4,
            2,
        )
    }

    #[test]
    fn compliant_stream_reports_no_violations() {
        let sc = schema();
        let mut m = monitor(&sc);
        for t in 0..20 {
            let v = m.observe(&sample(&sc, t, 200.0, 50.0, 0.0));
            assert!(v.is_empty(), "unexpected violation at tick {t}: {v:?}");
        }
        assert!(!m.any_violated());
        assert_eq!(m.violation_fraction(), 0.0);
        assert!(m.recovered(3));
    }

    #[test]
    fn latency_violation_requires_confirmation() {
        let sc = schema();
        let mut m = monitor(&sc);
        for t in 0..8 {
            m.observe(&sample(&sc, t, 200.0, 50.0, 0.0));
        }
        // First violating evaluation: not yet confirmed.
        let v1 = m.observe(&sample(&sc, 8, 20_000.0, 50.0, 0.0));
        assert!(v1.is_empty());
        // Second consecutive violating evaluation: confirmed.
        let v2 = m.observe(&sample(&sc, 9, 20_000.0, 50.0, 0.0));
        assert_eq!(v2.len(), 1);
        assert_eq!(v2[0].slo_name, "response_time");
        assert!(v2[0].severity > 0.0);
        assert_eq!(v2[0].consecutive, 2);
        assert!(m.any_violated());
        assert!(!m.recovered(1));
    }

    #[test]
    fn recovery_clears_consecutive_counts() {
        let sc = schema();
        let mut m = monitor(&sc);
        for t in 0..4 {
            m.observe(&sample(&sc, t, 5000.0, 50.0, 0.0));
        }
        assert!(m.any_violated());
        // Healthy samples flush the window back under the threshold.
        for t in 4..12 {
            m.observe(&sample(&sc, t, 100.0, 50.0, 0.0));
        }
        assert!(!m.any_violated());
        assert!(m.recovered(2));
        assert!(m.violation_fraction() > 0.0);
    }

    #[test]
    fn severity_scales_with_deviation() {
        let sc = schema();
        let slo = Slo::upper_bound("rt", sc.expect_id("svc.response_ms"), 1000.0);
        let mild = slo.severity_over([1100.0].iter());
        let severe = slo.severity_over([5000.0].iter());
        assert!(severe > mild);
        assert_eq!(slo.severity_over([900.0].iter()), 0.0);
        assert_eq!(slo.severity_over([].iter()), 0.0);
    }

    #[test]
    fn severity_on_a_wrapped_window_equals_the_copied_slice_form() {
        let sc = schema();
        let mut m = monitor(&sc);
        let mut wrapped = false;
        for t in 0..23u64 {
            // Irrational-ish steps, so a different summation order would
            // show in the last bits.
            let x = (t as f64 * 0.7311).sin().abs();
            m.observe(&sample(&sc, t, 2_000.0 * x, 20.0 * x, 0.02 * x));
            for (slo, hist) in m.slos.iter().zip(&m.history) {
                wrapped |= !hist.as_slices().1.is_empty();
                let copied: Vec<Value> = hist.iter().copied().collect();
                assert_eq!(
                    slo.severity_over(hist.iter()).to_bits(),
                    slo.severity_over(copied.iter()).to_bits(),
                    "{} at tick {t}",
                    slo.name
                );
            }
        }
        assert!(wrapped, "the ring buffers must have wrapped around");
        assert!(m.status().iter().any(SloStatus::is_violated));
    }

    #[test]
    fn monitor_reset_clears_state() {
        let sc = schema();
        let mut m = monitor(&sc);
        for t in 0..6 {
            m.observe(&sample(&sc, t, 9000.0, 1.0, 1.0));
        }
        assert!(m.any_violated());
        m.reset();
        assert!(!m.any_violated());
        assert!(m.recovered(1));
    }
}
