//! Diagnosis via anomaly detection (Section 4.3.1).
//!
//! Three phases: collect data, establish the baseline behaviour, then
//! "detect and classify anomalies, which are deviations of the current
//! behavior from the baseline".  Following Example 2, the detector compares
//! the distribution of inter-EJB calls over the last `Nb` samples with the
//! distribution over the last `Nc` samples (`Nc ≪ Nb`) using the χ² test —
//! a significant deviation implicates an EJB and recommends a microreboot.
//! Database and tier metrics are checked with z-scores against the baseline
//! and mapped to the corresponding Table 1 fixes.
//!
//! [`AnomalyDetector::history`] is `Nb + Nc`: the two windows together are
//! every sample the detector reads, so a store of that many rows answers as
//! a longer one does, and one row fewer yields no window pair at all.

use crate::context::DiagnosisContext;
use crate::report::{
    busiest_component, fix_for_db_symptom, fix_for_tier_saturation, rank, Diagnosis,
    DiagnosisMethod,
};
use selfheal_faults::{FaultTarget, FixAction, FixKind};
use selfheal_learn::stats::{chi_square_statistic, chi_square_test};
use selfheal_telemetry::{MetricId, SeriesStore};

/// Baseline/current-window anomaly detector.
#[derive(Debug, Clone)]
pub struct AnomalyDetector {
    /// Baseline window size Nb (samples).
    pub nb: usize,
    /// Current window size Nc (samples), `nc ≪ nb`.
    pub nc: usize,
    /// χ² significance level (0.05 or 0.01).
    pub alpha: f64,
    /// How many baseline standard deviations a metric must move before it is
    /// considered anomalous.
    pub z_threshold: f64,
}

impl AnomalyDetector {
    /// Detector with the window sizes used throughout the benchmarks:
    /// a 30-sample baseline against a 5-sample current window (short enough
    /// that a freshly deployed healer has a usable baseline within half a
    /// minute of service time).
    pub fn standard() -> Self {
        AnomalyDetector {
            nb: 30,
            nc: 5,
            alpha: 0.05,
            z_threshold: 4.0,
        }
    }

    /// Creates a detector with explicit window sizes.
    ///
    /// # Panics
    /// Panics unless `0 < nc < nb`.
    pub fn new(nb: usize, nc: usize) -> Self {
        assert!(nc > 0 && nc < nb, "anomaly detection requires 0 < Nc < Nb");
        AnomalyDetector {
            nb,
            nc,
            ..AnomalyDetector::standard()
        }
    }

    /// How many of the latest samples [`diagnose`](Self::diagnose) reads,
    /// and the least it needs before it can run: `Nb + Nc`.
    pub fn history(&self) -> usize {
        self.nb + self.nc
    }

    /// Diagnoses the current state of the service, returning ranked fix
    /// recommendations (empty when nothing is anomalous or history is too
    /// short).
    pub fn diagnose(&self, series: &SeriesStore, ctx: &DiagnosisContext) -> Vec<Diagnosis> {
        let Some((baseline, current)) = series.baseline_current(self.nb, self.nc) else {
            return Vec::new();
        };
        let mut diagnoses = Vec::new();

        // 1. Component-interaction anomaly (Example 2): compare how calls
        //    are split across EJB types, baseline vs current, with χ².
        if ctx.ejb_calls.len() >= 2 {
            let baseline_dist = baseline.distribution(&ctx.ejb_calls);
            let current_sums: Vec<f64> = ctx.ejb_calls.iter().map(|id| current.sum(*id)).collect();
            let current_total: f64 = current_sums.iter().sum();
            if let (Some(baseline_dist), true) = (baseline_dist, current_total > 0.0) {
                let expected: Vec<f64> = baseline_dist.iter().map(|p| p * current_total).collect();
                if chi_square_test(&current_sums, &expected, self.alpha) {
                    // The EJB with the largest relative deviation is implicated.
                    let mut worst = 0usize;
                    let mut worst_score = 0.0;
                    for (i, (obs, exp)) in current_sums.iter().zip(&expected).enumerate() {
                        if *exp > 0.0 {
                            let score = (obs - exp) * (obs - exp) / exp;
                            if score > worst_score {
                                worst_score = score;
                                worst = i;
                            }
                        }
                    }
                    let statistic = chi_square_statistic(&current_sums, &expected);
                    let confidence = (statistic / (statistic + 50.0)).clamp(0.1, 0.95);
                    diagnoses.push(Diagnosis::new(
                        DiagnosisMethod::AnomalyDetection,
                        FixAction::targeted(FixKind::MicrorebootEjb, FaultTarget::Ejb { index: worst }),
                        confidence,
                        format!(
                            "inter-EJB call distribution deviates from baseline (chi-square {statistic:.1}); EJB {worst} most deviant"
                        ),
                    ));
                }
            }
        }

        // 2. Per-EJB error anomalies: errors are ~0 in the baseline, so any
        //    sustained error count is anomalous.
        if let Some(worst) = busiest_component(&ctx.ejb_errors, &current) {
            let current_errors = current.mean(ctx.ejb_errors[worst]);
            let baseline_errors = baseline.mean(ctx.ejb_errors[worst]);
            if current_errors > baseline_errors + 0.5 {
                let confidence =
                    ((current_errors - baseline_errors) / (current_errors + 1.0)).clamp(0.1, 0.9);
                diagnoses.push(Diagnosis::new(
                    DiagnosisMethod::AnomalyDetection,
                    FixAction::targeted(FixKind::MicrorebootEjb, FaultTarget::Ejb { index: worst }),
                    confidence,
                    format!("EJB {worst} error count rose from {baseline_errors:.2} to {current_errors:.2} per tick"),
                ));
            }
        }

        // 3. Database and tier metric anomalies via z-scores.
        let db_metrics = [ctx.buffer_miss_rate, ctx.lock_wait_ms, ctx.plan_misestimate];
        for metric in db_metrics {
            if let Some(z) = self.z_score(metric, &baseline, &current) {
                if z > self.z_threshold {
                    if let Some(fix) = fix_for_db_symptom(metric, ctx, &current) {
                        diagnoses.push(Diagnosis::new(
                            DiagnosisMethod::AnomalyDetection,
                            fix,
                            (z / (z + 10.0)).clamp(0.1, 0.9),
                            format!("database metric deviates {z:.1} sigma from baseline"),
                        ));
                    }
                }
            }
        }
        // Tier-saturation anomalies.  The key discrimination: when a tier
        // saturates while the *offered load did not grow*, the tier itself
        // has degraded (leaked resources, misconfiguration) and the remedy
        // is rejuvenation (reboot the tier); when the load grew with it, the
        // tier is genuinely under-provisioned and the remedy is capacity.
        let arrival_ratio =
            (current.mean(ctx.arrivals) + 1.0) / (baseline.mean(ctx.arrivals) + 1.0);
        for metric in [ctx.web_util, ctx.app_util, ctx.db_util] {
            if let Some(z) = self.z_score(metric, &baseline, &current) {
                let saturated = current.mean(metric) > 0.9;
                if z > self.z_threshold && saturated {
                    if let Some(provision) = fix_for_tier_saturation(metric, ctx) {
                        let fix = if arrival_ratio < 1.3 {
                            match provision.target {
                                Some(target) => FixAction::targeted(FixKind::RebootTier, target),
                                None => FixAction::untargeted(FixKind::RebootTier),
                            }
                        } else {
                            provision
                        };
                        diagnoses.push(Diagnosis::new(
                            DiagnosisMethod::AnomalyDetection,
                            fix,
                            (z / (z + 10.0)).clamp(0.1, 0.85),
                            format!(
                                "tier utilization deviates {z:.1} sigma from baseline and is saturated (offered load ratio {arrival_ratio:.2})"
                            ),
                        ));
                    }
                }
            }
        }

        rank(diagnoses)
    }

    fn z_score(
        &self,
        metric: MetricId,
        baseline: &selfheal_telemetry::Window,
        current: &selfheal_telemetry::Window,
    ) -> Option<f64> {
        let summary = baseline.summary(metric);
        let std = summary.std_dev().max(0.01 * summary.mean.abs()).max(1e-6);
        Some((current.mean(metric) - summary.mean) / std)
    }
}

impl Default for AnomalyDetector {
    fn default() -> Self {
        AnomalyDetector::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_telemetry::{MetricKind, Sample, Schema, SchemaBuilder, SloTargets, Tier};

    /// Builds a minimal sim-convention schema with 3 EJBs and 2 tables.
    fn schema() -> Schema {
        let mut b = SchemaBuilder::new()
            .metric("svc.response_ms", Tier::Service, MetricKind::LatencyMs)
            .metric("svc.throughput", Tier::Service, MetricKind::Count)
            .metric("svc.arrivals", Tier::Service, MetricKind::Count)
            .metric("svc.error_rate", Tier::Service, MetricKind::Ratio)
            .metric("web.util", Tier::Web, MetricKind::Utilization)
            .metric("app.util", Tier::App, MetricKind::Utilization)
            .metric("db.util", Tier::Database, MetricKind::Utilization)
            .metric("web.queue_ms", Tier::Web, MetricKind::Gauge)
            .metric("app.queue_ms", Tier::App, MetricKind::Gauge)
            .metric("db.queue_ms", Tier::Database, MetricKind::Gauge)
            .metric("db.buffer_miss_rate", Tier::Database, MetricKind::Ratio)
            .metric("db.lock_wait_ms", Tier::Database, MetricKind::Gauge)
            .metric("db.plan_misestimate", Tier::Database, MetricKind::Gauge);
        for i in 0..3 {
            b = b.metric(format!("app.ejb{i}_calls"), Tier::App, MetricKind::Count);
            b = b.metric(format!("app.ejb{i}_errors"), Tier::App, MetricKind::Count);
        }
        for j in 0..2 {
            b = b.metric(
                format!("db.table{j}_accesses"),
                Tier::Database,
                MetricKind::Count,
            );
        }
        b.build()
    }

    fn ctx(schema: &Schema) -> DiagnosisContext {
        DiagnosisContext::from_schema(schema, SloTargets::new(200.0, 0.05))
    }

    /// Healthy sample: balanced EJB calls, low everything else.
    fn healthy_sample(schema: &Schema, tick: u64) -> Sample {
        let mut s = Sample::zeroed(schema, tick);
        s.set(schema.expect_id("svc.response_ms"), 30.0);
        s.set(schema.expect_id("svc.throughput"), 40.0);
        s.set(schema.expect_id("db.buffer_miss_rate"), 0.02);
        s.set(schema.expect_id("db.plan_misestimate"), 1.0);
        s.set(schema.expect_id("web.util"), 0.2);
        s.set(schema.expect_id("app.util"), 0.3);
        s.set(schema.expect_id("db.util"), 0.3);
        for i in 0..3 {
            s.set(
                schema.expect_id(&format!("app.ejb{i}_calls")),
                40.0 + i as f64,
            );
        }
        for j in 0..2 {
            s.set(schema.expect_id(&format!("db.table{j}_accesses")), 30.0);
        }
        s
    }

    fn store_with_baseline(schema: &Schema, n: usize) -> SeriesStore {
        let mut store = SeriesStore::new(schema.clone(), 1024);
        for t in 0..n {
            store.push(healthy_sample(schema, t as u64));
        }
        store
    }

    #[test]
    fn healthy_history_produces_no_diagnoses() {
        let schema = schema();
        let store = store_with_baseline(&schema, 80);
        let detector = AnomalyDetector::new(60, 6);
        assert!(detector.diagnose(&store, &ctx(&schema)).is_empty());
    }

    #[test]
    fn insufficient_history_produces_no_diagnoses() {
        let schema = schema();
        let store = store_with_baseline(&schema, 10);
        let detector = AnomalyDetector::new(60, 6);
        assert!(detector.diagnose(&store, &ctx(&schema)).is_empty());
        assert_eq!(detector.history(), 66);
    }

    #[test]
    fn skewed_ejb_call_distribution_recommends_microreboot_of_the_culprit() {
        let schema = schema();
        let mut store = store_with_baseline(&schema, 70);
        // EJB 2 stops being called (deadlocked): its calls collapse while
        // others keep flowing.
        for t in 70..78u64 {
            let mut s = healthy_sample(&schema, t);
            s.set(schema.expect_id("app.ejb2_calls"), 0.0);
            s.set(schema.expect_id("app.ejb0_calls"), 80.0);
            store.push(s);
        }
        let detector = AnomalyDetector::new(60, 6);
        let diagnoses = detector.diagnose(&store, &ctx(&schema));
        assert!(!diagnoses.is_empty());
        let top = &diagnoses[0];
        assert_eq!(top.method, DiagnosisMethod::AnomalyDetection);
        assert_eq!(top.fix.kind, FixKind::MicrorebootEjb);
        assert!(top.confidence > 0.1);
    }

    #[test]
    fn buffer_miss_spike_recommends_memory_repartitioning() {
        let schema = schema();
        let mut store = store_with_baseline(&schema, 70);
        for t in 70..78u64 {
            let mut s = healthy_sample(&schema, t);
            s.set(schema.expect_id("db.buffer_miss_rate"), 0.8);
            store.push(s);
        }
        let diagnoses = AnomalyDetector::new(60, 6).diagnose(&store, &ctx(&schema));
        assert!(diagnoses
            .iter()
            .any(|d| d.fix.kind == FixKind::RepartitionMemory));
    }

    #[test]
    fn ejb_error_spike_recommends_microreboot_even_without_call_skew() {
        let schema = schema();
        let mut store = store_with_baseline(&schema, 70);
        for t in 70..78u64 {
            let mut s = healthy_sample(&schema, t);
            s.set(schema.expect_id("app.ejb1_errors"), 15.0);
            store.push(s);
        }
        let diagnoses = AnomalyDetector::new(60, 6).diagnose(&store, &ctx(&schema));
        let microreboot = diagnoses
            .iter()
            .find(|d| d.fix.kind == FixKind::MicrorebootEjb)
            .expect("error spike should implicate an EJB");
        assert_eq!(
            microreboot.fix.target,
            Some(FaultTarget::Ejb { index: 1 }),
            "the failing EJB must be the target"
        );
    }

    #[test]
    fn saturated_tier_under_increased_load_recommends_provisioning() {
        let schema = schema();
        let mut store = store_with_baseline(&schema, 70);
        for t in 70..78u64 {
            let mut s = healthy_sample(&schema, t);
            s.set(schema.expect_id("svc.arrivals"), 150.0);
            s.set(schema.expect_id("db.util"), 1.0);
            s.set(schema.expect_id("db.queue_ms"), 5000.0);
            store.push(s);
        }
        let diagnoses = AnomalyDetector::new(60, 6).diagnose(&store, &ctx(&schema));
        assert!(diagnoses
            .iter()
            .any(|d| d.fix.kind == FixKind::ProvisionResources
                && d.fix.target == Some(FaultTarget::DatabaseTier)));
    }

    #[test]
    fn saturated_tier_under_flat_load_recommends_rejuvenating_the_tier() {
        // Same saturation, but the offered load did not grow: the tier has
        // degraded (aging / leak) and should be rebooted, not provisioned.
        let schema = schema();
        let mut store = store_with_baseline(&schema, 70);
        for t in 70..78u64 {
            let mut s = healthy_sample(&schema, t);
            s.set(schema.expect_id("app.util"), 0.99);
            s.set(schema.expect_id("app.queue_ms"), 4000.0);
            store.push(s);
        }
        let diagnoses = AnomalyDetector::new(60, 6).diagnose(&store, &ctx(&schema));
        assert!(diagnoses.iter().any(
            |d| d.fix.kind == FixKind::RebootTier && d.fix.target == Some(FaultTarget::AppTier)
        ));
    }

    #[test]
    #[should_panic(expected = "0 < Nc < Nb")]
    fn invalid_window_sizes_are_rejected() {
        AnomalyDetector::new(10, 10);
    }
}
