//! Diagnosis via bottleneck analysis (Section 4.3.3).
//!
//! "Bottleneck analysis can diagnose failures caused by bottlenecked
//! resources that arise frequently in multitier services.  Anomaly detection
//! and correlation analysis may fail to pinpoint the root cause of such
//! failures.  However, bottleneck analysis can be done ... only if extra
//! information is provided about the structure of the service."
//!
//! The analyzer applies the utilization law tier by tier: the tier with the
//! highest utilization (and a growing queue) is the bottleneck.  When the
//! database tier is the bottleneck it drills into the database sub-metrics
//! to distinguish capacity exhaustion from buffer starvation, lock
//! contention, and bad plans — the Oracle ADDM-style refinement the paper
//! cites as \[12\] (Example 4).
//!
//! [`BottleneckAnalyzer::history`] is the averaging window: the analyzer
//! reads the latest `window` samples and nothing older.

use crate::context::DiagnosisContext;
use crate::report::{busiest_component, rank, Diagnosis, DiagnosisMethod};
use selfheal_faults::{FaultTarget, FixAction, FixKind};
use selfheal_telemetry::{SeriesStore, WindowSpec};

/// Structural bottleneck analyzer.
#[derive(Debug, Clone)]
pub struct BottleneckAnalyzer {
    /// Window (samples) over which utilizations and queues are averaged.
    pub window: usize,
    /// Utilization above which a tier is considered saturated.
    pub saturation_threshold: f64,
}

impl BottleneckAnalyzer {
    /// Analyzer averaging over the last 10 samples with a 0.85 saturation
    /// threshold.
    pub fn standard() -> Self {
        BottleneckAnalyzer {
            window: 10,
            saturation_threshold: 0.85,
        }
    }

    /// How many of the latest samples [`diagnose`](Self::diagnose) reads.
    pub fn history(&self) -> usize {
        self.window
    }

    /// Diagnoses the current state, returning ranked recommendations (empty
    /// when no tier is saturated or history is too short).
    pub fn diagnose(&self, series: &SeriesStore, ctx: &DiagnosisContext) -> Vec<Diagnosis> {
        let Some(window) = series.window(WindowSpec::latest(self.window)) else {
            return Vec::new();
        };

        let tiers = [
            ("web", ctx.web_util, ctx.web_queue_ms, FaultTarget::WebTier),
            ("app", ctx.app_util, ctx.app_queue_ms, FaultTarget::AppTier),
            (
                "db",
                ctx.db_util,
                ctx.db_queue_ms,
                FaultTarget::DatabaseTier,
            ),
        ];

        let mut diagnoses = Vec::new();
        for (name, util_id, queue_id, target) in tiers {
            let util = window.mean(util_id);
            let queue = window.mean(queue_id);
            if util < self.saturation_threshold {
                continue;
            }
            // Confidence grows with how saturated the tier is and whether a
            // queue is actually building.
            let queue_factor = (queue / 1000.0).min(1.0);
            let confidence = (0.5 * util + 0.4 * queue_factor).clamp(0.1, 0.95);

            if target == FaultTarget::DatabaseTier {
                // Drill down: why is the database saturated?
                let miss = window.mean(ctx.buffer_miss_rate);
                let lock = window.mean(ctx.lock_wait_ms);
                let plan = window.mean(ctx.plan_misestimate);
                let busiest_table = busiest_component(&ctx.table_accesses, &window);
                if miss > 0.3 {
                    diagnoses.push(Diagnosis::new(
                        DiagnosisMethod::BottleneckAnalysis,
                        FixAction::untargeted(FixKind::RepartitionMemory),
                        (confidence + 0.1).min(0.95),
                        format!(
                            "database saturated (util {util:.2}) with buffer miss rate {miss:.2}"
                        ),
                    ));
                    continue;
                }
                if plan > 2.5 {
                    let fix = match busiest_table {
                        Some(t) => FixAction::targeted(
                            FixKind::UpdateStatistics,
                            FaultTarget::Table { index: t },
                        ),
                        None => FixAction::untargeted(FixKind::UpdateStatistics),
                    };
                    diagnoses.push(Diagnosis::new(
                        DiagnosisMethod::BottleneckAnalysis,
                        fix,
                        (confidence + 0.1).min(0.95),
                        format!("database saturated with plan misestimate factor {plan:.1}"),
                    ));
                    continue;
                }
                if lock > 50.0 {
                    let fix = match busiest_table {
                        Some(t) => FixAction::targeted(
                            FixKind::RepartitionTable,
                            FaultTarget::Table { index: t },
                        ),
                        None => FixAction::untargeted(FixKind::RepartitionTable),
                    };
                    diagnoses.push(Diagnosis::new(
                        DiagnosisMethod::BottleneckAnalysis,
                        fix,
                        (confidence + 0.05).min(0.95),
                        format!("database saturated with {lock:.0} ms/tick of lock wait"),
                    ));
                    continue;
                }
            }

            diagnoses.push(Diagnosis::new(
                DiagnosisMethod::BottleneckAnalysis,
                FixAction::targeted(FixKind::ProvisionResources, target),
                confidence,
                format!("{name} tier saturated: utilization {util:.2}, queue {queue:.0} ms"),
            ));
        }

        rank(diagnoses)
    }
}

impl Default for BottleneckAnalyzer {
    fn default() -> Self {
        BottleneckAnalyzer::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_telemetry::{MetricKind, Sample, Schema, SchemaBuilder, SloTargets, Tier};

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

    fn store(schema: &Schema, setter: impl Fn(&mut Sample)) -> SeriesStore {
        let mut store = SeriesStore::new(schema.clone(), 64);
        for t in 0..20u64 {
            let mut s = Sample::zeroed(schema, t);
            s.set(schema.expect_id("db.plan_misestimate"), 1.0);
            s.set(schema.expect_id("db.table0_accesses"), 50.0);
            s.set(schema.expect_id("db.table1_accesses"), 10.0);
            setter(&mut s);
            store.push(s);
        }
        store
    }

    #[test]
    fn unsaturated_service_produces_no_diagnosis() {
        let schema = schema();
        let s = store(&schema, |sample| {
            sample.set(schema.expect_id("web.util"), 0.3);
            sample.set(schema.expect_id("app.util"), 0.4);
            sample.set(schema.expect_id("db.util"), 0.5);
        });
        assert!(BottleneckAnalyzer::standard()
            .diagnose(&s, &ctx(&schema))
            .is_empty());
    }

    #[test]
    fn saturated_app_tier_recommends_provisioning_it() {
        let schema = schema();
        let s = store(&schema, |sample| {
            sample.set(schema.expect_id("app.util"), 0.98);
            sample.set(schema.expect_id("app.queue_ms"), 2_000.0);
        });
        let diagnoses = BottleneckAnalyzer::standard().diagnose(&s, &ctx(&schema));
        assert_eq!(diagnoses.len(), 1);
        assert_eq!(diagnoses[0].fix.kind, FixKind::ProvisionResources);
        assert_eq!(diagnoses[0].fix.target, Some(FaultTarget::AppTier));
    }

    #[test]
    fn saturated_db_with_buffer_misses_recommends_memory_repartitioning() {
        let schema = schema();
        let s = store(&schema, |sample| {
            sample.set(schema.expect_id("db.util"), 0.99);
            sample.set(schema.expect_id("db.queue_ms"), 3_000.0);
            sample.set(schema.expect_id("db.buffer_miss_rate"), 0.7);
        });
        let diagnoses = BottleneckAnalyzer::standard().diagnose(&s, &ctx(&schema));
        assert_eq!(diagnoses[0].fix.kind, FixKind::RepartitionMemory);
    }

    #[test]
    fn saturated_db_with_bad_plans_recommends_statistics_update_on_busiest_table() {
        let schema = schema();
        let s = store(&schema, |sample| {
            sample.set(schema.expect_id("db.util"), 0.99);
            sample.set(schema.expect_id("db.plan_misestimate"), 5.0);
        });
        let diagnoses = BottleneckAnalyzer::standard().diagnose(&s, &ctx(&schema));
        assert_eq!(diagnoses[0].fix.kind, FixKind::UpdateStatistics);
        assert_eq!(
            diagnoses[0].fix.target,
            Some(FaultTarget::Table { index: 0 })
        );
    }

    #[test]
    fn saturated_db_with_lock_waits_recommends_repartitioning_the_table() {
        let schema = schema();
        let s = store(&schema, |sample| {
            sample.set(schema.expect_id("db.util"), 0.95);
            sample.set(schema.expect_id("db.lock_wait_ms"), 400.0);
        });
        let diagnoses = BottleneckAnalyzer::standard().diagnose(&s, &ctx(&schema));
        assert_eq!(diagnoses[0].fix.kind, FixKind::RepartitionTable);
    }

    #[test]
    fn multiple_saturated_tiers_are_all_reported_ranked_by_confidence() {
        let schema = schema();
        let s = store(&schema, |sample| {
            sample.set(schema.expect_id("web.util"), 0.9);
            sample.set(schema.expect_id("db.util"), 1.0);
            sample.set(schema.expect_id("db.queue_ms"), 10_000.0);
        });
        let diagnoses = BottleneckAnalyzer::standard().diagnose(&s, &ctx(&schema));
        assert_eq!(diagnoses.len(), 2);
        assert!(diagnoses[0].confidence >= diagnoses[1].confidence);
        assert_eq!(diagnoses[0].fix.target, Some(FaultTarget::DatabaseTier));
    }
}
