//! The manual rule-based baseline (Section 3).
//!
//! "Domain experts create rules that map symptoms of different types of
//! failure to specific fixes ... Typical rules have an if-then format and
//! involve thresholds, e.g., 'if the miss rate in the database buffer-cache
//! over the last 1 hour exceeds 35%, then increase the cache size'."
//!
//! The rule base below is written exactly in that style and deliberately
//! carries the weaknesses the paper lists: the thresholds are fixed, the
//! coverage is partial (failures the experts did not anticipate fall through
//! to the coarse-grained catch-all rule "do a full service restart if any
//! failure is observed"), and the rules never adapt.
//!
//! [`ManualRuleBase::history`] is the rule window: every condition is
//! evaluated over the latest `window` samples (fewer while the history is
//! shorter), never over older ones.

use crate::context::DiagnosisContext;
use crate::report::{Diagnosis, DiagnosisMethod};
use selfheal_faults::{FaultTarget, FixAction, FixKind};
use selfheal_telemetry::{SeriesStore, Window, WindowSpec};

/// One expert-written if-then rule.
#[derive(Clone)]
pub(crate) struct ManualRule {
    /// Human-readable statement of the rule.
    pub description: String,
    /// Predicate over the recent window.
    condition: fn(&Window, &DiagnosisContext) -> bool,
    /// Fix applied when the predicate holds.
    fix: fn(&Window, &DiagnosisContext) -> FixAction,
}

impl std::fmt::Debug for ManualRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ManualRule")
            .field("description", &self.description)
            .finish()
    }
}

/// The static rule base.
#[derive(Debug, Clone)]
pub struct ManualRuleBase {
    /// Window (samples) over which rule conditions are evaluated.
    pub window: usize,
    rules: Vec<ManualRule>,
    /// Whether the coarse catch-all restart rule is enabled.
    pub catch_all_restart: bool,
}

impl ManualRuleBase {
    /// The standard expert rule base used in the benchmarks.
    pub fn standard() -> Self {
        let rules = vec![
            ManualRule {
                description: "if the buffer-cache miss rate exceeds 35%, repartition memory"
                    .to_string(),
                condition: |w, ctx| w.mean(ctx.buffer_miss_rate) > 0.35,
                fix: |_, _| FixAction::untargeted(FixKind::RepartitionMemory),
            },
            ManualRule {
                description: "if lock wait exceeds 100 ms/tick, repartition the busiest table"
                    .to_string(),
                condition: |w, ctx| w.mean(ctx.lock_wait_ms) > 100.0,
                fix: |w, ctx| {
                    let table =
                        crate::report::busiest_component(&ctx.table_accesses, w).unwrap_or(0);
                    FixAction::targeted(
                        FixKind::RepartitionTable,
                        FaultTarget::Table { index: table },
                    )
                },
            },
            ManualRule {
                description: "if the plan misestimate factor exceeds 3, update statistics"
                    .to_string(),
                condition: |w, ctx| w.mean(ctx.plan_misestimate) > 3.0,
                fix: |w, ctx| {
                    let table =
                        crate::report::busiest_component(&ctx.table_accesses, w).unwrap_or(0);
                    FixAction::targeted(
                        FixKind::UpdateStatistics,
                        FaultTarget::Table { index: table },
                    )
                },
            },
            ManualRule {
                description: "if the error rate exceeds 20%, reboot the application tier"
                    .to_string(),
                condition: |w, ctx| w.mean(ctx.error_rate) > 0.20,
                fix: |_, _| FixAction::targeted(FixKind::RebootTier, FaultTarget::AppTier),
            },
            ManualRule {
                description: "if the database tier runs above 95% utilization, provision it"
                    .to_string(),
                condition: |w, ctx| w.mean(ctx.db_util) > 0.95,
                fix: |_, _| {
                    FixAction::targeted(FixKind::ProvisionResources, FaultTarget::DatabaseTier)
                },
            },
        ];
        // The rules are evaluated over a short window so that a freshly
        // confirmed failure is not diluted by the healthy samples that
        // precede it.
        ManualRuleBase {
            window: 4,
            rules,
            catch_all_restart: true,
        }
    }

    /// How many of the latest samples [`diagnose`](Self::diagnose) reads.
    pub fn history(&self) -> usize {
        self.window
    }

    /// Evaluates the rules against the most recent window; the first rule
    /// whose condition holds wins (rules are ordered by the expert).  When
    /// no specific rule fires and the catch-all is enabled, the coarse
    /// "restart the whole service" rule fires with low confidence.
    pub fn diagnose(&self, series: &SeriesStore, ctx: &DiagnosisContext) -> Vec<Diagnosis> {
        let Some(window) = series.window(WindowSpec::latest(self.window.min(series.len().max(1))))
        else {
            return Vec::new();
        };
        for rule in &self.rules {
            if (rule.condition)(&window, ctx) {
                return vec![Diagnosis::new(
                    DiagnosisMethod::ManualRules,
                    (rule.fix)(&window, ctx),
                    0.7,
                    rule.description.clone(),
                )];
            }
        }
        if self.catch_all_restart {
            vec![Diagnosis::new(
                DiagnosisMethod::ManualRules,
                FixAction::untargeted(FixKind::FullServiceRestart),
                0.2,
                "no specific rule matched; falling back to a full service restart".to_string(),
            )]
        } else {
            Vec::new()
        }
    }
}

impl Default for ManualRuleBase {
    fn default() -> Self {
        ManualRuleBase::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_telemetry::{MetricKind, Sample, Schema, SchemaBuilder, SloTargets, Tier};

    impl ManualRuleBase {
        /// Number of specific (non-catch-all) rules.
        pub(crate) fn rule_count(&self) -> usize {
            self.rules.len()
        }

        /// The rule descriptions (for documentation output).
        pub(crate) fn descriptions(&self) -> Vec<&str> {
            self.rules.iter().map(|r| r.description.as_str()).collect()
        }
    }

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

    fn store(schema: &Schema, setter: impl Fn(&mut Sample)) -> SeriesStore {
        let mut store = SeriesStore::new(schema.clone(), 32);
        for t in 0..10u64 {
            let mut s = Sample::zeroed(schema, t);
            s.set(schema.expect_id("db.plan_misestimate"), 1.0);
            s.set(schema.expect_id("db.table1_accesses"), 80.0);
            setter(&mut s);
            store.push(s);
        }
        store
    }

    #[test]
    fn buffer_miss_rule_fires_with_the_expected_fix() {
        let schema = schema();
        let ctx = DiagnosisContext::from_schema(&schema, SloTargets::new(200.0, 0.05));
        let s = store(&schema, |x| {
            x.set(schema.expect_id("db.buffer_miss_rate"), 0.5)
        });
        let diagnoses = ManualRuleBase::standard().diagnose(&s, &ctx);
        assert_eq!(diagnoses.len(), 1);
        assert_eq!(diagnoses[0].fix.kind, FixKind::RepartitionMemory);
        assert_eq!(diagnoses[0].method, DiagnosisMethod::ManualRules);
    }

    #[test]
    fn plan_rule_targets_the_busiest_table() {
        let schema = schema();
        let ctx = DiagnosisContext::from_schema(&schema, SloTargets::new(200.0, 0.05));
        let s = store(&schema, |x| {
            x.set(schema.expect_id("db.plan_misestimate"), 5.0)
        });
        let diagnoses = ManualRuleBase::standard().diagnose(&s, &ctx);
        assert_eq!(diagnoses[0].fix.kind, FixKind::UpdateStatistics);
        assert_eq!(
            diagnoses[0].fix.target,
            Some(FaultTarget::Table { index: 1 })
        );
    }

    #[test]
    fn unknown_failures_fall_through_to_the_coarse_restart() {
        let schema = schema();
        let ctx = DiagnosisContext::from_schema(&schema, SloTargets::new(200.0, 0.05));
        // Symptoms (high response time) that no specific rule covers.
        let s = store(&schema, |x| {
            x.set(schema.expect_id("svc.response_ms"), 5_000.0)
        });
        let base = ManualRuleBase::standard();
        let diagnoses = base.diagnose(&s, &ctx);
        assert_eq!(diagnoses[0].fix.kind, FixKind::FullServiceRestart);
        assert!(diagnoses[0].confidence < 0.3);
        assert_eq!(base.rule_count(), 5);
        assert_eq!(base.descriptions().len(), 5);
    }

    #[test]
    fn catch_all_can_be_disabled() {
        let schema = schema();
        let ctx = DiagnosisContext::from_schema(&schema, SloTargets::new(200.0, 0.05));
        let s = store(&schema, |x| {
            x.set(schema.expect_id("svc.response_ms"), 5_000.0)
        });
        let mut base = ManualRuleBase::standard();
        base.catch_all_restart = false;
        assert!(base.diagnose(&s, &ctx).is_empty());
    }

    #[test]
    fn first_matching_rule_wins() {
        let schema = schema();
        let ctx = DiagnosisContext::from_schema(&schema, SloTargets::new(200.0, 0.05));
        let s = store(&schema, |x| {
            x.set(schema.expect_id("db.buffer_miss_rate"), 0.9);
            x.set(schema.expect_id("db.util"), 0.99);
        });
        let diagnoses = ManualRuleBase::standard().diagnose(&s, &ctx);
        assert_eq!(diagnoses.len(), 1);
        assert_eq!(diagnoses[0].fix.kind, FixKind::RepartitionMemory);
    }
}
