//! Structural knowledge the diagnosis engines need about the metric schema.
//!
//! The paper notes (Section 4.3.3) that bottleneck analysis "can be done on
//! multidimensional time-series data only if extra information is provided
//! about the structure of the service as represented by the attributes".
//! [`DiagnosisContext`] is that extra information: which column is the
//! response time, which columns are the per-EJB call counters, and so on.
//! It is constructed once from the monitored service's schema (by name, so
//! any service following the same naming convention works).

use selfheal_telemetry::{MetricId, Schema, SloTargets};

/// Resolved metric handles for the columns the diagnosis engines interpret.
#[derive(Debug, Clone)]
pub struct DiagnosisContext {
    /// Mean end-to-end response time (ms).
    pub response_ms: MetricId,
    /// Per-tick error rate.
    pub error_rate: MetricId,
    /// Requests completed per tick.
    pub throughput: MetricId,
    /// Requests arrived per tick (offered load).
    pub arrivals: MetricId,
    /// Web-tier utilization.
    pub web_util: MetricId,
    /// Application-tier utilization.
    pub app_util: MetricId,
    /// Database-tier utilization.
    pub db_util: MetricId,
    /// Web-tier queue backlog (ms).
    pub web_queue_ms: MetricId,
    /// Application-tier queue backlog (ms).
    pub app_queue_ms: MetricId,
    /// Database-tier queue backlog (ms).
    pub db_queue_ms: MetricId,
    /// Buffer-pool miss rate.
    pub buffer_miss_rate: MetricId,
    /// Lock wait per tick (ms).
    pub lock_wait_ms: MetricId,
    /// Mean optimizer misestimate factor.
    pub plan_misestimate: MetricId,
    /// Per-EJB invocation counters (may be empty when only noninvasive data
    /// is collected).
    pub ejb_calls: Vec<MetricId>,
    /// Per-EJB error counters (may be empty).
    pub ejb_errors: Vec<MetricId>,
    /// Per-table access counters (may be empty).
    pub table_accesses: Vec<MetricId>,
    /// The response-time SLO threshold (ms), used as the failure indicator.
    pub slo_response_ms: f64,
    /// The error-rate SLO threshold, used as the failure indicator.
    pub slo_error_rate: f64,
}

impl DiagnosisContext {
    /// Resolves the context from a schema that follows the simulator's
    /// naming convention (`svc.response_ms`, `app.ejb<i>_calls`,
    /// `db.table<j>_accesses`, ...).
    ///
    /// # Panics
    /// Panics if a required whole-service or tier metric is missing.  The
    /// per-component metric lists are filled with whatever is present (an
    /// empty list models a service without invasive instrumentation).
    pub fn from_schema(schema: &Schema, targets: SloTargets) -> Self {
        let collect_indexed = |prefix: &str, suffix: &str| -> Vec<MetricId> {
            let mut ids = Vec::new();
            for i in 0.. {
                match schema.id(&format!("{prefix}{i}{suffix}")) {
                    Some(id) => ids.push(id),
                    None => break,
                }
            }
            ids
        };
        DiagnosisContext {
            response_ms: schema.expect_id("svc.response_ms"),
            error_rate: schema.expect_id("svc.error_rate"),
            throughput: schema.expect_id("svc.throughput"),
            arrivals: schema.expect_id("svc.arrivals"),
            web_util: schema.expect_id("web.util"),
            app_util: schema.expect_id("app.util"),
            db_util: schema.expect_id("db.util"),
            web_queue_ms: schema.expect_id("web.queue_ms"),
            app_queue_ms: schema.expect_id("app.queue_ms"),
            db_queue_ms: schema.expect_id("db.queue_ms"),
            buffer_miss_rate: schema.expect_id("db.buffer_miss_rate"),
            lock_wait_ms: schema.expect_id("db.lock_wait_ms"),
            plan_misestimate: schema.expect_id("db.plan_misestimate"),
            ejb_calls: collect_indexed("app.ejb", "_calls"),
            ejb_errors: collect_indexed("app.ejb", "_errors"),
            table_accesses: collect_indexed("db.table", "_accesses"),
            slo_response_ms: targets.response_ms,
            slo_error_rate: targets.error_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use selfheal_telemetry::{MetricKind, SchemaBuilder, SloTargets, Tier};

    fn sim_like_schema(ejbs: usize, tables: usize) -> Schema {
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
        for i in 0..ejbs {
            b = b.metric(format!("app.ejb{i}_calls"), Tier::App, MetricKind::Count);
            b = b.metric(format!("app.ejb{i}_errors"), Tier::App, MetricKind::Count);
        }
        for j in 0..tables {
            b = b.metric(
                format!("db.table{j}_accesses"),
                Tier::Database,
                MetricKind::Count,
            );
        }
        b.build()
    }

    #[test]
    fn context_resolves_all_component_metrics() {
        let schema = sim_like_schema(4, 3);
        let ctx = DiagnosisContext::from_schema(&schema, SloTargets::new(200.0, 0.05));
        assert_eq!(ctx.ejb_calls.len(), 4);
        assert_eq!(ctx.ejb_errors.len(), 4);
        assert_eq!(ctx.table_accesses.len(), 3);
        assert_eq!(ctx.slo_response_ms, 200.0);
    }

    #[test]
    fn context_tolerates_services_without_component_metrics() {
        let schema = sim_like_schema(0, 0);
        let ctx = DiagnosisContext::from_schema(&schema, SloTargets::new(100.0, 0.01));
        assert!(ctx.ejb_calls.is_empty());
        assert!(ctx.table_accesses.is_empty());
    }

    #[test]
    #[should_panic(expected = "not part of the schema")]
    fn missing_required_metric_panics() {
        let schema = SchemaBuilder::new()
            .metric("svc.response_ms", Tier::Service, MetricKind::LatencyMs)
            .build();
        DiagnosisContext::from_schema(&schema, SloTargets::new(100.0, 0.01));
    }
}
