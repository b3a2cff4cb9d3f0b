//! Metric identifiers and metadata.
//!
//! Every column `Xi` of the collected time series is described by a
//! [`MetricDef`]: its name, the tier it is measured in, what kind of
//! quantity it is, and how invasive the instrumentation that produces it is.
//! The paper (Section 4.2) distinguishes *noninvasive* data that common
//! profiling tools can collect without modifying the application from
//! *invasive* data such as per-EJB call counts or request path traces; some
//! diagnosis techniques only work when invasive data is available, which is
//! one of the axes of Table 2.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Index of a metric (a column) inside a [`crate::Schema`].
///
/// `MetricId` is a small copyable handle; it is only meaningful relative to
/// the schema that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetricId(pub(crate) u32);

impl MetricId {
    /// Returns the zero-based column index of this metric.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0 + 1)
    }
}

/// The tier of the multitier service a metric is measured in.
///
/// The paper's running example (RUBiS on JBoss + MySQL) has a web tier, an
/// application-server tier hosting EJBs, and a database tier; `Service`
/// covers end-to-end metrics such as SLO violations that are not attributable
/// to a single tier, and `Client` covers the user-activity monitors mentioned
/// in Section 4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Tier {
    /// Load generator / end users.
    Client,
    /// Web server tier (servlets, JSPs).
    Web,
    /// Application-server tier (EJB container).
    App,
    /// Database tier.
    Database,
    /// Whole-service (cross-tier) metrics, e.g. SLO compliance.
    Service,
}

impl Tier {
    /// Short lowercase label used as a metric-name prefix (`web.cpu_util`).
    pub(crate) fn label(self) -> &'static str {
        match self {
            Tier::Client => "client",
            Tier::Web => "web",
            Tier::App => "app",
            Tier::Database => "db",
            Tier::Service => "svc",
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What kind of quantity a metric represents.
///
/// The kind determines sensible default aggregations (a utilization is
/// averaged, a count is summed) and is used by the anomaly detector to decide
/// which deviation test applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// Fraction of capacity in use, in `[0, 1]`.
    Utilization,
    /// A dimensionless ratio (e.g. cache miss rate), usually in `[0, 1]`.
    Ratio,
    /// An event count per collection interval (e.g. number of EJB calls).
    Count,
    /// A latency or duration, in milliseconds.
    LatencyMs,
    /// A queue length or other instantaneous level.
    Gauge,
    /// A configuration parameter (e.g. buffer pool size); changes rarely.
    Config,
    /// A boolean status flag encoded as 0.0 / 1.0.
    Flag,
}

/// How intrusive the instrumentation producing a metric is.
///
/// Section 4.2 ("Invasive Vs. noninvasive data collection") notes that large
/// multitier services mix software from many vendors and are unlikely to
/// support a uniform invasive instrumentation framework; techniques therefore
/// differ in their data requirements (Table 2, "Run-time data requirements").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum InstrumentationCost {
    /// Available from standard OS / middleware counters with no changes to
    /// application or system software (CPU utilization, request rate).
    NonInvasive,
    /// Requires application-server or database introspection hooks
    /// (per-EJB call counts, per-query plan statistics).
    Invasive,
    /// Requires end-to-end request path tracing across tiers.
    PathTracing,
}

/// Full definition of one metric (one column of the time-series schema).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricDef {
    /// Unique dotted name, conventionally prefixed by the tier label,
    /// e.g. `"db.buffer_miss_rate"`.
    pub name: String,
    /// Tier the metric is measured in.
    pub tier: Tier,
    /// Kind of quantity.
    pub kind: MetricKind,
    /// Instrumentation cost of collecting the metric.
    pub cost: InstrumentationCost,
    /// Human-readable description.
    pub description: String,
}

impl MetricDef {
    /// Creates a metric definition with [`InstrumentationCost::NonInvasive`]
    /// cost and an empty description.
    pub fn new(name: impl Into<String>, tier: Tier, kind: MetricKind) -> Self {
        MetricDef {
            name: name.into(),
            tier,
            kind,
            cost: InstrumentationCost::NonInvasive,
            description: String::new(),
        }
    }

    /// Sets the instrumentation cost.
    pub fn with_cost(mut self, cost: InstrumentationCost) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the human-readable description.
    pub fn with_description(mut self, description: impl Into<String>) -> Self {
        self.description = description.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Tier {
        /// All tiers, in request-flow order.
        pub(crate) const ALL: [Tier; 5] = [
            Tier::Client,
            Tier::Web,
            Tier::App,
            Tier::Database,
            Tier::Service,
        ];
    }

    impl MetricId {
        /// Builds a `MetricId` from a raw column index.
        ///
        /// Intended for tests and for code that enumerates columns positionally;
        /// prefer [`crate::Schema::id`] when a schema is available.
        #[inline]
        pub(crate) fn from_index(index: usize) -> Self {
            MetricId(index as u32)
        }
    }

    #[test]
    fn metric_id_roundtrips_through_index() {
        let id = MetricId::from_index(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "X8");
    }

    #[test]
    fn tier_labels_are_unique() {
        let mut labels: Vec<&str> = Tier::ALL.iter().map(|t| t.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Tier::ALL.len());
    }

    #[test]
    fn metric_def_builder_sets_fields() {
        let def = MetricDef::new("app.ejb_calls", Tier::App, MetricKind::Count)
            .with_cost(InstrumentationCost::Invasive)
            .with_description("number of EJB method invocations");
        assert_eq!(def.name, "app.ejb_calls");
        assert_eq!(def.tier, Tier::App);
        assert_eq!(def.cost, InstrumentationCost::Invasive);
        assert!(def.description.contains("EJB"));
    }

    #[test]
    fn instrumentation_cost_is_ordered_by_invasiveness() {
        assert!(InstrumentationCost::NonInvasive < InstrumentationCost::Invasive);
        assert!(InstrumentationCost::Invasive < InstrumentationCost::PathTracing);
    }
}
