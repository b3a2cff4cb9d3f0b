//! Time-series schema: the ordered set of attributes `X1..Xn`.
//!
//! A [`Schema`] fixes the column layout of every [`crate::Sample`] produced
//! by the monitored service.  It is cheap to clone (internally `Arc`-shared)
//! because every sample, window, and dataset refers to it.

use crate::metric::{MetricDef, MetricId, MetricKind, Tier};
use std::collections::HashMap;
use std::sync::Arc;

/// Immutable, ordered collection of metric definitions.
///
/// Column order is the order in which metrics were added to the
/// [`SchemaBuilder`]; the schema never changes after construction, so
/// [`MetricId`]s remain valid for its whole lifetime.  The schema is shared
/// (`Arc`) so cloning is cheap.
#[derive(Debug, Clone)]
pub struct Schema {
    inner: Arc<SchemaInner>,
}

#[derive(Debug)]
struct SchemaInner {
    defs: Vec<MetricDef>,
    by_name: HashMap<String, MetricId>,
}

impl PartialEq for Schema {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner.defs == other.inner.defs
    }
}

impl Schema {
    /// Number of metrics (columns) in the schema.
    #[inline]
    pub fn len(&self) -> usize {
        self.inner.defs.len()
    }

    /// Returns `true` if the schema has no metrics.
    pub fn is_empty(&self) -> bool {
        self.inner.defs.is_empty()
    }

    /// Looks up a metric by name.
    pub fn id(&self, name: &str) -> Option<MetricId> {
        self.inner.by_name.get(name).copied()
    }

    /// Looks up a metric by name, panicking with a descriptive message when
    /// the metric does not exist.
    ///
    /// Benchmarks and the simulator use this for metrics they themselves
    /// registered; a miss is a programming error, not a runtime condition.
    pub fn expect_id(&self, name: &str) -> MetricId {
        self.id(name)
            .unwrap_or_else(|| panic!("metric `{name}` is not part of the schema"))
    }

    /// Returns the definition of a metric.
    #[inline]
    pub fn def(&self, id: MetricId) -> &MetricDef {
        &self.inner.defs[id.index()]
    }
}

/// Builder for [`Schema`].
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    defs: Vec<MetricDef>,
    by_name: HashMap<String, MetricId>,
}

impl SchemaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a metric with default (noninvasive) instrumentation cost.
    ///
    /// # Panics
    /// Panics if a metric with the same name has already been added; metric
    /// names must be unique within a schema.
    pub fn metric(self, name: impl Into<String>, tier: Tier, kind: MetricKind) -> Self {
        self.metric_def(MetricDef::new(name, tier, kind))
    }

    /// Adds a fully specified metric definition.
    ///
    /// # Panics
    /// Panics if a metric with the same name has already been added.
    pub fn metric_def(mut self, def: MetricDef) -> Self {
        let id = MetricId(self.defs.len() as u32);
        let previous = self.by_name.insert(def.name.clone(), id);
        assert!(
            previous.is_none(),
            "duplicate metric name `{}` in schema",
            def.name
        );
        self.defs.push(def);
        self
    }

    /// Finalizes the schema.
    pub fn build(self) -> Schema {
        Schema {
            inner: Arc::new(SchemaInner {
                defs: self.defs,
                by_name: self.by_name,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::InstrumentationCost;

    fn schema() -> Schema {
        SchemaBuilder::new()
            .metric("web.cpu_util", Tier::Web, MetricKind::Utilization)
            .metric_def(
                MetricDef::new("app.ejb_calls", Tier::App, MetricKind::Count)
                    .with_cost(InstrumentationCost::Invasive),
            )
            .metric("db.buffer_miss_rate", Tier::Database, MetricKind::Ratio)
            .metric("svc.slo_violations", Tier::Service, MetricKind::Count)
            .build()
    }

    #[test]
    fn lookup_by_name_and_index_agree() {
        let s = schema();
        assert_eq!(s.len(), 4);
        let id = s.id("db.buffer_miss_rate").unwrap();
        assert_eq!(id.index(), 2);
        assert_eq!(s.def(id).name, "db.buffer_miss_rate");
        assert_eq!(s.def(id).tier, Tier::Database);
        assert!(s.id("does.not.exist").is_none());
    }

    #[test]
    fn expect_id_returns_existing_metric() {
        let s = schema();
        assert_eq!(s.expect_id("web.cpu_util").index(), 0);
    }

    #[test]
    #[should_panic(expected = "not part of the schema")]
    fn expect_id_panics_on_missing_metric() {
        schema().expect_id("nope");
    }

    #[test]
    #[should_panic(expected = "duplicate metric name")]
    fn duplicate_names_are_rejected() {
        SchemaBuilder::new()
            .metric("x", Tier::Web, MetricKind::Count)
            .metric("x", Tier::App, MetricKind::Count);
    }

    #[test]
    fn ids_are_in_column_order() {
        let s = schema();
        let names = [
            "web.cpu_util",
            "app.ejb_calls",
            "db.buffer_miss_rate",
            "svc.slo_violations",
        ];
        for (i, name) in names.into_iter().enumerate() {
            assert_eq!(s.expect_id(name).index(), i);
        }
    }

    #[test]
    fn schemas_with_same_defs_compare_equal() {
        assert_eq!(schema(), schema());
    }
}
