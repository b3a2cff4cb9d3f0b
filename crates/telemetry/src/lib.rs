//! # selfheal-telemetry
//!
//! Multidimensional time-series substrate for self-healing multitier
//! services, following Section 4.2 of *Toward Self-Healing Multitier
//! Services* (Cook, Babu, Candea, Duan; ICDE 2007).
//!
//! The paper assumes that "the data collected from the service is a
//! multidimensional row-and-column time-series with schema `X1, X2, ..., Xn`"
//! where each attribute is a metric of performance or failure, either
//! measured directly from a tier or derived from measured metrics.  This
//! crate provides exactly that substrate:
//!
//! * [`MetricId`] / [`MetricDef`] — typed identifiers and metadata for the
//!   attributes `X1..Xn` (which tier they come from, their unit, whether they
//!   require *invasive* instrumentation).
//! * [`Schema`] — an ordered, immutable set of metric definitions that fixes
//!   the column layout of every sample row.
//! * [`Sample`] — one timestamped row of the time series.
//! * [`SeriesStore`] — an in-memory, bounded store of samples with window
//!   queries (used to build the *baseline* and *current* windows of the
//!   paper's anomaly detector).
//! * [`Window`] / [`WindowSpec`] — sliding-window extraction and aggregation.
//! * [`Slo`] / [`SloMonitor`] — service-level-objective definitions and the
//!   SLO-compliance monitor the paper lists as a failure-detection
//!   prerequisite (Section 4.1).
//! * `stats` — descriptive statistics shared by the diagnosis and
//!   learning layers.
//! * [`export`] — the result tables the benchmark harness writes as CSV.
//!
//! The crate is deliberately dependency-light: it is consumed by the
//! simulator (which *produces* samples), by the diagnosis engines and the
//! FixSym engine (which *consume* samples), and by the benchmark harness.
//!
//! ## Example
//!
//! ```
//! use selfheal_telemetry::{SchemaBuilder, MetricKind, Tier, SeriesStore, Sample};
//!
//! let schema = SchemaBuilder::new()
//!     .metric("web.cpu_util", Tier::Web, MetricKind::Utilization)
//!     .metric("db.buffer_miss_rate", Tier::Database, MetricKind::Ratio)
//!     .metric("slo.violations", Tier::Service, MetricKind::Count)
//!     .build();
//!
//! let mut store = SeriesStore::new(schema.clone(), 1024);
//! let mut sample = Sample::zeroed(&schema, 0);
//! sample.set(schema.id("web.cpu_util").unwrap(), 0.42);
//! store.push(sample);
//! assert_eq!(store.len(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub(crate) mod health;
pub(crate) mod metric;
pub(crate) mod sample;
pub(crate) mod schema;
pub(crate) mod series;
pub(crate) mod slo;
pub(crate) mod stats;
pub(crate) mod window;

pub use health::{FleetHealth, ReplicaHealth, ReplicaState};
pub use metric::{InstrumentationCost, MetricDef, MetricId, MetricKind, Tier};
pub use sample::Sample;
pub use schema::{Schema, SchemaBuilder};
pub use series::SeriesStore;
pub use slo::{Slo, SloKind, SloMonitor, SloTargets, SloViolation};
pub use window::{Window, WindowSpec};

/// Simulation time, measured in discrete ticks.
///
/// One tick corresponds to one data-collection interval of the monitored
/// service (the simulator uses one tick = one second of service time).
pub(crate) type Tick = u64;

/// A measured metric value.
///
/// All metrics are represented as `f64`, matching the paper's treatment of
/// the collected data as a numeric row-and-column time series.
pub type Value = f64;
