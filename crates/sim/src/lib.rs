//! # selfheal-sim
//!
//! A discrete-event simulator of a database-centric three-tier service
//! (web tier → EJB application tier → database tier), modeled on the RUBiS
//! auction site that *Toward Self-Healing Multitier Services* (Cook et al.,
//! ICDE 2007) uses as its running example.
//!
//! The paper's own evaluation ran "on a simulator for a multitier service
//! that generates time-series data corresponding to different failed and
//! working service states"; this crate is that simulator, built so the
//! learning and diagnosis layers can be evaluated end to end:
//!
//! * [`config::ServiceConfig`] — topology and capacity of the three tiers,
//!   the EJB components, and the database schema.
//! * `resource::TierResource` — the per-tier queueing/capacity model
//!   (utilization, backlog, latency inflation, overload).
//! * `ejb` — the EJB components of the application tier and the call graph
//!   mapping each request kind to the EJBs it invokes.
//! * `db` — the database tier internals: buffer pool, per-table optimizer
//!   statistics (with staleness), a cost-based plan-quality model, and a
//!   lock manager for block contention.
//! * `faults_runtime::ActiveFaults` — the set of currently active faults
//!   and how each one perturbs demand, capacity, error rates, and latency.
//! * `actuator::FixActuator` — applies [`selfheal_faults::FixAction`]s to
//!   the running service, charging the fix's duration and disruption, and
//!   removing the faults the fix actually repairs (per the ground-truth
//!   catalog).
//! * [`service::MultiTierService`] — one simulation tick: admit workload,
//!   route it through the tiers, apply fault effects, emit one metric
//!   [`selfheal_telemetry::Sample`].
//! * [`scenario::ScenarioRunner`] — drives the service over a workload, an
//!   injection plan, and a pluggable [`scenario::Healer`], recording SLO
//!   violations, failure episodes, and recovery times.
//! * [`statesgen::FailureStateGenerator`] — produces labelled
//!   (symptom-vector, correct-fix) datasets for the Figure 4 / Table 3
//!   synopsis experiments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod actuator;
pub(crate) mod config;
pub(crate) mod db;
pub(crate) mod ejb;
pub(crate) mod faults_runtime;
pub mod metrics;
pub mod recovery;
pub(crate) mod resource;
pub mod scenario;
pub mod seeds;
pub mod service;
pub(crate) mod statesgen;

pub use config::ServiceConfig;
pub use scenario::{Healer, NoHealing, ScenarioOutcome, ScenarioRunner};
pub use service::{MultiTierService, TickOutcome};
pub use statesgen::{FailureState, FailureStateGenerator};
