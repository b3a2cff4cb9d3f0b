//! # selfheal-faults
//!
//! Failure and fix catalog for database-centric multitier services,
//! reproducing the failure taxonomy of *Toward Self-Healing Multitier
//! Services* (Cook et al., ICDE 2007).
//!
//! The crate models three things the paper treats as inputs to any
//! self-healing policy:
//!
//! 1. **What can go wrong** — [`FaultKind`] enumerates the failure classes of
//!    Table 1 (deadlocked threads, unhandled Java exceptions, software aging,
//!    suboptimal query plans from stale statistics, table-block contention,
//!    buffer contention, bottlenecked tiers, source-code bugs) plus
//!    hardware faults and the operator-error classes that dominate Figure 1.
//! 2. **What can be done about it** — [`FixKind`] enumerates the candidate
//!    fixes of Table 1 (microreboot an EJB, kill a hung query, reboot at the
//!    appropriate level, update optimizer statistics, repartition a table,
//!    repartition memory across buffers, provision more resources, full
//!    service restart, notify an administrator) together with a cost model
//!    ([`FixCost`]): how long the fix takes and how disruptive it is.
//! 3. **Which fixes actually repair which failures** — [`FixCatalog`] encodes
//!    the ground-truth failure → fix mapping used by the simulator to decide
//!    whether an attempted fix works, and by the benchmarks to score fix
//!    identification accuracy.
//!
//! On top of the catalog, the crate provides the pluggable [`FaultSource`]
//! API (`source`): hand-scripted [`injection::InjectionPlan`]s behind
//! [`ScriptedSource`], stochastic demographic generation from a cause mix
//! ([`MixSource`] — the paper's Section 4.2 active stimulation), full
//! catalog coverage sweeps ([`CatalogSweep`]), seeded time-varying fault
//! *seasons* ([`SeasonalSource`]), live flaky-operator stimulation
//! ([`OperatorSource`]), and tick-wise composition
//! ([`ComposedSource`]).  Correlated fault storms hit a deterministic
//! fraction of a fleet at once ([`storm::StormSpec`], uniform or
//! CauseMix-catalog mode); the failure-cause mix model behind Figure 1 is
//! [`mix::CauseMix`], the per-category recovery-time model behind Figure 2
//! is [`recovery_model::RecoveryTimeModel`], and the operator-error model
//! behind [`OperatorSource`] lives in `operator::OperatorModel`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

pub(crate) mod catalog;
pub(crate) mod fault;
pub(crate) mod fix;
pub mod id_space;
pub mod injection;
pub(crate) mod mix;
pub(crate) mod operator;
pub(crate) mod recovery_model;
pub(crate) mod source;
pub(crate) mod storm;

pub use catalog::FixCatalog;
pub use fault::{FailureCause, FaultId, FaultKind, FaultSpec, FaultTarget};
pub use fix::{FixAction, FixCost, FixId, FixKind};
pub use injection::{InjectionPlan, InjectionPlanBuilder};
pub use mix::{CauseMix, ServiceProfile};
pub use recovery_model::RecoveryTimeModel;
pub use source::{
    CatalogSweep, ComposedSource, FaultSource, MixSource, OperatorSource, ScriptedSource,
    SeasonalSource,
};
pub use storm::StormSpec;
