//! # selfheal-workload
//!
//! Workload generation for a RUBiS-like multitier auction service.
//!
//! The paper's running example (Example 1) is RUBiS — "an auction site
//! written as a J2EE application and modeled after eBay" — running on JBoss
//! with a MySQL database tier.  This crate generates the request streams the
//! simulated service processes:
//!
//! * [`RequestKind`] — the auction-site interaction types (browse, search,
//!   view item, bid, buy-now, sell, register, login, about-me), each with a
//!   nominal demand profile across the three tiers.
//! * [`WorkloadMix`] — a probability distribution over request kinds (the
//!   standard RUBiS *browsing* and *bidding* mixes plus custom mixes).
//! * [`ArrivalProcess`] — open-loop arrival models: constant rate, Poisson,
//!   diurnal pattern, and a flash-crowd *surge* (the paper's Walmart.com
//!   Thanksgiving example is exactly such a surge).
//! * [`TraceSource`] — the pluggable per-tick workload abstraction every
//!   consumer (scenario runner, harness, fleet engine) is written against.
//! * [`TraceGenerator`] — the synthetic [`TraceSource`]: ties a mix and an
//!   arrival process together and emits per-tick request batches.
//! * [`RecordedTrace`] / [`ReplaySource`] — capture any source tick-by-tick,
//!   persist it as JSON-lines (`codec`), and replay it with loop/truncate
//!   semantics and per-replica phase shifts.
//! * [`BurstSource`] — recurring flash-crowd / fault-storm spikes on top of
//!   a Poisson baseline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

pub(crate) mod arrival;
pub(crate) mod burst;
pub(crate) mod codec;
pub(crate) mod mix;
pub(crate) mod replay;
pub(crate) mod request;
pub(crate) mod source;
pub(crate) mod trace;

pub use arrival::ArrivalProcess;
pub use burst::BurstSource;
pub use codec::TraceRecord;
pub use mix::WorkloadMix;
pub use replay::{RecordedTrace, ReplayMode, ReplaySource};
pub use request::{Request, RequestKind, TierDemand};
pub use source::TraceSource;
pub use trace::TraceGenerator;
