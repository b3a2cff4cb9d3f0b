//! # selfheal
//!
//! Umbrella crate for the *Toward Self-Healing Multitier Services*
//! reproduction: re-exports every workspace crate under one roof so
//! examples, integration tests, and downstream users can depend on a single
//! package.
//!
//! * [`jsonl`] — hand-rolled JSON-lines primitives shared by the trace and
//!   synopsis codecs (the build has no registry access for serde).
//! * [`telemetry`] — multidimensional metric time series, SLO monitoring.
//! * [`workload`] — RUBiS-like workloads behind the pluggable
//!   `TraceSource` API: synthetic generation, JSON-lines trace
//!   record/replay (with per-replica phase shifts), and burst storms.
//! * [`faults`] — failure/fix catalog behind the pluggable `FaultSource`
//!   API: scripted injection plans, stochastic demographic generation from
//!   the paper's `CauseMix` demographics, catalog coverage sweeps,
//!   tick-wise composition, and correlated fault storms (uniform or
//!   CauseMix-catalog mode).
//! * [`sim`] — the three-tier (web / EJB / database) service simulator.
//! * [`learn`] — from-scratch ML substrate: the three Table 3 synopses
//!   (kNN, k-means, AdaBoost) and the statistics and trend forecaster the
//!   diagnosis engines and the proactive healer use.
//! * [`diagnosis`] — anomaly / correlation / bottleneck diagnosis and the
//!   manual rule baseline.
//! * [`healing`] — FixSym, synopses behind the pluggable `SynopsisStore`
//!   API (private or fleet-shared, both persistable to JSON-lines for warm
//!   starts), hybrid and proactive
//!   policies, the healing-loop harness (the paper's contribution).
//! * [`daemon`] — the resident fleet daemon: supervised replicas in the
//!   fleet crate's shared epoch engine (so a tenant replays the batch fleet
//!   bit for bit) with bounded restart-with-backoff, a line-oriented control
//!   plane over a Unix domain socket (`selfheal-daemon` / `selfheal-ctl`
//!   binaries), live synopsis queries, multi-tenant fleets with per-tenant
//!   snapshot logs, and crash-restart durability via the incremental
//!   snapshot log.
//! * [`gateway`] — the HTTP/JSON serving layer over the daemon: a
//!   hand-rolled HTTP/1.1 server (`selfheal-gateway` / `selfheal-http`
//!   binaries) mapping REST-ish routes onto the control-plane commands,
//!   with bearer-token auth scoped per tenant and a chunked JSON-lines
//!   metrics stream.
//! * [`fleet`] — the fleet engine: N independently-seeded replicas driven
//!   by the one tick-sliced epoch engine (batch runs and the daemon's
//!   supervisor both advance it), coordinating through one shared
//!   synopsis store (access gated into the sequential interleave, so even
//!   parallel fleets are bit-reproducible) so every instance benefits from
//!   failures any sibling already healed — including failures healed by a
//!   *previous process* via snapshot warm-start — and stress-testable with
//!   cross-replica events: correlated fault storms and workload surges.
//!
//! ## Quickstart: one service
//!
//! ```
//! use selfheal::healing::harness::{FaultChoice, PolicyChoice, SelfHealingService};
//! use selfheal::healing::synopsis::SynopsisKind;
//! use selfheal::faults::{FaultKind, FaultTarget, InjectionPlanBuilder};
//! use selfheal::sim::ServiceConfig;
//!
//! let plan = InjectionPlanBuilder::new()
//!     .inject(60, FaultKind::BufferContention, FaultTarget::DatabaseTier, 0.9)
//!     .build();
//! let outcome = SelfHealingService::builder()
//!     .config(ServiceConfig::tiny())
//!     .faults(FaultChoice::Scripted(plan))
//!     .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
//!     .run(300);
//! assert!(outcome.fixes_initiated >= 1);
//! ```
//!
//! ## Quickstart: a fleet with shared learning
//!
//! ```
//! use selfheal::fleet::FleetConfig;
//! use selfheal::healing::harness::{LearnerChoice, PolicyChoice};
//! use selfheal::healing::synopsis::SynopsisKind;
//! use selfheal::sim::ServiceConfig;
//!
//! let outcome = FleetConfig::builder()
//!     .service(ServiceConfig::tiny())
//!     .replicas(8)
//!     .ticks(150)
//!     .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
//!     .learner(LearnerChoice::locked())
//!     .run();
//! assert_eq!(outcome.replicas().len(), 8);
//! assert!(outcome.goodput_fraction() > 0.9);
//! ```
//!
//! ## Quickstart: demographic fault generation
//!
//! ```
//! use selfheal::faults::ServiceProfile;
//! use selfheal::healing::harness::{FaultChoice, PolicyChoice, SelfHealingService};
//! use selfheal::healing::synopsis::SynopsisKind;
//! use selfheal::sim::ServiceConfig;
//!
//! let config = ServiceConfig::tiny();
//! // Faults drawn from the Online service's Figure 1 cause mix at 3% per
//! // tick for 150 ticks, then a quiet tail for the healer to drain.
//! let outcome = SelfHealingService::builder()
//!     .config(config.clone())
//!     .faults(FaultChoice::mix_for(ServiceProfile::Online, 0.03, &config).active_for(150))
//!     .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
//!     .seed(42)
//!     .run(400);
//! assert_eq!(outcome.ticks, 400);
//! ```
//!
//! ## Quickstart: a correlated fault storm
//!
//! ```
//! use selfheal::faults::FaultKind;
//! use selfheal::fleet::FleetConfig;
//! use selfheal::healing::harness::{EventChoice, LearnerChoice, PolicyChoice};
//! use selfheal::healing::synopsis::SynopsisKind;
//! use selfheal::sim::ServiceConfig;
//!
//! let outcome = FleetConfig::builder()
//!     .service(ServiceConfig::tiny())
//!     .replicas(6)
//!     .ticks(300)
//!     .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
//!     .learner(LearnerChoice::locked())
//!     // At tick 100, buffer contention hits half the fleet at once.
//!     .event(EventChoice::storm(100, FaultKind::BufferContention, 0.5))
//!     .run();
//! assert!(outcome.is_complete());
//! assert!(outcome.total_episodes() >= 3, "three victims, three episodes");
//! ```
//!
//! ## Quickstart: warm-starting the next fleet from this one
//!
//! ```
//! use selfheal::fleet::FleetConfig;
//! use selfheal::healing::harness::{LearnerChoice, PolicyChoice};
//! use selfheal::healing::synopsis::SynopsisKind;
//! use selfheal::sim::ServiceConfig;
//!
//! let first = FleetConfig::builder()
//!     .service(ServiceConfig::tiny())
//!     .replicas(4)
//!     .ticks(150)
//!     .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
//!     .learner(LearnerChoice::locked())    // one synopsis, fleet-shared
//!     .run();
//! // snapshot.save(path) / SynopsisSnapshot::load(path) cross processes.
//! let snapshot = first.store().expect("learning fleet").snapshot();
//! let next = FleetConfig::builder()
//!     .service(ServiceConfig::tiny())
//!     .replicas(4)
//!     .ticks(150)
//!     .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
//!     .learner(LearnerChoice::locked())
//!     .warm_start(snapshot)                 // knows every healed signature
//!     .run();
//! assert_eq!(next.replicas().len(), 4);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use selfheal_core as healing;
pub use selfheal_daemon as daemon;
pub use selfheal_diagnosis as diagnosis;
pub use selfheal_faults as faults;
pub use selfheal_fleet as fleet;
pub use selfheal_gateway as gateway;
pub use selfheal_jsonl as jsonl;
pub use selfheal_learn as learn;
pub use selfheal_sim as sim;
pub use selfheal_telemetry as telemetry;
pub use selfheal_workload as workload;
