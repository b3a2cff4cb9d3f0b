//! # selfheal-daemon
//!
//! The resident fleet daemon: the tick-sliced fleet of
//! [`selfheal_fleet`] turned into a long-lived, inspectable service.
//!
//! Every earlier artifact in this reproduction is a *batch* run — the
//! fleet, its shared [`SynopsisStore`],
//! and all learned fixes die when the process exits.  The paper's premise,
//! though, is a service that heals itself by accumulating fix knowledge
//! over its lifetime.  This crate supplies the missing serving story:
//!
//! * [`Supervisor`] — keeps its replicas in the slots of the fleet crate's
//!   [`EpochEngine`](selfheal_fleet::EpochEngine), the same engine a batch
//!   [`FleetEngine::run`](selfheal_fleet::FleetEngine::run) goes through,
//!   and advances them epoch by epoch (an epoch = [`DaemonConfig::slice`]
//!   ticks, ending at a barrier).  A replica panic becomes a bounded
//!   restart-with-backoff instead of run termination: the runner is rebuilt
//!   from the replica's spec, its healer warm against the *still-alive*
//!   shared store, until a restart cap retires the replica.  Per-replica
//!   health (ticks, episodes, restarts, heartbeats) is tracked via
//!   `selfheal_telemetry::health`.
//! * `control` — a line-oriented text protocol (see [`protocol`]) served
//!   over a Unix domain socket, std-only.  Commands (`STATUS`, `ADD`,
//!   `RECONFIGURE`, `QUERY FIXES`, `SNAPSHOT`, `DRAIN`, `SHUTDOWN`, ...)
//!   are queued by the socket thread and applied by the daemon loop at
//!   epoch barriers only, so between two control events every replica
//!   advances exactly as a batch run would.
//! * **Live queries** — `QUERY FIXES` and `STATUS` read the shared store
//!   (suggestions, per-fix success rates via
//!   [`SynopsisStore::fix_stats`],
//!   restored-example counts) while the fleet keeps ticking.
//! * **Crash-restart** — with [`DaemonConfig::store_path`] set, the store
//!   persists through the incremental
//!   [`SnapshotLog`](selfheal_core::snapshot::SnapshotLog): every drained
//!   batch is appended as it happens, and on startup the daemon replays the
//!   file, so a `kill -9` mid-run loses nothing already drained.  The
//!   replay reads the log once and rewrites nothing: the file is verified
//!   line by line, the store restored from it, and the same file — same
//!   bytes, same recording order — adopted for appending
//!   ([`LogStart::Adopted`]); it is written anew only when absent, a
//!   complete snapshot, or another synopsis kind's log.  A final line torn
//!   by the kill is cut off rather than refusing the start, and `SNAPSHOT`
//!   refuses to overwrite a file the daemon itself writes.  `STATUS`
//!   reports what the replay restored, what it cost and which way it went
//!   ([`LogReplay`]).
//! * **Multi-tenancy** — a [`TenantRegistry`] runs several named fleets in
//!   one daemon (`TENANT CREATE/DROP/LIST`, `@<tenant>` command scoping),
//!   each with its own store namespace and snapshot log, plus an opt-in
//!   cross-tenant [`PooledStore`] so fix knowledge can transfer between
//!   consenting tenants.  The HTTP gateway (`crates/gateway`) exposes the
//!   same [`Command`] surface over authenticated HTTP/JSON.
//!
//! ## Determinism
//!
//! The daemon is gated by construction: every healer's store handle waits
//! for its replica's turn in the epoch's id order (see
//! `selfheal_fleet::scheduler`), so the shared store observes the
//! sequential round-robin interleave however many worker threads sweep.
//! Each replica's simulated streams — service, workload, faults — are pure
//! functions of `(base_seed, replica_id)`, and commands land only at epoch
//! barriers.  An N-replica tenant whose replicas were all added before its
//! first epoch is therefore fingerprint-identical to the standalone batch
//! fleet of the same configuration, with or without the adversary
//! (`tests/daemon.rs` pins both); replicas added, removed or restarted
//! later change the fleet at a barrier, after which the run is again a pure
//! function of the command sequence.
//!
//! Tenancy does not change this: tenants advance sequentially inside the
//! daemon loop and never share mutable state except the opt-in pool, so an
//! unpooled tenant's fingerprints are byte-identical to the same config run
//! as a standalone supervisor — the isolation property `tests/tenants.rs`
//! pins at one and at three replicas.
//!
//! ## Example
//!
//! ```
//! use selfheal_daemon::{DaemonConfig, Supervisor};
//!
//! let mut supervisor = Supervisor::new(DaemonConfig::default()).unwrap();
//! let id = supervisor.add_replica("online:0.05").unwrap();
//! supervisor.advance_epoch();
//! assert_eq!(supervisor.replica_health()[0].id, id);
//! supervisor.shutdown();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod control;
pub(crate) mod pool;
pub mod protocol;
pub(crate) mod supervisor;
pub(crate) mod tenants;

pub use control::{ControlPlane, Daemon, DaemonOptions};
pub use pool::PooledStore;
pub use protocol::{parse_command, render_command, send_command, Command};
pub use supervisor::{LogReplay, LogStart, ReplicaSpec, Supervisor};
pub use tenants::{Tenant, TenantRegistry};

use selfheal_core::harness::{FaultChoice, LearnerChoice, PolicyChoice, WorkloadChoice};
use selfheal_core::store::SynopsisStore;
use selfheal_core::synopsis::SynopsisKind;
use selfheal_faults::ServiceProfile;
use selfheal_fleet::ReplicaRunner;
use selfheal_sim::ServiceConfig;
use selfheal_workload::{ArrivalProcess, WorkloadMix};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Per-tick fault probability used when an `ADD <profile>` omits the rate.
pub(crate) const DEFAULT_MIX_RATE: f64 = 0.02;

/// Largest `workload_rate` (requests per tick) a `RECONFIGURE` may set —
/// 250× the default workload.  Arrival generation allocates and loops per
/// request, so an unbounded rate from the wire would wedge or OOM the daemon
/// loop.
pub(crate) const MAX_WORKLOAD_RATE: f64 = 10_000.0;

/// Parses a rate that arrived from outside the process (`ADD`,
/// `RECONFIGURE`, `--fault-mix`): it must be a finite number, since `NaN`
/// survives every later clamp and an infinite rate never stops generating.
pub(crate) fn parse_rate(text: &str, what: &str) -> Result<f64, String> {
    match text.parse::<f64>() {
        Ok(rate) if rate.is_finite() => Ok(rate),
        _ => Err(format!("bad {what} {text:?}")),
    }
}

/// Parses a per-tick fault probability from outside the process and clamps
/// it to `[0, 1]` — the one parse behind `ADD`, `RECONFIGURE`'s
/// `fault_rate=` and `fault_profile=`, and `--fault-mix`, so the rate a
/// replica reports is the rate its source fires at.
pub(crate) fn parse_fault_rate(text: &str) -> Result<f64, String> {
    parse_rate(text, "fault rate").map(|rate| rate.clamp(0.0, 1.0))
}

/// Builds one replica runner — the test seam that lets supervisor tests
/// inject deliberately panicking replicas.  The second argument is the
/// replica's gated handle to the daemon's shared store; production runners
/// wire their healer to a
/// [`clone_store`](selfheal_core::store::SynopsisStore::clone_store) of it.
pub(crate) type RunnerFactory =
    Arc<dyn Fn(&ReplicaSpec, &dyn SynopsisStore) -> ReplicaRunner + Send + Sync>;

/// Configuration of a resident daemon (and its [`Supervisor`]).
///
/// The daemon *requires* shared learning — a learning policy (one with a
/// [`PolicyChoice::synopsis_kind`]) over a shared learner
/// ([`LearnerChoice::is_shared`]) — because its restart and warm-start
/// semantics hang off the fleet-wide store surviving individual replicas.
#[derive(Clone)]
pub struct DaemonConfig {
    /// Service simulated by every replica.
    pub service: ServiceConfig,
    /// Healing policy driving every replica (must learn).
    pub policy: PolicyChoice,
    /// Where learned state lives (must be shared: `Locked`).
    pub learner: LearnerChoice,
    /// Workload shape every replica runs (per-replica seeded).
    pub workload: WorkloadChoice,
    /// Fault profile replicas get when added as `default`.
    pub default_faults: FaultChoice,
    /// Base seed; each replica's streams are split from it by id, so a
    /// replica's simulated inputs are a pure function of `(seed, id)`.
    pub base_seed: u64,
    /// Ticks per epoch: how far every replica advances between barriers
    /// (and therefore between control-plane command applications).
    pub slice: u64,
    /// Ignored: a replica keeps no metric history.
    #[deprecated(note = "a replica keeps no metric history; this is ignored")]
    #[doc(hidden)]
    pub series_capacity: usize,
    /// Runner rebuilds allowed per replica before it is retired as failed.
    pub max_restarts: u32,
    /// Base restart backoff, in epochs; doubles on every consecutive
    /// restart of the same replica.
    pub backoff_epochs: u64,
    /// Incremental persistence file: replayed at startup (crash-restart),
    /// then appended to — in place — on every store drain.  `None` =
    /// in-memory only.
    pub store_path: Option<PathBuf>,
    /// Test seam: overrides how replica runners are built.  `None` (the
    /// default) builds them through
    /// [`ReplicaPlan::runner`](selfheal_core::harness::ReplicaPlan::runner).
    pub runner_factory: Option<RunnerFactory>,
}

impl Default for DaemonConfig {
    /// A fast-ticking default: the tiny service under a constant bidding
    /// workload, hybrid nearest-neighbor healing over one locked store that
    /// drains every update (so persistence lags reality by at most one
    /// in-flight record).
    #[allow(deprecated)] // `series_capacity` is set until the field goes.
    fn default() -> Self {
        DaemonConfig {
            service: ServiceConfig::tiny(),
            policy: PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor),
            learner: LearnerChoice::Locked { batch: 1 },
            workload: WorkloadChoice::synthetic(
                WorkloadMix::bidding(),
                ArrivalProcess::Constant { rate: 40.0 },
            ),
            default_faults: FaultChoice::mix_for(
                ServiceProfile::Online,
                DEFAULT_MIX_RATE,
                &ServiceConfig::tiny(),
            ),
            base_seed: 42,
            slice: 32,
            series_capacity: 256,
            max_restarts: 5,
            backoff_epochs: 2,
            store_path: None,
            runner_factory: None,
        }
    }
}

impl fmt::Debug for DaemonConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DaemonConfig")
            .field("policy", &self.policy.label())
            .field("learner", &self.learner.label())
            .field("workload", &self.workload.label())
            .field("default_faults", &self.default_faults.label())
            .field("base_seed", &self.base_seed)
            .field("slice", &self.slice)
            .field("max_restarts", &self.max_restarts)
            .field("backoff_epochs", &self.backoff_epochs)
            .field("store_path", &self.store_path)
            .field(
                "runner_factory",
                &self.runner_factory.as_ref().map(|_| ".."),
            )
            .finish_non_exhaustive()
    }
}

impl DaemonConfig {
    /// Parses a fault-profile word into the [`FaultChoice`] it names:
    /// `none` (quiet), `default` ([`DaemonConfig::default_faults`]), or
    /// `<service>[:<rate>]` where `<service>` is a
    /// [`ServiceProfile`] name (`online`, `content`, `readmostly`) and
    /// `<rate>` (finite; clamped to `[0, 1]`) defaults to
    /// `DEFAULT_MIX_RATE`.  Used by `ADD`,
    /// `RECONFIGURE <id> fault_profile=...`, and the daemon binary's
    /// `--fault-mix` flag.
    pub fn fault_profile(&self, text: &str) -> Result<FaultChoice, String> {
        match text.to_ascii_lowercase().as_str() {
            "none" => Ok(FaultChoice::default()),
            "default" => Ok(self.default_faults.clone()),
            other => {
                let (name, rate) = match other.split_once(':') {
                    Some((name, rate)) => (name, parse_fault_rate(rate)?),
                    None => (other, DEFAULT_MIX_RATE),
                };
                let profile = ServiceProfile::ALL
                    .into_iter()
                    .find(|p| p.name().eq_ignore_ascii_case(name))
                    .ok_or_else(|| {
                        format!(
                            "unknown fault profile {name:?} \
                             (try online, content, readmostly, none, default)"
                        )
                    })?;
                Ok(FaultChoice::mix_for(profile, rate, &self.service))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_profiles_parse_by_name_rate_and_keyword() {
        let config = DaemonConfig::default();
        assert_eq!(config.fault_profile("none").unwrap().label(), "none");
        assert_eq!(
            config.fault_profile("default").unwrap().label(),
            config.default_faults.label()
        );
        let mix = config.fault_profile("readmostly:0.1").unwrap();
        assert_eq!(mix.label(), "mix_readmostly_0.1");
        assert!(config.fault_profile("bogus").is_err());
        assert!(config.fault_profile("online:fast").is_err());
    }
}
