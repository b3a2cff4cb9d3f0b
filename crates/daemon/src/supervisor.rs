//! The supervisor: one tenant's replicas in a shared
//! [`EpochEngine`], plus bounded restart-with-backoff.
//!
//! The supervisor owns no threads and no stepping loop.  Its replicas live
//! in the slots of an [`EpochEngine`] — the same engine a batch fleet run
//! drives, each runner built from a [`ReplicaPlan`] seeded by replica id
//! just as a batch fleet builds its own — and
//! [`advance_epoch`](Supervisor::advance_epoch) is one
//! [`EpochEngine::advance`] of [`DaemonConfig::slice`] ticks.  Between two
//! advances nothing runs, so that barrier is the only point where replicas
//! are added, removed, reconfigured, restarted, or queried; every healer's
//! store handle is gated, so the shared store sees the sequential
//! round-robin interleave however many workers sweep.
//!
//! What the supervisor adds is the failure policy.  A panicking replica is
//! not the end of the fleet (contrast the batch run, which retires panicked
//! replicas as [`ReplicaError`](selfheal_fleet::ReplicaError)s): the engine
//! catches the unwind, drops the poisoned runner, and reports the panic;
//! the supervisor schedules a rebuild after an exponential backoff,
//! rebuilding the runner from the replica's spec against the *still-alive*
//! shared store — so the replacement healer starts with everything the
//! fleet has learned, including whatever the doomed incarnation drained
//! before dying.  After [`DaemonConfig::max_restarts`] rebuilds the replica
//! is retired as failed, its last panic message kept for `STATUS`.

use crate::pool::PooledStore;
use crate::{parse_fault_rate, parse_rate, DaemonConfig, MAX_WORKLOAD_RATE};
use selfheal_core::harness::{
    FaultChoice, ReactiveChoice, ReplicaPlan, ReplicaSeeds, WorkloadChoice,
};
use selfheal_core::snapshot::SnapshotLog;
use selfheal_core::store::{FixStats, SynopsisStore};
use selfheal_core::synopsis::Learner;
use selfheal_faults::{FaultKind, FixKind};
use selfheal_fleet::{EpochEngine, ReplicaRunner};
use selfheal_sim::metrics::MetricsCatalog;
use selfheal_telemetry::{FleetHealth, ReplicaHealth, ReplicaState};
use selfheal_workload::ArrivalProcess;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

/// What one supervised replica *is*, independent of any runner incarnation:
/// its identity and its plan (the daemon's service, workload and policy,
/// with the replica's own fault recipe and any `RECONFIGURE`d
/// workload).  Restarts rebuild runners from this.
#[derive(Debug, Clone)]
pub struct ReplicaSpec {
    /// Fleet-unique id (monotonically assigned, never reused) — also the
    /// replica index all RNG streams are split by.
    pub id: usize,
    /// What the replica's runner is built from.
    pub plan: ReplicaPlan,
}

/// A replica's lifecycle phase, as the supervisor sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Restarting { resume_epoch: u64 },
    Failed,
}

/// Supervisor-side bookkeeping for one replica.
struct ReplicaEntry {
    spec: ReplicaSpec,
    phase: Phase,
    restarts: u32,
    /// `health` as the last incarnation to die left it (as at birth before
    /// any has): a rebuilt runner counts ticks, episodes and fixes from
    /// zero, and the replica's carry on from here.
    prior: ReplicaHealth,
    health: ReplicaHealth,
}

/// Which way startup went with the snapshot log (`STATUS`'s `log=` word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogStart {
    /// No [`DaemonConfig::store_path`]: the store lives in memory only.
    None,
    /// The file was absent and was created.
    Created,
    /// The file was replayed, verified and kept as it is: the store appends
    /// to the bytes already there.
    Adopted,
    /// The file was replayed and then written again from the store — it was
    /// a complete snapshot, or a log of another synopsis kind.
    Rewritten,
}

impl LogStart {
    /// The word `STATUS` and the launch line print.
    pub fn label(self) -> &'static str {
        match self {
            LogStart::None => "none",
            LogStart::Created => "created",
            LogStart::Adopted => "adopted",
            LogStart::Rewritten => "rewritten",
        }
    }
}

/// What startup did with the snapshot log and what it cost — the restart's
/// own time-to-recover, reported by `STATUS` (`restored_examples=`,
/// `replay_ms=`, `replay_ranges=`, `log=`) and by `selfheal-daemon`'s
/// launch line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogReplay {
    /// The path taken.
    pub start: LogStart,
    /// Examples replayed into the store.
    pub examples: usize,
    /// Bytes of log replayed.
    pub bytes: u64,
    /// Bytes of a torn final line cut off the log (0 = it ended whole).
    pub torn_bytes: u64,
    /// Wall time of replay, restore and attach (or rewrite), in ms.
    pub millis: u64,
    /// Byte ranges the log was replayed in, each on a core of its own
    /// ([`Replay::ranges`](selfheal_core::snapshot::Replay::ranges); 0 when
    /// nothing was replayed).
    pub ranges: usize,
}

impl LogReplay {
    /// A start that replayed nothing (yet).
    fn empty(start: LogStart) -> LogReplay {
        LogReplay {
            start,
            examples: 0,
            bytes: 0,
            torn_bytes: 0,
            millis: 0,
            ranges: 0,
        }
    }
}

/// Brings `store` up over the snapshot log at `path`, the one way every
/// start goes: replay and verify what is there ([`SnapshotLog::open`]),
/// restore the store from it, and keep appending to the same bytes.  The
/// file is written anew ([`SynopsisStore::persist_to`]) only when there is
/// nothing to adopt — it is absent, it is a complete snapshot, or its
/// header names another synopsis kind than the store's.
fn replay_log(store: &mut dyn SynopsisStore, path: &Path) -> Result<LogReplay, String> {
    let started = Instant::now();
    let persist_failed = |err: io::Error| format!("cannot persist synopsis to {path:?}: {err}");
    let mut replay = match SnapshotLog::open(path) {
        Ok(found) => {
            store.restore(&found.snapshot);
            let start = match found.log.filter(|_| found.snapshot.kind == store.kind()) {
                Some(log) => {
                    store.attach_log(log).map_err(persist_failed)?;
                    LogStart::Adopted
                }
                None => {
                    store.persist_to(path).map_err(persist_failed)?;
                    LogStart::Rewritten
                }
            };
            LogReplay {
                start,
                examples: found.snapshot.len(),
                bytes: found.bytes,
                torn_bytes: found.torn_bytes,
                millis: 0,
                ranges: found.ranges,
            }
        }
        Err(err) if err.kind() == io::ErrorKind::NotFound => {
            store.persist_to(path).map_err(persist_failed)?;
            LogReplay::empty(LogStart::Created)
        }
        Err(err) => return Err(format!("cannot replay snapshot log {path:?}: {err}")),
    };
    replay.millis = started.elapsed().as_millis() as u64;
    Ok(replay)
}

/// Owns one fleet's epoch engine, shared store, and epoch clock — the
/// heart of the resident daemon (see the module docs).
pub struct Supervisor {
    config: DaemonConfig,
    /// Holds and steps the replicas' runners.
    engine: EpochEngine,
    store: Box<dyn SynopsisStore>,
    /// A handle to the daemon-wide cross-tenant pool, when this fleet opted
    /// in (`shared_pool = on`); `store` is then a [`PooledStore`] wrapping
    /// the private primary.
    pool: Option<Box<dyn SynopsisStore>>,
    /// The tenant name stamped into health records (`None` for standalone
    /// supervisors outside a tenant registry).
    label: Option<String>,
    entries: BTreeMap<usize, ReplicaEntry>,
    next_id: usize,
    epoch: u64,
    /// Wall time of the last [`advance_epoch`](Self::advance_epoch), µs.
    epoch_us: u64,
    started: Instant,
    replay: LogReplay,
    draining: bool,
    adversary: bool,
    adversary_target: Option<usize>,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("epoch", &self.epoch)
            .field("replicas", &self.entries.keys().collect::<Vec<_>>())
            .field("replay", &self.replay)
            .field("draining", &self.draining)
            .field("adversary", &self.adversary)
            .finish_non_exhaustive()
    }
}

impl Supervisor {
    /// Builds the supervisor: validates the config (shared learning is
    /// mandatory), replays the [`DaemonConfig::store_path`] snapshot log
    /// when the file exists (crash-restart), and switches the store to
    /// incremental persistence — appending to that same file, which is
    /// rewritten only when it cannot be adopted ([`LogStart`]).  No
    /// replicas yet — call [`add_replica`](Self::add_replica).
    pub fn new(config: DaemonConfig) -> Result<Supervisor, String> {
        Self::with_pool(config, None)
    }

    /// Like [`new`](Self::new), but optionally wraps the fleet's store in a
    /// [`PooledStore`] against a daemon-wide pool handle: the fleet's
    /// healers then mirror every recorded outcome into the pool and fall
    /// back to it on suggestion misses, while snapshots, the incremental
    /// log, and per-fix statistics keep reading the private primary only.
    /// Used by the tenant registry for `shared_pool = on` tenants.
    pub(crate) fn with_pool(
        config: DaemonConfig,
        pool: Option<Box<dyn SynopsisStore>>,
    ) -> Result<Supervisor, String> {
        let Some(kind) = config.policy.synopsis_kind() else {
            return Err(format!(
                "the daemon requires a learning policy (got {}); try hybrid or fixsym",
                config.policy.label()
            ));
        };
        if !config.learner.is_shared() {
            return Err(format!(
                "the daemon requires a shared learner (got {}); try locked",
                config.learner.label()
            ));
        }
        let mut store = config.learner.build_store(kind);
        let replay = match &config.store_path {
            Some(path) => replay_log(store.as_mut(), path)?,
            None => LogReplay::empty(LogStart::None),
        };
        // Wrap *after* persistence is wired so the snapshot log stays a
        // pure per-fleet namespace; the pool never touches the file.
        let store: Box<dyn SynopsisStore> = match &pool {
            Some(pool) => Box::new(PooledStore::new(store, pool.clone_store())),
            None => store,
        };
        Ok(Supervisor {
            config,
            engine: EpochEngine::new(None),
            store,
            pool,
            label: None,
            entries: BTreeMap::new(),
            next_id: 0,
            epoch: 0,
            epoch_us: 0,
            started: Instant::now(),
            replay,
            draining: false,
            adversary: false,
            adversary_target: None,
        })
    }

    /// Milliseconds since the supervisor was built (the heartbeat clock).
    pub(crate) fn uptime_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Examples replayed from the snapshot log at startup.
    pub fn restored_examples(&self) -> usize {
        self.replay.examples
    }

    /// What startup did with the snapshot log, and what it cost.
    pub fn log_replay(&self) -> LogReplay {
        self.replay
    }

    /// The incremental-persistence path, when one is configured.
    pub fn store_path(&self) -> Option<&Path> {
        self.config.store_path.as_deref()
    }

    /// The fleet-wide synopsis store (live: replicas keep teaching it).
    pub fn store(&self) -> &dyn SynopsisStore {
        self.store.as_ref()
    }

    /// A live handle to the fleet-wide store — shared stores hand back the
    /// same state, so records through the handle are visible to (and
    /// pooled exactly like) the fleet's own healers.
    pub fn store_handle(&self) -> Box<dyn SynopsisStore> {
        self.store.clone_store()
    }

    /// Stamps the tenant name this fleet serves; `health()` tags its
    /// records with it.
    pub(crate) fn set_label(&mut self, label: &str) {
        self.label = Some(label.to_string());
    }

    /// The tenant name stamped by [`set_label`](Self::set_label), if any.
    pub(crate) fn label(&self) -> Option<&str> {
        self.label.as_deref()
    }

    /// Whether this fleet participates in the cross-tenant shared pool.
    pub fn pooled(&self) -> bool {
        self.pool.is_some()
    }

    /// Successful-fix examples visible through the cross-tenant pool
    /// (`None` when the fleet is not pooled).
    pub(crate) fn pool_fixes_known(&self) -> Option<usize> {
        self.pool.as_ref().map(|pool| pool.correct_fixes_learned())
    }

    /// Per-fix statistics over the cross-tenant pool's experience (`None`
    /// when the fleet is not pooled).  Kept separate from
    /// [`fix_stats`](Self::fix_stats) so a tenant's own record never blurs
    /// with borrowed knowledge.
    pub(crate) fn pool_stats(&self) -> Option<Vec<FixStats>> {
        self.pool.as_ref().map(|pool| pool.fix_stats())
    }

    /// Each running replica's deterministic outcome fingerprint at the
    /// current barrier, ordered by id — the byte-identity surface the
    /// tenant-isolation tests compare against standalone fleets.
    pub fn fingerprints(&self) -> Vec<(usize, u64)> {
        self.entries
            .keys()
            .filter_map(|id| {
                let fingerprint = self
                    .engine
                    .with_runner(*id, |runner| runner.outcome().fingerprint())?;
                Some((*id, fingerprint))
            })
            .collect()
    }

    /// Number of supervised replicas (running, restarting, or failed).
    pub(crate) fn replica_count(&self) -> usize {
        self.entries.len()
    }

    /// `true` after [`drain`](Self::drain), until a replica is added.
    pub(crate) fn draining(&self) -> bool {
        self.draining
    }

    /// `true` while the fleet-wide adversary is enabled
    /// (`RECONFIGURE <id> adversary=on`).
    pub fn adversary_enabled(&self) -> bool {
        self.adversary
    }

    /// The replica the adversary struck most recently (`None` while off).
    pub fn adversary_target(&self) -> Option<usize> {
        self.adversary_target
    }

    /// `true` when a drain was requested and every episode has closed —
    /// the daemon loop stops ticking then.
    pub(crate) fn is_drained(&self) -> bool {
        self.draining && self.total_open_episodes() == 0
    }

    /// Failure episodes currently open, summed over replicas.
    pub(crate) fn total_open_episodes(&self) -> usize {
        self.entries
            .values()
            .map(|entry| entry.health.open_episodes)
            .sum()
    }

    /// Per-replica health records, ordered by id.
    pub fn replica_health(&self) -> Vec<ReplicaHealth> {
        self.entries
            .values()
            .map(|entry| entry.health.clone())
            .collect()
    }

    /// The fleet-wide health roll-up at the current barrier — also the
    /// daemon's periodic JSON metrics line
    /// ([`FleetHealth::to_json_line`]).
    pub fn health(&self) -> FleetHealth {
        let mut health = FleetHealth {
            epoch: self.epoch,
            uptime_ms: self.uptime_ms(),
            fixes_known: self.store.correct_fixes_learned(),
            pending_updates: self.store.pending_updates(),
            epoch_us: self.epoch_us,
            adversary_target: self.adversary_target,
            tenant: self.label.clone(),
            ..FleetHealth::default()
        };
        health.absorb_replicas(self.entries.values().map(|entry| &entry.health));
        let secs = self.started.elapsed().as_secs_f64();
        health.ticks_per_sec = if secs > 0.0 {
            health.total_ticks as f64 / secs
        } else {
            0.0
        };
        health
    }

    /// The store's best fix for a failure signature (live query).  The
    /// signature comes from the wire, so it is checked before the learners
    /// see it: every component finite and as many of them as this fleet's
    /// symptom vectors have (one per metric of the service's schema).
    pub(crate) fn suggest_fix(&self, symptoms: &[f64]) -> Result<Option<(FixKind, f64)>, String> {
        let width = MetricsCatalog::build(&self.config.service).schema().len();
        if symptoms.len() != width {
            return Err(format!(
                "signature has {} components; this fleet's symptom vectors have {width}",
                symptoms.len()
            ));
        }
        if let Some(bad) = symptoms.iter().find(|v| !v.is_finite()) {
            return Err(format!("signature component {bad} is not finite"));
        }
        Ok(self.store.suggest(symptoms))
    }

    /// Per-fix success/failure statistics over the store's experience.
    pub(crate) fn fix_stats(&self) -> Vec<FixStats> {
        self.store.fix_stats()
    }

    /// Saves the store's full experience to a snapshot file; returns the
    /// example count written.  The file is a *complete* snapshot, so `path`
    /// must not be a live snapshot log (the daemon refuses such targets, see
    /// [`TenantRegistry::owned_file`](crate::TenantRegistry::owned_file)).
    pub(crate) fn snapshot_to(&self, path: &Path) -> io::Result<usize> {
        let snapshot = self.store.snapshot();
        snapshot.save(path)?;
        Ok(snapshot.len())
    }

    /// Adds a replica under a fault profile (see
    /// [`DaemonConfig::fault_profile`] for the accepted words) and installs
    /// its runner.  The replica warm-starts by construction: its healer is
    /// built against a handle of the shared store, so every fix the fleet
    /// has learned is already known to it.  Clears a pending drain.
    pub fn add_replica(&mut self, profile: &str) -> Result<usize, String> {
        let config = &self.config;
        let id = self.next_id;
        let spec = ReplicaSpec {
            id,
            plan: ReplicaPlan {
                service: config.service.clone(),
                workload: config.workload.clone(),
                faults: config.fault_profile(profile)?,
                policy: config.policy,
            },
        };
        let runner = self.runner_for(&spec);
        self.engine.insert(id, runner);
        let health = ReplicaHealth {
            id,
            profile: spec.plan.faults.label(),
            state: ReplicaState::Running,
            ticks: 0,
            episodes: 0,
            open_episodes: 0,
            fixes_initiated: 0,
            restarts: 0,
            last_heartbeat_ms: self.uptime_ms(),
            active_faults: 0,
            last_error: None,
        };
        self.entries.insert(
            id,
            ReplicaEntry {
                spec,
                phase: Phase::Running,
                restarts: 0,
                prior: health.clone(),
                health,
            },
        );
        self.next_id += 1;
        self.draining = false;
        Ok(id)
    }

    /// Stops and retires one replica.  Its id is never reused.
    pub(crate) fn remove_replica(&mut self, id: usize) -> Result<(), String> {
        self.entries
            .remove(&id)
            .ok_or_else(|| format!("no replica {id}"))?;
        self.engine.remove(id);
        Ok(())
    }

    /// Live-updates one replica's input streams.  Keys:
    ///
    /// * `fault_rate=<f64>` — per-tick fault probability, finite and clamped
    ///   to `[0, 1]` (the replica must already run a demographic mix).
    /// * `fault_profile=<word>` — any [`DaemonConfig::fault_profile`] word.
    /// * `workload_rate=<f64>` — synthetic arrival rate, finite, floored at
    ///   0 and refused above `MAX_WORKLOAD_RATE`.
    /// * `adversary=on|off` — toggles the *fleet-wide* adversarial chaos
    ///   engine (the id names which replica the command rode in on, but the
    ///   engine targets whichever replica is weakest at each reactive
    ///   barrier — every
    ///   [`REACTIVE_PERIOD`](selfheal_fleet::reactive::REACTIVE_PERIOD)
    ///   ticks, exactly as in a batch run; refused when
    ///   [`DaemonConfig::slice`] does not divide that period).
    ///
    /// The rebuilt source is seeded exactly as at construction
    /// ([`ReplicaSeeds::split`] by replica id) and swapped into the live
    /// runner; the spec's plan is updated so restarts keep the new recipe.  Returns a
    /// `key=value` description of what was applied.
    pub fn reconfigure(&mut self, id: usize, key: &str, value: &str) -> Result<String, String> {
        if !self.entries.contains_key(&id) {
            return Err(format!("no replica {id}"));
        }
        enum Change {
            Faults(FaultChoice),
            Workload(WorkloadChoice),
        }
        let change = match key {
            "adversary" => {
                let enable = match value {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("bad adversary value {other:?} (try on, off)")),
                };
                // The batch engine's own adversary, unbounded: weakest-replica
                // strikes with the catalog's cheapest-to-heal contention
                // fault, so a live fleet degrades rather than collapses.  A
                // slice that does not divide the reactive period is refused
                // here, leaving the adversary as it was.
                let adversary =
                    ReactiveChoice::adversary(FaultKind::BufferContention, 0.9, 0, u64::MAX);
                let choices = if enable { &[adversary][..] } else { &[] };
                self.engine.set_reactive(choices, self.config.slice)?;
                self.adversary = enable;
                self.adversary_target = None;
                return Ok(format!("adversary={}", if enable { "on" } else { "off" }));
            }
            "fault_rate" => {
                let rate = parse_fault_rate(value)?;
                let mut faults = self.entries[&id].spec.plan.faults.clone();
                match &mut faults {
                    FaultChoice::Mix { rate: current, .. } => *current = rate,
                    _ => {
                        return Err(format!(
                            "replica {id} runs no demographic mix; set fault_profile first"
                        ))
                    }
                }
                Change::Faults(faults)
            }
            "fault_profile" => Change::Faults(self.config.fault_profile(value)?),
            "workload_rate" => {
                let rate = parse_rate(value, "workload rate")?;
                if rate > MAX_WORKLOAD_RATE {
                    return Err(format!(
                        "workload rate {rate} exceeds the maximum of {MAX_WORKLOAD_RATE}"
                    ));
                }
                let mut workload = self.entries[&id].spec.plan.workload.clone();
                match &mut workload {
                    WorkloadChoice::Synthetic { arrivals, .. } => {
                        set_arrival_rate(arrivals, rate.max(0.0))
                    }
                    _ => {
                        return Err(format!(
                            "replica {id} runs a non-synthetic workload; \
                             workload_rate applies to synthetic arrivals only"
                        ))
                    }
                }
                Change::Workload(workload)
            }
            other => {
                return Err(format!(
                    "unknown key {other:?} (try fault_rate, fault_profile, workload_rate, \
                     adversary)"
                ))
            }
        };
        match change {
            Change::Faults(choice) => {
                self.set_faults(id, choice);
                Ok(format!("faults={}", self.entries[&id].health.profile))
            }
            Change::Workload(choice) => {
                let seed = ReplicaSeeds::split(self.config.base_seed, id).workload;
                let source = choice.source_for_replica(seed, id as u64);
                self.engine
                    .with_runner(id, |runner| runner.set_workload(source));
                let label = choice.label();
                if let Some(entry) = self.entries.get_mut(&id) {
                    entry.spec.plan.workload = choice;
                }
                Ok(format!("workload={label}"))
            }
        }
    }

    /// Swaps replica `id`'s fault recipe: into the live runner when there is
    /// one, and into the spec so restarts keep it.
    fn set_faults(&mut self, id: usize, choice: FaultChoice) {
        let seed = ReplicaSeeds::split(self.config.base_seed, id).faults;
        let source = choice.source_for_replica(seed, id as u64);
        self.engine
            .with_runner(id, |runner| runner.set_faults(source));
        if let Some(entry) = self.entries.get_mut(&id) {
            entry.health.profile = choice.label();
            entry.spec.plan.faults = choice;
        }
    }

    /// Stops fault injection fleet-wide: every replica's fault recipe is
    /// swapped for the quiet one, while ticking continues so open episodes
    /// heal out.  [`is_drained`](Self::is_drained) turns true once they
    /// have; [`add_replica`](Self::add_replica) resumes normal operation.
    pub(crate) fn drain(&mut self) {
        self.draining = true;
        let ids: Vec<usize> = self.entries.keys().copied().collect();
        for id in ids {
            self.set_faults(id, FaultChoice::default());
        }
    }

    /// Advances every running replica one epoch ([`DaemonConfig::slice`]
    /// ticks) through the engine and folds the per-replica results into
    /// health — the epoch barrier.  Replicas whose backoff expired are
    /// rebuilt first; replicas that panic during the epoch enter backoff (or
    /// retire at the restart cap).  Returns the number of replicas that
    /// advanced.
    pub fn advance_epoch(&mut self) -> usize {
        let began = Instant::now();
        self.epoch += 1;

        // Rebuild replicas whose backoff expired.
        let due: Vec<usize> = self
            .entries
            .iter()
            .filter_map(|(id, entry)| match entry.phase {
                Phase::Restarting { resume_epoch } if resume_epoch <= self.epoch => Some(*id),
                _ => None,
            })
            .collect();
        for id in due {
            let runner = self.runner_for(&self.entries[&id].spec);
            self.engine.insert(id, runner);
            if let Some(entry) = self.entries.get_mut(&id) {
                entry.phase = Phase::Running;
                entry.health.state = ReplicaState::Running;
            }
        }

        let results = self.engine.advance(self.config.slice);
        if let Some(strike) = self.engine.take_reactive_log().last() {
            self.adversary_target = Some(strike.replica);
        }

        let now_ms = self.uptime_ms();
        let max_restarts = self.config.max_restarts;
        let backoff_epochs = self.config.backoff_epochs.max(1);
        let mut advanced = 0;
        for (id, result) in results {
            let Some(entry) = self.entries.get_mut(&id) else {
                continue;
            };
            entry.health.last_heartbeat_ms = now_ms;
            match result {
                Ok(()) => {
                    advanced += 1;
                    let health = &mut entry.health;
                    let prior = &entry.prior;
                    self.engine.with_runner(id, |runner| {
                        health.ticks = prior.ticks + runner.ticks_run();
                        health.episodes = prior.episodes + runner.recovery().len();
                        health.open_episodes = usize::from(runner.recovery().in_episode());
                        health.fixes_initiated = prior.fixes_initiated + runner.fixes_initiated();
                        health.active_faults = runner.service().active_faults().len();
                    });
                }
                Err(error) => {
                    entry.prior = entry.health.clone();
                    entry.health.open_episodes = 0;
                    entry.health.last_error = Some(error.message);
                    if entry.restarts >= max_restarts {
                        entry.phase = Phase::Failed;
                        entry.health.state = ReplicaState::Failed;
                    } else {
                        entry.restarts += 1;
                        entry.health.restarts = entry.restarts;
                        let doubling = (entry.restarts - 1).min(16);
                        let backoff = backoff_epochs.saturating_mul(1 << doubling);
                        entry.phase = Phase::Restarting {
                            resume_epoch: self.epoch + backoff,
                        };
                        entry.health.state = ReplicaState::Restarting;
                    }
                }
            }
        }
        self.epoch_us = began.elapsed().as_micros() as u64;
        advanced
    }

    /// Clean exit: flushes the store (folding any queued updates into the
    /// model — and, with persistence on, into the snapshot log), then drops
    /// the engine and its workers.
    pub fn shutdown(self) {
        self.store.flush();
    }

    /// Simulated `kill -9`: drops the engine and its workers *without* the
    /// final flush, so only experience already drained to the snapshot log
    /// survives — exactly what dying mid-run loses.  The crash-restart tests
    /// restart a supervisor from the same store path after this.
    pub fn abort(self) {}

    /// Builds one runner for `spec` against a gated handle of the shared
    /// store — through the config's test factory when set, from the spec's
    /// plan seeded by replica id otherwise.
    fn runner_for(&self, spec: &ReplicaSpec) -> ReplicaRunner {
        let store = self.engine.gated_store(self.store.as_ref(), spec.id);
        match &self.config.runner_factory {
            Some(factory) => factory(spec, store.as_ref()),
            None => {
                let seeds = ReplicaSeeds::split(self.config.base_seed, spec.id);
                spec.plan.runner(spec.id, seeds, Some(store))
            }
        }
    }
}

/// Updates the "rate" knob shared by every arrival model.
fn set_arrival_rate(arrivals: &mut ArrivalProcess, rate: f64) {
    match arrivals {
        ArrivalProcess::Constant { rate: current } | ArrivalProcess::Poisson { rate: current } => {
            *current = rate
        }
        ArrivalProcess::Diurnal { base, .. } | ArrivalProcess::Surge { base, .. } => *base = rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hostile input must not kill the daemon loop: the adversary shares the
    /// batch engine's reactive barriers, which need the slice to divide the
    /// reactive period — a daemon launched with a slice that does not must
    /// answer `RECONFIGURE <id> adversary=on` with an error, not a panic.
    #[test]
    fn adversary_on_is_refused_when_the_slice_breaks_the_reactive_period() {
        let mut supervisor = Supervisor::new(DaemonConfig {
            slice: 48,
            ..DaemonConfig::default()
        })
        .unwrap();
        let id = supervisor.add_replica("none").unwrap();
        let refusal = supervisor.reconfigure(id, "adversary", "on").unwrap_err();
        assert!(refusal.contains("must divide"), "explains why: {refusal}");
        assert!(!supervisor.adversary_enabled(), "the adversary stays off");
        assert_eq!(
            supervisor.reconfigure(id, "adversary", "off").unwrap(),
            "adversary=off"
        );
        assert_eq!(supervisor.advance_epoch(), 1, "the fleet ticks on");
        assert_eq!(supervisor.adversary_target(), None);
        supervisor.shutdown();
    }

    /// Rates arrive from the wire (`ADD`, `RECONFIGURE`): non-finite ones
    /// and workload rates above [`MAX_WORKLOAD_RATE`] are refused, finite
    /// fault rates are clamped as before, and a refusal changes nothing.
    #[test]
    fn hostile_rates_are_refused_and_sane_ones_accepted() {
        let mut supervisor = Supervisor::new(DaemonConfig::default()).unwrap();
        let id = supervisor.add_replica("online:0.05").unwrap();
        let max = MAX_WORKLOAD_RATE.to_string();
        let cases: &[(&str, &str, Option<&str>)] = &[
            ("workload_rate", "1e9", None),
            ("workload_rate", "10000.5", None),
            ("workload_rate", "inf", None),
            ("workload_rate", "-inf", None),
            ("workload_rate", "nan", None),
            ("workload_rate", "fast", None),
            ("fault_rate", "nan", None),
            ("fault_rate", "inf", None),
            ("fault_profile", "online:nan", None),
            ("fault_profile", "online:inf", None),
            ("workload_rate", &max, Some("workload=synthetic_bidding")),
            ("workload_rate", "-3", Some("workload=synthetic_bidding")),
            ("fault_rate", "7", Some("faults=mix_online_1")),
            (
                "fault_profile",
                "content:0.5",
                Some("faults=mix_content_0.5"),
            ),
            ("fault_profile", "online:7", Some("faults=mix_online_1")),
            ("fault_profile", "online:-2", Some("faults=mix_online_0")),
        ];
        for &(key, value, expected) in cases {
            let before = supervisor.replica_health()[0].profile.clone();
            let result = supervisor.reconfigure(id, key, value);
            assert_eq!(result.as_deref().ok(), expected, "{key}={value}");
            if expected.is_none() {
                assert_eq!(supervisor.replica_health()[0].profile, before);
            }
        }
        for bad in ["online:nan", "online:inf", "online:-inf"] {
            assert!(supervisor.add_replica(bad).is_err(), "ADD {bad}");
        }
        assert_eq!(supervisor.replica_count(), 1, "refused ADDs add nothing");
        let clamped = supervisor.add_replica("online:7").unwrap();
        assert_eq!(supervisor.replica_health()[clamped].profile, "mix_online_1");
        assert_eq!(supervisor.advance_epoch(), 2, "the fleet ticks on");
        supervisor.shutdown();
    }
}
