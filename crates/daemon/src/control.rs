//! The control plane: a Unix-domain-socket server feeding parsed commands
//! to the daemon loop, and the [`Daemon`] loop itself.
//!
//! The socket threads never touch the fleet.  Each parses its connection's
//! request lines into [`Command`]s, enqueues them with a reply channel, and
//! waits; the daemon loop drains the queue *between epochs* and answers
//! through the channel.  Commands therefore land exactly at epoch barriers —
//! the same synchronization points the batch scheduler uses — so the ticks
//! between two control events stay deterministic per replica.

use crate::protocol::{is_ok_reply, parse_command, reply_err, reply_ok, Command};
use crate::supervisor::Supervisor;
use crate::tenants::TenantRegistry;
use crate::DaemonConfig;
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::net::Shutdown;
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// A parsed command awaiting its epoch barrier, with the channel its reply
/// travels back on.
pub(crate) struct PendingCommand {
    command: Command,
    reply: mpsc::Sender<String>,
}

impl PendingCommand {
    /// The parsed command.
    pub(crate) fn command(&self) -> &Command {
        &self.command
    }

    /// Sends the full reply text (payload lines + terminator) back to the
    /// waiting connection.
    pub(crate) fn respond(self, reply: String) {
        let _ = self.reply.send(reply);
    }
}

/// Live control connections beyond which a new one is answered `ERR` and
/// closed: every connection occupies a thread, and a client that opens them
/// in a loop must not be able to exhaust the daemon.
const MAX_CONNECTIONS: usize = 64;

/// How long a connection may sit without sending a command before it is
/// cut loose (it holds one of the [`MAX_CONNECTIONS`] slots meanwhile).
const IDLE_LIMIT: Duration = Duration::from_secs(600);

struct ControlShared {
    listener: UnixListener,
    queue: Mutex<VecDeque<PendingCommand>>,
    stop: AtomicBool,
    threads: Mutex<ControlThreads>,
}

/// Locks the command queue or the thread table, taking the guard back from
/// a poisoned mutex.  Both are shared by the daemon loop and every control
/// thread, and each update of either (a push, a drain, a counter) leaves it
/// whole — a control thread that died holding one must not take the loop,
/// or the threads still serving, down with it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The control plane's threads.  Each runs [`control_thread`]: accept a
/// connection, serve it to its end, accept the next.
#[derive(Default)]
struct ControlThreads {
    /// Every thread started, for `Drop` to join.
    handles: Vec<JoinHandle<()>>,
    /// How many of them are in `accept` rather than serving.
    accepting: usize,
    /// A clone of every stream being served, so a stop can end the blocking
    /// read its thread sits in.
    serving: Vec<UnixStream>,
}

/// The socket server: accepts connections on a Unix domain socket, parses
/// request lines, and queues `PendingCommand`s for the daemon loop.
///
/// Every connection is served on a thread of its own (at most 64 at a
/// time; one more is answered `ERR` and closed), and all of them feed the
/// one queue the daemon loop drains at its epoch barrier.  So any number of
/// waiting clients share the next barrier, a connection's replies arrive in
/// the order it sent its commands, and a session that sits idle delays
/// nobody.  The socket file is removed and every thread joined on [`Drop`].
pub struct ControlPlane {
    path: PathBuf,
    shared: Arc<ControlShared>,
}

impl std::fmt::Debug for ControlPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlPlane")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl ControlPlane {
    /// Binds the socket (removing any stale file at `path` first) and
    /// starts the first control thread.
    pub fn bind(path: &Path) -> io::Result<ControlPlane> {
        let _ = fs::remove_file(path);
        let shared = Arc::new(ControlShared {
            listener: UnixListener::bind(path)?,
            queue: Mutex::new(VecDeque::new()),
            stop: AtomicBool::new(false),
            threads: Mutex::new(ControlThreads::default()),
        });
        spawn_control_thread(&shared, &mut lock(&shared.threads))?;
        Ok(ControlPlane {
            path: path.to_path_buf(),
            shared,
        })
    }

    /// Drains every command queued since the last barrier.
    pub(crate) fn take_pending(&self) -> Vec<PendingCommand> {
        lock(&self.shared.queue).drain(..).collect()
    }

    /// Asks every control thread to exit: the connections being served stop
    /// reading (a reply already on its way is still written), and each
    /// thread, blocked in `accept` now or after its connection ends, is
    /// woken by one connection to the plane's own socket.
    pub(crate) fn request_stop(&self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let threads = lock(&self.shared.threads);
        for stream in &threads.serving {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let wakes = threads.handles.len();
        drop(threads);
        for _ in 0..wakes {
            let _ = UnixStream::connect(&self.path);
        }
    }
}

impl Drop for ControlPlane {
    fn drop(&mut self) {
        self.request_stop();
        // No thread starts another once it has seen the stop.
        let handles = std::mem::take(&mut lock(&self.shared.threads).handles);
        for handle in handles {
            let _ = handle.join();
        }
        let _ = fs::remove_file(&self.path);
    }
}

/// Starts one more control thread, counted as accepting.
fn spawn_control_thread(
    shared: &Arc<ControlShared>,
    threads: &mut ControlThreads,
) -> io::Result<()> {
    let thread_shared = Arc::clone(shared);
    let handle = thread::Builder::new()
        .name("control-plane".to_string())
        .spawn(move || control_thread(&thread_shared))?;
    threads.handles.push(handle);
    threads.accepting += 1;
    Ok(())
}

/// Accepts and serves connections, one at a time, until the stop.  A thread
/// that takes a connection while no other is left in `accept` starts one
/// first, so there is always somebody to take the next connection and the
/// plane holds one thread more than it ever had connections at once — a
/// command is read by the thread its connection woke, with no hand-over.
fn control_thread(shared: &Arc<ControlShared>) {
    while let Ok((stream, _)) = shared.listener.accept() {
        // The stop flag is read under the lock `request_stop` takes after
        // setting it: a connection is either in `serving` when the stop
        // hangs up on everything there, or never served.
        let mut threads = lock(&shared.threads);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if threads.serving.len() >= MAX_CONNECTIONS {
            let refusal = reply_err(&format!(
                "too many control connections (limit {MAX_CONNECTIONS})"
            ));
            let _ = (&stream).write_all(refusal.as_bytes());
            continue;
        }
        let Ok(peer) = stream.try_clone() else {
            continue;
        };
        let serving = peer.as_raw_fd();
        threads.serving.push(peer);
        threads.accepting -= 1;
        if threads.accepting == 0 {
            // Without a successor new connections wait for this one to end.
            let _ = spawn_control_thread(shared, &mut threads);
        }
        drop(threads);
        let _ = serve_connection(stream, shared);
        let mut threads = lock(&shared.threads);
        threads.serving.retain(|peer| peer.as_raw_fd() != serving);
        threads.accepting += 1;
    }
}

/// Serves one connection: a loop of request line → queue → reply.  Closes
/// on EOF (which is also what a stop makes the read return), a served
/// `SHUTDOWN`, or a read error — [`IDLE_LIMIT`] without a command is one.
fn serve_connection(stream: UnixStream, shared: &ControlShared) -> io::Result<()> {
    stream.set_read_timeout(Some(IDLE_LIMIT))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut buffer = String::new();
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return Ok(());
        }
        buffer.clear();
        if reader.read_line(&mut buffer)? == 0 {
            return Ok(());
        }
        let line = buffer.trim();
        if line.is_empty() {
            continue;
        }
        let (reply, was_shutdown) = match parse_command(line) {
            Err(message) => (reply_err(&message), false),
            Ok(command) => {
                let was_shutdown = command == Command::Shutdown;
                let (reply_tx, reply_rx) = mpsc::channel();
                lock(&shared.queue).push_back(PendingCommand {
                    command,
                    reply: reply_tx,
                });
                (wait_reply(reply_rx, shared), was_shutdown)
            }
        };
        writer.write_all(reply.as_bytes())?;
        writer.flush()?;
        if was_shutdown && is_ok_reply(&reply) {
            return Ok(());
        }
    }
}

/// Waits for the daemon loop's reply, bailing out with an `ERR` when the
/// daemon stops (or takes implausibly long to reach a barrier).
fn wait_reply(reply_rx: mpsc::Receiver<String>, shared: &ControlShared) -> String {
    for _ in 0..600 {
        match reply_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(reply) => return reply,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return reply_err("daemon is shutting down");
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return reply_err("daemon dropped the command");
            }
        }
    }
    reply_err("timed out waiting for the epoch barrier")
}

/// Launch options for a [`Daemon`] (everything that is about *this
/// process* rather than about the fleet — the fleet is the
/// [`DaemonConfig`]).
#[derive(Debug, Clone)]
pub struct DaemonOptions {
    /// Unix-socket path the control plane serves.
    pub socket: PathBuf,
    /// Replicas added at launch.
    pub replicas: usize,
    /// Fault profile of the launch replicas (a
    /// [`DaemonConfig::fault_profile`] word).
    pub profile: String,
    /// JSON-lines metrics file, appended every
    /// [`metrics_every`](Self::metrics_every) epochs.
    pub metrics: Option<PathBuf>,
    /// Epochs between metrics lines (0 disables).
    pub metrics_every: u64,
    /// Wall-clock pause between epochs (throttle; zero = run hot).
    pub epoch_pause: Duration,
}

impl DaemonOptions {
    /// Defaults: 2 `default`-profile replicas, metrics off, no throttle.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        DaemonOptions {
            socket: socket.into(),
            replicas: 2,
            profile: "default".to_string(),
            metrics: None,
            metrics_every: 50,
            epoch_pause: Duration::ZERO,
        }
    }
}

/// The resident daemon: a [`TenantRegistry`] of supervised fleets plus a
/// [`ControlPlane`], glued by the epoch loop in [`run`](Daemon::run).
pub struct Daemon {
    registry: TenantRegistry,
    control: ControlPlane,
    kill: Arc<AtomicBool>,
    options: DaemonOptions,
    metrics: Option<File>,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("registry", &self.registry)
            .field("control", &self.control)
            .finish_non_exhaustive()
    }
}

impl Daemon {
    /// Builds the tenant registry (which recreates persisted tenants and
    /// replays their snapshot logs), adds the launch replicas to the
    /// `default` tenant, opens the metrics file (append), and binds the
    /// control socket.
    pub fn launch(config: DaemonConfig, options: DaemonOptions) -> Result<Daemon, String> {
        let mut registry = TenantRegistry::new(config)?;
        for _ in 0..options.replicas {
            registry
                .default_supervisor_mut()
                .add_replica(&options.profile)?;
        }
        let metrics = match &options.metrics {
            Some(path) => Some(
                OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                    .map_err(|err| format!("cannot open metrics file {path:?}: {err}"))?,
            ),
            None => None,
        };
        let control = ControlPlane::bind(&options.socket)
            .map_err(|err| format!("cannot bind {:?}: {err}", options.socket))?;
        Ok(Daemon {
            registry,
            control,
            kill: Arc::new(AtomicBool::new(false)),
            options,
            metrics,
        })
    }

    /// Read access to the whole tenant registry.
    pub fn registry(&self) -> &TenantRegistry {
        &self.registry
    }

    /// A flag that hard-kills the daemon loop from another thread: on the
    /// next barrier the loop aborts *without* the final store flush —
    /// the in-process stand-in for `kill -9` the crash-restart tests use.
    pub fn kill_switch(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.kill)
    }

    /// The epoch loop: apply queued commands at the barrier, advance every
    /// active tenant one epoch, emit metrics, repeat — until `SHUTDOWN`
    /// (clean: stores flushed) or the kill switch (abort: no flush).
    pub fn run(mut self) -> Result<(), String> {
        // Metrics cadence counts loop iterations rather than any one
        // tenant's epoch clock: tenants tick independently, so no single
        // epoch counter describes the daemon as a whole.
        let mut iterations: u64 = 0;
        loop {
            if self.kill.load(Ordering::SeqCst) {
                self.control.request_stop();
                self.registry.abort();
                return Ok(());
            }
            for pending in self.control.take_pending() {
                let command = pending.command().clone();
                let (reply, shutdown) = apply_command(&mut self.registry, command);
                pending.respond(reply);
                if shutdown {
                    self.control.request_stop();
                    self.registry.shutdown();
                    return Ok(());
                }
            }
            if !self.registry.any_active() {
                thread::sleep(Duration::from_millis(20));
                continue;
            }
            self.registry.advance_all();
            iterations += 1;
            if let Some(file) = self.metrics.as_mut() {
                if self.options.metrics_every > 0
                    && iterations.is_multiple_of(self.options.metrics_every)
                {
                    for line in self.registry.health_lines() {
                        let _ = writeln!(file, "{line}");
                    }
                }
            }
            if !self.options.epoch_pause.is_zero() {
                thread::sleep(self.options.epoch_pause);
            }
        }
    }
}

/// Applies one command against the registry; returns the full reply text
/// and whether this was an accepted `SHUTDOWN`.
///
/// Daemon-wide commands (`TENANT ...`, `SHUTDOWN`) are handled here;
/// everything else is a fleet command, routed to the `@<tenant>` scope it
/// names or to the `default` tenant when unscoped — so a single-tenant
/// daemon behaves exactly as it did before tenancy existed.  A `SNAPSHOT`
/// aimed at a file the daemon itself writes (any tenant's snapshot log, the
/// tenant manifest) is refused before it reaches a fleet.
fn apply_command(registry: &mut TenantRegistry, command: Command) -> (String, bool) {
    let snapshot_target = match &command {
        Command::Snapshot(path) => Some(path),
        Command::Scoped { inner, .. } => match inner.as_ref() {
            Command::Snapshot(path) => Some(path),
            _ => None,
        },
        _ => None,
    };
    if let Some(path) = snapshot_target {
        if let Some(owner) = registry.owned_file(path) {
            let refusal = format!(
                "cannot snapshot to {}: that is {owner}, which the daemon itself writes",
                path.display()
            );
            return (reply_err(&refusal), false);
        }
    }
    match command {
        Command::Shutdown => (reply_ok(&["shutting down".to_string()]), true),
        Command::TenantCreate { name, shared_pool } => match registry.create(&name, shared_pool) {
            Ok(()) => (
                reply_ok(&[format!(
                    "tenant {name} created shared_pool={}",
                    if shared_pool { "on" } else { "off" }
                )]),
                false,
            ),
            Err(message) => (reply_err(&message), false),
        },
        Command::TenantDrop(name) => match registry.drop_tenant(&name) {
            Ok(()) => (reply_ok(&[format!("tenant {name} dropped")]), false),
            Err(message) => (reply_err(&message), false),
        },
        Command::TenantList => (reply_ok(&registry.list_lines()), false),
        Command::Scoped { tenant, inner } => match registry.supervisor_mut(&tenant) {
            Some(supervisor) => apply_fleet_command(supervisor, *inner),
            None => (reply_err(&format!("no tenant {tenant:?}")), false),
        },
        other => apply_fleet_command(registry.default_supervisor_mut(), other),
    }
}

/// Applies one per-fleet command against a single tenant's supervisor.
fn apply_fleet_command(supervisor: &mut Supervisor, command: Command) -> (String, bool) {
    match command {
        Command::Status => (reply_ok(&status_lines(supervisor)), false),
        Command::Replicas => {
            let lines: Vec<String> = supervisor
                .replica_health()
                .iter()
                .map(|replica| {
                    format!(
                        "replica {} profile={} state={} ticks={} episodes={} open={} \
                         fixes={} restarts={} heartbeat_ms={} active_faults={}",
                        replica.id,
                        replica.profile,
                        replica.state.label(),
                        replica.ticks,
                        replica.episodes,
                        replica.open_episodes,
                        replica.fixes_initiated,
                        replica.restarts,
                        replica.last_heartbeat_ms,
                        replica.active_faults
                    )
                })
                .collect();
            (reply_ok(&lines), false)
        }
        Command::Add(profile) => match supervisor.add_replica(&profile) {
            Ok(id) => {
                let profile = supervisor
                    .replica_health()
                    .iter()
                    .find(|r| r.id == id)
                    .map(|r| r.profile.clone())
                    .unwrap_or_default();
                (
                    reply_ok(&[format!("replica {id} added profile={profile}")]),
                    false,
                )
            }
            Err(message) => (reply_err(&message), false),
        },
        Command::Remove(id) => match supervisor.remove_replica(id) {
            Ok(()) => (reply_ok(&[format!("replica {id} removed")]), false),
            Err(message) => (reply_err(&message), false),
        },
        Command::Reconfigure { id, key, value } => match supervisor.reconfigure(id, &key, &value) {
            Ok(applied) => (
                reply_ok(&[format!("replica {id} reconfigured {applied}")]),
                false,
            ),
            Err(message) => (reply_err(&message), false),
        },
        Command::QueryFixes(Some(signature)) => match supervisor.suggest_fix(&signature) {
            Ok(Some((fix, confidence))) => (
                reply_ok(&[format!("fix={} confidence={confidence:.3}", fix.label())]),
                false,
            ),
            Ok(None) => (reply_ok(&["no_suggestion".to_string()]), false),
            Err(message) => (reply_err(&message), false),
        },
        Command::QueryFixes(None) => {
            let stats = supervisor.fix_stats();
            let mut lines: Vec<String> = if stats.is_empty() {
                vec!["no_experience".to_string()]
            } else {
                stats
                    .iter()
                    .map(|s| {
                        format!(
                            "fix={} successes={} failures={} success_rate={:.3}",
                            s.fix.label(),
                            s.successes,
                            s.failures,
                            s.success_rate()
                        )
                    })
                    .collect()
            };
            // A pooled tenant also reports what the cross-tenant pool knows
            // (prefixed so namespace and pool experience never blur).
            if let Some(pool_stats) = supervisor.pool_stats() {
                for s in &pool_stats {
                    lines.push(format!(
                        "pool fix={} successes={} failures={} success_rate={:.3}",
                        s.fix.label(),
                        s.successes,
                        s.failures,
                        s.success_rate()
                    ));
                }
            }
            (reply_ok(&lines), false)
        }
        Command::Metrics => (reply_ok(&[supervisor.health().to_json_line()]), false),
        Command::EpisodesOpen => {
            let mut lines: Vec<String> = supervisor
                .replica_health()
                .iter()
                .filter(|replica| replica.open_episodes > 0)
                .map(|replica| format!("replica {} open={}", replica.id, replica.open_episodes))
                .collect();
            lines.push(format!("total_open={}", supervisor.total_open_episodes()));
            (reply_ok(&lines), false)
        }
        Command::Snapshot(path) => match supervisor.snapshot_to(&path) {
            Ok(examples) => (
                reply_ok(&[format!("snapshot={} examples={examples}", path.display())]),
                false,
            ),
            Err(err) => (
                reply_err(&format!("cannot snapshot to {}: {err}", path.display())),
                false,
            ),
        },
        Command::Drain => {
            supervisor.drain();
            (reply_ok(&["draining".to_string()]), false)
        }
        // Unreachable through the parser (it rejects `@t <global>`), kept
        // for programmatic construction.
        Command::Shutdown
        | Command::TenantCreate { .. }
        | Command::TenantDrop(_)
        | Command::TenantList
        | Command::Scoped { .. } => (
            reply_err("daemon-wide commands cannot be applied to one tenant"),
            false,
        ),
    }
}

/// The `STATUS` payload: daemon, fleet, store, and per-replica
/// error/restart summary lines.
fn status_lines(supervisor: &Supervisor) -> Vec<String> {
    let health = supervisor.health();
    let replay = supervisor.log_replay();
    let (failures_recorded, negatives_kept) = supervisor.store().failure_memory();
    let persist = supervisor
        .store_path()
        .map(|p| p.display().to_string())
        .unwrap_or_else(|| "none".to_string());
    let mut lines = vec![
        format!(
            "epoch={} uptime_ms={} draining={} drained={}",
            health.epoch,
            health.uptime_ms,
            supervisor.draining(),
            supervisor.is_drained()
        ),
        format!(
            "replicas={} running={} restarting={} failed={}",
            supervisor.replica_count(),
            health.running,
            health.restarting,
            health.failed
        ),
        format!(
            "ticks_total={} ticks_per_sec={:.1} epoch_us={}",
            health.total_ticks, health.ticks_per_sec, health.epoch_us
        ),
        format!(
            "store={} fixes_known={} pending_updates={} restored_examples={} persist={persist} \
             replay_ms={} replay_ranges={} log={} failures_recorded={failures_recorded} \
             negatives_kept={negatives_kept}",
            supervisor.store().kind().label(),
            health.fixes_known,
            health.pending_updates,
            replay.examples,
            replay.millis,
            replay.ranges,
            if supervisor.store().log_detached() {
                "detached"
            } else {
                replay.start.label()
            }
        ),
        format!(
            "open_episodes={} restarts_total={}",
            health.open_episodes, health.restarts
        ),
        format!(
            "adversary={} adversary_target={}",
            if supervisor.adversary_enabled() {
                "on"
            } else {
                "off"
            },
            supervisor
                .adversary_target()
                .map(|id| id.to_string())
                .unwrap_or_else(|| "none".to_string())
        ),
        format!(
            "tenant={} shared_pool={} pool_fixes_known={}",
            supervisor.label().unwrap_or("standalone"),
            if supervisor.pooled() { "on" } else { "off" },
            supervisor
                .pool_fixes_known()
                .map(|n| n.to_string())
                .unwrap_or_else(|| "none".to_string())
        ),
    ];
    for replica in supervisor.replica_health() {
        if replica.restarts > 0 || replica.last_error.is_some() {
            lines.push(format!(
                "replica {} state={} restarts={} last_error={:?}",
                replica.id,
                replica.state.label(),
                replica.restarts,
                replica.last_error.as_deref().unwrap_or("")
            ));
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::send_command;

    /// A thread that panics holding the command queue or the thread table
    /// poisons it.  The daemon loop drains that queue at every barrier and
    /// every control thread takes both: a `STATUS` sent afterwards must
    /// still be accepted, queued, drained and answered, and the plane must
    /// still stop and join its threads.
    #[test]
    fn a_status_is_answered_after_a_thread_died_holding_the_locks() {
        let socket = std::env::temp_dir().join(format!(
            "selfheal-control-poison-{}.sock",
            std::process::id()
        ));
        let plane = ControlPlane::bind(&socket).unwrap();
        let shared = Arc::clone(&plane.shared);
        let died = thread::spawn(move || {
            let _queue = shared.queue.lock().unwrap();
            let _threads = shared.threads.lock().unwrap();
            panic!("a control thread dies holding the queue and the thread table");
        })
        .join();
        assert!(died.is_err());
        assert!(plane.shared.queue.is_poisoned() && plane.shared.threads.is_poisoned());

        let client = thread::spawn({
            let socket = socket.clone();
            move || send_command(&socket, "STATUS", Duration::from_secs(20))
        });
        let mut registry = TenantRegistry::new(DaemonConfig::default()).unwrap();
        let pending = loop {
            match plane.take_pending().pop() {
                Some(pending) => break pending,
                None => thread::sleep(Duration::from_millis(2)),
            }
        };
        let (reply, _) = apply_command(&mut registry, pending.command().clone());
        pending.respond(reply);
        let reply = client.join().unwrap().unwrap();
        assert!(is_ok_reply(&reply) && reply.contains("epoch=0"), "{reply}");
        drop(plane);
        assert!(!socket.exists(), "the stop ran to its end");
    }
}
