//! The serving workloads: what operators and dashboards wait for when they
//! call the resident daemon through the HTTP gateway, while its tenants keep
//! ticking.
//!
//! The whole stack runs in this process: `Daemon::launch` + `run` on one
//! thread, `Gateway::launch` in front of it, and a closed loop of
//! [`CONNECTIONS`] keep-alive clients — callers that each wait for a reply
//! before sending the next request.
//!
//! * `gateway_reads` — the dashboard's read cycle only.
//! * `gateway_mixed` — the same with append-on-drain persistence and the
//!   audit log on, and every fifth request a write from the operator's
//!   add / reconfigure / snapshot / remove cycle.

use crate::gen::{Call, CallCycle};
use crate::http::{field, reply_lines, KeepAlive};
use crate::report::Report;
use crate::stats::{mean, median, percentile, samples_beyond};
use crate::trace::Tracer;
use crate::{peak_rss_mb, time_ns_per_call, Args};
use selfheal::daemon::protocol::{is_ok_reply, parse_command, render_command, send_command};
use selfheal::daemon::{Daemon, DaemonConfig, DaemonOptions, Supervisor};
use selfheal::fleet::FleetConfig;
use selfheal::gateway::auth::{AuthConfig, Scope, Token};
use selfheal::gateway::http::{read_request, Response};
use selfheal::gateway::router::{route, SAMPLES};
use selfheal::gateway::server::{Gateway, GatewayOptions};
use selfheal::healing::snapshot::SynopsisSnapshot;
use std::hint::black_box;
use std::io::{self, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The bearer secret of the one admin token.
const SECRET: &str = "benchmark-admin-secret";
/// Replicas the `default` tenant launches with; they are never removed, so
/// their tick counters measure the tenant's tick rate.
const RESIDENT: usize = 2;
/// Every how many requests `gateway_mixed` sends a write.
const WRITE_EVERY: usize = 5;
/// Times the stack is launched during set-up; the median is reported.
const SETUP_ROUNDS: usize = 3;
/// Good replies in a row that make a launched stack ready.  One reply alone
/// waits for zero, one or two 10 ms polls of the daemon's accept loop, so a
/// launch timed to its first reply falls into groups a median flips between.
const READY_REPLIES: usize = 10;
/// Unmeasured load before the window opens.
const WARM_UP: Duration = Duration::from_secs(1);

/// Client threads and connections: `min(cores, 4)`.
pub fn connections() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

/// Which of the two serving workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Reads only, nothing persisted.
    Reads,
    /// Reads and writes, snapshot log and audit log on.
    Mixed,
}

/// The running stack.
struct Stack {
    addr: SocketAddr,
    socket: PathBuf,
    dir: PathBuf,
    kill: Arc<AtomicBool>,
    daemon: Option<JoinHandle<Result<(), String>>>,
    gateway: Option<Gateway>,
}

fn daemon_config(kind: Kind, seed: u64, dir: &Path) -> DaemonConfig {
    DaemonConfig {
        base_seed: seed,
        store_path: (kind == Kind::Mixed).then(|| dir.join("synopsis.jsonl")),
        ..DaemonConfig::default()
    }
}

impl Stack {
    /// Launches daemon and gateway with their files under `dir`, and waits
    /// for [`READY_REPLIES`] good replies.
    fn launch(kind: Kind, seed: u64, dir: &Path) -> Result<Stack, String> {
        std::fs::create_dir_all(dir).map_err(|err| format!("cannot create {dir:?}: {err}"))?;
        let socket = dir.join("d.sock");
        let mut options = DaemonOptions::new(&socket);
        options.replicas = RESIDENT;
        let daemon = Daemon::launch(daemon_config(kind, seed, dir), options)?;
        let kill = daemon.kill_switch();
        let daemon = thread::Builder::new()
            .name("daemon-loop".to_string())
            .spawn(move || daemon.run())
            .map_err(|err| format!("cannot spawn the daemon loop: {err}"))?;
        let auth = AuthConfig::new(vec![Token::new("bench", SECRET, "*", Scope::Admin)]);
        let mut options = GatewayOptions::new("127.0.0.1:0", &socket, auth);
        if kind == Kind::Mixed {
            options.audit = Some(dir.join("audit.log"));
        }
        let gateway = Gateway::launch(options)?;
        let stack = Stack {
            addr: gateway.addr(),
            socket,
            dir: dir.to_path_buf(),
            kill,
            daemon: Some(daemon),
            gateway: Some(gateway),
        };
        let mut probe = KeepAlive::connect(stack.addr, SECRET)
            .map_err(|err| format!("cannot connect to the gateway: {err}"))?;
        for _ in 0..READY_REPLIES {
            let status = probe
                .call("GET", "/v1/tenants/default/status", None)
                .map_err(|err| format!("the stack never became ready: {err}"))?;
            if field(&reply_lines(&status), "tenant") != Some("default") {
                return Err(format!("unexpected status reply: {status}"));
            }
        }
        Ok(stack)
    }

    /// One command straight to the daemon's Unix socket.
    fn command(&self, line: &str) -> io::Result<Vec<String>> {
        let reply = send_command(&self.socket, line, Duration::from_secs(30))?;
        if !is_ok_reply(&reply) {
            return Err(io::Error::other(format!("{line}: {reply}")));
        }
        Ok(reply.lines().map(str::to_string).collect())
    }

    /// The clock of the resident replicas: their summed ticks and the
    /// moment that reply arrived, then the supervisor's epoch.
    fn clock(&self) -> io::Result<Clock> {
        let replicas = self.command("@default REPLICAS")?;
        let mut ticks = 0;
        for id in 0..RESIDENT {
            let prefix = format!("replica {id} ");
            let line = replicas
                .iter()
                .find(|line| line.starts_with(&prefix))
                .ok_or_else(|| io::Error::other(format!("resident replica {id} is gone")))?;
            ticks += field(std::slice::from_ref(line), "ticks")
                .and_then(|v| v.parse::<u64>().ok())
                .ok_or_else(|| io::Error::other(format!("no ticks in {line:?}")))?;
        }
        let at = Instant::now();
        let status = self.command("@default STATUS")?;
        let epoch = field(&status, "epoch")
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("no epoch in STATUS"))?;
        Ok(Clock { ticks, epoch, at })
    }

    /// Stops the gateway, then hard-stops the daemon loop and waits for it.
    fn stop(&mut self) -> Result<(), String> {
        drop(self.gateway.take());
        self.kill.store(true, Ordering::SeqCst);
        match self.daemon.take() {
            Some(daemon) => daemon
                .join()
                .map_err(|_| "the daemon loop panicked".to_string())?,
            None => Ok(()),
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

struct Clock {
    ticks: u64,
    epoch: u64,
    at: Instant,
}

/// Resident-replica ticks per second between two clock readings.
fn tick_rate(before: &Clock, after: &Clock) -> f64 {
    (after.ticks - before.ticks) as f64 / (after.at - before.at).as_secs_f64()
}

/// One reply: when it was sent (since the load began), how long it took,
/// and whether it was a write.
struct Sample {
    sent_s: f64,
    wait_ms: f64,
    write: bool,
}

/// What one connection did.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    failed: u64,
    writes_sent: u64,
}

/// One closed-loop client: sends its call cycle over one keep-alive
/// connection until told to stop, waiting for every reply.
fn client(
    stack_addr: SocketAddr,
    dir: PathBuf,
    mut cycle: CallCycle,
    connection: usize,
    began: Instant,
    stop: &AtomicBool,
    tracer: Option<Tracer>,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut link = KeepAlive::connect(stack_addr, SECRET).ok();
    let mut added: Option<String> = None;
    let snapshot_body = format!(
        "{{\"path\":\"{}\"}}",
        dir.join(format!("snapshot-{connection}.jsonl")).display()
    );
    let mut sequence = 0u64;
    while !stop.load(Ordering::SeqCst) {
        let call = cycle.next_call();
        let (method, target, body, name): (&str, String, Option<String>, &'static str) =
            match (&call, &added) {
                (Call::Get(target), _) => ("GET", target.to_string(), None, "gateway.read"),
                (Call::AddReplica, _) => (
                    "POST",
                    "/v1/tenants/default/replicas".to_string(),
                    Some("{\"profile\":\"online:0.02\"}".to_string()),
                    "gateway.write",
                ),
                (Call::Snapshot, _) => (
                    "POST",
                    "/v1/tenants/default/snapshot".to_string(),
                    Some(snapshot_body.clone()),
                    "gateway.write",
                ),
                (Call::ConfigureReplica, Some(id)) => (
                    "POST",
                    format!("/v1/tenants/default/replicas/{id}/config"),
                    Some("{\"key\":\"fault_rate\",\"value\":\"0.03\"}".to_string()),
                    "gateway.write",
                ),
                (Call::RemoveReplica, Some(id)) => (
                    "DELETE",
                    format!("/v1/tenants/default/replicas/{id}"),
                    None,
                    "gateway.write",
                ),
                (Call::ConfigureReplica | Call::RemoveReplica, None) => {
                    // The add this call depends on failed.
                    log.failed += 1;
                    continue;
                }
            };
        log.writes_sent += u64::from(call.is_write());
        sequence += 1;
        let sent = Instant::now();
        let reply = match link.as_mut() {
            Some(link) => link.call(method, &target, body.as_deref()),
            None => Err(io::Error::other("not connected")),
        };
        let received = Instant::now();
        let wait_ms = (received - sent).as_secs_f64() * 1e3;
        if let Some(tracer) = &tracer {
            tracer.record(name, sent, received, connection, sequence);
        }
        match reply {
            Ok(reply) => {
                match call {
                    // "replica <id> added profile=..."
                    Call::AddReplica => {
                        added = reply_lines(&reply)
                            .first()
                            .and_then(|line| line.split_whitespace().nth(1))
                            .map(str::to_string);
                    }
                    Call::RemoveReplica => added = None,
                    _ => {}
                }
                log.samples.push(Sample {
                    sent_s: (sent - began).as_secs_f64(),
                    wait_ms,
                    write: call.is_write(),
                });
            }
            Err(err) => {
                if log.failed < 3 {
                    eprintln!("connection {connection}: {err}");
                }
                log.failed += 1;
                link = KeepAlive::connect(stack_addr, SECRET).ok();
            }
        }
    }
    log
}

/// What a load phase measured.
struct Load {
    waits_ms: Vec<f64>,
    read_waits_ms: Vec<f64>,
    write_waits_ms: Vec<f64>,
    failed: u64,
    writes_sent: u64,
    window_s: f64,
    /// Epoch barriers the `default` tenant passed during the window.
    epochs: u64,
    /// Tick rate of the resident replicas over the whole window.
    ticks_per_s: f64,
}

/// Runs the closed loop: a warm-up, then a window of `seconds` between its
/// first and last clock reading.  Only replies sent and received inside the
/// window are samples.
fn load(
    stack: &Stack,
    kind: Kind,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
) -> io::Result<Load> {
    let write_every = if kind == Kind::Mixed { WRITE_EVERY } else { 0 };
    let began = Instant::now();
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<JoinHandle<ClientLog>> = (0..connections())
        .map(|connection| {
            let cycle = CallCycle::new(seed, connection, write_every);
            let (addr, dir, tracer) = (stack.addr, stack.dir.clone(), tracer.cloned());
            let stop = Arc::clone(&stop);
            thread::spawn(move || client(addr, dir, cycle, connection, began, &stop, tracer))
        })
        .collect();
    thread::sleep(WARM_UP.saturating_sub(began.elapsed()));
    let first = stack.clock();
    thread::sleep(Duration::from_secs_f64(seconds));
    let last = stack.clock();
    stop.store(true, Ordering::SeqCst);
    let logs: Vec<ClientLog> = clients
        .into_iter()
        .map(|client| client.join().expect("a client thread panicked"))
        .collect();
    let (first, last) = (first?, last?);
    let opened = (first.at - began).as_secs_f64();
    let closed = (last.at - began).as_secs_f64();
    let mut load = Load {
        waits_ms: Vec::new(),
        read_waits_ms: Vec::new(),
        write_waits_ms: Vec::new(),
        failed: logs.iter().map(|log| log.failed).sum(),
        writes_sent: logs.iter().map(|log| log.writes_sent).sum(),
        window_s: closed - opened,
        epochs: last.epoch - first.epoch,
        ticks_per_s: tick_rate(&first, &last),
    };
    for sample in logs.iter().flat_map(|log| &log.samples) {
        if sample.sent_s < opened || sample.sent_s + sample.wait_ms / 1e3 > closed {
            continue;
        }
        load.waits_ms.push(sample.wait_ms);
        if sample.write {
            load.write_waits_ms.push(sample.wait_ms);
        } else {
            load.read_waits_ms.push(sample.wait_ms);
        }
    }
    Ok(load)
}

/// What the files of a `gateway_mixed` run must hold afterwards: one audit
/// line per write sent, and snapshots the program can load back.
fn check_files(stack: &Stack, writes_sent: u64, report: &mut Report) {
    let audit = std::fs::read_to_string(stack.dir.join("audit.log")).unwrap_or_default();
    if audit.lines().count() as u64 != writes_sent {
        report.fail_check(&format!(
            "audit log holds {} lines for {writes_sent} writes",
            audit.lines().count()
        ));
    }
    for connection in 0..connections() {
        let path = stack.dir.join(format!("snapshot-{connection}.jsonl"));
        if path.exists() {
            if let Err(err) = SynopsisSnapshot::load(&path) {
                report.fail_check(&format!("{} does not load: {err}", path.display()));
            }
        }
    }
}

/// The untraced run.
pub fn run(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    let dir = args.scratch_dir();

    // Set-up: bringing the stack up until it is ready, several times.
    let mut setups = Vec::new();
    let mut stack = None;
    for round in 0..SETUP_ROUNDS {
        drop(stack.take());
        let start = Instant::now();
        match Stack::launch(kind, args.seed, &dir.join(format!("stack-{round}"))) {
            Ok(launched) => stack = Some(launched),
            Err(err) => {
                report.fail_check(&err);
                return report;
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut stack = stack.expect("launched SETUP_ROUNDS times");
    report.set("setup_s", median(&setups));

    match load(&stack, kind, args.seed, args.seconds, None) {
        Ok(load) => {
            report.count(load.waits_ms.len() as u64 + load.failed, load.failed);
            // The work of a gateway is its replies.  What the tenants still
            // tick meanwhile is the per-layer `daemon.loaded_ticks_per_s`:
            // one pass over a trajectory whose ticks get dearer as the store
            // grows has no undisturbed repetition to take, and did not
            // repeat within the bound.
            report.set("work_per_s", load.waits_ms.len() as f64 / load.window_s);
            // Latencies come in groups 4 ms apart (the gateway's replies
            // meet the client's delayed ACK), and a median or quartile
            // flips between two groups from run to run; the mean does not.
            report.set("op_ms", mean(&load.waits_ms));
            if kind == Kind::Mixed {
                check_files(&stack, load.writes_sent, &mut report);
            }
            eprintln!(
                "{} replies over {} connections in {:.2} s ({} writes), {} failed; latency p25 {:.2}, p50 {:.2}, p75 {:.2} ms",
                load.waits_ms.len(),
                connections(),
                load.window_s,
                load.write_waits_ms.len(),
                load.failed,
                percentile(&load.waits_ms, 25.0),
                median(&load.waits_ms),
                percentile(&load.waits_ms, 75.0)
            );
        }
        Err(err) => report.fail_check(&format!("cannot read the daemon's clock: {err}")),
    }
    if let Err(err) = stack.stop() {
        report.fail_check(&err);
    }
    report.set("peak_rss_mb", peak_rss_mb());
    report
}

/// The traced run: the per-layer numbers of the serving path.
pub fn run_traced(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    let dir = args.scratch_dir();
    let tracer = Tracer::new();
    let mut stack = match Stack::launch(kind, args.seed, &dir.join("stack")) {
        Ok(stack) => stack,
        Err(err) => {
            report.fail_check(&err);
            return report;
        }
    };
    if let Err(err) = serving_layers(&stack, kind, args, &tracer, &mut report) {
        report.fail_check(&format!("serving phase failed: {err}"));
    }
    if let Err(err) = stack.stop() {
        report.fail_check(&err);
    }
    supervisor_layers(args.seed, &mut report);
    function_layers(&mut report);

    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    if let Err(err) = tracer.write_jsonl(&path) {
        report.fail_check(&format!("cannot write {}: {err}", path.display()));
    }
    report
}

/// Idle, loaded, direct-command and connection-per-request phases against
/// the running stack.
fn serving_layers(
    stack: &Stack,
    kind: Kind,
    args: &Args,
    tracer: &Tracer,
    report: &mut Report,
) -> io::Result<()> {
    // Idle: the tenants tick with nobody asking.
    let idle_from = stack.clock()?;
    thread::sleep(Duration::from_secs_f64((args.seconds * 0.1).max(0.5)));
    let idle_rate = tick_rate(&idle_from, &stack.clock()?);
    report.set("daemon.idle_ticks_per_s", idle_rate);

    // Loaded: the workload's own closed loop, every request a client span.
    let load = load(stack, kind, args.seed, args.seconds * 0.5, Some(tracer))?;
    report.count(load.waits_ms.len() as u64 + load.failed, load.failed);
    report.set(
        "daemon.epoch_ms",
        load.window_s * 1e3 / load.epochs.max(1) as f64,
    );
    report.set("daemon.loaded_ticks_per_s", load.ticks_per_s);
    report.set("daemon.load_tick_cost", 1.0 - load.ticks_per_s / idle_rate);
    let req_p50 = median(&load.waits_ms);
    report.set("gateway.read_p50_ms", median(&load.read_waits_ms));
    report.set("gateway.write_p50_ms", median(&load.write_waits_ms));
    report.set("gateway.req_samples", load.waits_ms.len() as f64);
    // The tail is the highest of p99 / p95 / p90 with ten samples beyond it.
    let tail = [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| samples_beyond(load.waits_ms.len(), *p) >= 10);
    if let Some(p) = tail {
        report.set("gateway.req_p99_ms", percentile(&load.waits_ms, p));
        if p < 99.0 {
            eprintln!(
                "gateway.req_p99_ms is the p{p} of {} samples: too few for p99",
                load.waits_ms.len()
            );
        }
    }

    // The floor: the same command straight to the Unix socket.
    let mut direct = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(args.seconds * 0.2);
    while Instant::now() < until {
        let sent = Instant::now();
        let ok = stack.command("@default STATUS").is_ok();
        let received = Instant::now();
        tracer.record("daemon.command", sent, received, 0, direct.len() as u64);
        direct.push((received - sent).as_secs_f64() * 1e3);
        report.count(1, u64::from(!ok));
    }
    let cmd_p50 = median(&direct);
    report.set("daemon.cmd_p50_ms", cmd_p50);
    report.set("daemon.cmd_p99_ms", percentile(&direct, 99.0));
    report.set("gateway.overhead_p50_ms", req_p50 - cmd_p50);

    // The repository's own client: one connection per request.
    let mut fresh = Vec::new();
    let until = Instant::now() + Duration::from_secs_f64(args.seconds * 0.1);
    let addr = stack.addr.to_string();
    while Instant::now() < until {
        let sent = Instant::now();
        let reply = selfheal::gateway::client::request(
            &addr,
            "GET",
            "/v1/tenants/default/status",
            Some(SECRET),
            None,
        );
        let received = Instant::now();
        tracer.record(
            "gateway.connect_request",
            sent,
            received,
            0,
            fresh.len() as u64,
        );
        fresh.push((received - sent).as_secs_f64() * 1e3);
        let ok = reply.is_ok_and(|reply| reply.is_success() && reply.body.contains("\"ok\":true"));
        report.count(1, u64::from(!ok));
    }
    report.set("gateway.connect_p50_ms", median(&fresh));
    Ok(())
}

/// `Supervisor::advance_epoch` with no control plane, against the cost of
/// stepping the same replicas directly.
fn supervisor_layers(seed: u64, report: &mut Report) {
    let config = DaemonConfig {
        base_seed: seed,
        ..DaemonConfig::default()
    };
    let slice = config.slice;
    let epochs = 400u64;

    let mut supervisor = Supervisor::new(config.clone()).expect("the default config is valid");
    for _ in 0..RESIDENT {
        supervisor
            .add_replica("default")
            .expect("the default profile exists");
    }
    supervisor.advance_epoch();
    let start = Instant::now();
    for _ in 0..epochs {
        supervisor.advance_epoch();
    }
    let epoch_ns = start.elapsed().as_nanos() as f64 / epochs as f64;
    supervisor.shutdown();
    report.set("daemon.advance_epoch_us", epoch_ns / 1e3);

    // The same replicas, stepped on this thread through the fleet engine's
    // public replica constructor.
    let engine = FleetConfig::builder()
        .service(config.service.clone())
        .workload(config.workload.clone())
        .policy(config.policy)
        .learner(config.learner)
        .base_seed(config.base_seed)
        .series_capacity(config.series_capacity)
        .faults(config.default_faults.clone())
        .build();
    let store = engine.build_shared_store().expect("a shared learner");
    let mut runners: Vec<_> = (0..RESIDENT)
        .map(|replica| engine.replica_runner(replica, Some(store.as_ref())))
        .collect();
    let start = Instant::now();
    for _ in 0..(epochs + 1) * slice {
        for runner in &mut runners {
            black_box(runner.step());
        }
    }
    let step_ns =
        start.elapsed().as_nanos() as f64 / ((epochs + 1) * slice * RESIDENT as u64) as f64;
    let workers = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, RESIDENT);
    report.set(
        "daemon.actor_overhead_share",
        1.0 - (step_ns * slice as f64 * RESIDENT as f64) / (epoch_ns * workers as f64),
    );
}

/// A `Write` that counts how many writes reach it, as a socket would.
#[derive(Default)]
struct CountingWriter {
    writes: u64,
    bytes: u64,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The pure functions of the request path, on the router's own sample
/// requests.
fn function_layers(report: &mut Report) {
    let lines: Vec<&str> = SAMPLES
        .iter()
        .map(|sample| sample.line)
        .filter(|line| !line.is_empty())
        .collect();
    let commands: Vec<_> = lines
        .iter()
        .map(|line| parse_command(line).expect("router samples parse"))
        .collect();
    let mut at = 0;
    report.set(
        "daemon.parse_command_ns",
        time_ns_per_call(100_000, || {
            at = (at + 1) % lines.len();
            black_box(parse_command(black_box(lines[at])).is_ok());
        }),
    );
    report.set(
        "daemon.render_command_ns",
        time_ns_per_call(100_000, || {
            at = (at + 1) % commands.len();
            black_box(render_command(black_box(&commands[at])));
        }),
    );

    let wire: Vec<Vec<u8>> = SAMPLES
        .iter()
        .map(|sample| {
            let target = match sample.query {
                Some(query) => format!("{}?{query}", sample.path),
                None => sample.path.to_string(),
            };
            format!(
                "{} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nAuthorization: Bearer {SECRET}\r\nContent-Length: {}\r\n\r\n{}",
                sample.method,
                sample.body.len(),
                sample.body
            )
            .into_bytes()
        })
        .collect();
    report.set(
        "gateway.read_request_ns",
        time_ns_per_call(50_000, || {
            at = (at + 1) % wire.len();
            let mut reader = BufReader::new(wire[at].as_slice());
            black_box(matches!(read_request(&mut reader), Ok(Some(_))));
        }),
    );
    report.set(
        "gateway.route_ns",
        time_ns_per_call(100_000, || {
            at = (at + 1) % SAMPLES.len();
            let sample = &SAMPLES[at];
            black_box(
                route(
                    sample.method,
                    sample.path,
                    sample.query,
                    sample.body.as_bytes(),
                )
                .is_ok(),
            );
        }),
    );
    let auth = AuthConfig::new(vec![
        Token::new("reader", "another-secret-entirely", "default", Scope::Read),
        Token::new("bench", SECRET, "*", Scope::Admin),
    ]);
    report.set(
        "gateway.authorize_ns",
        time_ns_per_call(100_000, || {
            black_box(
                auth.authorize(black_box(Some(SECRET)), Some("default"), Scope::Operate)
                    .is_ok(),
            );
        }),
    );
    let response = Response::json(
        200,
        "{\"ok\":true,\"lines\":[\"epoch=1 uptime_ms=2 draining=false drained=false\",\"replicas=2 running=2 restarting=0 failed=0\"]}",
    );
    let mut sink = CountingWriter::default();
    response
        .write_to(&mut sink, true)
        .expect("a counting writer cannot fail");
    report.set("gateway.response_write_calls", sink.writes as f64);
    report.set(
        "gateway.response_write_ns",
        time_ns_per_call(100_000, || {
            let mut sink = CountingWriter::default();
            black_box(response.write_to(&mut sink, true).is_ok());
            black_box(sink.bytes);
        }),
    );
}
