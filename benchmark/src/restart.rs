//! The restart workload: what whoever restarts the daemon waits for.
//!
//! Set-up writes a snapshot log the size a long-lived daemon accumulates —
//! a short seeded fleet's real `SynopsisExample`s, amplified with seeded
//! jitter to [`EXAMPLES`] and written in the program's own format.  Each
//! cycle then copies the log, launches a daemon on the copy, and waits for
//! the first `STATUS` reply that is OK and reports every example restored.
//! `jsonl`, `core::snapshot` and the store's restore path do the work; the
//! simulator does almost none.

use crate::gen::amplify;
use crate::http::field;
use crate::report::Report;
use crate::stats::{fastest, median, percentile};
use crate::{peak_rss_mb, time_ns_per_call, Args};
use selfheal::daemon::protocol::{is_ok_reply, send_command};
use selfheal::daemon::{Daemon, DaemonConfig, DaemonOptions};
use selfheal::fleet::FleetConfig;
use selfheal::healing::snapshot::{SnapshotLog, SynopsisSnapshot};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::thread;
use std::time::{Duration, Instant};

/// Examples in the log every restart replays.
const EXAMPLES: usize = 20_000;
/// Replicas of the restarted daemon's `default` tenant.
const RESIDENT: usize = 2;
/// Times the log is generated during set-up; the median is reported.
const SETUP_ROUNDS: usize = 5;
/// Fewest cycles, however short `--seconds` is.
const MIN_CYCLES: usize = 5;

fn daemon_config(seed: u64, log: &Path) -> DaemonConfig {
    DaemonConfig {
        base_seed: seed,
        store_path: Some(log.to_path_buf()),
        ..DaemonConfig::default()
    }
}

/// Generates the input: runs a short fleet of the daemon's own service,
/// policy and fault mix, amplifies what it learned, and writes the log.
fn write_log(seed: u64, path: &Path) -> Result<SynopsisSnapshot, String> {
    let config = DaemonConfig::default();
    let outcome = FleetConfig::builder()
        .service(config.service.clone())
        .workload(config.workload.clone())
        .policy(config.policy)
        .learner(config.learner)
        .faults(config.default_faults.clone())
        .series_capacity(config.series_capacity)
        .base_seed(seed)
        .replicas(4)
        .ticks(3_000)
        .run();
    let learned = outcome
        .store()
        .ok_or("the seeding fleet has no shared store")?
        .snapshot();
    if learned.is_empty() {
        return Err("the seeding fleet learned nothing to amplify".to_string());
    }
    let snapshot = amplify(&learned, EXAMPLES, seed);
    SnapshotLog::create(path, &snapshot)
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    Ok(snapshot)
}

fn status(socket: &Path) -> Result<Vec<String>, String> {
    let reply = send_command(socket, "STATUS", Duration::from_secs(60))
        .map_err(|err| format!("STATUS failed: {err}"))?;
    if !is_ok_reply(&reply) {
        return Err(format!("STATUS was refused: {reply}"));
    }
    Ok(reply.lines().map(str::to_string).collect())
}

/// What a daemon is launched with: a copy of the log under `dir` (the daemon
/// rewrites and appends to its store file) and a socket beside it.
fn stage(seed: u64, log: &Path, dir: &Path) -> Result<(DaemonConfig, DaemonOptions), String> {
    std::fs::create_dir_all(dir).map_err(|err| format!("cannot create {dir:?}: {err}"))?;
    let copy = dir.join("synopsis.jsonl");
    std::fs::copy(log, &copy).map_err(|err| format!("cannot copy the log: {err}"))?;
    let mut options = DaemonOptions::new(dir.join("d.sock"));
    options.replicas = RESIDENT;
    Ok((daemon_config(seed, &copy), options))
}

/// Copy the log, launch, wait for the first good reply, stop.  Returns the
/// milliseconds from launch to that reply.
fn cycle(seed: u64, log: &Path, dir: &Path) -> Result<f64, String> {
    let (config, options) = stage(seed, log, dir)?;
    let socket = dir.join("d.sock");

    let start = Instant::now();
    let daemon = Daemon::launch(config, options)?;
    let kill = daemon.kill_switch();
    let running = thread::spawn(move || daemon.run());
    let first = status(&socket);
    let ready_ms = start.elapsed().as_secs_f64() * 1e3;
    kill.store(true, Ordering::SeqCst);
    running
        .join()
        .map_err(|_| "the daemon loop panicked".to_string())??;
    let _ = std::fs::remove_dir_all(dir);

    let first = first?;
    if field(&first, "restored_examples") != Some(&EXAMPLES.to_string()) {
        return Err(format!("restored the wrong number of examples: {first:?}"));
    }
    Ok(ready_ms)
}

/// The untraced run.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let dir = args.scratch_dir();
    if let Err(err) = std::fs::create_dir_all(&dir) {
        report.fail_check(&format!("cannot create {dir:?}: {err}"));
        return report;
    }
    let log = dir.join("input.jsonl");

    let mut setups = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let start = Instant::now();
        if let Err(err) = write_log(args.seed, &log) {
            report.fail_check(&err);
            return report;
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    report.set("setup_s", median(&setups));

    let mut ready = Vec::new();
    let window = Instant::now();
    let mut round = 0;
    while round < MIN_CYCLES || window.elapsed().as_secs_f64() < args.seconds {
        match cycle(args.seed, &log, &dir.join(format!("cycle-{round}"))) {
            Ok(ready_ms) => {
                report.count(1, 0);
                ready.push(ready_ms);
            }
            Err(err) => {
                report.fail_check(&err);
                report.count(1, 1);
            }
        }
        round += 1;
    }
    // Every cycle replays the same log, so the fastest one is the one the
    // host disturbed least (README.md, "Steadiness").
    eprintln!("ready ms {ready:.1?}");
    let best_ms = fastest(&ready);
    report.set("work_per_s", EXAMPLES as f64 * 1e3 / best_ms);
    report.set("op_ms", best_ms);
    report.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "{} restarts over a {EXAMPLES}-example log, {best_ms:.1} to {:.1} ms, median {:.1}",
        ready.len(),
        percentile(&ready, 100.0),
        median(&ready)
    );
    report
}

/// The traced run: the public functions the restart path is made of, each
/// timed on the workload's own input.
pub fn run_traced(args: &Args) -> Report {
    let mut report = Report::default();
    let dir = args.scratch_dir();
    if let Err(err) = std::fs::create_dir_all(&dir) {
        report.fail_check(&format!("cannot create {dir:?}: {err}"));
        return report;
    }
    let log = dir.join("input.jsonl");
    let snapshot = match write_log(args.seed, &log) {
        Ok(snapshot) => snapshot,
        Err(err) => {
            report.fail_check(&err);
            return report;
        }
    };
    let repetitions = ((args.seconds / 2.0) as usize).clamp(3, 9);
    let timed_ms = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..repetitions)
            .map(|_| {
                let start = Instant::now();
                f();
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&samples)
    };

    let text = std::fs::read_to_string(&log).expect("the log was just written");
    let lines = text.lines().count();
    let parse_ms = timed_ms(&mut || {
        black_box(SynopsisSnapshot::from_jsonl(black_box(&text)).is_ok());
    });
    report.set("jsonl.parse_line_ns", parse_ms * 1e6 / lines as f64);

    let mut loaded = None;
    report.set(
        "core.snapshot_load_ms",
        timed_ms(&mut || loaded = SynopsisSnapshot::load(&log).ok()),
    );
    let same = loaded.as_ref() == Some(&snapshot);
    if !same {
        report.fail_check("the log does not load back to the snapshot it was written from");
    }
    report.count(1, u64::from(!same));

    let config = DaemonConfig::default();
    let kind = config.policy.synopsis_kind().expect("a learning policy");
    let mut store = config.learner.build_store(kind);
    report.set(
        "core.store_restore_ms",
        timed_ms(&mut || {
            store = config.learner.build_store(kind);
            store.restore(&snapshot);
        }),
    );
    let persisted = dir.join("persisted.jsonl");
    report.set(
        "core.persist_create_ms",
        timed_ms(&mut || {
            store
                .persist_to(&persisted)
                .expect("the scratch directory is writable")
        }),
    );
    let appended = dir.join("appended.jsonl");
    let append_log = SnapshotLog::create(&appended, &SynopsisSnapshot::new(kind))
        .expect("the scratch directory is writable");
    let mut at = 0;
    report.set(
        "core.log_append_us",
        time_ns_per_call(2_000, || {
            at = (at + 1) % snapshot.len();
            append_log
                .append(std::iter::once(&snapshot.examples[at]))
                .expect("the scratch directory is writable");
        }) / 1e3,
    );

    let mut launches = Vec::new();
    for round in 0..repetitions {
        match launch_only(args.seed, &log, &dir.join(format!("launch-{round}"))) {
            Ok(ms) => launches.push(ms),
            Err(err) => report.fail_check(&err),
        }
        report.count(1, u64::from(launches.len() <= round));
    }
    report.set("daemon.launch_ms", median(&launches));
    report
}

/// Times `Daemon::launch` alone over a copy of the log, then runs and stops
/// the daemon so its threads end.
fn launch_only(seed: u64, log: &Path, dir: &Path) -> Result<f64, String> {
    let (config, options) = stage(seed, log, dir)?;
    let start = Instant::now();
    let daemon = Daemon::launch(config, options)?;
    let launch_ms = start.elapsed().as_secs_f64() * 1e3;
    daemon.kill_switch().store(true, Ordering::SeqCst);
    daemon.run()?;
    let _ = std::fs::remove_dir_all(dir);
    Ok(launch_ms)
}
