//! `selfheal-daemon` — launch a resident self-healing fleet and serve its
//! control plane on a Unix domain socket.
//!
//! ```text
//! selfheal-daemon --socket /tmp/selfheal.sock [--replicas N] [--fault-mix P[:R]]
//!                 [--store PATH] [--metrics PATH] [--metrics-every N]
//!                 [--seed N] [--slice N] [--max-restarts N] [--backoff N]
//!                 [--batch N] [--profile WORD] [--epoch-ms N]
//! ```
//!
//! Drive it with `selfheal-ctl` (same crate) — see the README's "resident
//! daemon" quickstart.

use selfheal_core::harness::LearnerChoice;
use selfheal_daemon::{Daemon, DaemonConfig, DaemonOptions};
use std::io::Write;
use std::path::PathBuf;
use std::time::Duration;

const USAGE: &str = "usage: selfheal-daemon --socket PATH [options]
  --socket PATH        Unix socket the control plane serves (required)
  --replicas N         replicas added at launch (default 2)
  --fault-mix P[:R]    default fault profile: online|content|readmostly[:rate],
                       none (default online:0.02)
  --profile WORD       launch replicas' profile word (default: default)
  --store PATH         incremental snapshot log: replayed at startup,
                       appended on every drain (crash-restart durability)
  --metrics PATH       append a JSON health line every --metrics-every epochs
  --metrics-every N    epochs between metrics lines (default 50)
  --seed N             base seed (default 42)
  --slice N            ticks per epoch (default 32)
  --max-restarts N     runner rebuilds before a replica is retired (default 5)
  --backoff N          base restart backoff in epochs, doubling (default 2)
  --batch N            drain batch of the fleet's one store (default 1)
  --epoch-ms N         wall-clock pause between epochs (default 0: run hot)
  --help               print this help";

struct Args {
    socket: Option<PathBuf>,
    replicas: usize,
    fault_mix: String,
    profile: String,
    store: Option<PathBuf>,
    metrics: Option<PathBuf>,
    metrics_every: u64,
    seed: u64,
    slice: u64,
    max_restarts: u32,
    backoff: u64,
    batch: usize,
    epoch_ms: u64,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        socket: None,
        replicas: 2,
        fault_mix: "online:0.02".to_string(),
        profile: "default".to_string(),
        store: None,
        metrics: None,
        metrics_every: 50,
        seed: 42,
        slice: 32,
        max_restarts: 5,
        backoff: 2,
        batch: 1,
        epoch_ms: 0,
    };
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--socket" => parsed.socket = Some(PathBuf::from(value("--socket")?)),
            "--replicas" => parsed.replicas = numeric("--replicas", &value("--replicas")?)?,
            "--fault-mix" => parsed.fault_mix = value("--fault-mix")?,
            "--profile" => parsed.profile = value("--profile")?,
            "--store" => parsed.store = Some(PathBuf::from(value("--store")?)),
            "--metrics" => parsed.metrics = Some(PathBuf::from(value("--metrics")?)),
            "--metrics-every" => {
                parsed.metrics_every = numeric("--metrics-every", &value("--metrics-every")?)?
            }
            "--seed" => parsed.seed = numeric("--seed", &value("--seed")?)?,
            "--slice" => parsed.slice = numeric("--slice", &value("--slice")?)?,
            "--max-restarts" => {
                parsed.max_restarts = numeric("--max-restarts", &value("--max-restarts")?)?
            }
            "--backoff" => parsed.backoff = numeric("--backoff", &value("--backoff")?)?,
            "--batch" => parsed.batch = numeric("--batch", &value("--batch")?)?,
            "--epoch-ms" => parsed.epoch_ms = numeric("--epoch-ms", &value("--epoch-ms")?)?,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if parsed.socket.is_none() {
        return Err(format!("--socket is required\n{USAGE}"));
    }
    Ok(parsed)
}

fn numeric<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse::<T>()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let mut config = DaemonConfig {
        base_seed: args.seed,
        slice: args.slice.max(1),
        max_restarts: args.max_restarts,
        backoff_epochs: args.backoff.max(1),
        store_path: args.store.clone(),
        learner: LearnerChoice::Locked {
            batch: args.batch.max(1),
        },
        ..DaemonConfig::default()
    };
    config.default_faults = config.fault_profile(&args.fault_mix)?;

    let socket = args.socket.expect("checked in parse_args");
    let mut options = DaemonOptions::new(&socket);
    options.replicas = args.replicas;
    options.profile = args.profile;
    options.metrics = args.metrics;
    options.metrics_every = args.metrics_every;
    options.epoch_pause = Duration::from_millis(args.epoch_ms);

    let daemon = Daemon::launch(config, options)?;
    for name in daemon.registry().names() {
        let supervisor = daemon
            .registry()
            .supervisor(&name)
            .expect("a listed tenant");
        let Some(path) = supervisor.store_path() else {
            continue;
        };
        let replay = supervisor.log_replay();
        let torn = match replay.torn_bytes {
            0 => String::new(),
            bytes => format!(" torn_bytes_dropped={bytes}"),
        };
        println!(
            "selfheal-daemon: tenant={name} log={} path={} examples={} bytes={} replay_ms={} \
             replay_ranges={}{torn}",
            replay.start.label(),
            path.display(),
            replay.examples,
            replay.bytes,
            replay.millis,
            replay.ranges
        );
    }
    println!("selfheal-daemon: serving on {}", socket.display());
    let _ = std::io::stdout().flush();
    daemon.run()
}

fn main() {
    if let Err(message) = run() {
        eprintln!("{message}");
        std::process::exit(2);
    }
}
