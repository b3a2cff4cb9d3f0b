//! The repository's benchmark (see `README.md` beside `Cargo.toml`).
//!
//! With `--workload <name>` the program runs that workload in this process
//! and prints one JSON result line last.  Without it, the program is the
//! suite: it runs every workload in a child process of its own, untraced and
//! traced, prints every metric as `workload metric value unit`, and writes
//! `latest.json`.  `--repeat-check` runs the untraced set twice and compares
//! the two; `--spread-check` makes two rounds of ten runs, each with another
//! seed, and compares spreads and medians the way the benchmark is accepted.

mod fleet;
mod gen;
mod http;
mod report;
mod restart;
mod serving;
mod stats;
mod trace;

use report::{Metric, Report, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run in this process (empty = run the suite).
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// How long one run measures.
    pub seconds: f64,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Seconds `run.sh` spent bringing the build up to date (the suite
    /// prints it; it is no part of `setup_s`, which must repeat run to run).
    pub build_s: f64,
    /// Where traces, `latest.json` and scratch files go.
    pub out_dir: PathBuf,
    /// Run the untraced set twice and compare.
    pub repeat_check: bool,
    /// Run two rounds of [`SPREAD_RUNS`] seeds and compare.
    pub spread_check: bool,
}

/// Runs per round of `--spread-check`, each with another seed.
const SPREAD_RUNS: u64 = 10;

impl Args {
    /// The workloads a suite or check run covers: the one named with
    /// `--workload`, or all of them.
    fn selected(&self) -> impl Iterator<Item = &'static str> + '_ {
        WORKLOADS
            .into_iter()
            .filter(|name| self.workload.is_empty() || *name == self.workload)
    }

    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 42,
            seconds: 20.0,
            trace: false,
            build_s: 0.0,
            out_dir: PathBuf::from("benchmark/out"),
            repeat_check: false,
            spread_check: false,
        };
        let mut words = std::env::args().skip(1);
        while let Some(flag) = words.next() {
            match flag.as_str() {
                "--repeat-check" => {
                    args.repeat_check = true;
                    continue;
                }
                "--spread-check" => {
                    args.spread_check = true;
                    continue;
                }
                _ => {}
            }
            let value = words
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<f64>()
                    .ok()
                    .filter(|n| n.is_finite() && *n >= 0.0)
                    .ok_or_else(|| format!("{flag} needs a number, got {value:?}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => {
                    args.seed = value
                        .parse()
                        .map_err(|_| format!("--seed needs a whole number, got {value:?}"))?
                }
                "--seconds" => args.seconds = number()?,
                "--trace" => args.trace = number()? != 0.0,
                "--build-s" => args.build_s = number()?,
                "--out" => args.out_dir = PathBuf::from(&value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !args.workload.is_empty() && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "unknown workload {:?} (one of {})",
                args.workload,
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }

    /// This process's own scratch directory under the output directory:
    /// sockets, logs and snapshots live here and are removed at exit.  The
    /// path stays relative so Unix-socket paths stay short.
    pub fn scratch_dir(&self) -> PathBuf {
        self.out_dir.join(format!("tmp-{}", std::process::id()))
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Mean nanoseconds per call of `f` over `iterations` calls, after a tenth
/// as many unmeasured ones.
pub fn time_ns_per_call(iterations: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..iterations / 10 {
        f();
    }
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    start.elapsed().as_nanos() as f64 / iterations as f64
}

/// Runs one workload in this process.
fn run_workload(args: &Args) -> Report {
    let report = match (args.workload.as_str(), args.trace) {
        ("fleet_quiet", false) => fleet::run(fleet::Kind::Quiet, args),
        ("fleet_quiet", true) => fleet::run_traced(fleet::Kind::Quiet, args),
        ("fleet_faulty", false) => fleet::run(fleet::Kind::Faulty, args),
        ("fleet_faulty", true) => fleet::run_traced(fleet::Kind::Faulty, args),
        ("gateway_reads", false) => serving::run(serving::Kind::Reads, args),
        ("gateway_reads", true) => serving::run_traced(serving::Kind::Reads, args),
        ("gateway_mixed", false) => serving::run(serving::Kind::Mixed, args),
        ("gateway_mixed", true) => serving::run_traced(serving::Kind::Mixed, args),
        ("daemon_restart", false) => restart::run(args),
        ("daemon_restart", true) => restart::run_traced(args),
        (other, _) => unreachable!("workload {other:?} passed validation"),
    };
    let _ = std::fs::remove_dir_all(args.scratch_dir());
    report
}

/// Runs one workload in a fresh child process and parses its result line.
fn run_child(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot find this program: {err}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|err| format!("cannot start {workload}: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    Report::from_json(line).map_err(|err| format!("{workload} printed no result line: {err}"))
}

fn print_metrics(workload: &str, report: &Report, registry: &[Metric]) {
    for metric in registry {
        if let Some(value) = report.values.get(metric.name) {
            println!("{workload} {} {value} {}", metric.name, metric.unit);
        }
    }
}

/// One pass over every workload; returns the reports and whether all were
/// correct with nothing failed.
fn run_set(args: &Args, trace: bool) -> (Vec<(String, Report)>, bool) {
    let mut ok = true;
    let mut reports = Vec::new();
    for workload in args.selected() {
        match run_child(args, workload, args.seed, trace) {
            Ok(report) => {
                let failed_share = report.failed as f64 / report.attempted.max(1) as f64;
                println!("{workload} failed_share {failed_share} share");
                ok &= report.correct && report.failed == 0;
                print_metrics(
                    workload,
                    &report,
                    if trace { PER_LAYER } else { END_TO_END },
                );
                reports.push((workload.to_string(), report));
            }
            Err(err) => {
                eprintln!("{err}");
                ok = false;
            }
        }
    }
    (reports, ok)
}

fn latest_json(sets: &[(&str, &[(String, Report)])], args: &Args) -> String {
    let mut out = format!(
        "{{\"seed\":{},\"seconds\":{},\"build_s\":{},\"cores\":{},\"connections\":{}",
        args.seed,
        args.seconds,
        args.build_s,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        serving::connections()
    );
    for (kind, reports) in sets {
        let registry = if *kind == "per_layer" {
            PER_LAYER
        } else {
            END_TO_END
        };
        out.push_str(&format!(",\n\"{kind}\":{{"));
        for (i, (workload, report)) in reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n\"{workload}\":{}",
                report.to_json(registry, false)
            ));
        }
        out.push_str("\n}");
    }
    out.push_str("\n}\n");
    out
}

/// The suite: every workload untraced, then traced.
fn suite(args: &Args) -> bool {
    println!("suite build_s {} s", args.build_s);
    let (end_to_end, first_ok) = run_set(args, false);
    let (per_layer, second_ok) = run_set(args, true);
    let path = args.out_dir.join("latest.json");
    let text = latest_json(
        &[("end_to_end", &end_to_end), ("per_layer", &per_layer)],
        args,
    );
    match std::fs::write(&path, text) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("cannot write {}: {err}", path.display());
            return false;
        }
    }
    first_ok && second_ok
}

/// Two untraced passes over the same code must agree within each metric's
/// bound, in either direction.
fn repeat_check(args: &Args) -> bool {
    let (first, first_ok) = run_set(args, false);
    let (second, second_ok) = run_set(args, false);
    let mut ok = first_ok && second_ok;
    println!("workload metric first second difference bound verdict");
    for ((workload, a), (_, b)) in first.iter().zip(&second) {
        for metric in END_TO_END {
            let (Some(a), Some(b)) = (a.values.get(metric.name), b.values.get(metric.name)) else {
                ok = false;
                continue;
            };
            let difference = stats::worsening(*a, *b, metric.better).max(stats::worsening(
                *b,
                *a,
                metric.better,
            ));
            let within = difference <= metric.bound;
            ok &= within;
            println!(
                "{workload} {} {a} {b} {difference:.4} {} {}",
                metric.name,
                metric.bound,
                if within { "ok" } else { "MISS" }
            );
        }
    }
    ok
}

/// What the benchmark is accepted on: two rounds of [`SPREAD_RUNS`] runs of
/// each workload, every run with another seed.  In each round the distance
/// between a metric's quartiles, as a share of its median, must stay within
/// the metric's bound (`setup_s` is exempt), and no second median may be
/// worse than the first by more than the bound.  A spread above a third of
/// the bound is marked `wide`: lengthen the run before relying on it.
fn spread_check(args: &Args) -> bool {
    let mut ok = true;
    println!("workload metric median_1 spread_1 median_2 spread_2 worsening bound verdict");
    for workload in args.selected() {
        let mut rounds: Vec<Vec<Report>> = Vec::new();
        for _ in 0..2 {
            let round: Vec<Report> = (0..SPREAD_RUNS)
                .filter_map(|i| {
                    // lint:allow(seed-discipline): the runs of a round take consecutive `--seed` values; no stream is derived
                    let seed = args.seed + i;
                    match run_child(args, workload, seed, false) {
                        Ok(report) if report.correct && report.failed == 0 => {
                            eprintln!("{workload} seed {seed} {:?}", report.values);
                            Some(report)
                        }
                        Ok(report) => {
                            eprintln!(
                                "{workload}: {} of {} failed",
                                report.failed, report.attempted
                            );
                            None
                        }
                        Err(err) => {
                            eprintln!("{err}");
                            None
                        }
                    }
                })
                .collect();
            rounds.push(round);
        }
        if rounds.iter().any(|round| round.len() as u64 != SPREAD_RUNS) {
            ok = false;
            continue;
        }
        for metric in END_TO_END {
            let column = |round: &[Report]| -> Vec<f64> {
                round
                    .iter()
                    .map(|report| report.values[metric.name])
                    .collect()
            };
            let (first, second) = (column(&rounds[0]), column(&rounds[1]));
            let (median_1, median_2) = (stats::median(&first), stats::median(&second));
            let widest = stats::spread(&first).max(stats::spread(&second));
            let steady = metric.name == "setup_s" || widest <= metric.bound;
            let held = stats::within_bound(median_1, median_2, metric.better, metric.bound);
            ok &= steady && held;
            println!(
                "{workload} {} {median_1} {:.4} {median_2} {:.4} {:.4} {} {}",
                metric.name,
                stats::spread(&first),
                stats::spread(&second),
                stats::worsening(median_1, median_2, metric.better),
                metric.bound,
                match (steady && held, widest <= metric.bound / 3.0) {
                    (false, _) => "MISS",
                    (true, false) => "wide",
                    (true, true) => "ok",
                }
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("cannot create {}: {err}", args.out_dir.display());
        return ExitCode::from(2);
    }
    if !args.workload.is_empty() && !args.repeat_check && !args.spread_check {
        let report = run_workload(&args);
        let (registry, require_all) = if args.trace {
            (PER_LAYER, false)
        } else {
            (END_TO_END, true)
        };
        println!("{}", report.to_json(registry, require_all));
        return ExitCode::SUCCESS;
    }
    let ok = if args.repeat_check {
        repeat_check(&args)
    } else if args.spread_check {
        spread_check(&args)
    } else {
        suite(&args)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
