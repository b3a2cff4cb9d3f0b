//! Fleet scaling benchmark: replicas-vs-throughput and shared-vs-isolated
//! cold-start recovery, emitted as JSON for the bench trajectory.
//!
//! Two experiments:
//!
//! 1. **Scaling** — fleets of 1..=32 replicas × 5000 ticks each, run once
//!    through the parallel engine (worker threads) and once through the
//!    sequential tick-interleaver, reporting wall-clock, throughput, and the
//!    parallel speedup.  The >2× speedup claim is only meaningful on 4+
//!    cores; the JSON records the core count so single-core CI runs are
//!    interpreted correctly.
//! 2. **Cold start** — the same staggered fault hitting every replica in
//!    turn, once with one fleet-shared synopsis and once with isolated
//!    per-replica synopses.  Replicas whose fault arrives *after* another
//!    replica has healed it should recover in fewer attempts (and no more
//!    ticks) when the synopsis is shared.

//! ## CLI
//!
//! ```text
//! fleet_scaling                       # full-scale experiments (JSON to stdout + results/)
//! fleet_scaling --smoke               # reduced 4-replica pass for CI
//! fleet_scaling --record trace.jsonl  # capture replica 0's workload, then run the smoke fleet
//! fleet_scaling --replay trace.jsonl  # replay the trace across the fleet; verifies replica 0
//!                                     # is byte-identical to the synthetic run it recorded
//! fleet_scaling --replicas N --ticks T  # override the smoke fleet's size
//! fleet_scaling --save-synopsis s.jsonl # persist the fleet's learned synopsis after the run
//! fleet_scaling --load-synopsis s.jsonl # warm-start from a saved synopsis; verifies the
//!                                       # store knows fixes before the first tick and that
//!                                       # the warm run beats a cold run at the same seed
//! fleet_scaling --shards N            # learn through a k-means-sharded store (N shards)
//! fleet_scaling --smoke --storm       # 50%-of-fleet fault storm: exits nonzero unless the
//!                                     # storm run recovers, shared beats isolated, and the
//!                                     # tick-sliced parallel fingerprints match sequential
//! fleet_scaling --smoke --fault-mix online:0.02
//!                                     # demographic fault generation (CauseMix of the given
//!                                     # profile at the given per-tick rate): exits nonzero
//!                                     # unless the mix run quiesces healed and parallel
//!                                     # fingerprints match sequential
//! fleet_scaling --smoke --sweep       # one fault of every catalog class at a fixed cadence
//!                                     # (FixSym training coverage)
//! fleet_scaling --slice N             # tick-slice width of the scheduler's epochs
//! fleet_scaling --events SPEC         # overlay events on the smoke fleet, e.g.
//!                                     # "storm@200:0.5,surge@100:3:40"
//! fleet_scaling --smoke --adversary   # reactive adversary strikes the weakest replica at
//!                                     # every epoch barrier: exits nonzero unless shared
//!                                     # learning beats isolated under fire and parallel
//!                                     # fingerprints match sequential
//! fleet_scaling --smoke --seasons     # seeded calm/moderate/stormy fault seasons: exits
//!                                     # nonzero unless the run faults, quiesces healed, and
//!                                     # parallel fingerprints match sequential
//! fleet_scaling --smoke --cascade     # a scout failure propagates along the ring dependency
//!                                     # via the reactive cascade engine: exits nonzero unless
//!                                     # it propagates within budget, heals, and parallel
//!                                     # fingerprints match sequential
//! ```

use selfheal_bench::fleet::{
    adversarial_fleet, adversarial_recovery_comparison, cascade_fleet, cascade_injections,
    cold_start_comparison, distinct_fault_kinds, mean_injected_stats, mix_fleet, open_episodes,
    open_fault_episodes, reactive_strike_stats, scaling_curve, seasons_fleet, smoke_fleet,
    smoke_workload, storm_fleet, storm_recovery_comparison, warm_start_comparison,
    AdversarialRecoveryReport, ColdStartReport, ScalingPoint, StormRecoveryReport, WarmStartReport,
    ADVERSARY_START, ADVERSARY_UNTIL, STORM_FRACTION, STORM_TICK,
};
use selfheal_core::harness::{EventChoice, FaultChoice, LearnerChoice, WorkloadChoice};
use selfheal_core::snapshot::SynopsisSnapshot;
use selfheal_core::synopsis::{Learner, SynopsisKind};
use selfheal_faults::{CatalogSweep, FaultKind, ServiceProfile};
use selfheal_fleet::ExecutionMode;
use selfheal_sim::seeds::{split_seed, SeedStream};
use selfheal_workload::{RecordedTrace, ReplayMode};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::exit;

fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.6}")
    } else {
        "null".to_string()
    }
}

fn scaling_json(points: &[ScalingPoint]) -> String {
    let mut out = String::from("[");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"replicas\": {}, \"ticks_per_replica\": {}, \"parallel_wall_s\": {}, \
             \"sequential_wall_s\": {}, \"speedup\": {}, \"parallel_throughput_ticks_per_s\": {}}}",
            p.replicas,
            p.ticks_per_replica,
            json_f64(p.parallel_wall_s),
            json_f64(p.sequential_wall_s),
            json_f64(p.speedup()),
            json_f64(p.parallel_throughput)
        );
    }
    out.push_str("\n  ]");
    out
}

fn warm_start_json(report: &WarmStartReport) -> String {
    format!(
        "{{\"saved_examples\": {}, \"preloaded_fixes\": {}, \"warm_mean_fix_attempts\": {}, \
         \"warm_mean_recovery_ticks\": {}, \"cold_mean_fix_attempts\": {}, \
         \"cold_mean_recovery_ticks\": {}, \"warm_faster\": {}}}",
        report.saved_examples,
        report.preloaded_fixes,
        json_f64(report.warm_mean_attempts),
        json_f64(report.warm_mean_recovery),
        json_f64(report.cold_mean_attempts),
        json_f64(report.cold_mean_recovery),
        report.warm_is_faster(),
    )
}

fn storm_recovery_json(report: &StormRecoveryReport, fingerprints_match: Option<bool>) -> String {
    let side = |label: &str, attempts: f64, recovery: f64, matched: usize, open: usize| {
        format!(
            "\"{label}\": {{\"mean_fix_attempts\": {}, \"mean_recovery_ticks\": {}, \
             \"matched_episodes\": {matched}, \"open_episodes\": {open}}}",
            json_f64(attempts),
            json_f64(recovery)
        )
    };
    format!(
        "{{\n    \"storm_tick\": {STORM_TICK},\n    \"fraction\": {STORM_FRACTION},\n    \
         \"victims\": {},\n    {},\n    {},\n    \"recovered\": {},\n    \
         \"shared_recovers_faster\": {},\n    \"fingerprints_match_sequential\": {}\n  }}",
        report.victims,
        side(
            "shared",
            report.shared_mean_attempts,
            report.shared_mean_recovery,
            report.shared_matched_episodes,
            report.shared_open_episodes
        ),
        side(
            "isolated",
            report.isolated_mean_attempts,
            report.isolated_mean_recovery,
            report.isolated_matched_episodes,
            report.isolated_open_episodes
        ),
        report.recovered(),
        report.shared_recovers_faster(),
        fingerprints_match
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".to_string()),
    )
}

fn adversarial_recovery_json(
    report: &AdversarialRecoveryReport,
    fingerprints_match: Option<bool>,
) -> String {
    let side =
        |label: &str, strikes: usize, matched: usize, attempts: f64, recovery: f64, open: usize| {
            format!(
                "\"{label}\": {{\"strikes\": {strikes}, \"matched_episodes\": {matched}, \
             \"mean_fix_attempts\": {}, \"mean_recovery_ticks\": {}, \"open_episodes\": {open}}}",
                json_f64(attempts),
                json_f64(recovery)
            )
        };
    format!(
        "{{\n    \"window\": [{ADVERSARY_START}, {ADVERSARY_UNTIL}],\n    {},\n    {},\n    \
         \"struck_and_recovered\": {},\n    \"shared_recovers_faster\": {},\n    \
         \"fingerprints_match_sequential\": {}\n  }}",
        side(
            "shared",
            report.shared_strikes,
            report.shared_matched,
            report.shared_mean_attempts,
            report.shared_mean_recovery,
            report.shared_open_episodes
        ),
        side(
            "isolated",
            report.isolated_strikes,
            report.isolated_matched,
            report.isolated_mean_attempts,
            report.isolated_mean_recovery,
            report.isolated_open_episodes
        ),
        report.struck_and_recovered(),
        report.shared_recovers_faster(),
        fingerprints_match
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".to_string()),
    )
}

fn cold_start_json(report: &ColdStartReport) -> String {
    let side = |label: &str, attempts: f64, recovery: f64, escalations: u64| {
        format!(
            "\"{label}\": {{\"warm_mean_fix_attempts\": {}, \"warm_mean_recovery_ticks\": {}, \
             \"escalations\": {escalations}}}",
            json_f64(attempts),
            json_f64(recovery)
        )
    };
    format!(
        "{{\n    {},\n    {},\n    \"shared_recovery_leq_isolated\": {},\n    \
         \"shared_attempts_leq_isolated\": {}\n  }}",
        side(
            "shared",
            report.shared_warm_attempts,
            report.shared_warm_recovery,
            report.shared_escalations
        ),
        side(
            "isolated",
            report.isolated_warm_attempts,
            report.isolated_warm_recovery,
            report.isolated_escalations
        ),
        report.shared_warm_recovery <= report.isolated_warm_recovery,
        report.shared_warm_attempts <= report.isolated_warm_attempts,
    )
}

/// Command-line options; anything beyond the full default run selects the
/// reduced smoke path.
struct Args {
    smoke: bool,
    record: Option<PathBuf>,
    replay: Option<PathBuf>,
    replicas: Option<usize>,
    ticks: Option<u64>,
    save_synopsis: Option<PathBuf>,
    load_synopsis: Option<PathBuf>,
    shards: Option<usize>,
    storm: bool,
    fault_mix: Option<(ServiceProfile, f64)>,
    sweep: bool,
    slice: Option<u64>,
    events: Vec<EventChoice>,
    adversary: bool,
    seasons: bool,
    cascade: bool,
}

impl Args {
    /// Whether any flag asked for the reduced smoke path instead of the
    /// full-scale experiment suite.
    fn wants_smoke(&self) -> bool {
        self.smoke
            || self.record.is_some()
            || self.replay.is_some()
            || self.replicas.is_some()
            || self.ticks.is_some()
            || self.save_synopsis.is_some()
            || self.load_synopsis.is_some()
            || self.shards.is_some()
            || self.storm
            || self.fault_mix.is_some()
            || self.sweep
            || self.slice.is_some()
            || !self.events.is_empty()
            || self.adversary
            || self.seasons
            || self.cascade
    }

    /// The learner recipe the flags describe.  Persistence needs one
    /// fleet-wide store to save or restore, so `--save-synopsis` /
    /// `--load-synopsis` promote the default private learning to a locked
    /// store; `--shards N` selects the k-means-sharded store.
    fn learner(&self) -> LearnerChoice {
        match self.shards {
            Some(shards) if shards > 0 => LearnerChoice::sharded(shards),
            _ if self.save_synopsis.is_some() || self.load_synopsis.is_some() => {
                LearnerChoice::locked()
            }
            _ => LearnerChoice::Private,
        }
    }
}

/// Parses `--fault-mix PROFILE:RATE` (e.g. `online:0.02`).
fn parse_fault_mix(spec: &str) -> Result<(ServiceProfile, f64), String> {
    let (name, rate) = spec
        .split_once(':')
        .ok_or_else(|| format!("\"{spec}\": expected PROFILE:RATE, e.g. online:0.02"))?;
    let profile = ServiceProfile::ALL
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!("\"{name}\": unknown profile (expected one of online, content, readmostly)")
        })?;
    let rate: f64 = rate
        .parse()
        .map_err(|_| format!("\"{rate}\" is not a rate"))?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(format!("rate {rate} must be in [0, 1]"));
    }
    Ok((profile, rate))
}

/// Parses one `--events` element: `storm@TICK:FRACTION[:SEVERITY]` or
/// `surge@TICK:FACTOR:DURATION`.
fn parse_event(spec: &str) -> Result<EventChoice, String> {
    let (kind, rest) = spec
        .split_once('@')
        .ok_or_else(|| format!("\"{spec}\": expected kind@tick:..."))?;
    let parts: Vec<&str> = rest.split(':').collect();
    let num = |part: &str| -> Result<f64, String> {
        part.parse::<f64>()
            .map_err(|_| format!("\"{spec}\": \"{part}\" is not a number"))
    };
    match (kind, parts.as_slice()) {
        ("storm", [tick, fraction]) => Ok(EventChoice::storm(
            num(tick)? as u64,
            FaultKind::BufferContention,
            num(fraction)?,
        )),
        ("storm", [tick, fraction, severity]) => Ok(EventChoice::FaultStorm {
            at_tick: num(tick)? as u64,
            kind: FaultKind::BufferContention,
            severity: num(severity)?,
            fraction: num(fraction)?,
        }),
        ("surge", [tick, factor, duration]) => Ok(EventChoice::surge(
            num(tick)? as u64,
            num(duration)? as u64,
            num(factor)?,
        )),
        _ => Err(format!(
            "\"{spec}\": expected storm@TICK:FRACTION[:SEVERITY] or surge@TICK:FACTOR:DURATION"
        )),
    }
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        record: None,
        replay: None,
        replicas: None,
        ticks: None,
        save_synopsis: None,
        load_synopsis: None,
        shards: None,
        storm: false,
        fault_mix: None,
        sweep: false,
        slice: None,
        events: Vec::new(),
        adversary: false,
        seasons: false,
        cascade: false,
    };
    let mut argv = std::env::args().skip(1);
    let missing = |flag: &str| -> ! {
        eprintln!("fleet_scaling: {flag} needs a value");
        exit(2);
    };
    fn numeric<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
        let Some(value) = value else {
            eprintln!("fleet_scaling: {flag} needs a value");
            exit(2);
        };
        value.parse().unwrap_or_else(|_| {
            eprintln!("fleet_scaling: {flag} needs a number, got \"{value}\"");
            exit(2);
        })
    }
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--record" => {
                args.record = Some(PathBuf::from(
                    argv.next().unwrap_or_else(|| missing("--record")),
                ))
            }
            "--replay" => {
                args.replay = Some(PathBuf::from(
                    argv.next().unwrap_or_else(|| missing("--replay")),
                ))
            }
            "--replicas" => args.replicas = Some(numeric("--replicas", argv.next())),
            "--ticks" => args.ticks = Some(numeric("--ticks", argv.next())),
            "--save-synopsis" => {
                args.save_synopsis = Some(PathBuf::from(
                    argv.next().unwrap_or_else(|| missing("--save-synopsis")),
                ))
            }
            "--load-synopsis" => {
                args.load_synopsis = Some(PathBuf::from(
                    argv.next().unwrap_or_else(|| missing("--load-synopsis")),
                ))
            }
            "--shards" => args.shards = Some(numeric("--shards", argv.next())),
            "--storm" => args.storm = true,
            "--fault-mix" => {
                let spec = argv.next().unwrap_or_else(|| missing("--fault-mix"));
                match parse_fault_mix(&spec) {
                    Ok(mix) => args.fault_mix = Some(mix),
                    Err(err) => {
                        eprintln!("fleet_scaling: --fault-mix {err}");
                        exit(2);
                    }
                }
            }
            "--sweep" => args.sweep = true,
            "--adversary" => args.adversary = true,
            "--seasons" => args.seasons = true,
            "--cascade" => args.cascade = true,
            "--slice" => args.slice = Some(numeric("--slice", argv.next())),
            "--events" => {
                let spec = argv.next().unwrap_or_else(|| missing("--events"));
                for part in spec.split(',').filter(|p| !p.is_empty()) {
                    match parse_event(part) {
                        Ok(event) => args.events.push(event),
                        Err(err) => {
                            eprintln!("fleet_scaling: --events {err}");
                            exit(2);
                        }
                    }
                }
            }
            other => {
                eprintln!(
                    "fleet_scaling: unknown argument {other}\n\
                     usage: fleet_scaling [--smoke] [--record PATH] [--replay PATH] \
                     [--replicas N] [--ticks T] [--save-synopsis PATH] \
                     [--load-synopsis PATH] [--shards N] [--storm] \
                     [--fault-mix PROFILE:RATE] [--sweep] [--slice W] \
                     [--events SPEC] [--adversary] \
                     [--seasons] [--cascade]"
                );
                exit(2);
            }
        }
    }
    args
}

/// Per-replica failure details as a JSON array — `[]` on a clean run, so
/// downstream tooling can gate on emptiness instead of re-parsing stderr.
fn replica_errors_json(errors: &[selfheal_fleet::ReplicaError]) -> String {
    if errors.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[");
    for (i, error) in errors.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{{\"replica\": {}, \"message\": ", error.replica);
        selfheal_jsonl::push_json_string(&mut out, &error.message);
        out.push('}');
    }
    out.push(']');
    out
}

/// Reduced pass for CI and the record/replay quickstart: one scaling point
/// and a small cold-start comparison (so every JSON emitter runs), plus the
/// smoke fleet itself with optional trace capture/replay.
fn run_smoke(args: &Args) {
    let base_seed = 42u64;
    let replicas = args.replicas.unwrap_or(4).max(1);
    let mut ticks = args.ticks.unwrap_or(400).max(40);

    let workload = match &args.replay {
        Some(path) => {
            let trace = RecordedTrace::load(path).unwrap_or_else(|err| {
                eprintln!("fleet_scaling: cannot load {}: {err}", path.display());
                exit(1);
            });
            // A truncate-mode replay past the end of the trace would go
            // quiet (and fail the byte-identity check for the wrong
            // reason), so the run is clamped to the recorded length.
            if (trace.len() as u64) < ticks {
                eprintln!(
                    "fleet_scaling: trace holds {} ticks, clamping the run from {ticks}",
                    trace.len()
                );
                ticks = trace.len() as u64;
            }
            eprintln!(
                "fleet_scaling: replaying {} ticks / {} requests from {}",
                trace.len(),
                trace.total_requests(),
                path.display()
            );
            WorkloadChoice::replay(trace, ReplayMode::Truncate, 0)
        }
        None => smoke_workload(),
    };

    if let Some(path) = &args.record {
        let mut source =
            workload.source_for_replica(split_seed(base_seed, 0, SeedStream::Workload), 0);
        let trace = RecordedTrace::capture(source.as_mut(), ticks);
        if let Err(err) = trace.save(path) {
            eprintln!("fleet_scaling: cannot write {}: {err}", path.display());
            exit(1);
        }
        eprintln!(
            "fleet_scaling: recorded {} ticks / {} requests to {}",
            trace.len(),
            trace.total_requests(),
            path.display()
        );
    }

    // Warm start: restore the saved synopsis and verify the store knows
    // fixes *before* the first tick (the whole point of persistence).
    let learner = args.learner();
    let loaded: Option<(SynopsisSnapshot, usize)> = args.load_synopsis.as_ref().map(|path| {
        let snapshot = SynopsisSnapshot::load(path).unwrap_or_else(|err| {
            eprintln!("fleet_scaling: cannot load {}: {err}", path.display());
            exit(1);
        });
        let mut probe = learner.build_store(SynopsisKind::NearestNeighbor);
        probe.restore(&snapshot);
        let preloaded = probe.correct_fixes_learned();
        eprintln!(
            "fleet_scaling: loaded {} outcomes from {} -> {} correct fixes known before tick 0",
            snapshot.len(),
            path.display(),
            preloaded
        );
        (snapshot, preloaded)
    });

    let slice = args.slice.unwrap_or(1).max(1);
    // A sweep injects one fault of every catalog class: start a tenth into
    // the run and space the classes over the following 60%, leaving a tail
    // for the healer to drain the last classes.
    let sweep_choice = args.sweep.then(|| {
        let start = ticks / 10;
        let classes = CatalogSweep::kinds().len() as u64;
        let spacing = ((ticks * 6 / 10) / classes).max(1);
        FaultChoice::sweep(start, spacing)
    });
    eprintln!(
        "fleet_scaling: smoke fleet ({replicas} replicas x {ticks} ticks, {} learning, \
         slice {slice}{})",
        learner.label(),
        if args.sweep { ", catalog sweep" } else { "" },
    );
    let mut fleet = smoke_fleet(replicas, ticks, base_seed, workload.clone())
        .learner(learner)
        .slice(slice)
        .events(args.events.iter().copied());
    if let Some(choice) = &sweep_choice {
        fleet = fleet.faults(choice.clone());
    }
    if let Some((snapshot, _)) = &loaded {
        fleet = fleet.warm_start(snapshot.clone());
    }
    // Persistence is incremental: the store streams every drained batch to
    // the file as the fleet runs, so even a killed run leaves a restorable
    // snapshot; by quiesce (the engine flushes inside the timed region) the
    // file is complete.
    if let Some(path) = &args.save_synopsis {
        fleet = fleet.persist_synopsis(path.clone());
    }
    let outcome = fleet.run();
    if !outcome.errors().is_empty() {
        eprintln!(
            "fleet_scaling: {} of {replicas} replicas died mid-run:",
            outcome.errors().len()
        );
        for error in outcome.errors() {
            eprintln!("  {error}");
        }
    }
    let fingerprints = outcome.fingerprints();

    if let Some(path) = &args.save_synopsis {
        let Some(store) = outcome.store() else {
            eprintln!("fleet_scaling: no fleet-wide store to save (private learning)");
            exit(1);
        };
        let snapshot = store.snapshot();
        let on_disk = match SynopsisSnapshot::load(path) {
            Ok(on_disk) => on_disk,
            Err(err) => {
                eprintln!("fleet_scaling: cannot re-load {}: {err}", path.display());
                exit(1);
            }
        };
        if on_disk.len() != snapshot.len() {
            eprintln!(
                "fleet_scaling: incremental log holds {} outcomes but the store holds {}",
                on_disk.len(),
                snapshot.len()
            );
            exit(1);
        }
        eprintln!(
            "fleet_scaling: streamed {} outcomes ({} successes) to {} (append-on-drain)",
            on_disk.len(),
            on_disk.positives(),
            path.display()
        );
    }

    // Warm-vs-cold: run the same fleet with and without the snapshot, both
    // tick-interleaved (sequential) so shared-store drain timing — and with
    // it the attempt counts the CI gate compares — cannot vary with thread
    // scheduling.
    let warm_cold: Option<WarmStartReport> = loaded.as_ref().map(|(snapshot, preloaded)| {
        let comparison_fleet = || {
            smoke_fleet(replicas, ticks, base_seed, workload.clone())
                .learner(learner)
                .mode(ExecutionMode::Sequential)
        };
        let cold = comparison_fleet().run();
        let warm = comparison_fleet().warm_start(snapshot.clone()).run();
        let (cold_mean_attempts, cold_mean_recovery) = mean_injected_stats(&cold);
        let (warm_mean_attempts, warm_mean_recovery) = mean_injected_stats(&warm);
        eprintln!(
            "  warm-start: {warm_mean_attempts:.2} mean fix attempts vs {cold_mean_attempts:.2} \
             cold ({preloaded} known fixes preloaded)"
        );
        WarmStartReport {
            saved_examples: snapshot.len(),
            preloaded_fixes: *preloaded,
            cold_mean_attempts,
            warm_mean_attempts,
            cold_mean_recovery,
            warm_mean_recovery,
        }
    });

    // A replayed trace must reproduce the synthetic run it was recorded
    // from: replica 0 (phase 0) is byte-identical by construction.
    let replay_identical = args.replay.as_ref().map(|_| {
        let synthetic = smoke_fleet(1, ticks, base_seed, smoke_workload()).run();
        let identical = fingerprints[0] == synthetic.fingerprints()[0];
        eprintln!(
            "  replica 0 fingerprint {:#018x} vs synthetic {:#018x} -> byte_identical={identical}",
            fingerprints[0],
            synthetic.fingerprints()[0]
        );
        identical
    });

    // The storm smoke: shared-vs-isolated recovery under a 50% fleet storm,
    // plus the scheduler's equivalence contract — tick-sliced parallel
    // execution must fingerprint-match the sequential interleave.
    let storm: Option<(StormRecoveryReport, bool)> = args.storm.then(|| {
        let storm_replicas = replicas.max(4);
        eprintln!(
            "fleet_scaling: storm smoke ({storm_replicas} replicas, {:.0}% hit at tick \
             {STORM_TICK}, slice {slice})",
            STORM_FRACTION * 100.0
        );
        let report = storm_recovery_comparison(storm_replicas, base_seed, slice);
        eprintln!(
            "  storm recovery: shared {:.2} attempts / {:.1} ticks vs isolated {:.2} / {:.1} \
             ({} victims, {} open episodes)",
            report.shared_mean_attempts,
            report.shared_mean_recovery,
            report.isolated_mean_attempts,
            report.isolated_mean_recovery,
            report.victims,
            report.shared_open_episodes,
        );
        let shared = LearnerChoice::Locked { batch: 1 };
        // Pin a multi-worker count: with `threads: None` a 1-core runner
        // would clamp to one worker and compare two identical
        // single-threaded sweeps, proving nothing about the store gate.
        let parallel = storm_fleet(storm_replicas, base_seed, shared, slice)
            .mode(ExecutionMode::Parallel { threads: Some(3) })
            .run();
        let sequential = storm_fleet(storm_replicas, base_seed, shared, slice)
            .mode(ExecutionMode::Sequential)
            .run();
        let fingerprints_match = parallel.fingerprints() == sequential.fingerprints();
        eprintln!(
            "  equivalence: tick-sliced parallel fingerprints {} the sequential interleave",
            if fingerprints_match {
                "match"
            } else {
                "DIVERGE from"
            }
        );
        (report, fingerprints_match)
    });

    // The demographic-mix smoke: faults drawn from a CauseMix at a
    // controlled rate (the paper's Section 4.2 active stimulation), run
    // once sequentially and once tick-sliced parallel.  Gates below require
    // the run to quiesce healed and the fingerprints to match.
    struct MixSmoke {
        profile: ServiceProfile,
        rate: f64,
        episodes: usize,
        open: usize,
        kinds: usize,
        fingerprints_match: bool,
    }
    let mix: Option<MixSmoke> = args.fault_mix.map(|(profile, rate)| {
        let mix_replicas = replicas.max(3);
        // The healing tail (the quiet half of the run) must outlast a full
        // escalation — a service restart alone takes ~300 ticks — so the
        // mix smoke refuses to run shorter than 800 ticks.
        let mix_ticks = ticks.max(800);
        eprintln!(
            "fleet_scaling: demographic-mix smoke ({mix_replicas} replicas x {mix_ticks} \
             ticks, {} mix at rate {rate}/tick, slice {slice})",
            profile.name()
        );
        let sequential = mix_fleet(mix_replicas, mix_ticks, base_seed, profile, rate, slice)
            .mode(ExecutionMode::Sequential)
            .run();
        let parallel = mix_fleet(mix_replicas, mix_ticks, base_seed, profile, rate, slice)
            .mode(ExecutionMode::Parallel { threads: Some(3) })
            .run();
        let episodes = sequential.total_episodes();
        let open = open_episodes(&sequential);
        let kinds = distinct_fault_kinds(&sequential);
        let fingerprints_match = parallel.fingerprints() == sequential.fingerprints();
        eprintln!(
            "  mix run: {episodes} episodes over {kinds} distinct failure classes, {open} \
             still open at quiesce; parallel fingerprints {} sequential",
            if fingerprints_match {
                "match"
            } else {
                "DIVERGE from"
            }
        );
        MixSmoke {
            profile,
            rate,
            episodes,
            open,
            kinds,
            fingerprints_match,
        }
    });

    // The adversarial smoke: a reactive adversary strikes the currently-
    // weakest replica at every epoch barrier, once against a shared store
    // and once against isolated stores, both auto-quiesced.  The equivalence
    // leg re-runs the shared fleet tick-sliced parallel: reactive actions
    // resolve at deterministic barriers, so the fingerprints must match.
    let adversary: Option<(AdversarialRecoveryReport, bool)> = args.adversary.then(|| {
        let n = replicas.max(6);
        eprintln!(
            "fleet_scaling: adversarial smoke ({n} replicas, strikes in \
             [{ADVERSARY_START}, {ADVERSARY_UNTIL}), auto-quiesce)"
        );
        let report = adversarial_recovery_comparison(n, base_seed);
        eprintln!(
            "  adversarial recovery: shared {:.2} attempts / {:.1} ticks over {} matched \
             strikes vs isolated {:.2} / {:.1} over {}",
            report.shared_mean_attempts,
            report.shared_mean_recovery,
            report.shared_matched,
            report.isolated_mean_attempts,
            report.isolated_mean_recovery,
            report.isolated_matched,
        );
        let shared = LearnerChoice::Locked { batch: 1 };
        let parallel = adversarial_fleet(n, base_seed, shared, 64)
            .mode(ExecutionMode::Parallel { threads: Some(3) })
            .run_to_quiescence();
        let sequential = adversarial_fleet(n, base_seed, shared, 64).run_to_quiescence();
        let fingerprints_match = parallel.fingerprints() == sequential.fingerprints();
        eprintln!(
            "  equivalence: reactive parallel fingerprints {} the sequential interleave",
            if fingerprints_match {
                "match"
            } else {
                "DIVERGE from"
            }
        );
        (report, fingerprints_match)
    });

    // The seasons smoke: seeded calm/moderate/stormy generation-rate
    // seasons, sequential vs tick-sliced parallel.
    struct SeasonsSmoke {
        episodes: usize,
        open: usize,
        fingerprints_match: bool,
    }
    let seasons: Option<SeasonsSmoke> = args.seasons.then(|| {
        let n = replicas.max(3);
        let season_ticks = ticks.max(1024);
        eprintln!(
            "fleet_scaling: seasons smoke ({n} replicas x {season_ticks} ticks, 128-tick \
             seasons over rates [0, 0.02, 0.06])"
        );
        let sequential = seasons_fleet(n, season_ticks, base_seed, 64).run();
        let parallel = seasons_fleet(n, season_ticks, base_seed, 64)
            .mode(ExecutionMode::Parallel { threads: Some(3) })
            .run();
        let episodes = sequential.total_episodes();
        let open = open_fault_episodes(&sequential);
        let fingerprints_match = parallel.fingerprints() == sequential.fingerprints();
        eprintln!(
            "  seasons run: {episodes} episodes, {open} still open at quiesce; parallel \
             fingerprints {} sequential",
            if fingerprints_match {
                "match"
            } else {
                "DIVERGE from"
            }
        );
        SeasonsSmoke {
            episodes,
            open,
            fingerprints_match,
        }
    });

    // The cascade smoke: a scout failure on replica 0 propagates along the
    // ring dependency through the reactive cascade engine.
    struct CascadeSmoke {
        budget: usize,
        propagated: usize,
        matched: usize,
        open: usize,
        fingerprints_match: bool,
    }
    let cascade: Option<CascadeSmoke> = args.cascade.then(|| {
        let n = replicas.max(4);
        let budget = 3usize;
        eprintln!("fleet_scaling: cascade smoke ({n} replicas, budget {budget}, auto-quiesce)");
        let sequential =
            cascade_fleet(n, base_seed, LearnerChoice::locked(), budget, 64).run_to_quiescence();
        let parallel = cascade_fleet(n, base_seed, LearnerChoice::locked(), budget, 64)
            .mode(ExecutionMode::Parallel { threads: Some(3) })
            .run_to_quiescence();
        let propagated = cascade_injections(&sequential);
        let (_, matched, open, _, _) = reactive_strike_stats(&sequential);
        let fingerprints_match = parallel.fingerprints() == sequential.fingerprints();
        eprintln!(
            "  cascade run: {propagated} propagations ({matched} attributable, {open} still \
             open); parallel fingerprints {} sequential",
            if fingerprints_match {
                "match"
            } else {
                "DIVERGE from"
            }
        );
        CascadeSmoke {
            budget,
            propagated,
            matched,
            open,
            fingerprints_match,
        }
    });

    eprintln!("fleet_scaling: smoke scaling point + cold start (JSON emitter check)");
    let points = scaling_curve(&[replicas], ticks, base_seed);
    let cold = cold_start_comparison(3, base_seed);

    let fingerprint_json = fingerprints
        .iter()
        .map(|f| format!("\"{f:#018x}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let smoke_warm_json = warm_cold
        .as_ref()
        .map(warm_start_json)
        .unwrap_or_else(|| "null".to_string());
    let storm_json = storm
        .as_ref()
        .map(|(report, fingerprints_match)| storm_recovery_json(report, Some(*fingerprints_match)))
        .unwrap_or_else(|| "null".to_string());
    let mix_json = mix
        .as_ref()
        .map(|m| {
            format!(
                "{{\"profile\": \"{}\", \"rate\": {}, \"episodes\": {}, \"open_episodes\": {}, \
                 \"distinct_fault_kinds\": {}, \"fingerprints_match_sequential\": {}}}",
                m.profile.name(),
                json_f64(m.rate),
                m.episodes,
                m.open,
                m.kinds,
                m.fingerprints_match,
            )
        })
        .unwrap_or_else(|| "null".to_string());
    let adversary_json = adversary
        .as_ref()
        .map(|(report, fingerprints_match)| {
            adversarial_recovery_json(report, Some(*fingerprints_match))
        })
        .unwrap_or_else(|| "null".to_string());
    let seasons_json = seasons
        .as_ref()
        .map(|s| {
            format!(
                "{{\"episodes\": {}, \"open_episodes\": {}, \
                 \"fingerprints_match_sequential\": {}}}",
                s.episodes, s.open, s.fingerprints_match,
            )
        })
        .unwrap_or_else(|| "null".to_string());
    let cascade_json = cascade
        .as_ref()
        .map(|c| {
            format!(
                "{{\"budget\": {}, \"propagations\": {}, \"matched_episodes\": {}, \
                 \"open_episodes\": {}, \"fingerprints_match_sequential\": {}}}",
                c.budget, c.propagated, c.matched, c.open, c.fingerprints_match,
            )
        })
        .unwrap_or_else(|| "null".to_string());
    let sweep_json = if args.sweep {
        format!(
            "{{\"classes\": {}, \"episodes\": {}, \"open_episodes\": {}, \
             \"distinct_fault_kinds\": {}}}",
            CatalogSweep::kinds().len(),
            outcome.total_episodes(),
            open_episodes(&outcome),
            distinct_fault_kinds(&outcome),
        )
    } else {
        "null".to_string()
    };
    let json = format!(
        "{{\n  \"mode\": \"smoke\",\n  \"replicas\": {replicas},\n  \"ticks\": {ticks},\n  \
         \"slice\": {slice},\n  \
         \"workload\": \"{}\",\n  \"learner\": \"{}\",\n  \"goodput\": {},\n  \
         \"throughput_ticks_per_s\": {},\n  \
         \"total_fixes\": {},\n  \"episodes\": {},\n  \"replica_errors\": {},\n  \
         \"fingerprints\": [{fingerprint_json}],\n  \
         \"replay_byte_identical\": {},\n  \"warm_start\": {smoke_warm_json},\n  \
         \"storm_recovery\": {storm_json},\n  \
         \"adversarial_recovery\": {adversary_json},\n  \
         \"seasons\": {seasons_json},\n  \"cascade\": {cascade_json},\n  \
         \"fault_mix\": {mix_json},\n  \"sweep\": {sweep_json},\n  \
         \"scaling\": {},\n  \"cold_start\": {}\n}}",
        workload.label(),
        learner.label(),
        json_f64(outcome.goodput_fraction()),
        json_f64(outcome.throughput_ticks_per_sec()),
        outcome.total_fixes_initiated(),
        outcome.total_episodes(),
        replica_errors_json(outcome.errors()),
        replay_identical
            .map(|b| b.to_string())
            .unwrap_or_else(|| "null".to_string()),
        scaling_json(&points),
        cold_start_json(&cold),
    );
    println!("{json}");

    if replay_identical == Some(false) {
        eprintln!("fleet_scaling: replay diverged from the synthetic run");
        exit(1);
    }
    if let Some((_, preloaded)) = &loaded {
        if *preloaded == 0 {
            eprintln!(
                "fleet_scaling: loaded synopsis taught the store nothing before the first tick"
            );
            exit(1);
        }
    }
    // Gate on regression (warm strictly worse), not on strict improvement:
    // when the cold run is already at the one-attempt floor, warm can only
    // tie, and a tie is success.
    if let Some(report) = &warm_cold {
        if report.cold_mean_attempts > 0.0 && report.warm_mean_attempts > report.cold_mean_attempts
        {
            eprintln!(
                "fleet_scaling: warm start regressed vs the cold run \
                 ({:.2} vs {:.2} mean fix attempts)",
                report.warm_mean_attempts, report.cold_mean_attempts
            );
            exit(1);
        }
    }
    // The storm gates: the storm run must heal everything it opened, shared
    // learning must beat isolated, and the tick-sliced parallel run must be
    // fingerprint-identical to the sequential interleave.
    if let Some((report, fingerprints_match)) = &storm {
        if !report.recovered() {
            eprintln!(
                "fleet_scaling: storm run did not recover ({} of {} victims opened an \
                 episode, {} still open at quiesce)",
                report.shared_matched_episodes, report.victims, report.shared_open_episodes
            );
            exit(1);
        }
        if !report.shared_recovers_faster() {
            eprintln!(
                "fleet_scaling: shared learning did not beat isolated under the storm \
                 ({:.1} vs {:.1} mean recovery ticks)",
                report.shared_mean_recovery, report.isolated_mean_recovery
            );
            exit(1);
        }
        if !fingerprints_match {
            eprintln!(
                "fleet_scaling: tick-sliced parallel fingerprints diverged from run_sequential"
            );
            exit(1);
        }
    }
    // The adversarial gates: both runs must land attributable strikes that
    // all heal, shared learning must beat isolated under targeted fire, and
    // the reactive parallel run must fingerprint-match sequential.
    if let Some((report, fingerprints_match)) = &adversary {
        if !report.struck_and_recovered() {
            eprintln!(
                "fleet_scaling: adversarial run did not strike-and-recover (shared {} strikes \
                 / {} matched / {} open; isolated {} / {} / {})",
                report.shared_strikes,
                report.shared_matched,
                report.shared_open_episodes,
                report.isolated_strikes,
                report.isolated_matched,
                report.isolated_open_episodes,
            );
            exit(1);
        }
        if !report.shared_recovers_faster() {
            eprintln!(
                "fleet_scaling: shared learning did not beat isolated under the adversary \
                 ({:.1} vs {:.1} mean recovery ticks)",
                report.shared_mean_recovery, report.isolated_mean_recovery
            );
            exit(1);
        }
        if !fingerprints_match {
            eprintln!(
                "fleet_scaling: adversarial parallel fingerprints diverged from run_sequential"
            );
            exit(1);
        }
    }
    // The seasons gates: the stormy seasons must fault, the run must
    // quiesce healed, and parallel must fingerprint-match sequential.
    if let Some(seasons) = &seasons {
        if seasons.episodes == 0 {
            eprintln!("fleet_scaling: the fault seasons injected nothing observable");
            exit(1);
        }
        if seasons.open > 0 {
            eprintln!(
                "fleet_scaling: seasons run did not quiesce healed ({} of {} episodes open)",
                seasons.open, seasons.episodes
            );
            exit(1);
        }
        if !seasons.fingerprints_match {
            eprintln!("fleet_scaling: seasons parallel fingerprints diverged from run_sequential");
            exit(1);
        }
    }
    // The cascade gates: the scout must seed 1..=budget propagations, at
    // least one must open an attributable episode, every attributed episode
    // must heal, and parallel must fingerprint-match sequential.
    if let Some(cascade) = &cascade {
        if cascade.propagated == 0 || cascade.propagated > cascade.budget {
            eprintln!(
                "fleet_scaling: cascade propagated {} times (expected 1..={})",
                cascade.propagated, cascade.budget
            );
            exit(1);
        }
        if cascade.matched == 0 || cascade.open > 0 {
            eprintln!(
                "fleet_scaling: cascade episodes not attributable or unhealed ({} matched, \
                 {} open)",
                cascade.matched, cascade.open
            );
            exit(1);
        }
        if !cascade.fingerprints_match {
            eprintln!("fleet_scaling: cascade parallel fingerprints diverged from run_sequential");
            exit(1);
        }
    }
    // The demographic-mix gates: the mix must actually fault, every episode
    // must heal before quiesce, and the parallel run must be
    // fingerprint-identical to the sequential interleave.
    if let Some(mix) = &mix {
        if mix.episodes == 0 {
            eprintln!(
                "fleet_scaling: the {} mix at rate {} injected nothing observable",
                mix.profile.name(),
                mix.rate
            );
            exit(1);
        }
        if mix.open > 0 {
            eprintln!(
                "fleet_scaling: mix run did not quiesce healed ({} of {} episodes still open)",
                mix.open, mix.episodes
            );
            exit(1);
        }
        if !mix.fingerprints_match {
            eprintln!("fleet_scaling: mix-run parallel fingerprints diverged from run_sequential");
            exit(1);
        }
    }
    // The sweep gates: the catalog sweep must actually manifest — episodes
    // across several distinct failure classes — or the training-coverage
    // run covered nothing.
    if args.sweep {
        let episodes = outcome.total_episodes();
        let kinds = distinct_fault_kinds(&outcome);
        if episodes == 0 || kinds < 2 {
            eprintln!(
                "fleet_scaling: catalog sweep produced {episodes} episodes over {kinds} \
                 distinct failure classes — training coverage is broken"
            );
            exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if args.wants_smoke() {
        run_smoke(&args);
        return;
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ticks = 5_000u64;
    let replica_counts = [1usize, 2, 4, 8, 16, 32];

    eprintln!("fleet_scaling: {cores} cores, {ticks} ticks/replica");
    let points = scaling_curve(&replica_counts, ticks, 42);
    for p in &points {
        eprintln!(
            "  replicas {:>2}: parallel {:>7.3}s  sequential {:>7.3}s  speedup {:>5.2}x  {:>9.0} ticks/s",
            p.replicas,
            p.parallel_wall_s,
            p.sequential_wall_s,
            p.speedup(),
            p.parallel_throughput
        );
    }
    let full = points.last().expect("at least one scaling point");

    eprintln!("fleet_scaling: cold-start comparison (shared vs isolated synopsis)");
    let cold = cold_start_comparison(8, 42);
    eprintln!(
        "  warm-replica mean fix attempts: shared {:.2} vs isolated {:.2}",
        cold.shared_warm_attempts, cold.isolated_warm_attempts
    );
    eprintln!(
        "  warm-replica mean recovery:     shared {:.1} vs isolated {:.1} ticks",
        cold.shared_warm_recovery, cold.isolated_warm_recovery
    );

    eprintln!("fleet_scaling: warm-start comparison (cold run vs snapshot-restored run)");
    let warm = warm_start_comparison(6, 42, LearnerChoice::locked());
    eprintln!(
        "  mean fix attempts: warm {:.2} vs cold {:.2} ({} outcomes saved, {} fixes preloaded)",
        warm.warm_mean_attempts, warm.cold_mean_attempts, warm.saved_examples, warm.preloaded_fixes
    );

    eprintln!("fleet_scaling: storm recovery (50% fleet storm, shared vs isolated learning)");
    let storm = storm_recovery_comparison(8, 42, 1);
    eprintln!(
        "  victims' mean recovery: shared {:.1} ticks / {:.2} attempts vs isolated {:.1} / {:.2}",
        storm.shared_mean_recovery,
        storm.shared_mean_attempts,
        storm.isolated_mean_recovery,
        storm.isolated_mean_attempts,
    );

    eprintln!(
        "fleet_scaling: adversarial recovery (weakest-replica targeting, shared vs isolated)"
    );
    let adversary = adversarial_recovery_comparison(6, 42);
    eprintln!(
        "  victims' mean recovery: shared {:.1} ticks / {:.2} attempts over {} matched strikes \
         vs isolated {:.1} / {:.2} over {}",
        adversary.shared_mean_recovery,
        adversary.shared_mean_attempts,
        adversary.shared_matched,
        adversary.isolated_mean_recovery,
        adversary.isolated_mean_attempts,
        adversary.isolated_matched,
    );

    let json = format!(
        "{{\n  \"machine\": {{\"cores\": {cores}}},\n  \"scaling\": {},\n  \"acceptance\": \
         {{\"replicas\": {}, \"ticks_per_replica\": {}, \"speedup\": {}, \
         \"speedup_claim_applicable\": {}, \"speedup_above_2x\": {}}},\n  \"cold_start\": {},\n  \
         \"warm_start\": {},\n  \"storm_recovery\": {},\n  \"adversarial_recovery\": {}\n}}",
        scaling_json(&points),
        full.replicas,
        full.ticks_per_replica,
        json_f64(full.speedup()),
        cores >= 4,
        full.speedup() > 2.0,
        cold_start_json(&cold),
        warm_start_json(&warm),
        storm_recovery_json(&storm, None),
        adversarial_recovery_json(&adversary, None),
    );
    println!("{json}");

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join("fleet_scaling.json");
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("(written to {})", path.display()),
            Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
        }
    }
}
