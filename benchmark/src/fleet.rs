//! The batch-fleet workloads: what an experimenter waits for when calling
//! `FleetConfig::run()`.
//!
//! * `fleet_quiet` — FixSym healers with private learners and no faults:
//!   `sim`, `workload`, `telemetry` and the scheduler barrier do the work,
//!   the store path is bypassed.
//! * `fleet_faulty` — hybrid healers over one locked store under a
//!   stochastic fault mix: episodes open and close all the time, so the
//!   store, the gate, `learn` and `diagnosis` are on the hot path.
//!
//! Execution mode and slice are left at the builder's defaults on purpose:
//! the end-to-end number is what the default configuration delivers.

use crate::gen::XorShift;
use crate::report::Report;
use crate::stats::{fastest, median, percentile};
use crate::trace::{TimedFaults, TimedHealer, TimedSource, TimedStore, Tracer};
use crate::{peak_rss_mb, time_ns_per_call, Args};
use selfheal::faults::{FixKind, ServiceProfile};
use selfheal::fleet::{ExecutionMode, FleetConfig, FleetOutcome};
use selfheal::healing::harness::{FaultChoice, LearnerChoice, PolicyChoice, WorkloadChoice};
use selfheal::healing::store::SynopsisStore;
use selfheal::healing::synopsis::{Synopsis, SynopsisKind};
use selfheal::sim::scenario::{Healer, ScenarioRunner};
use selfheal::sim::seeds::{split_seed, SeedStream};
use selfheal::sim::{MultiTierService, ServiceConfig};
use selfheal::telemetry::SeriesStore;
use std::hint::black_box;
use std::time::Instant;

/// Replicas per fleet.
const REPLICAS: usize = 4;
/// Ticks each replica simulates per `run()`.  Fixed, so the simulated
/// results of a seed never depend on how long the run measures.
const TICKS: u64 = 12_500;
/// Metric samples each replica retains.
const SERIES_CAPACITY: usize = 512;
/// Per-tick fault probability of `fleet_faulty`.
const FAULT_RATE: f64 = 0.002;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPETITIONS: usize = 5;
/// Times the set-up (configuration + warm-up run) is repeated; the median
/// is reported.
const SETUP_ROUNDS: usize = 3;

/// Which of the two fleet workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// No faults, private learners.
    Quiet,
    /// Fault mix, hybrid healers, one locked store.
    Faulty,
}

impl Kind {
    fn policy(self) -> PolicyChoice {
        match self {
            Kind::Quiet => PolicyChoice::FixSym(SynopsisKind::NearestNeighbor),
            Kind::Faulty => PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor),
        }
    }

    fn learner(self) -> LearnerChoice {
        match self {
            Kind::Quiet => LearnerChoice::Private,
            Kind::Faulty => LearnerChoice::locked(),
        }
    }

    fn faults(self, service: &ServiceConfig) -> FaultChoice {
        match self {
            Kind::Quiet => FaultChoice::default(),
            Kind::Faulty => FaultChoice::mix_for(ServiceProfile::Online, FAULT_RATE, service),
        }
    }

    /// The workload's configuration at the builder's default mode and slice.
    fn config(self, seed: u64) -> FleetConfig {
        let service = ServiceConfig::rubis_default();
        FleetConfig::builder()
            .replicas(REPLICAS)
            .ticks(TICKS)
            .base_seed(seed)
            .policy(self.policy())
            .learner(self.learner())
            .faults(self.faults(&service))
            .series_capacity(SERIES_CAPACITY)
    }
}

/// One timed `run()`: the wall time of the whole call and its outcome.
fn timed_run(config: FleetConfig) -> (f64, FleetOutcome) {
    let start = Instant::now();
    let outcome = config.run();
    (start.elapsed().as_secs_f64(), outcome)
}

/// Counts a run's replica errors and its fingerprint mismatches against the
/// reference as failed operations.
fn check_run(report: &mut Report, outcome: &FleetOutcome, reference: &[u64], what: &str) {
    let mismatch = outcome.fingerprints() != reference;
    if mismatch {
        report.fail_check(&format!("{what}: fingerprints differ from the first run"));
    }
    for error in outcome.errors() {
        report.fail_check(&format!("{what}: {error}"));
    }
    report.count(1, u64::from(mismatch) + outcome.errors().len() as u64);
}

/// Median simulated ticks per host second over a few runs of one
/// configuration, each checked against the reference fingerprints.
fn ticks_per_s(
    report: &mut Report,
    reference: &[u64],
    what: &str,
    repetitions: usize,
    config: impl Fn() -> FleetConfig,
) -> f64 {
    let rates: Vec<f64> = (0..repetitions)
        .map(|_| {
            let outcome = config().run();
            check_run(report, &outcome, reference, what);
            outcome.throughput_ticks_per_sec()
        })
        .collect();
    median(&rates)
}

/// The untraced run: repeat the default-mode fleet for `--seconds`, report
/// the fastest repetition, and hold every repetition to the first one's
/// fingerprints.
pub fn run(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();

    // Set-up is everything before the first measured repetition: building
    // the configuration and one whole warm-up run, which fills the caches
    // and the allocator's pools.  Work moved out of the measured call and
    // into construction or first use shows here.
    let (first_wall, warm) = timed_run(kind.config(args.seed));
    let reference = warm.fingerprints();
    check_run(&mut report, &warm, &reference, "warm-up");
    let mut setups = vec![first_wall];
    for _ in 1..SETUP_ROUNDS {
        let (wall, again) = timed_run(kind.config(args.seed));
        check_run(&mut report, &again, &reference, "warm-up");
        setups.push(wall);
    }
    report.set("setup_s", median(&setups));

    let mut walls = Vec::new();
    let window = Instant::now();
    while walls.len() < MIN_REPETITIONS || window.elapsed().as_secs_f64() < args.seconds {
        let (wall, outcome) = timed_run(kind.config(args.seed));
        check_run(&mut report, &outcome, &reference, "repetition");
        walls.push(wall);
    }

    // The parallel default must reproduce the sequential interleave.
    let sequential = kind.config(args.seed).mode(ExecutionMode::Sequential).run();
    check_run(
        &mut report,
        &sequential,
        &reference,
        "sequential at equal slice",
    );

    // The whole call is what the experimenter waits for, so the rate is
    // taken over it and not over the engine's inner timed region.  Every
    // repetition does identical work, so the fastest one is the one the
    // host disturbed least (README.md, "Steadiness").
    eprintln!("run() seconds {walls:.3?}");
    let wall = fastest(&walls);
    report.set("work_per_s", warm.total_ticks() as f64 / wall);
    report.set("op_ms", wall * 1e3);
    report.set("peak_rss_mb", peak_rss_mb());
    eprintln!(
        "{} repetitions of {REPLICAS}x{TICKS} ticks, {:.1} to {:.1} ms, median {:.1}; goodput {:.6}, {} episodes, mean recovery {:.3} ticks",
        walls.len(),
        wall * 1e3,
        percentile(&walls, 100.0) * 1e3,
        median(&walls) * 1e3,
        warm.goodput_fraction(),
        warm.total_episodes(),
        warm.mean_recovery_ticks().unwrap_or(0.0),
    );
    report
}

/// Builds one replica exactly as `FleetEngine` does — same seed splits, same
/// healer construction — but with every pluggable piece wrapped in its
/// timing wrapper.
fn traced_replica(
    kind: Kind,
    seed: u64,
    replica: usize,
    shared: Option<&dyn SynopsisStore>,
    tracer: &Tracer,
) -> ScenarioRunner<Box<dyn Healer>> {
    let service = ServiceConfig::rubis_default();
    let index = replica as u64;
    let mut replica_service = service.clone();
    replica_service.seed = split_seed(seed, index, SeedStream::Service);
    let simulator = MultiTierService::new(replica_service);
    let schema = simulator.schema().clone();
    let workload = WorkloadChoice::default()
        .source_for_replica(split_seed(seed, index, SeedStream::Workload), index);
    let faults = kind
        .faults(&service)
        .source_for_replica(split_seed(seed, index, SeedStream::Faults), index);
    let policy = kind.policy();
    let store: Box<dyn SynopsisStore> = match shared {
        Some(store) => store.clone_store(),
        None => Box::new(TimedStore::new(
            LearnerChoice::Private.build_store(policy.synopsis_kind().expect("learning policy")),
            tracer,
        )),
    };
    let healer = policy.build_healer_stored(&schema, service.slo_targets(), store);
    let healer: Box<dyn Healer> = Box::new(TimedHealer::new(healer, tracer));
    ScenarioRunner::with_faults(
        simulator,
        Box::new(TimedSource::new(workload, tracer)),
        Box::new(TimedFaults::new(faults, tracer)),
        healer,
    )
    .with_series_capacity(SERIES_CAPACITY)
}

/// The benchmark-driven sequential round-robin over traced runners: tick by
/// tick, replica by replica, then the final flush — the interleave
/// `ExecutionMode::Sequential` runs at slice 1.  Returns the fingerprints
/// and the wall time.
fn traced_fleet(kind: Kind, seed: u64, tracer: &Tracer) -> (Vec<u64>, f64) {
    let shared: Option<Box<dyn SynopsisStore>> = kind.learner().is_shared().then(|| {
        let store = kind
            .learner()
            .build_store(kind.policy().synopsis_kind().expect("learning policy"));
        Box::new(TimedStore::new(store, tracer)) as Box<dyn SynopsisStore>
    });
    let mut runners: Vec<_> = (0..REPLICAS)
        .map(|replica| traced_replica(kind, seed, replica, shared.as_deref(), tracer))
        .collect();
    let start = Instant::now();
    for tick in 0..TICKS {
        for (replica, runner) in runners.iter_mut().enumerate() {
            tracer.at(replica, tick);
            tracer.span("sim.step", || runner.step());
        }
    }
    if let Some(store) = &shared {
        store.flush();
    }
    let wall = start.elapsed().as_secs_f64();
    let fingerprints = runners
        .iter()
        .map(|runner| runner.outcome().fingerprint())
        .collect();
    (fingerprints, wall)
}

/// The traced run: the per-layer numbers of the fleet path.
pub fn run_traced(kind: Kind, args: &Args) -> Report {
    let mut report = Report::default();
    let repetitions = ((args.seconds / 3.0) as usize).clamp(2, 5);
    let seed = args.seed;

    let reference = kind
        .config(seed)
        .mode(ExecutionMode::Sequential)
        .run()
        .fingerprints();
    let default_rate = ticks_per_s(&mut report, &reference, "default mode", repetitions, || {
        kind.config(seed)
    });
    let seq_rate = ticks_per_s(&mut report, &reference, "sequential", repetitions, || {
        kind.config(seed).mode(ExecutionMode::Sequential)
    });

    // Slice 64 is another interleave for a shared store, so it has its own
    // reference: sequential and parallel must agree with each other.
    let slice64 = kind
        .config(seed)
        .mode(ExecutionMode::Sequential)
        .slice(64)
        .run()
        .fingerprints();
    let seq64_rate = ticks_per_s(
        &mut report,
        &slice64,
        "sequential slice 64",
        repetitions,
        || kind.config(seed).mode(ExecutionMode::Sequential).slice(64),
    );
    let par64_rate = ticks_per_s(
        &mut report,
        &slice64,
        "parallel slice 64",
        repetitions,
        || kind.config(seed).slice(64),
    );
    let mismatches = report.failed;

    let tracer = Tracer::new();
    let (fingerprints, traced_wall) = traced_fleet(kind, seed, &tracer);
    let assembled_differs = fingerprints != reference;
    if assembled_differs {
        report.fail_check("self-assembled runners differ from FleetEngine's sequential run");
    }
    report.count(1, u64::from(assembled_differs));
    let total_ticks = (REPLICAS as u64 * TICKS) as f64;
    let traced_rate = total_ticks / traced_wall;

    let step = tracer.aggregate("sim.step");
    let next_tick = tracer.aggregate("workload.next_tick");
    let due_at = tracer.aggregate("faults.due_at");
    let observe = tracer.aggregate("core.observe");
    let suggest = tracer.aggregate("core.store_suggest");
    let record = tracer.aggregate("core.store_record");
    let flush = tracer.aggregate("core.store_flush");
    report.set("workload.next_tick_ns", next_tick.mean_ns());
    report.set(
        "workload.requests_per_tick",
        tracer.counter("workload.requests") as f64 / total_ticks,
    );
    report.set("faults.due_at_ns", due_at.mean_ns());
    report.set("faults.injected", tracer.counter("faults.injected") as f64);
    report.set("sim.step_ns", step.mean_ns());
    report.set("sim.step_self_ns", step.mean_self_ns());
    report.set("core.observe_ns", observe.mean_ns());
    report.set("core.observe_self_ns", observe.mean_self_ns());
    report.set("core.store_suggest_us", suggest.mean_ns() / 1e3);
    report.set("core.store_suggest_calls", suggest.count as f64);
    report.set(
        "core.suggest_hit_share",
        tracer.counter("core.store_suggest_hits") as f64 / suggest.count.max(1) as f64,
    );
    report.set("core.store_record_us", record.mean_ns() / 1e3);
    report.set("core.store_record_calls", record.count as f64);
    report.set("core.store_flush_ms", flush.total_ns as f64 / 1e6);

    let outcome = kind.config(seed).mode(ExecutionMode::Sequential).run();
    let closed = outcome
        .replicas()
        .iter()
        .flat_map(|r| r.outcome.recovery.episodes())
        .filter(|e| e.recovery_ticks().is_some())
        .count();
    report.set(
        "core.fixes_per_episode",
        tracer.counter("core.fixes") as f64 / outcome.total_episodes().max(1) as f64,
    );
    report.set("fleet.goodput_fraction", outcome.goodput_fraction());
    report.set(
        "fleet.recovery_ticks_mean",
        outcome.mean_recovery_ticks().unwrap_or(0.0),
    );
    report.set("fleet.episodes_closed", closed as f64);

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, REPLICAS);
    let default_wall = total_ticks / default_rate;
    report.set("fleet.seq_ticks_per_s", seq_rate);
    report.set("fleet.seq_slice64_ticks_per_s", seq64_rate);
    report.set("fleet.par_slice64_ticks_per_s", par64_rate);
    report.set("fleet.default_vs_seq", default_rate / seq_rate);
    report.set(
        "fleet.sched_overhead_share",
        1.0 - (step.total_ns as f64 / 1e9) / (default_wall * workers as f64),
    );
    report.set("fleet.fingerprint_mismatches", mismatches as f64);
    report.set("trace.overhead_share", 1.0 - traced_rate / seq_rate);

    layer_benches(kind, seed, &mut report);

    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    if let Err(err) = tracer.write_jsonl(&path) {
        report.fail_check(&format!("cannot write {}: {err}", path.display()));
    }
    eprintln!(
        "default {default_rate:.0}, sequential {seq_rate:.0}, traced {traced_rate:.0} ticks/s on {workers} workers; {} spans kept in {}",
        tracer.sampled(),
        path.display()
    );
    report
}

/// Single public functions of `sim`, `telemetry` and `learn`, timed in
/// isolation on generated inputs.
fn layer_benches(kind: Kind, seed: u64, report: &mut Report) {
    // `MultiTierService::tick` on batches generated beforehand.
    let mut service_config = ServiceConfig::rubis_default();
    service_config.seed = split_seed(seed, 0, SeedStream::Service);
    let mut service = MultiTierService::new(service_config);
    let mut source =
        WorkloadChoice::default().source_for_replica(split_seed(seed, 0, SeedStream::Workload), 0);
    let batches: Vec<_> = (0..4_000).map(|tick| source.next_tick(tick)).collect();
    let start = Instant::now();
    let mut last = None;
    for batch in &batches {
        last = Some(service.tick(black_box(batch)));
    }
    report.set(
        "sim.service_tick_ns",
        start.elapsed().as_nanos() as f64 / batches.len() as f64,
    );

    // `SeriesStore::push` of a cloned sample at the fleet's capacity.
    let sample = last.expect("ticked at least once").sample;
    let mut series = SeriesStore::new(service.schema().clone(), SERIES_CAPACITY);
    report.set(
        "telemetry.series_push_ns",
        time_ns_per_call(200_000, || series.push(black_box(&sample).clone())),
    );

    if kind == Kind::Quiet {
        return;
    }
    // `Synopsis::suggest` / `update` at 2 000 examples, and one AdaBoost
    // retrain at 500 (on no workload's path; kept as the Table 3 reference).
    let mut rng = XorShift::new(seed, 0x300);
    let width = sample.width();
    let mut example = |i: usize| {
        let fix = FixKind::ALL[i % FixKind::ALL.len()];
        let centre = (fix.code() as f64) * 3.0;
        let symptoms: Vec<f64> = (0..width).map(|_| centre + rng.next_f64()).collect();
        (symptoms, fix)
    };
    let mut knn = Synopsis::new(SynopsisKind::NearestNeighbor);
    knn.absorb((0..2_000).map(|i| {
        let (symptoms, fix) = example(i);
        (symptoms, fix, true)
    }));
    let probes: Vec<_> = (0..64).map(&mut example).collect();
    let mut at = 0;
    report.set(
        "learn.knn_suggest_us",
        time_ns_per_call(2_000, || {
            at = (at + 1) % probes.len();
            black_box(knn.suggest(&probes[at].0));
        }) / 1e3,
    );
    report.set(
        "learn.knn_update_us",
        time_ns_per_call(200, || {
            at = (at + 1) % probes.len();
            knn.update(&probes[at].0, probes[at].1, true);
        }) / 1e3,
    );
    let mut boosted = Synopsis::new(SynopsisKind::AdaBoost(60));
    let outcomes: Vec<_> = (0..500)
        .map(|i| {
            let (symptoms, fix) = example(i);
            (symptoms, fix, true)
        })
        .collect();
    let start = Instant::now();
    boosted.absorb(outcomes);
    report.set(
        "learn.adaboost_retrain_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
}
