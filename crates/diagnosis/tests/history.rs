//! The history an engine states is all it reads: fed the same samples, a
//! store holding only `history()` rows and a 4 096-row store get equal
//! answers from `diagnose`, after every sample of every sequence.  The
//! sequences are seeded and std-only: 0..200 samples of a service that
//! drifts between health and stretches of buffer misses, lock waits, bad
//! plans, failing or starved EJBs and saturated tiers, with one-tick spikes
//! on top and a failure indicator that mostly, not always, agrees.

use selfheal_diagnosis::{
    AnomalyDetector, BottleneckAnalyzer, CorrelationAnalyzer, Diagnosis, DiagnosisContext,
    ManualRuleBase,
};
use selfheal_telemetry::{
    MetricKind, Sample, Schema, SchemaBuilder, SeriesStore, SloTargets, Tier,
};

/// The capacity every diagnosis history had before it was derived.
const LONG: usize = 4096;
/// Sequences per engine.
const SEQUENCES: usize = 40;

/// xorshift64: seeded, std-only.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    fn between(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn chance(&mut self, p: f64) -> bool {
        self.between(0.0, 1.0) < p
    }
}

/// The simulator's metric naming convention: three EJBs, two tables.
fn schema() -> Schema {
    let mut b = SchemaBuilder::new()
        .metric("svc.response_ms", Tier::Service, MetricKind::LatencyMs)
        .metric("svc.throughput", Tier::Service, MetricKind::Count)
        .metric("svc.arrivals", Tier::Service, MetricKind::Count)
        .metric("svc.error_rate", Tier::Service, MetricKind::Ratio)
        .metric("web.util", Tier::Web, MetricKind::Utilization)
        .metric("app.util", Tier::App, MetricKind::Utilization)
        .metric("db.util", Tier::Database, MetricKind::Utilization)
        .metric("web.queue_ms", Tier::Web, MetricKind::Gauge)
        .metric("app.queue_ms", Tier::App, MetricKind::Gauge)
        .metric("db.queue_ms", Tier::Database, MetricKind::Gauge)
        .metric("db.buffer_miss_rate", Tier::Database, MetricKind::Ratio)
        .metric("db.lock_wait_ms", Tier::Database, MetricKind::Gauge)
        .metric("db.plan_misestimate", Tier::Database, MetricKind::Gauge);
    for i in 0..3 {
        b = b.metric(format!("app.ejb{i}_calls"), Tier::App, MetricKind::Count);
        b = b.metric(format!("app.ejb{i}_errors"), Tier::App, MetricKind::Count);
    }
    for j in 0..2 {
        b = b.metric(
            format!("db.table{j}_accesses"),
            Tier::Database,
            MetricKind::Count,
        );
    }
    b.build()
}

/// What the service is doing over a stretch of ticks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Regime {
    Healthy,
    BufferMisses,
    /// Lock waits, with one table (0 or 1) taking the traffic.
    LockWaits(usize),
    /// Bad plans, with one table taking the traffic.
    BadPlans(usize),
    EjbErrors(usize),
    EjbStarved(usize),
    /// A tier (0 web, 1 app, 2 database) saturated, with or without the
    /// offered load growing.
    Saturated(usize, bool),
}

impl Regime {
    fn fault(rng: &mut Rng) -> Regime {
        let component = rng.below(3) as usize;
        match rng.below(6) {
            0 => Regime::BufferMisses,
            1 => Regime::LockWaits(component % 2),
            2 => Regime::BadPlans(component % 2),
            3 => Regime::EjbErrors(component),
            4 => Regime::EjbStarved(component),
            _ => Regime::Saturated(component, rng.chance(0.5)),
        }
    }
}

/// One sample of a service in `regime`, with noise.
fn sample(
    ctx: &DiagnosisContext,
    schema: &Schema,
    rng: &mut Rng,
    tick: u64,
    regime: Regime,
) -> Sample {
    let mut s = Sample::zeroed(schema, tick);
    let utils = [ctx.web_util, ctx.app_util, ctx.db_util];
    let queues = [ctx.web_queue_ms, ctx.app_queue_ms, ctx.db_queue_ms];
    s.set(ctx.response_ms, rng.between(25.0, 35.0));
    s.set(ctx.throughput, rng.between(37.0, 43.0));
    s.set(ctx.arrivals, rng.between(37.0, 43.0));
    s.set(ctx.error_rate, rng.between(0.0, 0.005));
    for (tier, (&util, &queue)) in utils.iter().zip(&queues).enumerate() {
        s.set(
            util,
            0.2 + 0.1 * tier.min(1) as f64 + rng.between(-0.05, 0.05),
        );
        s.set(queue, rng.between(0.0, 10.0));
    }
    s.set(ctx.buffer_miss_rate, rng.between(0.02, 0.03));
    s.set(ctx.lock_wait_ms, rng.between(0.0, 5.0));
    s.set(ctx.plan_misestimate, rng.between(1.0, 1.2));
    for (i, (&calls, &errors)) in ctx.ejb_calls.iter().zip(&ctx.ejb_errors).enumerate() {
        s.set(calls, 40.0 + i as f64 + rng.between(-4.0, 4.0));
        s.set(errors, if rng.chance(0.02) { 1.0 } else { 0.0 });
    }
    for (j, &table) in ctx.table_accesses.iter().enumerate() {
        s.set(table, 30.0 + 2.0 * j as f64 + rng.between(-5.0, 5.0));
    }
    let db_saturated = |s: &mut Sample, rng: &mut Rng| {
        s.set(ctx.db_util, rng.between(0.9, 1.0));
        s.set(ctx.db_queue_ms, rng.between(1_000.0, 4_000.0));
        s.set(ctx.response_ms, rng.between(250.0, 600.0));
    };
    match regime {
        Regime::Healthy => {}
        Regime::BufferMisses => {
            db_saturated(&mut s, rng);
            s.set(ctx.buffer_miss_rate, rng.between(0.5, 0.9));
        }
        Regime::LockWaits(table) => {
            db_saturated(&mut s, rng);
            s.set(ctx.table_accesses[table], rng.between(80.0, 120.0));
            s.set(ctx.lock_wait_ms, rng.between(100.0, 500.0));
        }
        Regime::BadPlans(table) => {
            db_saturated(&mut s, rng);
            s.set(ctx.table_accesses[table], rng.between(80.0, 120.0));
            s.set(ctx.plan_misestimate, rng.between(3.0, 6.0));
        }
        Regime::EjbErrors(k) => {
            s.set(ctx.ejb_errors[k], rng.between(5.0, 20.0));
            s.set(ctx.error_rate, rng.between(0.2, 0.4));
        }
        Regime::EjbStarved(k) => {
            s.set(ctx.ejb_calls[k], 0.0);
            let other = ctx.ejb_calls[(k + 1) % ctx.ejb_calls.len()];
            s.set(other, rng.between(75.0, 85.0));
        }
        Regime::Saturated(tier, load_grew) => {
            s.set(utils[tier], rng.between(0.95, 1.0));
            s.set(queues[tier], rng.between(1_000.0, 5_000.0));
            s.set(ctx.response_ms, rng.between(300.0, 900.0));
            if load_grew {
                s.set(ctx.arrivals, rng.between(120.0, 160.0));
            }
        }
    }
    s
}

/// A service drifting between health and faults: stretches of 1..60 ticks
/// in one regime, half of them healthy, plus one-tick spikes.
struct Feed {
    schema: Schema,
    tick: u64,
    regime: Regime,
    left: u64,
}

impl Feed {
    fn new(schema: &Schema) -> Feed {
        Feed {
            schema: schema.clone(),
            tick: 0,
            regime: Regime::Healthy,
            left: 0,
        }
    }

    /// The next sample and the failure indicator observed with it.
    fn next(&mut self, ctx: &DiagnosisContext, rng: &mut Rng) -> (Sample, bool) {
        if self.left == 0 {
            self.regime = if rng.chance(0.5) {
                Regime::Healthy
            } else {
                Regime::fault(rng)
            };
            self.left = 1 + rng.below(60);
        }
        self.left -= 1;
        let regime = if rng.chance(0.03) {
            Regime::fault(rng)
        } else {
            self.regime
        };
        let sample = sample(ctx, &self.schema, rng, self.tick, regime);
        self.tick += 1;
        let violated = (regime != Regime::Healthy) != rng.chance(0.05);
        (sample, violated)
    }
}

/// One engine under the oracle.
trait Engine {
    /// The engine's stated history.
    fn reads(&self) -> usize;
    fn answer(&self, series: &SeriesStore, ctx: &DiagnosisContext) -> Vec<Diagnosis>;
    /// The correlation analyzer's own failure-indicator history.
    fn see(&mut self, _sample: &Sample, _violated: bool) {}
}

macro_rules! engine {
    ($($engine:ty),*) => {$(
        impl Engine for $engine {
            fn reads(&self) -> usize {
                self.history()
            }
            fn answer(&self, series: &SeriesStore, ctx: &DiagnosisContext) -> Vec<Diagnosis> {
                self.diagnose(series, ctx)
            }
        }
    )*};
}

engine!(AnomalyDetector, BottleneckAnalyzer, ManualRuleBase);

impl Engine for CorrelationAnalyzer {
    fn reads(&self) -> usize {
        self.history()
    }
    fn answer(&self, series: &SeriesStore, ctx: &DiagnosisContext) -> Vec<Diagnosis> {
        self.diagnose(series, ctx)
    }
    fn see(&mut self, sample: &Sample, violated: bool) {
        self.observe(sample, violated);
    }
}

/// Runs [`SEQUENCES`] seeded sequences of 0..200 samples, each against a
/// fresh engine from `build`, and asserts after every sample that a store
/// of the engine's `history()` rows and a [`LONG`] one get equal answers
/// — and that over 100 of those answers recommended something, so the
/// oracle was not comparing empty lists.
fn agree<E: Engine>(seed: u64, mut build: impl FnMut(&mut Rng, &DiagnosisContext) -> E) {
    let schema = schema();
    let ctx = DiagnosisContext::from_schema(&schema, SloTargets::new(200.0, 0.05));
    let mut rng = Rng(seed);
    let mut recommended = 0;
    for sequence in 0..SEQUENCES {
        let mut engine = build(&mut rng, &ctx);
        let mut short = SeriesStore::new(schema.clone(), engine.reads());
        let mut long = SeriesStore::new(schema.clone(), LONG);
        let mut feed = Feed::new(&schema);
        for tick in 0..rng.below(200) {
            let (sample, violated) = feed.next(&ctx, &mut rng);
            engine.see(&sample, violated);
            short.push_copy(&sample);
            long.push(sample);
            let expected = engine.answer(&long, &ctx);
            assert_eq!(
                engine.answer(&short, &ctx),
                expected,
                "seed {seed}, sequence {sequence}, tick {tick}"
            );
            recommended += usize::from(!expected.is_empty());
        }
    }
    assert!(
        recommended > 100,
        "seed {seed}: only {recommended} answers were not empty"
    );
}

#[test]
fn the_anomaly_detector_reads_only_its_two_windows() {
    agree(0x5EED_0001, |rng, _| {
        if rng.chance(0.5) {
            AnomalyDetector::standard()
        } else {
            let nb = 2 + rng.below(40) as usize;
            AnomalyDetector::new(nb, 1 + rng.below(nb as u64 - 1) as usize)
        }
    });
}

#[test]
fn the_bottleneck_analyzer_reads_only_its_window() {
    agree(0x5EED_0002, |rng, _| {
        let mut analyzer = BottleneckAnalyzer::standard();
        if rng.chance(0.5) {
            analyzer.window = 1 + rng.below(20) as usize;
        }
        analyzer
    });
}

#[test]
fn the_manual_rules_read_only_their_window() {
    agree(0x5EED_0003, |rng, _| {
        let mut rules = ManualRuleBase::standard();
        if rng.chance(0.5) {
            rules.window = 1 + rng.below(10) as usize;
            rules.catch_all_restart = rng.chance(0.5);
        }
        rules
    });
}

#[test]
fn the_correlation_analyzer_reads_only_its_current_window() {
    agree(0x5EED_0004, |rng, ctx| {
        if rng.chance(0.5) {
            CorrelationAnalyzer::standard(ctx)
        } else {
            CorrelationAnalyzer::new(ctx, 10 + rng.below(100) as usize, rng.between(0.1, 0.6))
        }
    });
}

/// The bound is tight: one row short of `Nb + Nc`, the detector has no
/// window pair, so it cannot flag the spike a full history shows.
#[test]
fn one_row_fewer_leaves_the_anomaly_detector_without_a_window() {
    let schema = schema();
    let ctx = DiagnosisContext::from_schema(&schema, SloTargets::new(200.0, 0.05));
    let detector = AnomalyDetector::standard();
    let mut enough = SeriesStore::new(schema.clone(), detector.history());
    let mut one_short = SeriesStore::new(schema.clone(), detector.history() - 1);
    let mut rng = Rng(0x5EED_0005);
    for tick in 0..60 {
        let regime = if tick < 55 {
            Regime::Healthy
        } else {
            Regime::BufferMisses
        };
        let sample = sample(&ctx, &schema, &mut rng, tick, regime);
        enough.push_copy(&sample);
        one_short.push(sample);
    }
    assert!(!detector.diagnose(&enough, &ctx).is_empty());
    assert!(one_short
        .baseline_current(detector.nb, detector.nc)
        .is_none());
    assert!(detector.diagnose(&one_short, &ctx).is_empty());
}
