//! Golden fingerprints: the simulated outcome of a grid of fleets, of the
//! benchmark's two fleet configurations and of the daemon's default tenant,
//! pinned to the values commit 2718727 produced.
//!
//! A fingerprint digests every retained metric value bit for bit, every
//! failure episode and every counter, so a change to the simulator's
//! arithmetic, to the order of its floating-point operations or to the
//! number of RNG draws moves at least one of them.  An optimisation of the
//! tick path passes this file unmodified or is not an optimisation.  A
//! change that *means* to alter simulated behaviour regenerates the tables:
//! run the failing test and paste what it prints.

use selfheal::daemon::{DaemonConfig, Supervisor};
use selfheal::faults::{FaultKind, ServiceProfile};
use selfheal::fleet::{ExecutionMode, FleetConfig};
use selfheal::healing::harness::{EventChoice, FaultChoice, LearnerChoice, PolicyChoice};
use selfheal::healing::store::ShardedStore;
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;
use selfheal::workload::{ArrivalProcess, WorkloadMix};

const REPLICAS: usize = 3;
const TICKS: u64 = 700;

const KNN: SynopsisKind = SynopsisKind::NearestNeighbor;
const BATCH: usize = ShardedStore::DEFAULT_BATCH;

/// Healer and learner of a cell, under the label its rows are listed by.
const HEALERS: [(&str, PolicyChoice, LearnerChoice); 3] = [
    (
        "fixsym_private",
        PolicyChoice::FixSym(KNN),
        LearnerChoice::Private,
    ),
    (
        "hybrid_locked",
        PolicyChoice::Hybrid(KNN),
        LearnerChoice::Locked { batch: BATCH },
    ),
    (
        "hybrid_sharded4",
        PolicyChoice::Hybrid(KNN),
        LearnerChoice::Sharded {
            shards: 4,
            batch: BATCH,
        },
    ),
];

const FAULTS: [&str; 4] = ["none", "mix0.002", "mix0.02", "storm"];

/// One cell of the grid; `tiny` runs the constant-rate bidding workload the
/// daemon uses, `rubis_default` the workspace default (Poisson 40).
fn grid_fleet(
    tiny: bool,
    (policy, learner): (PolicyChoice, LearnerChoice),
    faults: &str,
    seed: u64,
    slice: u64,
) -> FleetConfig {
    let mut config = FleetConfig::builder()
        .replicas(REPLICAS)
        .ticks(TICKS)
        .base_seed(seed)
        .policy(policy)
        .learner(learner)
        .slice(slice)
        .mode(ExecutionMode::Sequential);
    let mut service = ServiceConfig::rubis_default();
    if tiny {
        service = ServiceConfig::tiny();
        config = config.service(service.clone()).synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        );
    }
    let mix = |rate| FaultChoice::mix_for(ServiceProfile::Online, rate, &service);
    match faults {
        "none" => config,
        "mix0.002" => config.faults(mix(0.002)),
        "mix0.02" => config.faults(mix(0.02)),
        "storm" => config.event(EventChoice::storm(
            TICKS / 4,
            FaultKind::BufferContention,
            0.7,
        )),
        other => unreachable!("no fault profile {other}"),
    }
}

/// Runs every cell of one service's grid and holds it to `golden`, in the
/// order the loops visit them.
fn check_grid(service: &str, golden: &[[u64; REPLICAS]]) {
    let mut actual = Vec::new();
    for (healer, policy, learner) in HEALERS {
        for faults in FAULTS {
            for seed in [42, 7] {
                for slice in [1, 7] {
                    let label = format!("{service}/{healer}/{faults}/seed{seed}/slice{slice}");
                    let fleet =
                        grid_fleet(service == "tiny", (policy, learner), faults, seed, slice);
                    let outcome = fleet.run();
                    assert!(outcome.is_complete(), "{label}");
                    actual.push((label, outcome.fingerprints()));
                }
            }
        }
    }
    let matches = actual.len() == golden.len()
        && actual
            .iter()
            .zip(golden)
            .all(|((_, fingerprints), pinned)| fingerprints == pinned);
    if !matches {
        for (label, fingerprints) in &actual {
            println!("    {fingerprints:?}, // {label}");
        }
        let moved: Vec<&str> = actual
            .iter()
            .zip(golden)
            .filter(|((_, fingerprints), pinned)| fingerprints != pinned)
            .map(|((label, _), _)| label.as_str())
            .collect();
        panic!(
            "{} of {} {service} fingerprints moved (table printed above): {moved:?}",
            moved.len() + actual.len().abs_diff(golden.len()),
            actual.len()
        );
    }
}

#[test]
fn tiny_grid_matches_the_pinned_fingerprints() {
    check_grid("tiny", TINY);
}

#[test]
fn rubis_default_grid_matches_the_pinned_fingerprints() {
    check_grid("rubis_default", RUBIS_DEFAULT);
}

/// The benchmark's `fleet_quiet` and `fleet_faulty` configurations
/// (`benchmark/src/fleet.rs`: 4 × 12 500 ticks, 512 retained samples),
/// sequential, seed 42.
#[test]
fn the_benchmark_fleets_match_the_pinned_fingerprints() {
    let bench_fleet = || {
        FleetConfig::builder()
            .replicas(4)
            .ticks(12_500)
            .base_seed(42)
            .series_capacity(512)
            .mode(ExecutionMode::Sequential)
    };
    let quiet = bench_fleet().policy(PolicyChoice::FixSym(KNN)).run();
    assert_eq!(quiet.fingerprints(), FLEET_QUIET, "fleet_quiet");
    let faulty = bench_fleet()
        .policy(PolicyChoice::Hybrid(KNN))
        .learner(LearnerChoice::locked())
        .faults(FaultChoice::mix_for(
            ServiceProfile::Online,
            0.002,
            &ServiceConfig::rubis_default(),
        ))
        .run();
    assert_eq!(faulty.fingerprints(), FLEET_FAULTY, "fleet_faulty");
}

/// The daemon's default tenant: faults arrive every 50 ticks and outrun the
/// healer, so hundreds are active at once — the regime in which every
/// `ActiveFaults` query scans a long list, which no batch fleet reaches.
/// Unoptimised builds stop at the first checkpoint (the second costs them
/// half a minute).
#[test]
fn the_default_daemon_tenant_matches_the_pinned_fingerprints() {
    let mut supervisor = Supervisor::new(DaemonConfig::default()).expect("default config");
    for _ in 0..2 {
        supervisor.add_replica("default").expect("add replica");
    }
    let mut epoch = 0;
    for (until, pinned) in DAEMON_DEFAULT {
        while epoch < until {
            assert_eq!(supervisor.advance_epoch(), 2);
            epoch += 1;
        }
        assert_eq!(supervisor.fingerprints(), pinned, "after {until} epochs");
        if cfg!(debug_assertions) {
            break;
        }
    }
}

/// `(epochs run, fingerprints by replica id)`.
const DAEMON_DEFAULT: [(usize, [(usize, u64); 2]); 2] = [
    (1_000, [(0, 5104803909268611079), (1, 12202620256808881852)]),
    (3_000, [(0, 1366923227385670831), (1, 2270666972848580629)]),
];

const FLEET_QUIET: [u64; 4] = [
    14446415700593011916,
    1580566031184316559,
    11298140239096340334,
    7324481170335758167,
];

const FLEET_FAULTY: [u64; 4] = [
    4431101245562955359,
    17015464614957426942,
    1228123836477444216,
    12420721387749670678,
];

/// Per healer and fault profile, four rows: seed 42 at slices 1 and 7, then
/// seed 7 at slices 1 and 7.
#[rustfmt::skip]
const TINY: &[[u64; REPLICAS]] = &[
    // fixsym_private, none
    [7146067397044503806, 9091481114886870222, 5530678316360904471],
    [7146067397044503806, 9091481114886870222, 5530678316360904471],
    [2774262093931070975, 12390847237020964483, 9648326777343351472],
    [2774262093931070975, 12390847237020964483, 9648326777343351472],
    // fixsym_private, mix0.002
    [14094906920741938073, 9091481114886870222, 6912467816347558966],
    [14094906920741938073, 9091481114886870222, 6912467816347558966],
    [14461843997351241238, 8112293069608495406, 6435648723528298107],
    [14461843997351241238, 8112293069608495406, 6435648723528298107],
    // fixsym_private, mix0.02
    [14174581726985662624, 10854467499239615777, 3725731603170136308],
    [14174581726985662624, 10854467499239615777, 3725731603170136308],
    [14180447681828416521, 6530135208561345513, 4224540366749551647],
    [14180447681828416521, 6530135208561345513, 4224540366749551647],
    // fixsym_private, storm
    [7146067397044503806, 4175526619891464695, 1447668836463702732],
    [7146067397044503806, 4175526619891464695, 1447668836463702732],
    [2774262093931070975, 4759672687528609402, 8432190146234694462],
    [2774262093931070975, 4759672687528609402, 8432190146234694462],
    // hybrid_locked, none
    [15599082234245553088, 9091481114886870222, 13871033075341545613],
    [15599082234245553088, 9091481114886870222, 13871033075341545613],
    [7190643520770310745, 12287486430180280201, 6137575677558243835],
    [7190643520770310745, 12287486430180280201, 6137575677558243835],
    // hybrid_locked, mix0.002
    [16945463606675155964, 9091481114886870222, 18125818887375582324],
    [16945463606675155964, 9091481114886870222, 18125818887375582324],
    [16998263187099683343, 13877869350466460699, 15113374316312973952],
    [16998263187099683343, 13877869350466460699, 15113374316312973952],
    // hybrid_locked, mix0.02
    [10646272796502184816, 3557216039237850944, 13462224770248553002],
    [10646272796502184816, 3557216039237850944, 13462224770248553002],
    [12016191638503434893, 6750887907787269403, 12816797159222083588],
    [12016191638503434893, 6750887907787269403, 12816797159222083588],
    // hybrid_locked, storm
    [15599082234245553088, 6049270669114551177, 17629551839975953409],
    [15599082234245553088, 6049270669114551177, 17629551839975953409],
    [7190643520770310745, 6189143402415932828, 8204172843723297930],
    [7190643520770310745, 6189143402415932828, 8204172843723297930],
    // hybrid_sharded4, none
    [15599082234245553088, 9091481114886870222, 13871033075341545613],
    [15599082234245553088, 9091481114886870222, 13871033075341545613],
    [7190643520770310745, 12287486430180280201, 6137575677558243835],
    [7190643520770310745, 12287486430180280201, 6137575677558243835],
    // hybrid_sharded4, mix0.002
    [16945463606675155964, 9091481114886870222, 18125818887375582324],
    [16945463606675155964, 9091481114886870222, 18125818887375582324],
    [16998263187099683343, 13877869350466460699, 15113374316312973952],
    [16998263187099683343, 13877869350466460699, 15113374316312973952],
    // hybrid_sharded4, mix0.02
    [10646272796502184816, 3557216039237850944, 13462224770248553002],
    [10646272796502184816, 3557216039237850944, 13462224770248553002],
    [12016191638503434893, 6750887907787269403, 12816797159222083588],
    [12016191638503434893, 6750887907787269403, 12816797159222083588],
    // hybrid_sharded4, storm
    [15599082234245553088, 6049270669114551177, 17629551839975953409],
    [15599082234245553088, 6049270669114551177, 17629551839975953409],
    [7190643520770310745, 6189143402415932828, 8204172843723297930],
    [7190643520770310745, 6189143402415932828, 8204172843723297930],
];

/// Rows as in [`TINY`].
#[rustfmt::skip]
const RUBIS_DEFAULT: &[[u64; REPLICAS]] = &[
    // fixsym_private, none
    [758922764963313926, 9831927901727579572, 18361628571896996166],
    [758922764963313926, 9831927901727579572, 18361628571896996166],
    [5614013261117995118, 1872668908024419809, 16822984302330755518],
    [5614013261117995118, 1872668908024419809, 16822984302330755518],
    // fixsym_private, mix0.002
    [12379917223920470454, 9831927901727579572, 1930717425882223384],
    [12379917223920470454, 9831927901727579572, 1930717425882223384],
    [16076938922221747844, 9432951911028172685, 17024493702851361581],
    [16076938922221747844, 9432951911028172685, 17024493702851361581],
    // fixsym_private, mix0.02
    [5481974002867519104, 4660084042949197210, 15670343190096566890],
    [5481974002867519104, 4660084042949197210, 15670343190096566890],
    [13312088607465888823, 2160391845998383307, 16517107627239570187],
    [13312088607465888823, 2160391845998383307, 16517107627239570187],
    // fixsym_private, storm
    [758922764963313926, 8181687207187395431, 327978727766328049],
    [758922764963313926, 8181687207187395431, 327978727766328049],
    [5614013261117995118, 9335953159792597935, 7844784682933304930],
    [5614013261117995118, 9335953159792597935, 7844784682933304930],
    // hybrid_locked, none
    [758922764963313926, 9831927901727579572, 18361628571896996166],
    [758922764963313926, 9831927901727579572, 18361628571896996166],
    [5614013261117995118, 1872668908024419809, 16822984302330755518],
    [5614013261117995118, 1872668908024419809, 16822984302330755518],
    // hybrid_locked, mix0.002
    [6786340141706264873, 9831927901727579572, 1930717425882223384],
    [6786340141706264873, 9831927901727579572, 1930717425882223384],
    [15385867809924812359, 10771680676423924029, 9907821436018774992],
    [15385867809924812359, 10771680676423924029, 9907821436018774992],
    // hybrid_locked, mix0.02
    [3585125012338681152, 1014025881191513511, 5031514838729648261],
    [3585125012338681152, 1014025881191513511, 18183265307004952912],
    [2003803572745819755, 11389056660098410092, 7183562799908870060],
    [2003803572745819755, 11389056660098410092, 7183562799908870060],
    // hybrid_locked, storm
    [758922764963313926, 7951785529949072151, 16450487693522089261],
    [758922764963313926, 7951785529949072151, 16450487693522089261],
    [5614013261117995118, 2355897091815618301, 16473449627719083222],
    [5614013261117995118, 2355897091815618301, 16473449627719083222],
    // hybrid_sharded4, none
    [758922764963313926, 9831927901727579572, 18361628571896996166],
    [758922764963313926, 9831927901727579572, 18361628571896996166],
    [5614013261117995118, 1872668908024419809, 16822984302330755518],
    [5614013261117995118, 1872668908024419809, 16822984302330755518],
    // hybrid_sharded4, mix0.002
    [6786340141706264873, 9831927901727579572, 1930717425882223384],
    [6786340141706264873, 9831927901727579572, 1930717425882223384],
    [15385867809924812359, 10771680676423924029, 9907821436018774992],
    [15385867809924812359, 10771680676423924029, 9907821436018774992],
    // hybrid_sharded4, mix0.02
    [3585125012338681152, 1014025881191513511, 5031514838729648261],
    [3585125012338681152, 1014025881191513511, 18183265307004952912],
    [2003803572745819755, 11389056660098410092, 7183562799908870060],
    [2003803572745819755, 11389056660098410092, 7183562799908870060],
    // hybrid_sharded4, storm
    [758922764963313926, 7951785529949072151, 16450487693522089261],
    [758922764963313926, 7951785529949072151, 16450487693522089261],
    [5614013261117995118, 2355897091815618301, 16473449627719083222],
    [5614013261117995118, 2355897091815618301, 16473449627719083222],
];
