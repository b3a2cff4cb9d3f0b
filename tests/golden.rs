//! Golden fingerprints: the simulated outcome of a grid of fleets, of the
//! benchmark's two fleet configurations and of the daemon's default tenant,
//! pinned to what the simulator of commit 2718727 produces.  The numbers
//! were regenerated once since, with no simulated value changed: when
//! `ScenarioOutcome::fingerprint` stopped digesting the episode log's
//! `Debug` text and began digesting each episode field by field, that one
//! function on top of the unchanged simulator printed the tables below.
//!
//! A fingerprint digests every retained metric value bit for bit, every
//! failure episode (detected, recovered, first fault's kind and cause, how
//! many were active, each attempted fix, escalated) and every counter, so a
//! change to the simulator's arithmetic, to the order of its floating-point
//! operations or to the number of RNG draws moves at least one of them.  An
//! optimisation of the tick path passes this file unmodified or is not an
//! optimisation.  A change that *means* to alter simulated behaviour
//! regenerates the tables: run the failing test and paste what it prints.

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
    (1_000, [(0, 8037605621900490268), (1, 2053889015822062076)]),
    (3_000, [(0, 4117338056951287107), (1, 11932139439240936156)]),
];

const FLEET_QUIET: [u64; 4] = [
    11101700323625404791,
    9023325765395125243,
    13301795576074067703,
    7381828931711497402,
];

const FLEET_FAULTY: [u64; 4] = [
    3107109735735981643,
    2964266565017787379,
    6224610564413719355,
    15297884730679009451,
];

/// Per healer and fault profile, four rows: seed 42 at slices 1 and 7, then
/// seed 7 at slices 1 and 7.
#[rustfmt::skip]
const TINY: &[[u64; REPLICAS]] = &[
    // fixsym_private, none
    [4710931648406716600, 14449976468471270921, 17810798100799727873],
    [4710931648406716600, 14449976468471270921, 17810798100799727873],
    [8101877597354039160, 7373739726255269067, 16974641075554649012],
    [8101877597354039160, 7373739726255269067, 16974641075554649012],
    // fixsym_private, mix0.002
    [2735022177793085619, 14449976468471270921, 17907172648580386593],
    [2735022177793085619, 14449976468471270921, 17907172648580386593],
    [16754747766369007909, 7408933720408557937, 595226904902135573],
    [16754747766369007909, 7408933720408557937, 595226904902135573],
    // fixsym_private, mix0.02
    [12375011466566568171, 17392955736822142687, 17227762017312226579],
    [12375011466566568171, 17392955736822142687, 17227762017312226579],
    [6271910077243706170, 6507673556343797534, 16039064441431507857],
    [6271910077243706170, 6507673556343797534, 16039064441431507857],
    // fixsym_private, storm
    [4710931648406716600, 18217779634834790485, 5803605011398298068],
    [4710931648406716600, 18217779634834790485, 5803605011398298068],
    [8101877597354039160, 11889663620662720378, 12367330458327487129],
    [8101877597354039160, 11889663620662720378, 12367330458327487129],
    // hybrid_locked, none
    [8341883551867953778, 14449976468471270921, 2407699520541898957],
    [8341883551867953778, 14449976468471270921, 2407699520541898957],
    [16090629357453422268, 622959614288296031, 9500790022722681827],
    [16090629357453422268, 622959614288296031, 9500790022722681827],
    // hybrid_locked, mix0.002
    [2350628265290413395, 14449976468471270921, 3042868305671617932],
    [2350628265290413395, 14449976468471270921, 3042868305671617932],
    [13691334540479767781, 17657197938723107628, 9545951976125358004],
    [13691334540479767781, 17657197938723107628, 9545951976125358004],
    // hybrid_locked, mix0.02
    [17968903795863453197, 6956035363167241114, 11079554589788209976],
    [17968903795863453197, 6956035363167241114, 11079554589788209976],
    [4291315787152622118, 2545556243216024520, 7803141270003628844],
    [4291315787152622118, 2545556243216024520, 7803141270003628844],
    // hybrid_locked, storm
    [8341883551867953778, 16490251756258831473, 6242284373035246257],
    [8341883551867953778, 16490251756258831473, 6242284373035246257],
    [16090629357453422268, 4924864498051437724, 12968098915641007233],
    [16090629357453422268, 4924864498051437724, 12968098915641007233],
    // hybrid_sharded4, none
    [8341883551867953778, 14449976468471270921, 2407699520541898957],
    [8341883551867953778, 14449976468471270921, 2407699520541898957],
    [16090629357453422268, 622959614288296031, 9500790022722681827],
    [16090629357453422268, 622959614288296031, 9500790022722681827],
    // hybrid_sharded4, mix0.002
    [2350628265290413395, 14449976468471270921, 3042868305671617932],
    [2350628265290413395, 14449976468471270921, 3042868305671617932],
    [13691334540479767781, 17657197938723107628, 9545951976125358004],
    [13691334540479767781, 17657197938723107628, 9545951976125358004],
    // hybrid_sharded4, mix0.02
    [17968903795863453197, 6956035363167241114, 11079554589788209976],
    [17968903795863453197, 6956035363167241114, 11079554589788209976],
    [4291315787152622118, 2545556243216024520, 7803141270003628844],
    [4291315787152622118, 2545556243216024520, 7803141270003628844],
    // hybrid_sharded4, storm
    [8341883551867953778, 16490251756258831473, 6242284373035246257],
    [8341883551867953778, 16490251756258831473, 6242284373035246257],
    [16090629357453422268, 4924864498051437724, 12968098915641007233],
    [16090629357453422268, 4924864498051437724, 12968098915641007233],
];

/// Rows as in [`TINY`].
#[rustfmt::skip]
const RUBIS_DEFAULT: &[[u64; REPLICAS]] = &[
    // fixsym_private, none
    [6370874439868559239, 5540424428054609261, 15400609149115451709],
    [6370874439868559239, 5540424428054609261, 15400609149115451709],
    [8198073450149143595, 16869688229789377255, 12574909265911136799],
    [8198073450149143595, 16869688229789377255, 12574909265911136799],
    // fixsym_private, mix0.002
    [8246009078104026893, 5540424428054609261, 8460482406877520515],
    [8246009078104026893, 5540424428054609261, 8460482406877520515],
    [18089239520977874285, 2393181828491705571, 3914741367169923866],
    [18089239520977874285, 2393181828491705571, 3914741367169923866],
    // fixsym_private, mix0.02
    [12200008841740644914, 5049664838149413377, 8354080636375079543],
    [12200008841740644914, 5049664838149413377, 8354080636375079543],
    [6427127893613326292, 5471914475048684174, 7577438692931541014],
    [6427127893613326292, 5471914475048684174, 7577438692931541014],
    // fixsym_private, storm
    [6370874439868559239, 9801300686148656504, 545493704775636606],
    [6370874439868559239, 9801300686148656504, 545493704775636606],
    [8198073450149143595, 2446468384024405875, 4151036742330203219],
    [8198073450149143595, 2446468384024405875, 4151036742330203219],
    // hybrid_locked, none
    [6370874439868559239, 5540424428054609261, 15400609149115451709],
    [6370874439868559239, 5540424428054609261, 15400609149115451709],
    [8198073450149143595, 16869688229789377255, 12574909265911136799],
    [8198073450149143595, 16869688229789377255, 12574909265911136799],
    // hybrid_locked, mix0.002
    [7764206405735826818, 5540424428054609261, 8460482406877520515],
    [7764206405735826818, 5540424428054609261, 8460482406877520515],
    [216454390176061364, 10104935449454089571, 11140690712195634534],
    [216454390176061364, 10104935449454089571, 11140690712195634534],
    // hybrid_locked, mix0.02
    [2468496325721359132, 17316757280820694077, 13189260117786014396],
    [2468496325721359132, 17316757280820694077, 15087041734742452930],
    [7406532004507987049, 15093546557742149909, 16065484840263444969],
    [7406532004507987049, 15093546557742149909, 16065484840263444969],
    // hybrid_locked, storm
    [6370874439868559239, 7929793738501673319, 7997796331528558448],
    [6370874439868559239, 7929793738501673319, 7997796331528558448],
    [8198073450149143595, 1908637777534788005, 1467931546692131349],
    [8198073450149143595, 1908637777534788005, 1467931546692131349],
    // hybrid_sharded4, none
    [6370874439868559239, 5540424428054609261, 15400609149115451709],
    [6370874439868559239, 5540424428054609261, 15400609149115451709],
    [8198073450149143595, 16869688229789377255, 12574909265911136799],
    [8198073450149143595, 16869688229789377255, 12574909265911136799],
    // hybrid_sharded4, mix0.002
    [7764206405735826818, 5540424428054609261, 8460482406877520515],
    [7764206405735826818, 5540424428054609261, 8460482406877520515],
    [216454390176061364, 10104935449454089571, 11140690712195634534],
    [216454390176061364, 10104935449454089571, 11140690712195634534],
    // hybrid_sharded4, mix0.02
    [2468496325721359132, 17316757280820694077, 13189260117786014396],
    [2468496325721359132, 17316757280820694077, 15087041734742452930],
    [7406532004507987049, 15093546557742149909, 16065484840263444969],
    [7406532004507987049, 15093546557742149909, 16065484840263444969],
    // hybrid_sharded4, storm
    [6370874439868559239, 7929793738501673319, 7997796331528558448],
    [6370874439868559239, 7929793738501673319, 7997796331528558448],
    [8198073450149143595, 1908637777534788005, 1467931546692131349],
    [8198073450149143595, 1908637777534788005, 1467931546692131349],
];
