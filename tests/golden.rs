//! Golden fingerprints: the simulated outcome of a grid of fleets, of the
//! benchmark's two fleet configurations and of the daemon's default tenant,
//! pinned to what the simulator of commit 2718727 produces.  The numbers
//! were regenerated twice since, each time with no simulated value changed:
//! when `ScenarioOutcome::fingerprint` stopped digesting the episode log's
//! `Debug` text and began digesting each episode field by field, and when
//! the digest moved from std's default hasher (unspecified across
//! releases) over the retained metric history to the FNV-1a fold written
//! out in `selfheal-sim`.  The second time, the parent simulator with only
//! the new digest added printed exactly the tables below before the change
//! that dropped the history landed.
//!
//! A fingerprint digests the whole run, whatever the runner retains: each
//! tick's number and every metric value bit for bit, every failure episode
//! as it closes (detected, recovered, first fault's kind and cause, how many
//! were active, each attempted fix, escalated) and every counter, so a
//! change to the simulator's arithmetic, to the order of its floating-point
//! operations or to the number of RNG draws moves at least one of them.  An
//! optimisation of the tick path passes this file unmodified or is not an
//! optimisation.  A change that *means* to alter simulated behaviour
//! regenerates the tables: run the failing test and paste what it prints.

use selfheal::daemon::{DaemonConfig, Supervisor};
use selfheal::faults::{FaultKind, ServiceProfile};
use selfheal::fleet::{ExecutionMode, FleetConfig};
use selfheal::healing::harness::{EventChoice, FaultChoice, LearnerChoice, PolicyChoice};
use selfheal::healing::store::BatchedStore;
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;
use selfheal::workload::{ArrivalProcess, WorkloadMix};

const REPLICAS: usize = 3;
const TICKS: u64 = 700;

const KNN: SynopsisKind = SynopsisKind::NearestNeighbor;
const BATCH: usize = BatchedStore::DEFAULT_BATCH;

/// Healer and learner of a cell, under the label its rows are listed by.
const HEALERS: [(&str, PolicyChoice, LearnerChoice); 2] = [
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
    let mut cells = Vec::new();
    for (healer, policy, learner) in HEALERS {
        for faults in FAULTS {
            for seed in [42, 7] {
                for slice in [1, 7] {
                    let label = format!("{service}/{healer}/{faults}/seed{seed}/slice{slice}");
                    let fleet =
                        grid_fleet(service == "tiny", (policy, learner), faults, seed, slice);
                    cells.push((label, fleet));
                }
            }
        }
    }
    check_cells(service, cells, golden);
}

/// Runs `cells` and holds their fingerprints to `golden`, row by row; on a
/// mismatch prints the table they produced and names the rows that moved.
fn check_cells(what: &str, cells: Vec<(String, FleetConfig)>, golden: &[[u64; REPLICAS]]) {
    let mut actual = Vec::new();
    for (label, fleet) in cells {
        let outcome = fleet.run();
        assert!(outcome.is_complete(), "{label}");
        actual.push((label, outcome.fingerprints()));
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
            "{} of {} {what} fingerprints moved (table printed above): {moved:?}",
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

/// Ticks of the long cells: long enough for FixSym to try all ten
/// candidates and find no source with a fix left to offer on 9 of their 12
/// replicas, the first at tick 1 013.
const LONG_TICKS: u64 = 3_000;

/// FixSym and the proactive healer under the heavy fault mix for
/// [`LONG_TICKS`], on both services at seeds 42 and 7 (slice 1).  The grid
/// above stops at 700 ticks, before any FixSym replica runs out of fixes
/// to try, and runs no proactive healer.
#[test]
fn long_heavy_mix_cells_match_the_pinned_fingerprints() {
    let mut cells = Vec::new();
    for service in ["tiny", "rubis_default"] {
        for (healer, policy) in [
            ("fixsym_private", PolicyChoice::FixSym(KNN)),
            ("proactive", PolicyChoice::Proactive),
        ] {
            for seed in [42, 7] {
                let label = format!("{service}/{healer}/mix0.02/seed{seed}/{LONG_TICKS}");
                let cell = (policy, LearnerChoice::Private);
                let fleet = grid_fleet(service == "tiny", cell, "mix0.02", seed, 1);
                cells.push((label, fleet.ticks(LONG_TICKS)));
            }
        }
    }
    check_cells("long heavy-mix", cells, LONG_HEAVY_MIX);
}

/// The benchmark's `fleet_quiet` and `fleet_faulty` configurations
/// (`benchmark/src/fleet.rs`: 4 × 12 500 ticks), sequential, seed 42.
#[test]
fn the_benchmark_fleets_match_the_pinned_fingerprints() {
    let bench_fleet = || {
        FleetConfig::builder()
            .replicas(4)
            .ticks(12_500)
            .base_seed(42)
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
    (1_000, [(0, 5979837483687393322), (1, 1746556712270608543)]),
    (3_000, [(0, 5515993481814587960), (1, 13767014207341830034)]),
];

const FLEET_QUIET: [u64; 4] = [
    6986624953112590414,
    15794618893850104927,
    7053496429631955340,
    15291195270370460509,
];

const FLEET_FAULTY: [u64; 4] = [
    16010201066332505174,
    9493448128922612923,
    4537835721603664955,
    18273827729627221516,
];

/// Per healer and fault profile, four rows: seed 42 at slices 1 and 7, then
/// seed 7 at slices 1 and 7.
#[rustfmt::skip]
const TINY: &[[u64; REPLICAS]] = &[
    // fixsym_private, none
    [8629349674701671677, 12074222252576545819, 14757457767139811448],
    [8629349674701671677, 12074222252576545819, 14757457767139811448],
    [16716273181889483574, 13287801763822807326, 18430903329288922326],
    [16716273181889483574, 13287801763822807326, 18430903329288922326],
    // fixsym_private, mix0.002
    [13121369442833527989, 12074222252576545819, 2868189547802294078],
    [13121369442833527989, 12074222252576545819, 2868189547802294078],
    [8408265240467906683, 12950670328884066848, 14128724271214166093],
    [8408265240467906683, 12950670328884066848, 14128724271214166093],
    // fixsym_private, mix0.02
    [1952645172759729868, 3276273569345607720, 11411567492959247267],
    [1952645172759729868, 3276273569345607720, 11411567492959247267],
    [13691942032895546645, 288399636277764720, 12010279587669432209],
    [13691942032895546645, 288399636277764720, 12010279587669432209],
    // fixsym_private, storm
    [8629349674701671677, 2875789977520700406, 10392033021843544563],
    [8629349674701671677, 2875789977520700406, 10392033021843544563],
    [16716273181889483574, 18444768146123486542, 15257048255004101784],
    [16716273181889483574, 18444768146123486542, 15257048255004101784],
    // hybrid_locked, none
    [13130413452250509596, 12074222252576545819, 1849315272543091746],
    [13130413452250509596, 12074222252576545819, 1849315272543091746],
    [11038836008189345759, 8976074021200159680, 5584468890738659091],
    [11038836008189345759, 8976074021200159680, 5584468890738659091],
    // hybrid_locked, mix0.002
    [16224436138510430412, 12074222252576545819, 4390713220702099977],
    [16224436138510430412, 12074222252576545819, 4390713220702099977],
    [14711513461184355798, 17956767351329413568, 10317273635809575268],
    [14711513461184355798, 17956767351329413568, 10317273635809575268],
    // hybrid_locked, mix0.02
    [13835092355691560132, 12982055684108724303, 13751120884569104701],
    [13835092355691560132, 12982055684108724303, 13751120884569104701],
    [5047427774425054533, 77674402092672748, 9030762044101542741],
    [5047427774425054533, 77674402092672748, 9030762044101542741],
    // hybrid_locked, storm
    [13130413452250509596, 17465220361775290472, 17387080709022628474],
    [13130413452250509596, 17465220361775290472, 17387080709022628474],
    [11038836008189345759, 12571792400644347600, 13938050033396120836],
    [11038836008189345759, 12571792400644347600, 13938050033396120836],
];

/// Rows as in [`TINY`].
#[rustfmt::skip]
const RUBIS_DEFAULT: &[[u64; REPLICAS]] = &[
    // fixsym_private, none
    [2072350076469165320, 2085464896379152506, 2413365975773266213],
    [2072350076469165320, 2085464896379152506, 2413365975773266213],
    [221594921651899505, 14444561421017874281, 13205304581948888209],
    [221594921651899505, 14444561421017874281, 13205304581948888209],
    // fixsym_private, mix0.002
    [2723142448369159938, 2085464896379152506, 13753663200287053936],
    [2723142448369159938, 2085464896379152506, 13753663200287053936],
    [4333200721213767809, 6722268220756513277, 10923805802830626474],
    [4333200721213767809, 6722268220756513277, 10923805802830626474],
    // fixsym_private, mix0.02
    [12002648079225309478, 5827646728475464694, 8909753664497642287],
    [12002648079225309478, 5827646728475464694, 8909753664497642287],
    [4108092234908329500, 3825041935352433365, 9392083523983045546],
    [4108092234908329500, 3825041935352433365, 9392083523983045546],
    // fixsym_private, storm
    [2072350076469165320, 16899858457528550339, 15091277289941367791],
    [2072350076469165320, 16899858457528550339, 15091277289941367791],
    [221594921651899505, 14954953730098271231, 9395101343049825707],
    [221594921651899505, 14954953730098271231, 9395101343049825707],
    // hybrid_locked, none
    [2072350076469165320, 2085464896379152506, 2413365975773266213],
    [2072350076469165320, 2085464896379152506, 2413365975773266213],
    [221594921651899505, 14444561421017874281, 13205304581948888209],
    [221594921651899505, 14444561421017874281, 13205304581948888209],
    // hybrid_locked, mix0.002
    [9335955819386495918, 2085464896379152506, 13753663200287053936],
    [9335955819386495918, 2085464896379152506, 13753663200287053936],
    [4272732736109884782, 17007879383356092891, 13965157235631046709],
    [4272732736109884782, 17007879383356092891, 13965157235631046709],
    // hybrid_locked, mix0.02
    [10841778366709930007, 1311662457342267861, 5945725511372446418],
    [10841778366709930007, 1311662457342267861, 1856189512380218437],
    [11777261171330958211, 14486173390950655142, 10270621208946809596],
    [11777261171330958211, 14486173390950655142, 10270621208946809596],
    // hybrid_locked, storm
    [2072350076469165320, 14584331598066401386, 12335951179459275474],
    [2072350076469165320, 14584331598066401386, 12335951179459275474],
    [221594921651899505, 14080990383289317794, 3035909260978169098],
    [221594921651899505, 14080990383289317794, 3035909260978169098],
];

/// Per service, FixSym then the proactive healer, each at seeds 42 and 7.
#[rustfmt::skip]
const LONG_HEAVY_MIX: &[[u64; REPLICAS]] = &[
    // tiny, fixsym_private
    [8129847947085857612, 11057190589204810943, 15295281279396599351],
    [4045897478301504701, 36173689730825329, 12849994197709292147],
    // tiny, proactive
    [9592983811849960265, 10351198891851160647, 3859066433127672909],
    [8366977961446531906, 9048020630371905141, 9745011390073927717],
    // rubis_default, fixsym_private
    [16689687509502579566, 1674567855435755375, 2194165096226138937],
    [5068495906222926933, 16340562234236044986, 10250140287197919824],
    // rubis_default, proactive
    [9293707231872770296, 386103916916254983, 7791513836722496156],
    [13956132598417735979, 10321241058102284246, 11306662867249912788],
];
