//! Acceptance suite for the pluggable `FaultSource` API: mix sources must
//! be worker-count- and slice-invariant under the tick-sliced scheduler,
//! and catalog sweeps/storms must cover what they claim.

use selfheal::faults::{
    CatalogSweep, FaultKind, FaultSource, FaultTarget, InjectionPlanBuilder, MixSource,
    ScriptedSource, ServiceProfile,
};
use selfheal::fleet::{ExecutionMode, FleetConfig};
use selfheal::healing::harness::{
    EventChoice, FaultChoice, LearnerChoice, PolicyChoice, SelfHealingService,
};
use selfheal::healing::synopsis::SynopsisKind;
use selfheal::sim::ServiceConfig;
use selfheal::workload::{ArrivalProcess, WorkloadMix};
use std::collections::HashSet;

fn plan() -> selfheal::faults::InjectionPlan {
    InjectionPlanBuilder::new()
        .inject(
            60,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.9,
        )
        .inject(
            220,
            FaultKind::UnhandledException,
            FaultTarget::Ejb { index: 1 },
            0.8,
        )
        .build()
}

fn mix_fleet(workers: Option<usize>, slice: u64) -> FleetConfig {
    let config = ServiceConfig::tiny();
    FleetConfig::builder()
        .service(config.clone())
        .synthetic_workload(
            WorkloadMix::bidding(),
            ArrivalProcess::Constant { rate: 40.0 },
        )
        .replicas(4)
        .ticks(320)
        .base_seed(23)
        .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
        .faults(FaultChoice::mix_for(ServiceProfile::Online, 0.03, &config).active_for(160))
        .slice(slice)
        .mode(match workers {
            Some(w) => ExecutionMode::Parallel { threads: Some(w) },
            None => ExecutionMode::Sequential,
        })
}

/// The second acceptance criterion: a `MixSource` fleet run is
/// fingerprint-identical across workers 1–4 and slices {1, 64} — each
/// replica's demographic fault stream is a pure function of
/// `(base_seed, replica)`, never of scheduling.
#[test]
fn mix_fleets_are_invariant_across_worker_counts_and_slices() {
    let reference = mix_fleet(None, 1).run();
    assert!(reference.is_complete());
    assert!(
        reference.total_episodes() >= 1,
        "a 0.03-rate mix over 160 active ticks must fault somewhere"
    );
    let prints = reference.fingerprints();
    for workers in 1..=4 {
        for slice in [1, 64] {
            assert_eq!(
                mix_fleet(Some(workers), slice).run().fingerprints(),
                prints,
                "{workers} workers, slice {slice}"
            );
        }
    }
}

/// Sibling replicas draw decorrelated fault streams from the same base
/// seed (per-replica seed splitting via `SeedStream::Faults`).
#[test]
fn mix_fleet_replicas_decorrelate() {
    let outcome = mix_fleet(None, 1).run();
    let prints = outcome.fingerprints();
    let mut unique = prints.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(
        unique.len(),
        prints.len(),
        "replicas must differ: {prints:?}"
    );
}

/// A catalog sweep drives the healer through every failure class the
/// catalog describes — the FixSym training-coverage run.
#[test]
fn catalog_sweep_exposes_the_healer_to_every_class() {
    let outcome = SelfHealingService::builder()
        .config(ServiceConfig::tiny())
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .faults(FaultChoice::sweep(50, 400))
        .seed(5)
        .run(50 + 400 * 12 + 600);
    // Every class was injected; most manifest as episodes (some mild or
    // overlapping classes can fold into a neighbour's episode).
    assert!(
        outcome.recovery.len() >= 8,
        "a full sweep must open distinct episodes, got {}",
        outcome.recovery.len()
    );
    assert!(outcome.fixes_initiated >= 8);
    let episodes = outcome.recovery.episodes().iter();
    let classes: HashSet<FaultKind> = episodes.filter_map(|e| e.primary_fault()).collect();
    assert!(
        classes.len() >= 2,
        "the episodes span failure classes: {classes:?}"
    );
}

/// Composed sources merge scripted scenarios with background demographic
/// noise, and the composition stays deterministic.
#[test]
fn composed_choices_merge_and_stay_deterministic() {
    let config = ServiceConfig::tiny();
    let choice = FaultChoice::composed([
        FaultChoice::Scripted(plan()),
        FaultChoice::mix_for(ServiceProfile::Content, 0.02, &config).active_for(150),
    ]);
    let run = || {
        SelfHealingService::builder()
            .config(ServiceConfig::tiny())
            .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
            .faults(choice.clone())
            .seed(31)
            .run(600)
    };
    let a = run();
    assert_eq!(a.fingerprint(), run().fingerprint());
    // The composed run faults (overlapping scripted + mix injections can
    // merge into fewer, longer episodes, so only a floor is asserted).
    assert!(!a.recovery.is_empty(), "episodes: {}", a.recovery.len());
    assert!(a.fixes_initiated >= 1);
}

/// Catalog storms (`EventChoice::catalog_storm`) hit the usual Bresenham
/// victim set but manifest mixed failure classes — deterministically at
/// every worker count.
#[test]
fn catalog_storms_are_worker_count_invariant() {
    let fleet = |workers: Option<usize>| {
        FleetConfig::builder()
            .service(ServiceConfig::tiny())
            .synthetic_workload(
                WorkloadMix::bidding(),
                ArrivalProcess::Constant { rate: 40.0 },
            )
            .replicas(6)
            .ticks(260)
            .base_seed(11)
            .policy(PolicyChoice::FixSym(SynopsisKind::NearestNeighbor))
            .learner(LearnerChoice::locked())
            .event(EventChoice::catalog_storm(80, ServiceProfile::Online, 1.0))
            .mode(match workers {
                Some(w) => ExecutionMode::Parallel { threads: Some(w) },
                None => ExecutionMode::Sequential,
            })
            .run()
    };
    let reference = fleet(None);
    let kinds: std::collections::HashSet<FaultKind> = reference
        .replicas()
        .iter()
        .flat_map(|r| r.outcome.recovery.episodes())
        .filter_map(|e| e.primary_fault())
        .collect();
    assert!(
        kinds.len() >= 2,
        "a full-fleet catalog storm manifests mixed classes: {kinds:?}"
    );
    for workers in [1, 2, 4] {
        assert_eq!(
            fleet(Some(workers)).fingerprints(),
            reference.fingerprints(),
            "{workers} workers"
        );
    }
}

/// `horizon()` composes sensibly across the shipped sources, so quiesce
/// logic can bound any run.
#[test]
fn source_horizons_bound_the_schedules() {
    assert_eq!(ScriptedSource::new(plan()).horizon(), 220);
    assert_eq!(
        MixSource::new(ServiceProfile::Online, 0.5, 1)
            .active_for(100)
            .horizon(),
        99
    );
    assert_eq!(
        MixSource::new(ServiceProfile::Online, 0.5, 1).horizon(),
        u64::MAX,
        "unbounded mixes say so"
    );
    let sweep = CatalogSweep::new(10, 5);
    assert_eq!(
        sweep.horizon(),
        10 + 5 * (CatalogSweep::kinds().len() as u64 - 1)
    );
}
