//! Experiment harness regenerating every table and figure of the paper's
//! evaluation, plus the fleet experiments of [`fleet`].
//!
//! Each `fig*` / `table*` function returns a
//! [`selfheal_telemetry::export::ResultTable`]; the binary of the same name
//! prints it and writes it to `results/<name>.csv` through [`emit`], and
//! the tests run the same code at [`ExperimentScale::quick`].
//!
//! A results CSV is one of two things.  Either it is deterministic (seeded,
//! no clock) and pinned whole: CI regenerates Tables 1–3, Figures 1, 2
//! and 4 and `fleet_learning.csv` and fails on any byte that moved, and
//! `tests/paper_tables.rs` holds Table 2 and the fleet learning table to
//! their committed CSVs under `cargo test`.  Or it is a timing file
//! (`table3_synopsis_time.csv`, `fleet_scaling.csv`) that is never pinned.
//! Speed numbers come from the standalone `benchmark/` package, not from
//! this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;

use selfheal_core::fixsym::FixSymEngine;
use selfheal_core::harness::{FaultChoice, PolicyChoice, SelfHealingService};
use selfheal_core::synopsis::SynopsisKind;
use selfheal_faults::{
    injection::default_target, FailureCause, FaultId, FaultKind, FaultSpec, FaultTarget, FixAction,
    FixCatalog, FixKind, InjectionPlanBuilder, RecoveryTimeModel, ServiceProfile,
};
use selfheal_learn::Dataset;
use selfheal_sim::{FailureStateGenerator, MultiTierService, ServiceConfig};
use selfheal_telemetry::export::ResultTable;
use selfheal_workload::{ArrivalProcess, TraceGenerator, WorkloadMix};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters controlling experiment sizes, so tests and examples can run
/// reduced versions of the same code paths.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Number of failure states in the fixed test set (paper: 1000).
    pub test_states: usize,
    /// Maximum number of correct fixes to learn from (paper: up to ~100).
    pub max_correct_fixes: usize,
    /// Number of failures sampled per service profile for Figure 1.
    pub failures_per_profile: usize,
    /// Ticks per policy run for the Table 2 comparison.
    pub comparison_ticks: u64,
}

impl ExperimentScale {
    /// The full scale used by the `cargo run` binaries (matches the paper's
    /// test-set size).
    pub fn full() -> Self {
        ExperimentScale {
            test_states: 1000,
            max_correct_fixes: 100,
            failures_per_profile: 2000,
            comparison_ticks: 2500,
        }
    }

    /// A reduced scale for tests and examples.
    pub fn quick() -> Self {
        ExperimentScale {
            test_states: 60,
            max_correct_fixes: 20,
            failures_per_profile: 200,
            comparison_ticks: 400,
        }
    }
}

/// The fault kinds used by the synopsis experiments: the Table 1 classes,
/// which are exactly the failures a production J2EE service keeps re-living.
pub fn synopsis_fault_kinds() -> Vec<FaultKind> {
    FaultKind::TABLE1.to_vec()
}

/// **Figure 1** — causes of failures in three large multitier services.
///
/// For each service archetype the configured cause mix is sampled
/// `failures_per_profile` times and the observed shares are reported; the
/// reproduced claim is the *shape*: operator error is the largest share in
/// every service, followed by software.
pub fn fig1_failure_causes(scale: ExperimentScale, seed: u64) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 1: causes of failures in three multitier services (fraction of failures)",
        FailureCause::ALL
            .iter()
            .map(|c| c.label().to_string())
            .collect(),
    );
    let mut rng = StdRng::seed_from_u64(seed);
    for profile in ServiceProfile::ALL {
        let mut counts = vec![0usize; FailureCause::ALL.len()];
        for _ in 0..scale.failures_per_profile {
            let (cause, _kind) = profile.sample_kind(&mut rng);
            let idx = FailureCause::ALL
                .iter()
                .position(|c| *c == cause)
                .expect("known cause");
            counts[idx] += 1;
        }
        let total = scale.failures_per_profile.max(1) as f64;
        table.push_row(
            profile.name(),
            counts.iter().map(|c| *c as f64 / total).collect(),
        );
    }
    table
}

/// **Figure 2** — time to recover from failures, by cause category.
///
/// Reports the mean *manual* recovery time (minutes) drawn from the
/// per-cause recovery model for each service archetype, alongside the mean
/// recovery time achieved by the automated FixSym+diagnosis hybrid on the
/// same cause (simulated, converted to minutes).  The reproduced claims:
/// operator-caused failures take the longest to recover manually, and
/// automated healing recovers orders of magnitude faster than the human
/// loop for the causes it can address.
pub fn fig2_recovery_time(scale: ExperimentScale, seed: u64) -> ResultTable {
    let model = RecoveryTimeModel::standard();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut table = ResultTable::new(
        "Figure 2: mean time to recover per failure cause (minutes)",
        vec![
            "operator".to_string(),
            "hardware".to_string(),
            "software".to_string(),
            "network".to_string(),
            "unknown".to_string(),
        ],
    );
    let samples = scale.failures_per_profile.max(10);
    for profile in ServiceProfile::ALL {
        let row: Vec<f64> = [
            FailureCause::Operator,
            FailureCause::Hardware,
            FailureCause::Software,
            FailureCause::Network,
            FailureCause::Unknown,
        ]
        .iter()
        .map(|cause| {
            (0..samples)
                .map(|_| model.sample_minutes(*cause, &mut rng))
                .sum::<f64>()
                / samples as f64
        })
        .collect();
        table.push_row(format!("{} (manual)", profile.name()), row);
    }

    // Automated self-healing comparison on the software causes the hybrid
    // policy can address: mean recovery ticks converted to minutes.
    let outcome = SelfHealingService::builder()
        .config(ServiceConfig::tiny())
        .faults(FaultChoice::Scripted(
            InjectionPlanBuilder::new()
                .inject(
                    60,
                    FaultKind::BufferContention,
                    FaultTarget::DatabaseTier,
                    0.9,
                )
                .inject(
                    400,
                    FaultKind::UnhandledException,
                    FaultTarget::Ejb { index: 1 },
                    0.9,
                )
                .inject(
                    740,
                    FaultKind::SuboptimalQueryPlan,
                    FaultTarget::Table { index: 0 },
                    0.9,
                )
                .build(),
        ))
        .policy(PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor))
        .seed(seed)
        .run(1100);
    let automated_minutes = outcome
        .recovery
        .mean_recovery_ticks()
        .map(|t| t / 60.0)
        .unwrap_or(f64::NAN);
    table.push_row(
        "Automated (hybrid, software causes)",
        vec![f64::NAN, f64::NAN, automated_minutes, f64::NAN, f64::NAN],
    );
    table
}

/// **Table 1** — the failure ↔ candidate-fix matrix.
///
/// For every Table 1 failure class, injects the fault into a warmed-up
/// service, applies the cataloged preferred fix, and reports whether the
/// service recovered and how long it took; a deliberately wrong fix is shown
/// not to recover the service within the same horizon.
pub fn table1_fault_fix_matrix(seed: u64) -> ResultTable {
    let catalog = FixCatalog::standard();
    let mut table = ResultTable::new(
        "Table 1: failure classes, cataloged fixes, and observed recovery",
        vec![
            "recovered_with_catalog_fix".to_string(),
            "recovery_ticks".to_string(),
            "recovered_with_wrong_fix".to_string(),
        ],
    );
    for kind in FaultKind::TABLE1 {
        let fix = catalog.preferred_fix(kind);
        let (recovered, ticks) = run_fault_fix_trial(kind, Some(fix), seed);
        let wrong = wrong_fix_for(kind);
        let (wrong_recovered, _) = run_fault_fix_trial(kind, Some(wrong), seed);
        table.push_row(
            format!("{kind} -> {fix}"),
            vec![
                if recovered { 1.0 } else { 0.0 },
                ticks as f64,
                if wrong_recovered { 1.0 } else { 0.0 },
            ],
        );
    }
    table
}

fn wrong_fix_for(kind: FaultKind) -> FixKind {
    // A fix that the catalog does not list for the fault.
    match kind {
        FaultKind::SuboptimalQueryPlan => FixKind::MicrorebootEjb,
        _ => FixKind::UpdateStatistics,
    }
}

/// Injects `kind` into a warmed-up tiny service, optionally applies `fix`
/// (targeted at the faulty component), and returns whether the service
/// recovered (fault gone and SLOs compliant) and after how many ticks.
fn run_fault_fix_trial(kind: FaultKind, fix: Option<FixKind>, seed: u64) -> (bool, u64) {
    let config = ServiceConfig::tiny();
    let mut service = MultiTierService::new(config.clone());
    let mut workload = TraceGenerator::new(
        WorkloadMix::bidding(),
        ArrivalProcess::Constant { rate: 40.0 },
        seed,
    );
    for _ in 0..40 {
        let requests = workload.tick(service.current_tick());
        service.tick(&requests);
    }
    let target = default_target(kind, 1 % config.ejb_count);
    service.inject(FaultSpec::new(FaultId(1), kind, target, 0.9));
    for _ in 0..20 {
        let requests = workload.tick(service.current_tick());
        service.tick(&requests);
    }
    let fault_onset = service.current_tick();
    if let Some(fix_kind) = fix {
        let action = if fix_kind.needs_target() {
            FixAction::targeted(fix_kind, fix_target_for(kind, &target))
        } else {
            FixAction::untargeted(fix_kind)
        };
        service.apply_fix(action);
    }
    // Give the fix (and the service) up to 500 ticks to recover.
    let mut recovered_at = None;
    for _ in 0..500 {
        let requests = workload.tick(service.current_tick());
        service.tick(&requests);
        if service.active_faults().is_empty() && !service.slo_violated() && recovered_at.is_none() {
            recovered_at = Some(service.current_tick());
            break;
        }
    }
    match recovered_at {
        Some(t) => (true, t - fault_onset),
        None => (false, 500),
    }
}

fn fix_target_for(kind: FaultKind, fault_target: &FaultTarget) -> FaultTarget {
    match (kind, fault_target) {
        (FaultKind::SoftwareAging, _) => FaultTarget::AppTier,
        (_, t) => *t,
    }
}

/// **Table 2** — empirical comparison of the fix-identification approaches.
///
/// Runs the manual rule base, the three diagnosis-based approaches, FixSym,
/// and the hybrid on an identical recurring-failure scenario and reports:
/// episodes recovered, mean recovery time, mean fix attempts per episode,
/// escalation fraction, and the fraction of time spent in SLO violation.
pub fn table2_approach_comparison(scale: ExperimentScale, seed: u64) -> ResultTable {
    let mut table = ResultTable::new(
        "Table 2: empirical comparison of fix-identification approaches",
        vec![
            "episodes".to_string(),
            "recovered".to_string(),
            "mean_recovery_ticks".to_string(),
            "mean_fix_attempts".to_string(),
            "escalation_fraction".to_string(),
            "slo_violation_fraction".to_string(),
        ],
    );
    let policies = vec![
        PolicyChoice::None,
        PolicyChoice::ManualRules,
        PolicyChoice::AnomalyDetection,
        PolicyChoice::CorrelationAnalysis,
        PolicyChoice::BottleneckAnalysis,
        PolicyChoice::FixSym(SynopsisKind::NearestNeighbor),
        PolicyChoice::Hybrid(SynopsisKind::NearestNeighbor),
    ];
    for policy in policies {
        let outcome = comparison_scenario(policy, scale, seed);
        let recovery = &outcome.recovery;
        table.push_row(
            policy.label(),
            vec![
                recovery.len() as f64,
                recovery.recovered().0 as f64,
                recovery.mean_recovery_ticks().unwrap_or(f64::NAN),
                recovery.mean_fix_attempts(),
                recovery.escalations() as f64 / recovery.len().max(1) as f64,
                outcome.violation_fraction,
            ],
        );
    }
    table
}

fn comparison_scenario(
    policy: PolicyChoice,
    scale: ExperimentScale,
    seed: u64,
) -> selfheal_sim::ScenarioOutcome {
    let config = ServiceConfig::tiny();
    // A recurring-failure scenario: the same three Table 1 failure classes
    // strike repeatedly, spaced far enough apart for recovery in between.
    let spacing = (scale.comparison_ticks / 6).max(200);
    let mut builder = InjectionPlanBuilder::new();
    let kinds = [
        FaultKind::BufferContention,
        FaultKind::UnhandledException,
        FaultKind::SuboptimalQueryPlan,
    ];
    let mut at = 80u64;
    let mut i = 0usize;
    while at + 50 < scale.comparison_ticks {
        let kind = kinds[i % kinds.len()];
        builder = builder.inject_default(at, kind);
        at += spacing;
        i += 1;
    }
    SelfHealingService::builder()
        .config(config)
        .faults(FaultChoice::Scripted(builder.build()))
        .policy(policy)
        .seed(seed)
        .run(scale.comparison_ticks)
}

/// A point of the Figure 4 learning curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynopsisCurvePoint {
    /// Number of failures fixed successfully so far (training samples).
    pub correct_fixes: usize,
    /// Accuracy of the current synopsis on the fixed test set.
    pub accuracy: f64,
}

/// The full result of running FixSym with one synopsis kind.
#[derive(Debug, Clone)]
pub struct SynopsisRun {
    /// Which synopsis was used.
    pub kind: SynopsisKind,
    /// Accuracy learning curve (Figure 4).
    pub curve: Vec<SynopsisCurvePoint>,
    /// Wall-clock seconds spent training up to 50 correct fixes (Table 3).
    pub seconds_to_50: f64,
    /// Deterministic model-fitting operations up to 50 correct fixes.
    pub ops_to_50: u64,
    /// Accuracy at 50 correct fixes (Table 3).
    pub accuracy_at_50: f64,
}

/// **Figure 4 / Table 3** — synopsis comparison inside FixSym: the fixed
/// test set, and a run of each of `kinds`.
///
/// Generates a fixed test set of failure states from the simulator, then
/// feeds FixSym a stream of further failure states; after every episode the
/// current synopsis is evaluated on the test set.  Reproduced claim: the
/// ensemble (AdaBoost) costs orders of magnitude more training operations
/// than nearest neighbor / k-means.  The accuracies are measured, not the
/// paper's: README ("What the synopses learn") gives the ranking.
pub fn synopsis_comparison(
    kinds: &[SynopsisKind],
    scale: ExperimentScale,
    seed: u64,
) -> (Dataset, Vec<SynopsisRun>) {
    let faults = synopsis_fault_kinds();
    let mut generator = FailureStateGenerator::standard(ServiceConfig::tiny(), seed);
    let (_, test_set) = generator.generate_dataset(scale.test_states, &faults);
    // Pre-generate the training stream so every synopsis sees the identical
    // sequence of failures.
    let (train_states, _) = generator.generate_dataset(scale.max_correct_fixes * 2, &faults);

    let runs = kinds
        .iter()
        .map(|&kind| run_one_synopsis(kind, &train_states, &test_set, scale))
        .collect();
    (test_set, runs)
}

fn run_one_synopsis(
    kind: SynopsisKind,
    train_states: &[selfheal_sim::FailureState],
    test_set: &Dataset,
    scale: ExperimentScale,
) -> SynopsisRun {
    let mut engine = FixSymEngine::new(kind);
    let mut curve = Vec::new();
    let mut seconds_to_50 = 0.0;
    let mut ops_to_50 = 0u64;
    let mut accuracy_at_50 = 0.0;
    let started = Instant::now();

    for state in train_states {
        if engine.synopsis().correct_fixes_learned() >= scale.max_correct_fixes {
            break;
        }
        engine.run_episode(&state.symptoms, state.correct_fix);
        let fixes = engine.synopsis().correct_fixes_learned();
        let accuracy = engine.synopsis().accuracy_on(test_set);
        curve.push(SynopsisCurvePoint {
            correct_fixes: fixes,
            accuracy,
        });
        // Every episode learns one positive (the fix that worked, or the
        // administrator's), so this is the state at 50 correct fixes, or
        // the final state of a smaller run (quick scale).
        if fixes <= 50 {
            seconds_to_50 = started.elapsed().as_secs_f64();
            ops_to_50 = engine.synopsis().training_ops();
            accuracy_at_50 = accuracy;
        }
    }
    SynopsisRun {
        kind,
        curve,
        seconds_to_50,
        ops_to_50,
        accuracy_at_50,
    }
}

/// Renders the Figure 4 learning curves as a result table (one row per
/// checkpoint per synopsis).
pub fn fig4_table(runs: &[SynopsisRun]) -> ResultTable {
    let mut table = ResultTable::new(
        "Figure 4: synopsis accuracy vs number of correct fixes",
        vec!["correct_fixes".to_string(), "accuracy".to_string()],
    );
    for run in runs {
        for point in &run.curve {
            table.push_row(
                run.kind.label(),
                vec![point.correct_fixes as f64, point.accuracy],
            );
        }
    }
    table
}

/// Renders the Table 3 comparison (training operations to generate vs
/// accuracy at 50 correct fixes): deterministic, pinned whole.
pub fn table3_table(runs: &[SynopsisRun]) -> ResultTable {
    let mut table = ResultTable::new(
        "Table 3: synopsis time-to-generate vs accuracy at 50 correct fixes",
        vec![
            "training_ops_to_50".to_string(),
            "accuracy_at_50".to_string(),
        ],
    );
    for run in runs {
        table.push_row(
            run.kind.label(),
            vec![run.ops_to_50 as f64, run.accuracy_at_50],
        );
    }
    table
}

/// Renders Table 3's wall-clock seconds to 50 correct fixes: a timing
/// file, never pinned.
pub fn table3_time_table(runs: &[SynopsisRun]) -> ResultTable {
    let mut table = ResultTable::new(
        "Table 3: synopsis wall time to 50 correct fixes",
        vec!["wall_seconds_to_50".to_string()],
    );
    for run in runs {
        table.push_row(run.kind.label(), vec![run.seconds_to_50]);
    }
    table
}

/// Writes a result table to `results/<name>.csv` relative to the workspace
/// root (best effort) and prints it to stdout.
pub fn emit(table: &ResultTable, name: &str) {
    println!("{}", table.to_text());
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.csv"));
        if let Err(err) = std::fs::write(&path, table.to_csv()) {
            eprintln!("warning: could not write {}: {err}", path.display());
        } else {
            println!("(written to {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shares_sum_to_one_and_operator_dominates() {
        // Sampling is cheap, so use enough failures that the smallest
        // operator-vs-runner-up margin (0.33 vs 0.25) is many sigma wide and
        // the dominance assertion cannot flake.
        let scale = ExperimentScale {
            failures_per_profile: 4000,
            ..ExperimentScale::quick()
        };
        let table = fig1_failure_causes(scale, 1);
        assert_eq!(table.rows().len(), 3);
        for (_, row) in table.rows() {
            let total: f64 = row.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            let operator = row[0];
            for other in &row[1..] {
                assert!(operator >= *other, "operator share must dominate");
            }
        }
    }

    #[test]
    fn fig2_manual_operator_recovery_is_slowest() {
        let table = fig2_recovery_time(ExperimentScale::quick(), 2);
        for (label, row) in table.rows().iter().take(3) {
            assert!(label.contains("manual"));
            let operator = row[0];
            assert!(operator > row[1], "operator slower than hardware");
            assert!(operator > row[2], "operator slower than software");
        }
    }

    #[test]
    fn table1_catalog_fixes_recover_and_wrong_fixes_do_not() {
        let table = table1_fault_fix_matrix(3);
        assert_eq!(table.rows().len(), FaultKind::TABLE1.len());
        for (label, row) in table.rows() {
            assert_eq!(row[0], 1.0, "{label}: catalog fix must recover the service");
            assert_eq!(
                row[2], 0.0,
                "{label}: the wrong fix must not recover the service"
            );
        }
    }

    #[test]
    fn synopsis_comparison_quick_run_produces_curves_for_all_kinds() {
        let kinds = SynopsisKind::paper_set();
        let (_, runs) = synopsis_comparison(&kinds, ExperimentScale::quick(), 4);
        assert_eq!(runs.len(), 3);
        for run in &runs {
            assert!(!run.curve.is_empty());
            assert!(run.accuracy_at_50 >= 0.0 && run.accuracy_at_50 <= 1.0);
        }
        let fig4 = fig4_table(&runs);
        assert!(!fig4.rows().is_empty());
        let table3 = table3_table(&runs);
        assert_eq!(table3.rows().len(), 3);
    }
}
