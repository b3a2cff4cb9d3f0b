//! Runtime state of active faults and their effects on the service.
//!
//! The injection plan says *when* faults activate; this module tracks which
//! faults are currently active, ages them (some effects grow over time, e.g.
//! software aging), and answers the service's per-tick questions: how much
//! capacity does each tier lose, which EJBs are throwing, which tables have
//! bad plans, and so on.

use selfheal_faults::{FaultId, FaultKind, FaultSpec, FaultTarget, FixAction, FixCatalog};
use serde::{Deserialize, Serialize};

/// The three physical tiers of the simulated service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum SimTier {
    /// Web / servlet tier.
    Web,
    /// Application (EJB) tier.
    App,
    /// Database tier.
    Db,
}

impl SimTier {
    /// Maps a fault target to the tier it affects (whole-service targets
    /// return `None`).
    pub(crate) fn of_target(target: &FaultTarget) -> Option<SimTier> {
        match target {
            FaultTarget::WebTier => Some(SimTier::Web),
            FaultTarget::Ejb { .. } | FaultTarget::AppTier => Some(SimTier::App),
            FaultTarget::Table { .. } | FaultTarget::Index { .. } | FaultTarget::DatabaseTier => {
                Some(SimTier::Db)
            }
            FaultTarget::WholeService => None,
        }
    }
}

/// One active fault instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ActiveFault {
    /// The injected specification.
    pub spec: FaultSpec,
    /// Tick at which the fault became active.
    pub activated_at: u64,
    /// Ticks the fault has been active.
    pub age: u64,
}

/// The set of currently active faults.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ActiveFaults {
    faults: Vec<ActiveFault>,
}

impl ActiveFaults {
    /// Creates an empty set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of active faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if no faults are active.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// All active faults.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &ActiveFault> {
        self.faults.iter()
    }

    /// Activates a fault at `tick` (idempotent per fault id).
    pub(crate) fn activate(&mut self, spec: FaultSpec, tick: u64) {
        if self.faults.iter().any(|f| f.spec.id == spec.id) {
            return;
        }
        self.faults.push(ActiveFault {
            spec,
            activated_at: tick,
            age: 0,
        });
    }

    /// Ages every active fault by one tick.
    pub(crate) fn advance_tick(&mut self) {
        for f in &mut self.faults {
            f.age += 1;
        }
    }

    /// Removes the faults that `fix` repairs according to the ground-truth
    /// `catalog`, returning the removed fault ids.
    pub(crate) fn resolve_with_fix(
        &mut self,
        fix: &FixAction,
        catalog: &FixCatalog,
    ) -> Vec<FaultId> {
        let mut removed = Vec::new();
        self.faults.retain(|f| {
            if catalog.repairs(&f.spec, fix) {
                removed.push(f.spec.id);
                false
            } else {
                true
            }
        });
        removed
    }

    /// Removes every active fault (used by tests and by scenario resets).
    pub(crate) fn clear(&mut self) -> Vec<FaultId> {
        let removed = self.faults.iter().map(|f| f.spec.id).collect();
        self.faults.clear();
        removed
    }

    /// The capacity factor (≤ 1.0) that active faults impose on a tier this
    /// tick.  Several faults multiply together.
    pub(crate) fn capacity_factor(&self, tier: SimTier) -> f64 {
        let mut factor = 1.0;
        for f in &self.faults {
            let s = f.spec.severity;
            let target_tier = SimTier::of_target(&f.spec.target);
            let hits_tier = target_tier == Some(tier);
            match f.spec.kind {
                FaultKind::BottleneckedTier if hits_tier => factor *= 1.0 - 0.9 * s,
                FaultKind::HardwareFailure if hits_tier => factor *= 1.0 - 0.7 * s,
                FaultKind::OperatorMisconfiguration if hits_tier => factor *= 1.0 - 0.6 * s,
                FaultKind::SoftwareAging
                    if tier == SimTier::App && matches!(target_tier, Some(SimTier::App)) =>
                {
                    // Leaks accumulate: the capacity loss grows with age and
                    // saturates after ~120 ticks.
                    let growth = (f.age as f64 / 120.0).min(1.0);
                    factor *= 1.0 - 0.8 * s * growth;
                }
                FaultKind::DeadlockedThreads if tier == SimTier::App && hits_tier => {
                    // Stuck threads occupy part of the thread pool.
                    factor *= 1.0 - 0.4 * s;
                }
                _ => {}
            }
        }
        factor.clamp(0.02, 1.0)
    }

    /// Probability that any request fails this tick due to whole-service
    /// faults (network partitions, operator procedural errors).
    pub(crate) fn service_error_probability(&self) -> f64 {
        let mut p_ok = 1.0;
        for f in &self.faults {
            let s = f.spec.severity;
            let p = match f.spec.kind {
                FaultKind::NetworkPartition => 0.6 * s,
                FaultKind::OperatorProceduralError
                    if f.spec.target == FaultTarget::WholeService =>
                {
                    0.4 * s
                }
                _ => 0.0,
            };
            p_ok *= 1.0 - p.clamp(0.0, 1.0);
        }
        1.0 - p_ok
    }

    /// The severity of an active buffer-contention fault, if any (also
    /// triggered when an operator misconfiguration targets the database
    /// tier, since a botched buffer resize manifests the same way).
    pub(crate) fn buffer_fault_severity(&self) -> Option<f64> {
        self.faults
            .iter()
            .filter(|f| {
                f.spec.kind == FaultKind::BufferContention
                    || (f.spec.kind == FaultKind::OperatorMisconfiguration
                        && SimTier::of_target(&f.spec.target) == Some(SimTier::Db))
            })
            .map(|f| f.spec.severity)
            .fold(None, |acc, s| Some(acc.map_or(s, |a: f64| a.max(s))))
    }

    /// Extra whole-service latency (ms) per request from network trouble.
    pub(crate) fn network_extra_latency_ms(&self) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.spec.kind == FaultKind::NetworkPartition)
            .map(|f| 150.0 * f.spec.severity)
            .sum()
    }
}

/// What the active faults do to each EJB call and table access of one tick:
/// the per-call questions of the request loop, answered for every EJB and
/// table in one pass over the fault set so that the loop indexes a table
/// and the cost of a tick does not grow with requests × active faults.
///
/// The pass visits the faults in stored order, so every product and sum
/// takes its operands in the order a per-call scan would (the tests keep
/// those scans as the oracle and compare bit for bit).
#[derive(Debug, Clone)]
pub(crate) struct CallEffects {
    /// Probability that a call to the EJB does *not* fail outright for an
    /// application-tier fault (one on the EJB itself or on the whole tier).
    pub(crate) ejb_ok_p: Vec<f64>,
    /// Extra latency (ms) of a request touching the EJB (deadlocked
    /// threads stall requests until timeouts fire).
    pub(crate) ejb_extra_ms: Vec<f64>,
    /// Whether an injected suboptimal-plan fault is active for the table.
    pub(crate) plan_fault: Vec<bool>,
    /// Whether an injected block-contention fault is active for the table.
    pub(crate) contention_fault: Vec<bool>,
}

impl CallEffects {
    /// Tables for a service of `ejbs` EJBs and `tables` tables, healthy.
    pub(crate) fn new(ejbs: usize, tables: usize) -> Self {
        CallEffects {
            ejb_ok_p: vec![1.0; ejbs],
            ejb_extra_ms: vec![0.0; ejbs],
            plan_fault: vec![false; tables],
            contention_fault: vec![false; tables],
        }
    }

    /// Refills the tables from the faults active this tick.  A fault aimed
    /// at an EJB or table the service does not have touches nothing.
    pub(crate) fn fill(&mut self, faults: &ActiveFaults) {
        self.ejb_ok_p.fill(1.0);
        // What `Iterator::sum` starts a sum of `f64`s from (its sign has
        // changed between toolchains).
        self.ejb_extra_ms.fill(std::iter::empty::<f64>().sum());
        self.plan_fault.fill(false);
        self.contention_fault.fill(false);
        for f in &faults.faults {
            let s = f.spec.severity;
            let p = match f.spec.kind {
                FaultKind::UnhandledException => 0.6 * s,
                FaultKind::SourceCodeBug => 0.35 * s,
                FaultKind::DeadlockedThreads => 0.5 * s,
                _ => 0.0,
            };
            let ok = 1.0 - p.clamp(0.0, 1.0);
            match f.spec.target {
                FaultTarget::AppTier => self.ejb_ok_p.iter_mut().for_each(|p_ok| *p_ok *= ok),
                FaultTarget::Ejb { index } if index < self.ejb_ok_p.len() => {
                    self.ejb_ok_p[index] *= ok;
                    if f.spec.kind == FaultKind::DeadlockedThreads {
                        self.ejb_extra_ms[index] += 400.0 * s;
                    }
                }
                FaultTarget::Table { index } if index < self.plan_fault.len() => {
                    self.plan_fault[index] |= f.spec.kind == FaultKind::SuboptimalQueryPlan;
                    self.contention_fault[index] |= f.spec.kind == FaultKind::TableBlockContention;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use selfheal_faults::FixKind;

    impl SimTier {
        /// All tiers.
        pub(crate) const ALL: [SimTier; 3] = [SimTier::Web, SimTier::App, SimTier::Db];
    }

    /// The per-call scans `CallEffects::fill` replaced, kept as its oracle.
    impl ActiveFaults {
        /// Probability that a request *touching the given EJB* fails outright
        /// this tick due to application-tier faults.
        fn ejb_error_probability(&self, ejb: usize) -> f64 {
            let mut p_ok = 1.0;
            for f in &self.faults {
                let s = f.spec.severity;
                let hits = matches!(f.spec.target, FaultTarget::Ejb { index } if index == ejb)
                    || matches!(f.spec.target, FaultTarget::AppTier);
                if !hits {
                    continue;
                }
                let p = match f.spec.kind {
                    FaultKind::UnhandledException => 0.6 * s,
                    FaultKind::SourceCodeBug => 0.35 * s,
                    FaultKind::DeadlockedThreads => 0.5 * s,
                    _ => 0.0,
                };
                p_ok *= 1.0 - p.clamp(0.0, 1.0);
            }
            1.0 - p_ok
        }

        /// Extra latency (ms) added to a request touching the given EJB
        /// (deadlocked threads stall requests until timeouts fire).
        fn ejb_extra_latency_ms(&self, ejb: usize) -> f64 {
            self.faults
                .iter()
                .filter(|f| {
                    f.spec.kind == FaultKind::DeadlockedThreads
                        && matches!(f.spec.target, FaultTarget::Ejb { index } if index == ejb)
                })
                .map(|f| 400.0 * f.spec.severity)
                .sum()
        }

        /// Returns `true` if an injected suboptimal-plan fault is active for the
        /// table.
        fn plan_fault(&self, table: usize) -> bool {
            self.faults.iter().any(|f| {
                f.spec.kind == FaultKind::SuboptimalQueryPlan
                    && matches!(f.spec.target, FaultTarget::Table { index } if index == table)
            })
        }

        /// Returns `true` if an injected block-contention fault is active for
        /// the table.
        fn contention_fault(&self, table: usize) -> bool {
            self.faults.iter().any(|f| {
                f.spec.kind == FaultKind::TableBlockContention
                    && matches!(f.spec.target, FaultTarget::Table { index } if index == table)
            })
        }
    }

    fn spec(id: u64, kind: FaultKind, target: FaultTarget, severity: f64) -> FaultSpec {
        FaultSpec::new(FaultId(id), kind, target, severity)
    }

    /// Severities `FaultSpec::new` would clamp away are set on the field:
    /// zero, one, two subnormals, and ordinary values.
    const SEVERITIES: [f64; 8] = [0.0, 1.0, 5e-324, 1.1e-308, 1e-6, 0.25, 0.5, 0.731];

    fn target_of_shape(shape: usize, index: usize) -> FaultTarget {
        match shape {
            0 => FaultTarget::WebTier,
            1 => FaultTarget::Ejb { index },
            2 => FaultTarget::AppTier,
            3 => FaultTarget::Table { index },
            4 => FaultTarget::Index { index },
            5 => FaultTarget::DatabaseTier,
            _ => FaultTarget::WholeService,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// For any fault set — every kind on every target shape, tier-wide
        /// faults between per-EJB ones, indices repeated and beyond the
        /// service's four EJBs and three tables — the one-pass tables hold
        /// the bits the per-call scans return.
        #[test]
        fn call_effects_equal_the_per_call_scans_bit_for_bit(
            picks in prop::collection::vec((0usize..12, 0usize..7, 0usize..7, 0usize..8), 0..40),
        ) {
            let (ejbs, tables) = (4, 3);
            let mut af = ActiveFaults::new();
            for (id, (kind, shape, index, severity)) in picks.into_iter().enumerate() {
                let mut fault = spec(id as u64, FaultKind::ALL[kind], target_of_shape(shape, index), 1.0);
                fault.severity = SEVERITIES[severity];
                af.activate(fault, 0);
            }
            let mut effects = CallEffects::new(ejbs, tables);
            // A refill starts over: what an earlier tick left is gone.
            effects.ejb_ok_p.fill(0.5);
            effects.ejb_extra_ms.fill(7.0);
            effects.plan_fault.fill(true);
            effects.contention_fault.fill(true);
            effects.fill(&af);
            for ejb in 0..ejbs {
                prop_assert_eq!(
                    (1.0 - effects.ejb_ok_p[ejb]).to_bits(),
                    af.ejb_error_probability(ejb).to_bits()
                );
                prop_assert_eq!(
                    effects.ejb_extra_ms[ejb].to_bits(),
                    af.ejb_extra_latency_ms(ejb).to_bits()
                );
            }
            for table in 0..tables {
                prop_assert_eq!(effects.plan_fault[table], af.plan_fault(table));
                prop_assert_eq!(effects.contention_fault[table], af.contention_fault(table));
            }
        }
    }

    #[test]
    fn activation_is_idempotent_per_fault_id() {
        let mut af = ActiveFaults::new();
        let f = spec(
            1,
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            0.8,
        );
        af.activate(f.clone(), 10);
        af.activate(f, 12);
        assert_eq!(af.len(), 1);
        assert!(!af.is_empty());
    }

    #[test]
    fn bottleneck_reduces_only_the_targeted_tier() {
        let mut af = ActiveFaults::new();
        af.activate(
            spec(
                1,
                FaultKind::BottleneckedTier,
                FaultTarget::DatabaseTier,
                1.0,
            ),
            0,
        );
        assert!(af.capacity_factor(SimTier::Db) < 0.2);
        assert_eq!(af.capacity_factor(SimTier::Web), 1.0);
        assert_eq!(af.capacity_factor(SimTier::App), 1.0);
    }

    #[test]
    fn software_aging_degrades_gradually() {
        let mut af = ActiveFaults::new();
        af.activate(
            spec(1, FaultKind::SoftwareAging, FaultTarget::AppTier, 1.0),
            0,
        );
        let fresh = af.capacity_factor(SimTier::App);
        for _ in 0..60 {
            af.advance_tick();
        }
        let aged = af.capacity_factor(SimTier::App);
        for _ in 0..200 {
            af.advance_tick();
        }
        let old = af.capacity_factor(SimTier::App);
        assert!(fresh > aged, "fresh {fresh} should exceed aged {aged}");
        assert!(aged > old, "aged {aged} should exceed old {old}");
        assert!(old >= 0.02);
    }

    #[test]
    fn ejb_faults_hit_only_their_component() {
        let mut af = ActiveFaults::new();
        af.activate(
            spec(
                1,
                FaultKind::UnhandledException,
                FaultTarget::Ejb { index: 2 },
                1.0,
            ),
            0,
        );
        assert!(af.ejb_error_probability(2) > 0.5);
        assert_eq!(af.ejb_error_probability(3), 0.0);
        af.activate(
            spec(
                2,
                FaultKind::DeadlockedThreads,
                FaultTarget::Ejb { index: 3 },
                1.0,
            ),
            0,
        );
        assert!(af.ejb_extra_latency_ms(3) > 100.0);
        assert_eq!(af.ejb_extra_latency_ms(2), 0.0);
    }

    #[test]
    fn table_faults_are_reported_per_table() {
        let mut af = ActiveFaults::new();
        af.activate(
            spec(
                1,
                FaultKind::SuboptimalQueryPlan,
                FaultTarget::Table { index: 1 },
                0.9,
            ),
            0,
        );
        af.activate(
            spec(
                2,
                FaultKind::TableBlockContention,
                FaultTarget::Table { index: 0 },
                0.9,
            ),
            0,
        );
        assert!(af.plan_fault(1));
        assert!(!af.plan_fault(0));
        assert!(af.contention_fault(0));
        assert!(!af.contention_fault(1));
    }

    #[test]
    fn buffer_fault_severity_takes_the_worst_offender() {
        let mut af = ActiveFaults::new();
        assert!(af.buffer_fault_severity().is_none());
        af.activate(
            spec(
                1,
                FaultKind::BufferContention,
                FaultTarget::DatabaseTier,
                0.5,
            ),
            0,
        );
        af.activate(
            spec(
                2,
                FaultKind::OperatorMisconfiguration,
                FaultTarget::DatabaseTier,
                0.9,
            ),
            0,
        );
        assert_eq!(af.buffer_fault_severity(), Some(0.9));
    }

    #[test]
    fn whole_service_faults_raise_global_error_probability_and_latency() {
        let mut af = ActiveFaults::new();
        assert_eq!(af.service_error_probability(), 0.0);
        af.activate(
            spec(
                1,
                FaultKind::NetworkPartition,
                FaultTarget::WholeService,
                1.0,
            ),
            0,
        );
        assert!(af.service_error_probability() > 0.5);
        assert!(af.network_extra_latency_ms() > 100.0);
    }

    #[test]
    fn resolve_with_fix_removes_only_repaired_faults() {
        let catalog = FixCatalog::standard();
        let mut af = ActiveFaults::new();
        af.activate(
            spec(
                1,
                FaultKind::DeadlockedThreads,
                FaultTarget::Ejb { index: 1 },
                0.9,
            ),
            0,
        );
        af.activate(
            spec(
                2,
                FaultKind::BufferContention,
                FaultTarget::DatabaseTier,
                0.9,
            ),
            0,
        );

        let wrong_target =
            FixAction::targeted(FixKind::MicrorebootEjb, FaultTarget::Ejb { index: 0 });
        assert!(af.resolve_with_fix(&wrong_target, &catalog).is_empty());
        assert_eq!(af.len(), 2);

        let right_target =
            FixAction::targeted(FixKind::MicrorebootEjb, FaultTarget::Ejb { index: 1 });
        let removed = af.resolve_with_fix(&right_target, &catalog);
        assert_eq!(removed, vec![FaultId(1)]);
        assert_eq!(af.len(), 1);

        let restart = FixAction::untargeted(FixKind::FullServiceRestart);
        assert_eq!(af.resolve_with_fix(&restart, &catalog).len(), 1);
        assert!(af.is_empty());
    }

    #[test]
    fn clear_removes_everything() {
        let mut af = ActiveFaults::new();
        af.activate(
            spec(
                1,
                FaultKind::SourceCodeBug,
                FaultTarget::Ejb { index: 0 },
                0.5,
            ),
            0,
        );
        assert_eq!(af.clear().len(), 1);
        assert!(af.is_empty());
    }
}
