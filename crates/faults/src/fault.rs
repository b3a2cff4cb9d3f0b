//! Failure classes, targets, and causes.
//!
//! [`FaultKind`] covers every failure class of Table 1 of the paper plus
//! hardware failures and operator errors (the dominant causes in Figure 1).
//! A concrete injected instance is a [`FaultSpec`]: a kind, a target
//! component, a severity, and the [`FailureCause`] category used for the
//! Figure 1 / Figure 2 demographics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Unique identifier of an injected fault instance within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FaultId(pub u64);

impl fmt::Display for FaultId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault#{}", self.0)
    }
}

/// Failure classes observed in a multitier J2EE-style service.
///
/// The first eight variants are the rows of Table 1; the remaining variants
/// cover the hardware and operator-error causes from the Oppenheimer et al.
/// study summarized in Figure 1, so that the full cause mix can be simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FaultKind {
    /// Application-server threads deadlocked on each other or on a hung
    /// database call (Table 1 row 1).
    DeadlockedThreads,
    /// Java exceptions not handled correctly by an EJB (Table 1 row 2).
    UnhandledException,
    /// Software aging: leaked memory/connections degrade a tier over time
    /// (Table 1 row 3).
    SoftwareAging,
    /// Suboptimal query plan chosen because optimizer statistics are stale
    /// (Table 1 row 4).
    SuboptimalQueryPlan,
    /// Read/write contention on a hot table block (Table 1 row 5).
    TableBlockContention,
    /// Contention for database buffer memory — one buffer pool is starved
    /// (Table 1 row 6).
    BufferContention,
    /// A whole tier is bottlenecked for capacity (Table 1 row 7).
    BottleneckedTier,
    /// A source-code bug corrupting results or crashing components
    /// (Table 1 row 8).
    SourceCodeBug,
    /// Operator misconfiguration: a wrong configuration value was deployed
    /// (e.g. tiny thread pool, wrong buffer size).
    OperatorMisconfiguration,
    /// Operator procedural error: wrong node restarted, wrong table dropped,
    /// stale schema deployed.
    OperatorProceduralError,
    /// Hardware failure: disk or node failure reduces a tier's capacity.
    HardwareFailure,
    /// Network partition or severe packet loss between tiers.
    NetworkPartition,
}

impl FaultKind {
    /// All fault kinds.
    pub const ALL: [FaultKind; 12] = [
        FaultKind::DeadlockedThreads,
        FaultKind::UnhandledException,
        FaultKind::SoftwareAging,
        FaultKind::SuboptimalQueryPlan,
        FaultKind::TableBlockContention,
        FaultKind::BufferContention,
        FaultKind::BottleneckedTier,
        FaultKind::SourceCodeBug,
        FaultKind::OperatorMisconfiguration,
        FaultKind::OperatorProceduralError,
        FaultKind::HardwareFailure,
        FaultKind::NetworkPartition,
    ];

    /// The fault kinds that appear as rows of Table 1 in the paper.
    pub const TABLE1: [FaultKind; 8] = [
        FaultKind::DeadlockedThreads,
        FaultKind::UnhandledException,
        FaultKind::SoftwareAging,
        FaultKind::SuboptimalQueryPlan,
        FaultKind::TableBlockContention,
        FaultKind::BufferContention,
        FaultKind::BottleneckedTier,
        FaultKind::SourceCodeBug,
    ];

    /// Stable lowercase label used in metric names and CSV output.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::DeadlockedThreads => "deadlocked_threads",
            FaultKind::UnhandledException => "unhandled_exception",
            FaultKind::SoftwareAging => "software_aging",
            FaultKind::SuboptimalQueryPlan => "suboptimal_query_plan",
            FaultKind::TableBlockContention => "table_block_contention",
            FaultKind::BufferContention => "buffer_contention",
            FaultKind::BottleneckedTier => "bottlenecked_tier",
            FaultKind::SourceCodeBug => "source_code_bug",
            FaultKind::OperatorMisconfiguration => "operator_misconfiguration",
            FaultKind::OperatorProceduralError => "operator_procedural_error",
            FaultKind::HardwareFailure => "hardware_failure",
            FaultKind::NetworkPartition => "network_partition",
        }
    }

    /// The failure-cause category (Figure 1) this kind belongs to.
    pub(crate) fn cause(self) -> FailureCause {
        match self {
            FaultKind::OperatorMisconfiguration | FaultKind::OperatorProceduralError => {
                FailureCause::Operator
            }
            FaultKind::HardwareFailure => FailureCause::Hardware,
            FaultKind::NetworkPartition => FailureCause::Network,
            FaultKind::DeadlockedThreads
            | FaultKind::UnhandledException
            | FaultKind::SoftwareAging
            | FaultKind::SuboptimalQueryPlan
            | FaultKind::TableBlockContention
            | FaultKind::BufferContention
            | FaultKind::BottleneckedTier
            | FaultKind::SourceCodeBug => FailureCause::Software,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Failure-cause categories used by the Oppenheimer et al. study that the
/// paper's Figures 1 and 2 summarize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum FailureCause {
    /// Human operator error (the most prominent source of failures).
    Operator,
    /// Hardware faults.
    Hardware,
    /// Software faults (application, middleware, or database).
    Software,
    /// Network problems.
    Network,
    /// Cause never determined.
    Unknown,
}

impl FailureCause {
    /// All cause categories.
    pub const ALL: [FailureCause; 5] = [
        FailureCause::Operator,
        FailureCause::Hardware,
        FailureCause::Software,
        FailureCause::Network,
        FailureCause::Unknown,
    ];

    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            FailureCause::Operator => "operator",
            FailureCause::Hardware => "hardware",
            FailureCause::Software => "software",
            FailureCause::Network => "network",
            FailureCause::Unknown => "unknown",
        }
    }
}

impl fmt::Display for FailureCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The part of the service a fault targets.
///
/// Component indexes refer to the simulator's component tables: EJB index in
/// the application tier, table index in the database tier, and so on.  The
/// healing layer never sees these directly — it only sees symptoms — but the
/// simulator needs them to apply fault effects and to judge whether a
/// targeted fix (e.g. "microreboot EJB 3") hits the faulty component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultTarget {
    /// The web tier as a whole.
    WebTier,
    /// One EJB component in the application tier.
    Ejb {
        /// Index of the EJB in the application tier's component table.
        index: usize,
    },
    /// The application tier as a whole.
    AppTier,
    /// One table (and its blocks) in the database tier.
    Table {
        /// Index of the table in the database schema.
        index: usize,
    },
    /// One index structure in the database tier.
    Index {
        /// Index of the index structure.
        index: usize,
    },
    /// The database tier as a whole (buffer pool, lock manager, ...).
    DatabaseTier,
    /// The whole service (e.g. a network partition between tiers).
    WholeService,
}

impl FaultTarget {
    /// Returns a short human-readable description of the target.
    pub(crate) fn describe(&self) -> String {
        match self {
            FaultTarget::WebTier => "web tier".to_string(),
            FaultTarget::Ejb { index } => format!("EJB {index}"),
            FaultTarget::AppTier => "application tier".to_string(),
            FaultTarget::Table { index } => format!("table {index}"),
            FaultTarget::Index { index } => format!("index {index}"),
            FaultTarget::DatabaseTier => "database tier".to_string(),
            FaultTarget::WholeService => "whole service".to_string(),
        }
    }
}

/// A fully specified fault instance to inject.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Unique id of this fault instance.
    pub id: FaultId,
    /// The failure class.
    pub kind: FaultKind,
    /// The targeted component.
    pub target: FaultTarget,
    /// Severity in `(0, 1]`: scales the magnitude of the fault's effect
    /// (e.g. fraction of capacity lost, fraction of requests hitting the
    /// slow path).
    pub severity: f64,
    /// The cause category recorded for demographics (usually
    /// `kind.cause()`, but operator errors can surface as any kind — an
    /// operator misconfiguration may *manifest* as buffer contention).
    pub cause: FailureCause,
}

impl FaultSpec {
    /// Creates a fault spec whose cause is derived from its kind.
    pub fn new(id: FaultId, kind: FaultKind, target: FaultTarget, severity: f64) -> Self {
        FaultSpec {
            id,
            kind,
            target,
            severity: severity.clamp(1e-6, 1.0),
            cause: kind.cause(),
        }
    }

    /// Overrides the recorded cause category.
    pub(crate) fn with_cause(mut self, cause: FailureCause) -> Self {
        self.cause = cause;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl FaultKind {
        /// Whether the effect of this fault grows gradually over time
        /// (degradation) rather than hitting at full severity immediately.
        pub(crate) fn is_gradual(self) -> bool {
            matches!(
                self,
                FaultKind::SoftwareAging
                    | FaultKind::SuboptimalQueryPlan
                    | FaultKind::BottleneckedTier
                    | FaultKind::BufferContention
            )
        }

        /// Stable numeric code used as the class label by the learning layer.
        pub(crate) fn code(self) -> usize {
            FaultKind::ALL
                .iter()
                .position(|k| *k == self)
                .expect("kind in ALL")
        }

        /// Inverse of [`FaultKind::code`].
        pub(crate) fn from_code(code: usize) -> Option<FaultKind> {
            FaultKind::ALL.get(code).copied()
        }
    }

    #[test]
    fn every_kind_has_a_unique_label_and_code() {
        let mut labels: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultKind::ALL.len());
        for (i, kind) in FaultKind::ALL.iter().enumerate() {
            assert_eq!(kind.code(), i);
            assert_eq!(FaultKind::from_code(i), Some(*kind));
        }
        assert_eq!(FaultKind::from_code(999), None);
    }

    #[test]
    fn table1_kinds_are_software_caused() {
        for kind in FaultKind::TABLE1 {
            assert_eq!(kind.cause(), FailureCause::Software, "{kind}");
        }
        assert_eq!(
            FaultKind::OperatorMisconfiguration.cause(),
            FailureCause::Operator
        );
        assert_eq!(FaultKind::HardwareFailure.cause(), FailureCause::Hardware);
        assert_eq!(FaultKind::NetworkPartition.cause(), FailureCause::Network);
    }

    #[test]
    fn gradual_faults_are_the_degradation_classes() {
        assert!(FaultKind::SoftwareAging.is_gradual());
        assert!(FaultKind::BottleneckedTier.is_gradual());
        assert!(!FaultKind::DeadlockedThreads.is_gradual());
        assert!(!FaultKind::SourceCodeBug.is_gradual());
    }

    #[test]
    fn fault_spec_clamps_severity_and_derives_cause() {
        let spec = FaultSpec::new(
            FaultId(1),
            FaultKind::BufferContention,
            FaultTarget::DatabaseTier,
            7.0,
        );
        assert_eq!(spec.severity, 1.0);
        assert_eq!(spec.cause, FailureCause::Software);
        let spec = spec.with_cause(FailureCause::Operator);
        assert_eq!(spec.cause, FailureCause::Operator);
        let tiny = FaultSpec::new(
            FaultId(2),
            FaultKind::SourceCodeBug,
            FaultTarget::AppTier,
            0.0,
        );
        assert!(tiny.severity > 0.0);
    }

    #[test]
    fn target_descriptions_mention_component_index() {
        assert_eq!(FaultTarget::Ejb { index: 3 }.describe(), "EJB 3");
        assert_eq!(FaultTarget::Table { index: 0 }.describe(), "table 0");
        assert!(FaultTarget::WholeService.describe().contains("service"));
    }

    #[test]
    fn display_impls_match_labels() {
        assert_eq!(FaultKind::SoftwareAging.to_string(), "software_aging");
        assert_eq!(FailureCause::Operator.to_string(), "operator");
        assert_eq!(FaultId(7).to_string(), "fault#7");
    }
}
