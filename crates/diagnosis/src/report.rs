//! Diagnosis results and the shared symptom → fix mapping.

use crate::context::DiagnosisContext;
use selfheal_faults::{FaultTarget, FixAction, FixKind};
use selfheal_telemetry::{MetricId, Window};

/// Which engine produced a diagnosis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiagnosisMethod {
    /// Baseline/current-window anomaly detection.
    AnomalyDetection,
    /// Correlation with the failure indicator.
    CorrelationAnalysis,
    /// Queueing / structural bottleneck analysis.
    BottleneckAnalysis,
    /// The manual rule-based baseline.
    ManualRules,
}

/// One ranked recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// The engine that produced the recommendation.
    pub method: DiagnosisMethod,
    /// The recommended fix.
    pub fix: FixAction,
    /// Confidence in `[0, 1]` (used when combining approaches,
    /// Section 5.2 "Confidence estimates and ranking").
    pub confidence: f64,
    /// Human-readable explanation of why this fix was recommended.
    pub explanation: String,
}

impl Diagnosis {
    /// Creates a diagnosis, clamping confidence to `[0, 1]`.
    pub(crate) fn new(
        method: DiagnosisMethod,
        fix: FixAction,
        confidence: f64,
        explanation: impl Into<String>,
    ) -> Self {
        Diagnosis {
            method,
            fix,
            confidence: confidence.clamp(0.0, 1.0),
            explanation: explanation.into(),
        }
    }
}

/// Sorts diagnoses by decreasing confidence (stable for equal confidence).
pub(crate) fn rank(mut diagnoses: Vec<Diagnosis>) -> Vec<Diagnosis> {
    diagnoses.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .expect("finite confidence")
    });
    diagnoses
}

/// Maps an implicated *database* symptom metric to the fix that addresses
/// it, choosing the busiest table as the target for table-granular fixes.
///
/// This is the metric-to-fix knowledge that Examples 3–5 of the paper assume
/// ("if the number of accesses to an index is correlated with failure, then
/// the index can be rebuilt"): it is shared by the anomaly, correlation, and
/// bottleneck engines.
pub(crate) fn fix_for_db_symptom(
    metric: MetricId,
    ctx: &DiagnosisContext,
    window: &Window,
) -> Option<FixAction> {
    let busiest_table = busiest_component(&ctx.table_accesses, window);
    if metric == ctx.buffer_miss_rate {
        Some(FixAction::untargeted(FixKind::RepartitionMemory))
    } else if metric == ctx.lock_wait_ms {
        busiest_table.map(|t| {
            FixAction::targeted(FixKind::RepartitionTable, FaultTarget::Table { index: t })
        })
    } else if metric == ctx.plan_misestimate {
        busiest_table.map(|t| {
            FixAction::targeted(FixKind::UpdateStatistics, FaultTarget::Table { index: t })
        })
    } else if metric == ctx.db_util || metric == ctx.db_queue_ms {
        Some(FixAction::targeted(
            FixKind::ProvisionResources,
            FaultTarget::DatabaseTier,
        ))
    } else {
        None
    }
}

/// Maps an implicated tier-utilization metric to the capacity fix for that
/// tier.
pub(crate) fn fix_for_tier_saturation(
    metric: MetricId,
    ctx: &DiagnosisContext,
) -> Option<FixAction> {
    if metric == ctx.web_util || metric == ctx.web_queue_ms {
        Some(FixAction::targeted(
            FixKind::ProvisionResources,
            FaultTarget::WebTier,
        ))
    } else if metric == ctx.app_util || metric == ctx.app_queue_ms {
        Some(FixAction::targeted(
            FixKind::ProvisionResources,
            FaultTarget::AppTier,
        ))
    } else if metric == ctx.db_util || metric == ctx.db_queue_ms {
        Some(FixAction::targeted(
            FixKind::ProvisionResources,
            FaultTarget::DatabaseTier,
        ))
    } else {
        None
    }
}

/// Returns the index of the component whose metric has the largest mean in
/// the window (e.g. the most-accessed table, the EJB with the most errors).
pub(crate) fn busiest_component(metrics: &[MetricId], window: &Window) -> Option<usize> {
    if metrics.is_empty() {
        return None;
    }
    let mut best = 0usize;
    let mut best_value = f64::NEG_INFINITY;
    for (i, id) in metrics.iter().enumerate() {
        let v = window.mean(*id);
        if v > best_value {
            best_value = v;
            best = i;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_orders_by_confidence() {
        let a = Diagnosis::new(
            DiagnosisMethod::AnomalyDetection,
            FixAction::untargeted(FixKind::RepartitionMemory),
            0.4,
            "a",
        );
        let b = Diagnosis::new(
            DiagnosisMethod::BottleneckAnalysis,
            FixAction::untargeted(FixKind::FullServiceRestart),
            0.9,
            "b",
        );
        let ranked = rank(vec![a.clone(), b.clone()]);
        assert_eq!(ranked[0], b);
        assert_eq!(ranked[1], a);
    }

    #[test]
    fn confidence_is_clamped() {
        let d = Diagnosis::new(
            DiagnosisMethod::ManualRules,
            FixAction::untargeted(FixKind::NoOp),
            7.0,
            "x",
        );
        assert_eq!(d.confidence, 1.0);
    }
}
