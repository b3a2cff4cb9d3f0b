//! # selfheal-diagnosis
//!
//! Diagnosis-based automated fix identification, implementing Section 4.3
//! of *Toward Self-Healing Multitier Services* (Cook et al., ICDE 2007):
//!
//! * [`anomaly::AnomalyDetector`] — Section 4.3.1: characterize baseline
//!   behaviour over a long window `Nb`, compare the current window `Nc`
//!   against it (χ² test on component-interaction distributions, z-scores on
//!   individual metrics), and map the most anomalous component to a fix.
//! * [`correlation::CorrelationAnalyzer`] — Section 4.3.2: find the metrics
//!   most strongly correlated with a failure-indicator attribute and map the
//!   top correlate to a fix.
//! * [`bottleneck::BottleneckAnalyzer`] — Section 4.3.3: use structural
//!   knowledge of the tiers (utilizations, queues, and the database
//!   sub-metrics) to locate the bottlenecked resource and recommend the
//!   corresponding capacity/contention fix.
//! * [`manual_rules::ManualRuleBase`] — Section 3's manual rule-based
//!   baseline: a fixed set of expert-written if-then threshold rules.
//!
//! All engines consume the same inputs a production monitoring pipeline
//! would have — a window of metric samples plus knowledge of which metric is
//! which ([`context::DiagnosisContext`]) — and produce ranked
//! [`report::Diagnosis`] recommendations with confidence estimates, so they
//! can be combined with the signature-based FixSym engine (Section 5.1).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub(crate) mod anomaly;
pub(crate) mod bottleneck;
pub(crate) mod context;
pub(crate) mod correlation;
pub(crate) mod manual_rules;
pub(crate) mod report;

pub use anomaly::AnomalyDetector;
pub use bottleneck::BottleneckAnalyzer;
pub use context::DiagnosisContext;
pub use correlation::CorrelationAnalyzer;
pub use manual_rules::ManualRuleBase;
pub use report::{Diagnosis, DiagnosisMethod};
