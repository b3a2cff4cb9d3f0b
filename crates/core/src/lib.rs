//! # selfheal-core
//!
//! The self-healing layer of *Toward Self-Healing Multitier Services*
//! (Cook et al., ICDE 2007): signature-based fix identification (FixSym),
//! pluggable synopses, healing policies that drive the simulated service,
//! hybrid signature+diagnosis policies, proactive (forecast-driven) healing,
//! and control-theoretic measurements of the healing loop.
//!
//! The crate's centrepiece is [`fixsym::FixSymEngine`], a faithful
//! implementation of the paper's Figure 3 pseudocode:
//!
//! ```text
//! while (true)
//!   wait for next failure data point f
//!   while (!fixed and count < THRESHOLD)
//!     probFix = suggest_fix(S, f, F)     // query the synopsis
//!     apply_fix(probFix)
//!     fixed = check_fix(probFix)
//!     update_synopsis(S, f, probFix, fixed)
//!   if (!fixed) restart the service and notify the administrator
//! ```
//!
//! The synopsis `S` is abstracted by [`synopsis::Synopsis`], which wraps the
//! three learners the paper compares (nearest neighbor, k-means, AdaBoost
//! with 60 weak learners) behind one interface and tracks the training cost
//! needed for the Table 3 comparison.
//!
//! Line 9 of that loop is one function, `policy::choose`: it asks a
//! constant list of fix sources — the synopsis above a confidence floor,
//! a panel of diagnosis engines, the cheapest untried candidate, escalation
//! — for the first fix not yet tried.  [`HybridHealer`] is the one online
//! healer: every policy of Table 2 but no healing (the manual rule base,
//! the three diagnosis-based engines, FixSym, and the signature + diagnosis
//! hybrid of Section 5.1) is one of these lists, held in
//! [`harness::PolicyChoice`], and `FixSymEngine` drives the same
//! `choose`.  The last line, the escalation, is that function's
//! `Escalate` source and the only place a restart is built: past the
//! threshold every healer asks for it alone.  Offline the administrator's
//! answer — the oracle's catalogue fix — is learned as a positive, so a
//! synopsis learns every failure class, including those whose fix trial
//! and error within the threshold cannot reach; online the restart is the
//! whole escalation.
//!
//! The crate also provides `proactive` (failure forecasting, Section 5.3),
//! [`control`] (settling time / overshoot / oscillation of the healing loop,
//! Section 5.4), [`store`] (pluggable [`store::SynopsisStore`] homes for the
//! learned model: private or fleet-shared), [`snapshot`] (JSON-lines
//! synopsis persistence for warm-starting fleets), and [`harness`] (a
//! convenience wrapper that bundles a simulated service with a healing
//! policy for the examples and benches).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

pub mod control;
pub mod fixsym;
pub mod harness;
pub(crate) mod hybrid;
pub(crate) mod policy;
pub(crate) mod proactive;
pub mod snapshot;
pub mod store;
pub(crate) mod symptom;
pub mod synopsis;

pub use hybrid::HybridHealer;
pub use synopsis::{Learner, Synopsis, SynopsisKind};
