//! `selfheal-lint`: a workspace determinism auditor.
//!
//! Determinism is this reproduction's house invariant — fingerprint
//! equality across workers and slices, byte-identical replay, and seeded
//! stream splitting are what make the shared-learning results trustworthy —
//! but the conventions enforcing it (disjoint fault-id namespaces,
//! `*Choice` ↔ trait-implementor mirroring, no wall clocks or hash-order
//! iteration in simulation paths) are *cross-file* properties no single
//! `rustc` diagnostic can see.  This crate proves them statically.
//!
//! The design mirrors the hand-rolled `selfheal-jsonl` codec: std-only, no
//! `syn`, no registry dependencies.  A small lexer ([`scan`]) blanks
//! comments and string literals while harvesting `// lint:allow(<rule>)`
//! annotations, [`workspace`] walks the source tree, and [`engine`] runs
//! the [`rules`] — each one a cross-file invariant grounded in a real
//! incident class:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `id-space` | every `*_ID_BASE` lane derives from the `faults::id_space` manifest and lanes are pairwise disjoint |
//! | `choice-mirror` | every `TraceSource`/`FaultSource` implementor is reachable from its `*Choice` enum, and every `*Choice` variant is used |
//! | `nondeterminism` | no wall clocks and no `HashMap`/`HashSet` iteration in fingerprint-bearing crates |
//! | `seed-discipline` | per-replica streams derive via `split_seed`, never raw arithmetic on a seed |
//!
//! Run it as `cargo run -p selfheal-lint -- --workspace` (exit 1 on
//! findings, `--json` for machine-readable output).  Suppress a deliberate
//! exception with `// lint:allow(<rule>): <why>` on the offending line or
//! the comment line directly above it — the *why* is mandatory by
//! convention, reviewed like any other code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use engine::{run_rules, to_json, Finding, Rule};
pub use workspace::{SourceFile, Workspace};
