//! `selfheal-lint`: the workspace's seed and mirror auditor.
//!
//! Determinism is this reproduction's house invariant — fingerprint
//! equality across workers and slices, byte-identical replay, and seeded
//! stream splitting are what make the shared-learning results trustworthy.
//! Most of it is held by the compiler: each deterministic crate's
//! `clippy.toml` bans wall clocks and `std`'s hash types, and
//! `faults::id_space::IdLane` makes two fault-id lanes on one bit a build
//! error.  Two conventions are *cross-file* properties no `rustc` or clippy
//! diagnostic can see, and this crate proves them statically.
//!
//! The design mirrors the hand-rolled `selfheal-jsonl` codec: std-only, no
//! `syn`, no registry dependencies.  A small lexer ([`scan`]) blanks
//! comments and string literals while harvesting `// lint:allow(<rule>)`
//! annotations, [`workspace`] walks the source tree, and [`engine`] runs
//! the [`rules`]:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `choice-mirror` | every `TraceSource`/`FaultSource` implementor is reachable from its `*Choice` enum, and every `*Choice` variant is used |
//! | `seed-discipline` | per-replica streams derive via `split_seed`, never raw arithmetic on a seed |
//!
//! `tests/self_check.rs` runs both rules over this workspace and fails on
//! any finding: `cargo test -p selfheal-lint`.  Suppress a deliberate
//! exception with `// lint:allow(<rule>): <why>` on the offending line or
//! the comment line directly above it — the *why* is mandatory by
//! convention, reviewed like any other code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod engine;
pub mod rules;
pub mod scan;
pub mod workspace;

pub use engine::{run_rules, Finding, Rule};
pub use workspace::{SourceFile, Workspace};
