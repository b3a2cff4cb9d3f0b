//! The shipped rules — each one a cross-file invariant rustc and clippy
//! cannot see.

mod choice_mirror;
mod seed_discipline;

pub use choice_mirror::ChoiceMirror;
pub use seed_discipline::SeedDiscipline;

use crate::engine::Rule;

/// Every shipped rule, in documentation order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![Box::new(ChoiceMirror), Box::new(SeedDiscipline)]
}
