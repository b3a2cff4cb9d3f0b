//! The shipped rules — each one a cross-file determinism invariant.

mod choice_mirror;
mod id_space;
mod nondeterminism;
mod seed_discipline;

pub use choice_mirror::ChoiceMirror;
pub use id_space::IdSpace;
pub use nondeterminism::Nondeterminism;
pub use seed_discipline::SeedDiscipline;

use crate::engine::Rule;

/// Every shipped rule, in documentation order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(IdSpace),
        Box::new(ChoiceMirror),
        Box::new(Nondeterminism),
        Box::new(SeedDiscipline),
    ]
}
