//! Fixture simulation core: child seeds come from `split_seed`.

pub fn run(base_seed: u64) -> u64 {
    split_seed(base_seed, 0) ^ 0x9E37_79B9
}
