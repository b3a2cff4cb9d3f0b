//! Fixture simulation core seeded with one `seed-discipline` violation,
//! plus one allowed exception that must stay suppressed.

pub fn run(base_seed: u64, replica: u64) -> u64 {
    let child = base_seed + replica;
    // lint:allow(seed-discipline): fixture exercises allow-suppression.
    let allowed = base_seed * replica;
    child ^ allowed
}
