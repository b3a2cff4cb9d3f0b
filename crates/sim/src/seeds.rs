//! Deterministic RNG stream splitting for fleets of replicas.
//!
//! Every source of randomness in a replica (the service's internal jitter,
//! the workload trace, the failure-state generator) is seeded from a single
//! 64-bit value.  A fleet needs each replica's streams to be (a) decorrelated
//! from its siblings and (b) a pure function of `(base_seed, replica_index)`
//! — never of thread scheduling or fleet size — so that replica `i` behaves
//! bit-identically whether it runs alone, in a fleet of 4, or in a fleet of
//! 64.
//!
//! [`split_seed`] provides that: a SplitMix64-style finalizer over the
//! `(base, index, stream)` triple.  Its avalanche behaviour means adjacent
//! replica indices land in unrelated regions of the generator's state space,
//! which plain `base + index` seeding does not guarantee.

/// Distinguishes the independent streams a single replica consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeedStream {
    /// The simulated service's internal randomness (`ServiceConfig::seed`).
    Service,
    /// The workload trace generator.
    Workload,
    /// The fault source (stochastic demographic fault generation).
    Faults,
}

impl SeedStream {
    fn salt(self) -> u64 {
        match self {
            SeedStream::Service => 0x5E51_1CE5_0000_0001,
            SeedStream::Workload => 0x3A01_0AD5_0000_0002,
            SeedStream::Faults => 0xFA07_5EED_0000_0003,
        }
    }
}

/// Derives the seed for one stream of one replica from the fleet's base
/// seed.  Pure, stateless, and avalanche-mixed.
pub fn split_seed(base: u64, replica: u64, stream: SeedStream) -> u64 {
    let mut z = base
        .wrapping_add(replica.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(stream.salt());
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_deterministic() {
        assert_eq!(
            split_seed(42, 3, SeedStream::Workload),
            split_seed(42, 3, SeedStream::Workload)
        );
    }

    #[test]
    fn replicas_and_streams_decorrelate() {
        let mut seen = std::collections::BTreeSet::new();
        for replica in 0..64 {
            for stream in [
                SeedStream::Service,
                SeedStream::Workload,
                SeedStream::Faults,
            ] {
                assert!(
                    seen.insert(split_seed(7, replica, stream)),
                    "collision at replica {replica} {stream:?}"
                );
            }
        }
    }

    #[test]
    fn adjacent_replicas_differ_in_many_bits() {
        for replica in 0..16u64 {
            let a = split_seed(1, replica, SeedStream::Service);
            let b = split_seed(1, replica + 1, SeedStream::Service);
            let differing = (a ^ b).count_ones();
            assert!(
                differing >= 16,
                "only {differing} differing bits at replica {replica}"
            );
        }
    }
}
