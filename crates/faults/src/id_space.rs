//! The single manifest of fault/surge id namespaces.
//!
//! Every generated-id namespace in the workspace — stochastic mix faults,
//! catalog sweeps, seasonal mixes, operator actions, fleet storms, workload
//! surges, and reactive strikes — claims one power-of-two *lane*: ids in
//! `[1 << bit, 1 << (bit + 1))`.  Scripted [`crate::InjectionPlan`]s number
//! their faults from zero, far below every lane, so arbitrary compositions
//! of sources never collide.
//!
//! This module is the one place a lane may be declared.  The owning crates
//! derive their `*_ID_BASE` constants from the `*_ID_BIT` entries here
//! (`selfheal-lint`'s `id-space` rule rejects any `*_ID_BASE` constant whose
//! initializer does not reference `id_space`), and [`ID_LANES`] enumerates
//! the registry so both the lint's static check and the runtime test below
//! can prove pairwise disjointness.  To add a namespace: declare its bit
//! here, add it to [`ID_LANES`], and define the owning crate's base constant
//! via [`lane_base`].

/// Lane bit for workload-surge request ids
/// (`selfheal_sim::scenario::ScenarioRunner::SURGE_ID_BASE`).
pub const SURGE_ID_BIT: u32 = 40;

/// Lane bit for [`crate::SeasonalSource`] faults.
pub(crate) const SEASON_ID_BIT: u32 = 43;

/// Lane bit for [`crate::MixSource`] faults.
pub(crate) const MIX_ID_BIT: u32 = 44;

/// Lane bit for [`crate::CatalogSweep`] faults.
pub(crate) const SWEEP_ID_BIT: u32 = 45;

/// Lane bit for reactive-engine strikes
/// (`selfheal_fleet::reactive::REACTIVE_FAULT_ID_BASE`).
pub const REACTIVE_ID_BIT: u32 = 46;

/// Lane bit for [`crate::OperatorSource`] faults.
pub(crate) const OPERATOR_ID_BIT: u32 = 47;

/// Lane bit for fleet-storm faults ([`crate::STORM_FAULT_ID_BASE`]).
pub(crate) const STORM_ID_BIT: u32 = 48;

/// Every registered lane, by name.  The order is ascending by bit; the
/// disjointness test below and `selfheal-lint`'s static mirror both walk
/// this table, so an unregistered lane fails loudly in two places.
pub const ID_LANES: &[(&str, u32)] = &[
    ("SURGE", SURGE_ID_BIT),
    ("SEASON", SEASON_ID_BIT),
    ("MIX", MIX_ID_BIT),
    ("SWEEP", SWEEP_ID_BIT),
    ("REACTIVE", REACTIVE_ID_BIT),
    ("OPERATOR", OPERATOR_ID_BIT),
    ("STORM", STORM_ID_BIT),
];

/// First id of the lane rooted at `bit`.
pub const fn lane_base(bit: u32) -> u64 {
    1u64 << bit
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lowest bit any lane may claim: scripted plans and per-tick request ids
    /// stay comfortably below `2^32`, so every lane at or above bit 32 is
    /// disjoint from them by construction.
    const MIN_LANE_BIT: u32 = 32;

    /// Highest bit a lane may claim: `lane_end` must not overflow `u64`.
    const MAX_LANE_BIT: u32 = 62;

    /// One past the last id of the lane rooted at `bit`: lanes span
    /// `[lane_base(bit), lane_end(bit))`.
    pub(crate) const fn lane_end(bit: u32) -> u64 {
        1u64 << (bit + 1)
    }

    #[test]
    fn manifest_registers_seven_lanes_with_unique_names() {
        assert_eq!(ID_LANES.len(), 7);
        let mut names: Vec<&str> = ID_LANES.iter().map(|(name, _)| *name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ID_LANES.len(), "duplicate lane name");
    }

    #[test]
    fn lanes_are_pairwise_disjoint_intervals() {
        // Checked as intervals rather than by "bits are distinct" so the
        // test stays valid even if a lane ever stops being a power of two.
        for (i, (name_a, bit_a)) in ID_LANES.iter().enumerate() {
            for (name_b, bit_b) in &ID_LANES[i + 1..] {
                let disjoint =
                    lane_end(*bit_a) <= lane_base(*bit_b) || lane_end(*bit_b) <= lane_base(*bit_a);
                assert!(
                    disjoint,
                    "lanes {name_a} (bit {bit_a}) and {name_b} (bit {bit_b}) overlap"
                );
            }
        }
    }

    #[test]
    fn lanes_stay_inside_the_legal_bit_range() {
        for (name, bit) in ID_LANES {
            assert!(
                (MIN_LANE_BIT..=MAX_LANE_BIT).contains(bit),
                "lane {name} claims bit {bit} outside [{MIN_LANE_BIT}, {MAX_LANE_BIT}]"
            );
        }
    }

    #[test]
    fn owning_crate_constants_match_the_manifest() {
        assert_eq!(crate::MIX_FAULT_ID_BASE, lane_base(MIX_ID_BIT));
        assert_eq!(crate::SWEEP_FAULT_ID_BASE, lane_base(SWEEP_ID_BIT));
        assert_eq!(crate::SEASON_FAULT_ID_BASE, lane_base(SEASON_ID_BIT));
        assert_eq!(crate::OPERATOR_FAULT_ID_BASE, lane_base(OPERATOR_ID_BIT));
        assert_eq!(crate::STORM_FAULT_ID_BASE, lane_base(STORM_ID_BIT));
    }
}
