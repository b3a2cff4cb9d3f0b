//! The single manifest of fault-id namespaces.
//!
//! Every generated-id namespace in the workspace — stochastic mix faults,
//! catalog sweeps, seasonal mixes, operator actions, fleet storms and
//! reactive strikes — claims one power-of-two *lane*: ids in
//! `[base, 2·base)` with `base = 1 << bit`.  Scripted
//! [`crate::InjectionPlan`]s number their faults from zero, far below every
//! lane, so arbitrary compositions of sources never collide.
//!
//! [`IdLane`] is the one place a lane may be declared, and the compiler
//! holds it:
//!
//! * a lane's bit is its discriminant, so two lanes on one bit are a
//!   duplicate discriminant (rustc's E0081);
//! * a `const` assertion over [`IdLane::ALL`] refuses a bit outside
//!   `[32, 62]`: below 32 a lane would meet scripted plans and per-tick
//!   request ids, above 62 its end `2·base` would overflow `u64`;
//! * [`IdLane::base`] is the one lane-to-id function, so no source can
//!   hand-roll a shift.
//!
//! To add a namespace: add a variant on a free bit and list it in
//! [`IdLane::ALL`].

/// One id namespace: the lane `[base, 2·base)` rooted at the bit that is
/// the variant's discriminant.
#[repr(u32)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdLane {
    /// [`crate::SeasonalSource`] faults.
    Season = 43,
    /// [`crate::MixSource`] faults.
    Mix = 44,
    /// [`crate::CatalogSweep`] faults.
    Sweep = 45,
    /// Reactive-engine strikes (`selfheal_fleet::reactive`).
    Reactive = 46,
    /// [`crate::OperatorSource`] faults.
    Operator = 47,
    /// Fleet-storm faults ([`crate::StormSpec`]).
    Storm = 48,
}

impl IdLane {
    /// Every lane, ascending by bit.
    pub const ALL: [IdLane; 6] = [
        IdLane::Season,
        IdLane::Mix,
        IdLane::Sweep,
        IdLane::Reactive,
        IdLane::Operator,
        IdLane::Storm,
    ];

    /// First id of the lane; its ids run up to, not including, twice this.
    pub const fn base(self) -> u64 {
        1u64 << self as u32
    }
}

const _: () = {
    let mut i = 0;
    while i < IdLane::ALL.len() {
        let bit = IdLane::ALL[i] as u32;
        assert!(32 <= bit && bit <= 62, "id lane bit outside [32, 62]");
        i += 1;
    }
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_lists_every_lane_in_bit_order() {
        // The match is exhaustive, so a new variant does not compile here
        // until it is given a place, and the assertion fails until `ALL`
        // lists it there.
        for (at, lane) in IdLane::ALL.into_iter().enumerate() {
            let place = match lane {
                IdLane::Season => 0,
                IdLane::Mix => 1,
                IdLane::Sweep => 2,
                IdLane::Reactive => 3,
                IdLane::Operator => 4,
                IdLane::Storm => 5,
            };
            assert_eq!(place, at, "{lane:?} is listed out of place in IdLane::ALL");
        }
    }
}
