//! Correlated fault storms: the same failure hitting a deterministic
//! fraction of a fleet at once.
//!
//! The paper studies one service instance at a time, but real outages are
//! often *correlated* — a bad configuration push, a shared dependency
//! failing, a thundering herd — so a fleet-scale reproduction needs a way to
//! say "at tick T, this failure class hits half the fleet".  A [`StormSpec`]
//! is that statement, kept deterministic on purpose: the victim set is a
//! pure function of `(fraction, fleet size)`, so storm runs fingerprint
//! identically at any worker count.
//!
//! The spec only describes the storm; scheduling it against live replicas is
//! the fleet engine's job (its `events` module resolves a storm into
//! per-replica injections).

use crate::fault::{FaultId, FaultKind, FaultSpec};
use crate::id_space;
use crate::injection::default_target;
use crate::mix::ServiceProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Id namespace for storm-injected faults, far above anything an
/// [`crate::InjectionPlanBuilder`] assigns, so storm faults never collide
/// with a replica's scheduled plan — see [`crate::id_space`] for the lane
/// manifest.
pub const STORM_FAULT_ID_BASE: u64 = id_space::lane_base(id_space::STORM_ID_BIT);

/// One correlated fault storm: a failure class (or a whole failure-cause
/// *catalog*), a severity, and the fraction of the fleet it hits.
///
/// Victim selection is deterministic and evenly spread: with `k` victims in
/// a fleet of `n`, replica `r` is hit iff `⌊(r+1)·k/n⌋ > ⌊r·k/n⌋` (the
/// Bresenham spread — exactly `k` victims, no RNG, no clustering at the low
/// indices).
///
/// In the default **uniform** mode every victim receives the same
/// [`StormSpec::kind`] (a bad configuration push: one failure class,
/// fleet-wide).  In **catalog** mode ([`StormSpec::catalog`]) each victim's
/// failure class is drawn from a [`ServiceProfile`]'s
/// [`CauseMix`](crate::CauseMix) — the Figure 1 demographics as a
/// correlated outage, e.g. a shared dependency failing and manifesting
/// differently on every replica.  The draw is a pure function of
/// `(storm, victim index, seed)`, so catalog storms stay deterministic at
/// any worker count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormSpec {
    /// The failure class every victim receives in uniform mode (in catalog
    /// mode: the fallback class, unused while `mix` is set).
    pub kind: FaultKind,
    /// Severity of each injected fault, clamped to `[0, 1]`.
    pub severity: f64,
    /// Fraction of the fleet hit, clamped to `[0, 1]`.
    pub fraction: f64,
    /// When set, each victim's failure class is drawn from this profile's
    /// cause mix instead of `kind` (catalog mode).
    pub mix: Option<ServiceProfile>,
}

impl StormSpec {
    /// Creates a uniform storm spec (severity and fraction are clamped to
    /// `[0, 1]`): every victim receives the same failure class.
    pub fn new(kind: FaultKind, severity: f64, fraction: f64) -> Self {
        StormSpec {
            kind,
            severity: severity.clamp(0.0, 1.0),
            fraction: fraction.clamp(0.0, 1.0),
            mix: None,
        }
    }

    /// Creates a catalog storm spec: each victim's failure class is drawn
    /// from `profile`'s cause mix (see `StormSpec::victim_kind`).
    pub fn catalog(profile: ServiceProfile, severity: f64, fraction: f64) -> Self {
        StormSpec {
            kind: FaultKind::BufferContention,
            severity: severity.clamp(0.0, 1.0),
            fraction: fraction.clamp(0.0, 1.0),
            mix: Some(profile),
        }
    }

    /// Number of victims in a fleet of `fleet` replicas: the rounded
    /// fraction, at least 1 whenever the fraction is positive (a storm that
    /// hits nobody is a no-op, not a storm).
    pub(crate) fn victim_count(&self, fleet: usize) -> usize {
        if fleet == 0 || self.fraction <= 0.0 {
            return 0;
        }
        ((self.fraction * fleet as f64).round() as usize).clamp(1, fleet)
    }

    /// Whether replica `replica` of a fleet of `fleet` is a victim.
    pub(crate) fn hits(&self, replica: usize, fleet: usize) -> bool {
        if replica >= fleet {
            return false;
        }
        let k = self.victim_count(fleet);
        (replica + 1) * k / fleet > replica * k / fleet
    }

    /// The victim replica indices, in order.
    pub fn victims(&self, fleet: usize) -> Vec<usize> {
        (0..fleet).filter(|&r| self.hits(r, fleet)).collect()
    }

    /// The failure class (and its Figure 1 cause category) victim `victim`
    /// receives: in uniform mode always `(kind.cause(), kind)`; in catalog
    /// mode a deterministic draw from the profile's cause mix keyed by
    /// `(seed, victim)` — two victims of the same storm usually manifest
    /// *different* classes, as the Oppenheimer demographics predict.
    pub(crate) fn victim_kind(&self, victim: usize, seed: u64) -> (crate::FailureCause, FaultKind) {
        /// Salt separating the storm victim-kind stream from the mix
        /// source's per-tick stream.
        const STORM_VICTIM_SALT: u64 = 0x570A_11CA_7A10_6000;
        match self.mix {
            None => (self.kind.cause(), self.kind),
            Some(profile) => {
                let mut rng = StdRng::seed_from_u64(crate::source::mix64(
                    seed,
                    victim as u64,
                    STORM_VICTIM_SALT,
                ));
                profile.sample_kind(&mut rng)
            }
        }
    }

    /// The fault one victim receives, targeted at its failure class's
    /// natural component (component 0, as scripted experiments do).  `id`
    /// must be unique per `(storm, victim)`; callers allocate ids in the
    /// [`STORM_FAULT_ID_BASE`] namespace.  `seed` keys the catalog-mode
    /// class draw (ignored in uniform mode).
    pub fn fault_for(&self, id: u64, victim: usize, seed: u64) -> FaultSpec {
        let (cause, kind) = self.victim_kind(victim, seed);
        FaultSpec::new(FaultId(id), kind, default_target(kind, 0), self.severity).with_cause(cause)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::FixCatalog;
    use crate::fix::FixKind;
    use crate::FailureCause;

    impl StormSpec {
        /// Uniform-mode shorthand for [`StormSpec::fault_for`]: the fault every
        /// victim receives when no cause mix is set.
        pub(crate) fn fault(&self, id: u64) -> FaultSpec {
            FaultSpec::new(
                FaultId(id),
                self.kind,
                default_target(self.kind, 0),
                self.severity,
            )
        }

        /// The catalog's preferred (cheapest effective) fix for the storm's
        /// uniform-mode failure class — what a fleet that has already learned
        /// the signature should reach for on the first attempt.  (Catalog-mode
        /// victims have per-victim classes; query
        /// [`StormSpec::victim_kind`] and the [`FixCatalog`] directly.)
        pub(crate) fn expected_fix(&self) -> FixKind {
            FixCatalog::standard().preferred_fix(self.kind)
        }
    }

    #[test]
    fn victim_count_follows_the_fraction() {
        let storm = StormSpec::new(FaultKind::BufferContention, 0.9, 0.5);
        assert_eq!(storm.victim_count(8), 4);
        assert_eq!(storm.victim_count(3), 2);
        assert_eq!(storm.victim_count(0), 0);
        // A positive fraction always claims at least one victim.
        let sliver = StormSpec::new(FaultKind::BufferContention, 0.9, 0.01);
        assert_eq!(sliver.victim_count(8), 1);
        // Fractions are clamped.
        let flood = StormSpec::new(FaultKind::BufferContention, 0.9, 7.0);
        assert_eq!(flood.victim_count(8), 8);
    }

    #[test]
    fn victims_are_evenly_spread_and_deterministic() {
        let storm = StormSpec::new(FaultKind::BufferContention, 0.9, 0.5);
        assert_eq!(storm.victims(8), vec![1, 3, 5, 7]);
        assert_eq!(storm.victims(8), storm.victims(8));
        let third = StormSpec::new(FaultKind::BufferContention, 0.9, 1.0 / 3.0);
        assert_eq!(third.victims(9).len(), 3);
        let all = StormSpec::new(FaultKind::BufferContention, 0.9, 1.0);
        assert_eq!(all.victims(4), vec![0, 1, 2, 3]);
        let none = StormSpec::new(FaultKind::BufferContention, 0.9, 0.0);
        assert!(none.victims(4).is_empty());
    }

    #[test]
    fn storm_faults_use_the_natural_target_and_the_storm_namespace() {
        let storm = StormSpec::new(FaultKind::BufferContention, 0.8, 0.5);
        let fault = storm.fault(STORM_FAULT_ID_BASE + 3);
        assert_eq!(fault.kind, FaultKind::BufferContention);
        assert_eq!(fault.target, default_target(FaultKind::BufferContention, 0));
        assert_eq!(fault.severity, 0.8);
        assert!(fault.id.0 >= STORM_FAULT_ID_BASE);
    }

    #[test]
    fn expected_fix_comes_from_the_catalog() {
        let storm = StormSpec::new(FaultKind::BufferContention, 0.9, 0.5);
        assert_eq!(storm.expected_fix(), FixKind::RepartitionMemory);
    }

    #[test]
    fn catalog_storms_draw_per_victim_kinds_deterministically() {
        let storm = StormSpec::catalog(ServiceProfile::Online, 0.9, 1.0);
        let kinds: Vec<_> = (0..32).map(|v| storm.victim_kind(v, 42)).collect();
        assert_eq!(
            kinds,
            (0..32)
                .map(|v| storm.victim_kind(v, 42))
                .collect::<Vec<_>>(),
            "pure function of (victim, seed)"
        );
        let distinct: std::collections::HashSet<_> = kinds.iter().map(|(_, k)| *k).collect();
        assert!(
            distinct.len() >= 3,
            "a 32-victim catalog storm manifests several classes: {distinct:?}"
        );
        // A different seed reshuffles the draw.
        assert_ne!(
            kinds,
            (0..32)
                .map(|v| storm.victim_kind(v, 43))
                .collect::<Vec<_>>()
        );
        // The recorded cause matches the drawn category.
        let fault = storm.fault_for(STORM_FAULT_ID_BASE, 5, 42);
        assert_eq!(fault.cause, storm.victim_kind(5, 42).0);
    }

    #[test]
    fn uniform_storms_ignore_the_victim_and_seed() {
        let storm = StormSpec::new(FaultKind::DeadlockedThreads, 0.9, 0.5);
        for victim in 0..8 {
            assert_eq!(
                storm.victim_kind(victim, victim as u64),
                (FailureCause::Software, FaultKind::DeadlockedThreads)
            );
        }
    }
}
