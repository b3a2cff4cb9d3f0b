//! Per-tier capacity / queueing model.
//!
//! Each tier is modelled as a fluid queue with a fixed amount of service
//! capacity per tick.  Demand beyond the capacity is carried over as
//! backlog; latency inflates both with instantaneous utilization (an
//! M/M/1-like `1/(1-ρ)` factor) and with the backlog that is already queued
//! ahead of newly arriving work.  This is deliberately simple — the paper's
//! analyses only need tier-level utilization, queue length, and response
//! time to show realistic bottleneck and overload behaviour.

use serde::{Deserialize, Serialize};

/// Maximum utilization used in the latency-inflation formula (full
/// saturation is expressed through the backlog term instead, keeping the
/// multiplier finite).
const RHO_CAP: f64 = 0.95;

/// One tier's resource state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct TierResource {
    /// Nominal capacity, ms of service per tick.
    nominal_capacity_ms: f64,
    /// Multiplier applied to the nominal capacity (faults and fixes move
    /// this: a bottlenecked tier has factor < 1, provisioning raises it).
    capacity_factor: f64,
    /// Temporary capacity factor applied while a fix is in progress
    /// (disruption); reset every tick by the actuator.
    disruption_factor: f64,
    /// Carried-over demand from previous ticks, in ms.
    backlog_ms: f64,
}

/// Result of offering one tick's demand to a tier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct TierTick {
    /// Utilization in `[0, 1]` (fraction of effective capacity used).
    pub utilization: f64,
    /// Multiplier applied to every request's service demand at this tier.
    pub latency_multiplier: f64,
    /// Backlog carried into the next tick, in ms.
    pub backlog_ms: f64,
    /// Fraction of offered demand that could not even be queued this tick
    /// (0 unless the tier is catastrophically overloaded).
    pub shed_fraction: f64,
}

impl TierResource {
    /// Creates a tier with the given nominal capacity.
    ///
    /// # Panics
    /// Panics if `nominal_capacity_ms` is not positive.
    pub(crate) fn new(nominal_capacity_ms: f64) -> Self {
        assert!(nominal_capacity_ms > 0.0, "tier capacity must be positive");
        TierResource {
            nominal_capacity_ms,
            capacity_factor: 1.0,
            disruption_factor: 1.0,
            backlog_ms: 0.0,
        }
    }

    /// Effective capacity this tick (nominal × capacity factor × disruption).
    pub(crate) fn effective_capacity_ms(&self) -> f64 {
        (self.nominal_capacity_ms * self.capacity_factor * self.disruption_factor).max(1.0)
    }

    /// Sets the persistent capacity factor (clamped to `[0.01, 10.0]`).
    pub(crate) fn set_capacity_factor(&mut self, factor: f64) {
        self.capacity_factor = factor.clamp(0.01, 10.0);
    }

    /// Sets this tick's disruption factor (1.0 = no disruption, 0.0 = the
    /// tier is completely unavailable while a fix is applied).
    pub(crate) fn set_disruption(&mut self, available_fraction: f64) {
        self.disruption_factor = available_fraction.clamp(0.0, 1.0).max(0.001);
    }

    /// Drops all queued work and resets congestion state (used by tier
    /// reboots and full restarts: in-flight requests are lost, which is part
    /// of why those fixes are disruptive).
    pub(crate) fn flush(&mut self) {
        self.backlog_ms = 0.0;
    }

    /// Offers `demand_ms` of new work for this tick and advances the tier.
    pub(crate) fn offer(&mut self, demand_ms: f64) -> TierTick {
        let capacity = self.effective_capacity_ms();
        let offered = demand_ms.max(0.0) + self.backlog_ms;
        let utilization = (offered / capacity).min(1.0);
        let completed = offered.min(capacity);
        let mut backlog = offered - completed;

        // Catastrophic overload: bound the queue at three ticks' worth of
        // work; anything beyond that is shed (timeouts / connection resets),
        // which is how an interactive service behaves rather than queueing
        // requests indefinitely.
        let max_backlog = 3.0 * capacity;
        let mut shed_fraction = 0.0;
        if backlog > max_backlog {
            let shed = backlog - max_backlog;
            shed_fraction = if offered > 0.0 { shed / offered } else { 0.0 };
            backlog = max_backlog;
        }

        let rho = (offered / capacity).min(RHO_CAP);
        let latency_multiplier = 1.0 / (1.0 - rho) + self.backlog_ms / capacity;

        self.backlog_ms = backlog;

        TierTick {
            utilization,
            latency_multiplier,
            backlog_ms: backlog,
            shed_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TierResource {
        /// The persistent capacity factor (1.0 = healthy).
        pub(crate) fn capacity_factor(&self) -> f64 {
            self.capacity_factor
        }

        /// Current backlog in ms.
        pub(crate) fn backlog_ms(&self) -> f64 {
            self.backlog_ms
        }
    }

    #[test]
    fn light_load_has_low_utilization_and_unit_latency() {
        let mut tier = TierResource::new(1000.0);
        let t = tier.offer(100.0);
        assert!((t.utilization - 0.1).abs() < 1e-9);
        assert!(t.latency_multiplier < 1.2);
        assert_eq!(t.backlog_ms, 0.0);
        assert_eq!(t.shed_fraction, 0.0);
    }

    #[test]
    fn latency_inflates_as_load_approaches_capacity() {
        let mut tier = TierResource::new(1000.0);
        let light = tier.offer(100.0).latency_multiplier;
        tier.flush();
        let heavy = tier.offer(900.0).latency_multiplier;
        assert!(heavy > 3.0 * light, "heavy {heavy} vs light {light}");
    }

    #[test]
    fn overload_builds_backlog_and_eventually_sheds() {
        let mut tier = TierResource::new(1000.0);
        let mut shed_seen = false;
        for _ in 0..30 {
            let t = tier.offer(3000.0);
            assert_eq!(t.utilization, 1.0);
            if t.shed_fraction > 0.0 {
                shed_seen = true;
            }
        }
        assert!(tier.backlog_ms() <= 3.0 * tier.effective_capacity_ms() + 1e-6);
        assert!(shed_seen, "sustained 3x overload must eventually shed work");
    }

    #[test]
    fn backlog_drains_when_load_drops() {
        let mut tier = TierResource::new(1000.0);
        tier.offer(2500.0);
        assert!(tier.backlog_ms() > 0.0);
        for _ in 0..5 {
            tier.offer(0.0);
        }
        assert_eq!(tier.backlog_ms(), 0.0);
    }

    #[test]
    fn capacity_factor_and_disruption_shrink_effective_capacity() {
        let mut tier = TierResource::new(1000.0);
        tier.set_capacity_factor(0.5);
        assert_eq!(tier.effective_capacity_ms(), 500.0);
        tier.set_disruption(0.2);
        assert!((tier.effective_capacity_ms() - 100.0).abs() < 1e-9);
        tier.set_disruption(1.0);
        tier.set_capacity_factor(1.0);
        assert_eq!(tier.capacity_factor(), 1.0);
        assert_eq!(tier.effective_capacity_ms(), 1000.0);
    }

    #[test]
    fn capacity_factor_is_clamped() {
        let mut tier = TierResource::new(1000.0);
        tier.set_capacity_factor(0.0);
        assert!(tier.effective_capacity_ms() >= 1.0);
        tier.set_capacity_factor(1000.0);
        assert!(tier.capacity_factor() <= 10.0);
    }

    #[test]
    fn flush_clears_backlog() {
        let mut tier = TierResource::new(500.0);
        tier.offer(5000.0);
        assert!(tier.backlog_ms() > 0.0);
        tier.flush();
        assert_eq!(tier.backlog_ms(), 0.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        TierResource::new(0.0);
    }
}
