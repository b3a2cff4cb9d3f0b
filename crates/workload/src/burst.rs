//! Flash-crowd / fault-storm workload: [`BurstSource`].
//!
//! The paper motivates self-healing with the Walmart.com outage "during the
//! 2006 Thanksgiving traffic surge".  [`crate::ArrivalProcess::Surge`]
//! models one such surge; `BurstSource` generalizes it to a *recurring*
//! storm — every `period_ticks`, the arrival rate multiplies by
//! `burst_factor` for `burst_ticks` — which is the workload shape fleet
//! scenarios use to study correlated load spikes (and, with a per-replica
//! phase shift, staggered ones).

use crate::arrival::ArrivalProcess;
use crate::mix::WorkloadMix;
use crate::request::Request;
use crate::source::TraceSource;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A Poisson workload whose rate spikes periodically.
#[derive(Debug, Clone)]
pub struct BurstSource {
    mix: WorkloadMix,
    base_rate: f64,
    burst_factor: f64,
    period_ticks: u64,
    burst_ticks: u64,
    phase: u64,
    seed: u64,
    rng: StdRng,
    next_request_id: u64,
}

impl BurstSource {
    /// Creates a burst source: Poisson arrivals at `base_rate` requests per
    /// tick, multiplied by `burst_factor` for the first `burst_ticks` of
    /// every `period_ticks`-long cycle.
    ///
    /// # Panics
    /// Panics if `base_rate` is not positive, `burst_factor` is below 1, or
    /// the burst is as long as (or longer than) the period.
    pub fn new(
        mix: WorkloadMix,
        base_rate: f64,
        burst_factor: f64,
        period_ticks: u64,
        burst_ticks: u64,
        seed: u64,
    ) -> Self {
        assert!(base_rate > 0.0, "burst base rate must be positive");
        assert!(burst_factor >= 1.0, "burst factor must be at least 1");
        assert!(
            burst_ticks < period_ticks,
            "burst ({burst_ticks} ticks) must be shorter than its period ({period_ticks} ticks)"
        );
        BurstSource {
            mix,
            base_rate,
            burst_factor,
            period_ticks,
            burst_ticks,
            phase: 0,
            seed,
            rng: StdRng::seed_from_u64(seed),
            next_request_id: 0,
        }
    }

    /// Shifts the storm schedule by `phase` ticks (a fleet can stagger its
    /// replicas' storms instead of taking every spike in lockstep).
    pub fn with_phase(mut self, phase: u64) -> Self {
        self.phase = phase;
        self
    }

    /// Whether `tick` falls inside a burst window.
    pub(crate) fn in_burst(&self, tick: u64) -> bool {
        (tick + self.phase) % self.period_ticks < self.burst_ticks
    }

    /// The mean arrival rate at `tick` (requests per tick).
    pub fn rate_at(&self, tick: u64) -> f64 {
        if self.in_burst(tick) {
            self.base_rate * self.burst_factor
        } else {
            self.base_rate
        }
    }
}

impl TraceSource for BurstSource {
    fn next_tick(&mut self, tick: u64) -> Vec<Request> {
        let arrivals = ArrivalProcess::Poisson {
            rate: self.rate_at(tick),
        };
        let count = arrivals.arrivals(tick, &mut self.rng);
        let mut requests = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let kind = self.mix.sample(&mut self.rng);
            requests.push(Request::new(self.next_request_id, kind, tick));
            self.next_request_id += 1;
        }
        requests
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed);
        self.next_request_id = 0;
    }

    fn clone_box(&self) -> Box<dyn TraceSource> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn source(seed: u64) -> BurstSource {
        BurstSource::new(WorkloadMix::bidding(), 10.0, 5.0, 100, 20, seed)
    }

    #[test]
    fn storms_recur_on_schedule() {
        let s = source(1);
        assert!(s.in_burst(0));
        assert!(s.in_burst(19));
        assert!(!s.in_burst(20));
        assert!(!s.in_burst(99));
        assert!(s.in_burst(100));
        assert_eq!(s.rate_at(5), 50.0);
        assert_eq!(s.rate_at(50), 10.0);
    }

    #[test]
    fn phase_shift_staggers_the_storm() {
        let shifted = source(1).with_phase(20);
        assert!(!shifted.in_burst(0), "phase 20 starts outside the burst");
        assert!(
            shifted.in_burst(80),
            "tick 80 + phase 20 wraps into a burst"
        );
    }

    #[test]
    fn burst_windows_carry_more_traffic() {
        let mut s = source(3);
        let mut burst_total = 0usize;
        let mut calm_total = 0usize;
        for tick in 0..500 {
            let n = s.next_tick(tick).len();
            if s.in_burst(tick) {
                burst_total += n;
            } else {
                calm_total += n;
            }
        }
        // 100 burst ticks at ~50/tick vs 400 calm ticks at ~10/tick.
        assert!(burst_total as f64 > 2.0 * calm_total as f64 / 4.0);
        let burst_mean = burst_total as f64 / 100.0;
        let calm_mean = calm_total as f64 / 400.0;
        assert!(
            burst_mean > 3.0 * calm_mean,
            "burst mean {burst_mean} vs calm mean {calm_mean}"
        );
    }

    #[test]
    fn reset_replays_identically() {
        let mut s = source(9);
        let first: Vec<Vec<Request>> = (0..30).map(|t| s.next_tick(t)).collect();
        s.reset();
        let second: Vec<Vec<Request>> = (0..30).map(|t| s.next_tick(t)).collect();
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "shorter than its period")]
    fn burst_longer_than_period_is_rejected() {
        BurstSource::new(WorkloadMix::bidding(), 10.0, 2.0, 50, 50, 0);
    }
}
