//! Per-tick request trace generation.

use crate::arrival::ArrivalProcess;
use crate::mix::WorkloadMix;
use crate::request::Request;
use crate::source::TraceSource;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generates the batch of requests arriving in each tick by combining a
/// [`WorkloadMix`] with an [`ArrivalProcess`].
///
/// The generator owns its RNG (seeded at construction) so traces are
/// reproducible and independent of any other randomness in the simulation.
/// It is the synthetic implementation of [`TraceSource`]; recorded and
/// bursty sources live in `crate::replay` and `crate::burst`.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    mix: WorkloadMix,
    arrivals: ArrivalProcess,
    seed: u64,
    rng: StdRng,
    next_request_id: u64,
}

impl TraceGenerator {
    /// Creates a generator.
    pub fn new(mix: WorkloadMix, arrivals: ArrivalProcess, seed: u64) -> Self {
        TraceGenerator {
            mix,
            arrivals,
            seed,
            rng: StdRng::seed_from_u64(seed),
            next_request_id: 0,
        }
    }

    /// Generates the requests arriving at `tick`.
    pub fn tick(&mut self, tick: u64) -> Vec<Request> {
        let count = self.arrivals.arrivals(tick, &mut self.rng);
        let mut requests = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let kind = self.mix.sample(&mut self.rng);
            requests.push(Request::new(self.next_request_id, kind, tick));
            self.next_request_id += 1;
        }
        requests
    }
}

impl TraceSource for TraceGenerator {
    fn next_tick(&mut self, tick: u64) -> Vec<Request> {
        self.tick(tick)
    }

    /// Reseeds the RNG and rewinds the request-id counter.
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

    #[test]
    fn reset_replays_the_same_trace() {
        let mut g = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Poisson { rate: 15.0 },
            8,
        );
        let first: Vec<Vec<Request>> = (0..10).map(|t| g.next_tick(t)).collect();
        g.reset();
        let second: Vec<Vec<Request>> = (0..10).map(|t| g.next_tick(t)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn trace_is_deterministic_for_a_seed() {
        let mut a = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Poisson { rate: 10.0 },
            42,
        );
        let mut b = TraceGenerator::new(
            WorkloadMix::bidding(),
            ArrivalProcess::Poisson { rate: 10.0 },
            42,
        );
        for t in 0..20 {
            assert_eq!(a.tick(t), b.tick(t));
        }
    }

    #[test]
    fn request_ids_are_unique_and_monotone() {
        let mut g = TraceGenerator::new(
            WorkloadMix::browsing(),
            ArrivalProcess::Constant { rate: 7.0 },
            1,
        );
        let mut last_id = None;
        for t in 0..10 {
            for r in g.tick(t) {
                if let Some(prev) = last_id {
                    assert!(r.id > prev);
                }
                last_id = Some(r.id);
                assert_eq!(r.arrival_tick, t);
            }
        }
    }
}
