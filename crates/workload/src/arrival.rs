//! Open-loop arrival processes.
//!
//! The number of requests arriving in each tick is drawn from one of these
//! processes.  A diurnal pattern and a flash-crowd surge are included
//! because both matter to the paper's motivation: the Walmart.com outage it
//! cites happened "during the 2006 Thanksgiving traffic surge", and a
//! bottlenecked tier only shows up when load approaches capacity.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// How many requests arrive per tick.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Exactly `rate` requests per tick.
    Constant {
        /// Requests per tick.
        rate: f64,
    },
    /// Poisson arrivals with mean `rate` requests per tick.
    Poisson {
        /// Mean requests per tick.
        rate: f64,
    },
    /// A sinusoidal diurnal pattern: mean `base` requests per tick, swinging
    /// by `amplitude` over a period of `period_ticks`.
    Diurnal {
        /// Mean requests per tick.
        base: f64,
        /// Peak-to-mean swing (requests per tick).
        amplitude: f64,
        /// Length of one day, in ticks.
        period_ticks: u64,
    },
    /// A flash crowd: `base` requests per tick, multiplied by `factor`
    /// between `surge_start` and `surge_end`.
    Surge {
        /// Baseline requests per tick.
        base: f64,
        /// Multiplier during the surge.
        factor: f64,
        /// First tick of the surge.
        surge_start: u64,
        /// First tick after the surge.
        surge_end: u64,
    },
}

impl ArrivalProcess {
    /// The expected arrival rate at `tick` (requests per tick).
    pub(crate) fn mean_rate(&self, tick: u64) -> f64 {
        match self {
            ArrivalProcess::Constant { rate } | ArrivalProcess::Poisson { rate } => *rate,
            ArrivalProcess::Diurnal {
                base,
                amplitude,
                period_ticks,
            } => {
                let period = (*period_ticks).max(1) as f64;
                let phase = 2.0 * std::f64::consts::PI * (tick as f64 % period) / period;
                (base + amplitude * phase.sin()).max(0.0)
            }
            ArrivalProcess::Surge {
                base,
                factor,
                surge_start,
                surge_end,
            } => {
                if tick >= *surge_start && tick < *surge_end {
                    base * factor
                } else {
                    *base
                }
            }
        }
    }

    /// Samples the number of arrivals in the tick.
    pub(crate) fn arrivals<R: Rng + ?Sized>(&self, tick: u64, rng: &mut R) -> u64 {
        let mean = self.mean_rate(tick);
        match self {
            ArrivalProcess::Constant { .. } | ArrivalProcess::Surge { .. } => mean.round() as u64,
            ArrivalProcess::Poisson { .. } | ArrivalProcess::Diurnal { .. } => {
                sample_poisson(mean, rng)
            }
        }
    }
}

/// Samples a Poisson-distributed count with the given mean.
///
/// Uses Knuth's product-of-uniforms method for small means and a normal
/// approximation (rounded, clamped at zero) for large means; both are
/// adequate for workload generation.
fn sample_poisson<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    if mean > 30.0 {
        // Normal approximation: sum of 12 uniforms minus 6 ~ N(0,1).
        let z: f64 = (0..12).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() - 6.0;
        return (mean + z * mean.sqrt()).round().max(0.0) as u64;
    }
    let threshold = (-mean).exp();
    let mut count = 0u64;
    let mut product: f64 = 1.0;
    loop {
        product *= rng.gen_range(0.0..1.0_f64);
        if product <= threshold {
            return count;
        }
        count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_rate_is_exact() {
        let p = ArrivalProcess::Constant { rate: 25.0 };
        let mut rng = StdRng::seed_from_u64(1);
        for t in 0..10 {
            assert_eq!(p.arrivals(t, &mut rng), 25);
        }
    }

    #[test]
    fn poisson_mean_is_close_to_rate() {
        let p = ArrivalProcess::Poisson { rate: 12.0 };
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let total: u64 = (0..n).map(|t| p.arrivals(t, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 12.0).abs() < 0.2, "poisson mean {mean}");
    }

    #[test]
    fn large_mean_poisson_uses_normal_approximation_sanely() {
        let p = ArrivalProcess::Poisson { rate: 200.0 };
        let mut rng = StdRng::seed_from_u64(3);
        let n = 5_000;
        let total: u64 = (0..n).map(|t| p.arrivals(t, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 200.0).abs() < 3.0, "large-mean poisson mean {mean}");
    }

    #[test]
    fn diurnal_pattern_peaks_and_troughs() {
        let p = ArrivalProcess::Diurnal {
            base: 50.0,
            amplitude: 30.0,
            period_ticks: 86_400,
        };
        let peak = p.mean_rate(86_400 / 4);
        let trough = p.mean_rate(3 * 86_400 / 4);
        assert!((peak - 80.0).abs() < 1.0);
        assert!((trough - 20.0).abs() < 1.0);
        // Never negative even with amplitude > base.
        let extreme = ArrivalProcess::Diurnal {
            base: 10.0,
            amplitude: 50.0,
            period_ticks: 100,
        };
        assert_eq!(extreme.mean_rate(75), 0.0);
    }

    #[test]
    fn surge_multiplies_rate_inside_window_only() {
        let p = ArrivalProcess::Surge {
            base: 40.0,
            factor: 5.0,
            surge_start: 100,
            surge_end: 200,
        };
        assert_eq!(p.mean_rate(50), 40.0);
        assert_eq!(p.mean_rate(150), 200.0);
        assert_eq!(p.mean_rate(200), 40.0);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(p.arrivals(150, &mut rng), 200);
    }

    #[test]
    fn zero_mean_poisson_yields_zero() {
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(sample_poisson(0.0, &mut rng), 0);
        assert_eq!(sample_poisson(-3.0, &mut rng), 0);
    }
}
