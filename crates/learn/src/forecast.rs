//! Time-series forecasting for proactive healing.
//!
//! Section 5.3 of the paper: "an approach where failures are predicted in
//! advance and fixes applied proactively, can be more attractive.  Such
//! strategies need synopses that can forecast failures."  The proactive
//! controller in `selfheal-core` uses these forecasters to extrapolate a
//! degradation metric (e.g. response time under software aging) and apply a
//! fix *before* the SLO is violated.

/// A forecaster for a univariate series observed one value at a time.
pub trait Forecaster {
    /// Feeds the next observation.
    fn observe(&mut self, value: f64);

    /// Forecasts the value `horizon` steps after the last observation.
    /// Returns `None` until enough observations have been seen.
    fn forecast(&self, horizon: usize) -> Option<f64>;

    /// Number of observations seen so far.
    fn observations(&self) -> usize;
}

/// Ordinary-least-squares linear trend over a sliding window of the most
/// recent observations.
#[derive(Debug, Clone)]
pub struct SlidingLinearTrend {
    window: usize,
    values: Vec<f64>,
    count: usize,
}

impl SlidingLinearTrend {
    /// Creates a forecaster fitting a line to the last `window` observations.
    ///
    /// # Panics
    /// Panics if `window < 2`.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "window must hold at least two observations");
        SlidingLinearTrend {
            window,
            values: Vec::new(),
            count: 0,
        }
    }

    fn fit(&self) -> Option<(f64, f64)> {
        let n = self.values.len();
        if n < 2 {
            return None;
        }
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mean_x = xs.iter().sum::<f64>() / n as f64;
        let mean_y = self.values.iter().sum::<f64>() / n as f64;
        let mut num = 0.0;
        let mut den = 0.0;
        for (x, y) in xs.iter().zip(self.values.iter()) {
            num += (x - mean_x) * (y - mean_y);
            den += (x - mean_x) * (x - mean_x);
        }
        if den <= f64::EPSILON {
            return None;
        }
        let slope = num / den;
        let intercept = mean_y - slope * mean_x;
        Some((slope, intercept))
    }
}

impl Forecaster for SlidingLinearTrend {
    fn observe(&mut self, value: f64) {
        if self.values.len() == self.window {
            self.values.remove(0);
        }
        self.values.push(value);
        self.count += 1;
    }

    fn forecast(&self, horizon: usize) -> Option<f64> {
        let (slope, intercept) = self.fit()?;
        let x = (self.values.len() - 1 + horizon) as f64;
        Some(intercept + slope * x)
    }

    fn observations(&self) -> usize {
        self.count
    }
}

/// Predicts how many steps remain until the series crosses `threshold`
/// (from below), according to `forecaster`.  Returns `None` when no crossing
/// is forecast within `max_horizon` steps.
pub fn steps_until_threshold<F: Forecaster>(
    forecaster: &F,
    threshold: f64,
    max_horizon: usize,
) -> Option<usize> {
    for h in 1..=max_horizon {
        if let Some(v) = forecaster.forecast(h) {
            if v >= threshold {
                return Some(h);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SlidingLinearTrend {
        /// Estimated slope (change per step) over the current window, or
        /// `None` until two observations are available.
        fn slope(&self) -> Option<f64> {
            self.fit().map(|(slope, _)| slope)
        }
    }

    #[test]
    fn sliding_trend_estimates_slope_and_forecasts() {
        let mut t = SlidingLinearTrend::new(10);
        assert!(t.forecast(1).is_none());
        for i in 0..20 {
            t.observe(5.0 + 3.0 * i as f64);
        }
        assert!((t.slope().unwrap() - 3.0).abs() < 1e-9);
        // Window holds observations 10..19 (values 35..62); one step ahead is 65.
        assert!((t.forecast(1).unwrap() - 65.0).abs() < 1e-9);
        assert_eq!(t.observations(), 20);
    }

    #[test]
    fn sliding_trend_on_flat_series_has_zero_slope() {
        let mut t = SlidingLinearTrend::new(5);
        for _ in 0..10 {
            t.observe(7.0);
        }
        assert!(t.slope().unwrap().abs() < 1e-12);
        assert!((t.forecast(100).unwrap() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn steps_until_threshold_detects_upcoming_crossings() {
        let mut t = SlidingLinearTrend::new(10);
        for i in 0..10 {
            t.observe(i as f64); // slope 1, last value 9
        }
        assert_eq!(steps_until_threshold(&t, 12.0, 100), Some(3));
        assert_eq!(steps_until_threshold(&t, 1000.0, 10), None);
        let mut flat = SlidingLinearTrend::new(5);
        for _ in 0..5 {
            flat.observe(1.0);
        }
        assert_eq!(steps_until_threshold(&flat, 2.0, 50), None);
    }

    #[test]
    #[should_panic(expected = "at least two observations")]
    fn sliding_trend_rejects_tiny_window() {
        SlidingLinearTrend::new(1);
    }
}
