//! Statistical tests and association measures.
//!
//! * `pearson` — the correlation coefficient used by the
//!   correlation-analysis diagnosis to find attributes "correlated strongly
//!   with (or predictive of) a failure-indicator attribute" (Section 4.3.2).
//! * [`chi_square_statistic`] / [`chi_square_test`] — the χ² goodness-of-fit
//!   test the anomaly detector uses to decide whether the current window's
//!   behaviour deviates from the baseline (Example 2: "Deviation can be
//!   detected, e.g., using the χ² statistical test").
//! * [`point_biserial`] — correlation between a continuous metric and a
//!   binary failure indicator (a special case of Pearson used when `Y` is
//!   the SLO-violation flag).

/// Pearson correlation coefficient between two equal-length samples.
///
/// Returns 0.0 when either sample has zero variance or fewer than two
/// observations (no linear association can be estimated).
pub(crate) fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equal-length samples");
    let n = x.len();
    if n < 2 {
        return 0.0;
    }
    let mean_x = x.iter().sum::<f64>() / n as f64;
    let mean_y = y.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for i in 0..n {
        let dx = x[i] - mean_x;
        let dy = y[i] - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x <= f64::EPSILON || var_y <= f64::EPSILON {
        return 0.0;
    }
    cov / (var_x.sqrt() * var_y.sqrt())
}

/// Point-biserial correlation between a continuous sample `x` and a binary
/// indicator `y` (`false`/`true`).  Equivalent to Pearson on the 0/1
/// encoding; provided for readability at call sites.
pub fn point_biserial(x: &[f64], y: &[bool]) -> f64 {
    let encoded: Vec<f64> = y.iter().map(|b| if *b { 1.0 } else { 0.0 }).collect();
    pearson(x, &encoded)
}

/// χ² goodness-of-fit statistic of `observed` counts against `expected`
/// counts.
///
/// Categories with nonpositive expected count are skipped (they carry no
/// information).  Both slices must have the same length.
pub fn chi_square_statistic(observed: &[f64], expected: &[f64]) -> f64 {
    assert_eq!(
        observed.len(),
        expected.len(),
        "chi-square requires equal-length inputs"
    );
    observed
        .iter()
        .zip(expected)
        .filter(|(_, e)| **e > 0.0)
        .map(|(o, e)| (o - e) * (o - e) / e)
        .sum()
}

/// Approximate upper critical value of the χ² distribution with `dof`
/// degrees of freedom at significance `alpha` (supported: 0.05 and 0.01),
/// using the Wilson–Hilferty cube-root normal approximation.
pub(crate) fn chi_square_critical(dof: usize, alpha: f64) -> f64 {
    if dof == 0 {
        return 0.0;
    }
    // Standard normal quantile for the supported significance levels.
    let z = if alpha <= 0.01 {
        2.326_347_87
    } else {
        1.644_853_63
    };
    let k = dof as f64;
    let term = 1.0 - 2.0 / (9.0 * k) + z * (2.0 / (9.0 * k)).sqrt();
    k * term.powi(3)
}

/// χ² goodness-of-fit test: returns `true` when the observed counts deviate
/// significantly (at level `alpha`) from the expected counts.
///
/// Degrees of freedom are `categories - 1` where only categories with a
/// positive expected count are counted.
pub fn chi_square_test(observed: &[f64], expected: &[f64], alpha: f64) -> bool {
    let dof = expected
        .iter()
        .filter(|e| **e > 0.0)
        .count()
        .saturating_sub(1);
    if dof == 0 {
        return false;
    }
    chi_square_statistic(observed, expected) > chi_square_critical(dof, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_detects_perfect_linear_relationships() {
        let x = [1.0, 2.0, 3.0, 4.0, 5.0];
        let y_pos: Vec<f64> = x.iter().map(|v| 2.0 * v + 1.0).collect();
        let y_neg: Vec<f64> = x.iter().map(|v| -3.0 * v).collect();
        assert!((pearson(&x, &y_pos) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &y_neg) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_is_zero_for_constant_or_tiny_samples() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
    }

    #[test]
    fn pearson_near_zero_for_independent_data() {
        // A fixed pseudo-random-ish pattern with no linear trend.
        let x: Vec<f64> = (0..100).map(|i| ((i * 37) % 17) as f64).collect();
        let y: Vec<f64> = (0..100).map(|i| ((i * 53 + 7) % 23) as f64).collect();
        assert!(pearson(&x, &y).abs() < 0.3);
    }

    #[test]
    fn point_biserial_finds_the_discriminating_metric() {
        // Metric is high exactly when the failure flag is set.
        let x = [1.0, 1.2, 0.9, 10.0, 11.0, 10.5];
        let y = [false, false, false, true, true, true];
        assert!(point_biserial(&x, &y) > 0.95);
        let unrelated = [5.0, 5.1, 4.9, 5.0, 5.1, 4.9];
        assert!(point_biserial(&unrelated, &y).abs() < 0.3);
    }

    #[test]
    fn chi_square_statistic_matches_hand_computation() {
        let observed = [50.0, 30.0, 20.0];
        let expected = [40.0, 40.0, 20.0];
        // (10^2/40) + (10^2/40) + 0 = 5.0
        assert!((chi_square_statistic(&observed, &expected) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn chi_square_critical_values_are_close_to_tables() {
        // Textbook values: χ²(0.05, 3) ≈ 7.815, χ²(0.05, 10) ≈ 18.307,
        // χ²(0.01, 5) ≈ 15.086.
        assert!((chi_square_critical(3, 0.05) - 7.815).abs() < 0.15);
        assert!((chi_square_critical(10, 0.05) - 18.307).abs() < 0.25);
        assert!((chi_square_critical(5, 0.01) - 15.086).abs() < 0.3);
    }

    #[test]
    fn chi_square_test_flags_large_deviations_only() {
        let expected = [100.0, 100.0, 100.0, 100.0];
        let small_dev = [105.0, 95.0, 102.0, 98.0];
        let large_dev = [180.0, 20.0, 150.0, 50.0];
        assert!(!chi_square_test(&small_dev, &expected, 0.05));
        assert!(chi_square_test(&large_dev, &expected, 0.05));
    }

    #[test]
    fn chi_square_test_ignores_zero_expected_categories() {
        let expected = [0.0, 0.0];
        let observed = [10.0, 0.0];
        assert!(!chi_square_test(&observed, &expected, 0.05));
        assert_eq!(chi_square_statistic(&observed, &expected), 0.0);
    }
}
