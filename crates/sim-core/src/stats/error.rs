//! Forecast-error metrics: MAPE (used by the paper's Table 1) and RMSE.

/// Mean Absolute Percentage Error, in percent.
///
/// `mape(actual, predicted)` = `100/n · Σ |aᵢ − pᵢ| / |aᵢ|`. Entries whose
/// actual value is zero are skipped (the ratio is undefined there), matching
/// the conventional definition the paper cites. Returns `None` when the
/// series have different lengths or no usable entries.
///
/// # Example
///
/// ```
/// use sim_core::stats::mape;
/// let actual = [100.0, 200.0];
/// let predicted = [110.0, 180.0];
/// assert!((mape(&actual, &predicted).unwrap() - 10.0).abs() < 1e-12);
/// ```
pub fn mape(actual: &[f64], predicted: &[f64]) -> Option<f64> {
    if actual.len() != predicted.len() {
        return None;
    }
    let mut sum = 0.0;
    let mut n = 0u32;
    for (&a, &p) in actual.iter().zip(predicted) {
        if a != 0.0 {
            sum += ((a - p) / a).abs();
            n += 1;
        }
    }
    (n > 0).then(|| 100.0 * sum / f64::from(n))
}

/// Root Mean Squared Error. Returns `None` for mismatched lengths or empty input.
pub fn rmse(actual: &[f64], predicted: &[f64]) -> Option<f64> {
    if actual.len() != predicted.len() || actual.is_empty() {
        return None;
    }
    let sum: f64 = actual
        .iter()
        .zip(predicted)
        .map(|(a, p)| (a - p).powi(2))
        .sum();
    Some((sum / actual.len() as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_prediction_is_zero_error() {
        let xs = [1.0, 2.0, 3.0];
        assert_eq!(mape(&xs, &xs), Some(0.0));
        assert_eq!(rmse(&xs, &xs), Some(0.0));
    }

    #[test]
    fn zero_actuals_are_skipped() {
        let m = mape(&[0.0, 100.0], &[5.0, 150.0]).unwrap();
        assert!((m - 50.0).abs() < 1e-12);
        assert_eq!(mape(&[0.0], &[1.0]), None);
    }

    #[test]
    fn mismatched_lengths_are_none() {
        assert_eq!(mape(&[1.0], &[1.0, 2.0]), None);
        assert_eq!(rmse(&[], &[]), None);
        assert_eq!(rmse(&[1.0], &[]), None);
    }

    /// Mean absolute error, the bound RMSE must dominate (Jensen).
    fn mae(actual: &[f64], predicted: &[f64]) -> f64 {
        let sum: f64 = actual
            .iter()
            .zip(predicted)
            .map(|(a, p)| (a - p).abs())
            .sum();
        sum / actual.len() as f64
    }

    #[test]
    fn rmse_dominates_mae() {
        let a = [10.0, 10.0, 10.0];
        let p = [10.0, 10.0, 19.0];
        assert!(rmse(&a, &p).unwrap() >= mae(&a, &p));
    }

    proptest! {
        /// Both metrics are non-negative, and RMSE ≥ MAE (Jensen).
        #[test]
        fn prop_nonnegative(
            pairs in proptest::collection::vec((1e-3f64..1e3, -1e3f64..1e3), 1..100)
        ) {
            let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
            let p: Vec<f64> = pairs.iter().map(|p| p.1).collect();
            prop_assert!(mape(&a, &p).unwrap() >= 0.0);
            let rmse_v = rmse(&a, &p).unwrap();
            prop_assert!(rmse_v + 1e-9 >= mae(&a, &p));
        }
    }
}
