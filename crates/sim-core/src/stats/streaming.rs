//! Welford's online mean/variance accumulator.

use serde::{Deserialize, Serialize};

/// Numerically stable streaming mean / variance / extrema.
///
/// Uses Welford's algorithm so it can absorb millions of latency samples
/// without loss of precision and without storing them.
///
/// # Example
///
/// ```
/// use sim_core::stats::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Absorbs one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (a NaN sample would silently poison every
    /// subsequent statistic).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN sample");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of absorbed samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no samples have been absorbed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sample mean, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`), or 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Smallest absorbed sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest absorbed sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_stats_are_zeroish() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_sample() {
        let s: OnlineStats = [3.5].into_iter().collect();
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
        assert_eq!(s.population_variance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN sample")]
    fn nan_panics() {
        OnlineStats::new().push(f64::NAN);
    }

    proptest! {
        /// Streaming results match the two-pass textbook formulas.
        #[test]
        fn prop_matches_two_pass(xs in proptest::collection::vec(-1e6f64..1e6, 1..500)) {
            let s: OnlineStats = xs.iter().copied().collect();
            let n = xs.len() as f64;
            let mean = xs.iter().sum::<f64>() / n;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
            prop_assert!((s.population_variance() - var).abs() < 1e-4 * (1.0 + var));
        }

        /// Merging two accumulators equals accumulating the concatenation.
        #[test]
        fn prop_merge_equals_concat(
            xs in proptest::collection::vec(-1e3f64..1e3, 0..100),
            ys in proptest::collection::vec(-1e3f64..1e3, 0..100),
        ) {
            let mut a: OnlineStats = xs.iter().copied().collect();
            let b: OnlineStats = ys.iter().copied().collect();
            a.merge(&b);
            let c: OnlineStats = xs.iter().chain(ys.iter()).copied().collect();
            prop_assert_eq!(a.count(), c.count());
            prop_assert!((a.mean() - c.mean()).abs() < 1e-8 * (1.0 + c.mean().abs()));
            prop_assert!((a.population_variance() - c.population_variance()).abs()
                < 1e-6 * (1.0 + c.population_variance()));
        }
    }
}
