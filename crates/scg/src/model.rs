//! The SCG estimator: scatter aggregation, smoothing, knee extraction.

use crate::{Kneedle, PolyFit};
use telemetry::ScatterPoint;

/// Minimum number of distinct concurrency bins required to estimate: a
/// degree-5 fit (the paper's lowest working degree, §3.3) needs at least
/// that many points to mean anything (DESIGN §7).
const MIN_BINS: usize = 5;

/// Dense evaluation grid size for knee detection on the smoothed curve
/// (DESIGN §7).
const GRID_POINTS: usize = 200;

/// A knee whose smoothed goodput is below this fraction of the curve's
/// maximum is rejected: such a "knee" means the service never saturated in
/// the window (an under-allocated pool blurs the knee, §3.2), so the
/// framework keeps exploring instead of trusting it (DESIGN §7).
const MIN_KNEE_RATE_FRACTION: f64 = 0.75;

/// Concurrency bins observed fewer than this many times are dropped: they
/// are transient extremes with unreliable goodput averages (DESIGN §7).
const MIN_BIN_SAMPLES: u64 = 3;

/// Tuning of the SCG estimation phase's incremental degree search (§3.3).
#[derive(Debug, Clone, Copy)]
pub struct ScgConfig {
    /// Smallest polynomial degree to try (the paper finds 5–8 fits well).
    pub min_degree: usize,
    /// Largest polynomial degree to try; higher overfits noise (§3.3).
    pub max_degree: usize,
    /// Accept the first degree whose RMSE is below this fraction of the
    /// goodput range (the paper's "minimum polynomial degree that matches
    /// the profiling data").
    pub rmse_tolerance: f64,
}

impl Default for ScgConfig {
    fn default() -> Self {
        ScgConfig {
            min_degree: 5,
            max_degree: 8,
            rmse_tolerance: 0.08,
        }
    }
}

/// The model's output: the recommended concurrency setting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConcurrencyEstimate {
    /// The optimal concurrency (knee of the main-sequence curve), ≥ 1.
    pub optimal: usize,
    /// The smoothed goodput at the knee (requests/second).
    pub rate_at_optimal: f64,
    /// Distinct concurrency bins that informed the estimate.
    pub bins: usize,
    /// Polynomial degree selected by incremental tuning.
    pub degree: usize,
}

/// The Scatter-Concurrency-Goodput estimator.
///
/// Feed it the `<Q, GP>` scatter of the critical service (built by
/// [`telemetry::build_scatter`] with the propagated deadline as threshold)
/// and it returns the knee of the main-sequence curve. Feeding throughput
/// pairs instead (from [`telemetry::build_scatter_throughput`]) turns it
/// into ConScale's SCT model — the two models differ only in their input,
/// exactly as the paper describes.
///
/// # Example
///
/// ```
/// use scg::{ScgConfig, ScgModel};
/// use telemetry::ScatterPoint;
///
/// // Synthetic main-sequence curve: linear rise, flat after q = 10
/// // (three samples per concurrency bin, as the 100 ms sampler produces).
/// let pts: Vec<ScatterPoint> = (1..=30)
///     .flat_map(|q| {
///         (0..3).map(move |k| ScatterPoint {
///             q: q as f64,
///             rate: (q as f64).min(10.0) * 100.0 + k as f64,
///         })
///     })
///     .collect();
/// let est = ScgModel::new(ScgConfig::default()).estimate(&pts).unwrap();
/// assert!((8..=13).contains(&est.optimal), "knee near 10, got {}", est.optimal);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScgModel {
    config: ScgConfig,
}

impl ScgModel {
    /// Creates a model with the given tuning.
    pub fn new(config: ScgConfig) -> Self {
        ScgModel { config }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ScgConfig {
        &self.config
    }

    /// Aggregates raw scatter points into per-integer-concurrency bins:
    /// the paper's "for a specific server concurrency Qₙ we calculate the
    /// average goodput GPₙ". Returns sorted `(q, mean_rate)` pairs (bins
    /// below `MIN_BIN_SAMPLES` are dropped).
    pub fn aggregate(&self, points: &[ScatterPoint]) -> Vec<(f64, f64)> {
        self.aggregate_counted(points)
            .into_iter()
            .map(|(q, rate, _)| (q, rate))
            .collect()
    }

    /// Like [`ScgModel::aggregate`] but also returns each bin's sample
    /// count, used to weight the curve fit.
    pub fn aggregate_counted(&self, points: &[ScatterPoint]) -> Vec<(f64, f64, u64)> {
        let mut out = Vec::new();
        self.aggregate_counted_into(points, &mut out);
        out
    }

    /// [`ScgModel::aggregate_counted`] into a caller-owned buffer (cleared
    /// first). The buffer doubles as the dense accumulation table — keyed
    /// by rounded concurrency, compacted in place — so a caller that holds
    /// it across ticks rebuilds the bins with zero allocation instead of a
    /// fresh `BTreeMap` per estimate. Rates accumulate in point order
    /// within each bin, exactly as the map-based fold did.
    pub fn aggregate_counted_into(&self, points: &[ScatterPoint], out: &mut Vec<(f64, f64, u64)>) {
        out.clear();
        let valid = |p: &ScatterPoint| p.q.is_finite() && p.rate.is_finite() && p.q >= 0.5;
        let mut max_key = 0u64;
        let mut any = false;
        for p in points {
            if valid(p) {
                // Idle samples (q < 0.5) carry no concurrency signal.
                max_key = max_key.max(p.q.round() as u64);
                any = true;
            }
        }
        if !any {
            return;
        }
        out.resize((max_key + 1) as usize, (0.0, 0.0, 0));
        for p in points {
            if valid(p) {
                let e = &mut out[p.q.round() as usize];
                e.1 += p.rate;
                e.2 += 1;
            }
        }
        let mut w = 0;
        for key in 0..out.len() {
            let (_, sum, n) = out[key];
            if n >= MIN_BIN_SAMPLES {
                out[w] = (key as f64, sum / n as f64, n);
                w += 1;
            }
        }
        out.truncate(w);
    }

    /// Estimates the optimal concurrency from a scatter window.
    ///
    /// Returns `None` when the data is insufficient (too few distinct
    /// concurrency levels) or exhibits no knee — the signal for the
    /// framework to keep exploring by gradually raising the allocation
    /// (§3.2, Metrics Collection Phase).
    pub fn estimate(&self, points: &[ScatterPoint]) -> Option<ConcurrencyEstimate> {
        self.estimate_binned(&self.aggregate_counted(points))
    }

    /// Estimates from pre-aggregated `(q, mean_rate, samples)` bins — the
    /// entry point for callers that already hold the window's bins (built
    /// once via [`ScgModel::aggregate_counted_into`] from the window's
    /// scatter) and skips re-binning the raw scatter per estimate.
    pub fn estimate_binned(&self, binned: &[(f64, f64, u64)]) -> Option<ConcurrencyEstimate> {
        if binned.len() < MIN_BINS {
            return None;
        }
        let xs: Vec<f64> = binned.iter().map(|b| b.0).collect();
        let ys: Vec<f64> = binned.iter().map(|b| b.1).collect();
        let ws: Vec<f64> = binned.iter().map(|b| b.2 as f64).collect();
        let y_range = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - ys.iter().copied().fold(f64::INFINITY, f64::min);
        if y_range <= 0.0 {
            return None;
        }
        // Incremental degree tuning, exactly as §3.3 describes: find the
        // *minimum* polynomial degree that both fits the profiling data and
        // yields a valid knee — a too-low degree smooths the knee away, a
        // too-high one fits noise (and is never reached once a lower degree
        // works).
        let max_deg = self.config.max_degree.min(xs.len().saturating_sub(2));
        let (x0, x1) = (xs[0], *xs.last().expect("non-empty"));
        let n = GRID_POINTS;
        // The published Kneedle sensitivity, S = 1.
        let detector = Kneedle::default();
        for degree in self.config.min_degree.min(max_deg)..=max_deg {
            let Some(fit) = PolyFit::fit_weighted(&xs, &ys, Some(&ws), degree) else {
                continue;
            };
            if fit.rmse(&xs, &ys) > self.config.rmse_tolerance * y_range {
                continue; // does not match the profiling data
            }
            // Dense evaluation of the smoothed curve, clamped non-negative.
            let gx: Vec<f64> = (0..n)
                .map(|i| x0 + (x1 - x0) * i as f64 / (n - 1) as f64)
                .collect();
            let gy: Vec<f64> = gx.iter().map(|&x| fit.eval(x).max(0.0)).collect();
            let Some(knee) = detector.detect(&gx, &gy) else {
                continue; // this degree provides no valid knee point
            };
            let optimal = knee.round().max(1.0) as usize;
            let rate_at_optimal = fit.eval(optimal as f64).max(0.0);
            let grid_max = gy.iter().copied().fold(0.0f64, f64::max);
            if rate_at_optimal < MIN_KNEE_RATE_FRACTION * grid_max {
                continue; // knee far below the peak: unsaturated window
            }
            return Some(ConcurrencyEstimate {
                optimal,
                rate_at_optimal,
                bins: xs.len(),
                degree,
            });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimRng;

    /// Scatter points along `rate = plateau·(1 − exp(−q/q0))` with noise —
    /// a realistic main-sequence curve whose knee sits a little past q0.
    fn saturating_scatter(q_max: u32, q0: f64, plateau: f64, noise: f64) -> Vec<ScatterPoint> {
        let mut rng = SimRng::seed_from(11);
        let mut pts = Vec::new();
        for q in 1..=q_max {
            for _ in 0..20 {
                let clean = plateau * (1.0 - (-(q as f64) / q0).exp());
                let jitter = (rng.f64() - 0.5) * 2.0 * noise * plateau;
                pts.push(ScatterPoint {
                    q: q as f64 + rng.f64() - 0.5,
                    rate: (clean + jitter).max(0.0),
                });
            }
        }
        pts
    }

    #[test]
    fn recovers_knee_of_saturating_curve() {
        let pts = saturating_scatter(30, 4.0, 1000.0, 0.03);
        let est = ScgModel::default().estimate(&pts).unwrap();
        assert!(
            (4..=12).contains(&est.optimal),
            "knee should sit a bit past q0 = 4, got {}",
            est.optimal
        );
        assert!(est.rate_at_optimal > 500.0);
        assert!((5..=8).contains(&est.degree), "degree tuning range");
    }

    #[test]
    fn rise_then_fall_curve_peaks() {
        // Over-allocation regime: goodput declines past the optimum.
        let pts: Vec<ScatterPoint> = (1..=40)
            .flat_map(|q| {
                let rate = if q <= 10 {
                    q as f64 * 100.0
                } else {
                    1000.0 - (q - 10) as f64 * 25.0
                };
                (0..5).map(move |k| ScatterPoint {
                    q: q as f64,
                    rate: rate + k as f64,
                })
            })
            .collect();
        let est = ScgModel::default().estimate(&pts).unwrap();
        assert!((8..=14).contains(&est.optimal), "got {}", est.optimal);
    }

    #[test]
    fn too_few_bins_yield_none() {
        let pts: Vec<ScatterPoint> = (1..=3)
            .map(|q| ScatterPoint {
                q: q as f64,
                rate: q as f64,
            })
            .collect();
        assert_eq!(ScgModel::default().estimate(&pts), None);
    }

    #[test]
    fn flat_scatter_yields_none() {
        let pts: Vec<ScatterPoint> = (1..=20)
            .map(|q| ScatterPoint {
                q: q as f64,
                rate: 100.0,
            })
            .collect();
        assert_eq!(ScgModel::default().estimate(&pts), None);
    }

    #[test]
    fn linear_unsaturated_scatter_yields_none() {
        // Concurrency never saturated the service: no knee → explore more.
        let pts = saturating_scatter(5, 50.0, 1000.0, 0.01);
        assert_eq!(ScgModel::default().estimate(&pts), None);
    }

    #[test]
    fn aggregation_averages_per_bin_and_drops_idle() {
        let pts = vec![
            ScatterPoint { q: 1.2, rate: 10.0 },
            ScatterPoint { q: 0.9, rate: 20.0 },
            ScatterPoint { q: 1.0, rate: 30.0 },
            ScatterPoint { q: 0.1, rate: 99.0 }, // idle-ish: dropped
            ScatterPoint { q: 2.0, rate: 30.0 },
            ScatterPoint { q: 2.2, rate: 40.0 },
            ScatterPoint { q: 1.8, rate: 50.0 },
        ];
        let model = ScgModel::default();
        assert_eq!(model.aggregate(&pts), vec![(1.0, 20.0), (2.0, 40.0)]);
        // Bins need 3 samples: drop one and its bin goes.
        let sparse = model.aggregate(&pts[..pts.len() - 1]);
        assert_eq!(sparse, vec![(1.0, 20.0)], "two-sample bin dropped");
    }

    #[test]
    fn threshold_changes_shift_the_knee() {
        // Emulate the paper's Fig. 7: with a tight threshold the goodput
        // peaks at lower concurrency and declines; with a loose one it
        // saturates later. The knee must move right as the threshold loosens.
        let tight: Vec<ScatterPoint> = (1..=30)
            .flat_map(|q| {
                let rate = if q <= 6 {
                    q as f64 * 150.0
                } else {
                    900.0 - (q - 6) as f64 * 40.0
                };
                (0..8).map(move |k| ScatterPoint {
                    q: q as f64,
                    rate: rate.max(0.0) + k as f64,
                })
            })
            .collect();
        let loose: Vec<ScatterPoint> = (1..=30)
            .flat_map(|q| {
                let rate = (q as f64).min(15.0) * 100.0;
                (0..8).map(move |k| ScatterPoint {
                    q: q as f64,
                    rate: rate + k as f64,
                })
            })
            .collect();
        let m = ScgModel::default();
        let k_tight = m.estimate(&tight).unwrap().optimal;
        let k_loose = m.estimate(&loose).unwrap().optimal;
        assert!(k_tight < k_loose, "tight {k_tight} vs loose {k_loose}");
    }
}
