//! Sensitivity analysis of the SCG model (§3.3 of the paper): how the
//! polynomial degree affects the estimated knee.

use crate::{PolyFit, ScgConfig, ScgModel};
use telemetry::ScatterPoint;

/// One row of a degree sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeRow {
    /// The forced polynomial degree.
    pub degree: usize,
    /// The knee found at this degree, if any.
    pub knee: Option<usize>,
    /// Fit RMSE normalised by the goodput range (lower = tighter fit;
    /// suspiciously low at high degrees = chasing noise).
    pub relative_rmse: Option<f64>,
}

/// Sweeps the polynomial degree over `degrees`, forcing each one (no
/// incremental tuning), and reports the knee and fit quality per degree —
/// the experiment behind the paper's observation that degrees 5–8 fit the
/// profiling data while too-low degrees "cannot provide a valid knee point"
/// and too-high ones overfit.
///
/// # Example
///
/// ```
/// use scg::sensitivity::degree_sweep;
/// use telemetry::ScatterPoint;
///
/// let pts: Vec<ScatterPoint> = (1..=30)
///     .flat_map(|q| (0..4).map(move |k| ScatterPoint {
///         q: q as f64,
///         rate: (q as f64).min(8.0) * 100.0 + k as f64,
///     }))
///     .collect();
/// let rows = degree_sweep(&pts, &[2, 5, 8]);
/// assert_eq!(rows.len(), 3);
/// // Mid-range degrees localise the knee near 8.
/// let d5 = rows.iter().find(|r| r.degree == 5).unwrap();
/// assert!(d5.knee.is_some());
/// ```
pub fn degree_sweep(points: &[ScatterPoint], degrees: &[usize]) -> Vec<DegreeRow> {
    let base = ScgModel::default();
    let binned = base.aggregate_counted(points);
    let xs: Vec<f64> = binned.iter().map(|b| b.0).collect();
    let ys: Vec<f64> = binned.iter().map(|b| b.1).collect();
    let range = ys.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        - ys.iter().copied().fold(f64::INFINITY, f64::min);
    degrees
        .iter()
        .map(|&degree| {
            let model = ScgModel::new(ScgConfig {
                min_degree: degree,
                max_degree: degree,
                rmse_tolerance: f64::INFINITY,
            });
            let knee = model.estimate(points).map(|e| e.optimal);
            let relative_rmse = if range > 0.0 {
                PolyFit::fit(&xs, &ys, degree).map(|f| f.rmse(&xs, &ys) / range)
            } else {
                None
            };
            DegreeRow {
                degree,
                knee,
                relative_rmse,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimRng;

    /// A realistic saturating curve with noise, twelve samples per bin.
    fn scatter(seed: u64) -> Vec<ScatterPoint> {
        let mut rng = SimRng::seed_from(seed);
        (1..=30)
            .flat_map(|q| {
                let base = 1_000.0 * (1.0 - (-(q as f64) / 4.0).exp());
                (0..12)
                    .map(|_| ScatterPoint {
                        q: q as f64 + rng.f64() - 0.5,
                        rate: base + (rng.f64() - 0.5) * 60.0,
                    })
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    #[test]
    fn degree_sweep_reports_fit_quality_monotone() {
        let rows = degree_sweep(&scatter(1), &[2, 3, 5, 8]);
        assert_eq!(rows.len(), 4);
        // Higher degrees never fit worse (least squares nests).
        let rmses: Vec<f64> = rows.iter().filter_map(|r| r.relative_rmse).collect();
        assert_eq!(rmses.len(), 4);
        for w in rmses.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "rmse must not grow with degree: {rmses:?}"
            );
        }
        // The paper's working range localises a knee near q0·ln(…) ≈ 6–10.
        let d5 = rows.iter().find(|r| r.degree == 5).unwrap();
        let knee = d5.knee.expect("degree 5 finds the knee");
        assert!((4..=12).contains(&knee), "knee {knee}");
    }
}
