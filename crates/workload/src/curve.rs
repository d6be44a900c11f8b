//! Scaling a normalised trace shape to absolute load over a run.

use crate::TraceShape;
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};

/// A trace shape scaled to an absolute peak over a run of fixed duration:
/// `value_at(t) = peak × shape(t / duration)`.
///
/// The closed-loop [`UserPool`](crate::UserPool) reads `peak` as its
/// maximum number of concurrent users. The paper's experiments use
/// 12-minute runs with 3 500 users (Sock Shop Cart) or 4 500 users (Social
/// Network Read-HomeTimeline).
///
/// # Example
///
/// ```
/// use workload::{RateCurve, TraceShape};
/// use sim_core::{SimDuration, SimTime};
///
/// let c = RateCurve::new(TraceShape::BigSpike, 3500.0, SimDuration::from_secs(720));
/// let mid = c.value_at(SimTime::from_secs(360)); // middle of the spike
/// assert!(mid > 3400.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RateCurve {
    shape: TraceShape,
    peak: f64,
    duration: SimDuration,
}

impl RateCurve {
    /// Creates a curve.
    ///
    /// # Panics
    ///
    /// Panics if `peak` is not positive/finite or `duration` is zero.
    pub fn new(shape: TraceShape, peak: f64, duration: SimDuration) -> Self {
        assert!(peak > 0.0 && peak.is_finite(), "peak must be positive");
        assert!(!duration.is_zero(), "duration must be non-zero");
        RateCurve {
            shape,
            peak,
            duration,
        }
    }

    /// The underlying shape.
    pub fn shape(&self) -> TraceShape {
        self.shape
    }

    /// The configured peak.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// The run duration.
    pub fn duration(&self) -> SimDuration {
        self.duration
    }

    /// The absolute load at instant `t` (clamped to the run).
    pub fn value_at(&self, t: SimTime) -> f64 {
        let frac = t.as_nanos() as f64 / self.duration.as_nanos() as f64;
        self.peak * self.shape.level_at(frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_shape_by_peak() {
        let c = RateCurve::new(
            TraceShape::SlowlyVarying,
            1000.0,
            SimDuration::from_secs(100),
        );
        let v = c.value_at(SimTime::from_secs(50));
        assert!((v - 1000.0).abs() < 1.0, "peak of the slow wave: {v}");
        assert!(c.value_at(SimTime::ZERO) < 500.0);
        assert!(c.peak() >= v);
    }

    #[test]
    fn clamps_past_the_end() {
        let c = RateCurve::new(TraceShape::DualPhase, 100.0, SimDuration::from_secs(10));
        let end = c.value_at(SimTime::from_secs(10));
        let beyond = c.value_at(SimTime::from_secs(50));
        assert_eq!(end, beyond);
    }

    #[test]
    #[should_panic(expected = "peak must be positive")]
    fn zero_peak_panics() {
        let _ = RateCurve::new(TraceShape::BigSpike, 0.0, SimDuration::from_secs(1));
    }
}
