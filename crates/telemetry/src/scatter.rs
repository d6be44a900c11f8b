//! Scatter-graph construction: pairing concurrency with goodput per bucket.

use crate::{CompletionLog, ConcurrencyTracker};
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};

/// One sampled point of the concurrency–goodput (or –throughput) scatter
/// graph: the time-weighted average concurrency `q` during one sampling
/// bucket and the completion rate `rate` (requests/second) observed in the
/// same bucket.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// Average in-service concurrency during the bucket.
    pub q: f64,
    /// Completion rate in requests per second (goodput or throughput,
    /// depending on the builder used).
    pub rate: f64,
}

/// Builds the SCG model's input: `<Q_n, GP_n>` pairs sampled at `interval`
/// granularity over `[from, to)`, counting only completions whose response
/// time is within `threshold` (goodput).
///
/// Empty buckets (no concurrency and no completions) are skipped — they
/// carry no information about the concurrency–goodput relationship and
/// would drag curve fitting toward the origin.
///
/// # Example
///
/// ```
/// use telemetry::{build_scatter, CompletionLog, ConcurrencyTracker};
/// use sim_core::{SimDuration, SimTime};
///
/// let mut conc = ConcurrencyTracker::new(SimDuration::from_secs(60));
/// let mut log = CompletionLog::new(SimDuration::from_secs(60));
/// conc.enter(SimTime::ZERO);
/// log.record(SimTime::from_millis(50), SimDuration::from_millis(5));
/// conc.leave(SimTime::from_millis(50));
/// let pts = build_scatter(&conc, &log,
///     SimTime::ZERO, SimTime::from_millis(100),
///     SimDuration::from_millis(100), SimDuration::from_millis(10));
/// assert_eq!(pts.len(), 1);
/// assert!((pts[0].q - 0.5).abs() < 1e-9);
/// assert!((pts[0].rate - 10.0).abs() < 1e-9); // 1 completion / 0.1 s
/// ```
pub fn build_scatter(
    concurrency: &ConcurrencyTracker,
    completions: &CompletionLog,
    from: SimTime,
    to: SimTime,
    interval: SimDuration,
    threshold: SimDuration,
) -> Vec<ScatterPoint> {
    let mut scratch = ScatterScratch::default();
    let mut out = Vec::new();
    build_scatter_into(
        concurrency,
        completions,
        from,
        to,
        interval,
        Some(threshold),
        &mut scratch,
        &mut out,
    );
    out
}

/// Like [`build_scatter`] but counts *all* completions — the
/// Scatter-Concurrency-Throughput (SCT) variant used by ConScale.
pub fn build_scatter_throughput(
    concurrency: &ConcurrencyTracker,
    completions: &CompletionLog,
    from: SimTime,
    to: SimTime,
    interval: SimDuration,
) -> Vec<ScatterPoint> {
    let mut scratch = ScatterScratch::default();
    let mut out = Vec::new();
    build_scatter_into(
        concurrency,
        completions,
        from,
        to,
        interval,
        None,
        &mut scratch,
        &mut out,
    );
    out
}

/// Reusable buffers for [`build_scatter_into`]: per-bucket concurrency
/// averages and completion counts. Controllers hold one of these across
/// ticks so scatter construction allocates nothing in steady state.
#[derive(Debug, Clone, Default)]
pub struct ScatterScratch {
    qs: Vec<f64>,
    counts: Vec<(u64, u64)>,
}

/// Zero-allocation scatter construction: appends one point per non-empty
/// bucket of `[from, to)` to `out` (which is *not* cleared, so per-replica
/// graphs can be overlaid into one buffer). `threshold = Some(d)` builds
/// the goodput (SCG) variant, `None` the throughput (SCT) variant.
#[allow(clippy::too_many_arguments)]
pub fn build_scatter_into(
    concurrency: &ConcurrencyTracker,
    completions: &CompletionLog,
    from: SimTime,
    to: SimTime,
    interval: SimDuration,
    threshold: Option<SimDuration>,
    scratch: &mut ScatterScratch,
    out: &mut Vec<ScatterPoint>,
) {
    assert!(!interval.is_zero(), "sampling interval must be non-zero");
    concurrency.bucket_averages_into(from, to, interval, &mut scratch.qs);
    completions.bucket_counts_into(
        from,
        to,
        interval,
        threshold.unwrap_or(SimDuration::MAX),
        &mut scratch.counts,
    );
    push_points(&scratch.qs, &scratch.counts, interval, threshold, out);
}

/// Appends one point per non-empty bucket: `qs[i]` against bucket `i`'s
/// good (`threshold = Some`) or total (`None`) completions per second.
pub(crate) fn push_points(
    qs: &[f64],
    counts: &[(u64, u64)],
    interval: SimDuration,
    threshold: Option<SimDuration>,
    out: &mut Vec<ScatterPoint>,
) {
    let secs = interval.as_secs_f64();
    for (&q, &(total, good)) in qs.iter().zip(counts) {
        if q > 0.0 || total > 0 {
            let n = if threshold.is_some() { good } else { total };
            out.push(ScatterPoint {
                q,
                rate: n as f64 / secs,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }
    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    fn setup() -> (ConcurrencyTracker, CompletionLog) {
        let mut conc = ConcurrencyTracker::new(SimDuration::from_secs(600));
        let mut log = CompletionLog::new(SimDuration::from_secs(600));
        // Bucket 0: two concurrent fast requests.
        conc.enter(t(0));
        conc.enter(t(0));
        log.record(t(80), d(80));
        conc.leave(t(80));
        log.record(t(90), d(90));
        conc.leave(t(90));
        // Bucket 1: idle.
        // Bucket 2: one slow request (400 ms rt).
        conc.enter(t(200));
        log.record(t(280), d(400));
        conc.leave(t(280));
        (conc, log)
    }

    #[test]
    fn goodput_scatter_filters_slow_requests() {
        let (conc, log) = setup();
        let pts = build_scatter(&conc, &log, t(0), t(300), d(100), d(100));
        assert_eq!(pts.len(), 2, "idle bucket skipped");
        // Bucket 0: q = (2*80 + 1*10)/100 = 1.7, rate = 2/0.1 = 20.
        assert!((pts[0].q - 1.7).abs() < 1e-9);
        assert!((pts[0].rate - 20.0).abs() < 1e-9);
        // Bucket 2: completion had rt 400 ms > 100 ms threshold → goodput 0.
        assert!((pts[1].rate - 0.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_scatter_counts_everything() {
        let (conc, log) = setup();
        let pts = build_scatter_throughput(&conc, &log, t(0), t(300), d(100));
        assert_eq!(pts.len(), 2);
        assert!((pts[1].rate - 10.0).abs() < 1e-9); // slow request counts
    }

    #[test]
    fn goodput_never_exceeds_throughput() {
        let (conc, log) = setup();
        let gp = build_scatter(&conc, &log, t(0), t(300), d(100), d(50));
        let tp = build_scatter_throughput(&conc, &log, t(0), t(300), d(100));
        for (g, t_) in gp.iter().zip(&tp) {
            assert!(g.rate <= t_.rate + 1e-12);
            assert_eq!(g.q, t_.q);
        }
    }
}
