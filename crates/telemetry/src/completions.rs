//! Per-service completion log: response times with time-horizon eviction.

use sim_core::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Granularity of the cutoff beyond which [`CompletionLog::record`] drops a
/// late sample: whole 10 ms buckets, counted back from the newest entry's.
const LATE_BUCKET_NANOS: u64 = 10_000_000;

/// A bounded log of `(completion_time, response_time)` pairs for one
/// service.
///
/// This is the `GP_n` half of the SCG model's `<Q_n, GP_n>` pairs: because
/// the response-time *threshold* is chosen later (by deadline propagation),
/// the log stores raw response times and computes goodput for any threshold
/// on demand, rather than committing to a threshold at ingest.
///
/// Windowed queries scan the retained entries: a binary search finds each
/// end of the window, so a query reads only the entries inside it, and
/// bucketed queries walk bucket boundaries with a running index.
///
/// # Example
///
/// ```
/// use telemetry::CompletionLog;
/// use sim_core::{SimDuration, SimTime};
///
/// let mut log = CompletionLog::new(SimDuration::from_secs(60));
/// log.record(SimTime::from_millis(10), SimDuration::from_millis(4));
/// log.record(SimTime::from_millis(20), SimDuration::from_millis(40));
/// let good = log.goodput_in(SimTime::ZERO, SimTime::from_millis(100),
///                           SimDuration::from_millis(10));
/// assert_eq!(good, 1); // only the 4 ms completion beat the 10 ms threshold
/// ```
#[derive(Debug, Clone)]
pub struct CompletionLog {
    horizon: SimDuration,
    entries: VecDeque<(SimTime, SimDuration)>,
}

impl CompletionLog {
    /// Creates a log retaining `horizon` of history.
    pub fn new(horizon: SimDuration) -> Self {
        CompletionLog {
            horizon,
            entries: VecDeque::new(),
        }
    }

    /// Records a completion at `t` with response time `rt`.
    ///
    /// The fast path appends: the function-edge simulator emits completions
    /// in time order. Under a simulated network, telemetry reports can be
    /// delayed past each other and arrive *out of order*; a late sample is
    /// sorted into place (keeping window queries exact) if it is no older
    /// than the retention horizon plus a bucket of slack, and silently
    /// discarded otherwise — a report that stale would have been evicted
    /// already had it arrived on time.
    pub fn record(&mut self, t: SimTime, rt: SimDuration) {
        match self.entries.back() {
            Some(&(last, _)) if t < last => return self.record_late(t, rt),
            _ => {}
        }
        self.entries.push_back((t, rt));
        self.evict(t);
    }

    /// Sorted-insert path for a completion that arrived after a newer one.
    ///
    /// The sample is kept when its 10 ms bucket is one of the
    /// `horizon / 10 ms + 2` buckets that end at the newest entry's, and
    /// dropped otherwise. Eviction is not re-run (the newest timestamp has
    /// not advanced).
    fn record_late(&mut self, t: SimTime, rt: SimDuration) {
        let newest = self.entries.back().expect("a late sample follows one").0;
        let kept_buckets = self.horizon.as_nanos() / LATE_BUCKET_NANOS + 2;
        let oldest_kept = (newest.as_nanos() / LATE_BUCKET_NANOS + 1).saturating_sub(kept_buckets);
        if t.as_nanos() / LATE_BUCKET_NANOS < oldest_kept {
            return; // beyond retention: would already have been evicted
        }
        let at = self.entries.partition_point(|&(et, _)| et <= t);
        self.entries.insert(at, (t, rt));
    }

    fn evict(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(SimTime::ZERO);
        if elapsed <= self.horizon {
            return;
        }
        let cutoff = SimTime::ZERO + (elapsed - self.horizon);
        while let Some(&(t, _)) = self.entries.front() {
            if t < cutoff {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    /// Time of the most recent retained completion, if any — the freshness
    /// signal controllers use to detect telemetry staleness.
    pub fn latest(&self) -> Option<SimTime> {
        self.entries.back().map(|&(t, _)| t)
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Completions in `[from, to)`.
    pub fn count_in(&self, from: SimTime, to: SimTime) -> u64 {
        self.iter_window(from, to).count() as u64
    }

    /// Completions in `[from, to)` with response time ≤ `threshold`.
    pub fn goodput_in(&self, from: SimTime, to: SimTime, threshold: SimDuration) -> u64 {
        self.iter_window(from, to)
            .filter(|&&(_, rt)| rt <= threshold)
            .count() as u64
    }

    /// Iterates `(time, response_time)` entries in `[from, to)`.
    pub fn iter_window(
        &self,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &(SimTime, SimDuration)> + '_ {
        // Entries are time-ordered; binary search both ends.
        let start = self.entries.partition_point(|&(t, _)| t < from);
        let end = self.entries.partition_point(|&(t, _)| t < to);
        self.entries.range(start..end)
    }

    /// Per-bucket `(completions, good_completions)` counts over `[from, to)`.
    pub fn bucket_counts(
        &self,
        from: SimTime,
        to: SimTime,
        width: SimDuration,
        threshold: SimDuration,
    ) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.bucket_counts_into(from, to, width, threshold, &mut out);
        out
    }

    /// [`CompletionLog::bucket_counts`] into a caller-owned buffer (cleared
    /// first) — the zero-allocation path for per-tick callers that reuse
    /// scratch.
    pub fn bucket_counts_into(
        &self,
        from: SimTime,
        to: SimTime,
        width: SimDuration,
        threshold: SimDuration,
        out: &mut Vec<(u64, u64)>,
    ) {
        assert!(!width.is_zero(), "bucket width must be non-zero");
        out.clear();
        let w = width.as_nanos();
        let n = to.saturating_since(from).as_nanos() / w;
        if n == 0 {
            return;
        }
        out.resize(n as usize, (0, 0));
        // The bucket the current entry falls in, and where it ends: entries
        // are time-ordered, so the index only counts up.
        let (mut idx, mut bucket_end) = (0, from.as_nanos() + w);
        for &(t, rt) in self.iter_window(from, from + width * n) {
            while bucket_end <= t.as_nanos() {
                idx += 1;
                bucket_end += w;
            }
            out[idx].0 += 1;
            if rt <= threshold {
                out[idx].1 += 1;
            }
        }
    }
}

/// The straight scan the bucketed query replaced — one division per entry
/// — kept as the reference the property tests in `scan_equivalence.rs`
/// hold it to.
#[cfg(test)]
impl CompletionLog {
    pub(crate) fn reference_bucket_counts(
        &self,
        from: SimTime,
        to: SimTime,
        width: SimDuration,
        threshold: SimDuration,
    ) -> Vec<(u64, u64)> {
        let n = (to.saturating_since(from).as_nanos() / width.as_nanos()) as usize;
        let mut out = vec![(0u64, 0u64); n];
        for &(t, rt) in self.iter_window(from, from + width * n as u64) {
            let idx = ((t - from).as_nanos() / width.as_nanos()) as usize;
            out[idx].0 += 1;
            if rt <= threshold {
                out[idx].1 += 1;
            }
        }
        out
    }

    /// `(completions, good completions)` in `[from, to)`, by a linear pass
    /// over every retained entry.
    pub(crate) fn reference_counts(
        &self,
        from: SimTime,
        to: SimTime,
        threshold: SimDuration,
    ) -> (u64, u64) {
        let inside = || self.entries.iter().filter(|&&(t, _)| from <= t && t < to);
        (
            inside().count() as u64,
            inside().filter(|&&(_, rt)| rt <= threshold).count() as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }
    fn d(ms: u64) -> SimDuration {
        SimDuration::from_millis(ms)
    }

    #[test]
    fn goodput_respects_threshold() {
        let mut log = CompletionLog::new(SimDuration::from_secs(60));
        log.record(t(1), d(5));
        log.record(t(2), d(15));
        log.record(t(3), d(10));
        assert_eq!(log.count_in(t(0), t(10)), 3);
        assert_eq!(log.goodput_in(t(0), t(10), d(10)), 2); // 5 and 10 (inclusive)
        assert_eq!(log.goodput_in(t(0), t(10), d(4)), 0);
    }

    #[test]
    fn window_bounds_are_half_open() {
        let mut log = CompletionLog::new(SimDuration::from_secs(60));
        log.record(t(10), d(1));
        log.record(t(20), d(1));
        assert_eq!(log.count_in(t(10), t(20)), 1);
        assert_eq!(log.count_in(t(0), t(10)), 0);
    }

    #[test]
    fn horizon_evicts() {
        let mut log = CompletionLog::new(d(100));
        log.record(t(10), d(1));
        log.record(t(200), d(1)); // cutoff at 100 ms → first entry dropped
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn bucket_counts_partition() {
        let mut log = CompletionLog::new(SimDuration::from_secs(60));
        log.record(t(50), d(5));
        log.record(t(150), d(50));
        log.record(t(160), d(5));
        let buckets = log.bucket_counts(t(0), t(200), d(100), d(10));
        assert_eq!(buckets, vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn late_record_is_sorted_into_place() {
        let mut log = CompletionLog::new(SimDuration::from_secs(60));
        log.record(t(10), d(1));
        log.record(t(30), d(20));
        log.record(t(20), d(1)); // late arrival
        assert_eq!(log.len(), 3);
        assert_eq!(log.latest(), Some(t(30)), "latest() ignores late inserts");
        let times: Vec<u64> = log
            .iter_window(t(0), t(100))
            .map(|&(et, _)| et.as_millis())
            .collect();
        assert_eq!(times, [10, 20, 30], "entries stay time-sorted");
        assert_eq!(log.count_in(t(20), t(30)), 1);
        assert_eq!(log.goodput_in(t(0), t(100), d(10)), 2);
    }

    #[test]
    fn late_record_beyond_retention_is_discarded() {
        let mut log = CompletionLog::new(d(100));
        log.record(t(10), d(1));
        log.record(t(500), d(1)); // evicts the 10 ms entry
        log.record(t(10), d(1)); // far staler than the horizon: dropped
        assert_eq!(log.len(), 1);
        assert_eq!(log.count_in(t(0), t(1000)), 1);
    }

    /// The late-sample cutoff in 10 ms buckets: with a 1 s horizon and the
    /// newest entry in bucket 500, the `1 s / 10 ms + 2 = 102` kept buckets
    /// are 399..=500, so a sample in bucket 399 is kept (although eviction
    /// would drop it at the next on-time record) and one in bucket 398 is
    /// dropped.
    #[test]
    fn late_record_cutoff_is_whole_buckets_back_from_the_newest() {
        let mut log = CompletionLog::new(SimDuration::from_secs(1));
        log.record(t(5_005), d(1));
        assert_eq!(log.len(), 1);
        log.record(SimTime::from_nanos(3_990_000_000), d(2)); // first ns of bucket 399
        assert_eq!(log.len(), 2, "one bucket inside the cutoff is kept");
        log.record(SimTime::from_nanos(3_989_999_999), d(3)); // last ns of bucket 398
        assert_eq!(log.len(), 2, "one bucket outside the cutoff is dropped");
        assert_eq!(log.count_in(t(3_980), t(4_000)), 1);
        assert_eq!(log.goodput_in(t(3_980), t(4_000), d(2)), 1);
        log.record(t(5_006), d(1)); // eviction cutoff 4 006 ms
        assert_eq!(log.len(), 2, "the kept late sample is evicted on time");
    }

    #[test]
    fn scan_matches_reference_with_late_inserts() {
        let mut log = CompletionLog::new(d(500));
        for i in 0..100u64 {
            log.record(t(1000 + i * 7), SimDuration::from_micros(i * 997 % 40_000));
            if i.is_multiple_of(5) {
                // A telemetry report delayed past its peers.
                log.record(t(990 + i * 7), SimDuration::from_micros(i * 131 % 40_000));
            }
        }
        let (f, to) = (t(1200), t(1600));
        for thr_ms in [5u64, 20] {
            assert_eq!(
                log.bucket_counts(f, to, d(50), d(thr_ms)),
                log.reference_bucket_counts(f, to, d(50), d(thr_ms)),
                "threshold {thr_ms}"
            );
            assert_eq!(
                (log.count_in(f, to), log.goodput_in(f, to, d(thr_ms))),
                log.reference_counts(f, to, d(thr_ms))
            );
        }
    }

    #[test]
    fn scan_matches_reference_across_thresholds_and_eviction() {
        let mut log = CompletionLog::new(d(500));
        for i in 0..300u64 {
            log.record(t(i * 7), SimDuration::from_micros(i * 997 % 40_000));
        }
        for thr_ms in [5u64, 20, 5, 33] {
            let (f, to) = (t(1700), t(2100));
            assert_eq!(
                log.bucket_counts(f, to, d(50), d(thr_ms)),
                log.reference_bucket_counts(f, to, d(50), d(thr_ms)),
                "threshold {thr_ms}"
            );
            assert_eq!(
                (log.count_in(f, to), log.goodput_in(f, to, d(thr_ms))),
                log.reference_counts(f, to, d(thr_ms))
            );
        }
        // A window straddling the evicted region.
        assert_eq!(
            log.bucket_counts(t(0), t(2100), d(100), d(10)),
            log.reference_bucket_counts(t(0), t(2100), d(100), d(10))
        );
        assert_eq!(
            (
                log.count_in(t(0), t(2100)),
                log.goodput_in(t(0), t(2100), d(10))
            ),
            log.reference_counts(t(0), t(2100), d(10))
        );
    }

    proptest! {
        /// Goodput never exceeds throughput for any threshold, and both are
        /// monotone in the threshold.
        #[test]
        fn prop_goodput_bounds(
            rts in proptest::collection::vec(1u64..500, 1..100),
            thr_a in 1u64..500,
            thr_b in 1u64..500,
        ) {
            let mut log = CompletionLog::new(SimDuration::from_secs(600));
            for (i, &rt) in rts.iter().enumerate() {
                log.record(t(i as u64), d(rt));
            }
            let (from, to) = (t(0), t(rts.len() as u64));
            let total = log.count_in(from, to);
            let (lo, hi) = (thr_a.min(thr_b), thr_a.max(thr_b));
            let g_lo = log.goodput_in(from, to, d(lo));
            let g_hi = log.goodput_in(from, to, d(hi));
            prop_assert!(g_lo <= g_hi);
            prop_assert!(g_hi <= total);
        }
    }
}
