//! Per-service completion log: response times with time-horizon eviction.

use crate::concurrency::{ring_capacity, RING_WIDTH_NANOS};
use sim_core::stats::BucketRing;
use sim_core::{SimDuration, SimTime};
use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;

/// A bounded log of `(completion_time, response_time)` pairs for one
/// service.
///
/// This is the `GP_n` half of the SCG model's `<Q_n, GP_n>` pairs: because
/// the response-time *threshold* is chosen later (by deadline propagation),
/// the log stores raw response times and computes goodput for any threshold
/// on demand, rather than committing to a threshold at ingest.
///
/// Windowed counting queries are served from a streaming aggregation ring:
/// each `record` folds a `(total, good)` pair into a 10 ms [`BucketRing`]
/// and each eviction subtracts it back out, so aligned queries read
/// `O(window buckets)` slots instead of re-scanning the raw log. The ring
/// is built on the first windowed read, by folding the retained entries
/// into a fresh ring; a log that is never read holds no ring. "Good" is
/// relative to the most recently queried threshold; querying a *different*
/// threshold re-folds the retained entries once (no worse than the scan it
/// replaces) and subsequent queries at that threshold are ring reads. Counts
/// are exact integers, so ring-served answers are bit-identical to the
/// retained scan implementation (exposed as the `*_scan` oracle under
/// `cfg(any(test, feature = "reference-scan"))`); unaligned or
/// out-of-retention windows fall back to the scan transparently.
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
    /// `None` until the first windowed read. Interior mutability lets
    /// `&self` queries build the ring and re-fold the good counts when the
    /// threshold changes; the log is used single-threaded per world, so
    /// `RefCell` costs nothing but a flag check.
    counts: RefCell<Option<CountRing>>,
}

/// Per-10 ms `(total, good)` completion counts for the retained entries,
/// with `good` valid for `threshold`.
#[derive(Debug, Clone)]
struct CountRing {
    threshold: SimDuration,
    ring: BucketRing<(u32, u32)>,
}

impl CompletionLog {
    /// Creates a log retaining `horizon` of history.
    pub fn new(horizon: SimDuration) -> Self {
        CompletionLog {
            horizon,
            entries: VecDeque::new(),
            counts: RefCell::new(None),
        }
    }

    /// Records a completion at `t` with response time `rt`.
    ///
    /// The fast path appends: the function-edge simulator emits completions
    /// in time order. Under a simulated network, telemetry reports can be
    /// delayed past each other and arrive *out of order*; a late sample is
    /// sorted into place (keeping window queries exact) if it still falls
    /// inside the retention window, and silently discarded otherwise — a
    /// report that stale would have been evicted already had it arrived on
    /// time, and dropping it keeps the count ring an exact mirror of the
    /// retained entries.
    pub fn record(&mut self, t: SimTime, rt: SimDuration) {
        match self.entries.back() {
            Some(&(last, _)) if t < last => return self.record_late(t, rt),
            _ => {}
        }
        self.entries.push_back((t, rt));
        if let Some(c) = self.counts.get_mut() {
            c.add(t, rt);
        }
        self.evict(t);
    }

    /// Sorted-insert path for a completion that arrived after a newer one.
    ///
    /// A sample older than ring retention is dropped outright: admitting it
    /// to `entries` without a ring slot would break the entries↔ring mirror
    /// every windowed query relies on. Retention is measured from the
    /// newest entry, which is where the ring's frontier sits, so the rule
    /// is the same whether or not the ring has been built yet. Eviction is
    /// not re-run (the newest timestamp has not advanced).
    fn record_late(&mut self, t: SimTime, rt: SimDuration) {
        if t.as_nanos() / RING_WIDTH_NANOS < self.first_retained_bucket() {
            return; // beyond retention: would already have been evicted
        }
        if let Some(c) = self.counts.get_mut() {
            c.add(t, rt);
        }
        let at = self.entries.partition_point(|&(et, _)| et <= t);
        self.entries.insert(at, (t, rt));
    }

    /// Oldest bucket the ring retains: the newest entry's bucket is the
    /// ring's newest slot, and the ring holds `ring_capacity` slots.
    fn first_retained_bucket(&self) -> u64 {
        self.entries.back().map_or(0, |&(t, _)| {
            (t.as_nanos() / RING_WIDTH_NANOS + 1).saturating_sub(ring_capacity(self.horizon) as u64)
        })
    }

    /// The count ring, built from the retained entries if this is the first
    /// windowed read, with its `good` half valid for `threshold` when one
    /// is given.
    fn count_ring(&self, threshold: Option<SimDuration>) -> RefMut<'_, CountRing> {
        let mut c = RefMut::map(self.counts.borrow_mut(), |c| {
            c.get_or_insert_with(|| {
                let mut c = CountRing {
                    threshold: SimDuration::MAX,
                    ring: BucketRing::new(RING_WIDTH_NANOS, ring_capacity(self.horizon)),
                };
                c.refold(&self.entries, threshold.unwrap_or(SimDuration::MAX));
                c
            })
        });
        if let Some(threshold) = threshold.filter(|&thr| thr != c.threshold) {
            c.refold(&self.entries, threshold);
        }
        c
    }

    fn evict(&mut self, now: SimTime) {
        let elapsed = now.saturating_since(SimTime::ZERO);
        if elapsed <= self.horizon {
            return;
        }
        let cutoff = SimTime::ZERO + (elapsed - self.horizon);
        let counts = self.counts.get_mut();
        while let Some(&(t, rt)) = self.entries.front() {
            if t < cutoff {
                self.entries.pop_front();
                // Subtract so ring slots keep mirroring exactly the
                // retained entries.
                if let Some(c) = counts.as_mut() {
                    c.remove(t, rt);
                }
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
        if self.ring_serves(from, to) {
            let c = self.count_ring(None);
            let (b0, b1) = (
                from.as_nanos() / RING_WIDTH_NANOS,
                to.as_nanos() / RING_WIDTH_NANOS,
            );
            return (b0..b1)
                .map(|b| u64::from(c.ring.get(b).unwrap_or_default().0))
                .sum();
        }
        self.iter_window(from, to).count() as u64
    }

    /// Completions in `[from, to)` with response time ≤ `threshold`.
    pub fn goodput_in(&self, from: SimTime, to: SimTime, threshold: SimDuration) -> u64 {
        if self.ring_serves(from, to) {
            let c = self.count_ring(Some(threshold));
            let (b0, b1) = (
                from.as_nanos() / RING_WIDTH_NANOS,
                to.as_nanos() / RING_WIDTH_NANOS,
            );
            return (b0..b1)
                .map(|b| u64::from(c.ring.get(b).unwrap_or_default().1))
                .sum();
        }
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
        if !w.is_multiple_of(RING_WIDTH_NANOS)
            || !from.as_nanos().is_multiple_of(RING_WIDTH_NANOS)
            || from.as_nanos() / RING_WIDTH_NANOS < self.first_retained_bucket()
        {
            self.scan_bucket_counts_into(from, to, width, threshold, out);
            return;
        }
        let c = self.count_ring(Some(threshold));
        let k = w / RING_WIDTH_NANOS;
        let base = from.as_nanos() / RING_WIDTH_NANOS;
        out.reserve(n as usize);
        for i in 0..n {
            let b0 = base + i * k;
            let (mut total, mut good) = (0u64, 0u64);
            for b in b0..b0 + k {
                let (t_, g) = c.ring.get(b).unwrap_or_default();
                total += u64::from(t_);
                good += u64::from(g);
            }
            out.push((total, good));
        }
    }

    /// Reference scan implementation of [`CompletionLog::bucket_counts`] —
    /// the equivalence oracle for the ring path.
    #[cfg(any(test, feature = "reference-scan"))]
    pub fn bucket_counts_scan(
        &self,
        from: SimTime,
        to: SimTime,
        width: SimDuration,
        threshold: SimDuration,
    ) -> Vec<(u64, u64)> {
        assert!(!width.is_zero(), "bucket width must be non-zero");
        let mut out = Vec::new();
        self.scan_bucket_counts_into(from, to, width, threshold, &mut out);
        out
    }

    /// Reference scan implementation of [`CompletionLog::count_in`].
    #[cfg(any(test, feature = "reference-scan"))]
    pub fn count_in_scan(&self, from: SimTime, to: SimTime) -> u64 {
        self.iter_window(from, to).count() as u64
    }

    /// Reference scan implementation of [`CompletionLog::goodput_in`].
    #[cfg(any(test, feature = "reference-scan"))]
    pub fn goodput_in_scan(&self, from: SimTime, to: SimTime, threshold: SimDuration) -> u64 {
        self.iter_window(from, to)
            .filter(|&&(_, rt)| rt <= threshold)
            .count() as u64
    }

    fn scan_bucket_counts_into(
        &self,
        from: SimTime,
        to: SimTime,
        width: SimDuration,
        threshold: SimDuration,
        out: &mut Vec<(u64, u64)>,
    ) {
        let n = (to.saturating_since(from).as_nanos() / width.as_nanos()) as usize;
        out.clear();
        out.resize(n, (0u64, 0u64));
        for &(t, rt) in self.iter_window(from, from + width * n as u64) {
            let idx = ((t - from).as_nanos() / width.as_nanos()) as usize;
            out[idx].0 += 1;
            if rt <= threshold {
                out[idx].1 += 1;
            }
        }
    }

    /// True when `[from, to)` is 10 ms-aligned and inside ring retention.
    fn ring_serves(&self, from: SimTime, to: SimTime) -> bool {
        from.as_nanos().is_multiple_of(RING_WIDTH_NANOS)
            && to.as_nanos().is_multiple_of(RING_WIDTH_NANOS)
            && from.as_nanos() / RING_WIDTH_NANOS >= self.first_retained_bucket()
    }
}

impl CountRing {
    /// Folds one retained entry into its slot.
    fn add(&mut self, t: SimTime, rt: SimDuration) {
        let slot = self
            .ring
            .slot_mut(t.as_nanos() / RING_WIDTH_NANOS)
            .expect("retained entries have a slot");
        slot.0 += 1;
        if rt <= self.threshold {
            slot.1 += 1;
        }
    }

    /// Takes an evicted entry back out of its slot, if the slot is still
    /// retained.
    fn remove(&mut self, t: SimTime, rt: SimDuration) {
        if let Some(slot) = self.ring.slot_mut(t.as_nanos() / RING_WIDTH_NANOS) {
            slot.0 -= 1;
            if rt <= self.threshold {
                slot.1 -= 1;
            }
        }
    }

    /// Rebuilds every retained slot from the retained entries for
    /// `threshold`: the first-read build of a fresh ring, and the one pass
    /// a threshold change costs, amortized across every later aligned
    /// query at that threshold.
    fn refold(&mut self, entries: &VecDeque<(SimTime, SimDuration)>, threshold: SimDuration) {
        self.threshold = threshold;
        for b in self.ring.first_retained()..self.ring.next_bucket() {
            if let Some(slot) = self.ring.slot_mut(b) {
                *slot = (0, 0);
            }
        }
        for &(t, rt) in entries {
            self.add(t, rt);
        }
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
        assert_eq!(
            log.count_in(t(0), t(1000)),
            log.count_in_scan(t(0), t(1000))
        );
    }

    #[test]
    fn ring_matches_scan_with_late_inserts() {
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
                log.bucket_counts_scan(f, to, d(50), d(thr_ms)),
                "threshold {thr_ms}"
            );
        }
        assert_eq!(log.count_in(f, to), log.count_in_scan(f, to));
    }

    #[test]
    fn ring_matches_scan_across_thresholds_and_eviction() {
        let mut log = CompletionLog::new(d(500));
        for i in 0..300u64 {
            log.record(t(i * 7), SimDuration::from_micros(i * 997 % 40_000));
        }
        // Alternating thresholds force repeated refolds.
        for thr_ms in [5u64, 20, 5, 33] {
            let (f, to) = (t(1700), t(2100));
            assert_eq!(
                log.bucket_counts(f, to, d(50), d(thr_ms)),
                log.bucket_counts_scan(f, to, d(50), d(thr_ms)),
                "threshold {thr_ms}"
            );
            assert_eq!(
                log.goodput_in(f, to, d(thr_ms)),
                log.goodput_in_scan(f, to, d(thr_ms))
            );
        }
        // A window straddling the evicted region falls back to the scan and
        // still matches.
        assert_eq!(
            log.bucket_counts(t(0), t(2100), d(100), d(10)),
            log.bucket_counts_scan(t(0), t(2100), d(100), d(10))
        );
        assert_eq!(
            log.count_in(t(0), t(2100)),
            log.count_in_scan(t(0), t(2100))
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
