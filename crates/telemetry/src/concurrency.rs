//! Time-weighted concurrency tracking for one service.

use sim_core::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Tracks the number of requests concurrently *in service* (holding a
/// thread / being processed) as a piecewise-constant level, and answers
/// windowed queries like "average concurrency in each 100 ms bucket of the
/// last 3 minutes" — the `Q_n` half of the SCG model's `<Q_n, GP_n>` pairs.
///
/// Change points older than the retention horizon are compacted away, so
/// memory stays bounded during long runs.
///
/// Windowed queries scan the retained change points. A binary search finds
/// the segment in force when the window opens, and the walk stops where it
/// closes, so a query reads only the segments that overlap its window.
/// Bucketed queries walk bucket boundaries with a running index, with no
/// division per chunk.
///
/// # Example
///
/// ```
/// use telemetry::ConcurrencyTracker;
/// use sim_core::{SimDuration, SimTime};
///
/// let mut c = ConcurrencyTracker::new(SimDuration::from_secs(60));
/// c.enter(SimTime::ZERO);
/// c.enter(SimTime::from_millis(50));
/// c.leave(SimTime::from_millis(100));
/// // Bucket [0, 100ms): one request for 50 ms, two for 50 ms → avg 1.5.
/// let avgs = c.bucket_averages(SimTime::ZERO, SimTime::from_millis(100),
///                              SimDuration::from_millis(100));
/// assert!((avgs[0] - 1.5).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ConcurrencyTracker {
    horizon: SimDuration,
    /// `(since, level)` change points, oldest first. Invariant: times are
    /// strictly increasing and the last entry is the current level.
    changes: VecDeque<(SimTime, u32)>,
    current: u32,
    peak: u32,
}

impl ConcurrencyTracker {
    /// Creates a tracker retaining `horizon` of history.
    pub fn new(horizon: SimDuration) -> Self {
        let mut changes = VecDeque::new();
        changes.push_back((SimTime::ZERO, 0));
        ConcurrencyTracker {
            horizon,
            changes,
            current: 0,
            peak: 0,
        }
    }

    /// Current in-service count.
    pub fn current(&self) -> u32 {
        self.current
    }

    /// Highest level ever observed.
    pub fn peak(&self) -> u32 {
        self.peak
    }

    /// Records a request entering service at `t`.
    pub fn enter(&mut self, t: SimTime) {
        self.set_level(t, self.current + 1);
    }

    /// Records a request leaving service at `t`.
    ///
    /// # Panics
    ///
    /// Panics if no request is in service (accounting bug upstream).
    pub fn leave(&mut self, t: SimTime) {
        assert!(self.current > 0, "leave() without matching enter()");
        self.set_level(t, self.current - 1);
    }

    fn set_level(&mut self, t: SimTime, level: u32) {
        let &(last_t, last_level) = self.changes.back().expect("never empty");
        assert!(t >= last_t, "concurrency change out of order");
        if level == last_level {
            self.current = level;
            return;
        }
        if t == last_t {
            // Coalesce simultaneous changes.
            self.changes.back_mut().expect("never empty").1 = level;
        } else {
            self.changes.push_back((t, level));
        }
        self.current = level;
        self.peak = self.peak.max(level);
        self.compact(t);
    }

    /// Drops change points no longer needed to answer queries newer than
    /// `now − horizon`, keeping one anchor before the cutoff.
    fn compact(&mut self, now: SimTime) {
        let keep_from = now.saturating_since(SimTime::ZERO);
        if keep_from <= self.horizon {
            return;
        }
        let cutoff = SimTime::ZERO + (keep_from - self.horizon);
        while self.changes.len() >= 2 && self.changes[1].0 <= cutoff {
            self.changes.pop_front();
        }
    }

    /// Time-weighted average level over `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn average_in(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from < to, "empty window");
        let mut integral = 0.0;
        for (seg_start, seg_end, level) in self.segments_from(from) {
            if seg_start >= to {
                break;
            }
            let s = seg_start.max(from);
            let e = seg_end.min(to);
            if e > s {
                integral += (e - s).as_nanos() as f64 * f64::from(level);
            }
        }
        integral / (to - from).as_nanos() as f64
    }

    /// Average level in each `width`-sized bucket of `[from, to)`.
    ///
    /// `to − from` is truncated to a whole number of buckets.
    pub fn bucket_averages(&self, from: SimTime, to: SimTime, width: SimDuration) -> Vec<f64> {
        let mut out = Vec::new();
        self.bucket_averages_into(from, to, width, &mut out);
        out
    }

    /// [`ConcurrencyTracker::bucket_averages`] into a caller-owned buffer
    /// (cleared first) — the zero-allocation path for per-tick callers that
    /// reuse scratch.
    pub fn bucket_averages_into(
        &self,
        from: SimTime,
        to: SimTime,
        width: SimDuration,
        out: &mut Vec<f64>,
    ) {
        assert!(!width.is_zero(), "bucket width must be non-zero");
        out.clear();
        let w = width.as_nanos();
        let n = to.saturating_since(from).as_nanos() / w;
        if n == 0 {
            return;
        }
        out.resize(n as usize, 0.0);
        let start = from.as_nanos();
        let end = start + w * n;
        // The bucket `cursor` falls in, and where that bucket ends: the
        // cursor only moves forward, so the index only counts up.
        let (mut idx, mut bucket_end) = (0, start + w);
        for (seg_start, seg_end, level) in self.segments_from(from) {
            let seg_start = seg_start.as_nanos();
            if seg_start >= end {
                break;
            }
            if level == 0 {
                continue;
            }
            let mut cursor = seg_start.max(start);
            let e = seg_end.as_nanos().min(end);
            while cursor < e {
                while bucket_end <= cursor {
                    idx += 1;
                    bucket_end += w;
                }
                let chunk_end = bucket_end.min(e);
                out[idx] += (chunk_end - cursor) as f64 * f64::from(level);
                cursor = chunk_end;
            }
        }
        let wf = w as f64;
        for v in out.iter_mut() {
            *v /= wf;
        }
    }

    /// `(start, end, level)` segments from the one in force at `from`
    /// onwards; the final segment extends to [`SimTime::MAX`] with the
    /// current level. Every earlier segment ends at or before `from`.
    fn segments_from(&self, from: SimTime) -> impl Iterator<Item = (SimTime, SimTime, u32)> + '_ {
        let first = self
            .changes
            .partition_point(|&(t, _)| t <= from)
            .saturating_sub(1);
        let ends = self
            .changes
            .range(first + 1..)
            .map(|&(t, _)| t)
            .chain(std::iter::once(SimTime::MAX));
        self.changes
            .range(first..)
            .zip(ends)
            .map(|(&(start, level), end)| (start, end, level))
    }
}

/// The straight scans the windowed queries replaced — every retained
/// segment (`segments_from(ZERO)`), one division per chunk — kept as the
/// bit-for-bit reference the property tests in `scan_equivalence.rs` hold
/// the queries to.
#[cfg(test)]
impl ConcurrencyTracker {
    pub(crate) fn reference_average_in(&self, from: SimTime, to: SimTime) -> f64 {
        let mut integral = 0.0;
        for (seg_start, seg_end, level) in self.segments_from(SimTime::ZERO) {
            let s = seg_start.max(from);
            let e = seg_end.min(to);
            if e > s {
                integral += (e - s).as_nanos() as f64 * f64::from(level);
            }
        }
        integral / (to - from).as_nanos() as f64
    }

    pub(crate) fn reference_bucket_averages(
        &self,
        from: SimTime,
        to: SimTime,
        width: SimDuration,
    ) -> Vec<f64> {
        let n = (to.saturating_since(from).as_nanos() / width.as_nanos()) as usize;
        let mut out = vec![0.0; n];
        for (seg_start, seg_end, level) in self.segments_from(SimTime::ZERO) {
            if level == 0 {
                continue;
            }
            let s = seg_start.max(from);
            let e = seg_end.min(from + width * n as u64);
            if e <= s {
                continue;
            }
            let mut cursor = s;
            while cursor < e {
                let idx = ((cursor - from).as_nanos() / width.as_nanos()) as usize;
                let bucket_end = from + width * (idx as u64 + 1);
                let chunk_end = bucket_end.min(e);
                out[idx] += (chunk_end - cursor).as_nanos() as f64 * f64::from(level);
                cursor = chunk_end;
            }
        }
        let w = width.as_nanos() as f64;
        for v in out.iter_mut() {
            *v /= w;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn enter_leave_tracks_level() {
        let mut c = ConcurrencyTracker::new(SimDuration::from_secs(60));
        assert_eq!(c.current(), 0);
        c.enter(t(1));
        c.enter(t(2));
        assert_eq!(c.current(), 2);
        c.leave(t(3));
        assert_eq!(c.current(), 1);
        assert_eq!(c.peak(), 2);
    }

    #[test]
    fn average_is_time_weighted() {
        let mut c = ConcurrencyTracker::new(SimDuration::from_secs(60));
        c.enter(t(0));
        c.enter(t(100)); // level 2 from 100
        c.leave(t(300)); // level 1 from 300
        c.leave(t(400)); // level 0 from 400
                         // [0,400): 100ms@1 + 200ms@2 + 100ms@1 = 600 level·ms / 400 = 1.5
        assert!((c.average_in(t(0), t(400)) - 1.5).abs() < 1e-9);
        // Open-ended current level counts too.
        c.enter(t(500));
        assert!((c.average_in(t(500), t(600)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_averages_match_average_in() {
        let mut c = ConcurrencyTracker::new(SimDuration::from_secs(60));
        c.enter(t(30));
        c.enter(t(130));
        c.leave(t(250));
        let buckets = c.bucket_averages(t(0), t(300), SimDuration::from_millis(100));
        assert_eq!(buckets.len(), 3);
        for (i, &b) in buckets.iter().enumerate() {
            let from = t(i as u64 * 100);
            let to = t((i as u64 + 1) * 100);
            assert!((b - c.average_in(from, to)).abs() < 1e-9, "bucket {i}");
        }
    }

    #[test]
    fn simultaneous_changes_coalesce() {
        let mut c = ConcurrencyTracker::new(SimDuration::from_secs(60));
        c.enter(t(10));
        c.leave(t(10));
        assert_eq!(c.current(), 0);
        assert!((c.average_in(t(0), t(20)) - 0.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "without matching enter")]
    fn unbalanced_leave_panics() {
        ConcurrencyTracker::new(SimDuration::from_secs(1)).leave(t(1));
    }

    #[test]
    fn compaction_preserves_recent_queries() {
        let mut c = ConcurrencyTracker::new(SimDuration::from_millis(100));
        for i in 0..1000u64 {
            c.enter(t(i * 2));
            c.leave(t(i * 2 + 1));
        }
        // Only recent history retained...
        assert!(c.changes.len() < 220);
        // ...but queries inside the horizon are exact: level alternates
        // 1/0 per ms → average 0.5.
        let avg = c.average_in(t(1950), t(1990));
        assert!((avg - 0.5).abs() < 0.05, "avg {avg}");
    }

    #[test]
    fn scan_matches_reference_on_aligned_and_unaligned_windows() {
        let mut c = ConcurrencyTracker::new(SimDuration::from_secs(1));
        let mut lvl = 0u32;
        for i in 0..400u64 {
            let at = SimTime::from_nanos(i * 7_777_777);
            if lvl == 0 || i % 3 != 0 {
                c.enter(at);
                lvl += 1;
            } else {
                c.leave(at);
                lvl -= 1;
            }
        }
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        for (from_ms, to_ms, w_ms) in [(0u64, 3000u64, 100u64), (2000, 3100, 50), (2500, 3000, 10)]
        {
            let (f, to, w) = (t(from_ms), t(to_ms), SimDuration::from_millis(w_ms));
            assert_eq!(
                bits(c.bucket_averages(f, to, w)),
                bits(c.reference_bucket_averages(f, to, w)),
                "window {from_ms}..{to_ms} w={w_ms}"
            );
        }
        let f = SimTime::from_nanos(123_456);
        let to = SimTime::from_nanos(2_000_123_456);
        let w = SimDuration::from_nanos(77_000_003);
        assert_eq!(
            bits(c.bucket_averages(f, to, w)),
            bits(c.reference_bucket_averages(f, to, w))
        );
        assert_eq!(
            c.average_in(t(2000), t(3000)).to_bits(),
            c.reference_average_in(t(2000), t(3000)).to_bits()
        );
    }

    proptest! {
        /// Sum over buckets × width equals the integral over the window.
        #[test]
        fn prop_buckets_partition_integral(
            events in proptest::collection::vec(0u64..500, 1..80),
        ) {
            let mut c = ConcurrencyTracker::new(SimDuration::from_secs(60));
            let mut times = events.clone();
            times.sort_unstable();
            let mut level = 0u32;
            for (i, &tm) in times.iter().enumerate() {
                if level == 0 || i % 2 == 0 {
                    c.enter(t(tm));
                    level += 1;
                } else {
                    c.leave(t(tm));
                    level -= 1;
                }
            }
            let width = SimDuration::from_millis(50);
            let buckets = c.bucket_averages(t(0), t(500), width);
            let total: f64 = buckets.iter().sum::<f64>() * 50.0;
            let integral = c.average_in(t(0), t(500)) * 500.0;
            prop_assert!((total - integral).abs() < 1e-6,
                "bucketed {total} vs integral {integral}");
        }
    }
}
