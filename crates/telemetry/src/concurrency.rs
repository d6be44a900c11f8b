//! Time-weighted concurrency tracking for one service.

use sim_core::stats::BucketRing;
use sim_core::{SimDuration, SimTime};
use std::cell::OnceCell;
use std::collections::VecDeque;

/// Resolution of the streaming aggregation ring: 10 ms divides every
/// sampling interval the pipeline uses (10/20/50/100/200/500 ms), so any
/// interval-aligned window is a whole number of ring buckets.
pub(crate) const RING_WIDTH_NANOS: u64 = 10_000_000;

/// Slots in a ring retaining `horizon`: +2 slots of slack for the
/// partially-filled newest bucket plus the bucket a horizon-length window
/// starts in.
pub(crate) fn ring_capacity(horizon: SimDuration) -> usize {
    (horizon.as_nanos() / RING_WIDTH_NANOS + 2) as usize
}

/// Tracks the number of requests concurrently *in service* (holding a
/// thread / being processed) as a piecewise-constant level, and answers
/// windowed queries like "average concurrency in each 100 ms bucket of the
/// last 3 minutes" — the `Q_n` half of the SCG model's `<Q_n, GP_n>` pairs.
///
/// Change points older than the retention horizon are compacted away, so
/// memory stays bounded during long runs.
///
/// Windowed queries are served from a streaming aggregation ring: every
/// closed level segment folds its exact integer `level · nanoseconds`
/// integral into a 10 ms [`BucketRing`], so an aligned query reads
/// `O(window buckets)` slots instead of re-walking the change-point
/// history. The ring is built on the first windowed read, by folding the
/// retained change points into a fresh ring; from then on every segment is
/// folded as it closes. A tracker that is never read holds no ring. The
/// integrals are integers divided once at query time, so ring-served
/// answers are bit-identical to the retained scan implementation (exposed
/// as the `*_scan` oracle under `cfg(any(test, feature = "reference-scan"))`)
/// whenever the ring was built; unaligned or out-of-retention windows fall
/// back to the scan transparently.
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
    /// Per-10 ms `level · nanoseconds` integrals of every *closed* segment
    /// still described by `changes`, built on the first windowed read. The
    /// open tail (last change point to "now" at the current level) is added
    /// arithmetically at query time.
    ring: OnceCell<BucketRing<u64>>,
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
            ring: OnceCell::new(),
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
            // Coalesce simultaneous changes. The segment ending here was
            // folded when this change point was first pushed.
            self.changes.back_mut().expect("never empty").1 = level;
        } else {
            // The open segment [last_t, t) just closed: fold its integral
            // into the ring, if one was built, before the deque moves on.
            if let Some(ring) = self.ring.get_mut() {
                fold_segment(ring, last_t, t, last_level, true);
            }
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
            let (start, level) = self.changes.pop_front().expect("len checked");
            let end = self.changes.front().expect("len checked").0;
            // The dropped segment left the deque; subtract its integral so
            // the ring keeps mirroring exactly the retained history.
            if let Some(ring) = self.ring.get_mut() {
                fold_segment(ring, start, end, level, false);
            }
        }
    }

    /// The ring, built on first use by folding every closed retained
    /// segment into a fresh one. That is the state ingest would have
    /// maintained: compaction subtracted every dropped segment back out,
    /// so only retained segments were ever left in retained slots.
    fn ring(&self) -> &BucketRing<u64> {
        self.ring.get_or_init(|| {
            let mut ring = BucketRing::new(RING_WIDTH_NANOS, ring_capacity(self.horizon));
            fold_retained(&self.changes, &mut ring);
            ring
        })
    }

    /// The ring when `[from, …)` windows of `width`-multiples can be
    /// answered from it (building it if the window is aligned).
    fn serving_ring(&self, from: SimTime, width_nanos: u64) -> Option<&BucketRing<u64>> {
        if !width_nanos.is_multiple_of(RING_WIDTH_NANOS)
            || !from.as_nanos().is_multiple_of(RING_WIDTH_NANOS)
        {
            return None;
        }
        let ring = self.ring();
        (from.as_nanos() / RING_WIDTH_NANOS >= ring.first_retained()).then_some(ring)
    }

    /// Integral of the open tail segment over `[bs, be)` nanoseconds.
    fn open_tail(&self, bs: u64, be: u64) -> u64 {
        let lvl = u64::from(self.current);
        if lvl == 0 {
            return 0;
        }
        let open = self.changes.back().expect("never empty").0.as_nanos();
        if be > open {
            (be - bs.max(open)) * lvl
        } else {
            0
        }
    }

    /// Time-weighted average level over `[from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to`.
    pub fn average_in(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from < to, "empty window");
        let ring = if to.as_nanos().is_multiple_of(RING_WIDTH_NANOS) {
            self.serving_ring(from, RING_WIDTH_NANOS)
        } else {
            None
        };
        if let Some(ring) = ring {
            let (b0, b1) = (
                from.as_nanos() / RING_WIDTH_NANOS,
                to.as_nanos() / RING_WIDTH_NANOS,
            );
            let mut sum: u64 = 0;
            for b in b0..b1 {
                sum += ring.get(b).unwrap_or(0);
            }
            sum += self.open_tail(from.as_nanos(), to.as_nanos());
            return sum as f64 / (to - from).as_nanos() as f64;
        }
        self.scan_average_in(from, to)
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
        let Some(ring) = self.serving_ring(from, w) else {
            self.scan_bucket_averages_into(from, to, width, out);
            return;
        };
        let k = w / RING_WIDTH_NANOS;
        let base = from.as_nanos() / RING_WIDTH_NANOS;
        let wf = w as f64;
        out.reserve(n as usize);
        for i in 0..n {
            let b0 = base + i * k;
            let mut sum: u64 = 0;
            for b in b0..b0 + k {
                sum += ring.get(b).unwrap_or(0);
            }
            let bs = from.as_nanos() + i * w;
            sum += self.open_tail(bs, bs + w);
            out.push(sum as f64 / wf);
        }
    }

    /// Reference scan implementation of [`ConcurrencyTracker::average_in`]
    /// — the equivalence oracle for the ring path.
    #[cfg(any(test, feature = "reference-scan"))]
    pub fn average_in_scan(&self, from: SimTime, to: SimTime) -> f64 {
        assert!(from < to, "empty window");
        self.scan_average_in(from, to)
    }

    /// Reference scan implementation of
    /// [`ConcurrencyTracker::bucket_averages`] — the equivalence oracle for
    /// the ring path.
    #[cfg(any(test, feature = "reference-scan"))]
    pub fn bucket_averages_scan(&self, from: SimTime, to: SimTime, width: SimDuration) -> Vec<f64> {
        assert!(!width.is_zero(), "bucket width must be non-zero");
        let mut out = Vec::new();
        self.scan_bucket_averages_into(from, to, width, &mut out);
        out
    }

    fn scan_average_in(&self, from: SimTime, to: SimTime) -> f64 {
        let mut integral = 0.0;
        for (seg_start, seg_end, level) in self.segments() {
            let s = seg_start.max(from);
            let e = seg_end.min(to);
            if e > s {
                integral += (e - s).as_nanos() as f64 * f64::from(level);
            }
        }
        integral / (to - from).as_nanos() as f64
    }

    fn scan_bucket_averages_into(
        &self,
        from: SimTime,
        to: SimTime,
        width: SimDuration,
        out: &mut Vec<f64>,
    ) {
        let n = (to.saturating_since(from).as_nanos() / width.as_nanos()) as usize;
        out.clear();
        out.resize(n, 0.0);
        for (seg_start, seg_end, level) in self.segments() {
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
    }

    /// Rebuilds the ring from the change-point ledger, with the routine
    /// that builds it on first read, and compares it — exactly, bit for
    /// bit — against the streaming ring, reporting divergences into `sink`.
    /// A tracker never read has no ring and nothing to check.
    ///
    /// The rebuild starts from a fresh ring advanced to the live ring's
    /// frontier, so segments are clipped at the same retention start that
    /// `fold_segment` clipped them at during ingest: contributions a
    /// segment once made to since-dropped buckets are irrelevant, and for
    /// every still-retained bucket the ingest-time and audit-time chunking
    /// agree term by term (all arithmetic is integer), so any mismatch is a
    /// real accounting bug, not tolerance noise.
    #[cfg(feature = "audit")]
    pub fn audit_into(&self, now: SimTime, sink: &mut dyn sim_core::audit::AuditSink) {
        use sim_core::audit::{Invariant, Violation};
        let Some(ring) = self.ring.get() else {
            return;
        };
        let mut expected = BucketRing::new(RING_WIDTH_NANOS, ring.capacity());
        if let Some(newest) = ring.next_bucket().checked_sub(1) {
            expected.advance_to(newest);
        }
        fold_retained(&self.changes, &mut expected);
        let mut bad = 0u64;
        let mut example = None;
        for bucket in ring.first_retained()..expected.next_bucket() {
            let got = ring.get(bucket).unwrap_or(0);
            let want = expected.get(bucket).unwrap_or(0);
            if got != want {
                bad += 1;
                example.get_or_insert((bucket, got, want));
            }
        }
        if let Some((bucket, got, want)) = example {
            sink.record(Violation {
                invariant: Invariant::ConcurrencyIntegral,
                at_nanos: now.as_nanos(),
                detail: format!(
                    "{bad} ring bucket(s) diverge from the enter/leave ledger; \
                     first at bucket {bucket}: ring {got} vs ledger {want} level-ns"
                ),
            });
        }
    }

    /// Iterates `(start, end, level)` segments; the final segment extends to
    /// [`SimTime::MAX`] with the current level.
    fn segments(&self) -> impl Iterator<Item = (SimTime, SimTime, u32)> + '_ {
        let n = self.changes.len();
        (0..n).map(move |i| {
            let (start, level) = self.changes[i];
            let end = if i + 1 < n {
                self.changes[i + 1].0
            } else {
                SimTime::MAX
            };
            (start, end, level)
        })
    }
}

/// Folds every closed segment of `changes` into `ring`, oldest first: the
/// first-read build of a tracker's ring, and the audit's reconstruction.
fn fold_retained(changes: &VecDeque<(SimTime, u32)>, ring: &mut BucketRing<u64>) {
    for (&(start, level), &(end, _)) in changes.iter().zip(changes.iter().skip(1)) {
        fold_segment(ring, start, end, level, true);
    }
}

/// Adds (or subtracts) a closed segment's per-bucket integral.
fn fold_segment(ring: &mut BucketRing<u64>, from: SimTime, to: SimTime, level: u32, add: bool) {
    if level == 0 || to <= from {
        return;
    }
    let (mut a, b) = (from.as_nanos(), to.as_nanos());
    let lvl = u64::from(level);
    ring.advance_to((b - 1) / RING_WIDTH_NANOS);
    // Chunks below the retention window have no slot; skip them.
    a = a.max(ring.first_retained() * RING_WIDTH_NANOS);
    while a < b {
        let bucket = a / RING_WIDTH_NANOS;
        let chunk_end = b.min((bucket + 1) * RING_WIDTH_NANOS);
        if let Some(slot) = ring.slot_mut(bucket) {
            let dv = (chunk_end - a) * lvl;
            if add {
                *slot += dv;
            } else {
                *slot -= dv;
            }
        }
        a = chunk_end;
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
    fn ring_matches_scan_on_aligned_and_unaligned_windows() {
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
        for (from_ms, to_ms, w_ms) in [(0u64, 3000u64, 100u64), (2000, 3100, 50), (2500, 3000, 10)]
        {
            let ring = c.bucket_averages(t(from_ms), t(to_ms), SimDuration::from_millis(w_ms));
            let scan = c.bucket_averages_scan(t(from_ms), t(to_ms), SimDuration::from_millis(w_ms));
            assert_eq!(ring, scan, "window {from_ms}..{to_ms} w={w_ms}");
        }
        // Unaligned window exercises the fallback.
        let f = SimTime::from_nanos(123_456);
        let to = SimTime::from_nanos(2_000_123_456);
        let w = SimDuration::from_nanos(77_000_003);
        assert_eq!(
            c.bucket_averages(f, to, w),
            c.bucket_averages_scan(f, to, w)
        );
        assert_eq!(
            c.average_in(t(2000), t(3000)).to_bits(),
            c.average_in_scan(t(2000), t(3000)).to_bits()
        );
    }

    /// Under `--features audit` the ring must equal the ledger integral
    /// even after compaction has dropped old change points, whether it was
    /// built before any ingest or on a read halfway through; a corrupted
    /// slot is reported, and a tracker never read has nothing to check.
    #[cfg(feature = "audit")]
    #[test]
    fn audit_is_clean_after_compaction() {
        use sim_core::audit::CountingSink;
        let horizon = SimDuration::from_millis(100);
        let (mut early, mut late, mut unread) = (
            ConcurrencyTracker::new(horizon),
            ConcurrencyTracker::new(horizon),
            ConcurrencyTracker::new(horizon),
        );
        early.average_in(t(0), t(10));
        for i in 0..1000u64 {
            if i == 500 {
                late.average_in(t(900), t(1000));
            }
            for c in [&mut early, &mut late, &mut unread] {
                c.enter(t(i * 2));
                c.leave(t(i * 2 + 1));
            }
        }
        assert!(unread.ring.get().is_none(), "never read, never built");
        let mut sink = CountingSink::new();
        for c in [&early, &late, &unread] {
            c.audit_into(t(2000), &mut sink);
        }
        assert_eq!(sink.total(), 0, "{}", sink.summary());
        let newest = early.ring.get().unwrap().next_bucket() - 1;
        *early.ring.get_mut().unwrap().slot_mut(newest).unwrap() += 1;
        early.audit_into(t(2000), &mut sink);
        assert_eq!(sink.total(), 1, "{}", sink.summary());
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
