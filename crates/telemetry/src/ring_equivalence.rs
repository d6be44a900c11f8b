//! Property tests: ring-served windowed queries are *bit-identical* to the
//! reference-scan oracle on arbitrary interleaved event streams, including
//! compaction, eviction, threshold changes and windows that straddle
//! evicted buckets or fall back to the scan path; and a ring built on a
//! late first read answers exactly as one built before any ingest.

use crate::scatter::{build_scatter_scan, ScatterScratch};
use crate::{build_scatter_into, CompletionLog, ConcurrencyTracker};
use proptest::prelude::*;
use sim_core::{SimDuration, SimTime};

/// One stream step: `(dt_nanos, op, rt_nanos)` — advance time by `dt`,
/// then op 0 = enter, 1 = leave (or enter when idle), 2 = record(`rt`).
type Step = (u64, u8, u64);

/// Replays a stream into a tracker + log with a 1 s horizon, keeping the
/// level legal (a leave with nothing in service becomes an enter).
/// Irregular, unaligned gaps up to 60 ms mean a few hundred events span
/// several times the horizon, so compaction and ring recycling trigger.
fn replay(stream: &[Step]) -> (ConcurrencyTracker, CompletionLog, SimTime) {
    let horizon = SimDuration::from_secs(1);
    let mut conc = ConcurrencyTracker::new(horizon);
    let mut log = CompletionLog::new(horizon);
    let mut now = 0u64;
    let mut level = 0u32;
    for &(dt, op, rt_nanos) in stream {
        now += dt;
        let at = SimTime::from_nanos(now);
        match op {
            0 => {
                conc.enter(at);
                level += 1;
            }
            1 if level > 0 => {
                conc.leave(at);
                level -= 1;
            }
            1 => {
                conc.enter(at);
                level += 1;
            }
            _ => log.record(at, SimDuration::from_nanos(rt_nanos)),
        }
    }
    (conc, log, SimTime::from_nanos(now))
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Query windows exercising every serving mode: ring-served interior
/// windows, windows straddling the compacted/evicted past (from = 0),
/// windows extending past "now", and unaligned fallbacks.
fn windows(now: SimTime) -> Vec<(SimTime, SimTime, SimDuration)> {
    let ms = |v: u64| SimDuration::from_millis(v);
    let end_ms = now.as_nanos() / 1_000_000;
    let align = |v: u64, w: u64| SimTime::from_millis((v / w) * w);
    // The oldest bucket a 1 s ring retains (102 slots of 10 ms).
    let oldest = (now.as_nanos() / 10_000_000 + 1).saturating_sub(102);
    let mut out = vec![
        // Straddles everything ever evicted.
        (SimTime::ZERO, now + ms(50), ms(100)),
        // Unaligned width and start: scan fallback.
        (
            SimTime::from_nanos(12_345),
            now,
            SimDuration::from_nanos(33_333_333),
        ),
        // Starts at the oldest retained slot: reads every retained entry
        // and the oldest retained segment.
        (SimTime::from_nanos(oldest * 10_000_000), now, ms(10)),
    ];
    for w in [10u64, 20, 100] {
        // Trailing aligned window just inside the horizon.
        out.push((align(end_ms.saturating_sub(800), w), now, ms(w)));
        // Aligned window straddling the eviction edge.
        out.push((align(end_ms.saturating_sub(1100), w), now + ms(w), ms(w)));
    }
    out
}

fn steps() -> proptest::collection::VecStrategy<(
    std::ops::Range<u64>,
    std::ops::Range<u8>,
    std::ops::Range<u64>,
)> {
    proptest::collection::vec((0u64..60_000_000, 0u8..3, 0u64..40_000_000), 1..300)
}

/// Every windowed answer of a tracker and a log at `now`, as exact bits.
fn answers(
    conc: &ConcurrencyTracker,
    log: &CompletionLog,
    now: SimTime,
    threshold: SimDuration,
) -> Vec<u64> {
    let mut out = Vec::new();
    for (from, to, w) in windows(now) {
        out.extend(bits(&conc.bucket_averages(from, to, w)));
        if from < to {
            out.push(conc.average_in(from, to).to_bits());
        }
        for (total, good) in log.bucket_counts(from, to, w, threshold) {
            out.extend([total, good]);
        }
        out.push(log.count_in(from, to));
        out.push(log.goodput_in(from, to, threshold));
    }
    out
}

/// A lazy-build step: `(dt_nanos, op, arg)` — advance time by `dt`, then
/// op 0 = enter, 1 = leave (or enter when idle), 2 = record(rt = `arg`),
/// 3 = a late record `40 · arg` before now (up to 1.6 s, past the 1 s
/// horizon), 4 = query every window at threshold `arg`.
fn lazy_steps() -> proptest::collection::VecStrategy<(
    std::ops::Range<u64>,
    std::ops::Range<u8>,
    std::ops::Range<u64>,
)> {
    proptest::collection::vec((0u64..60_000_000, 0u8..5, 0u64..40_000_000), 1..300)
}

proptest! {
    /// Twin `a` is read before any ingest, so ingest maintains its rings
    /// throughout; twin `b` is first read at step `first_read` (past the
    /// end: only by the final queries). From that read on, every answer of
    /// `b` equals `a`'s bit for bit, and both drop the same late samples.
    #[test]
    fn prop_lazy_ring_equals_ring_read_from_start(
        stream in lazy_steps(),
        first_read in 0usize..320,
    ) {
        let horizon = SimDuration::from_secs(1);
        let (mut conc_a, mut log_a) = (ConcurrencyTracker::new(horizon), CompletionLog::new(horizon));
        let (mut conc_b, mut log_b) = (ConcurrencyTracker::new(horizon), CompletionLog::new(horizon));
        answers(&conc_a, &log_a, SimTime::ZERO, SimDuration::MAX);
        let mut now = 0u64;
        let mut level = 0u32;
        for (i, &(dt, op, arg)) in stream.iter().enumerate() {
            now += dt;
            let at = SimTime::from_nanos(now);
            let rt = SimDuration::from_nanos(arg);
            match op {
                0 | 1 if op == 0 || level == 0 => {
                    conc_a.enter(at);
                    conc_b.enter(at);
                    level += 1;
                }
                1 => {
                    conc_a.leave(at);
                    conc_b.leave(at);
                    level -= 1;
                }
                2 => {
                    log_a.record(at, rt);
                    log_b.record(at, rt);
                }
                3 => {
                    let late = SimTime::from_nanos(now.saturating_sub(40 * arg));
                    log_a.record(late, rt);
                    log_b.record(late, rt);
                }
                _ => {}
            }
            if i == first_read || (op == 4 && i > first_read) {
                prop_assert_eq!(
                    answers(&conc_a, &log_a, at, rt),
                    answers(&conc_b, &log_b, at, rt),
                    "step {} (first read at {})", i, first_read
                );
            } else if op == 4 {
                answers(&conc_a, &log_a, at, rt);
            }
        }
        prop_assert_eq!(log_a.len(), log_b.len());
        let end = SimTime::from_nanos(now);
        for thr_ms in [0u64, 5, 20] {
            let thr = SimDuration::from_millis(thr_ms);
            prop_assert_eq!(
                answers(&conc_a, &log_a, end, thr),
                answers(&conc_b, &log_b, end, thr),
                "final, threshold {} ms (first read at {})", thr_ms, first_read
            );
        }
    }

    /// `bucket_averages` and `average_in` are bit-identical to the scan.
    #[test]
    fn prop_concurrency_ring_equals_scan(stream in steps()) {
        let (conc, _, now) = replay(&stream);
        for (from, to, w) in windows(now) {
            prop_assert_eq!(
                bits(&conc.bucket_averages(from, to, w)),
                bits(&conc.bucket_averages_scan(from, to, w)),
                "bucket_averages [{}, {}) w={}", from, to, w
            );
            if from < to {
                prop_assert_eq!(
                    conc.average_in(from, to).to_bits(),
                    conc.average_in_scan(from, to).to_bits(),
                    "average_in [{}, {})", from, to
                );
            }
        }
    }

    /// `bucket_counts`, `count_in` and `goodput_in` equal the scan for a
    /// sequence of alternating thresholds (each change re-folds the ring).
    #[test]
    fn prop_completion_ring_equals_scan(
        stream in steps(),
        thresholds in proptest::collection::vec(0u64..50_000_000, 1..5),
    ) {
        let (_, log, now) = replay(&stream);
        for (from, to, w) in windows(now) {
            for &thr in &thresholds {
                let thr = SimDuration::from_nanos(thr);
                prop_assert_eq!(
                    log.bucket_counts(from, to, w, thr),
                    log.bucket_counts_scan(from, to, w, thr),
                    "bucket_counts [{}, {}) w={} thr={}", from, to, w, thr
                );
                prop_assert_eq!(log.count_in(from, to), log.count_in_scan(from, to));
                prop_assert_eq!(
                    log.goodput_in(from, to, thr),
                    log.goodput_in_scan(from, to, thr)
                );
            }
        }
    }

    /// Full scatter construction (goodput and throughput variants) is
    /// exactly equal to the oracle built from the scan queries.
    #[test]
    fn prop_scatter_equals_scan(
        stream in steps(),
        thr in 0u64..50_000_000,
    ) {
        let (conc, log, now) = replay(&stream);
        let mut scratch = ScatterScratch::default();
        for (from, to, w) in windows(now) {
            for threshold in [Some(SimDuration::from_nanos(thr)), None] {
                let mut ring = Vec::new();
                build_scatter_into(&conc, &log, from, to, w, threshold, &mut scratch, &mut ring);
                let scan = build_scatter_scan(&conc, &log, from, to, w, threshold);
                prop_assert_eq!(ring.len(), scan.len());
                for (r, s) in ring.iter().zip(&scan) {
                    prop_assert_eq!(r.q.to_bits(), s.q.to_bits());
                    prop_assert_eq!(r.rate.to_bits(), s.rate.to_bits());
                }
            }
        }
    }
}
