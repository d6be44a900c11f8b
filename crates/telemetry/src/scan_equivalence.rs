//! Property tests: the windowed queries — a scan that starts at the window
//! by binary search and walks bucket boundaries with a running index — are
//! *bit-identical* to the straight reference scans (every retained segment,
//! one division per chunk or entry) on arbitrary interleaved
//! enter/leave/record/late-record streams, including compaction, eviction
//! and windows that straddle the evicted past or run past "now".

use crate::scatter::{push_points, ScatterScratch};
use crate::{build_scatter_into, CompletionLog, ConcurrencyTracker};
use proptest::prelude::*;
use sim_core::{SimDuration, SimTime};

/// Both samplers, and the instant the stream has reached.
struct Samplers {
    conc: ConcurrencyTracker,
    log: CompletionLog,
    now: SimTime,
}

/// Replays a stream of `(dt_nanos, op, arg)` steps into a tracker and a log
/// with a 1 s horizon: advance time by `dt`, then op 0 = enter, 1 = leave
/// (an enter when idle, keeping the level legal), 2 = record(rt = `arg`),
/// 3 = a late record `40 · arg` before now (up to 1.6 s, past the 1 s
/// horizon), 4 = `check` every window at threshold `arg`. Irregular gaps
/// up to 60 ms mean a few hundred events span several times the horizon,
/// so compaction and eviction trigger. With `on_grid`, every instant is a
/// whole millisecond, so events land exactly on bucket boundaries.
fn replay(
    stream: &[(u64, u8, u64)],
    on_grid: bool,
    mut check: impl FnMut(&Samplers, SimDuration),
) -> Samplers {
    let horizon = SimDuration::from_secs(1);
    let grid = if on_grid { 1_000_000 } else { 1 };
    let mut s = Samplers {
        conc: ConcurrencyTracker::new(horizon),
        log: CompletionLog::new(horizon),
        now: SimTime::ZERO,
    };
    for &(dt, op, arg) in stream {
        s.now += SimDuration::from_nanos(dt / grid * grid);
        let rt = SimDuration::from_nanos(arg);
        match op {
            1 if s.conc.current() > 0 => s.conc.leave(s.now),
            0 | 1 => s.conc.enter(s.now),
            2 => s.log.record(s.now, rt),
            3 => {
                let back = 40 * arg / grid * grid;
                s.log.record(
                    SimTime::from_nanos(s.now.as_nanos().saturating_sub(back)),
                    rt,
                );
            }
            _ => check(&s, rt),
        }
    }
    s
}

fn steps() -> proptest::collection::VecStrategy<(
    std::ops::Range<u64>,
    std::ops::Range<u8>,
    std::ops::Range<u64>,
)> {
    proptest::collection::vec((0u64..60_000_000, 0u8..5, 0u64..40_000_000), 1..300)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Query windows covering every shape a reader asks: windows straddling
/// the compacted/evicted past (from = 0), windows extending past "now",
/// unaligned starts and widths, and windows from the oldest 10 ms bucket a
/// late sample may still land in.
fn windows(now: SimTime) -> Vec<(SimTime, SimTime, SimDuration)> {
    let ms = |v: u64| SimDuration::from_millis(v);
    let end_ms = now.as_nanos() / 1_000_000;
    let align = |v: u64, w: u64| SimTime::from_millis((v / w) * w);
    // The oldest bucket a late sample is kept in: 102 buckets of 10 ms
    // ending at the newest (1 s horizon).
    let oldest = (now.as_nanos() / 10_000_000 + 1).saturating_sub(102);
    let mut out = vec![
        // Straddles everything ever evicted.
        (SimTime::ZERO, now + ms(50), ms(100)),
        // Unaligned width and start.
        (
            SimTime::from_nanos(12_345),
            now,
            SimDuration::from_nanos(33_333_333),
        ),
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

/// `bucket_averages` and `average_in` equal the tracker's reference scans.
fn check_concurrency(s: &Samplers) {
    for (from, to, w) in windows(s.now) {
        let (got, want) = (
            s.conc.bucket_averages(from, to, w),
            s.conc.reference_bucket_averages(from, to, w),
        );
        prop_assert_eq!(bits(&got), bits(&want), "[{from}, {to}) w={w}");
        if from < to {
            let (got, want) = (
                s.conc.average_in(from, to),
                s.conc.reference_average_in(from, to),
            );
            prop_assert_eq!(got.to_bits(), want.to_bits(), "[{from}, {to})");
        }
    }
}

/// `bucket_counts`, `count_in` and `goodput_in` equal the log's reference
/// scans at `threshold`.
fn check_completions(s: &Samplers, threshold: SimDuration) {
    for (from, to, w) in windows(s.now) {
        let (got, want) = (
            s.log.bucket_counts(from, to, w, threshold),
            s.log.reference_bucket_counts(from, to, w, threshold),
        );
        prop_assert_eq!(got, want, "[{from}, {to}) w={w} thr={threshold}");
        let got = (
            s.log.count_in(from, to),
            s.log.goodput_in(from, to, threshold),
        );
        let want = s.log.reference_counts(from, to, threshold);
        prop_assert_eq!(got, want, "[{from}, {to}) thr={threshold}");
    }
}

proptest! {
    /// At every check step and at the end of the stream.
    #[test]
    fn prop_concurrency_scan_equals_reference(stream in steps(), on_grid in 0u8..2) {
        let s = replay(&stream, on_grid == 1, |s, _| check_concurrency(s));
        check_concurrency(&s);
    }

    /// At every check step's threshold, and at the end for a sequence of
    /// thresholds.
    #[test]
    fn prop_completion_scan_equals_reference(
        stream in steps(),
        on_grid in 0u8..2,
        thresholds in proptest::collection::vec(0u64..50_000_000, 1..5),
    ) {
        let s = replay(&stream, on_grid == 1, check_completions);
        for thr in thresholds {
            check_completions(&s, SimDuration::from_nanos(thr));
        }
    }

    /// Scatter construction (goodput and throughput variants) equals the
    /// points built from the reference scans.
    #[test]
    fn prop_scatter_equals_reference(
        stream in steps(),
        on_grid in 0u8..2,
        thr in 0u64..50_000_000,
    ) {
        let s = replay(&stream, on_grid == 1, |_, _| {});
        let mut scratch = ScatterScratch::default();
        for (from, to, w) in windows(s.now) {
            for threshold in [Some(SimDuration::from_nanos(thr)), None] {
                let mut got = Vec::new();
                build_scatter_into(&s.conc, &s.log, from, to, w, threshold, &mut scratch, &mut got);
                let mut want = Vec::new();
                let thr = threshold.unwrap_or(SimDuration::MAX);
                let (qs, counts) = (
                    s.conc.reference_bucket_averages(from, to, w),
                    s.log.reference_bucket_counts(from, to, w, thr),
                );
                push_points(&qs, &counts, w, threshold, &mut want);
                let point_bits = |pts: &[crate::ScatterPoint]| -> Vec<(u64, u64)> {
                    pts.iter().map(|p| (p.q.to_bits(), p.rate.to_bits())).collect()
                };
                prop_assert_eq!(point_bits(&got), point_bits(&want), "[{from}, {to}) w={w}");
            }
        }
    }
}
