//! Per-thread allocation metering.
//!
//! The `scale` bench and the perf ledger count heap allocations per
//! simulated request through a counting [`std::alloc::GlobalAlloc`]. The
//! simulator executes a world on the thread that drives it, so a pair of
//! thread-local counters is all the bookkeeping a measurement needs:
//!
//! * Every thread owns lock-free thread-local counters, bumped by
//!   [`note_alloc`] from the global allocator hook. The hot path is two
//!   `Cell` increments — no atomics, no branches on shared state.
//! * A measurement opens a [`Scope`], which remembers the calling thread's
//!   counters; [`Scope::finish`] reports the delta since then.
//!
//! Because each thread's counters are private, concurrent measurements on
//! different threads (e.g. sweep jobs at `--jobs 4`) stay fully isolated: a
//! job measured alone and the same job measured next to three neighbours
//! report identical numbers. Scopes on one thread may nest.

use std::cell::Cell;

thread_local! {
    static TL_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Records one allocation of `bytes` bytes on the calling thread.
///
/// Safe to call from inside a `GlobalAlloc` implementation: it never
/// allocates (`try_with` tolerates thread-local storage being torn down
/// during thread exit) and touches no shared state.
#[inline]
pub fn note_alloc(bytes: u64) {
    let _ = TL_BYTES.try_with(|c| c.set(c.get().wrapping_add(bytes)));
    let _ = TL_COUNT.try_with(|c| c.set(c.get().wrapping_add(1)));
}

/// Allocation totals observed by a [`Scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocStats {
    /// Total bytes requested from the allocator.
    pub bytes: u64,
    /// Number of allocation calls.
    pub count: u64,
}

fn tl_snapshot() -> (u64, u64) {
    (
        TL_BYTES.try_with(Cell::get).unwrap_or(0),
        TL_COUNT.try_with(Cell::get).unwrap_or(0),
    )
}

/// An open measurement region on the current thread.
pub struct Scope {
    base_bytes: u64,
    base_count: u64,
}

impl Scope {
    /// Opens a scope: snapshots the calling thread's counters.
    pub fn begin() -> Scope {
        let (base_bytes, base_count) = tl_snapshot();
        Scope {
            base_bytes,
            base_count,
        }
    }

    /// Closes the scope and returns the calling thread's allocations since
    /// [`Scope::begin`].
    pub fn finish(self) -> AllocStats {
        let (now_bytes, now_count) = tl_snapshot();
        AllocStats {
            bytes: now_bytes.wrapping_sub(self.base_bytes),
            count: now_count.wrapping_sub(self.base_count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_counts_own_thread_delta() {
        let scope = Scope::begin();
        note_alloc(100);
        note_alloc(28);
        let stats = scope.finish();
        assert_eq!(
            stats,
            AllocStats {
                bytes: 128,
                count: 2
            }
        );
    }

    #[test]
    fn other_threads_do_not_leak_into_scope() {
        let scope = Scope::begin();
        std::thread::scope(|s| {
            s.spawn(|| {
                note_alloc(1_000_000);
            });
        });
        let stats = scope.finish();
        assert_eq!(stats, AllocStats::default());
    }

    #[test]
    fn concurrent_scopes_are_isolated() {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|i| {
                    s.spawn(move || {
                        let scope = Scope::begin();
                        for _ in 0..=i {
                            note_alloc(7);
                        }
                        scope.finish()
                    })
                })
                .collect();
            let results: Vec<AllocStats> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            for (i, stats) in results.into_iter().enumerate() {
                let n = i as u64 + 1;
                assert_eq!(
                    stats,
                    AllocStats {
                        bytes: 7 * n,
                        count: n
                    }
                );
            }
        });
    }

    #[test]
    fn nested_scopes_each_see_their_own_delta() {
        let outer = Scope::begin();
        note_alloc(5);
        let inner = Scope::begin();
        note_alloc(3);
        assert_eq!(inner.finish(), AllocStats { bytes: 3, count: 1 });
        assert_eq!(outer.finish(), AllocStats { bytes: 8, count: 2 });
    }
}
