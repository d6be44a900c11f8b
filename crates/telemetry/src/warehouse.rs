//! The trace warehouse: a time-horizon-bounded store of finished traces.

use crate::{ServiceId, Span, Trace};
use sim_core::{SimDuration, SimTime};
use std::collections::{HashSet, VecDeque};

/// Upper bound on recycled span vectors kept in the spare pool.
const SPARE_POOL_CAP: usize = 256;

/// In-memory stand-in for the paper's Neo4j/MongoDB trace warehouse.
///
/// Finished traces are appended in completion order; traces older than a
/// configurable horizon are evicted so memory stays bounded over long runs.
/// A sampling ratio (1 in `k`) can be applied at ingest, mirroring
/// production tracing samplers; the concurrency/goodput metrics pipeline
/// does *not* go through the warehouse (it uses the dedicated per-service
/// samplers), so sampling here only affects critical-path analysis, exactly
/// like in the paper's architecture (Fig. 8).
///
/// Ingest through [`push`](TraceWarehouse::push) is **idempotent**: a
/// simulated network may retransmit trace reports, so each trace is keyed
/// by its root span id and duplicates are dropped before they can advance
/// the sampling counter — a run with duplicated deliveries stores
/// byte-identical contents to one without. Dedupe state is horizon-bounded:
/// ids are forgotten alongside eviction, so a duplicate arriving more than
/// a horizon late would be re-admitted (at that age it can no longer sit
/// next to its original in any query window that also contains the
/// original). A caller whose traces cannot repeat uses
/// [`push_unique`](TraceWarehouse::push_unique) and pays for no dedupe
/// state.
///
/// # Example
///
/// ```
/// use telemetry::{Trace, TraceWarehouse, Span, SpanId, RequestId, RequestTypeId,
///                 ServiceId, ReplicaId};
/// use sim_core::{SimDuration, SimTime};
///
/// let mut w = TraceWarehouse::new(SimDuration::from_secs(60), 1);
/// let span = Span {
///     id: SpanId(0), request: RequestId(0), service: ServiceId(0),
///     replica: ReplicaId(0), parent: None,
///     arrival: SimTime::ZERO, service_start: SimTime::ZERO, departure: SimTime::from_millis(10),
///     children: vec![],
/// };
/// w.push(Trace { request: RequestId(0), request_type: RequestTypeId(0), spans: vec![span] });
/// assert_eq!(w.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TraceWarehouse {
    horizon: SimDuration,
    sample_every: u64,
    counter: u64,
    traces: VecDeque<StoredTrace>,
    /// Root span ids of every distinct trace ingested through `push` within
    /// the horizon (stored *and* sampled-out), for duplicate suppression.
    seen: HashSet<u64>,
    /// `(completed, root span id)` in ingest order, mirroring `seen` so ids
    /// can be forgotten as the horizon advances. Out-of-order stragglers
    /// stall behind newer front entries and are retained slightly longer
    /// than the horizon — benign, it only widens the dedupe window.
    ledger: VecDeque<(SimTime, u64)>,
    /// Duplicate traces dropped at ingest.
    duplicates_dropped: u64,
    /// Recycled span vectors (capacity only; contents are cleared before
    /// reuse) handed back out through [`Self::take_spare_spans`] so steady-state
    /// trace assembly stops allocating.
    spare_spans: Vec<Vec<Span>>,
}

/// A trace plus the two query keys every warehouse scan needs, computed once
/// at ingest: the completion time (otherwise re-derived from the root span on
/// every window comparison) and a Bloom-style presence mask of the services
/// the trace touched (bit `service.0 % 64`). A clear mask bit proves the
/// service is absent, so [`TraceWarehouse::iter_touching`] skips the span
/// scan for non-matching traces; a set bit is confirmed by the exact scan
/// (only relevant for topologies with ≥ 64 services, where bits can alias).
#[derive(Debug, Clone)]
struct StoredTrace {
    completed: SimTime,
    service_mask: u64,
    trace: Trace,
}

fn service_bit(service: ServiceId) -> u64 {
    1u64 << (service.0 % 64)
}

impl TraceWarehouse {
    /// Creates a warehouse keeping `horizon` of history, ingesting one in
    /// `sample_every` traces (`1` keeps everything).
    ///
    /// # Panics
    ///
    /// Panics if `sample_every` is zero.
    pub fn new(horizon: SimDuration, sample_every: u64) -> Self {
        assert!(sample_every > 0, "sample_every must be at least 1");
        TraceWarehouse {
            horizon,
            sample_every,
            counter: 0,
            traces: VecDeque::new(),
            seen: HashSet::new(),
            ledger: VecDeque::new(),
            duplicates_dropped: 0,
            spare_spans: Vec::new(),
        }
    }

    /// Ingests a finished trace (subject to sampling), evicting expired ones.
    ///
    /// A trace whose root span id was already ingested within the horizon is
    /// a network retransmit: it is dropped *before* the sampling counter
    /// advances, so duplicated deliveries cannot shift which later traces
    /// the sampler keeps. Traces with no spans bypass dedupe (they have no
    /// identity to key on).
    pub fn push(&mut self, trace: Trace) {
        let now = trace.completed_at();
        if let Some(root) = trace.spans.first() {
            let id = root.id.get();
            if !self.seen.insert(id) {
                self.duplicates_dropped += 1;
                self.recycle(trace.spans);
                return;
            }
            self.ledger.push_back((now, id));
        }
        self.admit(trace, now);
    }

    /// Ingests a trace whose root span id the caller guarantees was never
    /// offered before, skipping the dedupe bookkeeping [`Self::push`] keeps.
    /// Sampling and eviction are the same, so a caller with unique ids
    /// stores exactly what `push` would; a duplicate offered here is stored
    /// twice.
    pub fn push_unique(&mut self, trace: Trace) {
        let now = trace.completed_at();
        self.admit(trace, now);
    }

    fn admit(&mut self, trace: Trace, now: SimTime) {
        self.counter += 1;
        if (self.counter - 1).is_multiple_of(self.sample_every) {
            let service_mask = trace
                .spans
                .iter()
                .fold(0u64, |mask, span| mask | service_bit(span.service));
            self.traces.push_back(StoredTrace {
                completed: now,
                service_mask,
                trace,
            });
        } else {
            self.recycle(trace.spans);
        }
        self.evict_before(now);
    }

    /// Drops traces that completed before `now − horizon`, forgetting their
    /// dedupe ids along the way and recycling their span storage.
    pub fn evict_before(&mut self, now: SimTime) {
        let cutoff = now.saturating_since(SimTime::ZERO);
        let min_keep = if cutoff > self.horizon {
            SimTime::ZERO + (cutoff - self.horizon)
        } else {
            SimTime::ZERO
        };
        while let Some(front) = self.traces.front() {
            if front.completed < min_keep {
                let expired = self.traces.pop_front().expect("front exists");
                self.recycle(expired.trace.spans);
            } else {
                break;
            }
        }
        while let Some(&(t, id)) = self.ledger.front() {
            if t < min_keep {
                self.ledger.pop_front();
                self.seen.remove(&id);
            } else {
                break;
            }
        }
    }

    /// Returns a cleared, possibly pre-sized span vector from the spare
    /// pool (or a fresh one), for assembling the next trace without a heap
    /// allocation in steady state.
    pub fn take_spare_spans(&mut self) -> Vec<Span> {
        self.spare_spans.pop().unwrap_or_default()
    }

    fn recycle(&mut self, mut spans: Vec<Span>) {
        if self.spare_spans.len() < SPARE_POOL_CAP && spans.capacity() > 0 {
            spans.clear();
            self.spare_spans.push(spans);
        }
    }

    /// Duplicate traces dropped at ingest (network retransmits).
    pub fn duplicates_dropped(&self) -> u64 {
        self.duplicates_dropped
    }

    /// Checks the idempotence invariant: no two *stored* traces share a root
    /// span id. Ingest-time dedupe makes this hold by construction; the
    /// audit re-derives it from the stored contents alone, so a regression
    /// in the dedupe bookkeeping (or a bypass path) is caught here.
    #[cfg(feature = "audit")]
    pub fn audit_into(&self, now: SimTime, sink: &mut dyn sim_core::audit::AuditSink) {
        use sim_core::audit::{Invariant, Violation};
        let mut roots = HashSet::with_capacity(self.traces.len());
        let mut dupes = 0u64;
        let mut example = None;
        for s in &self.traces {
            if let Some(root) = s.trace.spans.first() {
                if !roots.insert(root.id.get()) {
                    dupes += 1;
                    example.get_or_insert(root.id);
                }
            }
        }
        if let Some(id) = example {
            sink.record(Violation {
                invariant: Invariant::TelemetryIdempotence,
                at_nanos: now.as_nanos(),
                detail: format!(
                    "{dupes} stored trace(s) share a root span id with an \
                     earlier stored trace; first duplicate root span {id}"
                ),
            });
        }
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// True when no traces are stored.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Total traces offered for ingest (before sampling/eviction).
    pub fn ingested(&self) -> u64 {
        self.counter
    }

    /// Iterates stored traces oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Trace> + '_ {
        self.traces.iter().map(|s| &s.trace)
    }

    /// Iterates traces that completed within `[from, to)`.
    pub fn iter_window(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &Trace> + '_ {
        self.traces
            .iter()
            .filter(move |s| s.completed >= from && s.completed < to)
            .map(|s| &s.trace)
    }

    /// Iterates traces whose spans touch `service` in `[from, to)`.
    ///
    /// Traces whose ingest-time presence mask excludes the service are
    /// skipped without scanning their spans; mask hits are confirmed by an
    /// exact span scan (masks can alias above 64 services).
    pub fn iter_touching(
        &self,
        service: ServiceId,
        from: SimTime,
        to: SimTime,
    ) -> impl Iterator<Item = &Trace> + '_ {
        let bit = service_bit(service);
        self.traces
            .iter()
            .filter(move |s| {
                s.completed >= from
                    && s.completed < to
                    && s.service_mask & bit != 0
                    && s.trace.spans.iter().any(|sp| sp.service == service)
            })
            .map(|s| &s.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ReplicaId, RequestId, RequestTypeId, Span, SpanId};

    fn trace(req: u64, done_ms: u64) -> Trace {
        Trace {
            request: RequestId(req),
            request_type: RequestTypeId(0),
            spans: vec![Span {
                id: SpanId(req),
                request: RequestId(req),
                service: ServiceId((req % 3) as u32),
                replica: ReplicaId(0),
                parent: None,
                arrival: SimTime::ZERO,
                service_start: SimTime::ZERO,
                departure: SimTime::from_millis(done_ms),
                children: vec![],
            }],
        }
    }

    #[test]
    fn horizon_evicts_old_traces() {
        let mut w = TraceWarehouse::new(SimDuration::from_millis(100), 1);
        w.push(trace(1, 10));
        w.push(trace(2, 50));
        w.push(trace(3, 160)); // cutoff 60 ms evicts both earlier traces
        assert_eq!(w.len(), 1);
        assert_eq!(w.iter().next().unwrap().request, RequestId(3));
    }

    #[test]
    fn sampling_keeps_one_in_k() {
        let mut w = TraceWarehouse::new(SimDuration::from_secs(10), 3);
        for i in 0..9 {
            w.push(trace(i, i + 1));
        }
        assert_eq!(w.len(), 3);
        assert_eq!(w.ingested(), 9);
    }

    #[test]
    fn window_queries() {
        let mut w = TraceWarehouse::new(SimDuration::from_secs(10), 1);
        for i in 1..=5 {
            w.push(trace(i, i * 10));
        }
        let hits: Vec<_> = w
            .iter_window(SimTime::from_millis(20), SimTime::from_millis(41))
            .map(|t| t.request.get())
            .collect();
        assert_eq!(hits, [2, 3, 4]);
        let touching = w
            .iter_touching(ServiceId(1), SimTime::ZERO, SimTime::from_secs(1))
            .count();
        assert_eq!(touching, 2); // requests 1 and 4
    }

    #[test]
    fn touching_mask_is_exact_even_with_aliased_ids() {
        // ServiceId(1) and ServiceId(65) share presence-mask bit 1; the
        // confirming span scan must still tell them apart.
        let mut w = TraceWarehouse::new(SimDuration::from_secs(10), 1);
        let mut t1 = trace(1, 10);
        t1.spans[0].service = ServiceId(65);
        w.push(t1);
        let mut t2 = trace(2, 20);
        t2.spans[0].service = ServiceId(1);
        w.push(t2);
        let count = |svc: u32| {
            w.iter_touching(ServiceId(svc), SimTime::ZERO, SimTime::from_secs(1))
                .count()
        };
        assert_eq!(count(1), 1);
        assert_eq!(count(65), 1);
        assert_eq!(count(2), 0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_sampling_panics() {
        let _ = TraceWarehouse::new(SimDuration::from_secs(1), 0);
    }

    #[test]
    fn duplicate_push_is_idempotent() {
        let mut w = TraceWarehouse::new(SimDuration::from_secs(10), 1);
        w.push(trace(1, 10));
        w.push(trace(1, 10)); // retransmit of the same trace
        w.push(trace(2, 20));
        assert_eq!(w.len(), 2);
        assert_eq!(w.ingested(), 2);
        assert_eq!(w.duplicates_dropped(), 1);
    }

    #[test]
    fn duplicates_do_not_shift_the_sampler() {
        // With 1-in-2 sampling, interleaved retransmits must not change
        // which distinct traces get kept.
        let mut clean = TraceWarehouse::new(SimDuration::from_secs(10), 2);
        let mut noisy = TraceWarehouse::new(SimDuration::from_secs(10), 2);
        for i in 0..6 {
            clean.push(trace(i, 10 * (i + 1)));
            noisy.push(trace(i, 10 * (i + 1)));
            noisy.push(trace(i, 10 * (i + 1))); // duplicate every delivery
        }
        let kept = |w: &TraceWarehouse| -> Vec<u64> { w.iter().map(|t| t.request.get()).collect() };
        assert_eq!(kept(&clean), kept(&noisy));
        assert_eq!(noisy.duplicates_dropped(), 6);
        assert_eq!(clean.ingested(), noisy.ingested());
    }

    #[test]
    fn dedupe_ids_are_forgotten_with_the_horizon() {
        let mut w = TraceWarehouse::new(SimDuration::from_millis(100), 1);
        w.push(trace(1, 10));
        w.push(trace(2, 300)); // evicts trace 1 and its dedupe id
        w.push(trace(1, 10)); // a full horizon late: re-admitted
        assert_eq!(w.duplicates_dropped(), 0);
        assert_eq!(w.ingested(), 3);
    }

    #[test]
    fn unique_ingest_stores_what_push_stores() {
        // Same sampling and eviction as `push`, without the dedupe ledger.
        let mut deduped = TraceWarehouse::new(SimDuration::from_millis(100), 2);
        let mut unique = TraceWarehouse::new(SimDuration::from_millis(100), 2);
        for i in 0..12 {
            deduped.push(trace(i, 30 * (i + 1)));
            unique.push_unique(trace(i, 30 * (i + 1)));
        }
        let kept = |w: &TraceWarehouse| -> Vec<u64> { w.iter().map(|t| t.request.get()).collect() };
        assert_eq!(kept(&unique), kept(&deduped));
        assert_eq!(unique.ingested(), deduped.ingested());
        assert!(unique.seen.is_empty() && unique.ledger.is_empty());
    }

    #[test]
    fn spare_span_pool_recycles_capacity() {
        let mut w = TraceWarehouse::new(SimDuration::from_millis(50), 1);
        assert_eq!(w.take_spare_spans().capacity(), 0);
        w.push(trace(1, 10));
        w.push(trace(2, 200)); // evicts trace 1, recycling its span vec
        let spare = w.take_spare_spans();
        assert!(spare.is_empty(), "recycled vec must be cleared");
        assert!(spare.capacity() > 0, "recycled vec keeps its capacity");
        // Duplicates also donate their span storage.
        w.push(trace(2, 200));
        assert!(w.take_spare_spans().capacity() > 0);
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_flags_stored_duplicates() {
        use sim_core::audit::{CountingSink, Invariant};
        let mut w = TraceWarehouse::new(SimDuration::from_secs(10), 1);
        w.push(trace(1, 10));
        w.push(trace(2, 20));
        let mut sink = CountingSink::new();
        w.audit_into(SimTime::from_millis(20), &mut sink);
        assert_eq!(sink.total(), 0, "{}", sink.summary());
        // Force a duplicate past the ingest guard to prove the audit is an
        // independent re-derivation, not a mirror of the dedupe set.
        let smuggled = trace(1, 30);
        let mask = service_bit(smuggled.spans[0].service);
        w.traces.push_back(StoredTrace {
            completed: SimTime::from_millis(30),
            service_mask: mask,
            trace: smuggled,
        });
        w.audit_into(SimTime::from_millis(30), &mut sink);
        assert_eq!(sink.count(Invariant::TelemetryIdempotence), 1);
    }
}
