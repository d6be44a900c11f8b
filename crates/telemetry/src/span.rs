//! Spans and traces: the request-level records the Monitoring Module emits.

use crate::{ReplicaId, RequestId, RequestTypeId, ServiceId, SpanId};
use serde::{Deserialize, Serialize};
use sim_core::{SimDuration, SimTime};

/// One downstream RPC issued while serving a span: which service was called
/// and when the call was outstanding. Used to split a span's wall time into
/// *own processing* vs *waiting on children* — the paper's `PT` vs `RT`
/// decomposition (§3.2, eq. 1–3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChildCall {
    /// The downstream service invoked.
    pub service: ServiceId,
    /// When the call was issued.
    pub start: SimTime,
    /// When the response arrived.
    pub end: SimTime,
}

impl ChildCall {
    /// Wall time the call was outstanding.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }
}

/// One service's segment of a request: arrival and departure timestamps plus
/// the downstream calls made in between. This is the unit the trace
/// warehouse stores, equivalent to an OpenTracing span.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// The span's identity.
    pub id: SpanId,
    /// The request this span belongs to.
    pub request: RequestId,
    /// The service that executed it.
    pub service: ServiceId,
    /// The replica (pod) that executed it.
    pub replica: ReplicaId,
    /// The parent span, if any (`None` for the root / front-end span).
    pub parent: Option<SpanId>,
    /// When the request arrived at this service.
    pub arrival: SimTime,
    /// When a worker thread picked the request up (arrival plus any accept
    /// -queue wait).
    pub service_start: SimTime,
    /// When the response left this service.
    pub departure: SimTime,
    /// Downstream calls made while serving, in issue order.
    pub children: Vec<ChildCall>,
}

impl Span {
    /// Total wall time spent in this service (including downstream waits).
    pub fn response_time(&self) -> SimDuration {
        self.departure - self.arrival
    }

    /// Time spent waiting for a worker thread (soft-resource queueing).
    pub fn queue_wait(&self) -> SimDuration {
        self.service_start.saturating_since(self.arrival)
    }

    /// Own processing time: wall time minus the union of child-call
    /// intervals. Overlapping (parallel) child calls are not double-counted.
    ///
    /// This is the paper's `PT_s = PT_req,s + PT_res,s` — the part of the
    /// span that the *local* service spent queueing/computing, which is what
    /// deadline propagation subtracts from the SLA (eq. 3).
    pub fn self_time(&self) -> SimDuration {
        let total = self.response_time();
        let waiting = self.child_wait_time();
        if waiting >= total {
            SimDuration::ZERO
        } else {
            total - waiting
        }
    }

    /// Wall time covered by at least one outstanding child call (interval
    /// union, robust to parallel fan-out). Allocates nothing: children are
    /// recorded in issue order, so their clipped starts are sorted and one
    /// merging sweep covers them; children out of start order are visited
    /// in `(start, index)` order by repeated selection instead.
    pub fn child_wait_time(&self) -> SimDuration {
        let clipped = |c: &ChildCall| (c.start.max(self.arrival), c.end.min(self.departure));
        if self.children.is_sorted_by_key(|c| clipped(c).0) {
            return union_len(self.children.iter().map(clipped));
        }
        let mut last: Option<(SimTime, usize)> = None;
        union_len(std::iter::from_fn(|| {
            let next = self
                .children
                .iter()
                .enumerate()
                .map(|(i, c)| (clipped(c).0, i))
                .filter(|&key| last.is_none_or(|l| key > l))
                .min()?;
            last = Some(next);
            Some(clipped(&self.children[next.1]))
        }))
    }
}

/// Length of the union of `[start, end)` intervals given in start order;
/// empty and inverted intervals cover nothing.
fn union_len(intervals: impl Iterator<Item = (SimTime, SimTime)>) -> SimDuration {
    let mut covered = SimDuration::ZERO;
    let mut cursor: Option<(SimTime, SimTime)> = None;
    for (s, e) in intervals.filter(|(s, e)| e > s) {
        match cursor {
            Some((cs, ce)) if s <= ce => cursor = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cursor = Some((s, e));
            }
            None => cursor = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cursor {
        covered += ce - cs;
    }
    covered
}

/// A finished request: its metadata plus every span it produced, root first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// The request's identity.
    pub request: RequestId,
    /// The request type (workload-mix entry).
    pub request_type: RequestTypeId,
    /// All spans of the request. `spans[0]` is the root (front-end) span.
    pub spans: Vec<Span>,
}

impl Trace {
    /// The root span.
    ///
    /// # Panics
    ///
    /// Panics if the trace has no spans (never produced by the simulator).
    pub fn root(&self) -> &Span {
        &self.spans[0]
    }

    /// End-to-end response time (root span duration).
    pub fn response_time(&self) -> SimDuration {
        self.root().response_time()
    }

    /// When the request completed.
    pub fn completed_at(&self) -> SimTime {
        self.root().departure
    }

    /// Looks up a span by id.
    pub fn span(&self, id: SpanId) -> Option<&Span> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// The spans executed by `service`, in arrival order of appearance.
    pub fn spans_of(&self, service: ServiceId) -> impl Iterator<Item = &Span> + '_ {
        self.spans.iter().filter(move |s| s.service == service)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn span(id: u64, arrival: u64, departure: u64, children: Vec<ChildCall>) -> Span {
        Span {
            id: SpanId(id),
            request: RequestId(1),
            service: ServiceId(0),
            replica: ReplicaId(0),
            parent: None,
            arrival: t(arrival),
            service_start: t(arrival),
            departure: t(departure),
            children,
        }
    }

    #[test]
    fn self_time_without_children_is_wall_time() {
        let s = span(0, 10, 25, vec![]);
        assert_eq!(s.response_time().as_millis(), 15);
        assert_eq!(s.self_time().as_millis(), 15);
        assert_eq!(s.child_wait_time(), SimDuration::ZERO);
    }

    #[test]
    fn sequential_children_subtract() {
        let s = span(
            0,
            0,
            100,
            vec![
                ChildCall {
                    service: ServiceId(1),
                    start: t(10),
                    end: t(30),
                },
                ChildCall {
                    service: ServiceId(2),
                    start: t(50),
                    end: t(70),
                },
            ],
        );
        assert_eq!(s.child_wait_time().as_millis(), 40);
        assert_eq!(s.self_time().as_millis(), 60);
    }

    #[test]
    fn parallel_children_are_not_double_counted() {
        let s = span(
            0,
            0,
            100,
            vec![
                ChildCall {
                    service: ServiceId(1),
                    start: t(10),
                    end: t(60),
                },
                ChildCall {
                    service: ServiceId(2),
                    start: t(20),
                    end: t(40),
                },
                ChildCall {
                    service: ServiceId(3),
                    start: t(50),
                    end: t(80),
                },
            ],
        );
        // Union of [10,60] ∪ [20,40] ∪ [50,80] = [10,80] → 70 ms.
        assert_eq!(s.child_wait_time().as_millis(), 70);
        assert_eq!(s.self_time().as_millis(), 30);
    }

    #[test]
    fn child_intervals_are_clamped_to_span() {
        let s = span(
            0,
            10,
            50,
            vec![ChildCall {
                service: ServiceId(1),
                start: t(0),
                end: t(100),
            }],
        );
        assert_eq!(s.child_wait_time().as_millis(), 40);
        assert_eq!(s.self_time(), SimDuration::ZERO);
    }

    /// The original implementation, kept as the oracle: collect the
    /// clipped intervals, sort them, merge.
    fn child_wait_time_sorting(s: &Span) -> SimDuration {
        let mut intervals: Vec<(SimTime, SimTime)> = s
            .children
            .iter()
            .map(|c| (c.start.max(s.arrival), c.end.min(s.departure)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort();
        let mut covered = SimDuration::ZERO;
        let mut cursor: Option<(SimTime, SimTime)> = None;
        for (a, b) in intervals {
            match cursor {
                None => cursor = Some((a, b)),
                Some((cs, ce)) => {
                    if a <= ce {
                        cursor = Some((cs, ce.max(b)));
                    } else {
                        covered += ce - cs;
                        cursor = Some((a, b));
                    }
                }
            }
        }
        if let Some((cs, ce)) = cursor {
            covered += ce - cs;
        }
        covered
    }

    proptest::proptest! {
        /// The allocation-free union equals the sorting oracle exactly, on
        /// children in issue order (sorted starts) and in arbitrary order,
        /// with intervals that overlap, touch, are empty or inverted, or
        /// stick out of the span.
        #[test]
        fn prop_child_wait_time_equals_sorting_oracle(
            calls in proptest::collection::vec((0u64..200, 0u64..200), 0..12),
            in_issue_order in 0u8..2,
            arrival in 0u64..60,
            departure in 0u64..220,
        ) {
            let mut children: Vec<ChildCall> = calls
                .iter()
                .map(|&(start, end)| ChildCall {
                    service: ServiceId(1),
                    start: t(start),
                    end: t(end),
                })
                .collect();
            if in_issue_order == 1 {
                children.sort_by_key(|c| c.start);
            }
            let s = span(0, arrival, departure.max(arrival), children);
            proptest::prop_assert_eq!(s.child_wait_time(), child_wait_time_sorting(&s));
        }
    }

    #[test]
    fn trace_accessors() {
        let tr = Trace {
            request: RequestId(9),
            request_type: RequestTypeId(2),
            spans: vec![
                span(0, 0, 50, vec![]),
                Span {
                    service: ServiceId(5),
                    ..span(1, 5, 45, vec![])
                },
            ],
        };
        assert_eq!(tr.response_time().as_millis(), 50);
        assert_eq!(tr.completed_at(), t(50));
        assert!(tr.span(SpanId(1)).is_some());
        assert!(tr.span(SpanId(7)).is_none());
        assert_eq!(tr.spans_of(ServiceId(5)).count(), 1);
    }
}
