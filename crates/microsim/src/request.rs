//! In-flight request state: the frame tree a request builds as it fans out.

use sim_core::SimTime;
use telemetry::{ChildCall, ReplicaId, RequestId, RequestTypeId, ServiceId, Span, SpanId, Trace};

/// Index of a frame within its request's frame arena.
pub(crate) type FrameIdx = usize;

/// One service invocation of a request: the mutable, under-construction
/// counterpart of a [`Span`].
#[derive(Debug, Clone)]
pub(crate) struct Frame {
    pub service: ServiceId,
    pub replica: ReplicaId,
    pub span_id: SpanId,
    /// Parent frame plus the index of the parent's `ChildCall` this frame
    /// answers (to stamp the call's end time on return).
    pub parent: Option<(FrameIdx, usize)>,
    /// Next stage of the behaviour to execute.
    pub stage: usize,
    /// Outstanding parallel child calls.
    pub pending_children: usize,
    /// When the request arrived at the service (span start; includes any
    /// accept-queue wait).
    pub arrival: SimTime,
    /// When a thread was acquired (service start), if yet.
    pub started: Option<SimTime>,
    /// When the span completed, if yet.
    pub departure: Option<SimTime>,
    /// Downstream calls issued so far (`end == SimTime::MAX` means
    /// outstanding; a completed call can have `end == start` when network
    /// delay and compute are both zero).
    pub calls: Vec<ChildCall>,
    /// Resend generation per call, parallel to `calls` — populated only
    /// when a network is installed (function-edge worlds never allocate
    /// it). A `CallTimeout` event carries the generation it was armed
    /// with; a mismatch means a later resend superseded it.
    pub attempts: Vec<u32>,
}

impl Frame {
    pub fn new(
        service: ServiceId,
        replica: ReplicaId,
        span_id: SpanId,
        parent: Option<(FrameIdx, usize)>,
        arrival: SimTime,
    ) -> Self {
        Frame {
            service,
            replica,
            span_id,
            parent,
            stage: 0,
            pending_children: 0,
            arrival,
            started: None,
            departure: None,
            calls: Vec::new(),
            attempts: Vec::new(),
        }
    }
}

/// Everything the world tracks about one in-flight request.
#[derive(Debug, Clone)]
pub(crate) struct RequestState {
    pub id: RequestId,
    pub rtype: RequestTypeId,
    /// When the user issued the request (before network delay).
    pub issued: SimTime,
    /// Frame arena; frame 0 is the root (entry-service) frame. Frames are
    /// never removed, so indices stay stable for event references.
    pub frames: Vec<Frame>,
}

impl RequestState {
    pub fn new(id: RequestId, rtype: RequestTypeId, issued: SimTime) -> Self {
        RequestState {
            id,
            rtype,
            issued,
            frames: Vec::new(),
        }
    }

    /// Assembles the finished trace. All frames must be departed.
    ///
    /// # Panics
    ///
    /// Panics if any frame is still open (indicates a lifecycle bug).
    #[cfg(test)]
    pub fn into_trace(self) -> Trace {
        self.into_trace_with(Vec::new(), None)
    }

    /// Assembles the finished trace into `spans` (a recycled span vector
    /// from the warehouse's spare pool — cleared before use, so only its
    /// capacity is reused).
    ///
    /// `close_open_at`: with a network installed, a resend that raced its
    /// original can leave a duplicate child frame still executing when the
    /// root responds; passing `Some(now)` clamps such orphan frames (and
    /// their outstanding calls) to `now` instead of panicking. Function-edge
    /// worlds pass `None`, keeping the open-frame panic as a lifecycle
    /// assertion.
    ///
    /// # Panics
    ///
    /// Panics if a frame is still open and `close_open_at` is `None`.
    pub fn into_trace_with(
        mut self,
        mut spans: Vec<Span>,
        close_open_at: Option<SimTime>,
    ) -> Trace {
        let request = self.id;
        let rtype = self.rtype;
        spans.clear();
        // Exact, so a stored trace holds no spare span slots. A recycled
        // vector keeps its capacity when it already fits.
        spans.reserve_exact(self.frames.len());
        // Index loop instead of a consuming map: parent span ids are read
        // straight out of the arena (frames only ever point backwards), so
        // no side table of span ids is allocated.
        for i in 0..self.frames.len() {
            let parent = self.frames[i].parent.map(|(p, _)| self.frames[p].span_id);
            let f = &mut self.frames[i];
            let mut children = std::mem::take(&mut f.calls);
            let departure = match (f.departure, close_open_at) {
                (Some(d), _) => d,
                (None, Some(t)) => {
                    for call in children.iter_mut() {
                        if call.end == SimTime::MAX {
                            call.end = t;
                        }
                    }
                    t
                }
                (None, None) => panic!("open frame in finished request {request}"),
            };
            spans.push(Span {
                id: f.span_id,
                request,
                service: f.service,
                replica: f.replica,
                parent,
                arrival: f.arrival,
                service_start: f.started.unwrap_or(f.arrival),
                departure,
                children,
            });
        }
        Trace {
            request,
            request_type: rtype,
            spans,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn trace_assembly_links_parents() {
        let mut req = RequestState::new(RequestId(7), RequestTypeId(1), t(0));
        let mut root = Frame::new(ServiceId(0), ReplicaId(0), SpanId(100), None, t(1));
        root.departure = Some(t(50));
        root.calls.push(ChildCall {
            service: ServiceId(1),
            start: t(5),
            end: t(40),
        });
        req.frames.push(root);
        let mut child = Frame::new(ServiceId(1), ReplicaId(3), SpanId(101), Some((0, 0)), t(6));
        child.departure = Some(t(39));
        req.frames.push(child);

        let trace = req.into_trace();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].parent, Some(SpanId(100)));
        assert_eq!(trace.response_time(), SimDuration::from_millis(49));
    }

    #[test]
    fn recycled_span_vec_is_cleared_and_reused() {
        let mut req = RequestState::new(RequestId(2), RequestTypeId(0), t(0));
        let mut root = Frame::new(ServiceId(0), ReplicaId(0), SpanId(5), None, t(0));
        root.departure = Some(t(10));
        req.frames.push(root);
        // A dirty recycled vector: stale contents must not leak through.
        let mut pool: Vec<Span> = Vec::with_capacity(8);
        pool.push(Span {
            id: SpanId(999),
            request: RequestId(9),
            service: ServiceId(9),
            replica: ReplicaId(9),
            parent: None,
            arrival: t(0),
            service_start: t(0),
            departure: t(1),
            children: Vec::new(),
        });
        let trace = req.into_trace_with(pool, None);
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].id, SpanId(5));
    }

    #[test]
    fn close_open_at_clamps_orphan_frames_and_calls() {
        let mut req = RequestState::new(RequestId(3), RequestTypeId(0), t(0));
        let mut root = Frame::new(ServiceId(0), ReplicaId(0), SpanId(1), None, t(0));
        root.departure = Some(t(50));
        req.frames.push(root);
        // Orphaned duplicate child: still open, with an outstanding call.
        let mut orphan = Frame::new(ServiceId(1), ReplicaId(2), SpanId(2), Some((0, 0)), t(5));
        orphan.started = Some(t(6));
        orphan.calls.push(ChildCall {
            service: ServiceId(2),
            start: t(7),
            end: SimTime::MAX,
        });
        req.frames.push(orphan);
        let trace = req.into_trace_with(Vec::new(), Some(t(50)));
        assert_eq!(trace.spans[1].departure, t(50));
        assert_eq!(trace.spans[1].children[0].end, t(50));
    }

    #[test]
    #[should_panic(expected = "open frame")]
    fn open_frame_panics_on_assembly() {
        let mut req = RequestState::new(RequestId(1), RequestTypeId(0), t(0));
        req.frames.push(Frame::new(
            ServiceId(0),
            ReplicaId(0),
            SpanId(0),
            None,
            t(0),
        ));
        let _ = req.into_trace();
    }
}
