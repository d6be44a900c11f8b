//! Critical-path extraction and the statistics behind critical-service
//! localisation (the first phase of the SCG workflow, §3.2).

use crate::{ReplicaId, ServiceId, Trace};
use sim_core::stats::{pearson, OnlineStats};
use sim_core::SimDuration;
use std::cmp::Reverse;
use std::collections::HashMap;

/// One hop of a request's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathHop {
    /// The service at this depth (depth 0 is the front-end).
    pub service: ServiceId,
    /// The replica that served it.
    pub replica: ReplicaId,
    /// The hop's *own* processing time (wall time minus downstream waits) —
    /// the paper's `PT_s`.
    pub self_time: SimDuration,
    /// The hop's total wall time including downstream waits — `RT_s`.
    pub response_time: SimDuration,
}

/// Extracts a trace's critical path: starting at the root span, repeatedly
/// descend into the direct child span with the largest wall time (the
/// *path of maximal duration* in the paper's definition, footnote 1). For
/// purely sequential call chains this visits every service on the chain;
/// for parallel fan-outs it follows the slowest branch — e.g. either
/// `front-end → Cart → Cart-db` or `front-end → Catalogue → Catalogue-db`
/// for the Catalogue request of Fig. 5, depending on runtime contention.
///
/// Returns the hops front-end-first. Never empty for a well-formed trace.
///
/// The root is the first span without a parent. Among siblings with equal
/// wall time the earliest span in the trace is followed.
pub fn critical_path(trace: &Trace) -> Vec<PathHop> {
    let mut path = Vec::new();
    critical_path_into(trace, &mut path);
    path
}

/// [`critical_path`] into a caller-owned buffer (cleared first). A hop's
/// children are found by scanning the trace's spans: traces hold a few
/// dozen spans at most, so the scan beats building a parent index per
/// trace, and the walk allocates nothing once `path` has grown.
fn critical_path_into(trace: &Trace, path: &mut Vec<PathHop>) {
    path.clear();
    let spans = &trace.spans;
    let Some(mut current) = spans.iter().position(|s| s.parent.is_none()) else {
        return;
    };
    loop {
        let span = &spans[current];
        path.push(PathHop {
            service: span.service,
            replica: span.replica,
            self_time: span.self_time(),
            response_time: span.response_time(),
        });
        let mut next: Option<(SimDuration, usize)> = None;
        for (i, child) in spans.iter().enumerate() {
            if child.parent == Some(span.id) {
                let rt = child.response_time();
                if next.is_none_or(|(best, _)| rt > best) {
                    next = Some((rt, i));
                }
            }
        }
        match next {
            Some((_, i)) => current = i,
            None => break,
        }
    }
}

/// Aggregated critical-path statistics over a window of traces: dominant
/// path shape, per-service Pearson correlation between on-path processing
/// time and end-to-end response time (the localisation signal), and mean
/// upstream processing time (the deadline-propagation input).
#[derive(Debug, Clone, Default)]
pub struct CriticalPathStats {
    /// How often each path shape (sequence of services) occurred.
    path_counts: HashMap<Vec<ServiceId>, u64>,
    /// Per-service: paired `(PT_si, RT_cp)` samples across traces where the
    /// service was on the critical path.
    samples: HashMap<ServiceId, (Vec<f64>, Vec<f64>)>,
    /// Per-service: sum of self-times of hops strictly *before* the service
    /// on the path (upstream processing, `Σ PT_sk` of eq. 3).
    upstream: HashMap<ServiceId, OnlineStats>,
    traces: u64,
}

impl CriticalPathStats {
    /// Number of traces analysed.
    pub fn trace_count(&self) -> u64 {
        self.traces
    }

    /// The most frequent critical-path shape, if any traces were analysed.
    /// Among equally frequent shapes the shortest wins, then the one whose
    /// service-id sequence is lowest, so the answer does not depend on
    /// hash order.
    pub fn dominant_path(&self) -> Option<&[ServiceId]> {
        self.path_counts
            .iter()
            .max_by_key(|(path, &count)| (count, Reverse(path.len()), Reverse(path.as_slice())))
            .map(|(path, _)| path.as_slice())
    }

    /// Pearson correlation between `service`'s on-path processing time and
    /// the end-to-end response time — the paper's `PCC(PT_si, RT_CP)`.
    pub fn pcc(&self, service: ServiceId) -> Option<f64> {
        let (pt, rt) = self.samples.get(&service)?;
        pearson(pt, rt)
    }

    /// The candidate critical service: largest PCC, ties broken toward the
    /// lower service id (deterministic).
    pub fn candidate_critical_service(&self) -> Option<ServiceId> {
        let mut best: Option<(f64, ServiceId)> = None;
        let mut ids: Vec<ServiceId> = self.samples.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            if let Some(r) = self.pcc(id) {
                match best {
                    Some((br, _)) if br >= r => {}
                    _ => best = Some((r, id)),
                }
            }
        }
        best.map(|(_, id)| id)
    }

    /// Mean upstream processing time observed before `service` on critical
    /// paths that include it — the `Σ_{k<i} PT_sk` of the RT-threshold
    /// propagation phase.
    pub fn mean_upstream_pt(&self, service: ServiceId) -> Option<SimDuration> {
        let stats = self.upstream.get(&service)?;
        if stats.is_empty() {
            return None;
        }
        Some(SimDuration::from_nanos(stats.mean().round() as u64))
    }

    /// How many traces had `service` on their critical path.
    pub fn on_path_count(&self, service: ServiceId) -> u64 {
        self.samples
            .get(&service)
            .map_or(0, |(pt, _)| pt.len() as u64)
    }
}

/// Analyses a window of traces into [`CriticalPathStats`].
///
/// One path buffer and one shape buffer serve the whole window; a path
/// shape is copied into the counts only the first time it is seen.
pub fn per_service_stats<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> CriticalPathStats {
    let mut stats = CriticalPathStats::default();
    let mut path = Vec::new();
    let mut shape: Vec<ServiceId> = Vec::new();
    for trace in traces {
        critical_path_into(trace, &mut path);
        if path.is_empty() {
            continue;
        }
        stats.traces += 1;
        let rt = trace.response_time().as_nanos() as f64;
        shape.clear();
        shape.extend(path.iter().map(|h| h.service));
        match stats.path_counts.get_mut(shape.as_slice()) {
            Some(count) => *count += 1,
            None => {
                stats.path_counts.insert(shape.clone(), 1);
            }
        }
        let mut upstream = SimDuration::ZERO;
        for hop in &path {
            let entry = stats.samples.entry(hop.service).or_default();
            entry.0.push(hop.self_time.as_nanos() as f64);
            entry.1.push(rt);
            stats
                .upstream
                .entry(hop.service)
                .or_insert_with(OnlineStats::new)
                .push(upstream.as_nanos() as f64);
            upstream += hop.self_time;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChildCall, RequestId, RequestTypeId, Span, SpanId};
    use sim_core::SimTime;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// front-end(0) calls cart(1) and catalogue(2) in parallel; catalogue
    /// calls catalogue-db(3). Durations chosen so catalogue branch wins.
    fn fanout_trace(req: u64, cat_ms: u64) -> Trace {
        let fe = Span {
            id: SpanId(0),
            request: RequestId(req),
            service: ServiceId(0),
            replica: ReplicaId(0),
            parent: None,
            arrival: t(0),
            service_start: t(0),
            departure: t(cat_ms + 20),
            children: vec![
                ChildCall {
                    service: ServiceId(1),
                    start: t(5),
                    end: t(35),
                },
                ChildCall {
                    service: ServiceId(2),
                    start: t(5),
                    end: t(cat_ms + 10),
                },
            ],
        };
        let cart = Span {
            id: SpanId(1),
            parent: Some(SpanId(0)),
            service: ServiceId(1),
            arrival: t(5),
            service_start: t(5),
            departure: t(35),
            children: vec![],
            ..fe.clone()
        };
        let cat = Span {
            id: SpanId(2),
            parent: Some(SpanId(0)),
            service: ServiceId(2),
            arrival: t(5),
            service_start: t(5),
            departure: t(cat_ms + 10),
            children: vec![ChildCall {
                service: ServiceId(3),
                start: t(10),
                end: t(cat_ms),
            }],
            ..fe.clone()
        };
        let db = Span {
            id: SpanId(3),
            parent: Some(SpanId(2)),
            service: ServiceId(3),
            arrival: t(10),
            service_start: t(10),
            departure: t(cat_ms),
            children: vec![],
            ..fe.clone()
        };
        Trace {
            request: RequestId(req),
            request_type: RequestTypeId(0),
            spans: vec![fe, cart, cat, db],
        }
    }

    #[test]
    fn critical_path_follows_slowest_branch() {
        let trace = fanout_trace(1, 100);
        let path = critical_path(&trace);
        let services: Vec<u32> = path.iter().map(|h| h.service.get()).collect();
        assert_eq!(services, [0, 2, 3], "front-end → catalogue → catalogue-db");
    }

    #[test]
    fn critical_path_switches_when_branch_times_flip() {
        // Catalogue branch finishes at 30 ms — now the cart branch (35 ms)
        // dominates.
        let trace = fanout_trace(1, 20);
        let path = critical_path(&trace);
        let services: Vec<u32> = path.iter().map(|h| h.service.get()).collect();
        assert_eq!(services, [0, 1], "front-end → cart");
    }

    #[test]
    fn hop_self_times_subtract_child_waits() {
        let trace = fanout_trace(1, 100);
        let path = critical_path(&trace);
        // front-end span: 120 ms wall, children cover [5, 110] → 15 ms self.
        assert_eq!(path[0].self_time.as_millis(), 15);
        // catalogue: [5, 110] wall = 105, db call covers [10,100] → 15 ms.
        assert_eq!(path[1].self_time.as_millis(), 15);
        // db leaf: all self time.
        assert_eq!(path[2].self_time.as_millis(), 90);
    }

    #[test]
    fn stats_identify_variable_service() {
        // catalogue-db time varies; all others constant → highest PCC at
        // db (3) and catalogue (2); db self-time drives it.
        let traces: Vec<Trace> = (0..20).map(|i| fanout_trace(i, 60 + i * 10)).collect();
        let stats = per_service_stats(&traces);
        assert_eq!(stats.trace_count(), 20);
        assert_eq!(stats.dominant_path().unwrap().len(), 3);
        let db_pcc = stats.pcc(ServiceId(3)).unwrap();
        assert!(db_pcc > 0.99, "db self-time should track RT: {db_pcc}");
        let candidate = stats.candidate_critical_service().unwrap();
        assert_eq!(candidate, ServiceId(3));
        assert_eq!(stats.on_path_count(ServiceId(1)), 0);
    }

    #[test]
    fn upstream_pt_accumulates_along_path() {
        let traces: Vec<Trace> = (0..5).map(|i| fanout_trace(i, 100)).collect();
        let stats = per_service_stats(&traces);
        // Upstream of the front-end is zero.
        assert_eq!(
            stats.mean_upstream_pt(ServiceId(0)).unwrap(),
            SimDuration::ZERO
        );
        // Upstream of catalogue = front-end self time (15 ms).
        assert_eq!(
            stats.mean_upstream_pt(ServiceId(2)).unwrap().as_millis(),
            15
        );
        // Upstream of db = 15 + 15 = 30 ms.
        assert_eq!(
            stats.mean_upstream_pt(ServiceId(3)).unwrap().as_millis(),
            30
        );
        assert_eq!(stats.mean_upstream_pt(ServiceId(9)), None);
    }

    #[test]
    fn equal_sibling_times_follow_the_earliest_span() {
        // Catalogue's branch ends at 35 ms, exactly like cart's: both
        // children of the front-end take 30 ms.
        let mut trace = fanout_trace(1, 25);
        assert_eq!(
            trace.spans[1].response_time(),
            trace.spans[2].response_time()
        );
        let services = |trace: &Trace| -> Vec<u32> {
            critical_path(trace)
                .iter()
                .map(|h| h.service.get())
                .collect()
        };
        assert_eq!(services(&trace), [0, 1], "cart is the earlier span");
        trace.spans.swap(1, 2);
        assert_eq!(services(&trace), [0, 2, 3], "catalogue now comes first");
    }

    #[test]
    fn root_is_the_first_parentless_span_wherever_it_sits() {
        let mut trace = fanout_trace(1, 100);
        trace.spans.rotate_left(2); // [catalogue, db, front-end, cart]
        let services: Vec<u32> = critical_path(&trace)
            .iter()
            .map(|h| h.service.get())
            .collect();
        assert_eq!(services, [0, 2, 3]);
        // A second parentless span later in the trace does not take over.
        let mut stray = trace.spans[3].clone();
        stray.id = SpanId(9);
        stray.parent = None;
        stray.departure = t(500);
        trace.spans.push(stray);
        assert_eq!(critical_path(&trace)[0].service, ServiceId(0));
    }

    #[test]
    fn each_trace_counts_its_shape_once() {
        // Long, short, long, short, long: the reused shape buffer must not
        // carry a longer path's tail into a shorter one.
        let traces: Vec<Trace> = [100, 20, 100, 20, 100]
            .iter()
            .enumerate()
            .map(|(i, &ms)| fanout_trace(i as u64, ms))
            .collect();
        let stats = per_service_stats(&traces);
        let long = [ServiceId(0), ServiceId(2), ServiceId(3)];
        let short = [ServiceId(0), ServiceId(1)];
        assert_eq!(stats.path_counts.len(), 2);
        assert_eq!(stats.path_counts[long.as_slice()], 3);
        assert_eq!(stats.path_counts[short.as_slice()], 2);
        assert_eq!(stats.path_counts.values().sum::<u64>(), stats.trace_count());
        assert_eq!(stats.dominant_path(), Some(long.as_slice()));
        assert_eq!(stats.on_path_count(ServiceId(0)), 5);
        assert_eq!(stats.on_path_count(ServiceId(1)), 2);
    }

    #[test]
    fn tied_shapes_resolve_to_the_lowest_service_ids_in_any_order() {
        // Two equally long shapes, seen once each: [0, 1] (cart) and
        // [0, 2] (catalogue; its db call is cut off so the path stops).
        let cart = fanout_trace(0, 20);
        let mut catalogue = fanout_trace(1, 100);
        catalogue.spans.truncate(3);
        let tied =
            |traces: [&Trace; 2]| per_service_stats(traces).dominant_path().map(<[_]>::to_vec);
        let want = Some(vec![ServiceId(0), ServiceId(1)]);
        // Every map gets fresh hash keys, so repeating varies the order
        // an order-dependent tie-break would see.
        for _ in 0..16 {
            assert_eq!(tied([&cart, &catalogue]), want);
            assert_eq!(tied([&catalogue, &cart]), want);
        }
    }

    #[test]
    fn empty_trace_yields_empty_path() {
        let trace = Trace {
            request: RequestId(0),
            request_type: RequestTypeId(0),
            spans: vec![],
        };
        assert!(critical_path(&trace).is_empty());
    }
}
