//! Critical-service localisation (the SCG workflow's first phase).

use std::collections::BTreeMap;
use telemetry::{CriticalPathStats, ServiceId};

/// CPU-utilisation screening threshold: services at or above it are
/// capacity-saturation candidates (the paper's first localisation step,
/// following FIRM, §3.2). The 0.7 value is a fixed constant (DESIGN §7).
const UTIL_THRESHOLD: f64 = 0.7;

/// Minimum number of traces a service must appear on (as part of the
/// critical path) for its PCC to be trusted: 30 traces, the usual floor for
/// a Pearson coefficient (DESIGN §7).
pub const MIN_ON_PATH: u64 = 30;

/// Identifies the critical service by the paper's two-step method (§3.2):
///
/// 1. screen services whose CPU utilisation suggests they are at capacity;
/// 2. among them, pick the service whose on-critical-path processing time
///    correlates most strongly (Pearson) with the end-to-end response time.
///
/// If no service passes the utilisation screen (e.g. the bottleneck is a
/// soft resource, not CPU), the PCC ranking alone decides — this is exactly
/// the case Fig. 1 illustrates, where an over-allocated connection pool
/// hurts latency while CPU looks fine.
///
/// Returns `None` when the window holds no usable traces.
pub fn localize_critical_service(
    stats: &CriticalPathStats,
    utilization: &BTreeMap<ServiceId, f64>,
) -> Option<ServiceId> {
    let candidates: Vec<ServiceId> = utilization
        .iter()
        .filter(|(_, &u)| u >= UTIL_THRESHOLD)
        .map(|(&s, _)| s)
        .collect();
    let pick_best = |pool: &[ServiceId]| -> Option<ServiceId> {
        pool.iter()
            .copied()
            .filter(|&s| stats.on_path_count(s) >= MIN_ON_PATH)
            .filter_map(|s| stats.pcc(s).map(|r| (s, r)))
            .max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("PCC is never NaN")
                    .then_with(|| b.0.cmp(&a.0)) // tie → lower id
            })
            .map(|(s, _)| s)
    };
    if !candidates.is_empty() {
        if let Some(s) = pick_best(&candidates) {
            return Some(s);
        }
    }
    // Fall back to the full PCC ranking.
    let all: Vec<ServiceId> = utilization.keys().copied().collect();
    pick_best(&all).or_else(|| stats.candidate_critical_service())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;
    use telemetry::{
        per_service_stats, ChildCall, ReplicaId, RequestId, RequestTypeId, Span, SpanId, Trace,
    };

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A two-hop chain front(0) → worker(1); worker time varies with `i`.
    fn chain_trace(i: u64, worker_ms: u64) -> Trace {
        let root = Span {
            id: SpanId(i * 2),
            request: RequestId(i),
            service: ServiceId(0),
            replica: ReplicaId(0),
            parent: None,
            arrival: t(0),
            service_start: t(0),
            departure: t(worker_ms + 10),
            children: vec![ChildCall {
                service: ServiceId(1),
                start: t(5),
                end: t(worker_ms + 5),
            }],
        };
        let child = Span {
            id: SpanId(i * 2 + 1),
            parent: Some(root.id),
            service: ServiceId(1),
            arrival: t(5),
            service_start: t(5),
            departure: t(worker_ms + 5),
            children: vec![],
            ..root.clone()
        };
        Trace {
            request: RequestId(i),
            request_type: RequestTypeId(0),
            spans: vec![root, child],
        }
    }

    fn stats() -> CriticalPathStats {
        let traces: Vec<Trace> = (0..40).map(|i| chain_trace(i, 20 + i * 3)).collect();
        per_service_stats(&traces)
    }

    #[test]
    fn utilization_screen_plus_pcc() {
        let stats = stats();
        let util = BTreeMap::from([(ServiceId(0), 0.9), (ServiceId(1), 0.95)]);
        // Both are hot; worker's self time drives RT → worker wins.
        assert_eq!(localize_critical_service(&stats, &util), Some(ServiceId(1)));
    }

    #[test]
    fn falls_back_to_pcc_when_cpu_looks_idle() {
        let stats = stats();
        let util = BTreeMap::from([(ServiceId(0), 0.2), (ServiceId(1), 0.3)]);
        assert_eq!(localize_critical_service(&stats, &util), Some(ServiceId(1)));
    }

    #[test]
    fn hot_but_uncorrelated_service_loses_to_correlated_one() {
        let stats = stats();
        // Only the (constant-time) front-end passes the screen, but its PCC
        // is undefined/low; the fallback ranking still finds the worker.
        let util = BTreeMap::from([(ServiceId(0), 0.99), (ServiceId(1), 0.1)]);
        let got = localize_critical_service(&stats, &util);
        assert_eq!(got, Some(ServiceId(1)));
    }

    #[test]
    fn empty_stats_yield_none() {
        let stats = per_service_stats(std::iter::empty::<&Trace>());
        let util = BTreeMap::new();
        assert_eq!(localize_critical_service(&stats, &util), None);
    }
}
