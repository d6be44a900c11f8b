//! Property-based integration tests: conservation laws and accounting
//! invariants that must hold for the whole stack under randomised
//! workloads, topologies and controller actions.

use cluster::Millicores;
use microsim::{Behavior, LbPolicy, ServiceSpec, Stage, World, WorldConfig};
use proptest::prelude::*;
use sim_core::{Dist, SimRng, SimTime};
use telemetry::{RequestTypeId, ServiceId};

/// Builds a randomised three-tier world: front → mid (fanout to two leaves).
fn three_tier(
    threads: usize,
    conns: usize,
    cores: u32,
    lb: LbPolicy,
    seed: u64,
) -> (World, RequestTypeId) {
    let mut w = World::new(WorldConfig::default(), SimRng::seed_from(seed));
    let rt = RequestTypeId(0);
    let (mid, leaf_a, leaf_b) = (ServiceId(1), ServiceId(2), ServiceId(3));
    let front = w.add_service(ServiceSpec::new("front").threads(64).on(
        rt,
        Behavior::tier(Dist::exponential_ms(0.5), mid, Dist::constant_us(200)),
    ));
    w.add_service(
        ServiceSpec::new("mid")
            .cpu(Millicores::from_cores(cores))
            .threads(threads)
            .conns(leaf_a, conns)
            .conns(leaf_b, conns)
            .lb(lb)
            .on(
                rt,
                Behavior::new(vec![
                    Stage::compute(Dist::exponential_ms(1.0)),
                    Stage::fanout(vec![leaf_a, leaf_b]),
                    Stage::compute(Dist::exponential_ms(0.5)),
                ]),
            ),
    );
    for name in ["leaf-a", "leaf-b"] {
        w.add_service(
            ServiceSpec::new(name)
                .threads(32)
                .on(rt, Behavior::leaf(Dist::exponential_ms(1.5))),
        );
    }
    let rt = w.add_request_type("r", front);
    for svc in [front, mid, leaf_a, leaf_b] {
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
    }
    (w, rt)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Conservation: injected = completed + dropped; all gates drain; the
    /// trace warehouse only holds well-formed traces.
    #[test]
    fn prop_full_stack_conservation(
        n in 50usize..400,
        threads in 1usize..12,
        conns in 1usize..8,
        cores in 1u32..4,
        seed in 0u64..500,
    ) {
        let (mut w, rt) = three_tier(threads, conns, cores, LbPolicy::RoundRobin, seed);
        for i in 0..n {
            w.inject_at(SimTime::from_millis(1 + i as u64 * 2), rt);
        }
        let done = w.run_until(SimTime::from_secs(3_600));
        prop_assert!(w.is_quiescent());
        prop_assert_eq!(done.len() as u64 + w.dropped(), n as u64);
        for svc in [ServiceId(0), ServiceId(1), ServiceId(2), ServiceId(3)] {
            prop_assert_eq!(w.running_threads(svc), 0);
            prop_assert_eq!(w.queued_requests(svc), 0);
        }
        prop_assert_eq!(w.conns_in_use(ServiceId(1), ServiceId(2)), 0);
        prop_assert_eq!(w.conns_in_use(ServiceId(1), ServiceId(3)), 0);
        // Every stored trace is rooted and time-ordered.
        for trace in w.warehouse().iter() {
            prop_assert!(!trace.spans.is_empty());
            prop_assert!(trace.spans[0].parent.is_none());
            for span in &trace.spans {
                prop_assert!(span.departure >= span.arrival);
                for call in &span.children {
                    prop_assert!(call.end >= call.start);
                }
            }
        }
    }

    /// Mid-run soft/hardware reconfiguration never breaks conservation,
    /// regardless of the order and direction of the changes.
    #[test]
    fn prop_reconfiguration_safety(
        ops in proptest::collection::vec((0u8..4, 1usize..30), 1..10),
        seed in 0u64..200,
    ) {
        let (mut w, rt) = three_tier(6, 3, 2, LbPolicy::LeastOutstanding, seed);
        let mid = ServiceId(1);
        let mut injected = 0u64;
        for (step, &(op, val)) in ops.iter().enumerate() {
            let base = SimTime::from_millis(step as u64 * 200);
            for i in 0..40u64 {
                w.inject_at(base + sim_core::SimDuration::from_millis(i * 3), rt);
                injected += 1;
            }
            w.run_until(base + sim_core::SimDuration::from_millis(100));
            match op {
                0 => w.set_thread_limit(mid, val),
                1 => w.set_conn_limit(mid, ServiceId(2), val),
                2 => {
                    let _ = w.set_cpu_limit(mid, Millicores::new(500 + val as u32 * 250));
                }
                _ => {
                    if val % 2 == 0 {
                        if let Ok(pod) = w.add_replica(mid) {
                            w.make_ready(pod);
                        }
                    } else {
                        let _ = w.drain_replica(mid, 1);
                    }
                }
            }
        }
        let done = w.run_until(SimTime::from_secs(3_600));
        let _ = done;
        prop_assert!(w.is_quiescent());
        prop_assert_eq!(w.client().total() + w.dropped(), injected);
        prop_assert_eq!(w.running_threads(mid), 0);
    }

    /// Load balancing policies all deliver every request (no policy loses
    /// traffic), and LeastOutstanding never loads one replica with
    /// everything while another sits idle.
    #[test]
    fn prop_lb_policies_deliver(
        policy_idx in 0usize..3,
        replicas in 1usize..4,
        seed in 0u64..100,
    ) {
        let policy = [LbPolicy::RoundRobin, LbPolicy::Random, LbPolicy::LeastOutstanding]
            [policy_idx];
        let (mut w, rt) = three_tier(8, 4, 2, policy, seed);
        let mid = ServiceId(1);
        w.monitor(mid);
        for _ in 1..replicas {
            let pod = w.add_replica(mid).unwrap();
            w.make_ready(pod);
        }
        for i in 0..300u64 {
            w.inject_at(SimTime::from_millis(1 + i * 3), rt);
        }
        let done = w.run_until(SimTime::from_secs(3_600));
        prop_assert_eq!(done.len(), 300);
        if replicas > 1 {
            let counts: Vec<usize> = w
                .ready_replicas(mid)
                .iter()
                .map(|&id| w.completions_of(id).unwrap().len())
                .collect();
            prop_assert!(counts.iter().all(|&c| c > 0), "all replicas served: {counts:?}");
        }
    }
}

#[test]
fn replica_scale_cycle_preserves_service_busy_counter_monotonicity() {
    let (mut w, rt) = three_tier(8, 4, 2, LbPolicy::RoundRobin, 42);
    let mid = ServiceId(1);
    let mut last = 0.0;
    for round in 0..5u64 {
        let base = SimTime::from_secs(round * 10);
        for i in 0..200u64 {
            w.inject_at(base + sim_core::SimDuration::from_millis(i * 10), rt);
        }
        w.run_until(base + sim_core::SimDuration::from_secs(5));
        if round % 2 == 0 {
            if let Ok(pod) = w.add_replica(mid) {
                w.make_ready(pod);
            }
        } else {
            let _ = w.drain_replica(mid, 1);
        }
        w.run_until(base + sim_core::SimDuration::from_secs(9));
        let busy = w.cpu_busy_core_secs(mid);
        assert!(
            busy >= last,
            "busy counter must survive scale events: {busy} < {last}"
        );
        last = busy;
    }
}
