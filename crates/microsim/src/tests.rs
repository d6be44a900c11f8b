//! Behavioural tests of the simulator: request lifecycle, soft-resource
//! gating, scaling, failure injection, determinism and conservation laws.

use crate::{
    Behavior, BlackoutMode, DropReason, FaultSchedule, LbPolicy, ServiceSpec, Stage, World,
    WorldConfig,
};
use cluster::Millicores;
use net::{EdgeParams, NetworkConfig};
use proptest::prelude::*;
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use telemetry::{RequestTypeId, ServiceId};

fn t(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

/// A config with zero network delay and instant start-up: makes timing
/// arithmetic in tests exact.
fn exact_config() -> WorldConfig {
    WorldConfig {
        net_delay: Dist::constant_us(0),
        replica_startup: Dist::constant_us(0),
        ..WorldConfig::default()
    }
}

/// One service, one ready replica, constant `demand_ms` per request.
fn single_service_world(
    demand_ms: u64,
    threads: usize,
    cores: u32,
    kappa: f64,
) -> (World, RequestTypeId, ServiceId) {
    let mut w = World::new(exact_config(), SimRng::seed_from(7));
    let rt = RequestTypeId(0);
    let svc = w.add_service(
        ServiceSpec::new("api")
            .cpu(Millicores::from_cores(cores))
            .threads(threads)
            .csw(kappa)
            .on(rt, Behavior::leaf(Dist::constant_ms(demand_ms))),
    );
    let rt = w.add_request_type("GET /", svc);
    let pod = w.add_replica(svc).unwrap();
    w.make_ready(pod);
    (w, rt, svc)
}

#[test]
fn single_request_takes_its_demand() {
    let (mut w, rt, _) = single_service_world(5, 4, 4, 0.0);
    w.inject_at(t(10), rt);
    let done = w.run_until(t(1000));
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].response_time.as_millis(), 5);
    assert_eq!(done[0].completed, t(15));
}

#[test]
fn thread_pool_of_one_serialises() {
    let (mut w, rt, _) = single_service_world(10, 1, 4, 0.0);
    w.inject_at(t(0), rt);
    w.inject_at(t(0), rt);
    let done = w.run_until(t(1000));
    assert_eq!(done.len(), 2);
    let mut rts: Vec<u64> = done.iter().map(|c| c.response_time.as_millis()).collect();
    rts.sort_unstable();
    assert_eq!(rts, [10, 20], "second request queues behind the first");
}

#[test]
fn enough_threads_and_cores_run_in_parallel() {
    let (mut w, rt, _) = single_service_world(10, 2, 2, 0.0);
    w.inject_at(t(0), rt);
    w.inject_at(t(0), rt);
    let done = w.run_until(t(1000));
    assert!(done.iter().all(|c| c.response_time.as_millis() == 10));
}

#[test]
fn processor_sharing_when_threads_exceed_cores() {
    let (mut w, rt, _) = single_service_world(10, 2, 1, 0.0);
    w.inject_at(t(0), rt);
    w.inject_at(t(0), rt);
    let done = w.run_until(t(1000));
    // Both share one core → both finish at 20 ms.
    assert!(done.iter().all(|c| c.response_time.as_millis() == 20));
}

#[test]
fn oversubscription_with_overhead_extends_makespan() {
    let makespan = |threads: usize, kappa: f64| {
        let (mut w, rt, _) = single_service_world(10, threads, 1, kappa);
        for _ in 0..20 {
            w.inject_at(t(0), rt);
        }
        let done = w.run_until(t(60_000));
        assert_eq!(done.len(), 20);
        done.iter().map(|c| c.completed).max().unwrap()
    };
    let serial = makespan(1, 0.1);
    let oversub = makespan(20, 0.1);
    assert_eq!(serial, t(200), "sequential: 20 × 10 ms");
    // 20 concurrent jobs on 1 core with κ = 0.1 → up to 1 + 0.1·√19 ≈ 1.44×
    // slower while fully oversubscribed.
    assert!(
        oversub > t(250),
        "oversubscribed makespan {oversub} should exceed serial"
    );
}

/// front(1 ms) → backend(8 ms) → front(1 ms): checks span decomposition.
fn tiered_world() -> (World, RequestTypeId, ServiceId, ServiceId) {
    let mut w = World::new(exact_config(), SimRng::seed_from(3));
    let rt = RequestTypeId(0);
    let backend_id = ServiceId(1); // will be the second add_service call
    let front = w.add_service(ServiceSpec::new("front").cpu(Millicores::from_cores(2)).on(
        rt,
        Behavior::tier(Dist::constant_ms(1), backend_id, Dist::constant_ms(1)),
    ));
    let backend = w.add_service(
        ServiceSpec::new("backend")
            .cpu(Millicores::from_cores(2))
            .on(rt, Behavior::leaf(Dist::constant_ms(8))),
    );
    assert_eq!(backend, backend_id);
    let rt = w.add_request_type("GET /tier", front);
    for svc in [front, backend] {
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
    }
    (w, rt, front, backend)
}

#[test]
fn tiered_request_produces_linked_spans() {
    let (mut w, rt, front, backend) = tiered_world();
    w.inject_at(t(0), rt);
    let done = w.run_until(t(1000));
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].response_time.as_millis(), 10); // 1 + 8 + 1
    let trace = w.warehouse().iter().next().expect("trace stored");
    assert_eq!(trace.spans.len(), 2);
    let root = &trace.spans[0];
    let child = &trace.spans[1];
    assert_eq!(root.service, front);
    assert_eq!(child.service, backend);
    assert_eq!(child.parent, Some(root.id));
    assert_eq!(root.children.len(), 1);
    assert_eq!(root.children[0].duration().as_millis(), 8);
    assert_eq!(root.self_time().as_millis(), 2);
    assert_eq!(child.self_time().as_millis(), 8);
}

#[test]
fn parallel_fanout_overlaps_children() {
    let mut w = World::new(exact_config(), SimRng::seed_from(5));
    let rt = RequestTypeId(0);
    let (a_id, b_id) = (ServiceId(1), ServiceId(2));
    let front = w.add_service(
        ServiceSpec::new("front").on(rt, Behavior::new(vec![Stage::fanout(vec![a_id, b_id])])),
    );
    for (name, ms) in [("a", 10), ("b", 30)] {
        w.add_service(
            ServiceSpec::new(name)
                .cpu(Millicores::from_cores(1))
                .on(rt, Behavior::leaf(Dist::constant_ms(ms))),
        );
    }
    let rt = w.add_request_type("fanout", front);
    for svc in [front, a_id, b_id] {
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
    }
    w.inject_at(t(0), rt);
    let done = w.run_until(t(1000));
    // Parallel: bounded by the slower child, not the sum.
    assert_eq!(done[0].response_time.as_millis(), 30);
    let trace = w.warehouse().iter().next().unwrap();
    let path = telemetry::critical_path(trace);
    assert_eq!(
        path.last().unwrap().service,
        b_id,
        "critical path follows slow branch"
    );
}

#[test]
fn connection_pool_of_one_serialises_downstream_calls() {
    let mut w = World::new(exact_config(), SimRng::seed_from(5));
    let rt = RequestTypeId(0);
    let db_id = ServiceId(1);
    let front = w.add_service(
        ServiceSpec::new("front")
            .threads(8)
            .conns(db_id, 1)
            .on(rt, Behavior::new(vec![Stage::call(db_id)])),
    );
    w.add_service(
        ServiceSpec::new("db")
            .cpu(Millicores::from_cores(4))
            .threads(8)
            .on(rt, Behavior::leaf(Dist::constant_ms(10))),
    );
    let rt = w.add_request_type("q", front);
    for svc in [front, db_id] {
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
    }
    for _ in 0..3 {
        w.inject_at(t(0), rt);
    }
    let done = w.run_until(t(1000));
    let mut rts: Vec<u64> = done.iter().map(|c| c.response_time.as_millis()).collect();
    rts.sort_unstable();
    // One connection → db calls run one at a time despite 8 front threads
    // and 4 db cores.
    assert_eq!(rts, [10, 20, 30]);
    // Raising the pool to 3 restores parallelism.
    w.set_conn_limit(front, db_id, 3);
    for _ in 0..3 {
        w.inject_at(t(1000), rt);
    }
    let done = w.run_until(t(2000));
    assert!(done.iter().all(|c| c.response_time.as_millis() == 10));
}

#[test]
fn raising_conn_limit_mid_flight_grants_waiters() {
    let mut w = World::new(exact_config(), SimRng::seed_from(5));
    let rt = RequestTypeId(0);
    let db_id = ServiceId(1);
    let front = w.add_service(
        ServiceSpec::new("front")
            .threads(8)
            .conns(db_id, 1)
            .on(rt, Behavior::new(vec![Stage::call(db_id)])),
    );
    w.add_service(
        ServiceSpec::new("db")
            .cpu(Millicores::from_cores(4))
            .threads(8)
            .on(rt, Behavior::leaf(Dist::constant_ms(100))),
    );
    let rt = w.add_request_type("q", front);
    for svc in [front, db_id] {
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
    }
    for _ in 0..3 {
        w.inject_at(t(0), rt);
    }
    // Let the first call start, then widen the pool while two waiters queue.
    w.run_until(t(50));
    assert_eq!(w.conns_in_use(front, db_id), 1);
    w.set_conn_limit(front, db_id, 3);
    let done = w.run_until(t(1000));
    assert_eq!(done.len(), 3);
    let max_rt = done
        .iter()
        .map(|c| c.response_time.as_millis())
        .max()
        .unwrap();
    // Waiters released at 50 ms finish at 150 ms instead of 300 ms serial.
    assert!(max_rt <= 150, "max rt {max_rt}");
}

#[test]
fn raising_thread_limit_admits_queued_requests() {
    let (mut w, rt, svc) = single_service_world(100, 1, 4, 0.0);
    for _ in 0..3 {
        w.inject_at(t(0), rt);
    }
    w.run_until(t(10));
    assert_eq!(w.running_threads(svc), 1);
    assert_eq!(w.queued_requests(svc), 2);
    w.set_thread_limit(svc, 3);
    w.run_until(t(11));
    assert_eq!(w.running_threads(svc), 3);
    let done = w.run_until(t(1000));
    let max_rt = done
        .iter()
        .map(|c| c.response_time.as_millis())
        .max()
        .unwrap();
    assert!(max_rt <= 210, "queued requests released at 10 ms: {max_rt}");
}

#[test]
fn vertical_scaling_speeds_in_flight_work() {
    let (mut w, rt, svc) = single_service_world(100, 4, 1, 0.0);
    w.inject_at(t(0), rt);
    w.inject_at(t(0), rt);
    w.run_until(t(50)); // both at 0.5 cores: 25 ms of work done each
    w.set_cpu_limit(svc, Millicores::from_cores(2)).unwrap();
    let done = w.run_until(t(1000));
    // Remaining 75 ms at full speed → finish at 125 ms.
    assert!(done.iter().all(|c| c.response_time.as_millis() == 125));
    assert_eq!(w.cpu_limit(svc), Millicores::from_cores(2));
}

#[test]
fn replicas_round_robin_and_drain() {
    let (mut w, rt, svc) = single_service_world(10, 4, 4, 0.0);
    let pod2 = w.add_replica(svc).unwrap();
    w.make_ready(pod2);
    assert_eq!(w.ready_replicas(svc).len(), 2);
    for i in 0..10 {
        w.inject_at(t(i * 20), rt);
    }
    let done = w.run_until(t(1000));
    assert_eq!(done.len(), 10);
    // Round robin: both replicas saw ~half the load.
    let ids = w.ready_replicas(svc);
    for id in &ids {
        assert_eq!(w.completions_of(*id).unwrap().len(), 5);
    }
    // Drain one: it disappears once idle, remaining traffic still served.
    let drained = w.drain_replica(svc, 1).unwrap();
    w.run_until(t(1001));
    assert_eq!(w.ready_replicas(svc).len(), 1);
    assert!(
        w.completions_of(drained).is_none(),
        "drained replica removed"
    );
    w.inject_at(t(1100), rt);
    assert_eq!(w.run_until(t(2000)).len(), 1);
    // min_keep respected.
    assert!(w.drain_replica(svc, 1).is_none());
}

#[test]
fn draining_replica_finishes_in_flight_work() {
    let (mut w, rt, svc) = single_service_world(100, 4, 4, 0.0);
    let pod2 = w.add_replica(svc).unwrap();
    w.make_ready(pod2);
    w.inject_at(t(0), rt); // goes to replica 0
    w.inject_at(t(0), rt); // goes to replica 1
    w.run_until(t(10));
    w.drain_replica(svc, 1).unwrap();
    let done = w.run_until(t(1000));
    assert_eq!(
        done.len(),
        2,
        "in-flight request on draining replica completes"
    );
    assert_eq!(w.ready_replicas(svc).len(), 1);
}

#[test]
fn starting_replicas_take_no_traffic_until_ready() {
    let config = WorldConfig {
        net_delay: Dist::constant_us(0),
        replica_startup: Dist::constant_ms(500),
        ..WorldConfig::default()
    };
    let mut w = World::new(config, SimRng::seed_from(2));
    let rt = RequestTypeId(0);
    let svc = w.add_service(ServiceSpec::new("api").on(rt, Behavior::leaf(Dist::constant_ms(1))));
    let rt = w.add_request_type("r", svc);
    w.add_replica(svc).unwrap(); // ready at 500 ms
    w.inject_at(t(100), rt);
    let done = w.run_until(t(400));
    assert!(done.is_empty());
    assert_eq!(w.dropped(), 1, "request refused while no replica ready");
    w.inject_at(t(600), rt);
    let done = w.run_until(t(1000));
    assert_eq!(done.len(), 1);
}

#[test]
fn failed_replica_aborts_requests_and_recovers() {
    let (mut w, rt, svc) = single_service_world(1_000, 4, 4, 0.0);
    w.inject_at(t(0), rt);
    w.inject_at(t(0), rt);
    w.run_until(t(100));
    let victim = w.ready_replicas(svc)[0];
    w.fail_replica(victim);
    assert_eq!(w.ready_replicas(svc).len(), 0);
    assert_eq!(w.dropped(), 2, "both in-flight requests aborted");
    // Recovery: a fresh replica serves new traffic.
    let pod = w.add_replica(svc).unwrap();
    w.make_ready(pod);
    w.inject_at(t(200), rt);
    let done = w.run_until(t(5000));
    assert_eq!(done.len(), 1);
    assert!(w.is_quiescent());
}

#[test]
fn failure_upstream_of_held_connections_releases_them() {
    // front --conns(1)--> db; kill the db replica mid-call and verify the
    // front's connection slot is reclaimed for later traffic.
    let mut w = World::new(exact_config(), SimRng::seed_from(5));
    let rt = RequestTypeId(0);
    let db_id = ServiceId(1);
    let front = w.add_service(
        ServiceSpec::new("front")
            .threads(4)
            .conns(db_id, 1)
            .on(rt, Behavior::new(vec![Stage::call(db_id)])),
    );
    w.add_service(ServiceSpec::new("db").on(rt, Behavior::leaf(Dist::constant_ms(1_000))));
    let rt = w.add_request_type("q", front);
    let mut pods = Vec::new();
    for svc in [front, db_id] {
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
        pods.push(pod);
    }
    w.inject_at(t(0), rt);
    w.run_until(t(100));
    assert_eq!(w.conns_in_use(front, db_id), 1);
    w.fail_replica(pods[1]);
    assert_eq!(w.conns_in_use(front, db_id), 0, "connection reclaimed");
    // New db replica; the pool must be usable again.
    let db2 = w.add_replica(db_id).unwrap();
    w.make_ready(db2);
    w.inject_at(t(200), rt);
    let done = w.run_until(t(5000));
    assert_eq!(done.len(), 1);
}

#[test]
fn busy_counters_reflect_busy_fraction() {
    let (mut w, rt, svc) = single_service_world(100, 4, 1, 0.0);
    w.inject_at(t(0), rt);
    w.run_until(t(50));
    let busy = w.cpu_busy_core_secs(svc);
    assert!(
        (busy - 0.05).abs() < 0.001,
        "1 job on 1 core for 50 ms: {busy}"
    );
    assert_eq!(w.cpu_capacity_cores(svc), 1.0);
    let done = w.run_until(t(300));
    assert_eq!(done.len(), 1);
    let busy = w.cpu_busy_core_secs(svc);
    assert!((busy - 0.1).abs() < 0.001, "total work was 100 ms: {busy}");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut w = World::new(WorldConfig::default(), SimRng::seed_from(99));
        let rt = RequestTypeId(0);
        let svc = w.add_service(
            ServiceSpec::new("api")
                .threads(4)
                .lb(LbPolicy::Random)
                .on(rt, Behavior::leaf(Dist::exponential_ms(3.0))),
        );
        let rt = w.add_request_type("r", svc);
        for _ in 0..2 {
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
        }
        for i in 0..200 {
            w.inject_at(t(2_100 + i * 7), rt);
        }
        w.run_until(t(60_000))
    };
    let (a, b) = (run(), run());
    assert_eq!(a.len(), 200);
    assert_eq!(a, b, "identical seeds give identical completion streams");
}

#[test]
fn concurrency_sampler_sees_thread_occupancy() {
    let (mut w, rt, svc) = single_service_world(100, 2, 2, 0.0);
    for _ in 0..2 {
        w.inject_at(t(0), rt);
    }
    w.run_until(t(200));
    let pod = w.ready_replicas(svc)[0];
    let conc = w.concurrency_of(pod).unwrap();
    let avg = conc.average_in(t(0), t(100));
    assert!(
        (avg - 2.0).abs() < 0.05,
        "two threads busy for 100 ms: {avg}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// Requests are conserved: injected = completed + dropped, and the world
    /// quiesces once the workload stops.
    #[test]
    fn prop_request_conservation(
        n in 1usize..60,
        threads in 1usize..8,
        seed in 0u64..1_000,
    ) {
        let mut w = World::new(WorldConfig::default(), SimRng::seed_from(seed));
        let rt = RequestTypeId(0);
        let db_id = ServiceId(1);
        let front = w.add_service(
            ServiceSpec::new("front")
                .threads(threads)
                .conns(db_id, 2)
                .on(rt, Behavior::tier(
                    Dist::exponential_ms(1.0), db_id, Dist::constant_ms(1))),
        );
        w.add_service(
            ServiceSpec::new("db").threads(4).on(rt, Behavior::leaf(Dist::exponential_ms(2.0))),
        );
        let rt = w.add_request_type("q", front);
        for svc in [front, db_id] {
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
        }
        let mut completed = 0;
        for i in 0..n {
            w.inject_at(t(i as u64 * 3), rt);
        }
        completed += w.run_until(t(3_600_000)).len();
        prop_assert!(w.is_quiescent(), "events must drain");
        prop_assert_eq!(completed as u64 + w.dropped(), n as u64);
        prop_assert_eq!(w.running_threads(front), 0);
        prop_assert_eq!(w.conns_in_use(front, db_id), 0);
    }
}

#[test]
fn client_timeout_abandons_slow_requests_and_reclaims_resources() {
    let mut w = World::new(exact_config(), SimRng::seed_from(1));
    let (rt, patient) = (RequestTypeId(0), RequestTypeId(1));
    let svc = w.add_service(
        ServiceSpec::new("slow")
            .cpu(Millicores::from_cores(1))
            .threads(1)
            .on(rt, Behavior::leaf(Dist::constant_ms(100)))
            .on(patient, Behavior::leaf(Dist::constant_ms(100))),
    );
    let rt = w.add_request_type_with_timeout(
        "GET / (50ms budget)",
        svc,
        Some(SimDuration::from_millis(50)),
    );
    let pod = w.add_replica(svc).unwrap();
    w.make_ready(pod);
    // First request times out (needs 100 ms); the second, issued after the
    // first was abandoned, completes because the thread was reclaimed.
    w.inject_at(t(0), rt);
    w.inject_at(t(60), rt);
    let done = w.run_until(t(1_000));
    assert_eq!(done.len(), 0, "both need 100 ms against a 50 ms budget");
    assert_eq!(w.dropped(), 2, "both requests abandoned at their deadline");
    // A generous-timeout type on the same service succeeds.
    let rt2 = w.add_request_type_with_timeout("patient", svc, Some(SimDuration::from_millis(500)));
    assert_eq!(rt2, patient);
    w.inject_at(t(2_000), rt2);
    let done = w.run_until(t(3_000));
    assert_eq!(done.len(), 1);
    assert!(w.is_quiescent());
    assert_eq!(w.running_threads(svc), 0);
}

#[test]
fn timeouts_release_queued_requests_before_admission() {
    let mut w = World::new(exact_config(), SimRng::seed_from(1));
    let rt = RequestTypeId(0);
    let svc = w.add_service(
        ServiceSpec::new("gate")
            .cpu(Millicores::from_cores(1))
            .threads(1)
            .on(rt, Behavior::leaf(Dist::constant_ms(40))),
    );
    let rt = w.add_request_type_with_timeout("r", svc, Some(SimDuration::from_millis(60)));
    let pod = w.add_replica(svc).unwrap();
    w.make_ready(pod);
    for _ in 0..5 {
        w.inject_at(t(0), rt); // only the first can finish within 60 ms
    }
    let done = w.run_until(t(1_000));
    assert_eq!(done.len(), 1);
    assert_eq!(w.dropped(), 4, "queued requests timed out while waiting");
    assert_eq!(w.queued_requests(svc), 0, "queue entries reclaimed");
    assert!(w.is_quiescent());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Conservation also holds when client timeouts race completions: every
    /// injected request either completes or is dropped, never both, and all
    /// gates drain.
    #[test]
    fn prop_timeouts_preserve_conservation(
        n in 20usize..150,
        timeout_ms in 5u64..60,
        threads in 1usize..6,
        seed in 0u64..300,
    ) {
        let mut w = World::new(WorldConfig::default(), SimRng::seed_from(seed));
        let rt = RequestTypeId(0);
        let db_id = ServiceId(1);
        let front = w.add_service(
            ServiceSpec::new("front")
                .threads(threads)
                .conns(db_id, 2)
                .on(rt, Behavior::tier(Dist::exponential_ms(2.0), db_id, Dist::constant_ms(1))),
        );
        w.add_service(
            ServiceSpec::new("db").threads(4).on(rt, Behavior::leaf(Dist::exponential_ms(3.0))),
        );
        let rt = w.add_request_type_with_timeout(
            "r",
            front,
            Some(SimDuration::from_millis(timeout_ms)),
        );
        for svc in [front, db_id] {
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
        }
        for i in 0..n {
            w.inject_at(t(i as u64 * 2), rt);
        }
        let done = w.run_until(t(3_600_000));
        prop_assert!(w.is_quiescent());
        prop_assert_eq!(done.len() as u64 + w.dropped(), n as u64);
        // Completed requests honoured their budget (modulo the final net hop
        // racing the timeout event at the same instant).
        for c in &done {
            prop_assert!(
                c.response_time <= SimDuration::from_millis(timeout_ms + 1),
                "completion {:?} beyond its {}ms budget", c.response_time, timeout_ms
            );
        }
        prop_assert_eq!(w.running_threads(front), 0);
        prop_assert_eq!(w.conns_in_use(front, db_id), 0);
    }
}

#[test]
fn fault_schedule_crash_and_restart_round_trip() {
    let config = WorldConfig {
        net_delay: Dist::constant_us(0),
        replica_startup: Dist::constant_ms(100),
        ..WorldConfig::default()
    };
    let mut w = World::new(config, SimRng::seed_from(7));
    let rt = RequestTypeId(0);
    let svc = w.add_service(
        ServiceSpec::new("api")
            .cpu(Millicores::from_cores(4))
            .threads(4)
            .on(rt, Behavior::leaf(Dist::constant_ms(1_000))),
    );
    let rt = w.add_request_type("r", svc);
    let pod = w.add_replica(svc).unwrap();
    w.make_ready(pod);
    w.install_faults(FaultSchedule::new().crash(t(500), svc, Some(SimDuration::from_millis(200))))
        .expect("valid fault schedule");
    w.inject_at(t(0), rt); // in flight when the crash hits
    w.run_until(t(600));
    assert_eq!(w.ready_replicas(svc).len(), 0, "replica crashed");
    assert_eq!(w.drop_breakdown().replica_failed, 1);
    // Restart at 700 ms + 100 ms start-up → ready at 800 ms.
    w.run_until(t(900));
    assert_eq!(w.ready_replicas(svc).len(), 1, "replacement came up");
    w.inject_at(t(1_000), rt);
    let done = w.run_until(t(10_000));
    assert_eq!(done.len(), 1, "recovered replica serves traffic");
    assert!(w.fault_log().iter().any(|(_, m)| m.contains("crash")));
    assert!(w.fault_log().iter().any(|(_, m)| m.contains("restart")));
}

#[test]
fn cpu_pressure_window_slows_hosted_replicas_then_lifts() {
    let (mut w, rt, svc) = single_service_world(100, 4, 1, 0.0);
    let pod = w.ready_replicas(svc)[0];
    let node = w.node_of(pod).unwrap();
    w.install_faults(FaultSchedule::new().cpu_pressure(
        t(0),
        node,
        0.5,
        SimDuration::from_millis(10_000),
    ))
    .expect("valid fault schedule");
    w.inject_at(t(0), rt);
    let done = w.run_until(t(15_000));
    // Half the core delivered → the 100 ms job takes 200 ms.
    assert_eq!(done[0].response_time.as_millis(), 200);
    // After the window, full speed again.
    w.inject_at(t(11_000), rt);
    let done = w.run_until(t(20_000));
    assert_eq!(done[0].response_time.as_millis(), 100);
}

#[test]
fn pressure_window_covers_replicas_added_mid_window() {
    let (mut w, rt, svc) = single_service_world(100, 4, 1, 0.0);
    let pod = w.ready_replicas(svc)[0];
    let node = w.node_of(pod).unwrap();
    w.install_faults(FaultSchedule::new().cpu_pressure(
        t(0),
        node,
        0.5,
        SimDuration::from_millis(60_000),
    ))
    .expect("valid fault schedule");
    w.run_until(t(1_000));
    // Scale up inside the window; the lazy default node hosts everything.
    let pod2 = w.add_replica(svc).unwrap();
    w.make_ready(pod2);
    assert_eq!(w.node_of(pod2).unwrap(), node);
    // Route a request through each replica (round robin).
    w.inject_at(t(2_000), rt);
    w.inject_at(t(2_000), rt);
    let done = w.run_until(t(30_000));
    assert!(
        done.iter().all(|c| c.response_time.as_millis() == 200),
        "replicas added mid-window inherit the pressure: {done:?}"
    );
}

#[test]
fn telemetry_blackout_drop_loses_samples_but_not_requests() {
    let (mut w, rt, svc) = single_service_world(10, 4, 4, 0.0);
    let pod = w.ready_replicas(svc)[0];
    w.install_faults(FaultSchedule::new().telemetry_blackout(
        t(1_000),
        BlackoutMode::Drop,
        SimDuration::from_millis(2_000),
    ))
    .expect("valid fault schedule");
    w.inject_at(t(0), rt); // before the window: sampled
    w.inject_at(t(2_000), rt); // inside: lost
    let done = w.run_until(t(5_000));
    assert_eq!(done.len(), 2, "requests themselves are unaffected");
    assert_eq!(w.client().total(), 2, "client log keeps recording");
    assert_eq!(w.completions_of(pod).unwrap().len(), 1, "sample lost");
    assert_eq!(w.warehouse().len(), 1, "trace lost");
}

#[test]
fn telemetry_blackout_lag_delivers_samples_at_window_end() {
    let (mut w, rt, svc) = single_service_world(10, 4, 4, 0.0);
    let pod = w.ready_replicas(svc)[0];
    w.install_faults(FaultSchedule::new().telemetry_blackout(
        t(1_000),
        BlackoutMode::Lag,
        SimDuration::from_millis(2_000),
    ))
    .expect("valid fault schedule");
    w.inject_at(t(2_000), rt);
    let mut done = w.run_until(t(2_500));
    assert_eq!(done.len(), 1, "the request itself completes normally");
    assert_eq!(
        w.completions_of(pod).unwrap().len(),
        0,
        "sample withheld inside the window"
    );
    w.inject_at(t(4_000), rt); // after the window
    done.extend(w.run_until(t(5_000)));
    assert_eq!(done.len(), 2);
    assert_eq!(
        w.completions_of(pod).unwrap().len(),
        2,
        "lagged sample delivered in order, live sample follows"
    );
    assert_eq!(w.warehouse().len(), 2);
}

/// Trace retransmits are deduped wherever networked telemetry delivers
/// them: straight off the telemetry edge, and out of the buffer a `Lag`
/// blackout releases at its end. Two worlds differ only in the telemetry
/// edge's duplicate probability. With no loss and a constant latency the
/// duplicate draws are the network stream's only draws, so both run the
/// same requests to the same completions and must store the same traces.
#[test]
fn telemetry_retransmits_are_deduped_live_and_after_a_lag_blackout() {
    let run = |duplicate: f64| {
        let (mut w, rt, _) = single_service_world(5, 4, 4, 0.0);
        w.install_network(NetworkConfig::transparent().telemetry_edge(
            EdgeParams::constant(SimDuration::from_millis(1)).duplicate(duplicate),
        ));
        w.install_faults(FaultSchedule::new().telemetry_blackout(
            t(1_000),
            BlackoutMode::Lag,
            SimDuration::from_millis(2_000),
        ))
        .expect("valid fault schedule");
        for i in 0..400 {
            w.inject_at(t(i * 10), rt);
        }
        let done = w.run_until(t(10_000));
        assert_eq!(done.len(), 400);
        let stored: Vec<u64> = w.warehouse().iter().map(|tr| tr.request.get()).collect();
        let sent = w.network_stats().expect("network installed").duplicated;
        (stored, sent, w.warehouse().duplicates_dropped())
    };
    let (clean, clean_sent, clean_dropped) = run(0.0);
    let (noisy, noisy_sent, noisy_dropped) = run(0.5);
    assert_eq!((clean_sent, clean_dropped), (0, 0));
    assert_eq!(clean.len(), 400, "every trace delivered once");
    assert!(noisy_dropped > 0, "the edge duplicated nothing");
    assert_eq!(noisy_dropped, noisy_sent, "every retransmit deduped");
    assert_eq!(noisy, clean, "retransmits must not reach the store");
}

#[test]
fn connect_retries_exhaust_into_a_dropped_request() {
    // front → db where db has no replica at all: the child call retries
    // every 10 ms up to the budget of 50, then the request drops.
    let config = WorldConfig {
        net_delay: Dist::constant_us(0),
        replica_startup: Dist::constant_us(0),
        ..WorldConfig::default()
    };
    let mut w = World::new(config, SimRng::seed_from(2));
    let rt = RequestTypeId(0);
    let db_id = ServiceId(1);
    let front = w.add_service(
        ServiceSpec::new("front")
            .threads(4)
            .on(rt, Behavior::new(vec![Stage::call(db_id)])),
    );
    w.add_service(ServiceSpec::new("db").on(rt, Behavior::leaf(Dist::constant_ms(1))));
    let rt = w.add_request_type("q", front);
    let pod = w.add_replica(front).unwrap();
    w.make_ready(pod);
    w.inject_at(t(0), rt);
    let done = w.run_until(t(10_000));
    assert!(done.is_empty());
    assert_eq!(w.drop_breakdown().retries_exhausted, 1);
    assert_eq!(w.running_threads(front), 0, "front thread reclaimed");
    assert!(w.is_quiescent());
}

#[test]
fn drop_reasons_are_attributed() {
    // Refused at the edge.
    let config = WorldConfig {
        net_delay: Dist::constant_us(0),
        replica_startup: Dist::constant_ms(500),
        ..WorldConfig::default()
    };
    let mut w = World::new(config, SimRng::seed_from(2));
    let rt = RequestTypeId(0);
    let svc = w.add_service(ServiceSpec::new("api").on(rt, Behavior::leaf(Dist::constant_ms(1))));
    let rt = w.add_request_type_with_timeout("r", svc, Some(SimDuration::from_millis(50)));
    w.add_replica(svc).unwrap(); // ready at 500 ms
    w.inject_at(t(100), rt);
    w.run_until(t(400));
    assert_eq!(
        w.drain_dropped(),
        vec![(telemetry::RequestId(0), DropReason::Refused)]
    );
    // Timeout: close the thread gate so admitted work can never start.
    w.set_thread_limit(svc, 0);
    let id = w.inject_at(t(700), rt);
    let _ = w.run_until(t(1_000));
    let drops = w.drain_dropped();
    assert!(
        drops.contains(&(id, DropReason::ClientTimeout)),
        "{drops:?}"
    );
    let b = w.drop_breakdown();
    assert_eq!(b.refused, 1);
    assert!(b.client_timeout >= 1);
    assert_eq!(b.total(), w.dropped());
}

#[test]
fn faults_are_deterministic_across_runs() {
    let run = || {
        let mut w = World::new(WorldConfig::default(), SimRng::seed_from(11));
        let rt = RequestTypeId(0);
        let svc = w.add_service(
            ServiceSpec::new("api")
                .threads(8)
                .lb(LbPolicy::Random)
                .on(rt, Behavior::leaf(Dist::exponential_ms(5.0))),
        );
        let rt = w.add_request_type("r", svc);
        for _ in 0..3 {
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
        }
        let node = w.node_of(w.ready_replicas(svc)[0]).unwrap();
        w.install_faults(
            FaultSchedule::new()
                .crash(t(3_000), svc, Some(SimDuration::from_millis(500)))
                .cpu_pressure(t(5_000), node, 0.4, SimDuration::from_millis(4_000))
                .telemetry_blackout(t(5_000), BlackoutMode::Lag, SimDuration::from_millis(4_000)),
        )
        .expect("valid fault schedule");
        for i in 0..500 {
            w.inject_at(t(i * 20), rt);
        }
        let done = w.run_until(t(60_000));
        (done, w.fault_log().to_vec(), w.drop_breakdown())
    };
    let (a, b) = (run(), run());
    assert_eq!(a.0, b.0, "identical completion streams");
    assert_eq!(a.1, b.1, "identical fault logs");
    assert_eq!(a.2, b.2, "identical drop breakdowns");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Conservation holds across crash/recover/retry interleavings: with a
    /// mid-run crash of the db tier (optionally restarted), client
    /// timeouts and a bounded connect-retry budget, every injected request
    /// still either completes or is dropped exactly once, all gates drain,
    /// and the per-reason breakdown sums to the total.
    #[test]
    fn prop_crash_recover_retry_conservation(
        n in 20usize..120,
        crash_ms in 10u64..300,
        restart_ms in 0u64..200, // 0 encodes "no restart"
        timeout_ms in 20u64..80,
        seed in 0u64..300,
    ) {
        let mut w = World::new(WorldConfig::default(), SimRng::seed_from(seed));
        let rt = RequestTypeId(0);
        let db_id = ServiceId(1);
        let front = w.add_service(
            ServiceSpec::new("front")
                .threads(4)
                .conns(db_id, 2)
                .on(rt, Behavior::tier(Dist::exponential_ms(2.0), db_id, Dist::constant_ms(1))),
        );
        w.add_service(
            ServiceSpec::new("db").threads(4).on(rt, Behavior::leaf(Dist::exponential_ms(3.0))),
        );
        let rt = w.add_request_type_with_timeout(
            "r",
            front,
            Some(SimDuration::from_millis(timeout_ms)),
        );
        for svc in [front, db_id] {
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
        }
        let restart = (restart_ms > 0).then(|| SimDuration::from_millis(restart_ms));
        w.install_faults(FaultSchedule::new().crash(t(crash_ms), db_id, restart))
            .expect("valid fault schedule");
        for i in 0..n {
            w.inject_at(t(i as u64 * 2), rt);
        }
        let done = w.run_until(t(3_600_000));
        prop_assert!(w.is_quiescent(), "events must drain");
        prop_assert_eq!(done.len() as u64 + w.dropped(), n as u64);
        prop_assert_eq!(w.drop_breakdown().total(), w.dropped());
        prop_assert_eq!(w.running_threads(front), 0);
        prop_assert_eq!(w.conns_in_use(front, db_id), 0);
    }
}

#[test]
fn completions_split_the_traffic_by_request_type() {
    let mut w = World::new(exact_config(), SimRng::seed_from(1));
    let (fast, slow) = (RequestTypeId(0), RequestTypeId(1));
    let svc = w.add_service(
        ServiceSpec::new("api")
            .cpu(Millicores::from_cores(4))
            .threads(16)
            .on(fast, Behavior::leaf(Dist::constant_ms(2)))
            .on(slow, Behavior::leaf(Dist::constant_ms(20))),
    );
    let fast = w.add_request_type("fast", svc);
    let slow = w.add_request_type("slow", svc);
    let pod = w.add_replica(svc).unwrap();
    w.make_ready(pod);
    for i in 0..20 {
        w.inject_at(t(i * 50), fast);
        w.inject_at(t(i * 50), slow);
    }
    let done = w.run_until(t(5_000));
    assert_eq!(w.client().total(), 40);
    let p50_of = |rtype| {
        let mut rts: Vec<SimDuration> = done
            .iter()
            .filter(|c| c.rtype == rtype)
            .map(|c| c.response_time)
            .collect();
        rts.sort_unstable();
        (rts.len(), rts[(rts.len() - 1) / 2])
    };
    let (n_fast, p50_fast) = p50_of(fast);
    let (n_slow, p50_slow) = p50_of(slow);
    assert_eq!(n_fast, 20);
    assert_eq!(n_slow, 20);
    assert!(p50_slow > p50_fast * 5, "{p50_fast} vs {p50_slow}");
}
