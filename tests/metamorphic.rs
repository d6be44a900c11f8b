//! Metamorphic integration tests: transformations of a simulation input
//! with a known, exact effect on the output. Unlike the conservation
//! properties in `invariants.rs`, these compare *pairs* of runs, so they
//! catch bugs that conserve totals but skew results — hidden absolute-time
//! dependence, spawn-order dependence, or an audit layer that perturbs
//! what it observes.

use cluster::Millicores;
use microsim::{Behavior, LbPolicy, ServiceSpec, Stage, World, WorldConfig};
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_bench::{scenario_result_text, BuiltScenario, ScenarioOutcome, ScenarioSpec};
use telemetry::{RequestTypeId, ServiceId};

/// The `invariants.rs` three-tier topology: front → mid → two leaves.
fn three_tier(seed: u64) -> (World, RequestTypeId) {
    let mut w = World::new(WorldConfig::default(), SimRng::seed_from(seed));
    let rt = RequestTypeId(0);
    let (mid, leaf_a, leaf_b) = (ServiceId(1), ServiceId(2), ServiceId(3));
    let front = w.add_service(ServiceSpec::new("front").threads(64).on(
        rt,
        Behavior::tier(Dist::exponential_ms(0.5), mid, Dist::constant_us(200)),
    ));
    w.add_service(
        ServiceSpec::new("mid")
            .cpu(Millicores::from_cores(2))
            .threads(8)
            .conns(leaf_a, 4)
            .conns(leaf_b, 4)
            .lb(LbPolicy::RoundRobin)
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

/// Injects `n` requests starting at `offset` and drains the world.
fn drive(offset: SimDuration, n: u64, seed: u64) -> (World, Vec<microsim::Completion>) {
    let (mut w, rt) = three_tier(seed);
    for i in 0..n {
        w.inject_at(
            SimTime::ZERO + offset + SimDuration::from_millis(1 + i * 2),
            rt,
        );
    }
    let done = w.run_until(SimTime::ZERO + offset + SimDuration::from_secs(3_600));
    assert!(w.is_quiescent());
    (w, done)
}

/// Translating every injection by a constant shifts every completion by
/// exactly that constant and changes no duration-valued output: the
/// simulator has no hidden dependence on absolute time.
#[test]
fn time_translation_shifts_outputs_exactly() {
    let shift = SimDuration::from_secs(500);
    let (wa, da) = drive(SimDuration::ZERO, 300, 11);
    let (wb, db) = drive(shift, 300, 11);

    assert_eq!(da.len(), db.len());
    for (a, b) in da.iter().zip(&db) {
        assert_eq!(a.issued + shift, b.issued);
        assert_eq!(a.completed + shift, b.completed);
        assert_eq!(a.response_time, b.response_time, "latency is shift-free");
        assert_eq!(a.rtype, b.rtype);
    }
    assert_eq!(wa.dropped(), wb.dropped());
    assert_eq!(wa.client().total(), wb.client().total());
    assert_eq!(
        wa.client().mean_response_time(),
        wb.client().mean_response_time()
    );
    for p in [50.0, 95.0, 99.0, 100.0] {
        assert_eq!(wa.client().percentile(p), wb.client().percentile(p));
    }
}

/// Permuting the order in which extra replicas are spawned across services
/// relabels pod ids but leaves every aggregate unchanged: load balancing,
/// event tie-breaking and RNG consumption depend only on the per-service
/// replica sets, not the global spawn sequence.
#[test]
fn replica_spawn_order_permutation_preserves_aggregates() {
    let scale_out = |order: &[ServiceId]| {
        let (mut w, rt) = three_tier(23);
        for svc in [ServiceId(1), ServiceId(2), ServiceId(3)] {
            w.monitor(svc);
        }
        for &svc in order {
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
        }
        for i in 0..400u64 {
            w.inject_at(SimTime::from_millis(1 + i * 2), rt);
        }
        let done = w.run_until(SimTime::from_secs(3_600));
        assert!(w.is_quiescent());
        (w, done.len())
    };
    let (mid, leaf_a, leaf_b) = (ServiceId(1), ServiceId(2), ServiceId(3));
    let orders: [&[ServiceId]; 3] = [
        &[mid, mid, leaf_a, leaf_b],
        &[leaf_b, leaf_a, mid, mid],
        &[mid, leaf_a, mid, leaf_b],
    ];
    let (base_w, base_done) = scale_out(orders[0]);
    for order in &orders[1..] {
        let (w, done) = scale_out(order);
        assert_eq!(done, base_done, "order {order:?}");
        assert_eq!(w.dropped(), base_w.dropped());
        assert_eq!(w.client().total(), base_w.client().total());
        assert_eq!(
            w.client().mean_response_time(),
            base_w.client().mean_response_time()
        );
        for p in [50.0, 99.0] {
            assert_eq!(w.client().percentile(p), base_w.client().percentile(p));
        }
        // Per-service completion totals match even though pod ids differ.
        for svc in [mid, leaf_a, leaf_b] {
            let count = |w: &World| -> usize {
                w.ready_replicas(svc)
                    .iter()
                    .filter_map(|&id| w.completions_of(id).map(|l| l.len()))
                    .sum()
            };
            assert_eq!(count(&w), count(&base_w), "service {svc:?}");
        }
    }
}

/// A drift run like the perf ledger's `drift`, shortened: Social Network
/// under HPA + Sora, light to heavy reads at 18 s.
const DRIFT: &str = r#"{
    "app": "social_network", "trace": "LargeVariation", "max_users": 4500.0,
    "duration_secs": 30, "sla_ms": 400, "hardware": "hpa", "soft": "sora",
    "seed": 77, "drift_at_secs": 18
}"#;

/// Sock Shop under HPA + Sora with a Cart crash (restarted after 2 s) and a
/// lagged telemetry blackout that withholds every service's samples.
const CRASH_AND_LAG: &str = r#"{
    "app": "sock_shop", "trace": "Steady", "max_users": 1500.0,
    "duration_secs": 40, "sla_ms": 400, "hardware": "hpa", "soft": "sora",
    "seed": 5, "faults": [
        {"crash": {"service": 1, "at_ms": 12000, "restart_after_ms": 2000}},
        {"telemetry_blackout": {"at_ms": 20000, "duration_ms": 6000, "lag": true}}
    ]
}"#;

/// Declaring every service monitored moves no result byte: the samplers
/// only observe. The fault log's lagged-sample count covers every withheld
/// sample, whoever reads the samplers.
#[test]
fn monitoring_every_service_moves_no_result_byte() {
    let short =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/short.json"))
            .expect("committed spec");
    for text in [short.as_str(), DRIFT, CRASH_AND_LAG] {
        let spec = ScenarioSpec::parse(text).expect("valid spec");
        let as_built = scenario_result_text(&spec, &spec.run());
        let BuiltScenario {
            mut world,
            scenario,
            mut controller,
        } = spec.build();
        for s in 0..world.service_count() as u32 {
            world.monitor(ServiceId(s));
        }
        let result = scenario.run(&mut world, controller.as_mut());
        let all_monitored = ScenarioOutcome {
            summary: result.summary,
            result,
            world,
        };
        assert_eq!(
            scenario_result_text(&spec, &all_monitored),
            as_built,
            "{text}"
        );
    }
}

/// A fault-free randomised run finishes with a completely clean audit:
/// the conservation checks themselves never fire spuriously. (The
/// audit-off byte-identity half of this metamorphic pair is checked by
/// `scripts/check.sh`, which diffs a bench binary's stdout across
/// audit-on and audit-off builds.)
#[cfg(feature = "audit")]
#[test]
fn fault_free_run_is_audit_clean() {
    for seed in [1u64, 7, 99] {
        let (w, done) = drive(SimDuration::ZERO, 500, seed);
        assert!(!done.is_empty());
        assert_eq!(w.audit().total(), 0, "seed {seed}: {}", w.audit().summary());
    }
}

/// Sharding the three-tier world is unobservable: the same seed run at
/// 1, 2 and 4 shards must reproduce the never-sharded world's completion
/// stream, counters, percentiles and drop breakdown exactly — the shard
/// tally only counts what the one event loop dispatches.
#[test]
fn shard_count_is_unobservable() {
    let run = |shards: Option<usize>| {
        let (mut w, rt) = three_tier(31);
        if let Some(shards) = shards {
            w.enable_sharding(shards)
                .expect("fresh world accepts sharding");
        }
        for i in 0..400u64 {
            w.inject_at(SimTime::from_millis(1 + i * 2), rt);
        }
        let done = w.run_until(SimTime::from_secs(3_600));
        assert!(w.is_quiescent());
        (w, done)
    };
    let (base_w, base_done) = run(None);
    assert!(!base_done.is_empty());
    for shards in [1usize, 2, 4] {
        let (w, done) = run(Some(shards));
        assert_eq!(
            done, base_done,
            "completion stream diverged at {shards} shards"
        );
        assert_eq!(w.dropped(), base_w.dropped());
        assert_eq!(w.events_dispatched(), base_w.events_dispatched());
        assert_eq!(w.spans_created(), base_w.spans_created());
        assert_eq!(w.drop_breakdown(), base_w.drop_breakdown());
        assert_eq!(w.client().total(), base_w.client().total());
        for p in [50.0, 95.0, 99.0, 100.0] {
            assert_eq!(w.client().percentile(p), base_w.client().percentile(p));
        }
    }
}

/// A sharded run over a canned fault schedule — a replica crash with
/// restart, a CPU-pressure window and a telemetry blackout — stays
/// audit-clean and reproduces the never-sharded world.
#[cfg(feature = "audit")]
#[test]
fn audited_sharded_fault_run_is_clean_and_invariant() {
    use cluster::NodeId;
    use microsim::{BlackoutMode, FaultSchedule};
    let run = |shards: Option<usize>| {
        let (mut w, rt) = three_tier(47);
        if let Some(shards) = shards {
            w.enable_sharding(shards)
                .expect("fresh world accepts sharding");
        }
        w.install_faults(
            FaultSchedule::new()
                .crash(
                    SimTime::from_millis(120),
                    ServiceId(1),
                    Some(SimDuration::from_millis(80)),
                )
                .cpu_pressure(
                    SimTime::from_millis(200),
                    NodeId(0),
                    0.5,
                    SimDuration::from_millis(150),
                )
                .telemetry_blackout(
                    SimTime::from_millis(300),
                    BlackoutMode::Lag,
                    SimDuration::from_millis(100),
                ),
        )
        .expect("canned schedule validates");
        for i in 0..400u64 {
            w.inject_at(SimTime::from_millis(1 + i), rt);
        }
        let done = w.run_until(SimTime::from_secs(3_600));
        assert!(w.is_quiescent());
        assert_eq!(
            w.audit().total(),
            0,
            "shards={shards:?}: {}",
            w.audit().summary()
        );
        (w, done)
    };
    let (base_w, base_done) = run(None);
    let (w, done) = run(Some(4));
    assert!(base_w.fault_log().len() >= 3, "all three faults must fire");
    assert_eq!(done, base_done, "fault-schedule completions diverged");
    assert_eq!(w.fault_log(), base_w.fault_log());
    assert_eq!(w.drop_breakdown(), base_w.drop_breakdown());
}
