//! Cross-crate integration tests: full application topologies driven by
//! closed-loop workloads with live controllers — the whole stack from
//! `sim-core` up to `apps`.

use apps::{Scenario, SocialNetwork, SockShop, SockShopParams, Watch};
use autoscalers::{FirmController, HpaController};
use cluster::Millicores;
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_core::{
    NullController, ResourceBounds, ResourceRegistry, SoftResource, SoraConfig, SoraController,
};
use telemetry::ServiceId;
use workload::{Mix, RateCurve, TraceShape, UserPool};

const CART: ServiceId = ServiceId(1);

fn cart_scenario(shop: &SockShop, users: f64, secs: u64) -> Scenario {
    let curve = RateCurve::new(TraceShape::DualPhase, users, SimDuration::from_secs(secs));
    let pool = UserPool::new(curve, Dist::exponential_ms(2_500.0), SimRng::seed_from(9));
    Scenario::new(
        SimDuration::from_millis(400),
        pool,
        Mix::single(shop.get_cart),
        Watch {
            service: CART,
            conns: None,
        },
    )
}

#[test]
fn sock_shop_serves_a_closed_loop_trace_without_leaks() {
    let mut shop = SockShop::build(SockShopParams::default(), SimRng::seed_from(1));
    let scenario = cart_scenario(&shop, 400.0, 60);
    let mut ctl = NullController;
    let res = scenario.run(&mut shop.world, &mut ctl);
    assert!(res.summary.completed > 4_000, "{:?}", res.summary);
    assert_eq!(res.summary.dropped, 0);
    // Everything drained: no threads or connections leaked.
    assert_eq!(shop.world.running_threads(CART), 0);
    assert_eq!(shop.world.queued_requests(CART), 0);
    assert!(shop.world.is_quiescent());
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let mut shop = SockShop::build(SockShopParams::default(), SimRng::seed_from(2));
        let scenario = cart_scenario(&shop, 300.0, 40);
        let registry = ResourceRegistry::new().with(
            SoftResource::ThreadPool { service: CART },
            ResourceBounds { min: 2, max: 100 },
        );
        let mut sora = SoraController::sora(
            SoraConfig {
                sla: SimDuration::from_millis(100),
                ..Default::default()
            },
            registry,
            NullController,
        );
        let res = scenario.run(&mut shop.world, &mut sora);
        (
            res.summary.completed,
            res.summary.p99_ms as u64,
            shop.world.thread_limit(CART),
        )
    };
    assert_eq!(run(), run(), "same seed, same everything");
}

#[test]
fn sora_over_firm_adapts_threads_on_hardware_scale_up() {
    // An under-threaded cart saturates; FIRM adds CPU; Sora must follow
    // with threads (or the new CPU is wasted, the paper's Fig. 10 story).
    let mut shop = SockShop::build(
        SockShopParams {
            cart_cores: 1,
            cart_threads: 3,
            ..Default::default()
        },
        SimRng::seed_from(3),
    );
    let scenario = cart_scenario(&shop, 900.0, 120);
    let firm = FirmController::new(vec![CART]);
    let registry = ResourceRegistry::new().with(
        SoftResource::ThreadPool { service: CART },
        ResourceBounds { min: 3, max: 64 },
    );
    let mut sora = SoraController::sora(
        SoraConfig {
            sla: SimDuration::from_millis(400),
            ..Default::default()
        },
        registry,
        firm,
    );
    let res = scenario.run(&mut shop.world, &mut sora);
    assert!(res.summary.completed > 5_000);
    assert!(
        shop.world.cpu_limit(CART) > Millicores::from_cores(1),
        "FIRM scaled the hot cart up: {}",
        shop.world.cpu_limit(CART)
    );
    assert!(
        shop.world.thread_limit(CART) > 3,
        "Sora followed with threads: {}",
        shop.world.thread_limit(CART)
    );
}

#[test]
fn social_network_drift_with_hpa_and_sora_connections() {
    let mut sn = SocialNetwork::build(Default::default(), SimRng::seed_from(4));
    let (ht, ps) = (sn.home_timeline, sn.post_storage);
    let curve = RateCurve::new(TraceShape::Steady, 2_500.0, SimDuration::from_secs(90));
    let pool = UserPool::new(curve, Dist::exponential_ms(2_500.0), SimRng::seed_from(5));
    let scenario = Scenario::new(
        SimDuration::from_millis(400),
        pool,
        Mix::single(sn.read_home_timeline_light),
        Watch {
            service: ps,
            conns: Some((ht, ps)),
        },
    )
    .with_mix_change(
        SimTime::from_secs(45),
        Mix::single(sn.read_home_timeline_heavy),
    );
    let registry = ResourceRegistry::new().with(
        SoftResource::ConnPool {
            caller: ht,
            target: ps,
        },
        ResourceBounds { min: 4, max: 256 },
    );
    let mut sora = SoraController::sora(
        SoraConfig {
            sla: SimDuration::from_millis(400),
            ..Default::default()
        },
        registry,
        HpaController::new(ps, 4),
    );
    let res = scenario.run(&mut sn.world, &mut sora);
    assert!(res.summary.completed > 10_000, "{:?}", res.summary);
    // The heavy phase must have driven either replicas or the pool up.
    let conns = sn.world.conn_limit(ht, ps).unwrap();
    let replicas = sn.world.ready_replicas(ps).len();
    assert!(
        conns != 10 || replicas > 1,
        "some adaptation must happen under the heavy phase \
         (conns {conns}, replicas {replicas})"
    );
    assert!(sn.world.conns_in_use(ht, ps) == 0, "run drained");
}

#[test]
fn client_log_percentiles_are_ordered() {
    let mut shop = SockShop::build(SockShopParams::default(), SimRng::seed_from(6));
    let scenario = cart_scenario(&shop, 350.0, 30);
    let mut ctl = NullController;
    let res = scenario.run(&mut shop.world, &mut ctl);
    assert!(res.summary.mean_rt_ms > 0.0);
    assert!(res.summary.p95_ms >= res.summary.mean_rt_ms * 0.5);
    assert!(res.summary.p99_ms >= res.summary.p95_ms);
    let p50 = shop.world.client().percentile(50.0).unwrap();
    let p95 = shop.world.client().percentile(95.0).unwrap();
    assert!(p50 <= p95);
}

#[test]
fn warehouse_traces_match_topology_paths() {
    let mut shop = SockShop::build(SockShopParams::default(), SimRng::seed_from(7));
    for i in 0..50 {
        shop.world
            .inject_at(SimTime::from_millis(1 + i * 20), shop.get_catalogue);
    }
    shop.world.run_until(SimTime::from_secs(5));
    let stats = telemetry::per_service_stats(shop.world.warehouse().iter());
    assert!(stats.trace_count() >= 50);
    // The catalogue branch dominates the catalogue request's critical path.
    let dominant = stats.dominant_path().expect("some path");
    let names: Vec<&str> = dominant
        .iter()
        .map(|&s| shop.world.service_name(s))
        .collect();
    assert_eq!(names[0], "front-end");
    assert!(names.contains(&"catalogue") || names.contains(&"cart"));
}
