//! Sock Shop under a bursty trace: FIRM-style hardware scaling alone vs
//! FIRM + Sora soft-resource adaptation — a miniature of the paper's
//! Fig. 10 experiment.
//!
//! Run with: `cargo run --release --example sockshop_autoscaling`

use apps::{Scenario, SockShop, Watch};
use autoscalers::FirmController;
use sim_core::{Dist, SimDuration, SimRng};
use sora_core::{
    Controller, ResourceBounds, ResourceRegistry, SoftResource, SoraConfig, SoraController,
};
use workload::{Mix, RateCurve, TraceShape, UserPool};

const SECS: u64 = 300;
const USERS: f64 = 3_500.0;

fn run(name: &str, controller: &mut dyn Controller) {
    let mut shop = SockShop::build(Default::default(), SimRng::seed_from(7));
    let curve = RateCurve::new(
        TraceShape::SteepTriPhase,
        USERS,
        SimDuration::from_secs(SECS),
    );
    let pool = UserPool::new(curve, Dist::exponential_ms(2_500.0), SimRng::seed_from(8));
    let scenario = Scenario::new(
        SimDuration::from_millis(400),
        pool,
        Mix::single(shop.get_cart),
        Watch {
            service: shop.cart,
            conns: None,
        },
    );
    shop.world.monitor(shop.cart); // Sora reads its samplers
    let result = scenario.run(&mut shop.world, controller);
    println!(
        "{name:12} p95 {:6.0} ms   p99 {:6.0} ms   goodput(400ms) {:5.0} req/s   completed {}",
        result.summary.p95_ms,
        result.summary.p99_ms,
        result.summary.goodput_rps,
        result.summary.completed,
    );
}

fn main() {
    let cart = telemetry::ServiceId(1); // Sock Shop layout: cart is service 1

    println!("Steep Tri Phase trace, {USERS} users, {SECS} s:\n");
    let mut firm_only = FirmController::new(vec![cart]);
    run("FIRM", &mut firm_only);

    let registry = ResourceRegistry::new().with(
        SoftResource::ThreadPool { service: cart },
        ResourceBounds { min: 5, max: 200 },
    );
    let mut sora = SoraController::sora(
        SoraConfig {
            sla: SimDuration::from_millis(400),
            ..Default::default()
        },
        registry,
        FirmController::new(vec![cart]),
    );
    run("FIRM + Sora", &mut sora);
    println!("\nSora's thread-pool actuations:");
    for (t, resource, value) in sora.actions() {
        println!("  {t}: {resource} -> {value}");
    }
}
