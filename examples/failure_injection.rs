//! Failure injection: abruptly kill a replica mid-run and watch the
//! system absorb it — aborted requests are reclaimed, the closed-loop users
//! retry, and HPA restores capacity.
//!
//! Run with: `cargo run --release --example failure_injection`

use apps::{Scenario, SockShop, SockShopParams, Watch};
use autoscalers::HpaController;
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_core::Controller;
use workload::{Mix, RateCurve, TraceShape, UserPool};

/// A controller wrapper that kills one Cart replica at a fixed instant,
/// then delegates to HPA — a crude chaos monkey.
struct ChaosThenHpa {
    kill_at: SimTime,
    killed: bool,
    hpa: HpaController,
}

impl Controller for ChaosThenHpa {
    fn control(&mut self, world: &mut microsim::World, now: SimTime) {
        if !self.killed && now >= self.kill_at {
            let victims = world.ready_replicas(self.hpa.service());
            if let Some(&victim) = victims.first() {
                println!(
                    "t={now}: chaos kills {victim} ({} in flight aborted so far: {})",
                    world.running_threads(self.hpa.service()),
                    world.dropped()
                );
                world.fail_replica(victim);
                self.killed = true;
            }
        }
        self.hpa.control(world, now);
    }

    fn name(&self) -> &str {
        "chaos+hpa"
    }
}

fn main() {
    let cart = telemetry::ServiceId(1);
    let mut shop = SockShop::build(
        SockShopParams {
            cart_cores: 1,
            cart_threads: 16,
            ..Default::default()
        },
        SimRng::seed_from(13),
    );
    // A second replica up front so the kill does not black-hole the service.
    let pod = shop.world.add_replica(cart).expect("placement");
    shop.world.make_ready(pod);

    let curve = RateCurve::new(TraceShape::Steady, 1_200.0, SimDuration::from_secs(120));
    let pool = UserPool::new(curve, Dist::exponential_ms(2_500.0), SimRng::seed_from(14));
    let scenario = Scenario::new(
        SimDuration::from_millis(400),
        pool,
        Mix::single(shop.get_cart),
        Watch {
            service: cart,
            conns: None,
        },
    );
    let mut chaos = ChaosThenHpa {
        kill_at: SimTime::from_secs(45),
        killed: false,
        hpa: HpaController::new(cart, 8),
    };
    let res = scenario.run(&mut shop.world, &mut chaos);

    println!(
        "\ncompleted {}  dropped {} (aborted by the kill + edge refusals)",
        res.summary.completed, res.summary.dropped
    );
    println!(
        "p99 {:.0} ms, goodput(400ms) {:.0} req/s",
        res.summary.p99_ms, res.summary.goodput_rps
    );
    println!(
        "cart replicas at end: {} (HPA restored capacity)",
        shop.world.ready_replicas(cart).len()
    );
    for row in res.timeline.iter().step_by(15) {
        println!(
            "t={:>4.0}s replicas={} running_threads={:>2}",
            row.t_secs, row.replicas, row.running_threads
        );
    }
}
