//! Social Network under system-state drift: the request mix flips from
//! light to heavy reads mid-run, and Sora re-sizes the Home-Timeline →
//! Post Storage connection pool — a miniature of the paper's Fig. 12.
//!
//! Run with: `cargo run --release --example socialnetwork_drift`

use apps::{Scenario, SocialNetwork, Watch};
use autoscalers::HpaController;
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_core::{
    Controller, ResourceBounds, ResourceRegistry, SoftResource, SoraConfig, SoraController,
};
use workload::{Mix, RateCurve, TraceShape, UserPool};

const SECS: u64 = 300;
const DRIFT_AT: u64 = 150;

fn run(name: &str, controller: &mut dyn Controller) {
    let mut sn = SocialNetwork::build(Default::default(), SimRng::seed_from(5));
    let curve = RateCurve::new(
        TraceShape::LargeVariation,
        4_500.0,
        SimDuration::from_secs(SECS),
    );
    let pool = UserPool::new(curve, Dist::exponential_ms(2_500.0), SimRng::seed_from(6));
    let scenario = Scenario::new(
        SimDuration::from_millis(400),
        pool,
        Mix::single(sn.read_home_timeline_light),
        Watch {
            service: sn.post_storage,
            conns: Some((sn.home_timeline, sn.post_storage)),
        },
    )
    // At DRIFT_AT the users start reading 10-post timelines instead of 2.
    .with_mix_change(
        SimTime::from_secs(DRIFT_AT),
        Mix::single(sn.read_home_timeline_heavy),
    );
    let result = scenario.run(&mut sn.world, controller);
    let final_conns = result.timeline.last().map_or(0, |r| r.conns_established);
    let final_replicas = result.timeline.last().map_or(0, |r| r.replicas);
    println!(
        "{name:12} p99 {:6.0} ms   goodput(400ms) {:5.0} req/s   \
         final: {} Post-Storage replicas, {} established connections",
        result.summary.p99_ms, result.summary.goodput_rps, final_replicas, final_conns,
    );
}

fn main() {
    let (home_timeline, post_storage) = (telemetry::ServiceId(1), telemetry::ServiceId(2));
    println!("Large Variation trace, 4 500 users, light→heavy read drift at {DRIFT_AT} s:\n");
    let hpa = || HpaController::new(post_storage, 6);

    let mut hpa_only = hpa();
    run("HPA", &mut hpa_only);

    let registry = ResourceRegistry::new().with(
        SoftResource::ConnPool {
            caller: home_timeline,
            target: post_storage,
        },
        ResourceBounds { min: 4, max: 256 },
    );
    let mut sora = SoraController::sora(
        SoraConfig {
            sla: SimDuration::from_millis(400),
            ..Default::default()
        },
        registry,
        hpa(),
    );
    run("HPA + Sora", &mut sora);
    println!("\nSora's connection-pool actuations:");
    for (t, resource, value) in sora.actions() {
        println!("  {t}: {resource} -> {value}");
    }
}
