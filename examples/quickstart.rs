//! Quickstart: build a tiny two-service topology, drive it with load, and
//! let Sora adapt the thread pool of the bottleneck service.
//!
//! Run with: `cargo run --release --example quickstart`

use cluster::Millicores;
use microsim::{Behavior, ServiceSpec, World, WorldConfig};
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_core::{
    Controller, NullController, ResourceBounds, ResourceRegistry, SoftResource, SoraConfig,
    SoraController,
};
use telemetry::RequestTypeId;

fn main() {
    // 1. Describe the topology: a front service calling a 2-core worker
    //    whose thread pool starts grossly over-allocated.
    let mut world = World::new(WorldConfig::default(), SimRng::seed_from(1));
    let rt = RequestTypeId(0);
    let worker_id = telemetry::ServiceId(1);
    let front = world.add_service(
        ServiceSpec::new("front")
            .cpu(Millicores::from_cores(4))
            .threads(256)
            .on(
                rt,
                Behavior::tier(
                    Dist::lognormal_ms(0.5, 0.3),
                    worker_id,
                    Dist::constant_ms(0),
                ),
            ),
    );
    let worker = world.add_service(
        ServiceSpec::new("worker")
            .cpu(Millicores::from_cores(2))
            .threads(128) // way past the knee for 2 cores
            .csw(0.04)
            .on(rt, Behavior::leaf(Dist::lognormal_ms(4.0, 0.4))),
    );
    let rt = world.add_request_type("GET /", front);
    for svc in [front, worker] {
        let pod = world.add_replica(svc).expect("placement");
        world.make_ready(pod);
    }

    // 2. Attach Sora: the worker's thread pool is the registered knob, the
    //    end-to-end SLA is 50 ms. Sora reads the worker's samplers, so the
    //    worker is declared monitored before the run.
    world.monitor(worker);
    let registry = ResourceRegistry::new().with(
        SoftResource::ThreadPool { service: worker },
        ResourceBounds { min: 2, max: 128 },
    );
    let mut sora = SoraController::sora(
        SoraConfig {
            sla: SimDuration::from_millis(50),
            ..Default::default()
        },
        registry,
        NullController, // no hardware autoscaler in this example
    );

    // 3. Drive ~330 req/s of Poisson-ish load for two minutes, invoking the
    //    controller every 15 s (the Kubernetes control grid).
    let mut rng = SimRng::seed_from(2);
    let mut at_ms = 0u64;
    let mut next_control = 15_000u64;
    while at_ms < 120_000 {
        at_ms += (rng.f64() * 5.0) as u64 + 1;
        world.inject_at(SimTime::from_millis(at_ms), rt);
        if at_ms >= next_control {
            world.run_until(SimTime::from_millis(next_control));
            sora.control(&mut world, SimTime::from_millis(next_control));
            println!(
                "t={:>3}s  worker threads = {:>3}  p95 so far = {:?}",
                next_control / 1000,
                world.thread_limit(worker),
                world.client().percentile(95.0).map(|d| format!("{d}")),
            );
            next_control += 15_000;
        }
    }
    world.run_until(SimTime::from_millis(125_000));

    // 4. Report.
    println!("\ncompleted {} requests", world.client().total());
    println!(
        "final worker thread pool: {} (started at 128)",
        world.thread_limit(worker)
    );
    println!(
        "p99 = {}",
        world
            .client()
            .percentile(99.0)
            .map(|d| format!("{d}"))
            .unwrap_or_default()
    );
    for (t, resource, value) in sora.actions() {
        println!("  sora @ {t}: {resource} -> {value}");
    }
}
