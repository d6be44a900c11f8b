//! Figure 6 — the SCG model's four-phase workflow, walked through verbosely
//! on live data.
//!
//! Not a measurement figure; this binary narrates one control decision the
//! way Fig. 6 diagrams it: ① critical-service localisation, ② RT-threshold
//! propagation, ③ metrics collection, ④ estimation.

use sim_core::{SimDuration, SimTime};
use sora_bench::{job, print_table, App, ScenarioSpec, Sweep, Table};
use sora_core::Monitor;
use telemetry::build_scatter;
use workload::TraceShape;

fn main() {
    let secs = if sora_bench::quick_mode() { 90 } else { 180 };
    let sla = SimDuration::from_millis(400);
    let spec = ScenarioSpec {
        seed: 97,
        cart_threads: Some(40),
        cart_cores: Some(4),
        ..ScenarioSpec::new(
            App::SockShop,
            TraceShape::LargeVariation,
            3_500.0,
            secs,
            sla.as_millis(),
        )
    };
    let outcome = Sweep::from_env().run(vec![job("walkthrough-run", move || spec.run().world)]);
    let mut world = outcome.results.into_iter().next().expect("one run");
    let now = SimTime::from_secs(secs);

    // ① Critical-service localisation.
    let mut monitor = Monitor::new();
    let obs = monitor.observe(&mut world, now);
    let mut t1 = Table::new(vec!["service", "CPU util", "PCC(PT, RT)", "on-path traces"]);
    for idx in 0..world.service_count() {
        let svc = telemetry::ServiceId(idx as u32);
        if obs.path_stats.on_path_count(svc) == 0 {
            continue;
        }
        t1.row(vec![
            world.service_name(svc).to_string(),
            format!("{:.2}", obs.utilization.get(&svc).copied().unwrap_or(0.0)),
            obs.path_stats
                .pcc(svc)
                .map_or("n/a".into(), |r| format!("{r:.3}")),
            obs.path_stats.on_path_count(svc).to_string(),
        ]);
    }
    print_table("Phase ① — critical service localisation", &t1);
    let critical = obs
        .critical_service()
        .expect("a loaded system has a critical service");
    println!("  -> critical service: {}", world.service_name(critical));

    // ② RT-threshold propagation.
    let upstream = obs
        .path_stats
        .mean_upstream_pt(critical)
        .unwrap_or(SimDuration::ZERO);
    let threshold = scg::propagate_deadline(sla, upstream);
    println!(
        "\nPhase ② — deadline propagation: SLA {sla} − upstream PT {upstream} \
         = RTT {threshold} for {}",
        world.service_name(critical)
    );

    // ③ Metrics collection: the <Q, GP> pairs at 100 ms over 60 s.
    let pod = world.ready_replicas(critical)[0];
    let pts = build_scatter(
        world.concurrency_of(pod).expect("monitored Cart"),
        world.completions_of(pod).expect("monitored Cart"),
        now - SimDuration::from_secs(60),
        now,
        SimDuration::from_millis(100),
        threshold,
    );
    let model = scg::ScgModel::default();
    let bins = model.aggregate(&pts);
    println!(
        "\nPhase ③ — metrics collection: {} samples → {} bins",
        pts.len(),
        bins.len()
    );
    let mut t3 = Table::new(vec!["Q", "mean goodput [req/s]"]);
    for &(q, gp) in bins.iter().take(12) {
        t3.row(vec![format!("{q:.0}"), format!("{gp:.0}")]);
    }
    print_table("scatter (first 12 bins)", &t3);

    // ④ Estimation.
    let est = model.estimate(&pts);
    match &est {
        Some(est) => println!(
            "\nPhase ④ — estimation: knee at Q = {} (goodput {:.0} req/s, \
             polynomial degree {}) → recommend a {}-wide pool",
            est.optimal, est.rate_at_optimal, est.degree, est.optimal
        ),
        None => println!(
            "\nPhase ④ — estimation: no trustworthy knee in this window \
             (the framework would explore upward)"
        ),
    }
    sora_bench::save_json_with_perf(
        "fig06_scg_walkthrough",
        &serde_json::json!({
            "critical_service": world.service_name(critical),
            "threshold_ms": threshold.as_millis_f64(),
            "scatter_points": pts.len(),
            "knee": est.map(|e| e.optimal),
        }),
        &outcome.perf,
    );
}
