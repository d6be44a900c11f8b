//! Figure 7 — concurrency–goodput scatter of the Cart at 100 ms
//! granularity over a 3-minute bursty run, under a 5 ms vs a 50 ms
//! response-time threshold: the knee moves with the threshold.

use sim_core::{SimDuration, SimTime};
use sora_bench::{job, print_table, save_json_with_perf, App, ScenarioSpec, Sweep, Table};
use telemetry::build_scatter;
use workload::TraceShape;

fn main() {
    let secs = if sora_bench::quick_mode() { 90 } else { 180 };
    let spec = ScenarioSpec {
        seed: 23,
        cart_threads: Some(30),
        cart_cores: Some(4),
        ..ScenarioSpec::new(
            App::SockShop,
            TraceShape::LargeVariation,
            2_600.0,
            secs,
            250,
        )
    };
    let outcome = Sweep::from_env().run(vec![job("scatter-run", move || spec.run().world)]);
    let world = outcome.results.into_iter().next().expect("one run");

    let cart = telemetry::ServiceId(1);
    let pod = world.ready_replicas(cart)[0];
    let conc = world.concurrency_of(pod).expect("cart replica");
    let comp = world.completions_of(pod).expect("cart replica");
    let from = SimTime::from_secs(secs.saturating_sub(180));
    let to = SimTime::from_secs(secs);
    let model = scg::ScgModel::default();

    let mut json = serde_json::Map::new();
    for thr_ms in [5u64, 50] {
        let pts = build_scatter(
            conc,
            comp,
            from,
            to,
            SimDuration::from_millis(100),
            SimDuration::from_millis(thr_ms),
        );
        let bins = model.aggregate(&pts);
        let mut table = Table::new(vec!["concurrency Q", "mean goodput [req/s]"]);
        for &(q, gp) in &bins {
            table.row(vec![format!("{q:.0}"), format!("{gp:.0}")]);
        }
        print_table(
            format!("Fig. 7 — scatter with {thr_ms} ms threshold"),
            &table,
        );
        match model.estimate(&pts) {
            Some(est) => println!(
                "  knee: Q = {} (goodput {:.0} req/s, degree {})",
                est.optimal, est.rate_at_optimal, est.degree
            ),
            None => println!("  knee: none detected (insufficient saturation)"),
        }
        json.insert(
            format!("threshold_{thr_ms}ms"),
            serde_json::json!({
                "bins": bins,
                "points": pts.len(),
                "knee": model.estimate(&pts).map(|e| e.optimal),
            }),
        );
    }
    println!(
        "paper's claim: the 5 ms and 50 ms thresholds yield different knees\n\
         (goodput measurement is highly sensitive to the threshold)"
    );
    save_json_with_perf(
        "fig07_scatter_thresholds",
        &serde_json::Value::Object(json),
        &outcome.perf,
    );
}
