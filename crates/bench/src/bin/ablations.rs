//! Ablations beyond the paper's tables (DESIGN.md §6): what each design
//! choice of the SCG/Sora stack contributes.
//!
//! 1. goodput (SCG) vs throughput (SCT) knee on the same recorded scatter;
//! 2. deadline propagation on/off;
//! 3. Kneedle polynomial degree sweep (the §3.3 sensitivity analysis);
//! 4. scatter window length sweep.

use autoscalers::FirmController;
use scg::{sensitivity::degree_sweep, ScgModel};
use sim_core::{SimDuration, SimTime};
use sora_bench::{
    job, print_table, save_json_with_perf, App, BuiltScenario, PerfMetrics, ScenarioSpec, Sweep,
    Table,
};
use sora_core::{ResourceBounds, ResourceRegistry, SoftResource, SoraConfig, SoraController};
use telemetry::{build_scatter, build_scatter_throughput, ServiceId};
use workload::TraceShape;

const CART: ServiceId = ServiceId(1);

fn main() {
    let quick = sora_bench::quick_mode();
    let secs = if quick { 180 } else { 360 };
    let mut json = serde_json::Map::new();

    // Record one bursty run with a generous pool for the offline ablations.
    let recorded = ScenarioSpec {
        seed: 71,
        cart_threads: Some(60),
        cart_cores: Some(4),
        ..ScenarioSpec::new(
            App::SockShop,
            TraceShape::LargeVariation,
            2_600.0,
            secs,
            250,
        )
    };
    let sweep = Sweep::from_env();
    let record_outcome = sweep.run(vec![job("recorded-run", move || recorded.run().world)]);
    let world = record_outcome.results.into_iter().next().expect("one run");
    let pod = world.ready_replicas(CART)[0];
    let conc = world.concurrency_of(pod).expect("pod");
    let comp = world.completions_of(pod).expect("pod");
    let from = SimTime::from_secs(secs.saturating_sub(180));
    let to = SimTime::from_secs(secs);
    let interval = SimDuration::from_millis(100);

    // --- 1. SCG vs SCT on identical data -------------------------------
    let model = ScgModel::default();
    let tight = SimDuration::from_millis(20);
    let scg_pts = build_scatter(conc, comp, from, to, interval, tight);
    let sct_pts = build_scatter_throughput(conc, comp, from, to, interval);
    let scg_knee = model.estimate(&scg_pts).map(|e| e.optimal);
    let sct_knee = model.estimate(&sct_pts).map(|e| e.optimal);
    let mut t1 = Table::new(vec!["model", "knee"]);
    t1.row(vec!["SCG (goodput, 20 ms)".into(), format!("{scg_knee:?}")]);
    t1.row(vec!["SCT (throughput)".into(), format!("{sct_knee:?}")]);
    print_table("Ablation 1 — SCG vs SCT knee on the same window", &t1);
    println!("expected: SCT knee ≥ SCG knee (latency-blind over-allocation)");
    json.insert(
        "scg_vs_sct".into(),
        serde_json::json!({"scg": scg_knee, "sct": sct_knee}),
    );

    // --- 2. deadline propagation on/off (closed loop) -------------------
    // `SoraConfig::deadline_propagation` is not a spec field, so both arms
    // run their own FIRM + Sora stack on the spec's world and workload.
    let firm = || FirmController::new(vec![CART]);
    let registry = || {
        ResourceRegistry::new().with(
            SoftResource::ThreadPool { service: CART },
            ResourceBounds { min: 5, max: 200 },
        )
    };
    let run_with = move |propagate: bool| {
        let cfg = SoraConfig {
            sla: SimDuration::from_millis(400),
            deadline_propagation: propagate,
            ..Default::default()
        };
        let mut sora = SoraController::sora(cfg, registry(), firm());
        let spec = ScenarioSpec {
            seed: 42,
            ..ScenarioSpec::new(App::SockShop, TraceShape::SteepTriPhase, 3_500.0, secs, 400)
        };
        let BuiltScenario {
            mut world,
            scenario,
            ..
        } = spec.build();
        scenario.run(&mut world, &mut sora).summary
    };
    let dp_outcome = sweep.run(vec![
        job("deadline-propagation-on", move || run_with(true)),
        job("deadline-propagation-off", move || run_with(false)),
    ]);
    let (with_dp, without_dp) = (dp_outcome.results[0], dp_outcome.results[1]);
    let mut t2 = Table::new(vec!["variant", "p99 [ms]", "goodput [req/s]"]);
    t2.row(vec![
        "deadline propagation ON".into(),
        format!("{:.0}", with_dp.p99_ms),
        format!("{:.0}", with_dp.goodput_rps),
    ]);
    t2.row(vec![
        "deadline propagation OFF".into(),
        format!("{:.0}", without_dp.p99_ms),
        format!("{:.0}", without_dp.goodput_rps),
    ]);
    print_table("Ablation 2 — deadline propagation", &t2);
    json.insert(
        "deadline_propagation".into(),
        serde_json::json!({
            "on": with_dp, "off": without_dp,
        }),
    );

    // --- 3. polynomial degree sweep -------------------------------------
    let mut t3 = Table::new(vec!["degree", "knee", "fit RMSE / range"]);
    for row in degree_sweep(&scg_pts, &[2, 3, 5, 6, 8, 10, 12]) {
        t3.row(vec![
            row.degree.to_string(),
            format!("{:?}", row.knee),
            row.relative_rmse
                .map_or("fit failed".into(), |r| format!("{r:.3}")),
        ]);
    }
    print_table("Ablation 3 — Kneedle polynomial degree (§3.3)", &t3);
    println!("expected: very low degrees underfit (missing/shifted knee), 5–8 stable,");
    println!("          very high degrees chase noise");

    // --- 4. window length sweep ------------------------------------------
    let mut t4 = Table::new(vec!["window [s]", "knee"]);
    for win in [15u64, 30, 60, 120, 180] {
        let f = SimTime::from_secs(secs.saturating_sub(win));
        let pts = build_scatter(conc, comp, f, to, interval, tight);
        let knee = model.estimate(&pts).map(|e| e.optimal);
        t4.row(vec![win.to_string(), format!("{knee:?}")]);
    }
    print_table("Ablation 4 — scatter window length", &t4);
    println!("expected: very short windows lack concurrency coverage (no knee);");
    println!("          60 s+ converges — the paper's 60 s window choice (§4.1)");

    save_json_with_perf(
        "ablations",
        &serde_json::Value::Object(json),
        &PerfMetrics::merged(&[record_outcome.perf, dp_outcome.perf]),
    );
}
