//! Figure 11 — ConScale vs Sora under the "Large Variation" trace, both on
//! top of a threshold-based vertical scaler (Kubernetes VPA).
//!
//! ConScale's SCT model is throughput-centric: it keeps allocating threads
//! while raw throughput improves, over-allocating past the goodput knee;
//! Sora's deadline-aware SCG model stops at the knee (the paper's 40 vs 30
//! threads after the Cart scales to 4 cores).

use sora_bench::{
    job, print_table, save_json_with_perf, trace_secs, App, Hardware, ScenarioSpec, SoftAdaptation,
    Sweep, Table,
};
use workload::TraceShape;

fn main() {
    let arm = |soft| ScenarioSpec {
        hardware: Hardware::Vpa,
        soft,
        seed: 42,
        ..ScenarioSpec::new(
            App::SockShop,
            TraceShape::LargeVariation,
            3_500.0,
            trace_secs(),
            400,
        )
    };
    let (conscale, sora) = (arm(SoftAdaptation::Conscale), arm(SoftAdaptation::Sora));
    let outcome = Sweep::from_env().run(vec![
        job("conscale", move || conscale.run().result),
        job("sora", move || sora.run().result),
    ]);
    let mut results = outcome.results.into_iter();
    let con_res = results.next().expect("conscale run");
    let sora_res = results.next().expect("sora run");

    let mut table = Table::new(vec!["metric", "ConScale (SCT)", "Sora (SCG)"]);
    table.row(vec![
        "p95 [ms]".into(),
        format!("{:.0}", con_res.summary.p95_ms),
        format!("{:.0}", sora_res.summary.p95_ms),
    ]);
    table.row(vec![
        "p99 [ms]".into(),
        format!("{:.0}", con_res.summary.p99_ms),
        format!("{:.0}", sora_res.summary.p99_ms),
    ]);
    table.row(vec![
        "goodput-400ms [req/s]".into(),
        format!("{:.0}", con_res.summary.goodput_rps),
        format!("{:.0}", sora_res.summary.goodput_rps),
    ]);
    let peak = |r: &apps::RunResult| r.timeline.iter().map(|x| x.thread_limit).max().unwrap_or(0);
    table.row(vec![
        "peak thread allocation".into(),
        format!("{}", peak(&con_res)),
        format!("{}", peak(&sora_res)),
    ]);
    print_table(
        "Fig. 11 — ConScale vs Sora (Large Variation, VPA base)",
        &table,
    );
    println!("paper's claim: SCT over-allocates (40 threads) vs SCG (30); goodput Sora > ConScale");

    save_json_with_perf(
        "fig11_conscale_vs_sora",
        &serde_json::json!({
            "conscale": {
                "timeline": con_res.timeline,
                "rt": con_res.rt_timeline,
                "goodput": con_res.goodput_timeline,
                "summary": con_res.summary,
            },
            "sora": {
                "timeline": sora_res.timeline,
                "rt": sora_res.rt_timeline,
                "goodput": sora_res.goodput_timeline,
                "summary": sora_res.summary,
            },
        }),
        &outcome.perf,
    );
}
