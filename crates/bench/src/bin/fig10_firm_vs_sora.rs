//! Figure 10 — FIRM vs FIRM + Sora under the "Steep Tri Phase" trace.
//!
//! The Cart starts at 2 cores with the 5-thread pool that is optimal for
//! that limit. FIRM scales the CPU up during the surges but never touches
//! the pool, so the new cores cannot be fed (the paper's "CPU utilisation
//! stuck at ~310 % of 400 %"); Sora re-adapts the pool after each hardware
//! change. Prints the timeline panels (response time, goodput, CPU
//! util/limit, running threads) and the summary.

use sora_bench::{
    job, print_table, save_json_with_perf, trace_secs, App, Hardware, ScenarioSpec, SoftAdaptation,
    Sweep, Table,
};
use workload::TraceShape;

fn print_timeline(name: &str, result: &apps::RunResult) {
    let mut table = Table::new(vec![
        "t [s]",
        "RT [ms]",
        "goodput [req/s]",
        "CPU util [%]",
        "CPU limit [%]",
        "threads",
    ]);
    // One row per 30 s keeps the console output readable; the JSON carries
    // the full 1 s resolution.
    for row in result.timeline.iter().step_by(30) {
        let t = row.t_secs as usize;
        let rt = result
            .rt_timeline
            .get(t.saturating_sub(1))
            .map_or(0.0, |&(_, v)| v);
        let gp = result
            .goodput_timeline
            .get(t.saturating_sub(1))
            .map_or(0.0, |&(_, v)| v);
        table.row(vec![
            format!("{t}"),
            format!("{rt:.0}"),
            format!("{gp:.0}"),
            format!("{:.0}", row.utilization * row.cpu_limit_mc as f64 / 10.0),
            format!("{:.0}", row.cpu_limit_mc / 10),
            format!("{}", row.running_threads),
        ]);
    }
    print_table(format!("Fig. 10 timeline — {name}"), &table);
    println!(
        "summary: p95 {:.0} ms, p99 {:.0} ms, goodput(400ms) {:.0} req/s, completed {}, dropped {}",
        result.summary.p95_ms,
        result.summary.p99_ms,
        result.summary.goodput_rps,
        result.summary.completed,
        result.summary.dropped
    );
}

fn main() {
    // `scenarios/fig10_sora.json` is the Sora arm at full length.
    let arm = |soft| ScenarioSpec {
        hardware: Hardware::Firm,
        soft,
        seed: 42,
        ..ScenarioSpec::new(
            App::SockShop,
            TraceShape::SteepTriPhase,
            3_500.0,
            trace_secs(),
            400,
        )
    };
    let (firm, sora) = (arm(SoftAdaptation::None), arm(SoftAdaptation::Sora));
    let outcome = Sweep::from_env().run(vec![
        job("firm-only", move || firm.run().result),
        job("firm+sora", move || sora.run().result),
    ]);
    let mut results = outcome.results.into_iter();
    let firm_result = results.next().expect("firm run");
    let sora_result = results.next().expect("sora run");
    print_timeline("FIRM", &firm_result);
    print_timeline("FIRM + Sora", &sora_result);

    // The paper's headline: Sora stabilises the fluctuation and cuts tail
    // latency (2.2× on average across traces).
    println!("\n== Fig. 10 verdict ==");
    println!(
        "p99: FIRM {:.0} ms vs Sora {:.0} ms ({:.2}x)",
        firm_result.summary.p99_ms,
        sora_result.summary.p99_ms,
        firm_result.summary.p99_ms / sora_result.summary.p99_ms.max(1.0)
    );
    println!(
        "goodput: FIRM {:.0} vs Sora {:.0} req/s",
        firm_result.summary.goodput_rps, sora_result.summary.goodput_rps
    );
    let peak_threads_firm = firm_result
        .timeline
        .iter()
        .map(|r| r.thread_limit)
        .max()
        .unwrap_or(0);
    let peak_threads_sora = sora_result
        .timeline
        .iter()
        .map(|r| r.thread_limit)
        .max()
        .unwrap_or(0);
    println!("thread limit: FIRM stays at {peak_threads_firm}, Sora reaches {peak_threads_sora}");

    save_json_with_perf(
        "fig10_firm_vs_sora",
        &serde_json::json!({
            "firm": {
                "timeline": firm_result.timeline,
                "rt": firm_result.rt_timeline,
                "goodput": firm_result.goodput_timeline,
                "summary": firm_result.summary,
            },
            "sora": {
                "timeline": sora_result.timeline,
                "rt": sora_result.rt_timeline,
                "goodput": sora_result.goodput_timeline,
                "summary": sora_result.summary,
            },
        }),
        &outcome.perf,
    );
}
