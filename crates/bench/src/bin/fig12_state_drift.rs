//! Figure 12 — Kubernetes HPA vs HPA + Sora under "Large Variation" with a
//! request-type change (system-state drift) at 451 s.
//!
//! Post Storage scales horizontally under HPA; the Home-Timeline →
//! Post Storage client pool stays static in the HPA-only case, becoming the
//! bottleneck once heavy requests hold each connection longer. Sora
//! re-estimates the per-replica optimum and sizes the pool as
//! optimum × replicas (the paper's "120 connections for 4 replicas").

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
        "PS util [%]",
        "PS replicas",
        "conns in use",
        "conns established",
    ]);
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
            format!("{:.0}", row.utilization * 100.0),
            format!("{}", row.replicas),
            format!("{}", row.conns_in_use),
            format!("{}", row.conns_established),
        ]);
    }
    print_table(format!("Fig. 12 timeline — {name}"), &table);
    println!(
        "summary: p95 {:.0} ms, p99 {:.0} ms, goodput(400ms) {:.0} req/s, dropped {}",
        result.summary.p95_ms,
        result.summary.p99_ms,
        result.summary.goodput_rps,
        result.summary.dropped
    );
}

fn main() {
    let secs = trace_secs();
    // `scenarios/drift_hpa_only.json` is the HPA arm at full length.
    let arm = |soft| ScenarioSpec {
        hardware: Hardware::Hpa,
        soft,
        seed: 77,
        drift_at_secs: Some(secs * 451 / 720), // scale the paper's 451 s mark
        ..ScenarioSpec::new(
            App::SocialNetwork,
            TraceShape::LargeVariation,
            4_500.0,
            secs,
            400,
        )
    };
    let (hpa, sora) = (arm(SoftAdaptation::None), arm(SoftAdaptation::Sora));
    let outcome = Sweep::from_env().run(vec![
        job("hpa-only", move || hpa.run().result),
        job("hpa+sora", move || sora.run().result),
    ]);
    let mut results = outcome.results.into_iter();
    let hpa_res = results.next().expect("hpa run");
    let sora_res = results.next().expect("sora run");
    print_timeline("Kubernetes HPA (static connections)", &hpa_res);
    print_timeline("HPA + Sora (adaptive connections)", &sora_res);

    println!("\n== Fig. 12 verdict ==");
    println!(
        "p99: HPA {:.0} ms vs Sora {:.0} ms ({:.2}x)",
        hpa_res.summary.p99_ms,
        sora_res.summary.p99_ms,
        hpa_res.summary.p99_ms / sora_res.summary.p99_ms.max(1.0)
    );
    println!(
        "goodput: HPA {:.0} vs Sora {:.0} req/s",
        hpa_res.summary.goodput_rps, sora_res.summary.goodput_rps
    );
    let final_conns = |r: &apps::RunResult| r.timeline.last().map_or(0, |x| x.conns_established);
    println!(
        "established connections at end: HPA {} (static) vs Sora {} (scaled with replicas)",
        final_conns(&hpa_res),
        final_conns(&sora_res)
    );

    save_json_with_perf(
        "fig12_state_drift",
        &serde_json::json!({
            "hpa": {
                "timeline": hpa_res.timeline,
                "rt": hpa_res.rt_timeline,
                "goodput": hpa_res.goodput_timeline,
                "summary": hpa_res.summary,
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
