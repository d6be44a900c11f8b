//! Table 2 — tail response time (p95/p99) and average goodput, FIRM vs
//! FIRM + Sora, under all six real-world bursty workload traces.
//!
//! The twelve runs (six traces × two controller stacks) are independent and
//! fan out across the [`Sweep`] harness; table rows are assembled from the
//! index-ordered results, so the output is byte-identical at any job count.

use sora_bench::{
    job, print_table, save_json_with_perf, trace_secs, App, Hardware, ScenarioSpec, SoftAdaptation,
    Sweep, Table,
};
use workload::TraceShape;

fn main() {
    let secs = trace_secs();
    let mut jobs = Vec::new();
    for shape in TraceShape::ALL {
        for (name, soft) in [
            ("firm", SoftAdaptation::None),
            ("sora", SoftAdaptation::Sora),
        ] {
            let spec = ScenarioSpec {
                hardware: Hardware::Firm,
                soft,
                seed: 42,
                ..ScenarioSpec::new(App::SockShop, shape, 3_500.0, secs, 400)
            };
            jobs.push(job(format!("{name}/{shape}"), move || spec.run().summary));
        }
    }
    let outcome = Sweep::from_env().run(jobs);

    let mut table = Table::new(vec![
        "trace",
        "p95 FIRM/Sora [ms]",
        "p99 FIRM/Sora [ms]",
        "goodput-400ms FIRM/Sora [req/s]",
    ]);
    let mut rows = Vec::new();
    let mut p99_ratios = Vec::new();
    for (shape, pair) in TraceShape::ALL.into_iter().zip(outcome.results.chunks(2)) {
        let (firm, sora) = (&pair[0], &pair[1]);
        table.row(vec![
            shape.to_string(),
            format!("{:.0} / {:.0}", firm.p95_ms, sora.p95_ms),
            format!("{:.0} / {:.0}", firm.p99_ms, sora.p99_ms),
            format!("{:.0} / {:.0}", firm.goodput_rps, sora.goodput_rps),
        ]);
        p99_ratios.push(firm.p99_ms / sora.p99_ms.max(1.0));
        rows.push(serde_json::json!({
            "trace": shape.name(),
            "firm": firm,
            "sora": sora,
        }));
    }
    print_table("Table 2 — FIRM vs FIRM+Sora, six bursty traces", &table);
    let avg: f64 = p99_ratios.iter().sum::<f64>() / p99_ratios.len() as f64;
    let max = p99_ratios.iter().copied().fold(0.0f64, f64::max);
    println!("p99 reduction: mean {avg:.2}x, max {max:.2}x (paper: ~2.2x mean, up to 2.5x)");
    save_json_with_perf(
        "tab02_firm_vs_sora",
        &serde_json::json!(rows),
        &outcome.perf,
    );
}
