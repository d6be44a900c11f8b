//! Table 3 — average goodput, ConScale vs Sora, six traces × two SLA
//! thresholds (250 ms and 500 ms), both over Kubernetes VPA.
//!
//! The 24 runs (two SLAs × six traces × two adapters) fan out across the
//! [`Sweep`] harness; rows are assembled from index-ordered results so the
//! tables are byte-identical at any job count.

use sim_core::{SimDuration, SimTime};
use sora_bench::{
    job, print_table, save_json_with_perf, trace_secs, App, Hardware, ScenarioSpec, SoftAdaptation,
    Sweep, Table,
};
use workload::TraceShape;

fn run(shape: TraceShape, sla_ms: u64, soft: SoftAdaptation, secs: u64) -> (f64, f64) {
    let spec = ScenarioSpec {
        hardware: Hardware::Vpa,
        soft,
        seed: 42,
        ..ScenarioSpec::new(App::SockShop, shape, 3_500.0, secs, sla_ms)
    };
    let outcome = spec.run();
    let goodput = outcome.world.client().goodput_rate(
        SimTime::ZERO,
        SimTime::from_secs(secs),
        SimDuration::from_millis(sla_ms),
    );
    (goodput, outcome.summary.p99_ms)
}

fn main() {
    let secs = trace_secs();
    let mut jobs = Vec::new();
    for sla_ms in [250u64, 500] {
        for shape in TraceShape::ALL {
            for (kind, soft) in [
                ("conscale", SoftAdaptation::Conscale),
                ("sora", SoftAdaptation::Sora),
            ] {
                jobs.push(job(format!("{kind}/{shape}@{sla_ms}ms"), move || {
                    run(shape, sla_ms, soft, secs)
                }));
            }
        }
    }
    let outcome = Sweep::from_env().run(jobs);

    let mut results = outcome.results.iter();
    let mut rows = Vec::new();
    for sla_ms in [250u64, 500] {
        let mut table = Table::new(vec![
            "trace",
            "ConScale goodput [req/s]",
            "Sora goodput [req/s]",
            "Sora/ConScale",
        ]);
        for shape in TraceShape::ALL {
            let &(con_gp, con_p99) = results.next().expect("conscale result");
            let &(sora_gp, sora_p99) = results.next().expect("sora result");
            table.row(vec![
                shape.to_string(),
                format!("{con_gp:.0}"),
                format!("{sora_gp:.0}"),
                format!("{:.2}x", sora_gp / con_gp.max(1.0)),
            ]);
            rows.push(serde_json::json!({
                "sla_ms": sla_ms,
                "trace": shape.name(),
                "conscale_goodput": con_gp,
                "sora_goodput": sora_gp,
                "conscale_p99_ms": con_p99,
                "sora_p99_ms": sora_p99,
            }));
        }
        print_table(format!("Table 3 — SLA threshold {sla_ms} ms"), &table);
    }
    println!("paper's claim: Sora outperforms ConScale at both SLAs (≈1.1–1.5x goodput)");
    save_json_with_perf(
        "tab03_conscale_vs_sora",
        &serde_json::json!(rows),
        &outcome.perf,
    );
}
