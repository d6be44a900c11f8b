//! Config-driven scenario runner: describe an experiment as JSON and run
//! it without writing Rust.
//!
//! ```bash
//! cargo run --release -p sora-bench --bin run_scenario -- scenario.json
//! cargo run --release -p sora-bench --bin run_scenario -- --print-template
//! ```
//!
//! The JSON schema is [`sora_bench::config::ScenarioSpec`]; results are
//! printed as a summary and archived under `results/scenario_<name>.json`.

use sora_bench::config::{App, Hardware, ScenarioSpec, SoftAdaptation};
use sora_bench::{job, save_json_with_perf, Sweep};
use workload::TraceShape;

fn template() -> ScenarioSpec {
    ScenarioSpec {
        hardware: Hardware::Firm,
        soft: SoftAdaptation::Sora,
        seed: 42,
        cart_threads: Some(5),
        cart_cores: Some(2),
        ..ScenarioSpec::new(App::SockShop, TraceShape::SteepTriPhase, 3_500.0, 720, 400)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--print-template") => {
            println!(
                "{}",
                serde_json::to_string_pretty(&template()).expect("template serialises")
            );
        }
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(2);
            });
            let spec = ScenarioSpec::parse(&text).unwrap_or_else(|e| {
                eprintln!("error: invalid scenario config {path}: {e}");
                std::process::exit(2);
            });
            println!("running: {spec:#?}");
            let run_spec = spec.clone();
            let sweep_outcome =
                Sweep::from_env().run(vec![job("scenario", move || run_spec.run())]);
            let outcome = sweep_outcome
                .results
                .into_iter()
                .next()
                .expect("one scenario run");
            println!(
                "\ncompleted {}  dropped {}  mean {:.1} ms  p95 {:.0} ms  p99 {:.0} ms  \
                 goodput({} ms) {:.0} req/s",
                outcome.summary.completed,
                outcome.summary.dropped,
                outcome.summary.mean_rt_ms,
                outcome.summary.p95_ms,
                outcome.summary.p99_ms,
                spec.sla_ms,
                outcome.summary.goodput_rps,
            );
            let stem = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("scenario");
            save_json_with_perf(
                &format!("scenario_{stem}"),
                &sora_bench::scenario_result_data(&spec, &outcome),
                &sweep_outcome.perf,
            );
        }
        None => {
            eprintln!("usage: run_scenario <config.json> | --print-template");
            std::process::exit(2);
        }
    }
}
