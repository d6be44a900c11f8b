//! The ledger binary end to end on `--smoke` inputs: every workload's
//! correctness gate, and the metric names against `BENCHMARK.json`.

use serde_json::Value;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

/// One `ledger --workload` run: its digest line and parsed result line.
struct Run {
    digest: String,
    result: Value,
}

fn ledger(workload: &str, trace: bool, out: &str) -> Run {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    let output = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", workload, "--smoke", "--seed", "3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("ledger runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let digest = stdout
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{workload} sim_digest ")))
        .expect("a sim_digest line")
        .to_string();
    let last = stdout.lines().last().expect("a result line");
    Run {
        digest,
        result: serde_json::parse(last).expect("the last line is JSON"),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.get(key))
        .unwrap_or_else(|| panic!("no `{key}` in {v:?}"))
}

/// `(name, unit)` of every metric in a result line.
fn emitted(result: &Value) -> BTreeSet<(String, String)> {
    let Value::Object(metrics) = field(result, "metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let unit = field(m, "unit").as_str().expect("unit is a string");
            assert!(field(m, "value").as_f64().is_some(), "{name} has no value");
            (name.clone(), unit.to_string())
        })
        .collect()
}

#[test]
fn smoke_pass_meets_the_correctness_gate() {
    for w in &sora_ledger::workloads::WORKLOADS {
        let plain = ledger(w.name, false, "gate");
        let traced = ledger(w.name, true, "gate");
        for run in [&plain, &traced] {
            assert_eq!(field(&run.result, "correct").as_bool(), Some(true));
            assert_eq!(field(&run.result, "failed").as_u64(), Some(0));
            assert!(field(&run.result, "attempted").as_u64().unwrap() >= 1);
        }
        assert_eq!(
            plain.digest, traced.digest,
            "{}: traced and untraced passes rendered different bytes",
            w.name
        );
    }
}

#[test]
fn emitted_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let bench = serde_json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let declared = |key: &str| -> BTreeSet<(String, String)> {
        field(&bench, key)
            .as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let s = |k| field(m, k).as_str().expect("a string").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    };
    let valid = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want = declared(key);
        assert!(want.iter().all(|(n, _)| valid(n)), "{key}: bad name");
        // The single-scenario path and the farm path build their metric
        // lists separately; both must emit exactly the declared set.
        for workload in ["flagship", "paper-farm"] {
            let got = emitted(&ledger(workload, trace, "schema").result);
            assert!(got.iter().all(|(n, _)| valid(n)), "{workload}: bad name");
            assert_eq!(got, want, "{workload} {key}: emitted != declared");
        }
    }
}
