//! `ledger compare PARENT_DIR CHANGE_DIR`: the paired comparison a change
//! claiming a gain (or claiming no regression) must pass.
//!
//! Each directory holds the untraced records of one side, written by runs
//! that alternated between the two builds. The i-th record of a workload on
//! one side is paired with the i-th on the other, in file-name (that is,
//! time) order. Per workload and end-to-end metric the verdict is:
//!
//! - `unresolved` when the parent's own quartile spread exceeds the bound,
//!   unless every change run reads better than every parent run;
//! - `improved` when the change wins at least nine tenths of the pairs
//!   (ties count for neither side) and the medians differ by more than the
//!   parent's quartile spread;
//! - `worse` when the change's median is worse than the parent's by more
//!   than the bound;
//! - `no change` otherwise.

use crate::stats::{median, quartiles};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughputs).
    Higher,
}

/// The outcome for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better beyond the parent's noise.
    Improved,
    /// No difference the runs can resolve within the bound.
    NoChange,
    /// The change is worse than the parent by more than the bound.
    Worse,
    /// The parent's own spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The printed spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no change",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Medians, quartiles, win share and verdict of one comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Parent (median, first quartile, third quartile).
    pub parent: (f64, f64, f64),
    /// Change (median, first quartile, third quartile).
    pub change: (f64, f64, f64),
    /// Share of pairs the change wins; ties count for neither side.
    pub win_share: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares paired samples of one metric against its bound, a fraction of
/// the parent's median.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let summary = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        (median(v), q1, q3)
    };
    let (p, c) = (summary(parent), summary(change));
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|&(&p, &c)| beats(c, p))
        .count();
    let win_share = wins as f64 / pairs.max(1) as f64;
    let spread = p.2 - p.1;
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| beats(c, p)));
    // Positive when the change is better, as a share of the parent median.
    let gain = match better {
        Better::Lower => p.0 - c.0,
        Better::Higher => c.0 - p.0,
    } / p.0.abs().max(f64::MIN_POSITIVE);
    let verdict = if spread > bound * p.0.abs() && !all_better {
        Verdict::Unresolved
    } else if win_share >= 0.9 && gain > 0.0 && (c.0 - p.0).abs() > spread {
        Verdict::Improved
    } else if gain < -bound {
        Verdict::Worse
    } else {
        Verdict::NoChange
    };
    Comparison {
        parent: p,
        change: c,
        win_share,
        verdict,
    }
}

/// One side's untraced records of one workload, in file-name order.
#[derive(Debug, Default)]
struct Side {
    metrics: Vec<BTreeMap<String, f64>>,
    digests: Vec<(Option<u64>, String)>,
    attempted: u64,
    failed: u64,
}

fn load(dir: &Path) -> Result<BTreeMap<String, Side>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("reading {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut sides: BTreeMap<String, Side> = BTreeMap::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = serde_json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let Some(o) = v.as_object() else { continue };
        let (Some(workload), Some(Value::Object(metrics))) =
            (o.get("workload").and_then(Value::as_str), o.get("metrics"))
        else {
            continue;
        };
        if o.get("trace").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let side = sides.entry(workload.to_string()).or_default();
        side.metrics.push(
            metrics
                .iter()
                .filter_map(|(k, m)| {
                    let value = m.as_object()?.get("value")?.as_f64()?;
                    Some((k.clone(), value))
                })
                .collect(),
        );
        side.digests.push((
            o.get("seed").and_then(Value::as_u64),
            o.get("sim_digest")
                .and_then(Value::as_str)
                .unwrap_or("-")
                .to_string(),
        ));
        side.attempted += o.get("attempted").and_then(Value::as_u64).unwrap_or(0);
        side.failed += o.get("failed").and_then(Value::as_u64).unwrap_or(0);
    }
    Ok(sides)
}

/// `same` when every seed both sides ran rendered identical bytes on both,
/// `differ` when one did not, `n/a` when the sides share no seed.
fn digest_column(parent: &Side, change: &Side) -> &'static str {
    let mut shared = false;
    for (seed, d) in &parent.digests {
        for (seed2, d2) in &change.digests {
            if seed == seed2 {
                shared = true;
                if d != d2 {
                    return "differ";
                }
            }
        }
    }
    if shared {
        "same"
    } else {
        "n/a"
    }
}

/// Compares two directories of records against the end-to-end metrics and
/// bounds declared in `benchmark` (a `BENCHMARK.json`). Returns the report
/// and whether any verdict is `worse` or any digest differs.
pub fn compare_dirs(
    parent: &Path,
    change: &Path,
    benchmark: &Path,
) -> Result<(String, bool), String> {
    let text = std::fs::read_to_string(benchmark)
        .map_err(|e| format!("reading {}: {e}", benchmark.display()))?;
    let bench = serde_json::parse(&text).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let metrics: Vec<(String, Better, f64)> = bench
        .as_object()
        .and_then(|o| o.get("end_to_end"))
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .filter_map(|m| {
            let m = m.as_object()?;
            let better = match m.get("better")?.as_str()? {
                "lower" => Better::Lower,
                _ => Better::Higher,
            };
            Some((
                m.get("name")?.as_str()?.to_string(),
                better,
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let (ps, cs) = (load(parent)?, load(change)?);
    let mut out = String::from(
        "workload metric | parent median [q1 q3] | change median [q1 q3] | pairs wins | verdict | digests | failed parent/change\n",
    );
    let mut bad = false;
    for (workload, p) in &ps {
        let Some(c) = cs.get(workload) else {
            out.push_str(&format!("{workload}: no change records\n"));
            continue;
        };
        let digests = digest_column(p, c);
        bad |= digests == "differ";
        let share = |s: &Side| s.failed as f64 / s.attempted.max(1) as f64;
        for (name, better, bound) in &metrics {
            let values = |s: &Side| -> Vec<f64> {
                s.metrics
                    .iter()
                    .filter_map(|m| m.get(name).copied())
                    .collect()
            };
            let (pv, cv) = (values(p), values(c));
            let r = compare(&pv, &cv, *better, *bound);
            bad |= r.verdict == Verdict::Worse;
            out.push_str(&format!(
                "{workload} {name} | {:.6} [{:.6} {:.6}] | {:.6} [{:.6} {:.6}] | {} {:.0}% | {} | {digests} | {:.4}/{:.4}\n",
                r.parent.0,
                r.parent.1,
                r.parent.2,
                r.change.0,
                r.change.1,
                r.change.2,
                pv.len().min(cv.len()),
                r.win_share * 100.0,
                r.verdict.as_str(),
                share(p),
                share(c),
            ));
        }
    }
    Ok((out, bad))
}
