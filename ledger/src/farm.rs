//! Tab. 2's matrix through the service plane: `sora_server::run_farm` over
//! worker processes (this binary re-executed as `ledger worker`), with a
//! fresh cache for the cold sweep and warm re-sweeps that only parse,
//! derive canon keys and triage against the cache.

use crate::trace::{Layers, Tracer};
use crate::{fnv64, FARM_WORKERS};
use sora_server::{
    cache_key, run_farm, EntryStatus, FarmConfig, FarmOutcome, ResultCache, ScenarioSpec,
};
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::time::Instant;

/// Warm re-sweeps after each cold sweep; their median is the set-up time.
pub const WARM_REPS: usize = 5;

/// One cold sweep and its warm re-sweeps.
pub struct Sweep {
    /// Cached result texts, in submission order.
    pub texts: Vec<String>,
    /// Cold-sweep wall seconds.
    pub cold_s: f64,
    /// Wall seconds of each warm re-sweep.
    pub warm_s: Vec<f64>,
    /// Peak RSS of the worker processes, MiB, as they reported it.
    pub worker_rss_mib: f64,
}

impl Sweep {
    /// Digest over every result text, in order.
    pub fn digest(&self) -> u64 {
        fnv64(self.texts.join("\n").as_bytes())
    }

    /// Total completions and mean goodput over the cached results.
    pub fn totals(&self) -> Result<(u64, f64), String> {
        let mut completed = 0;
        let mut goodput = 0.0;
        for text in &self.texts {
            let v = serde_json::parse(text).map_err(|e| format!("cached result: {e}"))?;
            let summary = v
                .as_object()
                .and_then(|o| o.get("summary"))
                .and_then(|s| s.as_object())
                .ok_or("cached result has no summary")?;
            let field = |k: &str| summary.get(k).and_then(|x| x.as_f64());
            completed += field("completed").ok_or("summary has no completed")? as u64;
            goodput += field("goodput_rps").ok_or("summary has no goodput_rps")?;
        }
        Ok((completed, goodput / self.texts.len().max(1) as f64))
    }
}

/// `(label, text)` pairs as `run_farm` takes them.
pub fn scenarios(specs: &[ScenarioSpec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|s| (format!("{:?}-{:?}", s.trace, s.soft), s.emit()))
        .collect()
}

/// Runs a cold sweep into a fresh cache under `root`, then [`WARM_REPS`]
/// warm re-sweeps, checking that the first computes everything and the
/// others hit the cache for everything. Spans go to `tracer` when given.
pub fn sweep(
    scenarios: &[(String, String)],
    root: &Path,
    mut tracer: Option<(&mut Tracer, usize)>,
) -> Result<Sweep, String> {
    let dir = root.join(format!("farm-cache-{}", std::process::id()));
    let rss_dir = root.join(format!("farm-rss-{}", std::process::id()));
    for d in [&dir, &rss_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    let cache = ResultCache::open(&dir).map_err(|e| format!("opening farm cache: {e}"))?;
    std::fs::create_dir_all(&rss_dir).map_err(|e| format!("creating {rss_dir:?}: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("locating the ledger binary: {e}"))?;
    let cfg = FarmConfig {
        workers: FARM_WORKERS,
        cache,
        worker_cmd: [exe.as_path(), Path::new("worker"), &rss_dir]
            .map(|p| p.to_string_lossy().into_owned())
            .to_vec(),
    };
    let stop = AtomicBool::new(false);
    let total = scenarios.len();
    let mut timed = |name: &'static str| -> Result<(FarmOutcome, f64), String> {
        let span = tracer
            .as_mut()
            .map(|(t, parent)| t.open(name, Some(*parent)));
        let start = Instant::now();
        let outcome = run_farm(scenarios.to_vec(), &cfg, &stop).map_err(|e| e.to_string())?;
        let secs = start.elapsed().as_secs_f64();
        if let (Some((t, _)), Some(id)) = (tracer.as_mut(), span) {
            t.close(id);
        }
        if let Some(e) = outcome
            .entries
            .iter()
            .find(|e| matches!(e.status, EntryStatus::Failed(_)))
        {
            return Err(format!("farm entry {} failed: {:?}", e.label, e.status));
        }
        Ok((outcome, secs))
    };
    let (cold, cold_s) = timed("sweep_cold")?;
    if cold.completed != total || cold.cache_hits != 0 {
        return Err(format!(
            "cold sweep: {} of {total} completed, {} cache hits (want all computed)",
            cold.completed, cold.cache_hits
        ));
    }
    let mut warm_s = Vec::with_capacity(WARM_REPS);
    for _ in 0..WARM_REPS {
        let (warm, secs) = timed("sweep_warm")?;
        if warm.cache_hits != total {
            return Err(format!(
                "warm sweep hit the cache {} of {total} times",
                warm.cache_hits
            ));
        }
        warm_s.push(secs);
    }
    let texts = cold
        .entries
        .iter()
        .map(|e| {
            cfg.cache
                .lookup(&e.key)
                .ok_or_else(|| format!("no cached result for {}", e.label))
        })
        .collect::<Result<Vec<_>, _>>()?;
    // Workers write their peak RSS as they exit, before run_farm reaps them.
    let worker_rss_mib = std::fs::read_dir(&rss_dir)
        .map_err(|e| format!("reading {rss_dir:?}: {e}"))?
        .flatten()
        .filter_map(|e| {
            std::fs::read_to_string(e.path())
                .ok()?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .fold(0.0, f64::max);
    for d in [&dir, &rss_dir] {
        let _ = std::fs::remove_dir_all(d);
    }
    Ok(Sweep {
        texts,
        cold_s,
        warm_s,
        worker_rss_mib,
    })
}

/// The traced farm iteration: a timed sweep, canon-key timings, then every
/// scenario traced in-process and checked against its cached bytes.
pub fn traced(
    specs: &[ScenarioSpec],
    root: &Path,
    layers: &mut Layers,
    tracer: &mut Tracer,
) -> Result<Sweep, String> {
    let top = tracer.open("farm", None);
    let pairs = scenarios(specs);
    let sweep = sweep(&pairs, root, Some((tracer, top)))?;
    layers.farm_cold_s = sweep.cold_s;
    layers.farm_warm_s = sweep.warm_s.clone();
    for spec in specs {
        let start = Instant::now();
        std::hint::black_box(cache_key(spec));
        layers
            .canon_key_us
            .push(start.elapsed().as_secs_f64() * 1e6);
    }
    for ((label, text), cached) in pairs.iter().zip(&sweep.texts) {
        layers.result_kib.push(cached.len() as f64 / 1024.0);
        let run = crate::scenario::traced(text, layers, tracer, Some(top))?;
        if run.text != *cached {
            return Err(format!(
                "cached result for {label} differs from the in-process result"
            ));
        }
    }
    tracer.close(top);
    Ok(sweep)
}

/// Checks every cached result against an in-process `Scenario::run`.
pub fn check_in_process(pairs: &[(String, String)], texts: &[String]) -> Result<(), String> {
    for ((label, text), cached) in pairs.iter().zip(texts) {
        if crate::scenario::plain(text)?.text != *cached {
            return Err(format!(
                "cached result for {label} differs from the in-process result"
            ));
        }
    }
    Ok(())
}
