//! The perf ledger: fixed workloads run through the simulator's public
//! APIs, end-to-end host-cost metrics measured untraced, per-layer metrics
//! from a separate traced pass, and a correctness gate on every run.
//!
//! A run repeats its workload until `--seconds` have passed (at least twice)
//! and reports per-metric medians. With
//! `--trace 1` it alternates untraced and traced iterations, so the trace's
//! overhead and the byte-identity of the two passes are measured in one
//! process. Every iteration must render the same result bytes.

pub mod compare;
mod farm;
mod scenario;
mod stats;
mod trace;
pub mod workloads;

use serde_json::{json, Map, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::{Layers, Span, Tracer};
use workloads::{Kind, Workload};

/// Worker processes the farm workload fans across.
const FARM_WORKERS: usize = 2;
/// Iterations every run makes, however short `--seconds` is: two are the
/// least that can show a result repeats.
const MIN_ITERATIONS: usize = 2;
/// Set-up-only repetitions after each untraced scenario iteration. Spread
/// over the whole run, the set-up samples do not all fall into one of the
/// host's slow phases.
const SETUP_REPS: usize = 5;

/// One reported metric; its name and unit are as `BENCHMARK.json`
/// declares them.
#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) are reported as 0.
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        let value = if value.is_finite() { value } else { 0.0 };
        Metric { name, value, unit }
    }
}

/// How to run a workload.
#[derive(Debug, Clone)]
pub struct Options {
    /// Replaces every spec's seed when given.
    pub seed: Option<u64>,
    /// Seconds to keep repeating the workload for.
    pub seconds: f64,
    /// Alternate untraced and traced iterations; report per-layer metrics.
    pub trace: bool,
    /// Cut every spec to a few simulated seconds (tests).
    pub smoke: bool,
    /// Where records and the farm's scratch cache go.
    pub out: PathBuf,
}

/// What one run of one workload measured.
#[derive(Debug)]
pub struct Report {
    workload: &'static str,
    options: Options,
    /// The first correctness violation, if any.
    error: Option<String>,
    /// Operations attempted: requests injected, or farm scenarios.
    attempted: u64,
    iterations: usize,
    /// FNV-1a digest of the canonical result bytes.
    digest: Option<u64>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    metrics: Vec<Metric>,
    /// Spans of the last traced iteration.
    spans: Vec<Span>,
}

/// 64-bit FNV-1a.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// This process's peak resident set size in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable. `VmHWM` covers the current program image only,
/// so a launcher that `exec`s the ledger (`cargo run`) adds nothing to it.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One iteration's outputs.
#[derive(Default)]
struct Iteration {
    digest: u64,
    attempted: u64,
    /// The wall compared between passes for `trace.overhead`.
    wall_s: f64,
    setup_s: Vec<f64>,
    /// End-to-end metrics other than `setup_s` and `peak_rss_mb`.
    e2e: Vec<Metric>,
    layers: Option<Layers>,
    spans: Vec<Span>,
    /// Farm result texts, for the in-process check.
    texts: Vec<String>,
    /// Peak RSS of the farm's worker processes, MiB.
    worker_rss_mib: f64,
}

/// Runs one workload as `opts` says. Never panics on a correctness
/// violation: the report carries it instead.
pub fn run(workload: &'static Workload, opts: &Options) -> Report {
    let mut report = Report {
        workload: workload.name,
        options: opts.clone(),
        error: None,
        attempted: 0,
        iterations: 0,
        digest: None,
        metrics: Vec::new(),
        spans: Vec::new(),
    };
    if let Err(e) = measure(workload, opts, &mut report) {
        report.error = Some(e);
    }
    report
}

fn measure(w: &Workload, opts: &Options, report: &mut Report) -> Result<(), String> {
    let specs = w.specs(opts.seed, opts.smoke);
    let pairs = farm::scenarios(&specs);
    let sim_min = specs.iter().map(|s| s.duration_secs as f64).sum::<f64>() / 60.0;
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut peak_rss = 0.0;
    while report.iterations < MIN_ITERATIONS || start.elapsed().as_secs_f64() < opts.seconds {
        let tracing = opts.trace && report.iterations % 2 == 1;
        let it = iterate(w.kind, tracing, &specs, &pairs, sim_min, &opts.out)?;
        report.iterations += 1;
        report.attempted += it.attempted;
        match report.digest {
            Some(d) if d != it.digest => {
                return Err(format!(
                    "sim_digest {:016x} of iteration {} ({}) differs from {d:016x}",
                    it.digest,
                    report.iterations,
                    if tracing { "traced" } else { "untraced" }
                ))
            }
            _ => report.digest = Some(it.digest),
        }
        if report.iterations == 1 {
            // Read once, at a point every run reaches by the same steps;
            // later iterations add only allocator fragmentation.
            peak_rss = peak_rss_mib().max(it.worker_rss_mib);
        }
        if tracing { &mut traced } else { &mut plain }.push(it);
    }

    if opts.trace {
        let lists: Vec<Vec<Metric>> = traced
            .iter()
            .map(|it| it.layers.as_ref().expect("traced").metrics())
            .collect();
        report.metrics = medians(&lists);
        // Iterations alternate untraced, traced, untraced, ...: compare each
        // traced wall with the untraced ones either side of it, so a slow
        // phase of the host cancels instead of landing on one pass.
        let overheads: Vec<f64> = traced
            .iter()
            .zip(&plain)
            .enumerate()
            .map(|(i, (t, before))| {
                let reference = plain
                    .get(i + 1)
                    .map_or(before.wall_s, |after| (before.wall_s + after.wall_s) / 2.0);
                t.wall_s / reference - 1.0
            })
            .collect();
        report.metrics.push(Metric::new(
            "trace.overhead",
            stats::median(&overheads),
            "ratio",
        ));
        report.spans = traced.pop().map(|it| it.spans).unwrap_or_default();
        return Ok(());
    }
    let setup: Vec<f64> = plain.iter().flat_map(|it| it.setup_s.clone()).collect();
    report.metrics = medians(&plain.iter().map(|it| it.e2e.clone()).collect::<Vec<_>>());
    report.metrics.extend([
        Metric::new("setup_s", stats::median(&setup), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ]);
    if w.kind == Kind::Farm {
        let last = plain.last().expect("at least one untraced iteration");
        farm::check_in_process(&pairs, &last.texts)?;
    }
    Ok(())
}

fn iterate(
    kind: Kind,
    tracing: bool,
    specs: &[sora_server::ScenarioSpec],
    pairs: &[(String, String)],
    sim_min: f64,
    out: &Path,
) -> Result<Iteration, String> {
    let m = Metric::new;
    let mut layers = Layers::default();
    let mut tracer = Tracer::default();
    let t = Instant::now();
    let mut it = match (kind, tracing) {
        (Kind::Scenario, false) => {
            let r = scenario::plain(&pairs[0].1)?;
            let mut setup_s = vec![r.setup_s];
            for _ in 0..SETUP_REPS {
                let t = Instant::now();
                drop(scenario::setup(&pairs[0].1)?);
                setup_s.push(t.elapsed().as_secs_f64());
            }
            Iteration {
                digest: fnv64(r.text.as_bytes()),
                attempted: r.injected,
                wall_s: r.setup_s + r.wall_s,
                setup_s,
                e2e: vec![
                    m("wall_s_per_sim_min", r.wall_s / sim_min, "s/sim_min"),
                    m("completed_per_s", r.completed as f64 / r.wall_s, "req/s"),
                    m("scenarios_per_s", 1.0 / (r.setup_s + r.wall_s), "1/s"),
                    m("sim_goodput_rps", r.goodput_rps, "req/s"),
                ],
                ..Iteration::default()
            }
        }
        (Kind::Scenario, true) => {
            let r = scenario::traced(&pairs[0].1, &mut layers, &mut tracer, None)?;
            layers.wall_s = t.elapsed().as_secs_f64();
            Iteration {
                digest: fnv64(r.text.as_bytes()),
                attempted: r.injected,
                wall_s: r.setup_s + r.wall_s,
                ..Iteration::default()
            }
        }
        (Kind::Farm, _) => {
            let s = if tracing {
                farm::traced(specs, out, &mut layers, &mut tracer)?
            } else {
                farm::sweep(pairs, out, None)?
            };
            // Stopped before the ledger parses the cached results.
            layers.wall_s = t.elapsed().as_secs_f64();
            let (completed, goodput) = s.totals()?;
            let n = s.texts.len() as f64;
            Iteration {
                digest: s.digest(),
                attempted: s.texts.len() as u64,
                wall_s: s.cold_s,
                e2e: vec![
                    m("wall_s_per_sim_min", s.cold_s / sim_min, "s/sim_min"),
                    m("completed_per_s", completed as f64 / s.cold_s, "req/s"),
                    m("scenarios_per_s", n / s.cold_s, "1/s"),
                    m("sim_goodput_rps", goodput, "req/s"),
                ],
                setup_s: s.warm_s,
                texts: s.texts,
                worker_rss_mib: s.worker_rss_mib,
                ..Iteration::default()
            }
        }
    };
    if tracing {
        it.layers = Some(layers);
        it.spans = tracer.spans;
    }
    Ok(it)
}

/// Per-metric medians over lists that all name the same metrics in the
/// same order.
fn medians(lists: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = lists.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = lists.iter().map(|l| l[i].value).collect();
            Metric::new(m.name, stats::median(&values), m.unit)
        })
        .collect()
}

impl Report {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.error.is_none()
    }

    /// Operations attempted, at least 1.
    fn attempted(&self) -> u64 {
        self.attempted.max(1)
    }

    /// Failed operations: every one of them once a check fails.
    fn failed(&self) -> u64 {
        if self.correct() {
            0
        } else {
            self.attempted()
        }
    }

    fn metrics_json(&self) -> Value {
        let mut map = Map::new();
        for m in &self.metrics {
            map.insert(
                m.name.to_string(),
                json!({"value": m.value, "unit": m.unit}),
            );
        }
        Value::Object(map)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let v = json!({
            "correct": self.correct(),
            "attempted": self.attempted(),
            "failed": self.failed(),
            "metrics": self.metrics_json(),
        });
        serde_json::to_string(&v).expect("result serialises")
    }

    /// The human-readable lines: one `workload metric value unit` per
    /// metric, then the digest.
    pub fn lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("{} {} {} {}", self.workload, m.name, m.value, m.unit))
            .collect();
        if let Some(d) = self.digest {
            lines.push(format!("{} sim_digest {d:016x}", self.workload));
        }
        if let Some(e) = &self.error {
            lines.push(format!("{} FAILED {e}", self.workload));
        }
        lines
    }

    /// Writes the run's record (metrics, digest, host, spans) under
    /// `opts.out`.
    pub fn write_record(&self) -> std::io::Result<()> {
        let o = &self.options;
        std::fs::create_dir_all(&o.out)?;
        let stamp = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_millis());
        let path = o.out.join(format!(
            "{}-t{}-{stamp:014}-{}.json",
            self.workload,
            u8::from(o.trace),
            std::process::id()
        ));
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({"name": s.name, "start_us": s.start_us, "end_us": s.end_us,
                       "parent": s.parent})
            })
            .collect();
        let record = json!({
            "workload": self.workload,
            "seed": o.seed,
            "trace": o.trace,
            "smoke": o.smoke,
            "seconds": o.seconds,
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
            "cpu_model": cpu_model(),
            "correct": self.correct(),
            "error": self.error,
            "attempted": self.attempted(),
            "failed": self.failed(),
            "iterations": self.iterations,
            "sim_digest": self.digest.map(|d| format!("{d:016x}")),
            "metrics": self.metrics_json(),
            "spans": spans,
        });
        std::fs::write(
            path,
            serde_json::to_string_pretty(&record).expect("record serialises"),
        )
    }
}

/// The host CPU's model name, when `/proc/cpuinfo` has one.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}
