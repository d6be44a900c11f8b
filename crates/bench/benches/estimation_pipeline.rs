//! Criterion benchmarks of the estimation pipeline, plus an end-to-end
//! control-loop run.
//!
//! The pipeline under test is the per-tick hot path of the adapter: build
//! the trailing 60 s scatter at 100 ms buckets, bin it, and run the SCG
//! knee estimate, through reusable scratch (zero steady-state allocation).

use criterion::{criterion_group, criterion_main, Criterion};
use scg::ScgModel;
use sim_core::{SimDuration, SimRng, SimTime};
use sora_bench::{App, ScenarioSpec, SoftAdaptation};
use std::hint::black_box;
use telemetry::{build_scatter_into, CompletionLog, ConcurrencyTracker, ScatterScratch};
use workload::TraceShape;

/// One minute of irregular enter/leave/record traffic at ~500
/// completions/second, the load a busy replica's samplers carry when the
/// controller asks for its 60 s window.
fn loaded_samplers() -> (ConcurrencyTracker, CompletionLog) {
    let mut conc = ConcurrencyTracker::new(SimDuration::from_secs(120));
    let mut log = CompletionLog::new(SimDuration::from_secs(120));
    let mut rng = SimRng::seed_from(9);
    let mut level = 0u32;
    for ms in 0..60_000u64 {
        // Unaligned sub-millisecond jitter so bucket boundaries are crossed
        // mid-segment, as in a real run.
        let at = SimTime::from_nanos(ms * 1_000_000 + rng.next_u64() % 900_000);
        if ms % 2 == 0 {
            conc.enter(at);
            level += 1;
        } else if level > 0 {
            conc.leave(at);
            level -= 1;
            log.record(
                at,
                SimDuration::from_micros(2_000 + (rng.next_u64() % 8_000)),
            );
        }
    }
    (conc, log)
}

const WINDOW: (SimTime, SimTime) = (SimTime::ZERO, SimTime::from_secs(60));
const INTERVAL: SimDuration = SimDuration::from_millis(100);

fn bench_pipeline(c: &mut Criterion) {
    let (conc, log) = loaded_samplers();
    let model = ScgModel::default();
    let threshold = Some(SimDuration::from_millis(8));
    let (from, to) = WINDOW;

    // Scratch persists across iterations exactly as the estimator holds it
    // across control ticks.
    let mut scratch = ScatterScratch::default();
    let mut points = Vec::new();
    let mut bins = Vec::new();
    c.bench_function("estimation_pipeline", |b| {
        b.iter(|| {
            points.clear();
            build_scatter_into(
                &conc,
                &log,
                from,
                to,
                INTERVAL,
                threshold,
                &mut scratch,
                &mut points,
            );
            model.aggregate_counted_into(&points, &mut bins);
            black_box(model.estimate_binned(&bins))
        })
    });
}

fn bench_control_loop(c: &mut Criterion) {
    // A miniature Cart run under the full Sora controller: every tick
    // exercises deadline propagation, scatter construction over all
    // replicas, SCG estimation, and actuation.
    let spec = ScenarioSpec {
        soft: SoftAdaptation::Sora,
        seed: 42,
        ..ScenarioSpec::new(App::SockShop, TraceShape::Steady, 120.0, 5, 250)
    };
    c.bench_function("sora_control_loop_5s_120users", |b| {
        b.iter(|| black_box(black_box(&spec).run().summary.completed))
    });
}

criterion_group!(benches, bench_pipeline, bench_control_loop);
criterion_main!(benches);
