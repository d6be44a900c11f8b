//! Criterion micro-benchmarks of the reproduction's hot paths: the event
//! queue, the processor-sharing CPU, Kneedle + polynomial fitting, scatter
//! construction, critical-path analysis, and end-to-end world throughput.
//!
//! These quantify the §6 scalability discussion: the paper reports ≤ 5 %
//! CPU overhead and ~50 ms of computation for critical-service extraction;
//! `scg_estimate` and `critical_path_stats` are the equivalents here.

use cluster::{Millicores, PsCpu};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use microsim::{Behavior, ServiceSpec, World, WorldConfig};
use scg::{Kneedle, ScgModel};
use sim_core::{Dist, EventQueue, SimDuration, SimRng, SimTime};
use sora_bench::{App, ScenarioSpec};
use std::hint::black_box;
use telemetry::{
    build_scatter, per_service_stats, ChildCall, CompletionLog, ConcurrencyTracker, ReplicaId,
    RequestId, RequestTypeId, ScatterPoint, ServiceId, Span, SpanId, Trace, TraceWarehouse,
};
use workload::TraceShape;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_10k", |b| {
        b.iter_batched(
            || {
                let mut rng = SimRng::seed_from(1);
                (0..10_000u64)
                    .map(|_| SimTime::from_nanos(rng.next_u64() % 1_000_000))
                    .collect::<Vec<_>>()
            },
            |times| {
                // Schedule the whole batch (the clock is still at zero, so
                // any order is legal), then drain it.
                let mut q = EventQueue::new();
                for (i, &at) in times.iter().enumerate() {
                    q.schedule(at, i);
                }
                let mut n = 0usize;
                while let Some((_, e)) = q.pop() {
                    n += black_box(e) & 1;
                }
                black_box(n)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_ps_cpu(c: &mut Criterion) {
    c.bench_function("ps_cpu_1k_jobs", |b| {
        b.iter(|| {
            let mut cpu = PsCpu::new(Millicores::from_cores(4), 0.03);
            let mut t = SimTime::ZERO;
            for i in 0..1_000u64 {
                cpu.add(t, SimDuration::from_micros(500 + i % 100), i);
                if let Some((done, _)) = cpu.next_completion() {
                    cpu.advance(done);
                    black_box(cpu.take_finished());
                    t = done;
                }
            }
            black_box(cpu.active())
        })
    });
}

fn synthetic_scatter() -> Vec<ScatterPoint> {
    let mut rng = SimRng::seed_from(3);
    (0..600)
        .map(|_| {
            let q = rng.f64() * 30.0;
            let rate = 1_000.0 * (1.0 - (-q / 5.0).exp()) + rng.f64() * 30.0;
            ScatterPoint { q, rate }
        })
        .collect()
}

fn bench_scg(c: &mut Criterion) {
    let pts = synthetic_scatter();
    let model = ScgModel::default();
    c.bench_function("scg_estimate_600pts", |b| {
        b.iter(|| black_box(model.estimate(black_box(&pts))))
    });

    let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
    let ys: Vec<f64> = xs.iter().map(|&x| 1.0 - (-x / 30.0).exp()).collect();
    c.bench_function("kneedle_detect_200pts", |b| {
        b.iter(|| black_box(Kneedle::default().detect(black_box(&xs), black_box(&ys))))
    });
}

fn bench_scatter_build(c: &mut Criterion) {
    // One minute of 100 ms samples at ~500 completions/second.
    let mut conc = ConcurrencyTracker::new(SimDuration::from_secs(120));
    let mut log = CompletionLog::new(SimDuration::from_secs(120));
    let mut rng = SimRng::seed_from(9);
    let mut level = 0u32;
    for ms in 0..60_000u64 {
        if ms % 2 == 0 {
            conc.enter(SimTime::from_millis(ms));
            level += 1;
        }
        if level > 0 && ms % 2 == 1 {
            conc.leave(SimTime::from_millis(ms));
            level -= 1;
            log.record(
                SimTime::from_millis(ms),
                SimDuration::from_micros(2_000 + (rng.next_u64() % 8_000)),
            );
        }
    }
    c.bench_function("build_scatter_60s_window", |b| {
        b.iter(|| {
            black_box(build_scatter(
                &conc,
                &log,
                SimTime::ZERO,
                SimTime::from_secs(60),
                SimDuration::from_millis(100),
                SimDuration::from_millis(8),
            ))
        })
    });
}

fn chain_trace(i: u64) -> Trace {
    let t = |ms: u64| SimTime::from_millis(ms);
    let root = Span {
        id: SpanId(i * 2),
        request: RequestId(i),
        service: ServiceId(0),
        replica: ReplicaId(0),
        parent: None,
        arrival: t(0),
        service_start: t(0),
        departure: t(20 + i % 7),
        children: vec![ChildCall {
            service: ServiceId(1),
            start: t(2),
            end: t(15 + i % 7),
        }],
    };
    let child = Span {
        id: SpanId(i * 2 + 1),
        parent: Some(root.id),
        service: ServiceId(1),
        arrival: t(2),
        service_start: t(2),
        departure: t(15 + i % 7),
        children: vec![],
        ..root.clone()
    };
    Trace {
        request: RequestId(i),
        request_type: RequestTypeId(0),
        spans: vec![root, child],
    }
}

fn bench_critical_path(c: &mut Criterion) {
    let traces: Vec<Trace> = (0..1_000).map(chain_trace).collect();
    c.bench_function("critical_path_stats_1k_traces", |b| {
        b.iter(|| black_box(per_service_stats(black_box(&traces))))
    });
}

/// A warehouse holding `n` two-span chain traces spread over one minute.
fn loaded_warehouse(n: u64) -> TraceWarehouse {
    let mut w = TraceWarehouse::new(SimDuration::from_secs(600), 1);
    for i in 0..n {
        let mut t = chain_trace(i);
        // Spread completions across the minute.
        let done = SimTime::from_millis(i * 60_000 / n.max(1) + 30);
        t.spans[0].departure = done;
        w.push(t);
    }
    w
}

fn bench_warehouse_queries(c: &mut Criterion) {
    let w = loaded_warehouse(5_000);
    let (from, to) = (SimTime::from_secs(20), SimTime::from_secs(50));
    c.bench_function("warehouse_iter_window_5k", |b| {
        b.iter(|| black_box(w.iter_window(from, to).count()))
    });
}

fn bench_cart_end_to_end(c: &mut Criterion) {
    // A miniature §5.2 Cart run through the full Sock Shop topology —
    // workload driver, scenario loop, telemetry and warehouse included.
    let spec = ScenarioSpec {
        seed: 42,
        ..ScenarioSpec::new(App::SockShop, TraceShape::Steady, 120.0, 5, 400)
    };
    c.bench_function("cart_end_to_end_5s_120users", |b| {
        b.iter(|| black_box(black_box(&spec).run().summary.completed))
    });
}

fn bench_world_throughput(c: &mut Criterion) {
    c.bench_function("world_simulate_5k_requests", |b| {
        b.iter_batched(
            || {
                let cfg = WorldConfig {
                    trace_sample_every: 10,
                    ..WorldConfig::default()
                };
                let mut w = World::new(cfg, SimRng::seed_from(5));
                let rt = RequestTypeId(0);
                let db = ServiceId(1);
                let front = w.add_service(ServiceSpec::new("front").threads(32).on(
                    rt,
                    Behavior::tier(Dist::exponential_ms(1.0), db, Dist::constant_ms(1)),
                ));
                w.add_service(
                    ServiceSpec::new("db")
                        .threads(32)
                        .on(rt, Behavior::leaf(Dist::exponential_ms(2.0))),
                );
                let rt = w.add_request_type("r", front);
                for svc in [front, db] {
                    let pod = w.add_replica(svc).unwrap();
                    w.make_ready(pod);
                }
                for i in 0..5_000u64 {
                    w.inject_at(SimTime::from_nanos(i * 400_000), rt);
                }
                w
            },
            |mut w| {
                let done = w.run_until(SimTime::from_secs(60));
                black_box(done.len())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_ps_cpu,
    bench_scg,
    bench_scatter_build,
    bench_critical_path,
    bench_warehouse_queries,
    bench_world_throughput,
    bench_cart_end_to_end
);
criterion_main!(benches);
