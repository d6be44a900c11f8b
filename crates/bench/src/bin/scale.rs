//! Scale — million-user worlds on the one event engine.
//!
//! Drives the paper's 12-minute dual-phase trace against generated
//! Sock-Shop-shaped topologies at escalating user counts and reports each
//! point's counters, events/sec and allocations and bytes per request. A
//! steady-state churn phase first asserts that the event queue allocates
//! nothing once warm.
//!
//! Flags: `--smoke` (one small audited point, canonical JSON on stdout for
//! determinism diffs), `--jobs N` (sweep parallelism; output is identical
//! for any value). Results land in `results/BENCH_scale.json`.

use microsim::WorldConfig;
use serde::Serialize;
use sim_core::allocmeter::{self, Scope};
use sim_core::{Dist, EventQueue, SimDuration, SimRng, SimTime};
use sora_bench::{job, print_table, save_json_with_perf, Sweep, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::time::Instant;
use telemetry::RequestId;
use topo::TopoParams;
use workload::{RateCurve, TraceShape, UserAction, UserPool};

// ---------------------------------------------------------------------
// Counting allocator, backed by `sim_core::allocmeter`: every thread owns
// lock-free thread-local counters, and each measurement opens a scope on
// the thread that runs its world — so per-job numbers stay exact for any
// `--jobs` value.
// ---------------------------------------------------------------------

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        allocmeter::note_alloc(layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        allocmeter::note_alloc(new_size.saturating_sub(layout.size()) as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------
// End-to-end points
// ---------------------------------------------------------------------

/// One escalation point of the sweep.
#[derive(Debug, Clone, Copy, Serialize)]
struct Point {
    users: u64,
    services: usize,
    /// Simulated trace length. The flagship point runs the paper's full
    /// 12 minutes; bigger populations compress the same dual-phase shape
    /// into a shorter window to keep the bench tractable.
    sim_secs: u64,
    think_ms: f64,
}

fn points(smoke: bool) -> Vec<Point> {
    if smoke {
        vec![Point {
            users: 50_000,
            services: 500,
            sim_secs: 10,
            think_ms: 10_000.0,
        }]
    } else {
        vec![
            Point {
                users: 10_000,
                services: 500,
                sim_secs: 720,
                think_ms: 10_000.0,
            },
            Point {
                users: 100_000,
                services: 2_000,
                sim_secs: 120,
                think_ms: 30_000.0,
            },
            Point {
                users: 1_000_000,
                services: 5_000,
                sim_secs: 30,
                think_ms: 60_000.0,
            },
        ]
    }
}

/// Deterministic per-run counters — byte-identical across `--jobs`
/// settings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
struct SimCounters {
    completed: u64,
    dropped: u64,
    events: u64,
    requests: u64,
    spans: u64,
    p99_ms_bits: u64,
}

/// One point's run.
#[derive(Debug, Clone, Serialize)]
struct PointReport {
    point: Point,
    spans_per_request: u64,
    counters: SimCounters,
    events_per_sec: f64,
    bytes_per_request: f64,
    allocs_per_request: f64,
    wall_secs: f64,
}

fn run_point(p: Point, spans_per_request: u64) -> PointReport {
    let params = TopoParams {
        timeout: Some(SimDuration::from_secs(5)),
        ..TopoParams::sock_shop_like(p.services)
    };
    let config = WorldConfig {
        // Traces at this scale would dominate memory and ingest time;
        // sample hard, as production tracing does.
        trace_sample_every: 1024,
        replica_startup: Dist::constant_us(0),
        ..WorldConfig::default()
    };
    let mut t = topo::build(&params, config, SimRng::seed_from(p.users ^ 0xa11ce));
    let curve = RateCurve::new(
        TraceShape::DualPhase,
        p.users as f64,
        SimDuration::from_secs(p.sim_secs),
    );
    let mut pool = UserPool::new(
        curve,
        Dist::exponential_ms(p.think_ms),
        SimRng::seed_from(p.users.rotate_left(17) ^ 0x9e37),
    );
    let mut mix_rng = SimRng::seed_from(p.users ^ 0x5ca1e);
    let mut user_of: HashMap<RequestId, u64> = HashMap::new();

    let scope = Scope::begin();
    let wall = Instant::now();
    let mut now = SimTime::ZERO;
    let mut done: Vec<microsim::Completion> = Vec::new();
    loop {
        let action = pool.next_action(now);
        let run_to = match action {
            UserAction::Send { at, .. } => at,
            UserAction::Idle { until } => until,
            UserAction::Finished => break,
        };
        t.world.run_until_into(run_to, &mut done);
        for c in done.drain(..) {
            if let Some(u) = user_of.remove(&c.request) {
                pool.on_completion(c.completed, u);
            }
        }
        let drop_at = t.world.now();
        for (dropped, _reason) in t.world.drain_dropped() {
            if let Some(u) = user_of.remove(&dropped) {
                pool.on_drop(drop_at, u);
            }
        }
        if let UserAction::Send { at, user } = action {
            let rt = t.request_types[mix_rng.index(t.request_types.len())];
            let id = t.world.inject_at(at, rt);
            user_of.insert(id, user);
        }
        now = run_to;
    }
    // Drain in-flight work past the trace end.
    t.world
        .run_until_into(now + SimDuration::from_secs(30), &mut done);
    for c in done.drain(..) {
        if let Some(u) = user_of.remove(&c.request) {
            pool.on_completion(c.completed, u);
        }
    }
    let wall_secs = wall.elapsed().as_secs_f64();
    let stats = scope.finish();

    #[cfg(feature = "audit")]
    assert_eq!(
        t.world.audit().total(),
        0,
        "audit violations at scale: {}",
        t.world.audit().summary()
    );

    let client = t.world.client();
    let requests = t.world.requests_injected();
    let counters = SimCounters {
        completed: client.total(),
        dropped: t.world.dropped(),
        events: t.world.events_dispatched(),
        requests,
        spans: t.world.spans_created(),
        p99_ms_bits: client
            .percentile(99.0)
            .map_or(0.0, |d| d.as_millis_f64())
            .to_bits(),
    };
    PointReport {
        point: p,
        spans_per_request,
        counters,
        events_per_sec: counters.events as f64 / wall_secs.max(1e-9),
        bytes_per_request: stats.bytes as f64 / (requests as f64).max(1.0),
        allocs_per_request: stats.count as f64 / (requests as f64).max(1.0),
        wall_secs,
    }
}

// ---------------------------------------------------------------------
// Steady-state allocation audit of the event queue
// ---------------------------------------------------------------------

/// Fills an [`EventQueue`] to a fixed population, then counts what a churn
/// window allocates: every pop schedules one replacement, so the heap's
/// buffer never has to grow and the count must be zero.
fn steady_state_allocs(churn_ops: u64) -> u64 {
    const POPULATION: u64 = 50_000;
    let mut rng = SimRng::seed_from(0x1319_8a2e_0370_7344);
    let mut delta = move || SimDuration::from_nanos(1_000 + rng.next_u64() % 1_000_000);
    let mut queue: EventQueue<u64> = EventQueue::new();
    for key in 0..POPULATION {
        queue.schedule(SimTime::ZERO + delta(), key);
    }
    let scope = Scope::begin();
    for _ in 0..churn_ops {
        let (at, key) = queue.pop().expect("stationary population");
        queue.schedule(at + delta(), key);
    }
    scope.finish().count
}

// ---------------------------------------------------------------------

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let pts = points(smoke);
    let spans_per_request = TopoParams::sock_shop_like(12).spans_per_request();

    // The queue must be allocation-free at steady state — checked before
    // any measurement so a regression fails loudly, not as noise.
    let churn = if smoke { 200_000 } else { 1_000_000 };
    let steady = steady_state_allocs(churn);
    assert_eq!(
        steady, 0,
        "event queue allocated {steady} times during steady-state churn"
    );

    // One sweep job per point; output is index-aligned, so it is
    // byte-identical for any --jobs value.
    let jobs = pts
        .iter()
        .map(|&p| {
            job(format!("{}u", p.users), move || {
                run_point(p, spans_per_request)
            })
        })
        .collect();
    let outcome = Sweep::from_env().run(jobs);
    let reports = outcome.results;

    let mut table = Table::new(vec![
        "users",
        "services",
        "sim [s]",
        "events",
        "Mev/s",
        "allocs/req",
        "bytes/req",
    ]);
    for r in &reports {
        table.row(vec![
            format!("{}", r.point.users),
            format!("{}", r.point.services),
            format!("{}", r.point.sim_secs),
            format!("{}", r.counters.events),
            format!("{:.1}", r.events_per_sec / 1e6),
            format!("{:.1}", r.allocs_per_request),
            format!("{:.0}", r.bytes_per_request),
        ]);
    }
    if !smoke {
        // Smoke stdout is diffed across --jobs values and must stay free
        // of wall-clock-derived numbers; the table has rate columns.
        print_table("Scale — closed-loop users on generated topologies", &table);
    }

    let data = serde_json::json!({
        "trace": {
            "shape": "DualPhase",
            "minutes": 12,
            "note": "flagship point runs the full 12-minute trace; larger populations compress the same shape",
        },
        "smoke": smoke,
        "steady_state": { "churn_ops": churn, "allocs": steady },
        "points": reports,
    });
    if smoke {
        // The smoke gate diffs this stdout across --jobs values: print
        // only deterministic counters (no wall-clock-derived rates).
        let canonical: Vec<serde_json::Value> = reports
            .iter()
            .map(|r| {
                serde_json::json!({
                    "users": r.point.users,
                    "services": r.point.services,
                    "sim_secs": r.point.sim_secs,
                    "counters": r.counters,
                    "steady_state_allocs": steady,
                })
            })
            .collect();
        println!(
            "{}",
            serde_json::to_string_pretty(&canonical).expect("serialize")
        );
    }
    save_json_with_perf("BENCH_scale", &data, &outcome.perf);
}
