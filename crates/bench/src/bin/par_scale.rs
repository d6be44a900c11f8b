//! Scaling of the shard tally (DESIGN §14).
//!
//! One 5000-service sock-shop-like world is driven through identical
//! open-loop request schedules under shard counts 1, 2 and 4, and every
//! run must produce **identical counters** (completions, drops, events,
//! spans, the p99 bit pattern): sharding only tallies the one event
//! loop's lookahead windows by shard, and this binary asserts at full
//! scale that the tally changes no simulation byte.
//!
//! Two speedups are reported per shard count:
//!
//! * `wall_speedup` — measured events/sec against the shards = 1 run: the
//!   host cost of the tally itself; reported, not asserted.
//! * `critical_path_speedup` — `events / critical_path_events`, where the
//!   critical path is the sum over lookahead windows of the busiest
//!   shard's dispatches, plus every event no service owns. This is the
//!   parallelism one event stream exposes when split by service,
//!   independent of host core count, and is asserted ≥ 1.5 at 4 shards.
//!
//! `--smoke` runs a small audited world (500 services) under a canned
//! fault schedule — a replica crash with restart, a CPU-pressure window
//! and a telemetry blackout — for the shard count given by `--shards N`,
//! and prints a canonical digest (counters, drop breakdown, fault log and
//! an order-sensitive hash of the completion and drop streams) that
//! `scripts/check.sh` byte-diffs across shard counts.

use microsim::{BlackoutMode, FaultSchedule, WorldConfig};
use serde::Serialize;
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_bench::{print_table, save_json_with_perf, PerfTimer, Table};
use telemetry::ServiceId;
use topo::TopoParams;

use cluster::NodeId;

/// One workload point: everything that defines the simulation except the
/// shard count, so runs differ *only* in partitioning.
#[derive(Clone, Copy)]
struct Point {
    services: usize,
    requests: u64,
    sim_secs: u64,
    faults: bool,
    seed: u64,
}

impl Point {
    fn full() -> Point {
        Point {
            services: 5000,
            requests: 120_000,
            sim_secs: 12,
            faults: false,
            seed: 0x5048,
        }
    }

    fn smoke() -> Point {
        Point {
            services: 500,
            requests: 12_000,
            sim_secs: 6,
            faults: true,
            seed: 0x5048,
        }
    }
}

/// Shard-count-invariant observables of one run. `PartialEq` equality
/// across shard counts is the bench's headline assertion.
#[derive(Clone, PartialEq, Eq, Serialize)]
struct SimCounters {
    completed: u64,
    dropped: u64,
    events: u64,
    requests: u64,
    spans: u64,
    p99_ms_bits: u64,
    completions_fnv: u64,
    drops_fnv: u64,
}

#[derive(Serialize)]
struct EngineRun {
    shards: usize,
    counters: SimCounters,
    critical_path_events: u64,
    critical_path_speedup: f64,
    events_per_sec: f64,
    wall_secs: f64,
}

/// FNV-1a over a byte stream; order-sensitive, so equal hashes mean equal
/// streams in equal order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

struct RunOutput {
    counters: SimCounters,
    critical_path_events: u64,
    wall_secs: f64,
    drop_breakdown: String,
    fault_log: Vec<String>,
}

fn fault_schedule() -> FaultSchedule {
    // Mid-tier crash (layer 1 starts at service id 1 for depth-5 shapes)
    // restarted 300 ms later, a half-speed CPU window on the first node,
    // and a lagging-collector blackout.
    FaultSchedule::new()
        .crash(
            SimTime::from_millis(900),
            ServiceId(1),
            Some(SimDuration::from_millis(300)),
        )
        .cpu_pressure(
            SimTime::from_millis(1_500),
            NodeId(0),
            0.5,
            SimDuration::from_millis(400),
        )
        .telemetry_blackout(
            SimTime::from_millis(2_200),
            BlackoutMode::Lag,
            SimDuration::from_millis(400),
        )
}

fn run_point(p: Point, shards: usize) -> RunOutput {
    let params = TopoParams {
        timeout: Some(SimDuration::from_secs(5)),
        ..TopoParams::sock_shop_like(p.services)
    };
    let config = WorldConfig {
        trace_sample_every: 1024,
        replica_startup: Dist::constant_us(0),
        ..WorldConfig::default()
    };
    let mut t = topo::build(&params, config, SimRng::seed_from(p.seed));
    t.world
        .enable_sharding_with_plan(&t.shard_plan(shards))
        .expect("fresh world accepts sharding");
    if p.faults {
        t.world
            .install_faults(fault_schedule())
            .expect("canned schedule validates");
    }

    // Open-loop injection, all scheduled up front: arrival times and the
    // request-type mix depend only on (requests, sim_secs), never on the
    // shard count, so every run sees the same offered load.
    let span_nanos = p.sim_secs * 1_000_000_000;
    for i in 0..p.requests {
        let at = SimTime::from_nanos(span_nanos * i / p.requests);
        let rt = t.request_types[(i % t.request_types.len() as u64) as usize];
        t.world.inject_at(at, rt);
    }

    let wall = std::time::Instant::now();
    let mut done = Vec::new();
    t.world.run_until_into(
        SimTime::from_secs(p.sim_secs) + SimDuration::from_secs(30),
        &mut done,
    );
    let wall_secs = wall.elapsed().as_secs_f64();
    assert!(t.world.is_quiescent(), "drain window left work in flight");

    #[cfg(feature = "audit")]
    assert_eq!(
        t.world.audit().total(),
        0,
        "audit violations under sharding: {}",
        t.world.audit().summary()
    );

    let mut comp_fnv = Fnv::new();
    for c in &done {
        comp_fnv.write_u64(c.issued.as_nanos());
        comp_fnv.write_u64(c.completed.as_nanos());
        comp_fnv.write(format!("{:?}|{:?}", c.request, c.rtype).as_bytes());
    }
    let mut drop_fnv = Fnv::new();
    for (req, reason) in t.world.drain_dropped() {
        drop_fnv.write(format!("{req:?}|{reason:?}").as_bytes());
    }

    let client = t.world.client();
    let counters = SimCounters {
        completed: client.total(),
        dropped: t.world.dropped(),
        events: t.world.events_dispatched(),
        requests: t.world.requests_injected(),
        spans: t.world.spans_created(),
        p99_ms_bits: client
            .percentile(99.0)
            .map_or(0.0, |d| d.as_millis_f64())
            .to_bits(),
        completions_fnv: comp_fnv.0,
        drops_fnv: drop_fnv.0,
    };
    RunOutput {
        counters,
        critical_path_events: t.world.critical_path_events(),
        wall_secs,
        drop_breakdown: format!("{:?}", t.world.drop_breakdown()),
        fault_log: t
            .world
            .fault_log()
            .iter()
            .map(|(at, line)| format!("{}ns {line}", at.as_nanos()))
            .collect(),
    }
}

/// Canonical smoke digest: every line is shard-count invariant, so
/// `check.sh` can byte-diff `--shards 1` against `--shards 4`.
fn print_digest(r: &RunOutput) {
    let c = &r.counters;
    println!("completed={}", c.completed);
    println!("dropped={}", c.dropped);
    println!("events={}", c.events);
    println!("requests={}", c.requests);
    println!("spans={}", c.spans);
    println!("p99_ms_bits={}", c.p99_ms_bits);
    println!("completions_fnv={:016x}", c.completions_fnv);
    println!("drops_fnv={:016x}", c.drops_fnv);
    println!("drop_breakdown={}", r.drop_breakdown);
    for line in &r.fault_log {
        println!("fault: {line}");
    }
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for (i, a) in args.iter().enumerate() {
        if a == name {
            return args.get(i + 1).cloned();
        }
        if let Some(v) = a.strip_prefix(&format!("{name}=")) {
            return Some(v.to_string());
        }
    }
    None
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shards: usize = arg_value("--shards")
        .map(|v| v.parse().expect("--shards takes an integer"))
        .unwrap_or(1);

    if smoke {
        // Single audited configuration; digest on stdout, timing on stderr.
        let r = run_point(Point::smoke(), shards);
        eprintln!(
            "[par_scale] smoke shards={shards}: {:.2}s wall, {} events",
            r.wall_secs, r.counters.events
        );
        print_digest(&r);
        return;
    }

    let timer = PerfTimer::new();
    let p = Point::full();
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    let shard_counts: &[usize] = &[1, 2, 4];

    let mut runs: Vec<EngineRun> = Vec::new();
    let mut table = Table::new(vec![
        "shards",
        "events/s",
        "wall s",
        "wall x",
        "crit-path x",
        "identical",
    ]);
    for &n in shard_counts {
        let r = run_point(p, n);
        let identical = runs.is_empty() || r.counters == runs[0].counters;
        assert!(identical, "shards={n} diverged from the one-shard run");
        if n == 1 {
            // With one shard every window's max is its total: the critical
            // path must be the whole event stream.
            assert_eq!(
                r.critical_path_events, r.counters.events,
                "critical path must equal total events at shards=1"
            );
        }
        let events_per_sec = r.counters.events as f64 / r.wall_secs.max(1e-9);
        let wall_speedup = if runs.is_empty() {
            1.0
        } else {
            events_per_sec / runs[0].events_per_sec
        };
        let crit_speedup = r.counters.events as f64 / (r.critical_path_events as f64).max(1.0);
        table.row(vec![
            n.to_string(),
            format!("{events_per_sec:.0}"),
            format!("{:.2}", r.wall_secs),
            format!("{wall_speedup:.2}"),
            format!("{crit_speedup:.2}"),
            identical.to_string(),
        ]);
        runs.push(EngineRun {
            shards: n,
            counters: r.counters,
            critical_path_events: r.critical_path_events,
            critical_path_speedup: crit_speedup,
            events_per_sec,
            wall_secs: r.wall_secs,
        });
    }
    print_table("par_scale: shard tally scaling (5000 services)", &table);

    let at4 = runs
        .iter()
        .find(|r| r.shards == 4)
        .expect("4-shard run always present");
    assert!(
        at4.critical_path_speedup >= 1.5,
        "window schedule exposes only {:.2}x parallelism at 4 shards",
        at4.critical_path_speedup
    );
    let wall_speedup_at_4 = at4.events_per_sec / runs[0].events_per_sec;

    let runs_len = runs.len();
    let payload = serde_json::json!({
        "services": p.services,
        "requests": p.requests,
        "sim_secs": p.sim_secs,
        "host_cores": host_cores,
        "shard_counts": shard_counts,
        "engines_identical": true,
        "critical_path_speedup_at_4": at4.critical_path_speedup,
        "wall_speedup_at_4": wall_speedup_at_4,
        "runs": runs,
    });
    save_json_with_perf("BENCH_par_scale", &payload, &timer.finish(1, runs_len));
}
