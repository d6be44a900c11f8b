//! Classic ≡ sharded oracle (DESIGN §14): for any generated topology,
//! shard plan and fault schedule, a world that never enabled sharding and
//! the same world sharded `N` ways must be byte-identical: completion
//! streams, drop logs and breakdowns, span/event counters, fault logs and
//! serialized traces.
//!
//! Sharding only tallies the one event loop's lookahead windows by shard,
//! so any divergence found here is a real bug (the tally perturbing what
//! runs), never tolerance noise.

use microsim::{BlackoutMode, Completion, DropReason, FaultSchedule, WorldConfig};
use proptest::prelude::*;
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use telemetry::{RequestId, ServiceId};
use topo::{build, TopoParams, Topology};

use cluster::NodeId;

/// Everything observable from one run, in comparison-friendly form.
#[derive(Debug, PartialEq)]
struct Observed {
    completions: Vec<Completion>,
    dropped_log: Vec<(RequestId, DropReason)>,
    drop_breakdown: String,
    fault_log: Vec<(SimTime, String)>,
    spans: u64,
    events: u64,
    requests: u64,
    traces: String,
}

/// A generatable fault schedule: each component is optional so the space
/// covers fault-free runs, single faults and stacked windows.
#[derive(Debug, Clone, Copy)]
struct Faults {
    crash_service: Option<usize>,
    crash_at_ms: u64,
    restart_after_ms: Option<u64>,
    pressure: bool,
    blackout_lag: Option<bool>,
}

impl Faults {
    fn schedule(&self, services: usize) -> FaultSchedule {
        let mut s = FaultSchedule::new();
        if let Some(svc) = self.crash_service {
            s = s.crash(
                SimTime::from_millis(self.crash_at_ms),
                ServiceId((svc % services) as u32),
                self.restart_after_ms.map(SimDuration::from_millis),
            );
        }
        if self.pressure {
            s = s.cpu_pressure(
                SimTime::from_millis(self.crash_at_ms + 10),
                NodeId(0),
                0.5,
                SimDuration::from_millis(60),
            );
        }
        if let Some(lag) = self.blackout_lag {
            let mode = if lag {
                BlackoutMode::Lag
            } else {
                BlackoutMode::Drop
            };
            s = s.telemetry_blackout(
                SimTime::from_millis(self.crash_at_ms + 25),
                mode,
                SimDuration::from_millis(40),
            );
        }
        s
    }
}

/// Builds one world — sharded `shards` ways, or never sharded for `None`
/// — with its fault schedule installed and a deterministic injection
/// schedule derived from `params.seed` queued.
fn prepare(params: &TopoParams, shards: Option<usize>, faults: Faults) -> Topology {
    let config = WorldConfig {
        replica_startup: Dist::constant_us(0),
        ..WorldConfig::default()
    };
    let mut t = build(params, config, SimRng::seed_from(params.seed ^ 0x54a2d));
    if let Some(shards) = shards {
        t.world
            .enable_sharding_with_plan(&t.shard_plan(shards))
            .expect("fresh world accepts sharding");
    }
    t.world
        .install_faults(faults.schedule(params.services))
        .expect("generated schedule validates");
    let mut sched = SimRng::seed_from(params.seed).split("inject");
    let mut at = 0u64;
    for i in 0..60u64 {
        at += 1 + (sched.f64() * 6.0) as u64;
        let rt = t.request_types[(i % params.request_types as u64) as usize];
        t.world.inject_at(SimTime::from_millis(at), rt);
    }
    t
}

/// Drives one prepared world to quiescence.
fn run(params: &TopoParams, shards: Option<usize>, faults: Faults) -> Observed {
    let mut t = prepare(params, shards, faults);
    let done = t.world.run_until(SimTime::from_secs(120));
    assert!(t.world.is_quiescent(), "run must drain ({params:?})");
    let traces = serde_json::to_string(&t.world.warehouse().iter().collect::<Vec<_>>())
        .expect("traces serialize");
    Observed {
        completions: done,
        dropped_log: t.world.drain_dropped(),
        drop_breakdown: format!("{:?}", t.world.drop_breakdown()),
        fault_log: t.world.fault_log().to_vec(),
        spans: t.world.spans_created(),
        events: t.world.events_dispatched(),
        requests: t.world.requests_injected(),
        traces,
    }
}

fn assert_equivalent(params: &TopoParams, shards: usize, faults: Faults) {
    let unsharded = run(params, None, faults);
    let sharded = run(params, Some(shards), faults);
    assert!(
        unsharded.completions.len() + unsharded.dropped_log.len() > 0,
        "unsharded run must observe something ({params:?})"
    );
    assert_eq!(
        unsharded, sharded,
        "unsharded vs shards={shards} ({params:?})"
    );
}

#[test]
fn sock_shop_preset_is_shard_count_invariant() {
    let none = Faults {
        crash_service: None,
        crash_at_ms: 20,
        restart_after_ms: None,
        pressure: false,
        blackout_lag: None,
    };
    for shards in [1usize, 2, 3, 4] {
        assert_equivalent(&TopoParams::sock_shop_like(30), shards, none);
    }
}

#[test]
fn crash_with_restart_is_shard_count_invariant() {
    let faults = Faults {
        crash_service: Some(2),
        crash_at_ms: 30,
        restart_after_ms: Some(50),
        pressure: true,
        blackout_lag: Some(true),
    };
    let params = TopoParams {
        timeout: Some(SimDuration::from_millis(60)),
        ..TopoParams::sock_shop_like(24)
    };
    assert_equivalent(&params, 4, faults);
}

/// The window tally itself, pinned: total and critical-path event counts
/// of one fixed world (crash with restart, CPU pressure, lagged
/// telemetry) at one, two and four shards. The critical path — the sum over
/// lookahead windows of the busiest shard's dispatches, plus every event
/// no service owns — is what the ledger reports as
/// `microsim.shard_parallelism` and what `par_scale` gates on, so any
/// change to window boundaries, window skipping or event attribution
/// shows up here as an exact mismatch.
#[test]
fn window_schedule_is_pinned() {
    let faults = Faults {
        crash_service: Some(2),
        crash_at_ms: 30,
        restart_after_ms: Some(50),
        pressure: true,
        blackout_lag: Some(true),
    };
    let params = TopoParams {
        timeout: Some(SimDuration::from_millis(60)),
        ..TopoParams::sock_shop_like(24)
    };
    for (shards, events, critical_path) in
        [(1usize, 3638u64, 3638u64), (2, 3638, 2949), (4, 3638, 2327)]
    {
        let mut t = prepare(&params, Some(shards), faults);
        t.world.run_until(SimTime::from_secs(120));
        assert_eq!(
            (t.world.events_dispatched(), t.world.critical_path_events()),
            (events, critical_path),
            "shards={shards}: (events, critical-path events)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any generated topology under any generated fault schedule is
    /// byte-identical between the unsharded world and an arbitrary shard
    /// count.
    #[test]
    fn prop_sharded_run_matches_unsharded_world(
        services in 8usize..24,
        depth in 2usize..5,
        fanout in 1usize..3,
        request_types in 1usize..4,
        seed in 0u64..1_000,
        shards in 1usize..6,
        timeout_pick in 0usize..3,
        crash_pick in 0usize..3,
        crash_at_ms in 5u64..80,
        restart_pick in 0usize..3,
        pressure_pick in 0usize..2,
        blackout_pick in 0usize..3,
    ) {
        let services = services.max(depth);
        let params = TopoParams {
            services,
            depth,
            fanout,
            request_types,
            timeout: [None, Some(SimDuration::from_millis(40)), Some(SimDuration::from_secs(2))][timeout_pick],
            seed,
        };
        let faults = Faults {
            crash_service: [None, Some(1), Some(7)][crash_pick],
            crash_at_ms,
            restart_after_ms: [None, Some(30), Some(200)][restart_pick],
            pressure: pressure_pick == 1,
            blackout_lag: [None, Some(true), Some(false)][blackout_pick],
        };
        assert_equivalent(&params, shards.min(services), faults);
    }
}
