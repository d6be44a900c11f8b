//! Network resilience — the message-passing substrate under hostile links.
//!
//! Sock Shop's Cart path runs the Steep Tri Phase trace over an installed
//! [`net::Network`]: every child call, return, and telemetry report is a
//! message with per-edge latency, loss, bandwidth, and timeout semantics.
//! Four scenarios stress the substrate where the function-edge engine has
//! no vocabulary at all:
//!
//! * `partition-heal` — the Cart↔CartDB link partitions mid-run and heals;
//!   calls time out, resend, and finally abort as `NetTimedOut` until the
//!   window closes, after which throughput must recover.
//! * `slow-link` — the same link degrades to 12× latency instead of
//!   failing outright: no losses, just a latency cliff and recovery.
//! * `retry-storm` — CartDB crashes while the link has finite bandwidth
//!   and a bounded queue; per-call resends pile onto the link until it
//!   saturates, surfacing as `lost_saturated` instead of hiding as load.
//! * `telemetry-reorder-{guard,noguard}` — the control-plane trap: the
//!   telemetry edge delays reports by up to seconds (reordering them),
//!   loses a few, and duplicates others while the data plane suffers the
//!   crash + pressure + blackout schedule. Stragglers delivered after the
//!   blackout opens keep the *freshness* signal green even though the
//!   window is starving, so the guard variant also requires a minimum
//!   window population (`min_window_samples`). The ablation keeps
//!   estimating from the thin, reordered scatter.
//!
//! The verdict compares SLO violations (missed threshold + drops) with the
//! hardened guard on vs off under identical reordered telemetry.
//!
//! Flags: `--quick` (3-minute runs), `--smoke` (90 s runs plus a canonical
//! JSON dump on stdout for determinism diffs), `--jobs N` (sweep
//! parallelism; the output is byte-identical for any value).

use apps::{RunResult, Scenario, SockShop, SockShopParams, Watch};
use autoscalers::HpaController;
use microsim::{BlackoutMode, FaultSchedule, World, WorldConfig};
use net::{EdgeParams, NetworkConfig};
use serde::Serialize;
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use sora_bench::{job, print_table, save_json_with_perf, scenarios::THINK_MS, Sweep, Table};
use sora_core::{
    Controller, ResourceBounds, ResourceRegistry, SoftResource, SoraConfig, SoraController,
};
use telemetry::ServiceId;
use workload::{Mix, RateCurve, RetryPolicy, TraceShape, UserPool};

/// Sock Shop service-id layout (fixed by construction order).
const CART: ServiceId = ServiceId(1);
const CART_DB: ServiceId = ServiceId(2);

/// End-to-end SLA for goodput and SLO-violation accounting.
const SLA: SimDuration = SimDuration::from_millis(400);

/// The canned scenarios, scaled per mode.
#[derive(Debug, Clone, Copy)]
struct NetSetup {
    secs: u64,
    max_users: f64,
    /// Partition / slow-link window on Cart↔CartDB.
    fault_at: u64,
    fault_secs: u64,
    slow_factor: f64,
    /// Crash + pressure + blackout schedule for the telemetry scenarios.
    crash_at: u64,
    restart_secs: u64,
    pressure_at: u64,
    pressure_secs: u64,
    pressure_factor: f64,
    blackout_at: u64,
    blackout_secs: u64,
    staleness_secs: u64,
    min_window_samples: u64,
    /// Telemetry-edge pathology: delay jitter, loss, duplication.
    telemetry_jitter_ms: u64,
    telemetry_loss: f64,
    telemetry_dup: f64,
    seed: u64,
}

fn setup() -> NetSetup {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        NetSetup {
            secs: 90,
            max_users: 800.0,
            fault_at: 25,
            fault_secs: 20,
            slow_factor: 12.0,
            crash_at: 20,
            restart_secs: 10,
            pressure_at: 40,
            pressure_secs: 30,
            pressure_factor: 0.5,
            blackout_at: 40,
            blackout_secs: 25,
            staleness_secs: 20,
            min_window_samples: 20,
            telemetry_jitter_ms: 4_000,
            telemetry_loss: 0.05,
            telemetry_dup: 0.10,
            seed: 42,
        }
    } else if sora_bench::quick_mode() {
        NetSetup {
            secs: 180,
            max_users: 3_500.0,
            fault_at: 60,
            fault_secs: 40,
            slow_factor: 12.0,
            crash_at: 40,
            restart_secs: 15,
            pressure_at: 80,
            pressure_secs: 60,
            pressure_factor: 0.35,
            blackout_at: 80,
            blackout_secs: 45,
            staleness_secs: 20,
            min_window_samples: 20,
            telemetry_jitter_ms: 6_000,
            telemetry_loss: 0.05,
            telemetry_dup: 0.10,
            seed: 42,
        }
    } else {
        NetSetup {
            secs: 720,
            max_users: 3_500.0,
            fault_at: 240,
            fault_secs: 120,
            slow_factor: 12.0,
            crash_at: 120,
            restart_secs: 30,
            pressure_at: 300,
            pressure_secs: 150,
            pressure_factor: 0.35,
            blackout_at: 300,
            blackout_secs: 120,
            staleness_secs: 20,
            min_window_samples: 20,
            telemetry_jitter_ms: 6_000,
            telemetry_loss: 0.05,
            telemetry_dup: 0.10,
            seed: 42,
        }
    }
}

/// 200 µs everywhere, with a 250 ms / 2-retry call timeout on the tunable
/// Cart→CartDB edge so partitions surface as bounded timeouts, not hangs.
fn base_network() -> NetworkConfig {
    let wire = EdgeParams::constant(SimDuration::from_micros(200));
    NetworkConfig::transparent()
        .default_edge(wire)
        .client_edge(wire)
        .edge(
            CART,
            CART_DB,
            wire.timeout(SimDuration::from_millis(250), 2),
        )
}

/// The base network with a pathological telemetry edge: reports delayed by
/// a uniform jitter (reordering them), occasionally lost, and sometimes
/// delivered twice.
fn reordered_telemetry_network(s: NetSetup) -> NetworkConfig {
    base_network().telemetry_edge(
        EdgeParams::default()
            .latency(Dist::uniform_ms(0, s.telemetry_jitter_ms))
            .loss(s.telemetry_loss)
            .duplicate(s.telemetry_dup),
    )
}

/// Crash + node pressure + telemetry blackout, as in the fault bench.
fn control_plane_schedule(s: NetSetup, world: &World) -> FaultSchedule {
    let node = world
        .node_of(world.ready_replicas(CART)[0])
        .expect("cart replica placed");
    FaultSchedule::new()
        .crash(
            SimTime::from_secs(s.crash_at),
            CART,
            Some(SimDuration::from_secs(s.restart_secs)),
        )
        .cpu_pressure(
            SimTime::from_secs(s.pressure_at),
            node,
            s.pressure_factor,
            SimDuration::from_secs(s.pressure_secs),
        )
        .telemetry_blackout(
            SimTime::from_secs(s.blackout_at),
            BlackoutMode::Drop,
            SimDuration::from_secs(s.blackout_secs),
        )
}

fn run_variant(
    s: NetSetup,
    network: NetworkConfig,
    faults: impl FnOnce(&World) -> FaultSchedule,
    controller: &mut dyn Controller,
) -> (RunResult, World) {
    let mut shop = SockShop::build_with_config(
        SockShopParams::default(),
        WorldConfig {
            trace_sample_every: 10,
            ..Default::default()
        },
        SimRng::seed_from(s.seed),
    );
    shop.world.monitor(CART); // Sora reads the Cart's samplers
    shop.world.install_network(network);
    let schedule = faults(&shop.world);
    shop.world
        .install_faults(schedule)
        .expect("valid fault schedule");
    let curve = RateCurve::new(
        TraceShape::SteepTriPhase,
        s.max_users,
        SimDuration::from_secs(s.secs),
    );
    let pool = UserPool::new(
        curve,
        Dist::exponential_ms(THINK_MS),
        SimRng::seed_from(s.seed ^ 0x9e37),
    )
    .with_retry(RetryPolicy::default());
    let scenario = Scenario::new(
        SLA,
        pool,
        Mix::single(shop.get_cart),
        Watch {
            service: shop.cart,
            conns: None,
        },
    );
    let result = scenario.run(&mut shop.world, controller);
    // Lossy links, duplicates, and orphaned frames must still leave every
    // conservation ledger clean.
    #[cfg(feature = "audit")]
    assert_eq!(
        shop.world.audit().total(),
        0,
        "audit violations under network faults: {}",
        shop.world.audit().summary()
    );
    (result, shop.world)
}

fn sora_over_hpa(s: NetSetup, degradation: bool) -> SoraController<HpaController> {
    let registry = ResourceRegistry::new().with(
        SoftResource::ThreadPool { service: CART },
        ResourceBounds { min: 5, max: 200 },
    );
    SoraController::sora(
        SoraConfig {
            sla: SLA,
            degradation,
            staleness_bound: SimDuration::from_secs(s.staleness_secs),
            min_window_samples: if degradation { s.min_window_samples } else { 1 },
            ..Default::default()
        },
        registry,
        HpaController::new(CART, 8),
    )
}

/// One scenario's results over the simulated network.
#[derive(Debug, Clone, Serialize)]
struct VariantReport {
    label: String,
    completed: u64,
    dropped: u64,
    drop_breakdown: microsim::DropBreakdown,
    retry: workload::RetryStats,
    goodput_rps: f64,
    /// Requests that missed the SLA plus requests dropped outright.
    slo_violations: u64,
    p95_ms: f64,
    p99_ms: f64,
    net: net::NetStats,
    /// Duplicate trace reports the warehouse refused to double-count.
    telemetry_duplicates_dropped: u64,
    /// Control periods the degradation guard skipped.
    frozen_periods: u64,
    final_thread_limit: usize,
    fault_log: Vec<(f64, String)>,
}

fn report(label: &str, result: &RunResult, world: &World, frozen_periods: u64) -> VariantReport {
    let client = world.client();
    let missed = client.total() - client.goodput_count(SLA);
    VariantReport {
        label: label.to_string(),
        completed: result.summary.completed,
        dropped: result.summary.dropped,
        drop_breakdown: result.summary.drop_breakdown,
        retry: result.retry,
        goodput_rps: result.summary.goodput_rps,
        slo_violations: missed + result.summary.dropped,
        p95_ms: result.summary.p95_ms,
        p99_ms: result.summary.p99_ms,
        net: world.network_stats().expect("network installed"),
        telemetry_duplicates_dropped: world.warehouse().duplicates_dropped(),
        frozen_periods,
        final_thread_limit: world.thread_limit(CART),
        fault_log: world
            .fault_log()
            .iter()
            .map(|(at, what)| (at.as_secs_f64(), what.clone()))
            .collect(),
    }
}

fn main() {
    let s = setup();
    let smoke = std::env::args().any(|a| a == "--smoke");

    let outcome = Sweep::from_env().run(vec![
        job("partition-heal", move || {
            let mut sora = sora_over_hpa(s, true);
            let (result, world) = run_variant(
                s,
                base_network(),
                |_| {
                    FaultSchedule::new().partition(
                        SimTime::from_secs(s.fault_at),
                        CART,
                        CART_DB,
                        SimDuration::from_secs(s.fault_secs),
                    )
                },
                &mut sora,
            );
            report("partition-heal", &result, &world, sora.frozen_periods())
        }),
        job("slow-link", move || {
            let mut sora = sora_over_hpa(s, true);
            let (result, world) = run_variant(
                s,
                base_network(),
                |_| {
                    FaultSchedule::new().slow_link(
                        SimTime::from_secs(s.fault_at),
                        CART,
                        CART_DB,
                        s.slow_factor,
                        SimDuration::from_secs(s.fault_secs),
                    )
                },
                &mut sora,
            );
            report("slow-link", &result, &world, sora.frozen_periods())
        }),
        job("retry-storm", move || {
            let mut sora = sora_over_hpa(s, true);
            // Finite bandwidth on the timeout-guarded edge: resends aimed
            // at the crashed CartDB queue behind each other until the
            // bounded queue sheds them as `lost_saturated`.
            let network = base_network().edge(
                CART,
                CART_DB,
                EdgeParams::constant(SimDuration::from_micros(200))
                    .bandwidth(SimDuration::from_millis(3), SimDuration::from_millis(30))
                    .timeout(SimDuration::from_millis(250), 2),
            );
            let (result, world) = run_variant(
                s,
                network,
                |_| {
                    FaultSchedule::new().crash(
                        SimTime::from_secs(s.fault_at),
                        CART_DB,
                        Some(SimDuration::from_secs(s.restart_secs)),
                    )
                },
                &mut sora,
            );
            report("retry-storm", &result, &world, sora.frozen_periods())
        }),
        job("telemetry-reorder-guard", move || {
            let mut sora = sora_over_hpa(s, true);
            let (result, world) = run_variant(
                s,
                reordered_telemetry_network(s),
                |w| control_plane_schedule(s, w),
                &mut sora,
            );
            report(
                "telemetry-reorder-guard",
                &result,
                &world,
                sora.frozen_periods(),
            )
        }),
        job("telemetry-reorder-noguard", move || {
            let mut sora = sora_over_hpa(s, false);
            let (result, world) = run_variant(
                s,
                reordered_telemetry_network(s),
                |w| control_plane_schedule(s, w),
                &mut sora,
            );
            report(
                "telemetry-reorder-noguard",
                &result,
                &world,
                sora.frozen_periods(),
            )
        }),
    ]);
    let variants = outcome.results.clone();

    let mut table = Table::new(vec![
        "scenario",
        "completed",
        "goodput [req/s]",
        "SLO viol",
        "p99 [ms]",
        "net lost (rand/part/sat)",
        "retries/orphans",
        "dup traces",
        "frozen",
    ]);
    for v in &variants {
        table.row(vec![
            v.label.clone(),
            format!("{}", v.completed),
            format!("{:.0}", v.goodput_rps),
            format!("{}", v.slo_violations),
            format!("{:.0}", v.p99_ms),
            format!(
                "{} ({}/{}/{})",
                v.net.lost_total(),
                v.net.lost_random,
                v.net.lost_partitioned,
                v.net.lost_saturated
            ),
            format!("{}/{}", v.net.call_retries, v.net.orphaned_frames),
            format!("{}", v.telemetry_duplicates_dropped),
            format!("{}", v.frozen_periods),
        ]);
    }
    print_table("Network resilience — message-passing substrate", &table);

    let guard = &variants[3];
    let noguard = &variants[4];
    println!("\n== Net-resilience verdict ==");
    println!(
        "partition-heal: {} partition losses, {} call timeouts aborted",
        variants[0].net.lost_partitioned, variants[0].drop_breakdown.net_timed_out
    );
    println!(
        "retry-storm: {} saturated losses from {} resends",
        variants[2].net.lost_saturated, variants[2].net.call_retries
    );
    println!(
        "reordered telemetry: guard {} vs no-guard {} SLO violations \
         (guard froze {} periods; {} duplicate traces deduped)",
        guard.slo_violations,
        noguard.slo_violations,
        guard.frozen_periods,
        guard.telemetry_duplicates_dropped
    );
    let helps = guard.slo_violations < noguard.slo_violations;
    println!(
        "degradation guard under reordered telemetry {}",
        if helps {
            "reduces SLO violations"
        } else {
            "did NOT reduce SLO violations"
        }
    );

    let data = serde_json::json!({
        "setup": {
            "secs": s.secs,
            "fault_at": s.fault_at,
            "fault_secs": s.fault_secs,
            "slow_factor": s.slow_factor,
            "crash_at": s.crash_at,
            "restart_secs": s.restart_secs,
            "pressure_at": s.pressure_at,
            "pressure_secs": s.pressure_secs,
            "blackout_at": s.blackout_at,
            "blackout_secs": s.blackout_secs,
            "staleness_secs": s.staleness_secs,
            "min_window_samples": s.min_window_samples,
            "telemetry_jitter_ms": s.telemetry_jitter_ms,
            "telemetry_loss": s.telemetry_loss,
            "telemetry_dup": s.telemetry_dup,
            "sla_ms": SLA.as_millis_f64(),
            "seed": s.seed,
        },
        "variants": variants,
        "degradation_helps": helps,
    });
    if smoke {
        // The smoke check diffs stdout across --jobs settings; dump the
        // canonical data (the archive file also carries wall-clock perf,
        // which legitimately differs run to run).
        println!(
            "{}",
            serde_json::to_string_pretty(&data).expect("serialize")
        );
    }
    save_json_with_perf("BENCH_net_resilience", &data, &outcome.perf);
}
