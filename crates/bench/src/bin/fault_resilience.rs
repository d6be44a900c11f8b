//! Fault resilience — Sora vs HPA-only under a canned fault schedule.
//!
//! The Cart path runs the Steep Tri Phase trace while a deterministic
//! [`FaultSchedule`] injects the three fault families: a Cart replica crash
//! (restarted after a delay), a node CPU-pressure window shrinking every
//! hosted replica's deliverable CPU, and a telemetry blackout overlapping
//! the pressure window. Clients retry dropped requests under a bounded,
//! budgeted backoff policy, so retry storms show up in the report instead
//! of hiding as load.
//!
//! Three controller stacks run the identical schedule:
//!
//! * `hpa-only` — replica scaling, static pools;
//! * `hpa+sora` — Sora with the degradation guard (freeze actuation while
//!   the critical service's telemetry is stale);
//! * `hpa+sora-nodegrade` — the ablation: Sora keeps estimating and
//!   exploring from the poisoned scatter window during the blackout.
//!
//! The blackout is the trap for the ablation: localisation still succeeds
//! on pre-outage traces, node pressure makes CPU utilisation look low while
//! the pool is genuinely saturated, and the scatter window mixes pre-fault
//! points with in-blackout `q > 0, rate = 0` samples — so the guard-less
//! controller explores the pool upward into an oversubscribed, pressured
//! CPU. The verdict compares SLO violations (missed threshold + drops)
//! with the guard on vs off.
//!
//! Flags: `--quick` (3-minute runs), `--smoke` (90 s runs plus a canonical
//! JSON dump on stdout for determinism diffs), `--jobs N` (sweep
//! parallelism; the output is byte-identical for any value).

use apps::{RunResult, Scenario, SockShop, SockShopParams, Watch};
use autoscalers::HpaController;
use microsim::{BlackoutMode, FaultSchedule, World, WorldConfig};
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

/// End-to-end SLA for goodput and SLO-violation accounting.
const SLA: SimDuration = SimDuration::from_millis(400);

/// The canned schedule, scaled per mode.
#[derive(Debug, Clone, Copy)]
struct FaultSetup {
    secs: u64,
    max_users: f64,
    crash_at: u64,
    restart_secs: u64,
    pressure_at: u64,
    pressure_secs: u64,
    pressure_factor: f64,
    blackout_at: u64,
    blackout_secs: u64,
    staleness_secs: u64,
    seed: u64,
}

fn setup() -> FaultSetup {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        FaultSetup {
            secs: 90,
            max_users: 800.0,
            crash_at: 20,
            restart_secs: 10,
            pressure_at: 40,
            pressure_secs: 30,
            pressure_factor: 0.5,
            blackout_at: 40,
            blackout_secs: 25,
            staleness_secs: 20,
            seed: 42,
        }
    } else if sora_bench::quick_mode() {
        FaultSetup {
            secs: 180,
            max_users: 3_500.0,
            crash_at: 40,
            restart_secs: 15,
            pressure_at: 80,
            pressure_secs: 60,
            pressure_factor: 0.35,
            blackout_at: 80,
            blackout_secs: 45,
            staleness_secs: 20,
            seed: 42,
        }
    } else {
        FaultSetup {
            secs: 720,
            max_users: 3_500.0,
            crash_at: 120,
            restart_secs: 30,
            pressure_at: 300,
            pressure_secs: 150,
            pressure_factor: 0.35,
            blackout_at: 300,
            blackout_secs: 120,
            staleness_secs: 30,
            seed: 42,
        }
    }
}

fn schedule(s: FaultSetup, world: &World) -> FaultSchedule {
    // All Sock Shop pods land on the cluster's single default node; read
    // the Cart's placement so the pressure window targets the real host.
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

fn run_variant(s: FaultSetup, controller: &mut dyn Controller) -> (RunResult, World) {
    let mut shop = SockShop::build_with_config(
        SockShopParams::default(),
        WorldConfig {
            trace_sample_every: 10,
            ..Default::default()
        },
        SimRng::seed_from(s.seed),
    );
    let faults = schedule(s, &shop.world);
    shop.world
        .install_faults(faults)
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
    // Crash/pressure/blackout paths must also leave the ledgers clean.
    #[cfg(feature = "audit")]
    assert_eq!(
        shop.world.audit().total(),
        0,
        "audit violations under faults: {}",
        shop.world.audit().summary()
    );
    (result, shop.world)
}

fn sora_over_hpa(s: FaultSetup, degradation: bool) -> SoraController<HpaController> {
    let registry = ResourceRegistry::new().with(
        SoftResource::ThreadPool { service: CART },
        ResourceBounds { min: 5, max: 200 },
    );
    SoraController::sora(
        SoraConfig {
            sla: SLA,
            degradation,
            staleness_bound: SimDuration::from_secs(s.staleness_secs),
            ..Default::default()
        },
        registry,
        HpaController::new(CART, 8),
    )
}

/// One controller stack's results under the canned schedule.
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
    /// Control periods the degradation guard skipped (0 without Sora or
    /// with the guard disabled).
    frozen_periods: u64,
    final_thread_limit: usize,
    peak_thread_limit: usize,
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
        frozen_periods,
        final_thread_limit: world.thread_limit(CART),
        peak_thread_limit: result
            .timeline
            .iter()
            .map(|r| r.thread_limit)
            .max()
            .unwrap_or(0),
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
        job("hpa-only", move || {
            let mut hpa = HpaController::new(CART, 8);
            let (result, world) = run_variant(s, &mut hpa);
            report("hpa-only", &result, &world, 0)
        }),
        job("hpa+sora", move || {
            let mut sora = sora_over_hpa(s, true);
            let (result, world) = run_variant(s, &mut sora);
            report("hpa+sora", &result, &world, sora.frozen_periods())
        }),
        job("hpa+sora-nodegrade", move || {
            let mut sora = sora_over_hpa(s, false);
            let (result, world) = run_variant(s, &mut sora);
            report("hpa+sora-nodegrade", &result, &world, sora.frozen_periods())
        }),
    ]);
    let variants = outcome.results.clone();

    let mut table = Table::new(vec![
        "variant",
        "completed",
        "goodput [req/s]",
        "SLO viol",
        "p99 [ms]",
        "dropped (ref/fail/to/exh)",
        "retries (try/quit/denied)",
        "frozen",
        "threads",
    ]);
    for v in &variants {
        let b = v.drop_breakdown;
        table.row(vec![
            v.label.clone(),
            format!("{}", v.completed),
            format!("{:.0}", v.goodput_rps),
            format!("{}", v.slo_violations),
            format!("{:.0}", v.p99_ms),
            format!(
                "{} ({}/{}/{}/{})",
                v.dropped, b.refused, b.replica_failed, b.client_timeout, b.retries_exhausted
            ),
            format!(
                "{}/{}/{}",
                v.retry.attempts, v.retry.gave_up, v.retry.budget_denied
            ),
            format!("{}", v.frozen_periods),
            format!("{}→{}", v.peak_thread_limit, v.final_thread_limit),
        ]);
    }
    print_table(
        "Fault resilience — Sora vs HPA under the canned schedule",
        &table,
    );
    println!("fault log: {:?}", variants[0].fault_log);

    let degrade = &variants[1];
    let nodegrade = &variants[2];
    println!("\n== Fault-resilience verdict ==");
    println!(
        "SLO violations: degradation-aware {} vs degradation-off {} (guard froze {} periods)",
        degrade.slo_violations, nodegrade.slo_violations, degrade.frozen_periods
    );
    let helps = degrade.slo_violations < nodegrade.slo_violations;
    println!(
        "degradation guard {}",
        if helps {
            "reduces SLO violations"
        } else {
            "did NOT reduce SLO violations"
        }
    );

    let data = serde_json::json!({
        "schedule": {
            "secs": s.secs,
            "crash_at": s.crash_at,
            "restart_secs": s.restart_secs,
            "pressure_at": s.pressure_at,
            "pressure_secs": s.pressure_secs,
            "pressure_factor": s.pressure_factor,
            "blackout_at": s.blackout_at,
            "blackout_secs": s.blackout_secs,
            "staleness_secs": s.staleness_secs,
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
    save_json_with_perf("fault_resilience", &data, &outcome.perf);
}
