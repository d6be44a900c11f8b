//! Figure 1 — the motivating example: Kubernetes HPA scales the bottleneck
//! Catalogue service out, but the *over-allocated* per-replica database
//! connection pool multiplies with the replica count and floods
//! Catalogue-db, so response time keeps spiking. Sora adapts the pool.

use apps::{Scenario, SockShop, SockShopParams, Watch};
use autoscalers::HpaController;
use microsim::WorldConfig;
use sim_core::{Dist, SimDuration, SimRng};
use sora_bench::{job, print_table, save_json_with_perf, Sweep, Table};
use sora_core::{
    Controller, ResourceBounds, ResourceRegistry, SoftResource, SoraConfig, SoraController,
};
use telemetry::ServiceId;
use workload::{Mix, RateCurve, TraceShape, UserPool};

const CATALOGUE: ServiceId = ServiceId(3);
const CATALOGUE_DB: ServiceId = ServiceId(4);

/// A Catalogue with a grossly over-allocated DB pool (60 conns/replica),
/// as a team might configure "to be safe".
fn shop() -> SockShop {
    SockShop::build_with_config(
        SockShopParams {
            catalogue_db_conns: 60,
            catalogue_db_csw: 0.05, // a contention-prone database engine
            ..Default::default()
        },
        WorldConfig {
            trace_sample_every: 5,
            ..Default::default()
        },
        SimRng::seed_from(11),
    )
}

fn run(with_sora: bool, secs: u64) -> apps::RunResult {
    let mut s = shop();
    // Dual phase: the sustained high phase reliably trips HPA's CPU rule,
    // mirroring Fig. 1's scale-out event at ~60 s.
    let curve = RateCurve::new(TraceShape::DualPhase, 3_000.0, SimDuration::from_secs(secs));
    let pool = UserPool::new(curve, Dist::exponential_ms(2_500.0), SimRng::seed_from(3));
    let watch = Watch {
        service: CATALOGUE,
        conns: Some((CATALOGUE, CATALOGUE_DB)),
    };
    let scenario = Scenario::new(
        SimDuration::from_millis(400),
        pool,
        Mix::single(s.get_catalogue),
        watch,
    );
    let hpa = HpaController::new(CATALOGUE, 6);
    if with_sora {
        let registry = ResourceRegistry::new().with(
            SoftResource::ConnPool {
                caller: CATALOGUE,
                target: CATALOGUE_DB,
            },
            ResourceBounds { min: 2, max: 128 },
        );
        let mut sora = SoraController::sora(
            SoraConfig {
                sla: SimDuration::from_millis(400),
                ..Default::default()
            },
            registry,
            hpa,
        );
        s.world.monitor(CATALOGUE_DB);
        scenario.run(&mut s.world, &mut sora)
    } else {
        let mut hpa = hpa;
        scenario.run(&mut s.world, &mut hpa as &mut dyn Controller)
    }
}

fn main() {
    let secs = if sora_bench::quick_mode() { 120 } else { 180 }; // Fig. 1 spans 180 s
    let outcome = Sweep::from_env().run(vec![
        job("hpa-only", move || run(false, secs)),
        job("hpa+sora", move || run(true, secs)),
    ]);
    let [hpa_res, sora_res]: [apps::RunResult; 2] = outcome.results.try_into().expect("two runs");

    let mut table = Table::new(vec![
        "t [s]",
        "HPA RT [ms]",
        "Sora RT [ms]",
        "HPA est. conns",
        "Sora est. conns",
        "HPA replicas",
        "Sora replicas",
    ]);
    for (h, s) in hpa_res.timeline.iter().zip(&sora_res.timeline).step_by(10) {
        let t = h.t_secs as usize;
        let rt = |r: &apps::RunResult| {
            r.rt_timeline
                .get(t.saturating_sub(1))
                .map_or(0.0, |&(_, v)| v)
        };
        table.row(vec![
            format!("{t}"),
            format!("{:.0}", rt(&hpa_res)),
            format!("{:.0}", rt(&sora_res)),
            format!("{}", h.conns_established),
            format!("{}", s.conns_established),
            format!("{}", h.replicas),
            format!("{}", s.replicas),
        ]);
    }
    print_table(
        "Fig. 1 — HPA scale-out with over-allocated DB pool vs Sora",
        &table,
    );
    println!(
        "p99: HPA {:.0} ms vs Sora {:.0} ms; goodput {:.0} vs {:.0} req/s",
        hpa_res.summary.p99_ms,
        sora_res.summary.p99_ms,
        hpa_res.summary.goodput_rps,
        sora_res.summary.goodput_rps
    );
    save_json_with_perf(
        "fig01_hpa_overalloc",
        &serde_json::json!({
            "hpa": { "timeline": hpa_res.timeline, "rt": hpa_res.rt_timeline,
                      "summary": hpa_res.summary },
            "sora": { "timeline": sora_res.timeline, "rt": sora_res.rt_timeline,
                       "summary": sora_res.summary },
        }),
        &outcome.perf,
    );
}
