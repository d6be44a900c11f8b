//! Figure 5 — the execution path of a Catalogue request and its *dynamic*
//! critical path.
//!
//! Not a measurement figure in the paper, but the phenomenon behind it is
//! measurable: under runtime contention, either the Cart branch (critical
//! path 1) or the Catalogue branch (critical path 2) of the same request
//! type dominates. This binary runs the Catalogue mix under bursty load and
//! reports how often each path shape won, plus each service's PCC with the
//! end-to-end response time — the exact inputs of the critical-service
//! localisation phase.

use apps::{Scenario, SockShop, SockShopParams, Watch};
use sim_core::{Dist, SimDuration, SimRng};
use sora_bench::{job, print_table, save_json_with_perf, Sweep, Table};
use sora_core::NullController;
use std::collections::BTreeMap;
use telemetry::{critical_path, latency_breakdown, per_service_stats};
use workload::{Mix, RateCurve, TraceShape, UserPool};

fn main() {
    let secs = if sora_bench::quick_mode() { 60 } else { 180 };
    // A single run, still submitted through the sweep harness so the perf
    // record (wall-clock, jobs) lands in the results JSON like everywhere
    // else; one job degrades to inline in-thread execution.
    let outcome = Sweep::from_env().run(vec![job("catalogue-mix", move || {
        let mut shop = SockShop::build_with_config(
            SockShopParams::default(),
            microsim::WorldConfig {
                trace_sample_every: 2,
                ..Default::default()
            },
            SimRng::seed_from(19),
        );
        let curve = RateCurve::new(
            TraceShape::LargeVariation,
            2_000.0,
            SimDuration::from_secs(secs),
        );
        let pool = UserPool::new(curve, Dist::exponential_ms(2_500.0), SimRng::seed_from(20));
        let scenario = Scenario::new(
            SimDuration::from_millis(400),
            pool,
            Mix::single(shop.get_catalogue),
            Watch {
                service: shop.catalogue,
                conns: None,
            },
        );
        let mut ctl = NullController;
        let _ = scenario.run(&mut shop.world, &mut ctl);
        shop
    })]);
    let shop = outcome.results.into_iter().next().expect("one run");

    // Tally the critical-path shapes over the retained traces.
    let mut shapes: BTreeMap<String, u64> = BTreeMap::new();
    for trace in shop.world.warehouse().iter() {
        let path = critical_path(trace);
        let name: Vec<&str> = path
            .iter()
            .map(|h| shop.world.service_name(h.service))
            .collect();
        *shapes.entry(name.join(" → ")).or_insert(0) += 1;
    }
    let total: u64 = shapes.values().sum();
    let mut table = Table::new(vec!["critical path", "traces", "share"]);
    let mut rows: Vec<(&String, &u64)> = shapes.iter().collect();
    rows.sort_by_key(|&(_, c)| std::cmp::Reverse(*c));
    for (path, count) in &rows {
        table.row(vec![
            (*path).clone(),
            count.to_string(),
            format!("{:.1}%", 100.0 * **count as f64 / total.max(1) as f64),
        ]);
    }
    print_table(
        "Fig. 5 — dynamic critical paths of the Catalogue request",
        &table,
    );

    let stats = per_service_stats(shop.world.warehouse().iter());
    let mut pcc = Table::new(vec!["service", "on-path traces", "PCC(PT, RT)"]);
    for idx in 0..shop.world.service_count() {
        let svc = telemetry::ServiceId(idx as u32);
        if stats.on_path_count(svc) == 0 {
            continue;
        }
        pcc.row(vec![
            shop.world.service_name(svc).to_string(),
            stats.on_path_count(svc).to_string(),
            stats.pcc(svc).map_or("n/a".into(), |r| format!("{r:.3}")),
        ]);
    }
    print_table(
        "Per-service correlation with end-to-end RT (localisation input)",
        &pcc,
    );
    println!(
        "candidate critical service: {:?}",
        stats
            .candidate_critical_service()
            .map(|s| shop.world.service_name(s).to_string())
    );
    println!("paper's point: both branches appear at runtime — the critical path is dynamic");

    // Bonus diagnosis: where each service's latency goes (queue vs local vs
    // downstream) — the evidence soft-resource adaptation acts on.
    let breakdown = latency_breakdown(shop.world.warehouse().iter());
    let mut bd = Table::new(vec![
        "service",
        "spans",
        "queue [ms]",
        "local [ms]",
        "downstream [ms]",
        "dominant",
    ]);
    for (svc, b) in &breakdown {
        bd.row(vec![
            shop.world.service_name(*svc).to_string(),
            b.spans().to_string(),
            format!("{:.2}", b.queue_wait_ms.mean()),
            format!("{:.2}", b.self_time_ms.mean()),
            format!("{:.2}", b.downstream_wait_ms.mean()),
            b.dominant().to_string(),
        ]);
    }
    print_table("Per-service latency breakdown (tProf-style)", &bd);
    save_json_with_perf(
        "fig05_critical_paths",
        &serde_json::json!(shapes
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect::<Vec<_>>()),
        &outcome.perf,
    );
}
