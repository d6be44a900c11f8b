//! Figure 4 — response-time distributions of the 4-core Cart under 30 vs
//! 80 threads, and the goodput-order reversal between a 150 ms and a 250 ms
//! threshold.
//!
//! The paper's semi-log histograms show the 80-thread pool concentrating
//! mass at lower latency (no accept-queue wait) while spreading a heavier
//! tail (sharing overhead); which allocation "wins" depends on where the
//! threshold cuts the two distributions.

use sim_core::SimDuration;
use sora_bench::{job, print_table, save_json_with_perf, App, ScenarioSpec, Sweep, Table};
use workload::TraceShape;

const THRESHOLDS_MS: [u64; 6] = [25, 50, 100, 150, 250, 400];

fn histogram_for(threads: usize, secs: u64) -> (Vec<(f64, u64)>, [u64; 6], u64) {
    let spec = ScenarioSpec {
        seed: 13,
        cart_threads: Some(threads),
        cart_cores: Some(4),
        ..ScenarioSpec::new(App::SockShop, TraceShape::Steady, 3_000.0, secs, 250)
    };
    let world = spec.run().world;
    let hist: Vec<(f64, u64)> = world
        .client()
        .histogram()
        .iter()
        .map(|(bound, count)| (bound.as_millis_f64(), count))
        .collect();
    let within = |ms: u64| world.client().goodput_count(SimDuration::from_millis(ms));
    let total = world.client().total();
    (hist, THRESHOLDS_MS.map(within), total)
}

fn main() {
    let secs = if sora_bench::quick_mode() { 60 } else { 180 };
    let outcome = Sweep::from_env().run(vec![
        job("cart-30-threads", move || histogram_for(30, secs)),
        job("cart-80-threads", move || histogram_for(80, secs)),
    ]);
    let mut results = outcome.results.into_iter();
    let (h30, g30, t30) = results.next().expect("30-thread run");
    let (h80, g80, t80) = results.next().expect("80-thread run");

    // Coarse console rendition of the semi-log histogram: counts per
    // decade-ish latency band.
    let bands = [
        5.0,
        10.0,
        25.0,
        50.0,
        100.0,
        150.0,
        250.0,
        400.0,
        1_000.0,
        f64::MAX,
    ];
    let in_band = |h: &[(f64, u64)], lo: f64, hi: f64| {
        h.iter()
            .filter(|&&(b, _)| b > lo && b <= hi)
            .map(|&(_, c)| c)
            .sum::<u64>()
    };
    let mut table = Table::new(vec!["RT band [ms]", "30 threads [#]", "80 threads [#]"]);
    let mut lo = 0.0;
    for &hi in &bands {
        let label = if hi == f64::MAX {
            format!(">{lo:.0}")
        } else {
            format!("{lo:.0}–{hi:.0}")
        };
        table.row(vec![
            label,
            format!("{}", in_band(&h30, lo, hi)),
            format!("{}", in_band(&h80, lo, hi)),
        ]);
        lo = hi;
    }
    print_table(
        "Fig. 4 — Cart response-time distribution, 30 vs 80 threads",
        &table,
    );

    let mut verdict = Table::new(vec![
        "threshold",
        "goodput 30 thr",
        "goodput 80 thr",
        "ratio 30/80",
    ]);
    for (i, ms) in THRESHOLDS_MS.into_iter().enumerate() {
        verdict.row(vec![
            format!("{ms} ms"),
            format!("{} / {}", g30[i], t30),
            format!("{} / {}", g80[i], t80),
            format!("{:.2}", g30[i] as f64 / g80[i].max(1) as f64),
        ]);
    }
    print_table("Fig. 4 — goodput order vs threshold", &verdict);
    println!(
        "paper's claim: the 30- vs 80-thread order depends on the threshold.\n\
         In this substrate the smaller pool dominates at every threshold under\n\
         egalitarian processor sharing, but the RATIO varies strongly with the\n\
         threshold — the distributions cross exactly as in the paper's Fig. 4\n\
         (see the band table above); EXPERIMENTS.md discusses the deviation."
    );

    save_json_with_perf(
        "fig04_rt_distribution",
        &serde_json::json!({
            "hist_30": h30, "hist_80": h80,
            "goodput_150_250_thr30": g30, "goodput_150_250_thr80": g80,
            "total_30": t30, "total_80": t80,
        }),
        &outcome.perf,
    );
}
