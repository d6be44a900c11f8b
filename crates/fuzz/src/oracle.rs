//! The oracle stack: every cross-run check a fuzzed scenario must pass.
//!
//! Ordering is cheapest-first and the first failure wins, so a shrink
//! pass chasing one oracle's violation re-runs as little as possible:
//!
//! 1. **injected** — the test-only seeded defect ([`FuzzOptions::inject_bad`]);
//! 2. **round_trip** — `ScenarioSpec::parse(emit(spec))` must yield the
//!    same spec, and its canon cache key must be stable across respellings;
//! 3. **panic** — building and running the scenario must not panic
//!    (observed via `catch_unwind`, surfaced as a violation);
//! 4. **audit** — with `--features audit`, the run's conservation-law
//!    verdict must be clean;
//! 5. **shard_invariance** — the spec run unsharded and at `shards = 4`
//!    must produce byte-identical result payloads;
//! 6. **time_translation** / **replica_permutation** — for generated
//!    topologies, the world-level metamorphic invariances of
//!    `tests/metamorphic.rs`, with the spec's own fault schedule riding
//!    along (shifted by the same Δ for translation).

use std::panic::{catch_unwind, AssertUnwindSafe};

use sim_core::{SimDuration, SimRng, SimTime};
use sora_bench::config::{App, FaultSpec, ScenarioSpec};
use topo::TopoParams;

/// One observed oracle failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle fired (`"audit"`, `"shard_invariance"`, …).
    pub oracle: &'static str,
    /// Deterministic human-readable diagnosis.
    pub detail: String,
}

/// Fuzzer knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzOptions {
    /// Test-only seeded defect: report a synthetic violation for any spec
    /// carrying a telemetry-blackout fault at an odd millisecond. Exists
    /// so the detector → shrinker → reproducer pipeline can be exercised
    /// end to end without a real simulator bug.
    pub inject_bad: bool,
}

/// Runs `f`, converting a panic into a [`Violation`] with a deterministic
/// payload rendering.
fn run_panic_free<T>(stage: &str, f: impl FnOnce() -> T) -> Result<T, Violation> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Violation {
            oracle: "panic",
            detail: format!("{stage}: {msg}"),
        }
    })
}

/// The comparable payload of a run: everything `scenario_result_data`
/// reports except the spec itself (which legitimately differs when the
/// oracle overrides `shards`).
fn comparable_text(spec: &ScenarioSpec) -> Result<String, Violation> {
    run_panic_free(&format!("run (shards = {:?})", spec.shards), || {
        let outcome = spec.run();
        serde_json::to_string_pretty(&serde_json::json!({
            "summary": outcome.summary,
            "timeline": outcome.result.timeline,
            "rt": outcome.result.rt_timeline,
            "goodput": outcome.result.goodput_timeline,
        }))
        .expect("result serialises")
    })
}

/// First line on which two multi-line texts differ, for compact diffs.
fn first_divergence(a: &str, b: &str) -> String {
    for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            return format!("line {}: `{la}` vs `{lb}`", i + 1);
        }
    }
    format!(
        "lengths differ: {} vs {} lines",
        a.lines().count(),
        b.lines().count()
    )
}

/// The spec's `parse(emit(..))` round-trip and canon-key stability.
fn check_round_trip(spec: &ScenarioSpec) -> Option<Violation> {
    let violation = |detail: String| {
        Some(Violation {
            oracle: "round_trip",
            detail,
        })
    };
    let pretty = spec.emit();
    let back = match ScenarioSpec::parse(&pretty) {
        Ok(s) => s,
        Err(e) => return violation(format!("emitted spec fails to parse: {e}")),
    };
    if back != *spec {
        return violation("parse(emit(spec)) != spec".to_string());
    }
    // A compact respelling of the same spec must parse back equal and
    // land on the same content-addressed cache key.
    let compact = serde_json::to_string(spec).expect("spec serialises");
    let back_compact = match ScenarioSpec::parse(&compact) {
        Ok(s) => s,
        Err(e) => return violation(format!("compact respelling fails to parse: {e}")),
    };
    if back_compact != *spec {
        return violation("compact respelling parses to a different spec".to_string());
    }
    let key = sora_server::canon::cache_key(spec);
    for respelled in [&back, &back_compact] {
        if sora_server::canon::cache_key(respelled) != key {
            return violation("canon cache key differs across respellings".to_string());
        }
    }
    None
}

/// The audited scenario run: panics surface as violations; with
/// `--features audit` the conservation-law verdict must be clean.
fn check_run(spec: &ScenarioSpec) -> Option<Violation> {
    let outcome = match run_panic_free("run", || spec.run()) {
        Ok(o) => o,
        Err(v) => return Some(v),
    };
    #[cfg(feature = "audit")]
    {
        let report = outcome.world.audit().report();
        if !report.clean {
            return Some(Violation {
                oracle: "audit",
                detail: format!(
                    "{} violation(s): {}",
                    report.total,
                    report
                        .counts
                        .iter()
                        .map(|(name, n)| format!("{name}={n}"))
                        .collect::<Vec<_>>()
                        .join(" ")
                ),
            });
        }
    }
    let _ = outcome;
    None
}

/// Shard invariance: the shard tally only counts, so the spec at 4 shards
/// must reproduce the never-sharded payload exactly. Skipped when the gate
/// rejects the 4-shard variant (a network without edge latency).
fn check_shard_invariance(spec: &ScenarioSpec) -> Option<Violation> {
    let with_shards = |shards| ScenarioSpec {
        shards,
        ..spec.clone()
    };
    let sharded_spec = with_shards(Some(4));
    if sharded_spec.validate().is_err() {
        return None;
    }
    let unsharded = match comparable_text(&with_shards(None)) {
        Ok(t) => t,
        Err(v) => return Some(v),
    };
    let sharded = match comparable_text(&sharded_spec) {
        Ok(t) => t,
        Err(v) => return Some(v),
    };
    if unsharded != sharded {
        return Some(Violation {
            oracle: "shard_invariance",
            detail: format!(
                "unsharded vs shards=4 diverged: {}",
                first_divergence(&unsharded, &sharded)
            ),
        });
    }
    None
}

/// What the world-level runners observe — enough to detect any
/// translation- or permutation-dependence without hauling full payloads.
#[derive(Debug, PartialEq)]
struct WorldObs {
    completions: Vec<(u64, u64, u64)>,
    dropped: u64,
    client_total: u64,
    mean_rt_nanos: u64,
}

/// The generated-topology world of `spec`, driven with a fixed injection
/// pattern translated by `shift_ms` (faults included).
fn run_topo(spec: &ScenarioSpec, shift_ms: u64, extra_replicas: &[u32]) -> WorldObs {
    let services = spec.services.expect("generated app has services");
    let mut params = TopoParams::sock_shop_like(services);
    if let Some(seed) = spec.topo_seed {
        params.seed = seed;
    }
    let t = topo::build(
        &params,
        microsim::WorldConfig::default(),
        SimRng::seed_from(spec.seed),
    );
    let mut w = t.world;
    for &svc in extra_replicas {
        let pod = w
            .add_replica(telemetry::ServiceId(svc))
            .expect("replica fits");
        w.make_ready(pod);
    }
    if !spec.faults.is_empty() {
        let shifted = ScenarioSpec {
            faults: spec.faults.iter().map(|f| f.shifted_ms(shift_ms)).collect(),
            ..spec.clone()
        };
        w.install_faults(shifted.fault_schedule())
            .expect("validated schedule stays valid under translation");
    }
    for i in 0..150u64 {
        let rt = t.request_types[(i % t.request_types.len() as u64) as usize];
        w.inject_at(SimTime::from_millis(shift_ms + 1 + i * 3), rt);
    }
    let done = w.run_until(SimTime::from_millis(shift_ms) + SimDuration::from_secs(3_600));
    WorldObs {
        completions: done
            .iter()
            .map(|c| {
                (
                    c.issued
                        .as_nanos()
                        .saturating_sub(SimTime::from_millis(shift_ms).as_nanos()),
                    c.completed
                        .as_nanos()
                        .saturating_sub(SimTime::from_millis(shift_ms).as_nanos()),
                    c.response_time.as_nanos(),
                )
            })
            .collect(),
        dropped: w.dropped(),
        client_total: w.client().total(),
        mean_rt_nanos: w.client().mean_response_time().map_or(0, |d| d.as_nanos()),
    }
}

/// Time translation: shifting every input (injections and fault instants)
/// by Δ must shift completions by exactly Δ and change no duration.
fn check_time_translation(spec: &ScenarioSpec) -> Option<Violation> {
    if spec.app != App::Generated || spec.net.is_some() {
        return None;
    }
    let base = match run_panic_free("translation base", || run_topo(spec, 0, &[])) {
        Ok(o) => o,
        Err(v) => return Some(v),
    };
    let shifted = match run_panic_free("translation shifted", || run_topo(spec, 500_000, &[])) {
        Ok(o) => o,
        Err(v) => return Some(v),
    };
    if base != shifted {
        return Some(Violation {
            oracle: "time_translation",
            detail: format!(
                "translated run diverged: {} vs {} completions, dropped {} vs {}, mean rt {} vs {}",
                base.completions.len(),
                shifted.completions.len(),
                base.dropped,
                shifted.dropped,
                base.mean_rt_nanos,
                shifted.mean_rt_nanos,
            ),
        });
    }
    None
}

/// Replica-spawn permutation: scaling out the same per-service replica
/// sets in a different global order must leave every aggregate unchanged.
/// Not applicable with crash faults: the crash victim is the longest-lived
/// ready replica, so the *within-service* multiset is no longer the only
/// thing that matters.
fn check_replica_permutation(spec: &ScenarioSpec) -> Option<Violation> {
    if spec.app != App::Generated || spec.net.is_some() {
        return None;
    }
    if spec
        .faults
        .iter()
        .any(|f| matches!(f, FaultSpec::Crash { .. }))
    {
        return None;
    }
    let services = spec.services.expect("generated app has services") as u32;
    // Four deterministic scale-out targets drawn from the spec seed.
    let mut rng = SimRng::seed_from(spec.seed).split("fuzz-permute");
    let targets: Vec<u32> = (0..4)
        .map(|_| rng.index(services as usize) as u32)
        .collect();
    let reversed: Vec<u32> = targets.iter().rev().copied().collect();
    let base = match run_panic_free("permutation base", || run_topo(spec, 0, &targets)) {
        Ok(o) => o,
        Err(v) => return Some(v),
    };
    let permuted = match run_panic_free("permutation reversed", || run_topo(spec, 0, &reversed)) {
        Ok(o) => o,
        Err(v) => return Some(v),
    };
    // Pod ids differ, so compare aggregates only.
    let agg = |o: &WorldObs| {
        (
            o.completions.len(),
            o.dropped,
            o.client_total,
            o.mean_rt_nanos,
        )
    };
    if agg(&base) != agg(&permuted) {
        return Some(Violation {
            oracle: "replica_permutation",
            detail: format!(
                "spawn order changed aggregates: {:?} vs {:?}",
                agg(&base),
                agg(&permuted)
            ),
        });
    }
    None
}

/// The test-only seeded defect: pretends any spec with a telemetry
/// blackout at an odd millisecond trips an invariant. Keyed to a spec
/// property (not the seed) so the shrinker must preserve the trigger while
/// stripping everything else.
fn check_injected(spec: &ScenarioSpec) -> Option<Violation> {
    let trigger = spec
        .faults
        .iter()
        .any(|f| matches!(f, FaultSpec::TelemetryBlackout { at_ms, .. } if at_ms % 2 == 1));
    trigger.then(|| Violation {
        oracle: "injected",
        detail: "seeded defect: telemetry blackout at an odd millisecond".to_string(),
    })
}

/// Runs the full oracle stack over a valid spec, returning the first
/// violation (or `None` for a clean scenario).
pub fn check(spec: &ScenarioSpec, opts: &FuzzOptions) -> Option<Violation> {
    if opts.inject_bad {
        if let Some(v) = check_injected(spec) {
            return Some(v);
        }
    }
    check_round_trip(spec)
        .or_else(|| check_run(spec))
        .or_else(|| check_shard_invariance(spec))
        .or_else(|| check_time_translation(spec))
        .or_else(|| check_replica_permutation(spec))
}
