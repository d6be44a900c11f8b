//! The scenario generator: one seed in, one *valid* [`ScenarioSpec`] out.
//!
//! The generator is deliberately ignorant of the validity rules: it draws
//! candidate features (faults, retry, network, shards, drift) and keeps
//! each one only if [`ScenarioSpec::validate`] accepts the composed spec.
//! Anything `validate` admits must then survive the oracles — a spec that
//! passes the gate but panics or trips the audit is itself a bug, which is
//! exactly what the fuzzer exists to find.

use sim_core::SimRng;
use sora_bench::config::{
    App, FaultSpec, Hardware, NetSpec, RetrySpec, ScenarioSpec, SoftAdaptation,
};
use workload::TraceShape;

/// Draws one element of a slice.
fn pick<T: Copy>(rng: &mut SimRng, options: &[T]) -> T {
    options[rng.index(options.len())]
}

/// A uniform integer in `lo..=hi`.
fn int(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.index((hi - lo + 1) as usize) as u64
}

/// Applies `mutate` to a copy of `spec` and keeps the result only when
/// [`ScenarioSpec::validate`] admits it — the generator's single gate.
fn accept(spec: &mut ScenarioSpec, mutate: impl FnOnce(&mut ScenarioSpec)) -> bool {
    let mut candidate = spec.clone();
    mutate(&mut candidate);
    if candidate.validate().is_ok() {
        *spec = candidate;
        true
    } else {
        false
    }
}

/// One random fault whose window sits inside `horizon_ms`.
fn random_fault(rng: &mut SimRng, services: u32, horizon_ms: u64) -> FaultSpec {
    // Windows start in the first two-thirds of the run and stay well
    // inside the horizon; validate re-checks, so this is a heuristic for
    // acceptance rate, not a correctness requirement.
    let at_ms = int(rng, 100, (horizon_ms * 2 / 3).max(200));
    let span = |rng: &mut SimRng| int(rng, 50, (horizon_ms / 4).max(100));
    match rng.index(5) {
        0 => FaultSpec::Crash {
            service: int(rng, 0, (services - 1) as u64) as u32,
            at_ms,
            restart_after_ms: if rng.chance(0.7) {
                Some(span(rng))
            } else {
                None
            },
        },
        1 => FaultSpec::CpuPressure {
            node: 0,
            at_ms,
            duration_ms: span(rng),
            factor: rng.range_f64(0.2, 1.0),
        },
        2 => FaultSpec::TelemetryBlackout {
            at_ms,
            duration_ms: span(rng),
            lag: rng.chance(0.5),
        },
        3 => FaultSpec::Partition {
            a: int(rng, 0, (services - 1) as u64) as u32,
            b: int(rng, 0, (services - 1) as u64) as u32,
            at_ms,
            duration_ms: span(rng),
        },
        _ => FaultSpec::LinkSlow {
            a: int(rng, 0, (services - 1) as u64) as u32,
            b: int(rng, 0, (services - 1) as u64) as u32,
            at_ms,
            duration_ms: span(rng),
            factor: rng.range_f64(1.5, 8.0),
        },
    }
}

/// Generates the scenario for `seed`. The result always satisfies
/// [`ScenarioSpec::validate`]; the draw sequence is fixed, so the same
/// seed yields the same spec on every host.
pub fn generate(seed: u64) -> ScenarioSpec {
    let mut rng = SimRng::seed_from(seed).split("fuzz-gen");

    // Half the corpus uses generated topologies: that is where scale,
    // shard plans and the world-level metamorphic oracles live.
    let app = match rng.index(4) {
        0 => App::SockShop,
        1 => App::SocialNetwork,
        _ => App::Generated,
    };
    let duration_secs = int(&mut rng, 8, 24);
    let mut spec = ScenarioSpec {
        app,
        trace: pick(
            &mut rng,
            &[
                TraceShape::Steady,
                TraceShape::LargeVariation,
                TraceShape::QuickVarying,
                TraceShape::SlowlyVarying,
                TraceShape::BigSpike,
                TraceShape::DualPhase,
                TraceShape::SteepTriPhase,
            ],
        ),
        max_users: int(&mut rng, 20, 200) as f64,
        duration_secs,
        sla_ms: int(&mut rng, 100, 800),
        hardware: pick(
            &mut rng,
            &[
                Hardware::None,
                Hardware::None,
                Hardware::Hpa,
                Hardware::Vpa,
                Hardware::Firm,
            ],
        ),
        soft: pick(
            &mut rng,
            &[
                SoftAdaptation::None,
                SoftAdaptation::None,
                SoftAdaptation::Sora,
                SoftAdaptation::Conscale,
            ],
        ),
        seed: rng.next_u64(),
        cart_threads: None,
        cart_cores: None,
        home_timeline_conns: None,
        drift_at_secs: None,
        shards: None,
        services: match app {
            App::Generated => Some(int(&mut rng, 6, 60) as usize),
            _ => None,
        },
        topo_seed: match app {
            App::Generated => Some(rng.next_u64()),
            _ => None,
        },
        retry: None,
        net: None,
        faults: Vec::new(),
    };

    // App-specific knobs, each through the validate gate.
    if app == App::SockShop && rng.chance(0.4) {
        let threads = int(&mut rng, 2, 24) as usize;
        accept(&mut spec, |s| s.cart_threads = Some(threads));
    }
    if app == App::SockShop && rng.chance(0.3) {
        let cores = int(&mut rng, 1, 4) as u32;
        accept(&mut spec, |s| s.cart_cores = Some(cores));
    }
    if app == App::SocialNetwork && rng.chance(0.4) {
        let conns = int(&mut rng, 2, 32) as usize;
        accept(&mut spec, |s| s.home_timeline_conns = Some(conns));
    }
    if app != App::SockShop && rng.chance(0.3) {
        let at = int(&mut rng, 1, duration_secs.saturating_sub(1).max(1));
        accept(&mut spec, |s| s.drift_at_secs = Some(at));
    }

    // Retry policy.
    if rng.chance(0.4) {
        let retry = RetrySpec {
            max_retries: Some(int(&mut rng, 1, 5) as u32),
            base_backoff_ms: Some(int(&mut rng, 10, 500)),
            max_backoff_ms: Some(int(&mut rng, 500, 5_000)),
            jitter_frac: Some(rng.range_f64(0.0, 0.5)),
            budget_ratio: Some(rng.range_f64(0.05, 0.5)),
            budget_cap: Some(int(&mut rng, 5, 100) as f64),
        };
        accept(&mut spec, |s| s.retry = Some(retry));
    }

    // Network and shards, each through the gate (which rejects shards
    // over a network without edge latency).
    if rng.chance(0.35) {
        let net = NetSpec {
            latency_us: Some(int(&mut rng, 50, 2_000)),
            loss: if rng.chance(0.5) {
                Some(rng.range_f64(0.0, 0.05))
            } else {
                None
            },
            duplicate: if rng.chance(0.3) {
                Some(rng.range_f64(0.0, 0.05))
            } else {
                None
            },
            call_timeout_ms: if rng.chance(0.4) {
                Some(int(&mut rng, 200, 3_000))
            } else {
                None
            },
            max_call_retries: None,
        };
        let retries = int(&mut rng, 0, 2) as u32;
        accept(&mut spec, |s| {
            s.net = Some(NetSpec {
                max_call_retries: net.call_timeout_ms.map(|_| retries),
                ..net
            });
        });
    }
    if rng.chance(0.4) {
        let shards = int(&mut rng, 1, 6) as usize;
        accept(&mut spec, |s| s.shards = Some(shards));
    }

    // Faults: draw up to four, keeping each only if the composed schedule
    // still passes FaultSchedule::validate_within (overlaps, horizon).
    let services = spec.service_count() as u32;
    let horizon_ms = duration_secs * 1_000;
    for _ in 0..rng.index(5) {
        let fault = random_fault(&mut rng, services, horizon_ms);
        accept(&mut spec, |s| s.faults.push(fault));
    }

    debug_assert!(spec.validate().is_ok(), "generator produced invalid spec");
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_specs_are_valid_and_deterministic() {
        for seed in 0..200u64 {
            let spec = generate(seed);
            spec.validate()
                .unwrap_or_else(|e| panic!("seed {seed}: invalid spec: {e}"));
            assert_eq!(spec, generate(seed), "seed {seed}: non-deterministic");
        }
    }

    #[test]
    fn corpus_covers_the_feature_space() {
        let specs: Vec<ScenarioSpec> = (0..300).map(generate).collect();
        assert!(specs.iter().any(|s| s.app == App::SockShop));
        assert!(specs.iter().any(|s| s.app == App::SocialNetwork));
        assert!(specs.iter().any(|s| s.app == App::Generated));
        assert!(specs.iter().any(|s| !s.faults.is_empty()));
        assert!(specs.iter().any(|s| s.retry.is_some()));
        assert!(specs.iter().any(|s| s.net.is_some()));
        assert!(specs.iter().any(|s| s.shards.is_some()));
        assert!(specs.iter().any(|s| s.drift_at_secs.is_some()));
        // Network and shards compose.
        assert!(specs.iter().any(|s| s.net.is_some() && s.shards.is_some()));
        // Network faults only appear alongside a network.
        use sora_bench::config::FaultSpec;
        assert!(specs.iter().all(|s| {
            s.faults.iter().all(|f| {
                !matches!(f, FaultSpec::Partition { .. } | FaultSpec::LinkSlow { .. })
                    || s.net.is_some()
            })
        }));
    }
}
