//! The Sora controller: the full adaptation loop of Fig. 8.

use crate::estimator::assert_monitored;
use crate::{ConcurrencyAdapter, ConcurrencyEstimator, Controller, Monitor, ResourceRegistry};
use microsim::World;
use scg::{propagate_deadline, MIN_ON_PATH};
use sim_core::{SimDuration, SimTime};

/// Exploration stops once the monitored service's CPU utilisation reaches
/// this level: growing a pool cannot help a CPU-bound service, it only adds
/// oversubscription overhead (DESIGN §7).
const EXPLORE_UTIL_CEILING: f64 = 0.9;

/// Configuration of the Sora control loop.
#[derive(Debug, Clone)]
pub struct SoraConfig {
    /// The end-to-end SLA whose violation Sora mitigates (e.g. 400 ms in
    /// the paper's Figs. 10–12).
    pub sla: SimDuration,
    /// Whether to propagate the SLA along the critical path (eq. 3). When
    /// off, the critical service's goodput threshold is the raw SLA — an
    /// ablation quantifying what deadline propagation contributes.
    pub deadline_propagation: bool,
    /// Graceful degradation under telemetry loss: when the critical
    /// service's freshest completion sample is older than
    /// [`staleness_bound`](Self::staleness_bound) (or absent entirely),
    /// hold the last-known-good estimate and freeze actuation instead of
    /// estimating from a stale scatter window. Off is the ablation: the
    /// controller keeps estimating and exploring from pre-outage data.
    pub degradation: bool,
    /// How old the freshest completion sample may be before the sampling
    /// window counts as stale. Must exceed the control period, or healthy
    /// low-traffic lulls would freeze the controller.
    pub staleness_bound: SimDuration,
    /// Minimum completion samples the critical service must show inside the
    /// trailing [`staleness_bound`](Self::staleness_bound) window for the
    /// degradation guard to trust it. A lossy or reordering telemetry
    /// network can keep *one* recent sample trickling through while losing
    /// or delaying the bulk — freshness alone then green-lights estimating
    /// from a nearly empty scatter. The default of `1` degenerates to the
    /// pure freshness check (a fresh sample *is* one sample in the window),
    /// so behaviour is unchanged unless raised.
    pub min_window_samples: u64,
}

impl Default for SoraConfig {
    fn default() -> Self {
        SoraConfig {
            sla: SimDuration::from_millis(400),
            deadline_propagation: true,
            degradation: true,
            staleness_bound: SimDuration::from_secs(30),
            min_window_samples: 1,
        }
    }
}

/// Sora: latency-sensitive soft-resource adaptation layered over a
/// hardware-only autoscaler `H` (FIRM, HPA, VPA, or [`crate::NullController`]
/// for soft-only operation).
///
/// Each control period it (1) delegates to the hardware autoscaler,
/// (2) localises the critical service, (3) propagates the SLA into that
/// service's response-time threshold, (4) estimates the optimal
/// concurrency with the SCG model, and (5) actuates the owning soft
/// resource, exploring upward when no knee shows and the gated pool has
/// queued demand.
///
/// Constructing it with [`SoraController::conscale`] flips the estimator to
/// the throughput-based SCT model with no deadline propagation — the
/// ConScale baseline of §5.2.
///
/// Every registered resource's monitored service must be declared with
/// [`World::monitor`] before the run: `control` panics when the critical
/// service records no samplers.
pub struct SoraController<H> {
    name: &'static str,
    config: SoraConfig,
    monitor: Monitor,
    estimator: ConcurrencyEstimator,
    registry: ResourceRegistry,
    hardware: H,
    /// Log of `(time, resource-description, new setting)` actuations.
    actions: Vec<(SimTime, String, usize)>,
    /// Control periods skipped because telemetry was empty or stale.
    frozen_periods: u64,
    /// Last trustworthy optimal-concurrency estimate, held across outages.
    last_good: Option<usize>,
}

impl<H: Controller> SoraController<H> {
    /// Creates the latency-aware Sora controller.
    pub fn sora(config: SoraConfig, registry: ResourceRegistry, hardware: H) -> Self {
        Self::build("sora", true, config, registry, hardware)
    }

    /// Creates the ConScale baseline: identical pipeline but the
    /// throughput-based SCT model and no latency awareness.
    pub fn conscale(config: SoraConfig, registry: ResourceRegistry, hardware: H) -> Self {
        Self::build("conscale", false, config, registry, hardware)
    }

    fn build(
        name: &'static str,
        latency_aware: bool,
        config: SoraConfig,
        registry: ResourceRegistry,
        hardware: H,
    ) -> Self {
        SoraController {
            name,
            config,
            monitor: Monitor::new(),
            estimator: ConcurrencyEstimator::new(latency_aware),
            registry,
            hardware,
            actions: Vec::new(),
            frozen_periods: 0,
            last_good: None,
        }
    }

    /// The actuation log: `(time, resource, new setting)` triples.
    pub fn actions(&self) -> &[(SimTime, String, usize)] {
        &self.actions
    }

    /// Control periods skipped by the degradation guard because the
    /// critical service's telemetry was empty or stale.
    pub fn frozen_periods(&self) -> u64 {
        self.frozen_periods
    }

    /// The last trustworthy optimal-concurrency estimate. While the guard
    /// freezes actuation this value (already actuated) embodies the
    /// last-known-good setting.
    pub fn last_good_estimate(&self) -> Option<usize> {
        self.last_good
    }
}

impl<H: Controller> Controller for SoraController<H> {
    fn control(&mut self, world: &mut World, now: SimTime) {
        // 1. Hardware scaling first (Reallocation Module ordering: the
        //    autoscaler signals, then the concurrency adapter follows).
        self.hardware.control(world, now);

        // 2. Observe and localise.
        let obs = self.monitor.observe(world, now);
        let Some(localized) = obs.critical_service() else {
            return;
        };
        // The localised service is ideally gated by a registered knob; if it
        // is not (e.g. the CPU-bound Catalogue is critical while the tunable
        // resource is its DB connection pool), fall back to the registered
        // resource whose monitored service correlates most with end-to-end
        // latency — it shares the critical path with the localised service.
        let picked = self
            .registry
            .for_monitored_service(localized)
            .map(|r| (localized, r))
            .or_else(|| {
                self.registry
                    .iter()
                    .filter(|(r, _)| {
                        obs.path_stats.on_path_count(r.monitored_service()) >= MIN_ON_PATH
                    })
                    .filter_map(|&(r, b)| {
                        obs.path_stats.pcc(r.monitored_service()).map(|p| (p, r, b))
                    })
                    .max_by(|a, b| a.0.total_cmp(&b.0))
                    .map(|(_, r, b)| (r.monitored_service(), (r, b)))
            });
        let Some((critical, (resource, bounds))) = picked else {
            return; // no tunable knob relates to the critical path
        };
        // Everything below reads the critical service's samplers. Without
        // them the guard would freeze on an "empty" window forever.
        assert_monitored(world, critical);

        // 2b. Degradation guard. Localisation above still works through a
        // telemetry blackout (the warehouse window retains pre-outage
        // traces), but the same staleness poisons the estimator's scatter:
        // it describes the pre-fault regime while the live queue reflects
        // the fault. Completion freshness is the tell — if the critical
        // service has produced no sample within the staleness bound, hold
        // the last-known-good setting and skip estimation and exploration
        // entirely rather than actuate on garbage.
        if self.config.degradation {
            let freshest = world
                .ready_replicas_iter(critical)
                .filter_map(|id| world.completions_of(id).and_then(|log| log.latest()))
                .max();
            let stale = match freshest {
                Some(at) => now.saturating_since(at) > self.config.staleness_bound,
                None => true,
            };
            if stale {
                self.frozen_periods += 1;
                return;
            }
            // Reordered-telemetry hardening: freshness checks the *newest*
            // sample, but a lossy or delaying network can deliver a lone
            // recent sample while the rest of the window is still in
            // flight (or gone). Require a minimum population before
            // trusting the scatter. Skipped at the default of 1, where the
            // freshness check above already implies it.
            if self.config.min_window_samples > 1 {
                let from = SimTime::ZERO
                    + now
                        .saturating_since(SimTime::ZERO)
                        .saturating_sub_or_zero(self.config.staleness_bound);
                let samples: u64 = world
                    .ready_replicas_iter(critical)
                    .filter_map(|id| world.completions_of(id))
                    .map(|log| log.count_in(from, now + SimDuration::from_nanos(1)))
                    .sum();
                if samples < self.config.min_window_samples {
                    self.frozen_periods += 1;
                    return;
                }
            }
        }

        // 3. Propagate the deadline along the critical path.
        let upstream = obs
            .path_stats
            .mean_upstream_pt(critical)
            .unwrap_or(SimDuration::ZERO);
        let threshold = if self.estimator.latency_aware() {
            if self.config.deadline_propagation {
                propagate_deadline(self.config.sla, upstream)
            } else {
                self.config.sla
            }
        } else {
            // SCT: threshold is irrelevant (throughput counts everything).
            SimDuration::MAX
        };

        // 4–5. Estimate and actuate. A shrink recommendation is ignored
        // while the pool has queued demand *and* the monitored service's
        // CPU still has headroom: there the scatter window spans the
        // pre-surge regime and the live queue is current evidence that the
        // limit binds — treat it like a missing knee and explore instead.
        // When the CPU is saturated, shrinking is exactly the cure for
        // oversubscription, so the estimate goes through.
        let saturated = ConcurrencyAdapter::is_saturated(world, resource);
        let util = obs.utilization.get(&critical).copied().unwrap_or(0.0);
        let cpu_headroom = util < EXPLORE_UTIL_CEILING;
        let current = ConcurrencyAdapter::current_setting(world, resource);
        let estimate = self.estimator.estimate(world, critical, now, threshold);
        if let Some(est) = &estimate {
            self.last_good = Some(est.optimal);
        }
        match estimate {
            Some(est)
                if !(saturated
                    && cpu_headroom
                    && ConcurrencyAdapter::desired_setting(world, resource, est.optimal)
                        <= current) =>
            {
                if let Some(applied) =
                    ConcurrencyAdapter::apply_estimate(world, resource, bounds, est.optimal)
                {
                    self.actions.push((now, resource.to_string(), applied));
                }
            }
            _ => {
                if saturated && cpu_headroom {
                    if let Some(applied) = ConcurrencyAdapter::explore(world, resource, bounds) {
                        self.actions.push((now, resource.to_string(), applied));
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        self.name
    }

    fn status(&self) -> crate::ControllerStatus {
        crate::ControllerStatus {
            name: self.name.to_string(),
            frozen_periods: self.frozen_periods,
            last_estimate: self.last_good,
            actuations: self.actions.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullController, ResourceBounds, SoftResource};
    use cluster::Millicores;
    use microsim::{Behavior, BlackoutMode, FaultSchedule, ServiceSpec, WorldConfig};
    use sim_core::{Dist, SimRng};
    use telemetry::{RequestTypeId, ServiceId};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A saturated 2-core service with a grossly over-allocated thread
    /// pool: Sora should pull the pool down toward the knee.
    fn overallocated_world() -> (World, ServiceId, RequestTypeId) {
        let (mut w, svc, rt) = unmonitored_world();
        w.monitor(svc);
        (w, svc, rt)
    }

    /// [`overallocated_world`] before its service is declared monitored.
    fn unmonitored_world() -> (World, ServiceId, RequestTypeId) {
        let cfg = WorldConfig {
            net_delay: Dist::constant_us(50),
            replica_startup: Dist::constant_us(0),
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg, SimRng::seed_from(23));
        let rt = RequestTypeId(0);
        let svc = w.add_service(
            ServiceSpec::new("api")
                .cpu(Millicores::from_cores(2))
                .threads(200)
                .csw(0.04)
                .on(rt, Behavior::leaf(Dist::lognormal_ms(4.0, 0.4))),
        );
        let rt = w.add_request_type("r", svc);
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
        (w, svc, rt)
    }

    fn drive(w: &mut World, rt: RequestTypeId, c: &mut impl Controller, secs: u64) {
        let mut rng = SimRng::seed_from(3);
        let mut at = 0u64;
        // ~330 req/s (ρ ≈ 0.7 on 2 cores): bursty but not overloaded.
        let mut next_control = 15_000u64;
        while at < secs * 1000 {
            at += (rng.f64() * 5.0) as u64 + 1;
            w.inject_at(t(at), rt);
            if at >= next_control {
                w.run_until(t(next_control));
                c.control(w, t(next_control));
                next_control += 15_000;
            }
        }
        w.run_until(t(secs * 1000));
    }

    #[test]
    fn sora_pulls_overallocated_pool_toward_the_knee() {
        let (mut w, svc, rt) = overallocated_world();
        let registry = ResourceRegistry::new().with(
            SoftResource::ThreadPool { service: svc },
            ResourceBounds { min: 2, max: 200 },
        );
        let mut sora = SoraController::sora(
            SoraConfig {
                sla: SimDuration::from_millis(60),
                ..Default::default()
            },
            registry,
            NullController,
        );
        drive(&mut w, rt, &mut sora, 180);
        let final_limit = w.thread_limit(svc);
        // Shrinking is damped (≤ 30 % per period), so convergence takes a
        // few control ticks; after 3 minutes the pool must be far below 200.
        assert!(
            final_limit < 60,
            "thread pool should shrink from 200 toward the knee, got {final_limit}"
        );
        assert!(!sora.actions().is_empty(), "at least one actuation");
        assert_eq!(sora.name(), "sora");
    }

    #[test]
    fn sora_explores_underallocated_pool_upward() {
        let (mut w, svc, rt) = overallocated_world();
        w.set_thread_limit(svc, 1); // severe under-allocation: long queue
        let registry = ResourceRegistry::new().with(
            SoftResource::ThreadPool { service: svc },
            ResourceBounds { min: 1, max: 64 },
        );
        let mut sora = SoraController::sora(
            SoraConfig {
                sla: SimDuration::from_millis(60),
                ..Default::default()
            },
            registry,
            NullController,
        );
        drive(&mut w, rt, &mut sora, 60);
        assert!(
            w.thread_limit(svc) > 1,
            "exploration must lift the starved pool: {}",
            w.thread_limit(svc)
        );
    }

    #[test]
    fn conscale_uses_throughput_and_overallocates_relative_to_sora() {
        // Tight SLA: goodput knee sits lower than the throughput knee.
        let run = |latency_aware: bool| {
            let (mut w, svc, rt) = overallocated_world();
            let registry = ResourceRegistry::new().with(
                SoftResource::ThreadPool { service: svc },
                ResourceBounds { min: 2, max: 200 },
            );
            let config = SoraConfig {
                sla: SimDuration::from_millis(25),
                ..Default::default()
            };
            let mut c = if latency_aware {
                SoraController::sora(config, registry, NullController)
            } else {
                SoraController::conscale(config, registry, NullController)
            };
            drive(&mut w, rt, &mut c, 90);
            w.thread_limit(svc)
        };
        let sora_limit = run(true);
        let conscale_limit = run(false);
        assert!(
            sora_limit <= conscale_limit,
            "sora ({sora_limit}) must not allocate above conscale ({conscale_limit})"
        );
    }

    fn registry_2_200(svc: ServiceId) -> ResourceRegistry {
        ResourceRegistry::new().with(
            SoftResource::ThreadPool { service: svc },
            ResourceBounds { min: 2, max: 200 },
        )
    }

    fn degradation_config() -> SoraConfig {
        SoraConfig {
            sla: SimDuration::from_millis(60),
            staleness_bound: SimDuration::from_secs(20),
            ..Default::default()
        }
    }

    /// Injects ~330 req/s Poisson-ish traffic over `[from, to)` ms.
    fn inject_span(w: &mut World, rt: RequestTypeId, rng: &mut SimRng, from: u64, to: u64) {
        let mut at = from;
        while at < to {
            at += (rng.f64() * 5.0) as u64 + 1;
            w.inject_at(t(at), rt);
        }
    }

    #[test]
    fn stale_window_freezes_actuation_at_last_known_good() {
        let (mut w, svc, rt) = overallocated_world();
        let mut sora =
            SoraController::sora(degradation_config(), registry_2_200(svc), NullController);
        let mut rng = SimRng::seed_from(3);
        inject_span(&mut w, rt, &mut rng, 0, 30_000);
        w.run_until(t(30_000));
        sora.control(&mut w, t(30_000));
        assert_eq!(sora.frozen_periods(), 0, "fresh telemetry must not freeze");
        let actions_before = sora.actions().len();
        let limit_before = w.thread_limit(svc);
        // The service goes quiet: by 70 s the freshest completion is ~40 s
        // old, past the 20 s staleness bound.
        w.run_until(t(70_000));
        sora.control(&mut w, t(70_000));
        assert_eq!(sora.frozen_periods(), 1, "stale window must freeze");
        assert_eq!(
            sora.actions().len(),
            actions_before,
            "no actuation while frozen"
        );
        assert_eq!(w.thread_limit(svc), limit_before, "last-known-good held");
    }

    #[test]
    fn empty_completion_window_freezes_instead_of_estimating() {
        let (mut w, svc, rt) = overallocated_world();
        let mut sora =
            SoraController::sora(degradation_config(), registry_2_200(svc), NullController);
        let mut rng = SimRng::seed_from(3);
        inject_span(&mut w, rt, &mut rng, 0, 30_000);
        w.run_until(t(30_000));
        sora.control(&mut w, t(30_000));
        // Let in-flight work drain, then replace the only replica: the
        // fresh pod's completion log is empty while the warehouse still
        // localises from pre-crash traces.
        w.run_until(t(35_000));
        let pod = w.ready_replicas(svc)[0];
        w.fail_replica(pod);
        let fresh = w.recover_replica(svc).unwrap();
        w.make_ready(fresh);
        let frozen_before = sora.frozen_periods();
        w.run_until(t(36_000));
        sora.control(&mut w, t(36_000));
        assert_eq!(
            sora.frozen_periods(),
            frozen_before + 1,
            "empty completion window must freeze"
        );
    }

    #[test]
    fn sparse_window_freezes_when_min_samples_raised() {
        // A lossy/reordering telemetry network can keep one recent sample
        // arriving while losing the bulk: freshness alone passes, the
        // population check must not.
        let run = |min_window_samples: u64| {
            let (mut w, svc, rt) = overallocated_world();
            let mut sora = SoraController::sora(
                SoraConfig {
                    min_window_samples,
                    ..degradation_config()
                },
                registry_2_200(svc),
                NullController,
            );
            let mut rng = SimRng::seed_from(3);
            inject_span(&mut w, rt, &mut rng, 0, 30_000);
            w.run_until(t(30_000));
            sora.control(&mut w, t(30_000));
            assert_eq!(sora.frozen_periods(), 0, "healthy window must not freeze");
            // Traffic collapses to a trickle: the freshest sample stays
            // young while the 20 s window holds only a handful.
            for at in [55_000u64, 60_000, 65_000] {
                w.inject_at(t(at), rt);
            }
            w.run_until(t(66_000));
            sora.control(&mut w, t(66_000));
            sora.frozen_periods()
        };
        assert_eq!(run(1), 0, "freshness-only guard passes the trickle");
        assert_eq!(
            run(50),
            1,
            "sparse window must freeze under a population floor"
        );
    }

    #[test]
    fn estimation_resumes_within_one_period_after_blackout() {
        // Telemetry blackout 40–100 s; control on a 15 s grid. With the
        // 20 s staleness bound, ticks at 75 and 90 s are inside the frozen
        // region; the first tick after the window ends (105 s) sees fresh
        // completions again and must estimate immediately.
        let run = |degradation: bool| {
            let (mut w, svc, rt) = overallocated_world();
            w.install_faults(FaultSchedule::new().telemetry_blackout(
                t(40_000),
                BlackoutMode::Drop,
                SimDuration::from_secs(60),
            ))
            .expect("valid fault schedule");
            let mut sora = SoraController::sora(
                SoraConfig {
                    degradation,
                    ..degradation_config()
                },
                registry_2_200(svc),
                NullController,
            );
            let mut rng = SimRng::seed_from(3);
            let mut frozen_at = std::collections::BTreeMap::new();
            for tick in 1..=12u64 {
                let ms = tick * 15_000;
                inject_span(&mut w, rt, &mut rng, ms - 15_000, ms);
                w.run_until(t(ms));
                sora.control(&mut w, t(ms));
                frozen_at.insert(ms / 1000, sora.frozen_periods());
            }
            (frozen_at, sora.last_good_estimate())
        };

        let (frozen, last_good) = run(true);
        assert!(
            frozen[&90] > frozen[&60],
            "mid-blackout ticks must freeze: {frozen:?}"
        );
        assert_eq!(
            frozen[&105], frozen[&90],
            "first post-blackout tick must estimate, not freeze: {frozen:?}"
        );
        assert_eq!(
            frozen[&180], frozen[&105],
            "no freezes after recovery: {frozen:?}"
        );
        assert!(last_good.is_some(), "estimates resumed after the blackout");

        let (frozen_off, _) = run(false);
        assert_eq!(
            frozen_off[&180], 0,
            "ablation: degradation off never freezes"
        );
    }

    #[test]
    #[should_panic(expected = "declare it with World::monitor")]
    fn reading_an_unmonitored_critical_service_panics() {
        let (mut w, svc, rt) = unmonitored_world();
        let mut conscale =
            SoraController::conscale(SoraConfig::default(), registry_2_200(svc), NullController);
        drive(&mut w, rt, &mut conscale, 30);
    }

    #[test]
    fn no_registered_resource_means_no_action() {
        let (mut w, _svc, rt) = overallocated_world();
        let mut sora = SoraController::sora(
            SoraConfig::default(),
            ResourceRegistry::new(),
            NullController,
        );
        drive(&mut w, rt, &mut sora, 40);
        assert!(sora.actions().is_empty());
    }
}
