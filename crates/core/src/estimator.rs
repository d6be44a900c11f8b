//! The Concurrency Estimator: scatter construction + SCG estimation.

use crate::monitor::window_start;
use microsim::World;
use scg::{ConcurrencyEstimate, ScgModel};
use sim_core::{SimDuration, SimTime};
use telemetry::{build_scatter_into, ScatterPoint, ScatterScratch, ServiceId};

/// Metric sampling interval: 100 ms minimises MAPE in the paper's Table 1.
const SAMPLING_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Builds per-replica concurrency/goodput scatter graphs from the live
/// samplers over the trailing 60 s window and runs the SCG model on them.
/// The recommendation is per replica, which is what the soft-resource knobs
/// control.
///
/// The estimator owns the scratch buffers of the whole
/// scatter→bin→estimate pipeline (per-bucket averages and counts, merged
/// points, dense bins), so a controller that calls
/// [`ConcurrencyEstimator::estimate`] every tick allocates nothing in
/// steady state.
#[derive(Debug, Clone)]
pub struct ConcurrencyEstimator {
    /// Goodput (latency-aware, Sora) vs throughput (ConScale's SCT model).
    latency_aware: bool,
    model: ScgModel,
    scratch: ScatterScratch,
    points: Vec<ScatterPoint>,
    bins: Vec<(f64, f64, u64)>,
}

/// Panics unless `service`'s replicas record samplers: an unmonitored
/// service would read as an empty window, which the degradation guard
/// would take for stale telemetry.
pub(crate) fn assert_monitored(world: &World, service: ServiceId) {
    assert!(
        world.is_monitored(service),
        "service {service} ({}) records no samplers: declare it with World::monitor before the run",
        world.service_name(service)
    );
}

impl ConcurrencyEstimator {
    /// Creates an estimator over goodput (`latency_aware`, Sora's SCG
    /// model) or throughput (ConScale's SCT model).
    pub fn new(latency_aware: bool) -> Self {
        ConcurrencyEstimator {
            latency_aware,
            model: ScgModel::default(),
            scratch: ScatterScratch::default(),
            points: Vec::new(),
            bins: Vec::new(),
        }
    }

    /// Whether the estimator scores goodput (Sora) rather than throughput
    /// (ConScale).
    pub fn latency_aware(&self) -> bool {
        self.latency_aware
    }

    /// Collects the scatter for `service` over the trailing window,
    /// merging the per-replica graphs (each replica contributes its own
    /// `<Q, rate>` points — replicas are interchangeable instances, so
    /// their per-instance curves overlay).
    pub fn scatter(
        &self,
        world: &World,
        service: ServiceId,
        now: SimTime,
        threshold: SimDuration,
    ) -> Vec<ScatterPoint> {
        let mut scratch = ScatterScratch::default();
        let mut points = Vec::new();
        self.scatter_into(world, service, now, threshold, &mut scratch, &mut points);
        points
    }

    fn scatter_into(
        &self,
        world: &World,
        service: ServiceId,
        now: SimTime,
        threshold: SimDuration,
        scratch: &mut ScatterScratch,
        points: &mut Vec<ScatterPoint>,
    ) {
        assert_monitored(world, service);
        points.clear();
        let from = window_start(now);
        if from >= now {
            return;
        }
        let thr = self.latency_aware.then_some(threshold);
        for replica in world.ready_replicas_iter(service) {
            let (Some(conc), Some(comp)) =
                (world.concurrency_of(replica), world.completions_of(replica))
            else {
                unreachable!("a monitored service's replicas carry samplers");
            };
            build_scatter_into(
                conc,
                comp,
                from,
                now,
                SAMPLING_INTERVAL,
                thr,
                scratch,
                points,
            );
        }
    }

    /// Estimates the optimal per-replica concurrency for `service` under
    /// `threshold`. `None` means the window carries no trustworthy knee
    /// (insufficient data or an unsaturated pool) — the adapter then
    /// explores upward.
    ///
    /// Takes `&mut self` to reuse the estimator-owned scratch buffers —
    /// the steady-state control loop performs no heap allocation here.
    pub fn estimate(
        &mut self,
        world: &World,
        service: ServiceId,
        now: SimTime,
        threshold: SimDuration,
    ) -> Option<ConcurrencyEstimate> {
        let mut points = std::mem::take(&mut self.points);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.scatter_into(world, service, now, threshold, &mut scratch, &mut points);
        self.model.aggregate_counted_into(&points, &mut self.bins);
        let estimate = self.model.estimate_binned(&self.bins);
        self.points = points;
        self.scratch = scratch;
        estimate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsim::{Behavior, ServiceSpec, World, WorldConfig};
    use sim_core::{Dist, SimRng};
    use telemetry::RequestTypeId;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A 2-core service under heavy Poisson load: optimal concurrency sits
    /// near the point where added threads stop converting into goodput.
    fn loaded_world(threads: usize) -> (World, ServiceId) {
        let cfg = WorldConfig {
            net_delay: Dist::constant_us(0),
            replica_startup: Dist::constant_us(0),
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg, SimRng::seed_from(5));
        let rt = RequestTypeId(0);
        let svc = w.add_service(
            ServiceSpec::new("api")
                .cpu(cluster::Millicores::from_cores(2))
                .threads(threads)
                .csw(0.04)
                .on(rt, Behavior::leaf(Dist::lognormal_ms(4.0, 0.4))),
        );
        let rt = w.add_request_type("r", svc);
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
        w.monitor(svc);
        // ~330 req/s for 60 s — ρ ≈ 0.7 on 2 cores at ~4.3 ms demand, so
        // concurrency fluctuates across bins instead of pinning at the
        // thread limit (an overloaded server yields a flat, useless scatter).
        let mut at = 0u64;
        let mut rng = SimRng::seed_from(9);
        while at < 60_000 {
            at += (rng.f64() * 5.0) as u64 + 1;
            w.inject_at(t(at), rt);
        }
        w.run_until(t(61_000));
        (w, svc)
    }

    #[test]
    fn scatter_is_nonempty_under_load() {
        let (w, svc) = loaded_world(16);
        let est = ConcurrencyEstimator::new(true);
        let pts = est.scatter(&w, svc, t(61_000), SimDuration::from_millis(50));
        assert!(
            pts.len() > 300,
            "one minute at 100 ms ≈ 600 points: {}",
            pts.len()
        );
    }

    #[test]
    fn goodput_scatter_is_below_throughput_scatter() {
        let (w, svc) = loaded_world(16);
        let lat = ConcurrencyEstimator::new(true);
        let thr = ConcurrencyEstimator::new(false);
        let tight = SimDuration::from_millis(8);
        let g: f64 = lat
            .scatter(&w, svc, t(61_000), tight)
            .iter()
            .map(|p| p.rate)
            .sum();
        let tp: f64 = thr
            .scatter(&w, svc, t(61_000), tight)
            .iter()
            .map(|p| p.rate)
            .sum();
        assert!(g < tp, "goodput {g} must be below throughput {tp}");
    }

    #[test]
    fn estimates_a_reasonable_knee_for_a_two_core_service() {
        let (w, svc) = loaded_world(24);
        let mut est = ConcurrencyEstimator::new(true);
        // Generous threshold: knee driven by capacity, near a small multiple
        // of the core count.
        if let Some(e) = est.estimate(&w, svc, t(61_000), SimDuration::from_millis(60)) {
            assert!(
                (2..=16).contains(&e.optimal),
                "2-core service knee should be single-digit-ish: {e:?}"
            );
        } else {
            panic!("saturated service must produce an estimate");
        }
    }

    #[test]
    fn empty_window_yields_no_estimate() {
        let cfg = WorldConfig::default();
        let mut w = World::new(cfg, SimRng::seed_from(0));
        let rt = RequestTypeId(0);
        let svc =
            w.add_service(ServiceSpec::new("idle").on(rt, Behavior::leaf(Dist::constant_ms(1))));
        w.add_request_type("r", svc);
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
        w.monitor(svc);
        let mut est = ConcurrencyEstimator::new(true);
        assert!(est
            .estimate(&w, svc, SimTime::ZERO, SimDuration::from_millis(100))
            .is_none());
        assert!(est
            .estimate(&w, svc, t(10_000), SimDuration::from_millis(100))
            .is_none());
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;
    use microsim::{Behavior, ServiceSpec, World, WorldConfig};
    use sim_core::{Dist, SimRng};
    use telemetry::RequestTypeId;

    #[test]
    #[ignore]
    fn dump_scatter() {
        for gap in [2.0f64, 3.3, 5.0, 8.0] {
            let cfg = WorldConfig {
                net_delay: Dist::constant_us(0),
                replica_startup: Dist::constant_us(0),
                ..WorldConfig::default()
            };
            let mut w = World::new(cfg, SimRng::seed_from(5));
            let rt = RequestTypeId(0);
            let svc = w.add_service(
                ServiceSpec::new("api")
                    .cpu(cluster::Millicores::from_cores(2))
                    .threads(24)
                    .csw(0.04)
                    .on(rt, Behavior::leaf(Dist::lognormal_ms(4.0, 0.4))),
            );
            let rt = w.add_request_type("r", svc);
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
            w.monitor(svc);
            let mut at = 0u64;
            let mut rng = SimRng::seed_from(9);
            while at < 60_000 {
                at += (rng.f64() * gap) as u64 + 1;
                w.inject_at(sim_core::SimTime::from_millis(at), rt);
            }
            w.run_until(sim_core::SimTime::from_millis(61_000));
            let est = ConcurrencyEstimator::new(true);
            let pts = est.scatter(
                &w,
                svc,
                sim_core::SimTime::from_millis(61_000),
                SimDuration::from_millis(60),
            );
            let model = scg::ScgModel::default();
            let bins = model.aggregate(&pts);
            println!("gap={gap}: bins:");
            for (q, r) in &bins {
                println!("  q={q:5.1} rate={r:8.1}");
            }
            println!("estimate: {:?}", model.estimate(&pts));
        }
    }
}
