//! The Monitoring Module: utilisation sampling and trace analysis.

use crate::UtilizationProbe;
use microsim::World;
use scg::localize_critical_service;
use sim_core::{SimDuration, SimTime};
use std::collections::BTreeMap;
use telemetry::{per_service_stats, CriticalPathStats, ServiceId};

/// The trailing window both the trace analysis and the concurrency scatter
/// read: 60 s accumulates 600 points at 100 ms, the paper's choice
/// balancing curve completeness against agility (§4.1).
const WINDOW: SimDuration = SimDuration::from_secs(60);

/// Start of the trailing `WINDOW` ending at `now` (the run start while less
/// than a window has elapsed).
pub(crate) fn window_start(now: SimTime) -> SimTime {
    SimTime::ZERO
        + now
            .saturating_since(SimTime::ZERO)
            .saturating_sub_or_zero(WINDOW)
}

/// One control period's observation of the system.
#[derive(Debug)]
pub struct Observation {
    /// When the observation was taken.
    pub now: SimTime,
    /// Mean pod CPU busy fraction per service over the elapsed period.
    pub utilization: BTreeMap<ServiceId, f64>,
    /// Critical-path statistics over the analysis window.
    pub path_stats: CriticalPathStats,
}

impl Observation {
    /// The critical service, if any (see [`localize_critical_service`]).
    pub fn critical_service(&self) -> Option<ServiceId> {
        localize_critical_service(&self.path_stats, &self.utilization)
    }
}

/// Collects system-level metrics (CPU utilisation via the per-pod monitors)
/// and application-level traces (the warehouse's trailing 60 s) each
/// control period — the paper's Monitoring Module backed by cAdvisor +
/// Jaeger agents.
#[derive(Debug, Clone, Default)]
pub struct Monitor {
    probe: UtilizationProbe,
}

impl Monitor {
    /// Creates a monitor.
    pub fn new() -> Self {
        Monitor::default()
    }

    /// Takes one observation at `now`. Utilisation is averaged over the
    /// time since this monitor's previous observation.
    pub fn observe(&mut self, world: &mut World, now: SimTime) -> Observation {
        let mut utilization = BTreeMap::new();
        for idx in 0..world.service_count() {
            let service = ServiceId(idx as u32);
            utilization.insert(service, self.probe.read(world, service, now));
        }
        let path_stats = per_service_stats(world.warehouse().iter_window(window_start(now), now));
        Observation {
            now,
            utilization,
            path_stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsim::{Behavior, ServiceSpec, WorldConfig};
    use sim_core::{Dist, SimRng};

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// front → worker chain where the worker dominates latency.
    fn world() -> (World, telemetry::RequestTypeId) {
        let cfg = WorldConfig {
            net_delay: Dist::constant_us(0),
            replica_startup: Dist::constant_us(0),
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg, SimRng::seed_from(1));
        let rt = telemetry::RequestTypeId(0);
        let worker_id = ServiceId(1);
        let front = w.add_service(ServiceSpec::new("front").on(
            rt,
            Behavior::tier(Dist::constant_ms(1), worker_id, Dist::constant_ms(1)),
        ));
        w.add_service(ServiceSpec::new("worker").on(rt, Behavior::leaf(Dist::exponential_ms(8.0))));
        let rt = w.add_request_type("r", front);
        for svc in [front, worker_id] {
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
        }
        (w, rt)
    }

    #[test]
    fn observation_contains_all_services() {
        let (mut w, rt) = world();
        for i in 0..200 {
            w.inject_at(t(i * 5), rt);
        }
        w.run_until(t(2_000));
        let mut m = Monitor::new();
        let obs = m.observe(&mut w, t(2_000));
        assert_eq!(obs.utilization.len(), 2);
        assert_eq!(obs.now, t(2_000));
        assert!(obs.path_stats.trace_count() > 100);
    }

    #[test]
    fn critical_service_is_the_dominant_worker() {
        let (mut w, rt) = world();
        for i in 0..400 {
            w.inject_at(t(i * 4), rt);
        }
        w.run_until(t(2_500));
        let mut m = Monitor::new();
        let obs = m.observe(&mut w, t(2_500));
        let crit = obs.critical_service();
        assert_eq!(crit, Some(ServiceId(1)), "worker dominates end-to-end RT");
    }

    #[test]
    fn utilization_is_per_period_not_cumulative() {
        let (mut w, rt) = world();
        let mut m = Monitor::new();
        // Busy first second.
        for i in 0..100 {
            w.inject_at(t(i * 10), rt);
        }
        w.run_until(t(1_000));
        let busy = m.observe(&mut w, t(1_000));
        // Idle second second.
        w.run_until(t(2_000));
        let idle = m.observe(&mut w, t(2_000));
        let w_id = ServiceId(1);
        assert!(
            busy.utilization[&w_id] > 0.3,
            "busy: {:?}",
            busy.utilization
        );
        assert!(
            idle.utilization[&w_id] < 0.1,
            "idle: {:?}",
            idle.utilization
        );
    }
}
