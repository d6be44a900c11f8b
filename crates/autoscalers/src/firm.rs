//! A FIRM-style fine-grained hardware resource manager.

use cluster::Millicores;
use microsim::World;
use sim_core::{SimDuration, SimTime};
use sora_core::{Controller, Monitor};
use telemetry::ServiceId;

/// Scale the critical service up when its utilisation exceeds this
/// (DESIGN §7).
const HIGH_UTILIZATION: f64 = 0.75;
/// Scale a managed service down when its utilisation falls below this
/// (DESIGN §7).
const LOW_UTILIZATION: f64 = 0.3;
/// CPU floor per pod (DESIGN §7).
const MIN_LIMIT: Millicores = Millicores::from_cores(1);
/// CPU ceiling per pod: 4 cores, the Cart's largest limit in the paper's
/// Figs. 3 and 10 (DESIGN §7).
const MAX_LIMIT: Millicores = Millicores::from_cores(4);
/// Reprovisioning quantum: one core per control period (DESIGN §7).
const STEP: Millicores = Millicores::from_cores(1);
/// Minimum time between scale-downs of the same service; scale-ups are
/// immediate, since FIRM reacts fast to SLO violations (DESIGN §7).
const SCALE_DOWN_COOLDOWN: SimDuration = SimDuration::from_secs(60);

/// A deterministic rendition of FIRM's hardware-management loop
/// (OSDI '20): localise the critical microservice instance from traces
/// (utilisation screening + per-service/end-to-end correlation — the part
/// FIRM does with an SVM) and reprovision its CPU in fine-grained steps
/// (the part FIRM does with DDPG). What matters for the paper's evaluation
/// is preserved exactly: FIRM finds the right instance and gives it more
/// CPU, but never re-adapts thread or connection pools, so pools sized for
/// the old limit become a bottleneck after scale-up (Fig. 10a).
pub struct FirmController {
    /// Services under management (candidates for reprovisioning).
    services: Vec<ServiceId>,
    monitor: Monitor,
    last_scale_down: std::collections::BTreeMap<ServiceId, SimTime>,
    /// Log of `(time, service, new limit)` scaling actions.
    actions: Vec<(SimTime, ServiceId, Millicores)>,
}

impl FirmController {
    /// Creates a FIRM-style manager of `services`, reading the same 60 s
    /// trace window as Sora.
    pub fn new(services: Vec<ServiceId>) -> Self {
        FirmController {
            services,
            monitor: Monitor::new(),
            last_scale_down: Default::default(),
            actions: Vec::new(),
        }
    }

    /// The scaling-action log.
    pub fn actions(&self) -> &[(SimTime, ServiceId, Millicores)] {
        &self.actions
    }
}

impl Controller for FirmController {
    fn control(&mut self, world: &mut World, now: SimTime) {
        let obs = self.monitor.observe(world, now);
        // Scale *up* the critical service when it runs hot.
        if let Some(critical) = obs.critical_service() {
            if self.services.contains(&critical) {
                let util = obs.utilization.get(&critical).copied().unwrap_or(0.0);
                let current = world.cpu_limit(critical);
                if util > HIGH_UTILIZATION && current < MAX_LIMIT {
                    let desired = (current + STEP).min(MAX_LIMIT);
                    if world.set_cpu_limit(critical, desired).is_ok() {
                        self.actions.push((now, critical, desired));
                    }
                }
            }
        }
        // Scale *down* idle managed services (reclaiming over-provisioning,
        // FIRM's resource-efficiency objective).
        for &service in &self.services {
            let util = obs.utilization.get(&service).copied().unwrap_or(0.0);
            let current = world.cpu_limit(service);
            let cooled = self
                .last_scale_down
                .get(&service)
                .is_none_or(|&t| now.saturating_since(t) >= SCALE_DOWN_COOLDOWN);
            if util < LOW_UTILIZATION && current > MIN_LIMIT && cooled {
                let desired = current.saturating_sub(STEP).max(MIN_LIMIT);
                if world.set_cpu_limit(service, desired).is_ok() {
                    self.last_scale_down.insert(service, now);
                    self.actions.push((now, service, desired));
                }
            }
        }
    }

    fn name(&self) -> &str {
        "firm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsim::{Behavior, ServiceSpec, WorldConfig};
    use sim_core::{Dist, SimRng};
    use telemetry::RequestTypeId;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// front → worker; the worker saturates its single core.
    fn world() -> (World, ServiceId, ServiceId, RequestTypeId) {
        let cfg = WorldConfig {
            net_delay: Dist::constant_us(0),
            replica_startup: Dist::constant_us(0),
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg, SimRng::seed_from(4));
        let rt = RequestTypeId(0);
        let worker_id = ServiceId(1);
        let front = w.add_service(
            ServiceSpec::new("front")
                .cpu(Millicores::from_cores(2))
                .threads(64)
                .on(
                    rt,
                    Behavior::tier(Dist::constant_ms(1), worker_id, Dist::constant_us(500)),
                ),
        );
        w.add_service(
            ServiceSpec::new("worker")
                .cpu(Millicores::from_cores(1))
                .threads(64)
                .on(rt, Behavior::leaf(Dist::lognormal_ms(4.0, 0.3))),
        );
        let rt = w.add_request_type("r", front);
        for svc in [front, worker_id] {
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
        }
        (w, front, worker_id, rt)
    }

    fn drive(w: &mut World, rt: RequestTypeId, c: &mut FirmController, secs: u64, gap_ms: u64) {
        let mut at = 0u64;
        for tick in 1..=secs {
            let end = tick * 1000;
            if gap_ms > 0 {
                while at < end {
                    at += gap_ms;
                    w.inject_at(t(at), rt);
                }
            }
            w.run_until(t(end));
            if tick % 15 == 0 {
                c.control(w, t(end));
            }
        }
    }

    #[test]
    fn scales_up_the_critical_service_only() {
        let (mut w, front, worker, rt) = world();
        let mut firm = FirmController::new(vec![front, worker]);
        drive(&mut w, rt, &mut firm, 90, 3); // ρ ≈ 1.4 at the worker
        assert!(
            w.cpu_limit(worker) >= Millicores::from_cores(2),
            "worker (critical) must be scaled up: {}",
            w.cpu_limit(worker)
        );
        assert!(
            firm.actions().iter().any(|&(_, s, _)| s == worker),
            "actions recorded for the worker"
        );
    }

    #[test]
    fn reclaims_idle_capacity() {
        let (mut w, front, worker, rt) = world();
        w.set_cpu_limit(worker, Millicores::from_cores(4)).unwrap();
        let mut firm = FirmController::new(vec![front, worker]);
        // Fully idle: 4 → 3 → 2 → 1 cores at 15, 75 and 135 s, one step
        // per 60 s cooldown.
        drive(&mut w, rt, &mut firm, 135, 0);
        assert_eq!(
            w.cpu_limit(worker),
            Millicores::from_cores(1),
            "idle limit reclaimed"
        );
    }

    #[test]
    fn never_exceeds_the_ceiling() {
        let (mut w, front, worker, rt) = world();
        let mut firm = FirmController::new(vec![front, worker]);
        drive(&mut w, rt, &mut firm, 150, 1); // massive overload
        assert_eq!(w.cpu_limit(worker), MAX_LIMIT);
    }
}
