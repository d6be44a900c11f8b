//! Kubernetes Vertical Pod Autoscaling (rule-based CPU-limit resizing).

use cluster::Millicores;
use microsim::World;
use sim_core::{SimDuration, SimTime};
use sora_core::{Controller, UtilizationProbe};
use telemetry::ServiceId;

/// Grow the limit when utilisation exceeds this: the paper's 80 % HPA rule
/// (DESIGN §7).
const HIGH_UTILIZATION: f64 = 0.8;
/// Shrink the limit when utilisation falls below this (DESIGN §7).
const LOW_UTILIZATION: f64 = 0.3;
/// Smallest allowed per-pod limit (DESIGN §7).
const MIN_LIMIT: Millicores = Millicores::from_cores(1);
/// Largest allowed per-pod limit: 4 cores, as FIRM's ceiling (DESIGN §7).
const MAX_LIMIT: Millicores = Millicores::from_cores(4);
/// Resize quantum: limits move in whole cores, like recommender buckets
/// (DESIGN §7).
const STEP: Millicores = Millicores::from_cores(1);
/// Minimum time between resizes: two 15 s control periods (DESIGN §7).
const COOLDOWN: SimDuration = SimDuration::from_secs(30);

/// Rule-based vertical scaling of one service's CPU limit: step the limit
/// up when the pods run hot, step it down when they idle. This is the
/// threshold-based vertical scaler the paper pairs with both ConScale and
/// Sora in §5.2's second comparison.
#[derive(Debug, Clone)]
pub struct VpaController {
    service: ServiceId,
    probe: UtilizationProbe,
    last_resize: Option<SimTime>,
}

impl VpaController {
    /// Creates a VPA managing `service`.
    pub fn new(service: ServiceId) -> Self {
        VpaController {
            service,
            probe: UtilizationProbe::new(),
            last_resize: None,
        }
    }

    /// The managed service.
    pub fn service(&self) -> ServiceId {
        self.service
    }

    fn cooled_down(&self, now: SimTime) -> bool {
        self.last_resize
            .is_none_or(|t| now.saturating_since(t) >= COOLDOWN)
    }
}

impl Controller for VpaController {
    fn control(&mut self, world: &mut World, now: SimTime) {
        let util = self.probe.read(world, self.service, now);
        if !self.cooled_down(now) {
            return;
        }
        let current = world.cpu_limit(self.service);
        let desired = if util > HIGH_UTILIZATION {
            (current + STEP).min(MAX_LIMIT)
        } else if util < LOW_UTILIZATION {
            current.saturating_sub(STEP).max(MIN_LIMIT)
        } else {
            current
        };
        if desired != current && world.set_cpu_limit(self.service, desired).is_ok() {
            self.last_resize = Some(now);
        }
    }

    fn name(&self) -> &str {
        "kubernetes-vpa"
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

    fn world() -> (World, ServiceId, RequestTypeId) {
        let cfg = WorldConfig {
            net_delay: Dist::constant_us(0),
            replica_startup: Dist::constant_us(0),
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg, SimRng::seed_from(1));
        let rt = RequestTypeId(0);
        let svc = w.add_service(
            ServiceSpec::new("api")
                .cpu(Millicores::from_cores(1))
                .threads(32)
                .on(rt, Behavior::leaf(Dist::constant_ms(4))),
        );
        let rt = w.add_request_type("r", svc);
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
        (w, svc, rt)
    }

    fn drive(w: &mut World, rt: RequestTypeId, vpa: &mut VpaController, secs: u64, gap_ms: u64) {
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
                vpa.control(w, t(end));
            }
        }
    }

    #[test]
    fn grows_limit_under_load_and_shrinks_when_idle() {
        let (mut w, svc, rt) = world();
        let mut vpa = VpaController::new(svc);
        drive(&mut w, rt, &mut vpa, 90, 3); // ρ ≈ 1.3 on 1 core
        let hot = w.cpu_limit(svc);
        assert!(hot >= Millicores::from_cores(2), "limit should grow: {hot}");
        drive(&mut w, rt, &mut vpa, 120, 0); // idle
        assert_eq!(
            w.cpu_limit(svc),
            Millicores::from_cores(1),
            "idle shrinks to min"
        );
    }

    #[test]
    fn honours_bounds_and_cooldown() {
        let (mut w, svc, rt) = world();
        let mut vpa = VpaController::new(svc);
        // ρ ≈ 4 on 1 core: one step per 30 s cooldown (at 15, 45 and 75 s,
        // skipping the ticks in between), then the 4-core cap holds.
        drive(&mut w, rt, &mut vpa, 150, 1);
        assert_eq!(w.cpu_limit(svc), MAX_LIMIT);
        assert_eq!(vpa.last_resize, Some(t(75_000)));
    }
}
