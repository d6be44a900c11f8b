//! Kubernetes Horizontal Pod Autoscaling (rule-based replica scaling).

use microsim::World;
use sim_core::{SimDuration, SimTime};
use sora_core::{Controller, UtilizationProbe};
use telemetry::ServiceId;

/// Target mean CPU utilisation: the paper's HPA rule is "Pod CPU
/// utilisation > 80 %" (DESIGN §7); the 15 s control period is supplied by
/// the runner.
const TARGET_UTILIZATION: f64 = 0.8;
/// Replica floor (DESIGN §7).
const MIN_REPLICAS: usize = 1;
/// Scale-*down* stabilisation: act on the maximum desired replica count
/// seen over this trailing window. Kubernetes defaults to 5 min; the
/// paper's 12-minute runs warrant a tighter 60 s (DESIGN §7).
const STABILIZATION: SimDuration = SimDuration::from_secs(60);

/// The Kubernetes HPA algorithm for one service:
/// `desired = ceil(ready × utilisation / target)`, scaling out
/// immediately and scaling in only as far as the stabilisation window
/// allows.
#[derive(Debug, Clone)]
pub struct HpaController {
    service: ServiceId,
    /// Replica ceiling.
    max_replicas: usize,
    probe: UtilizationProbe,
    /// Trailing `(time, desired)` recommendations for stabilisation.
    history: Vec<(SimTime, usize)>,
}

impl HpaController {
    /// Creates an HPA managing `service` with at most `max_replicas` pods.
    pub fn new(service: ServiceId, max_replicas: usize) -> Self {
        HpaController {
            service,
            max_replicas,
            probe: UtilizationProbe::new(),
            history: Vec::new(),
        }
    }

    /// The managed service.
    pub fn service(&self) -> ServiceId {
        self.service
    }

    /// Raw (unclamped) recommendation `ceil(ready × util / target)`, or
    /// `None` when it is undefined: no ready replicas, or a non-finite
    /// utilisation reading (probe with no samples). A NaN used to flow
    /// through `ceil() as usize` into `0`, clamp to the replica floor, and
    /// poison the stabilisation history with a bogus scale-to-minimum
    /// recommendation; now the control period is skipped instead.
    fn raw_desired(ready: usize, util: f64, target: f64) -> Option<usize> {
        if ready == 0 || !util.is_finite() {
            return None;
        }
        Some((ready as f64 * util / target).ceil().max(0.0) as usize)
    }

    /// Start (inclusive) of the stabilisation window at `now`: a
    /// recommendation exactly `STABILIZATION` old is still binding, and
    /// during the startup phase (`now < STABILIZATION`) the window spans
    /// the whole run.
    fn keep_from(now: SimTime) -> SimTime {
        SimTime::ZERO
            + now
                .saturating_since(SimTime::ZERO)
                .saturating_sub_or_zero(STABILIZATION)
    }
}

impl Controller for HpaController {
    fn control(&mut self, world: &mut World, now: SimTime) {
        let util = self.probe.read(world, self.service, now);
        let ready = world.ready_replicas(self.service).len();
        let Some(raw) = Self::raw_desired(ready, util, TARGET_UTILIZATION) else {
            return; // nothing ready yet, or no usable utilisation sample
        };
        let desired = raw.clamp(MIN_REPLICAS, self.max_replicas);
        self.history.push((now, desired));
        let keep_from = Self::keep_from(now);
        self.history.retain(|&(t, _)| t >= keep_from);

        // Include replicas still starting so we don't over-provision while
        // pods boot.
        let live = world.all_replicas(self.service).len();
        if desired > live {
            for _ in live..desired {
                if world.add_replica(self.service).is_err() {
                    break; // cluster full
                }
            }
        } else if desired < live {
            // Scale in no further than the stabilised (max) recommendation.
            let floor = self
                .history
                .iter()
                .map(|&(_, d)| d)
                .max()
                .unwrap_or(desired)
                .max(MIN_REPLICAS);
            let mut excess = live.saturating_sub(floor);
            while excess > 0 {
                if world.drain_replica(self.service, MIN_REPLICAS).is_none() {
                    break;
                }
                excess -= 1;
            }
        }
    }

    fn name(&self) -> &str {
        "kubernetes-hpa"
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
            replica_startup: Dist::constant_ms(1_000),
            ..WorldConfig::default()
        };
        let mut w = World::new(cfg, SimRng::seed_from(1));
        let rt = RequestTypeId(0);
        let svc = w.add_service(
            ServiceSpec::new("api")
                .cpu(cluster::Millicores::from_cores(1))
                .threads(16)
                .on(rt, Behavior::leaf(Dist::constant_ms(4))),
        );
        let rt = w.add_request_type("r", svc);
        let pod = w.add_replica(svc).unwrap();
        w.make_ready(pod);
        (w, svc, rt)
    }

    /// Drives load and HPA together for `secs` from the world's clock;
    /// returns ready-replica counts per tick.
    fn drive(
        w: &mut World,
        rt: RequestTypeId,
        hpa: &mut HpaController,
        secs: u64,
        gap_ms: u64,
    ) -> Vec<usize> {
        let mut counts = Vec::new();
        let start = w.now().as_millis();
        let mut at = start;
        for tick in 1..=secs {
            let end = start + tick * 1000;
            if gap_ms > 0 {
                while at < end {
                    at += gap_ms;
                    w.inject_at(t(at), rt);
                }
            }
            w.run_until(t(end));
            if tick % 15 == 0 {
                hpa.control(w, t(end));
            }
            counts.push(w.ready_replicas(hpa.service()).len());
        }
        counts
    }

    #[test]
    fn scales_out_under_load_and_in_after_idle() {
        let (mut w, svc, rt) = world();
        let mut hpa = HpaController::new(svc, 8);
        // 4 ms demand every 3 ms ⇒ ρ ≈ 1.3 on one core: must scale out.
        let counts = drive(&mut w, rt, &mut hpa, 120, 3);
        let peak = *counts.iter().max().unwrap();
        assert!(peak >= 2, "HPA should add replicas under overload: {peak}");
        // Now idle: scale back toward the minimum.
        let counts = drive(&mut w, rt, &mut hpa, 180, 0);
        assert_eq!(
            *counts.last().unwrap(),
            MIN_REPLICAS,
            "idle system drains to the replica floor"
        );
    }

    #[test]
    fn respects_max_replicas() {
        let (mut w, svc, rt) = world();
        let mut hpa = HpaController::new(svc, 2);
        let counts = drive(&mut w, rt, &mut hpa, 120, 1); // heavy overload
        assert!(counts.iter().all(|&c| c <= 2));
        assert_eq!(*counts.last().unwrap(), 2);
    }

    /// Regression: a NaN utilisation reading used to become `raw = 0` (via
    /// `NaN.ceil() as usize`), clamp to the replica floor, and enter the
    /// stabilisation history as a spurious scale-to-minimum vote. The
    /// control period is now skipped instead.
    #[test]
    fn nan_or_absent_utilization_skips_the_control_period() {
        assert_eq!(HpaController::raw_desired(3, f64::NAN, 0.8), None);
        assert_eq!(HpaController::raw_desired(3, f64::INFINITY, 0.8), None);
        assert_eq!(HpaController::raw_desired(0, 0.5, 0.8), None);
        // Sanity on the defined cases, including a negative reading which
        // must floor at zero rather than wrap through `as usize`.
        assert_eq!(HpaController::raw_desired(4, 0.9, 0.8), Some(5));
        assert_eq!(HpaController::raw_desired(2, 0.0, 0.8), Some(0));
        assert_eq!(HpaController::raw_desired(2, -0.5, 0.8), Some(0));
    }

    /// Boundary: during the startup phase (`now < STABILIZATION`) nothing
    /// is pruned, and a recommendation exactly `STABILIZATION` (60 s) old
    /// is retained (inclusive window edge) while anything older is dropped.
    #[test]
    fn stabilization_window_edges_are_inclusive_and_startup_safe() {
        // Startup phase: the window clamps to the run start.
        assert_eq!(
            HpaController::keep_from(SimTime::from_secs(10)),
            SimTime::ZERO
        );
        assert_eq!(
            HpaController::keep_from(SimTime::from_secs(60)),
            SimTime::ZERO
        );
        // Steady state: entries exactly 60 s old sit on the inclusive edge.
        assert_eq!(
            HpaController::keep_from(SimTime::from_secs(70)),
            SimTime::from_secs(10)
        );

        // End-to-end through control(): an idle world yields finite (zero)
        // utilisation, so every period records a recommendation.
        let (mut w, svc, _rt) = world();
        let mut hpa = HpaController::new(svc, 8);
        for secs in [10u64, 20, 30, 40, 50, 60] {
            w.run_until(SimTime::from_secs(secs));
            hpa.control(&mut w, SimTime::from_secs(secs));
        }
        assert_eq!(hpa.history.len(), 6, "startup phase must not prune");
        // At t = 70 s the t = 10 s entry is exactly 60 s old: retained.
        w.run_until(SimTime::from_secs(70));
        hpa.control(&mut w, SimTime::from_secs(70));
        assert_eq!(hpa.history.len(), 7, "edge entry is inside the window");
        assert_eq!(hpa.history[0].0, SimTime::from_secs(10));
        // At t = 75 s it is 65 s old: pruned (along with nothing else).
        w.run_until(SimTime::from_secs(75));
        hpa.control(&mut w, SimTime::from_secs(75));
        assert_eq!(hpa.history[0].0, SimTime::from_secs(20));
    }

    #[test]
    fn stabilization_delays_scale_in() {
        let (mut w, svc, rt) = world();
        let mut hpa = HpaController::new(svc, 8);
        drive(&mut w, rt, &mut hpa, 120, 3); // scale out
        let after_burst = w.ready_replicas(svc).len();
        assert!(after_burst >= 2);
        // 30 idle seconds: inside the stabilisation window → no scale-in.
        drive(&mut w, rt, &mut hpa, 30, 0);
        assert_eq!(w.ready_replicas(svc).len(), after_burst);
    }
}
