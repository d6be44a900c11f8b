//! The Concurrency Adapter: actuating soft-resource recommendations.

use crate::{ResourceBounds, SoftResource};
use microsim::World;

/// Minimum relative change that triggers reconfiguration (DESIGN §7).
const HYSTERESIS: f64 = 0.15;

/// Multiplicative exploration step: the pool doubles while no knee shows
/// (DESIGN §7).
const EXPLORE_FACTOR: f64 = 2.0;

/// Largest relative shrink applied per period. Growing is immediate
/// (starved pools must recover fast), shrinking is damped so a momentary
/// load trough does not leave the pool under-allocated when the next surge
/// arrives — the asymmetry every production concurrency limiter (e.g.
/// Netflix's) uses (DESIGN §7).
const MAX_SHRINK: f64 = 0.3;

/// Applies SCG recommendations to the world's soft-resource knobs, with
/// hysteresis (small recommendation wobbles are ignored) and gradual
/// upward exploration when the model reports no knee yet — the paper's
/// "gradually increase the allocation to find a new optimal value" (§3.2).
#[derive(Debug, Clone, Copy)]
pub struct ConcurrencyAdapter;

impl ConcurrencyAdapter {
    /// The resource's current per-replica setting.
    pub fn current_setting(world: &World, resource: SoftResource) -> usize {
        match resource {
            SoftResource::ThreadPool { service } => world.thread_limit(service),
            SoftResource::ConnPool { caller, target } => {
                world.conn_limit(caller, target).unwrap_or(usize::MAX)
            }
        }
    }

    /// Translates a *monitored-service per-replica* optimum into the knob's
    /// per-replica value. A thread pool is one-to-one. A connection pool is
    /// held by the caller: the target's aggregate optimal concurrency is
    /// `optimal × target_replicas`, split across caller replicas — this is
    /// how Sora arrives at "120 connections for 4 Post Storage replicas" in
    /// the paper's Fig. 12.
    pub fn desired_setting(world: &World, resource: SoftResource, optimal: usize) -> usize {
        match resource {
            SoftResource::ThreadPool { .. } => optimal,
            SoftResource::ConnPool { caller, target } => {
                let callers = world.ready_replicas(caller).len().max(1);
                let targets = world.ready_replicas(target).len().max(1);
                (optimal * targets).div_ceil(callers)
            }
        }
    }

    /// Applies an estimate. Returns the new setting if reconfiguration
    /// happened, `None` if the change fell inside the hysteresis band.
    pub fn apply_estimate(
        world: &mut World,
        resource: SoftResource,
        bounds: ResourceBounds,
        optimal: usize,
    ) -> Option<usize> {
        let mut desired = bounds.clamp(Self::desired_setting(world, resource, optimal));
        let current = Self::current_setting(world, resource);
        if desired < current {
            // Damped shrink: approach the recommendation gradually.
            let floor = ((current as f64) * (1.0 - MAX_SHRINK)).floor() as usize;
            desired = desired.max(floor).max(bounds.min);
        }
        let rel = (desired as f64 - current as f64).abs() / current.max(1) as f64;
        if desired == current || rel < HYSTERESIS {
            return None;
        }
        Self::set(world, resource, desired);
        Some(desired)
    }

    /// Raises the allocation one exploration step (when the model saw no
    /// knee and the pool shows saturation). Returns the new setting if it
    /// grew.
    pub fn explore(
        world: &mut World,
        resource: SoftResource,
        bounds: ResourceBounds,
    ) -> Option<usize> {
        let current = Self::current_setting(world, resource);
        if current == usize::MAX {
            return None; // unlimited pool: nothing to explore
        }
        let grown = ((current as f64 * EXPLORE_FACTOR).ceil() as usize).max(current + 1);
        let desired = bounds.clamp(grown);
        if desired <= current {
            return None; // already at the ceiling
        }
        Self::set(world, resource, desired);
        Some(desired)
    }

    /// True when the resource currently shows queued demand (its gate is
    /// the active constraint) — the precondition for exploration.
    pub fn is_saturated(world: &World, resource: SoftResource) -> bool {
        match resource {
            SoftResource::ThreadPool { service } => world.queued_requests(service) > 0,
            SoftResource::ConnPool { caller, target } => world.conn_waiting(caller, target) > 0,
        }
    }

    fn set(world: &mut World, resource: SoftResource, value: usize) {
        match resource {
            SoftResource::ThreadPool { service } => world.set_thread_limit(service, value),
            SoftResource::ConnPool { caller, target } => {
                world.set_conn_limit(caller, target, value)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microsim::{Behavior, ServiceSpec, WorldConfig};
    use sim_core::{Dist, SimRng, SimTime};
    use telemetry::{RequestTypeId, ServiceId};

    fn world() -> (World, ServiceId, ServiceId) {
        let mut w = World::new(WorldConfig::default(), SimRng::seed_from(1));
        let rt = RequestTypeId(0);
        let db_id = ServiceId(1);
        let front = w.add_service(ServiceSpec::new("front").threads(10).conns(db_id, 5).on(
            rt,
            Behavior::tier(Dist::constant_ms(1), db_id, Dist::constant_ms(1)),
        ));
        w.add_service(ServiceSpec::new("db").on(rt, Behavior::leaf(Dist::constant_ms(2))));
        w.add_request_type("r", front);
        for svc in [front, db_id] {
            let pod = w.add_replica(svc).unwrap();
            w.make_ready(pod);
        }
        (w, front, db_id)
    }

    #[test]
    fn apply_respects_hysteresis() {
        let (mut w, front, _) = world();
        let apply = ConcurrencyAdapter::apply_estimate;
        let tp = SoftResource::ThreadPool { service: front };
        let b = ResourceBounds { min: 1, max: 100 };
        // 10 → 11 is an 10% change: inside the 15% band.
        assert_eq!(apply(&mut w, tp, b, 11), None);
        assert_eq!(w.thread_limit(front), 10);
        // 10 → 30 applies immediately (growth is never damped).
        assert_eq!(apply(&mut w, tp, b, 30), Some(30));
        assert_eq!(w.thread_limit(front), 30);
        // A recommendation far below shrinks at most 30 % per call.
        assert_eq!(apply(&mut w, tp, b, 3), Some(21));
        assert_eq!(apply(&mut w, tp, b, 3), Some(14));
    }

    #[test]
    fn apply_clamps_to_bounds() {
        let (mut w, front, _) = world();
        let apply = ConcurrencyAdapter::apply_estimate;
        let tp = SoftResource::ThreadPool { service: front };
        let b = ResourceBounds { min: 4, max: 16 };
        assert_eq!(apply(&mut w, tp, b, 500), Some(16));
        // Shrinking respects both the damping and, eventually, the floor.
        assert_eq!(apply(&mut w, tp, b, 1), Some(11));
        assert_eq!(apply(&mut w, tp, b, 1), Some(7));
        assert_eq!(apply(&mut w, tp, b, 1), Some(4));
    }

    #[test]
    fn conn_pool_scales_with_target_replicas() {
        let (mut w, front, db) = world();
        // 3 more db replicas → 4 total, 1 caller replica.
        for _ in 0..3 {
            let pod = w.add_replica(db).unwrap();
            w.make_ready(pod);
        }
        let cp = SoftResource::ConnPool {
            caller: front,
            target: db,
        };
        // optimal 30 per db replica × 4 replicas / 1 caller = 120.
        assert_eq!(ConcurrencyAdapter::desired_setting(&w, cp, 30), 120);
        let applied =
            ConcurrencyAdapter::apply_estimate(&mut w, cp, ResourceBounds { min: 1, max: 512 }, 30);
        assert_eq!(applied, Some(120));
        assert_eq!(w.conn_limit(front, db), Some(120));
    }

    #[test]
    fn exploration_grows_geometrically_to_the_ceiling() {
        let (mut w, front, _) = world();
        let tp = SoftResource::ThreadPool { service: front };
        let b = ResourceBounds { min: 1, max: 20 };
        assert_eq!(ConcurrencyAdapter::explore(&mut w, tp, b), Some(20)); // 10×2 clamped
        assert_eq!(ConcurrencyAdapter::explore(&mut w, tp, b), None); // at ceiling
    }

    #[test]
    fn saturation_detection() {
        let (mut w, front, db) = world();
        let tp = SoftResource::ThreadPool { service: front };
        let cp = SoftResource::ConnPool {
            caller: front,
            target: db,
        };
        assert!(!ConcurrencyAdapter::is_saturated(&w, tp));
        assert!(!ConcurrencyAdapter::is_saturated(&w, cp));
        // Saturate the 10-thread front with slow backpressure: shrink the
        // pool to 1 and flood.
        w.set_thread_limit(front, 1);
        let rt = RequestTypeId(0);
        for i in 0..50 {
            w.inject_at(SimTime::from_millis(i), rt);
        }
        w.run_until(SimTime::from_millis(60));
        assert!(ConcurrencyAdapter::is_saturated(&w, tp));
    }
}
