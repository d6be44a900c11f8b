//! The scenario runner: closed-loop workload × controller × gauge sampling.

use microsim::World;
use serde::Serialize;
use sim_core::{SimDuration, SimTime};
use sora_core::{Controller, UtilizationProbe};
use std::collections::HashMap;
use telemetry::{RequestId, ServiceId};
use workload::{Mix, UserAction, UserPool};

/// What to record each sample period (the panels of Figs. 10–12).
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    /// The service whose CPU utilisation / limit / replica count and
    /// running threads are recorded.
    pub service: ServiceId,
    /// Optionally, a connection pool (`caller → target`) whose in-use and
    /// established counts are recorded.
    pub conns: Option<(ServiceId, ServiceId)>,
}

/// Controller invocation period: Kubernetes' default 15 s control grid,
/// which the paper adopts (§4.1).
const CONTROL_PERIOD: SimDuration = SimDuration::from_secs(15);

/// Gauge sampling period: the 1 s resolution of the paper's timeline
/// figures (Figs. 10–12).
const SAMPLE_PERIOD: SimDuration = SimDuration::from_secs(1);

/// One gauge sample (a row of the timeline panels).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SampleRow {
    /// Sample time in seconds.
    pub t_secs: f64,
    /// Watched service CPU utilisation (0..1 of its limit).
    pub utilization: f64,
    /// Watched service CPU limit in millicores.
    pub cpu_limit_mc: u32,
    /// Ready replicas of the watched service.
    pub replicas: usize,
    /// Threads in service across replicas ("Running Threads").
    pub running_threads: usize,
    /// Per-replica thread-pool limit.
    pub thread_limit: usize,
    /// Connections in use (0 when no pool watched).
    pub conns_in_use: usize,
    /// Established connections = pool size × caller replicas (0 when no
    /// pool watched).
    pub conns_established: usize,
}

/// End-of-run summary (the rows of Tables 2 and 3).
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Summary {
    /// Completed requests.
    pub completed: u64,
    /// Requests dropped without a response.
    pub dropped: u64,
    /// Drops broken down by cause.
    pub drop_breakdown: microsim::DropBreakdown,
    /// Mean response time in milliseconds.
    pub mean_rt_ms: f64,
    /// 95th percentile response time in milliseconds.
    pub p95_ms: f64,
    /// 99th percentile response time in milliseconds.
    pub p99_ms: f64,
    /// Average goodput (completions within the report threshold) in
    /// requests/second over the run.
    pub goodput_rps: f64,
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunResult {
    /// Gauge samples, one per sample period.
    pub timeline: Vec<SampleRow>,
    /// Per-second goodput (requests/second within the report threshold).
    pub goodput_timeline: Vec<(f64, f64)>,
    /// Per-second mean response time (milliseconds).
    pub rt_timeline: Vec<(f64, f64)>,
    /// Client retry counters (all zero unless the pool has a
    /// [`workload::RetryPolicy`]).
    pub retry: workload::RetryStats,
    /// The run summary.
    pub summary: Summary,
}

/// Drives a closed-loop [`UserPool`] against a world, invoking `controller`
/// on the 15 s control grid and sampling gauges every second.
///
/// The request mix can change mid-run (`mix_schedule`: `(from, mix)` pairs,
/// later entries override earlier ones) — the §5.3 request-type drift.
pub struct Scenario {
    /// Goodput threshold used in reports (e.g. 400 ms in Table 2).
    report_rtt: SimDuration,
    pool: UserPool,
    mix_schedule: Vec<(SimTime, Mix)>,
    watch: Watch,
    probe: UtilizationProbe,
}

impl Scenario {
    /// Creates a scenario with a single, constant request mix, reporting
    /// goodput within `report_rtt`.
    pub fn new(report_rtt: SimDuration, pool: UserPool, mix: Mix, watch: Watch) -> Self {
        Scenario {
            report_rtt,
            pool,
            mix_schedule: vec![(SimTime::ZERO, mix)],
            watch,
            probe: UtilizationProbe::new(),
        }
    }

    /// Adds a mix switch at `from` (used for state-drift experiments).
    pub fn with_mix_change(mut self, from: SimTime, mix: Mix) -> Self {
        self.mix_schedule.push((from, mix));
        self.mix_schedule.sort_by_key(|&(t, _)| t);
        self
    }

    /// Converts the scenario into a [`ScenarioStepper`], the incremental
    /// driver behind live `sora-server` sessions. Stepping to
    /// [`SimTime::MAX`] and finishing is operation-for-operation identical
    /// to [`Scenario::run`].
    pub fn into_stepper(self) -> ScenarioStepper {
        ScenarioStepper {
            report_rtt: self.report_rtt,
            pool: self.pool,
            mix_schedule: self.mix_schedule,
            watch: self.watch,
            probe: self.probe,
            rng: sim_core::SimRng::seed_from(0xC0FFEE),
            user_of: HashMap::new(),
            timeline: Vec::new(),
            next_sample: SAMPLE_PERIOD,
            next_control: CONTROL_PERIOD,
            now: SimTime::ZERO,
            workload_done: false,
            done_scratch: Vec::new(),
        }
    }

    /// Runs the scenario to the end of the user pool's trace.
    pub fn run(self, world: &mut World, controller: &mut dyn Controller) -> RunResult {
        self.into_stepper().finish(world, controller)
    }
}

/// Selects the mix active at `t`. A free function (not a method) so the
/// stepper can sample it while holding a mutable borrow of its own RNG.
fn mix_at(schedule: &[(SimTime, Mix)], t: SimTime) -> &Mix {
    schedule
        .iter()
        .rev()
        .find(|&&(from, _)| from <= t)
        .map(|(_, m)| m)
        .expect("schedule starts at time zero")
}

/// An incrementally-driven [`Scenario`]: the same closed-loop run, pausable
/// at simulated-time targets. `sora-server` live sessions use this to
/// interleave wire requests (telemetry snapshots, controller status) with
/// simulation progress.
///
/// Pauses happen only *between* fully-executed pool actions — the pool's
/// destructive `next_action` is never polled until the previous action
/// completed — so any sequence of [`step_until`] calls followed by
/// [`finish`] performs exactly the operations `Scenario::run` performs, and
/// produces byte-identical results.
///
/// [`step_until`]: ScenarioStepper::step_until
/// [`finish`]: ScenarioStepper::finish
pub struct ScenarioStepper {
    report_rtt: SimDuration,
    pool: UserPool,
    mix_schedule: Vec<(SimTime, Mix)>,
    watch: Watch,
    probe: UtilizationProbe,
    rng: sim_core::SimRng,
    user_of: HashMap<RequestId, u64>,
    timeline: Vec<SampleRow>,
    next_sample: SimDuration,
    next_control: SimDuration,
    now: SimTime,
    workload_done: bool,
    /// Reusable completion buffer for `World::run_until_into`, so the
    /// per-action simulation steps never allocate a fresh `Vec`.
    done_scratch: Vec<microsim::Completion>,
}

impl ScenarioStepper {
    /// The workload clock: how far the closed loop has driven the run.
    /// (The world clock can trail this slightly between actions.)
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Whether the user pool has finished its trace (only [`finish`] remains).
    ///
    /// [`finish`]: ScenarioStepper::finish
    pub fn workload_done(&self) -> bool {
        self.workload_done
    }

    /// Gauge samples recorded so far.
    pub fn samples(&self) -> &[SampleRow] {
        &self.timeline
    }

    /// The goodput threshold the scenario reports against.
    pub fn report_rtt(&self) -> SimDuration {
        self.report_rtt
    }

    /// Advances the run until the workload clock reaches `target` (or the
    /// trace ends). Returns `true` once the workload is finished.
    ///
    /// Pauses only between fully-executed actions, so the clock may
    /// overshoot `target` by up to one action; re-invoking with the same
    /// target is then a no-op.
    pub fn step_until(
        &mut self,
        world: &mut World,
        controller: &mut dyn Controller,
        target: SimTime,
    ) -> bool {
        if self.workload_done {
            return true;
        }
        loop {
            // Fire any control/sample ticks we have reached.
            let tick = SimTime::ZERO + self.next_sample.min(self.next_control);
            if tick <= self.now {
                world.run_until_into(tick, &mut self.done_scratch);
                self.handle_done(world);
                if SimTime::ZERO + self.next_control == tick {
                    controller.control(world, tick);
                    self.next_control += CONTROL_PERIOD;
                }
                if SimTime::ZERO + self.next_sample == tick {
                    let row = self.sample(world, tick);
                    self.timeline.push(row);
                    self.next_sample += SAMPLE_PERIOD;
                }
                continue;
            }
            // Pause point: every tick at or before `now` has fired and no
            // action is half-done, so resuming later continues the exact
            // operation sequence of an uninterrupted run.
            if self.now >= target {
                return false;
            }
            match self.pool.next_action(self.now) {
                UserAction::Send { at, user } => {
                    let bounded = at.min(tick);
                    if bounded < at {
                        // A grid tick falls before the send: process it first.
                        self.now = bounded;
                        continue;
                    }
                    world.run_until_into(at, &mut self.done_scratch);
                    self.handle_done(world);
                    let rtype = mix_at(&self.mix_schedule, at).sample(&mut self.rng);
                    let id = world.inject_at(at, rtype);
                    self.user_of.insert(id, user);
                    self.now = at;
                }
                UserAction::Idle { until } => {
                    let until = until.min(tick);
                    world.run_until_into(until, &mut self.done_scratch);
                    self.handle_done(world);
                    self.now = until;
                }
                UserAction::Finished => {
                    self.workload_done = true;
                    return true;
                }
            }
        }
    }

    /// Runs the remaining trace (if any), drains in-flight requests, and
    /// builds the [`RunResult`].
    pub fn finish(mut self, world: &mut World, controller: &mut dyn Controller) -> RunResult {
        self.step_until(world, controller, SimTime::MAX);
        // Drain whatever is still in flight.
        let end = self.now + SimDuration::from_secs(30);
        world.run_until_into(end, &mut self.done_scratch);
        self.handle_done(world);

        // Under auditing every scenario must finish with a clean ledger on
        // both sides of the client/world seam. Audit state never enters
        // RunResult: the serialized outputs stay byte-identical to
        // audit-off builds.
        #[cfg(feature = "audit")]
        {
            assert_eq!(
                world.audit().total(),
                0,
                "world invariant violations: {}",
                world.audit().summary()
            );
            assert_eq!(
                self.pool.audit().total(),
                0,
                "retry-budget violations: {}",
                self.pool.audit().summary()
            );
        }

        let client = world.client();
        let run_end = self.now;
        let goodput_timeline: Vec<(f64, f64)> = client
            .goodput_timeline(self.report_rtt)
            .into_iter()
            .filter(|&(t, _)| t < run_end)
            .map(|(t, v)| (t.as_secs_f64(), v))
            .collect();
        let rt_timeline: Vec<(f64, f64)> = client
            .response_time_timeline()
            .into_iter()
            .filter(|&(t, _)| t < run_end)
            .map(|(t, v)| (t.as_secs_f64(), v))
            .collect();
        let summary = Summary {
            completed: client.total(),
            dropped: world.dropped(),
            drop_breakdown: world.drop_breakdown(),
            mean_rt_ms: client
                .mean_response_time()
                .map_or(0.0, |d| d.as_millis_f64()),
            p95_ms: client.percentile(95.0).map_or(0.0, |d| d.as_millis_f64()),
            p99_ms: client.percentile(99.0).map_or(0.0, |d| d.as_millis_f64()),
            goodput_rps: if run_end > SimTime::ZERO {
                client.goodput_rate(SimTime::ZERO, run_end, self.report_rtt)
            } else {
                0.0
            },
        };
        RunResult {
            timeline: self.timeline,
            goodput_timeline,
            rt_timeline,
            retry: self.pool.retry_stats(),
            summary,
        }
    }

    /// Routes drained completions and drops back to the user pool.
    fn handle_done(&mut self, world: &mut World) {
        for c in self.done_scratch.drain(..) {
            if let Some(user) = self.user_of.remove(&c.request) {
                self.pool.on_completion(c.completed, user);
            }
        }
        for (dropped, _reason) in world.drain_dropped() {
            if let Some(user) = self.user_of.remove(&dropped) {
                // The client sees an error "now"; approximate with the
                // world clock.
                self.pool.on_drop(world.now(), user);
            }
        }
    }

    fn sample(&mut self, world: &mut World, now: SimTime) -> SampleRow {
        let svc = self.watch.service;
        let (conns_in_use, conns_established) = match self.watch.conns {
            Some((caller, target)) => (
                world.conns_in_use(caller, target),
                world.conns_established(caller, target),
            ),
            None => (0, 0),
        };
        SampleRow {
            t_secs: now.as_secs_f64(),
            utilization: self.probe.read(world, svc, now),
            cpu_limit_mc: world.cpu_limit(svc).get(),
            replicas: world.ready_replicas(svc).len(),
            running_threads: world.running_threads(svc),
            thread_limit: world.thread_limit(svc),
            conns_in_use,
            conns_established,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SockShop, SockShopParams};
    use sim_core::{Dist, SimRng};
    use sora_core::NullController;
    use workload::{RateCurve, TraceShape};

    fn scenario(secs: u64, users: f64) -> (SockShop, Scenario) {
        let shop = SockShop::build(SockShopParams::default(), SimRng::seed_from(5));
        let curve = RateCurve::new(TraceShape::DualPhase, users, SimDuration::from_secs(secs));
        let pool = UserPool::new(curve, Dist::exponential_ms(1_000.0), SimRng::seed_from(9));
        let watch = Watch {
            service: shop.cart,
            conns: None,
        };
        let mix = Mix::single(shop.get_cart);
        let sc = Scenario::new(SimDuration::from_millis(400), pool, mix, watch);
        (shop, sc)
    }

    #[test]
    fn runs_a_short_trace_end_to_end() {
        let (mut shop, sc) = scenario(60, 200.0);
        let mut ctl = NullController;
        let res = sc.run(&mut shop.world, &mut ctl);
        // 60 one-second samples (the sample at t=60 may or may not land).
        assert!(
            (59..=61).contains(&res.timeline.len()),
            "{}",
            res.timeline.len()
        );
        assert!(
            res.summary.completed > 2_000,
            "closed loop cycles: {:?}",
            res.summary
        );
        assert_eq!(res.summary.dropped, 0);
        assert!(res.summary.p99_ms >= res.summary.p95_ms);
        assert!(res.summary.goodput_rps > 0.0);
        // Dual phase: second-half goodput exceeds first half.
        let half = res.goodput_timeline.len() / 2;
        let first: f64 = res.goodput_timeline[..half].iter().map(|p| p.1).sum();
        let second: f64 = res.goodput_timeline[half..].iter().map(|p| p.1).sum();
        assert!(
            second > first * 1.3,
            "dual-phase load shape: {first} vs {second}"
        );
    }

    #[test]
    fn mix_changes_take_effect_mid_run() {
        let (mut shop, sc) = scenario(40, 100.0);
        let sc = sc.with_mix_change(SimTime::from_secs(20), Mix::single(shop.get_catalogue));
        let mut ctl = NullController;
        let res = sc.run(&mut shop.world, &mut ctl);
        assert!(res.summary.completed > 500);
        // After the switch the catalogue path must have seen traffic.
        let pod = shop.world.ready_replicas(shop.catalogue)[0];
        assert!(
            shop.world.completions_of(pod).unwrap().len() > 100,
            "catalogue traffic after the mix switch"
        );
    }

    /// The headline stepping invariant: driving the run through many
    /// arbitrary pause points produces the same samples, summary and
    /// timelines as an uninterrupted run — down to the last bit.
    #[test]
    fn stepped_run_is_identical_to_uninterrupted_run() {
        let (mut shop, sc) = scenario(60, 400.0);
        let mut ctl = NullController;
        let base = sc.run(&mut shop.world, &mut ctl);

        let (mut shop2, sc2) = scenario(60, 400.0);
        let mut ctl2 = NullController;
        let mut stepper = sc2.into_stepper();
        // Uneven pause grid, deliberately misaligned with both the sample
        // grid (1 s) and the control grid (15 s).
        let mut t_ms = 700;
        while !stepper.step_until(&mut shop2.world, &mut ctl2, SimTime::from_millis(t_ms)) {
            let snap = shop2
                .world
                .telemetry_snapshot(SimTime::ZERO, SimDuration::from_millis(400));
            assert_eq!(snap.completed + snap.dropped + snap.in_flight, {
                let s2 = shop2
                    .world
                    .telemetry_snapshot(SimTime::ZERO, SimDuration::from_millis(400));
                s2.completed + s2.dropped + s2.in_flight
            });
            t_ms += 1300;
        }
        let stepped = stepper.finish(&mut shop2.world, &mut ctl2);

        assert_eq!(base.summary.completed, stepped.summary.completed);
        assert_eq!(base.summary.dropped, stepped.summary.dropped);
        assert_eq!(
            base.summary.mean_rt_ms.to_bits(),
            stepped.summary.mean_rt_ms.to_bits()
        );
        assert_eq!(
            base.summary.p95_ms.to_bits(),
            stepped.summary.p95_ms.to_bits()
        );
        assert_eq!(
            base.summary.p99_ms.to_bits(),
            stepped.summary.p99_ms.to_bits()
        );
        assert_eq!(
            base.summary.goodput_rps.to_bits(),
            stepped.summary.goodput_rps.to_bits()
        );
        assert_eq!(base.timeline.len(), stepped.timeline.len());
        for (a, b) in base.timeline.iter().zip(&stepped.timeline) {
            assert_eq!(a.t_secs.to_bits(), b.t_secs.to_bits());
            assert_eq!(a.utilization.to_bits(), b.utilization.to_bits());
            assert_eq!(a.running_threads, b.running_threads);
        }
        assert_eq!(base.goodput_timeline, stepped.goodput_timeline);
        assert_eq!(base.rt_timeline, stepped.rt_timeline);
    }

    #[test]
    fn watch_with_conns_records_pool_gauges() {
        let shop = SockShop::build(SockShopParams::default(), SimRng::seed_from(5));
        let curve = RateCurve::new(TraceShape::SlowlyVarying, 150.0, SimDuration::from_secs(30));
        let pool = UserPool::new(curve, Dist::exponential_ms(500.0), SimRng::seed_from(9));
        let watch = Watch {
            service: shop.catalogue,
            conns: Some((shop.catalogue, shop.catalogue_db)),
        };
        let sc = Scenario::new(
            SimDuration::from_millis(400),
            pool,
            Mix::single(shop.get_catalogue),
            watch,
        );
        let mut shop = shop;
        let mut ctl = NullController;
        let res = sc.run(&mut shop.world, &mut ctl);
        assert!(res.timeline.iter().all(|r| r.conns_established == 10));
        assert!(res.timeline.iter().any(|r| r.conns_in_use > 0));
    }
}
