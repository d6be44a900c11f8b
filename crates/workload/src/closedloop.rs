//! Closed-loop RUBBoS-style user pool with a time-varying population.

use crate::retry::{RetryDecision, RetryState};
use crate::{RateCurve, RetryPolicy, RetryStats};
use sim_core::{Dist, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What the driver should do next, according to the user pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserAction {
    /// Inject one request at the given instant on behalf of user `user`.
    Send {
        /// When to inject.
        at: SimTime,
        /// The sending user (echo it back in [`UserPool::on_completion`]).
        user: u64,
    },
    /// Nothing to send before `until`; advance the simulation.
    Idle {
        /// Re-consult the pool at this instant.
        until: SimTime,
    },
    /// The run is over.
    Finished,
}

/// A closed-loop user pool: each user cycles *think → send → wait for
/// response → think*, and the number of active users follows a
/// [`RateCurve`] (peak interpreted as maximum users), re-evaluated on a
/// fixed control grid. This matches how the paper scales its RUBBoS
/// workload generator with the bursty traces.
///
/// The pool is simulator-agnostic: the driver asks for the [`next_action`]
/// (a send or an idle period), injects sends into its simulator, and calls
/// [`on_completion`] when a user's request finishes.
///
/// [`next_action`]: UserPool::next_action
/// [`on_completion`]: UserPool::on_completion
///
/// # Example
///
/// ```
/// use workload::{RateCurve, TraceShape, UserAction, UserPool};
/// use sim_core::{Dist, SimDuration, SimRng, SimTime};
///
/// let curve = RateCurve::new(TraceShape::DualPhase, 10.0, SimDuration::from_secs(60));
/// let mut pool = UserPool::new(curve, Dist::exponential_ms(100.0), SimRng::seed_from(1));
/// match pool.next_action(SimTime::ZERO) {
///     UserAction::Send { user, at } => pool.on_completion(at, user),
///     other => panic!("expected an initial send, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct UserPool {
    curve: RateCurve,
    think: Dist,
    rng: SimRng,
    /// Pending sends, a min-heap on `(time, user)`: users due at the same
    /// instant send, and retire, in user-id order.
    pending: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Users currently waiting for a response.
    in_flight: u64,
    /// Users alive (thinking + in flight + pending send).
    active: u64,
    next_user: u64,
    /// Next instant the population target is re-evaluated.
    next_control: SimTime,
    /// Optional retry policy state; `None` keeps the RUBBoS default of
    /// think-then-resend on drops.
    retry: Option<RetryState>,
    /// Retry-budget conservation violations, reconciled after every retry
    /// decision. Audit-only state; never serialized.
    #[cfg(feature = "audit")]
    audit_sink: sim_core::audit::CountingSink,
}

impl UserPool {
    /// Control-grid spacing for population re-evaluation (1 s).
    const CONTROL_SECS: u64 = 1;

    /// Creates a pool; `curve.peak()` is the maximum user count and `think`
    /// the per-user think-time distribution.
    pub fn new(curve: RateCurve, think: Dist, rng: SimRng) -> Self {
        UserPool {
            curve,
            think,
            rng,
            pending: BinaryHeap::new(),
            in_flight: 0,
            active: 0,
            next_user: 0,
            next_control: SimTime::ZERO,
            retry: None,
            #[cfg(feature = "audit")]
            audit_sink: sim_core::audit::CountingSink::new(),
        }
    }

    /// Attaches a [`RetryPolicy`]: dropped requests are re-sent after a
    /// jittered exponential backoff (skipping the think time) until the
    /// attempt bound or the retry budget runs out. The jitter stream is
    /// split off the pool's seed, so attaching a policy does not perturb
    /// think-time sampling in fault-free runs.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        let rng = self.rng.split("retry");
        self.retry = Some(RetryState::new(policy, rng));
        self
    }

    /// Retry counters accumulated so far (all zero when no policy is set).
    pub fn retry_stats(&self) -> RetryStats {
        self.retry.as_ref().map(|r| r.stats()).unwrap_or_default()
    }

    /// Retry-budget conservation violations observed so far.
    #[cfg(feature = "audit")]
    pub fn audit(&self) -> &sim_core::audit::CountingSink {
        &self.audit_sink
    }

    /// Users currently alive.
    pub fn active_users(&self) -> u64 {
        self.active
    }

    /// Requests currently awaiting a response.
    pub fn in_flight(&self) -> u64 {
        self.in_flight
    }

    fn end(&self) -> SimTime {
        SimTime::ZERO + self.curve.duration()
    }

    /// Re-evaluates the population target at `now`, spawning or retiring
    /// users. Spawned users send their first request after one think time
    /// (desynchronising them); retiring removes users lazily from the
    /// pending-send queue.
    fn rebalance(&mut self, now: SimTime) {
        if now < self.next_control {
            return;
        }
        self.next_control =
            SimTime::from_nanos(now.as_nanos() + SimTime::from_secs(Self::CONTROL_SECS).as_nanos());
        let target = self.curve.value_at(now).round() as u64;
        while self.active < target {
            let user = self.next_user;
            self.next_user += 1;
            self.active += 1;
            let delay = self.think.sample(&mut self.rng);
            self.pending.push(Reverse((now + delay, user)));
        }
        // Retire surplus users that are queued to send (never interrupt an
        // in-flight request).
        while self.active > target {
            match self.pending.pop() {
                Some(_) => self.active -= 1,
                None => break,
            }
        }
    }

    /// The driver's next step at simulated instant `now`.
    pub fn next_action(&mut self, now: SimTime) -> UserAction {
        if now >= self.end() {
            return UserAction::Finished;
        }
        self.rebalance(now);
        let limit = self.next_control.min(self.end());
        match self.pending.peek() {
            Some(&Reverse((at, user))) if at <= limit => {
                self.pending.pop();
                self.in_flight += 1;
                UserAction::Send {
                    at: at.max(now),
                    user,
                }
            }
            _ => UserAction::Idle { until: limit },
        }
    }

    /// Returns the user to the thinking state: they send again after one
    /// think time (if the run is still on), or leave the pool otherwise.
    fn recycle(&mut self, now: SimTime, user: u64) {
        debug_assert!(self.in_flight > 0, "completion without a send");
        self.in_flight = self.in_flight.saturating_sub(1);
        if now >= self.end() {
            self.active = self.active.saturating_sub(1);
            return;
        }
        let delay = self.think.sample(&mut self.rng);
        self.pending.push(Reverse((now + delay, user)));
    }

    /// Reports that `user`'s request finished at `now`; the user thinks and
    /// then sends again (if the run is still on and the user was not
    /// retired meanwhile).
    pub fn on_completion(&mut self, now: SimTime, user: u64) {
        if let Some(retry) = self.retry.as_mut() {
            retry.on_success(user);
            #[cfg(feature = "audit")]
            retry.audit_into(now.as_nanos(), &mut self.audit_sink);
        }
        self.recycle(now, user);
    }

    /// Reports that `user`'s request was dropped (no response will come).
    ///
    /// With a [`RetryPolicy`] attached the user re-sends after a jittered
    /// exponential backoff — unless the attempt bound or retry budget says
    /// to give up, in which case (and always, without a policy) they retry
    /// after a full think time, as RUBBoS clients do.
    pub fn on_drop(&mut self, now: SimTime, user: u64) {
        let decision = self.retry.as_mut().map(|r| r.on_drop(user));
        #[cfg(feature = "audit")]
        if let Some(retry) = self.retry.as_ref() {
            retry.audit_into(now.as_nanos(), &mut self.audit_sink);
        }
        match decision {
            Some(RetryDecision::Retry(backoff)) => {
                debug_assert!(self.in_flight > 0, "drop without a send");
                self.in_flight = self.in_flight.saturating_sub(1);
                if now >= self.end() {
                    self.active = self.active.saturating_sub(1);
                    return;
                }
                self.pending.push(Reverse((now + backoff, user)));
            }
            Some(RetryDecision::GiveUp) | None => self.recycle(now, user),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RetryPolicy, TraceShape};
    use sim_core::SimDuration;

    fn pool(peak: f64, secs: u64) -> UserPool {
        let curve = RateCurve::new(TraceShape::DualPhase, peak, SimDuration::from_secs(secs));
        UserPool::new(curve, Dist::exponential_ms(50.0), SimRng::seed_from(3))
    }

    /// Drives the pool against an instant-response "simulator".
    fn drive_instant_responses(mut p: UserPool) -> Vec<SimTime> {
        let mut sends = Vec::new();
        let mut now = SimTime::ZERO;
        loop {
            match p.next_action(now) {
                UserAction::Send { at, user } => {
                    sends.push(at);
                    now = at;
                    p.on_completion(at, user); // zero service time
                }
                UserAction::Idle { until } => now = until,
                UserAction::Finished => return sends,
            }
        }
    }

    #[test]
    fn population_follows_curve() {
        let mut p = pool(100.0, 60);
        p.rebalance(SimTime::ZERO);
        let low = p.active_users();
        assert!((30..=40).contains(&low), "dual-phase low plateau: {low}");
        p.next_control = SimTime::from_secs(55);
        p.rebalance(SimTime::from_secs(55));
        let high = p.active_users();
        assert!(high > 90, "dual-phase high plateau: {high}");
    }

    #[test]
    fn sends_occur_and_increase_in_second_phase() {
        let sends = drive_instant_responses(pool(50.0, 60));
        assert!(
            sends.len() > 1_000,
            "closed loop should cycle: {}",
            sends.len()
        );
        let first_half = sends
            .iter()
            .filter(|t| **t < SimTime::from_secs(30))
            .count();
        let second_half = sends.len() - first_half;
        assert!(
            second_half as f64 > 1.5 * first_half as f64,
            "high phase sends ({second_half}) should exceed low phase ({first_half})"
        );
    }

    #[test]
    fn finished_after_duration() {
        let mut p = pool(10.0, 5);
        assert_eq!(p.next_action(SimTime::from_secs(5)), UserAction::Finished);
    }

    #[test]
    fn completions_recycle_users() {
        let mut p = pool(10.0, 60);
        let (at, user) = loop {
            match p.next_action(SimTime::ZERO) {
                UserAction::Send { at, user } => break (at, user),
                UserAction::Idle { until } => {
                    assert!(until > SimTime::ZERO);
                    // keep polling at the idle boundary
                    match p.next_action(until) {
                        UserAction::Send { at, user } => break (at, user),
                        _ => continue,
                    }
                }
                UserAction::Finished => panic!("should not finish"),
            }
        };
        assert_eq!(p.in_flight(), 1);
        p.on_completion(at, user);
        assert_eq!(p.in_flight(), 0);
    }

    /// With a constant think time, users spawned on one control tick fall
    /// due at the same instant: they send in user-id order, and a shrinking
    /// target retires the earliest-due user first, ties by user id.
    #[test]
    fn equal_due_times_send_and_retire_in_user_id_order() {
        let steady =
            |users: f64| RateCurve::new(TraceShape::Steady, users, SimDuration::from_secs(60));
        let mut p = UserPool::new(steady(4.0), Dist::constant_ms(100), SimRng::seed_from(3));
        let mut sent = Vec::new();
        for _ in 0..4 {
            match p.next_action(SimTime::ZERO) {
                UserAction::Send { at, user } => {
                    assert_eq!(at, SimTime::from_millis(100));
                    sent.push(user);
                }
                other => panic!("expected a send, got {other:?}"),
            }
        }
        assert_eq!(sent, [0, 1, 2, 3]);

        // Users 1, 2 and 3 complete together, user 0 later: 1..=3 tie
        // at 300 ms and user 0 falls due last, at 350 ms.
        for user in [3, 1, 2] {
            p.on_completion(SimTime::from_millis(200), user);
        }
        p.on_completion(SimTime::from_millis(250), 0);
        p.curve = steady(2.0);
        p.rebalance(SimTime::from_secs(1));
        assert_eq!(p.active_users(), 2);
        let mut left: Vec<(SimTime, u64)> = p.pending.iter().map(|r| r.0).collect();
        left.sort_unstable();
        assert_eq!(
            left,
            [
                (SimTime::from_millis(300), 3),
                (SimTime::from_millis(350), 0)
            ]
        );
    }

    /// Polls until the pool emits a send.
    fn first_send(p: &mut UserPool) -> (SimTime, u64) {
        let mut now = SimTime::ZERO;
        loop {
            match p.next_action(now) {
                UserAction::Send { at, user } => return (at, user),
                UserAction::Idle { until } => now = until,
                UserAction::Finished => panic!("should not finish"),
            }
        }
    }

    #[test]
    fn retry_resends_after_backoff_not_think_time() {
        let policy = RetryPolicy {
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        let mut p = pool(10.0, 60).with_retry(policy);
        let (at, user) = first_send(&mut p);
        p.on_drop(at, user);
        assert_eq!(p.retry_stats().attempts, 1);
        assert_eq!(p.in_flight(), 0);
        let &Reverse((resend, _)) = p
            .pending
            .iter()
            .find(|Reverse((_, who))| *who == user)
            .expect("retry pending");
        assert_eq!(
            resend,
            at + policy.base_backoff,
            "exact backoff, no think draw"
        );
    }

    #[test]
    fn exhausted_retries_fall_back_to_think_and_resend() {
        let mut p = pool(10.0, 60).with_retry(RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        });
        let (at, user) = first_send(&mut p);
        p.on_drop(at, user);
        assert_eq!(p.retry_stats().gave_up, 1);
        assert_eq!(p.in_flight(), 0);
        assert_eq!(p.active_users(), p.pending.len() as u64, "user recycled");
    }

    #[test]
    fn retry_policy_leaves_fault_free_runs_untouched() {
        let baseline = drive_instant_responses(pool(50.0, 60));
        let with_retry = drive_instant_responses(pool(50.0, 60).with_retry(RetryPolicy::default()));
        assert_eq!(baseline, with_retry, "no drops, no divergence");
    }
}
