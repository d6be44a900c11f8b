//! A processor-sharing CPU with context-switch overhead.

use crate::Millicores;
use sim_core::{SimDuration, SimTime};
use std::fmt;

/// One runnable compute burst on a [`PsCpu`]: its owner (whatever the
/// caller needs to resume when the burst finishes) and the work left, in
/// nanoseconds of single-core CPU demand.
#[derive(Debug, Clone, Copy)]
struct Job<T> {
    owner: T,
    remaining: f64,
}

/// A pod's CPU, modelled as egalitarian processor sharing over a
/// Kubernetes-style millicore limit, with a per-excess-thread
/// context-switch/cache penalty.
///
/// With `n` runnable jobs and a limit of `c` cores, each job progresses at
///
/// ```text
/// rate = min(1, c / n) / (1 + κ · √max(0, n − ⌈c⌉))
/// ```
///
/// cores of demand per unit wall time: a single thread can use at most one
/// core; once jobs outnumber cores every job pays a slowdown that grows
/// with the square root of the excess (context-switch cost per scheduling
/// quantum is roughly constant, while cache/TLB pollution grows slowly
/// with the working-set count — a sublinear aggregate matches the gentle
/// degradation the paper measures at 80–200 threads, Fig. 3). This is the
/// mechanism behind the paper's observation that over-allocated thread
/// pools hurt goodput (Fig. 3, Fig. 4).
///
/// *Busy* time (what a cAdvisor-style monitor reports, and what HPA/VPA/FIRM
/// scale on) is `min(n, c)` cores whenever jobs are present — an
/// oversubscribed pod looks 100 % busy even though useful work is lower.
///
/// Each job carries an owner of type `T`, handed back when the job finishes
/// or named to cancel it, so callers need no side table from jobs to their
/// work. Runnable jobs live in one dense `Vec` in insertion order; that
/// order is the jobs' identity, and every tie breaks toward the earlier
/// job.
///
/// The type is event-driver friendly: callers [`advance`](PsCpu::advance) it
/// to the current instant, then query [`next_completion`](PsCpu::next_completion)
/// and schedule an event. Any mutation bumps an [`epoch`](PsCpu::epoch) so a
/// stale completion event can be recognised and dropped.
///
/// # Example
///
/// ```
/// use cluster::{Millicores, PsCpu};
/// use sim_core::{SimDuration, SimTime};
///
/// let mut cpu = PsCpu::new(Millicores::from_cores(2), 0.0);
/// let t0 = SimTime::ZERO;
/// cpu.add(t0, SimDuration::from_millis(10), "a");
/// cpu.add(t0, SimDuration::from_millis(10), "b");
/// // Two jobs on two cores: both run at full speed.
/// let (t, first) = cpu.next_completion().unwrap();
/// assert_eq!(t.as_millis(), 10);
/// assert_eq!(*first, "a"); // deterministic tie-break: earliest job first
/// cpu.advance(t);
/// assert_eq!(cpu.take_finished(), ["a", "b"]);
/// ```
pub struct PsCpu<T> {
    limit: Millicores,
    csw_overhead: f64,
    /// Fraction of the limit actually deliverable (node CPU pressure from
    /// noisy neighbours or throttling); 1.0 when the node is healthy.
    pressure: f64,
    /// Runnable jobs, oldest first.
    jobs: Vec<Job<T>>,
    last_update: SimTime,
    epoch: u64,
    busy_core_nanos: f64,
    useful_core_nanos: f64,
    /// Capacity integral ∫ effective_cores dt since construction — the hard
    /// ceiling busy time may never exceed. Audit-only state.
    #[cfg(feature = "audit")]
    cap_core_nanos: f64,
}

impl<T> PsCpu<T> {
    /// One nanosecond of work: jobs at or below this are considered finished.
    const FINISH_EPS: f64 = 1.0;

    /// Creates an idle CPU with the given limit and context-switch penalty
    /// κ (fractional slowdown per √(runnable jobs beyond the core count);
    /// 0.02–0.05 reproduces the paper's over-allocation degradation).
    ///
    /// # Panics
    ///
    /// Panics if `csw_overhead` is negative or not finite.
    pub fn new(limit: Millicores, csw_overhead: f64) -> Self {
        assert!(
            csw_overhead >= 0.0 && csw_overhead.is_finite(),
            "invalid overhead"
        );
        PsCpu {
            limit,
            csw_overhead,
            pressure: 1.0,
            jobs: Vec::new(),
            last_update: SimTime::ZERO,
            epoch: 0,
            busy_core_nanos: 0.0,
            useful_core_nanos: 0.0,
            #[cfg(feature = "audit")]
            cap_core_nanos: 0.0,
        }
    }

    /// The current CPU limit.
    pub fn limit(&self) -> Millicores {
        self.limit
    }

    /// The current pressure factor (fraction of the limit deliverable).
    pub fn pressure(&self) -> f64 {
        self.pressure
    }

    /// Cores actually deliverable right now: the limit scaled by pressure.
    fn effective_cores(&self) -> f64 {
        self.limit.as_cores_f64() * self.pressure
    }

    /// Number of runnable jobs.
    pub fn active(&self) -> usize {
        self.jobs.len()
    }

    /// Monotone counter bumped on every mutation; scheduled completion
    /// events that carry an older epoch are stale and must be ignored.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative *busy* core-nanoseconds (what a utilisation monitor sees).
    pub fn busy_core_nanos(&self) -> f64 {
        self.busy_core_nanos
    }

    /// Cumulative *useful* core-nanoseconds (busy minus overhead loss).
    pub fn useful_core_nanos(&self) -> f64 {
        self.useful_core_nanos
    }

    /// Per-job progress rate (cores of demand per wall nanosecond) with `n`
    /// runnable jobs under the current limit.
    fn rate(&self, n: usize) -> f64 {
        if n == 0 || self.limit.is_zero() {
            return 0.0;
        }
        let cores = self.effective_cores();
        let base = (cores / n as f64).min(1.0);
        let excess = n.saturating_sub(cores.ceil() as usize);
        base / (1.0 + self.csw_overhead * (excess as f64).sqrt())
    }

    /// Advances internal state to `now`, paying out progress to every job.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than the last update.
    pub fn advance(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "PsCpu asked to move backwards in time"
        );
        let dt = (now - self.last_update).as_nanos() as f64;
        self.last_update = now;
        // Capacity accrues whether or not jobs are runnable, and every
        // mutation (set_limit/set_pressure) advances first, so each term of
        // the integral uses the cores/pressure in force over its interval.
        #[cfg(feature = "audit")]
        {
            self.cap_core_nanos += dt * self.effective_cores();
        }
        if dt == 0.0 || self.jobs.is_empty() {
            return;
        }
        let n = self.jobs.len();
        let rate = self.rate(n);
        let cores = self.effective_cores();
        self.busy_core_nanos += dt * (n as f64).min(cores);
        self.useful_core_nanos += dt * rate * n as f64;
        for job in &mut self.jobs {
            job.remaining = (job.remaining - dt * rate).max(0.0);
        }
    }

    /// Adds a job with `demand` single-core CPU work for `owner`, as of
    /// `now`.
    ///
    /// Implicitly advances to `now` and bumps the epoch.
    pub fn add(&mut self, now: SimTime, demand: SimDuration, owner: T) {
        self.advance(now);
        self.jobs.push(Job {
            owner,
            remaining: demand.as_nanos() as f64,
        });
        self.epoch += 1;
    }

    /// Removes `owner`'s job regardless of progress (e.g. request
    /// cancelled). Returns `true` when it had one. Advances and bumps the
    /// epoch.
    pub fn cancel(&mut self, now: SimTime, owner: &T) -> bool
    where
        T: PartialEq,
    {
        self.advance(now);
        let before = self.jobs.len();
        self.jobs.retain(|j| j.owner != *owner);
        let existed = self.jobs.len() < before;
        if existed {
            self.epoch += 1;
        }
        existed
    }

    /// Changes the CPU limit (vertical scaling), as of `now`.
    pub fn set_limit(&mut self, now: SimTime, limit: Millicores) {
        self.advance(now);
        if self.limit != limit {
            self.limit = limit;
            self.epoch += 1;
        }
    }

    /// Changes the context-switch penalty (for ablation experiments).
    ///
    /// # Panics
    ///
    /// Panics if `csw_overhead` is negative or not finite.
    pub fn set_csw_overhead(&mut self, now: SimTime, csw_overhead: f64) {
        assert!(
            csw_overhead >= 0.0 && csw_overhead.is_finite(),
            "invalid overhead"
        );
        self.advance(now);
        if (self.csw_overhead - csw_overhead).abs() > f64::EPSILON {
            self.csw_overhead = csw_overhead;
            self.epoch += 1;
        }
    }

    /// Changes the node-pressure factor (fraction of the limit actually
    /// deliverable), as of `now`. `1.0` restores full capacity.
    ///
    /// # Panics
    ///
    /// Panics if `pressure` is not in `(0, 1]`.
    pub fn set_pressure(&mut self, now: SimTime, pressure: f64) {
        assert!(
            pressure > 0.0 && pressure <= 1.0 && pressure.is_finite(),
            "pressure must be in (0, 1]"
        );
        self.advance(now);
        if (self.pressure - pressure).abs() > f64::EPSILON {
            self.pressure = pressure;
            self.epoch += 1;
        }
    }

    /// The instant the next job finishes, given no further mutations, and
    /// that job's owner. Must be called with state already advanced to
    /// "now". The job with the least remaining work finishes first; ties
    /// break towards the earliest-added job (deterministic).
    pub fn next_completion(&self) -> Option<(SimTime, &T)> {
        let rate = self.rate(self.jobs.len());
        if rate <= 0.0 {
            return None;
        }
        let mut jobs = self.jobs.iter();
        let mut next = jobs.next()?;
        for job in jobs {
            if job.remaining < next.remaining {
                next = job;
            }
        }
        let dt_nanos = (next.remaining / rate).ceil().max(0.0) as u64;
        Some((
            self.last_update + SimDuration::from_nanos(dt_nanos),
            &next.owner,
        ))
    }

    /// Removes every finished job (remaining ≤ 1 ns of work) and returns
    /// their owners, earliest-added first. Must be called with state
    /// already advanced; bumps the epoch when any job is removed.
    pub fn take_finished(&mut self) -> Vec<T>
    where
        T: Copy,
    {
        let mut done = Vec::new();
        self.take_finished_into(&mut done);
        done
    }

    /// [`take_finished`](PsCpu::take_finished) into a caller-owned buffer
    /// (cleared first), so event loops can reuse one allocation across the
    /// hottest completion path.
    pub fn take_finished_into(&mut self, out: &mut Vec<T>)
    where
        T: Copy,
    {
        out.clear();
        self.jobs.retain(|j| {
            let finished = j.remaining <= Self::FINISH_EPS;
            if finished {
                out.push(j.owner);
            }
            !finished
        });
        if !out.is_empty() {
            self.epoch += 1;
        }
    }

    /// Checks CPU-time conservation and reports violations into `sink`.
    ///
    /// Two laws must hold at every instant the CPU is advanced to:
    /// busy ≤ ∫ effective_cores dt (a monitor can never observe more busy
    /// time than the pressure-adjusted limit delivered), and
    /// useful ≤ busy (overhead only ever loses work). Both hold exactly
    /// term-by-term in `advance`, and f64 addition is monotone, so the
    /// tolerance only covers the final comparison, not accumulated drift.
    #[cfg(feature = "audit")]
    pub fn audit_into(&self, now: SimTime, sink: &mut dyn sim_core::audit::AuditSink) {
        use sim_core::audit::{Invariant, Violation};
        let eps = 1.0 + self.cap_core_nanos * 1e-9;
        if self.busy_core_nanos > self.cap_core_nanos + eps {
            sink.record(Violation {
                invariant: Invariant::CpuTimeConservation,
                at_nanos: now.as_nanos(),
                detail: format!(
                    "busy {} core-ns exceeds capacity integral {} core-ns",
                    self.busy_core_nanos, self.cap_core_nanos
                ),
            });
        }
        if self.useful_core_nanos > self.busy_core_nanos + eps {
            sink.record(Violation {
                invariant: Invariant::CpuTimeConservation,
                at_nanos: now.as_nanos(),
                detail: format!(
                    "useful {} core-ns exceeds busy {} core-ns",
                    self.useful_core_nanos, self.busy_core_nanos
                ),
            });
        }
    }
}

impl<T> fmt::Debug for PsCpu<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PsCpu")
            .field("limit", &self.limit)
            .field("active", &self.jobs.len())
            .field("epoch", &self.epoch)
            .field("last_update", &self.last_update)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// Drives the CPU to completion of all jobs, returning (finish_time,
    /// owner) pairs in completion order.
    fn drain<T: Copy>(cpu: &mut PsCpu<T>) -> Vec<(SimTime, T)> {
        let mut out = Vec::new();
        while let Some((t, _)) = cpu.next_completion() {
            cpu.advance(t);
            for owner in cpu.take_finished() {
                out.push((t, owner));
            }
        }
        out
    }

    #[test]
    fn single_job_runs_at_one_core() {
        let mut cpu = PsCpu::new(Millicores::from_cores(4), 0.0);
        cpu.add(SimTime::ZERO, ms(8), ());
        let done = drain(&mut cpu);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0.as_millis(), 8); // cannot exceed 1 core
    }

    #[test]
    fn two_jobs_on_one_core_share_equally() {
        let mut cpu = PsCpu::new(Millicores::from_cores(1), 0.0);
        cpu.add(SimTime::ZERO, ms(5), ());
        cpu.add(SimTime::ZERO, ms(5), ());
        let done = drain(&mut cpu);
        // Each runs at 0.5 cores → both finish at 10 ms.
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0.as_millis(), 10);
        assert_eq!(done[1].0.as_millis(), 10);
    }

    #[test]
    fn fractional_limit_slows_job() {
        let mut cpu = PsCpu::new(Millicores::new(500), 0.0);
        cpu.add(SimTime::ZERO, ms(5), ());
        let done = drain(&mut cpu);
        assert_eq!(done[0].0.as_millis(), 10); // half a core → twice as long
    }

    #[test]
    fn oversubscription_pays_context_switch_penalty() {
        // 4 jobs on 2 cores with κ=0.1: excess = 2, slowdown 1 + 0.1·√2.
        let mut cpu = PsCpu::new(Millicores::from_cores(2), 0.1);
        for _ in 0..4 {
            cpu.add(SimTime::ZERO, ms(10), ());
        }
        let done = drain(&mut cpu);
        // base rate 0.5 → 20 ms × 1.1414 ≈ 22.8 ms.
        let got = done.last().unwrap().0.as_nanos() as f64 / 1e6;
        assert!((got - 22.83).abs() < 0.1, "makespan {got} ms");
    }

    #[test]
    fn undersubscription_has_no_penalty() {
        let mut cpu = PsCpu::new(Millicores::from_cores(4), 0.5);
        cpu.add(SimTime::ZERO, ms(10), ());
        cpu.add(SimTime::ZERO, ms(10), ());
        let done = drain(&mut cpu);
        assert_eq!(done.last().unwrap().0.as_millis(), 10);
    }

    #[test]
    fn late_arrival_shares_remaining_capacity() {
        let mut cpu = PsCpu::new(Millicores::from_cores(1), 0.0);
        cpu.add(SimTime::ZERO, ms(10), ());
        // After 5 ms, 5 ms of work remains; a second job arrives.
        cpu.add(SimTime::from_millis(5), ms(5), ());
        let done = drain(&mut cpu);
        // Both progress at 0.5 cores, finishing together at 5 + 10 = 15 ms.
        assert_eq!(done[0].0.as_millis(), 15);
        assert_eq!(done[1].0.as_millis(), 15);
    }

    #[test]
    fn vertical_scale_up_speeds_jobs() {
        let mut cpu = PsCpu::new(Millicores::from_cores(1), 0.0);
        cpu.add(SimTime::ZERO, ms(10), ());
        cpu.add(SimTime::ZERO, ms(10), ());
        // At 5 ms (7.5 ms work left each), scale 1→2 cores.
        cpu.set_limit(SimTime::from_millis(5), Millicores::from_cores(2));
        let done = drain(&mut cpu);
        // Full speed from then on: finish at 5 + 7.5 = 12.5 ms.
        assert_eq!(done[0].0.as_millis(), 12); // 12.5 truncated by as_millis
        assert!(done[0].0.as_nanos() - 12_500_000 < 10);
    }

    #[test]
    fn cancel_removes_job_and_bumps_epoch() {
        let mut cpu = PsCpu::new(Millicores::from_cores(1), 0.0);
        cpu.add(SimTime::ZERO, ms(10), 'a');
        let e = cpu.epoch();
        assert!(cpu.cancel(SimTime::from_millis(1), &'a'));
        assert!(cpu.epoch() > e);
        assert!(!cpu.cancel(SimTime::from_millis(1), &'a'));
        assert_eq!(cpu.active(), 0);
        assert!(cpu.next_completion().is_none());
    }

    #[test]
    fn cancel_by_owner_removes_only_that_job() {
        let mut cpu = PsCpu::new(Millicores::from_cores(4), 0.0);
        cpu.add(SimTime::ZERO, ms(10), 'a');
        cpu.add(SimTime::ZERO, ms(20), 'b');
        cpu.add(SimTime::ZERO, ms(30), 'c');
        let e = cpu.epoch();
        assert!(cpu.cancel(SimTime::from_millis(5), &'b'));
        assert_eq!(cpu.epoch(), e + 1, "one removal, one epoch bump");
        assert_eq!(cpu.active(), 2);
        assert!(!cpu.cancel(SimTime::from_millis(5), &'z'));
        assert_eq!(cpu.epoch(), e + 1, "a miss leaves the epoch alone");
        // The survivors keep the progress they made before the cancel.
        assert_eq!(
            drain(&mut cpu),
            [
                (SimTime::from_millis(10), 'a'),
                (SimTime::from_millis(30), 'c')
            ]
        );
    }

    #[test]
    fn simultaneous_finishers_return_owners_in_insertion_order() {
        let mut cpu = PsCpu::new(Millicores::from_cores(1), 0.0);
        cpu.add(SimTime::ZERO, ms(4), 30u32);
        cpu.add(SimTime::ZERO, ms(9), 10u32);
        // At 2 ms, 30 has 3 ms of work left and 10 has 8 ms.
        cpu.add(SimTime::from_millis(2), ms(3), 20u32);
        cpu.add(SimTime::from_millis(2), ms(3), 5u32);
        // Four jobs on one core: 30, 20 and 5 finish together at 14 ms.
        let (t, first) = cpu.next_completion().unwrap();
        assert_eq!(t, SimTime::from_millis(14));
        assert_eq!(*first, 30);
        let e = cpu.epoch();
        cpu.advance(t);
        assert_eq!(cpu.take_finished(), [30, 20, 5]);
        assert_eq!(cpu.epoch(), e + 1);
        assert_eq!(cpu.active(), 1);
        assert_eq!(drain(&mut cpu), [(SimTime::from_millis(19), 10)]);
    }

    #[test]
    fn zero_limit_makes_no_progress() {
        let mut cpu = PsCpu::new(Millicores::ZERO, 0.0);
        cpu.add(SimTime::ZERO, ms(1), ());
        assert!(cpu.next_completion().is_none());
        cpu.advance(SimTime::from_secs(100));
        assert!(cpu.take_finished().is_empty());
    }

    #[test]
    fn pressure_halves_progress_and_restores() {
        let mut cpu = PsCpu::new(Millicores::from_cores(2), 0.0);
        cpu.add(SimTime::ZERO, ms(10), ());
        // Half the node's cycles are stolen: 1 effective core for 1 job.
        let e = cpu.epoch();
        cpu.set_pressure(SimTime::ZERO, 0.5);
        assert!(cpu.epoch() > e, "pressure change must bump the epoch");
        cpu.advance(SimTime::from_millis(5)); // 5 ms of work done at 1 core
        cpu.set_pressure(SimTime::from_millis(5), 1.0);
        let done = drain(&mut cpu);
        assert_eq!(done[0].0.as_millis(), 10); // 5 ms left at full speed
        assert!((cpu.pressure() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pressure_shrinks_effective_cores_for_sharing_and_penalty() {
        // 2 jobs on 2 cores would run at full speed; at pressure 0.5 they
        // share 1 effective core (0.5 each) and pay the excess penalty.
        let mut cpu = PsCpu::new(Millicores::from_cores(2), 0.1);
        cpu.add(SimTime::ZERO, ms(10), ());
        cpu.add(SimTime::ZERO, ms(10), ());
        cpu.set_pressure(SimTime::ZERO, 0.5);
        let done = drain(&mut cpu);
        // base 0.5, excess 1 → slowdown 1.1 → 20 ms × 1.1 = 22 ms.
        let got = done.last().unwrap().0.as_nanos() as f64 / 1e6;
        assert!((got - 22.0).abs() < 0.1, "makespan {got} ms");
    }

    #[test]
    fn busy_accounting_caps_at_effective_cores() {
        let mut cpu = PsCpu::new(Millicores::from_cores(4), 0.0);
        for _ in 0..8 {
            cpu.add(SimTime::ZERO, ms(100), ());
        }
        cpu.set_pressure(SimTime::ZERO, 0.25); // 1 effective core
        cpu.advance(SimTime::from_millis(10));
        assert!((cpu.busy_core_nanos() - 1.0 * 10e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "pressure must be in (0, 1]")]
    fn zero_pressure_rejected() {
        let mut cpu = PsCpu::<()>::new(Millicores::from_cores(1), 0.0);
        cpu.set_pressure(SimTime::ZERO, 0.0);
    }

    #[test]
    fn busy_vs_useful_accounting() {
        // 4 jobs, 2 cores, κ=0.25 → slowdown 1 + 0.25·√2 ≈ 1.3536;
        // busy 2 cores, useful 2/1.3536.
        let mut cpu = PsCpu::new(Millicores::from_cores(2), 0.25);
        for _ in 0..4 {
            cpu.add(SimTime::ZERO, ms(100), ());
        }
        cpu.advance(SimTime::from_millis(30));
        let busy = cpu.busy_core_nanos();
        let useful = cpu.useful_core_nanos();
        let slowdown = 1.0 + 0.25 * 2.0f64.sqrt();
        assert!((busy - 2.0 * 30e6).abs() < 1.0);
        assert!((useful - 2.0 / slowdown * 30e6).abs() < 2.0);
    }

    /// Under `--features audit` the capacity integral tracks pressure
    /// windows: an oversubscribed CPU run through a pressure dip must still
    /// satisfy busy ≤ cap and useful ≤ busy.
    #[cfg(feature = "audit")]
    #[test]
    fn audit_is_clean_across_pressure_windows() {
        use sim_core::audit::CountingSink;
        let mut cpu = PsCpu::new(Millicores::from_cores(2), 0.1);
        for _ in 0..6 {
            cpu.add(SimTime::ZERO, ms(50), ());
        }
        cpu.set_pressure(SimTime::from_millis(10), 0.5);
        cpu.advance(SimTime::from_millis(30));
        cpu.set_pressure(SimTime::from_millis(30), 1.0);
        let done = drain(&mut cpu);
        assert_eq!(done.len(), 6);
        let end = done.last().unwrap().0;
        let mut sink = CountingSink::new();
        cpu.audit_into(end, &mut sink);
        assert_eq!(sink.total(), 0, "{}", sink.summary());
    }

    #[test]
    fn completion_order_is_deterministic_on_ties() {
        let mut cpu = PsCpu::new(Millicores::from_cores(2), 0.0);
        cpu.add(SimTime::ZERO, ms(5), 'a');
        cpu.add(SimTime::ZERO, ms(5), 'b');
        let (_, first) = cpu.next_completion().unwrap();
        assert_eq!(*first, 'a');
    }

    proptest! {
        /// Work is conserved: total useful core-time equals total demand once
        /// everything completes, regardless of arrival pattern or limit.
        #[test]
        fn prop_work_conservation(
            demands in proptest::collection::vec(1u64..50, 1..20),
            arrivals in proptest::collection::vec(0u64..100, 1..20),
            cores in 1u32..8,
            kappa in 0.0f64..0.2,
        ) {
            let n = demands.len().min(arrivals.len());
            let mut pairs: Vec<(u64, u64)> =
                arrivals.iter().zip(&demands).take(n).map(|(&a, &d)| (a, d)).collect();
            pairs.sort_unstable();
            let mut cpu = PsCpu::new(Millicores::from_cores(cores), kappa);
            let mut pending = pairs.into_iter().enumerate().peekable();
            let mut returned = Vec::new();
            // Event loop: interleave arrivals and completions by time.
            while returned.len() < n {
                let next_arrival = pending.peek().map(|&(_, (a, _))| SimTime::from_millis(a));
                let next_done = cpu.next_completion().map(|(t, _)| t);
                match (next_arrival, next_done) {
                    (Some(a), Some(d)) if a <= d => {
                        let (owner, (_, demand)) = pending.next().unwrap();
                        cpu.add(a, ms(demand), owner);
                    }
                    (Some(a), None) => {
                        let (owner, (_, demand)) = pending.next().unwrap();
                        cpu.add(a, ms(demand), owner);
                    }
                    (_, Some(d)) => {
                        cpu.advance(d);
                        returned.extend(cpu.take_finished());
                    }
                    (None, None) => break,
                }
            }
            // Every owner comes back exactly once.
            returned.sort_unstable();
            prop_assert_eq!(returned, (0..n).collect::<Vec<_>>());
            let total_demand: f64 =
                demands.iter().take(n).map(|&d| d as f64 * 1e6).sum();
            let useful = cpu.useful_core_nanos();
            // All work paid out (within per-job nanosecond epsilon).
            prop_assert!((useful - total_demand).abs() < n as f64 * 10.0,
                "useful {} vs demand {}", useful, total_demand);
        }

        /// The per-job rate never exceeds one core and never increases with
        /// more jobs.
        #[test]
        fn prop_rate_monotone(cores in 1u32..16, kappa in 0.0f64..0.5) {
            let cpu = PsCpu::<()>::new(Millicores::from_cores(cores), kappa);
            let mut last = f64::INFINITY;
            for n in 1..64 {
                let r = cpu.rate(n);
                prop_assert!(r <= 1.0 + 1e-12);
                prop_assert!(r <= last + 1e-12);
                last = r;
            }
        }
    }
}
