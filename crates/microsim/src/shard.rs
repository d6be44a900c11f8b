//! Shard tally: a parallelism measure over [`World`](crate::World)'s one
//! event loop.
//!
//! Sharding partitions services into contiguous shards and pops the single
//! event queue in lookahead windows `[w, w + L)`, anchored at the start of
//! each `run_until` span. Every event counts on the shard of the service
//! it executes on; per window, the busiest shard's count is added to the
//! critical path
//! ([`World::critical_path_events`](crate::World::critical_path_events)).
//! Events that no service owns — faults and their ends, restarts, trace
//! ingest, stale events — count in full, so with one shard the critical
//! path is the whole event stream.
//!
//! The tally only observes: the dispatch order, every random draw and
//! every byte of output are the unsharded world's.

use std::ops::Range;
use telemetry::ServiceId;

/// Why sharding could not be enabled on a [`World`](crate::World).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The world has already dispatched events, so the tally could not
    /// cover the whole run.
    AlreadyStarted,
    /// The window width is zero: `net_delay.lower_bound()`, or the
    /// installed network's lookahead. Use latencies with a positive lower
    /// bound.
    ZeroLookahead,
    /// The shard plan is empty, non-contiguous, or does not cover services.
    BadPlan(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::AlreadyStarted => {
                write!(f, "sharding must be enabled before the simulation starts")
            }
            ShardError::ZeroLookahead => {
                write!(f, "the lookahead window is zero: no window to tally")
            }
            ShardError::BadPlan(why) => write!(f, "bad shard plan: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Per-shard dispatch counters of the current window, and the critical
/// path accumulated over closed windows.
#[derive(Debug)]
pub(crate) struct ShardTally {
    /// Shard of each service, indexed by `ServiceId`.
    shard_of: Vec<u32>,
    /// Window width in nanoseconds (always positive).
    lookahead: u64,
    /// Dispatches per shard in the open window.
    window: Vec<u64>,
    /// The busiest shard's count in the open window.
    window_max: u64,
    critical_path: u64,
}

impl ShardTally {
    /// A tally over `plan` (contiguous, non-empty ranges covering
    /// `0..services`) with windows `lookahead` nanoseconds wide.
    pub(crate) fn new(
        plan: &[Range<usize>],
        services: usize,
        lookahead: u64,
    ) -> Result<ShardTally, ShardError> {
        if plan.is_empty() {
            return Err(ShardError::BadPlan("empty plan".into()));
        }
        let mut shard_of = Vec::with_capacity(services);
        for (k, r) in plan.iter().enumerate() {
            if r.start != shard_of.len() || r.is_empty() {
                return Err(ShardError::BadPlan(format!(
                    "range {}..{} does not continue contiguously from {}",
                    r.start,
                    r.end,
                    shard_of.len()
                )));
            }
            shard_of.resize(r.end, k as u32);
        }
        if shard_of.len() != services {
            return Err(ShardError::BadPlan(format!(
                "plan covers {} of {services} services",
                shard_of.len()
            )));
        }
        if lookahead == 0 {
            return Err(ShardError::ZeroLookahead);
        }
        Ok(ShardTally {
            shard_of,
            lookahead,
            window: vec![0; plan.len()],
            window_max: 0,
            critical_path: 0,
        })
    }

    pub(crate) fn shards(&self) -> usize {
        self.window.len()
    }

    pub(crate) fn lookahead(&self) -> u64 {
        self.lookahead
    }

    pub(crate) fn critical_path(&self) -> u64 {
        self.critical_path
    }

    /// Counts one dispatch: on its service's shard, or in full when no
    /// service owns it.
    pub(crate) fn count(&mut self, service: Option<ServiceId>) {
        match service {
            Some(s) => {
                let n = &mut self.window[self.shard_of[s.get() as usize] as usize];
                *n += 1;
                self.window_max = self.window_max.max(*n);
            }
            None => self.critical_path += 1,
        }
    }

    /// Closes the open window: its busiest shard joins the critical path.
    pub(crate) fn close_window(&mut self) {
        self.critical_path += self.window_max;
        self.window_max = 0;
        self.window.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::{ShardError, ShardTally};
    use crate::config::{Behavior, ServiceSpec, Stage, WorldConfig};
    use crate::world::World;
    use sim_core::{Dist, SimDuration, SimRng, SimTime};
    use telemetry::{RequestTypeId, ServiceId};

    #[test]
    fn plans_must_tile_the_services() {
        assert!(ShardTally::new(&[0..2, 2..5], 5, 100).is_ok());
        let bad: [&[std::ops::Range<usize>]; 4] =
            [&[], &[0..2, 3..5], &[0..2, 2..2, 2..5], &[0..2, 2..4]];
        for plan in bad {
            assert!(
                matches!(ShardTally::new(plan, 5, 100), Err(ShardError::BadPlan(_))),
                "{plan:?}"
            );
        }
        assert_eq!(
            ShardTally::new(&[0..2, 2..5], 5, 0).unwrap_err(),
            ShardError::ZeroLookahead
        );
    }

    #[test]
    fn windows_add_their_busiest_shard_and_unowned_events_in_full() {
        let mut t = ShardTally::new(&[0..1, 1..3], 3, 100).unwrap();
        for s in [0, 1, 2, 2] {
            t.count(Some(ServiceId(s)));
        }
        t.count(None);
        t.close_window();
        assert_eq!(t.critical_path(), 3 + 1);
        t.count(Some(ServiceId(0)));
        t.close_window();
        t.close_window();
        assert_eq!(t.critical_path(), 5);
    }

    /// Four services (front -> mid -> {leaf_a, leaf_b}) under steady load
    /// with timeouts, run with `shards` (`None`: never sharded). Returns
    /// the completion stream, drops, events, spans and critical path.
    fn run(shards: Option<usize>) -> (Vec<(u64, u64)>, u64, u64, u64, u64) {
        let mut w = World::new(WorldConfig::default(), SimRng::seed_from(7));
        let rt = RequestTypeId(0);
        let (mid, leaf_a, leaf_b) = (ServiceId(1), ServiceId(2), ServiceId(3));
        let front = w.add_service(ServiceSpec::new("front").threads(4).on(
            rt,
            Behavior::new(vec![Stage::compute_ms(1), Stage::call(mid)]),
        ));
        w.add_service(ServiceSpec::new("mid").threads(4).on(
            rt,
            Behavior::new(vec![
                Stage::fanout(vec![leaf_a, leaf_b]),
                Stage::compute_ms(1),
            ]),
        ));
        w.add_service(ServiceSpec::new("leaf-a").on(rt, Behavior::leaf(Dist::constant_ms(3))));
        w.add_service(ServiceSpec::new("leaf-b").on(rt, Behavior::leaf(Dist::constant_ms(5))));
        w.add_request_type_with_timeout("GET /", front, Some(SimDuration::from_millis(200)));
        for sid in 0..4u32 {
            for _ in 0..2 {
                let id = w.add_replica(ServiceId(sid)).unwrap();
                w.make_ready(id);
            }
        }
        if let Some(n) = shards {
            w.enable_sharding(n).unwrap();
        }
        for i in 0..200u64 {
            w.inject_at(SimTime::from_nanos(500_000 * i), rt);
        }
        let mut done = Vec::new();
        for ms in (50..=2_000).step_by(50) {
            w.run_until_into(SimTime::from_millis(ms), &mut done);
        }
        assert!(w.is_quiescent(), "requests still pending at t=2s");
        let obs = done
            .iter()
            .map(|c| (c.request.get(), c.completed.as_nanos()))
            .collect();
        let crit = w.critical_path_events();
        (
            obs,
            w.dropped(),
            w.events_dispatched(),
            w.spans_created(),
            crit,
        )
    }

    #[test]
    fn sharding_changes_only_the_critical_path() {
        let (done, dropped, events, spans, crit) = run(None);
        assert!(!done.is_empty());
        assert_eq!(crit, events, "unsharded: the critical path is every event");
        let mut last = events;
        for n in [1, 2, 4] {
            let sharded = run(Some(n));
            assert_eq!(
                (&sharded.0, sharded.1, sharded.2, sharded.3),
                (&done, dropped, events, spans),
                "shards={n}"
            );
            assert!(sharded.4 <= last, "shards={n}: critical path grew");
            last = sharded.4;
        }
        assert_eq!(run(Some(1)).4, events, "one shard: every event in full");
        assert!(last < events, "four shards expose no parallelism");
    }
}
