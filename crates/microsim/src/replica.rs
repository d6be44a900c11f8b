//! Replica (pod) runtime state: CPU, thread gate, connection pools, samplers.

use crate::config::METRICS_HORIZON;
use crate::request::FrameIdx;
use cluster::{Millicores, PsCpu};
use sim_core::SlabKey;
use std::collections::{BTreeMap, VecDeque};
use telemetry::{CompletionLog, ConcurrencyTracker, ReplicaId, ServiceId};

/// Lifecycle of a replica.
///
/// Stored outside [`Replica`], in the world's dense state array, so the
/// load balancer's readiness scans walk a flat `Vec<ReplicaState>` instead
/// of dereferencing whole replica structs (struct-of-arrays layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Created but not yet ready (container starting); receives no traffic.
    Starting,
    /// Serving traffic.
    Ready,
    /// Excluded from load balancing; will be removed once idle.
    Draining,
}

/// The thread pool of one replica: a concurrency gate with a FIFO accept
/// queue. `active` counts requests holding a thread (processing or waiting
/// on downstream calls), which is what the paper plots as "Running Threads".
#[derive(Debug, Clone)]
pub(crate) struct ThreadGate {
    pub limit: usize,
    pub active: usize,
    pub queue: VecDeque<(SlabKey, FrameIdx)>,
}

impl ThreadGate {
    fn new(limit: usize) -> Self {
        ThreadGate {
            limit,
            active: 0,
            queue: VecDeque::new(),
        }
    }

    /// Tries to take a thread immediately; `false` means the caller must
    /// queue.
    pub fn try_acquire(&mut self) -> bool {
        if self.active < self.limit {
            self.active += 1;
            true
        } else {
            false
        }
    }

    /// Releases a thread. The caller is responsible for admitting the next
    /// queued request (if any) so it can do the bookkeeping that goes with it.
    pub fn release(&mut self) {
        debug_assert!(self.active > 0, "thread release without acquire");
        self.active = self.active.saturating_sub(1);
    }

    /// Pops the next queued request if a thread is free.
    pub fn admit_next(&mut self) -> Option<(SlabKey, FrameIdx)> {
        if self.active < self.limit {
            let next = self.queue.pop_front()?;
            self.active += 1;
            Some(next)
        } else {
            None
        }
    }
}

/// A waiting downstream call: which frame wants to talk to which target,
/// and which of its `calls` entries records the call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConnWaiter {
    pub request: SlabKey,
    pub frame: FrameIdx,
    pub call_idx: usize,
}

/// A client-side connection pool from this replica toward one target
/// service: a concurrency gate over outstanding calls.
#[derive(Debug, Clone)]
pub(crate) struct ConnPool {
    pub limit: usize,
    pub in_use: usize,
    pub waiters: VecDeque<ConnWaiter>,
}

impl ConnPool {
    fn new(limit: usize) -> Self {
        ConnPool {
            limit,
            in_use: 0,
            waiters: VecDeque::new(),
        }
    }

    pub fn try_acquire(&mut self) -> bool {
        if self.in_use < self.limit {
            self.in_use += 1;
            true
        } else {
            false
        }
    }

    pub fn release(&mut self) {
        debug_assert!(self.in_use > 0, "connection release without acquire");
        self.in_use = self.in_use.saturating_sub(1);
    }

    /// Pops the next waiter if a connection is free, keeping it accounted.
    pub fn grant_next(&mut self) -> Option<ConnWaiter> {
        if self.in_use < self.limit {
            let w = self.waiters.pop_front()?;
            self.in_use += 1;
            Some(w)
        } else {
            None
        }
    }
}

/// The samplers the SCG model reads (DESIGN §9): in-service concurrency
/// (`Q`) and span completions (the goodput source). Only replicas of a
/// monitored service carry them (see [`crate::World::monitor`]).
pub(crate) struct Samplers {
    pub concurrency: ConcurrencyTracker,
    pub completions: CompletionLog,
}

impl Samplers {
    fn new() -> Self {
        Samplers {
            concurrency: ConcurrencyTracker::new(METRICS_HORIZON),
            completions: CompletionLog::new(METRICS_HORIZON),
        }
    }
}

/// One replica (pod) of a service.
///
/// Hot scheduling state (the [`ReplicaState`]) lives in the world's dense
/// array; what remains here is the per-replica machinery the event handlers
/// touch once a replica has been chosen.
pub(crate) struct Replica {
    pub id: ReplicaId,
    pub service: ServiceId,
    /// The pod's CPU; each job is owned by the frame that issued it.
    pub cpu: PsCpu<(SlabKey, FrameIdx)>,
    pub threads: ThreadGate,
    /// Connection pools toward limited targets (absent = unlimited).
    pub conns: BTreeMap<ServiceId, ConnPool>,
    /// `Some` on a monitored service's replicas, `None` elsewhere.
    pub samplers: Option<Samplers>,
}

impl Replica {
    pub fn new(
        id: ReplicaId,
        service: ServiceId,
        cpu_limit: Millicores,
        csw_overhead: f64,
        thread_limit: usize,
        conn_limits: &BTreeMap<ServiceId, usize>,
        monitored: bool,
    ) -> Self {
        Replica {
            id,
            service,
            cpu: PsCpu::new(cpu_limit, csw_overhead),
            threads: ThreadGate::new(thread_limit),
            conns: conn_limits
                .iter()
                .map(|(&t, &l)| (t, ConnPool::new(l)))
                .collect(),
            samplers: monitored.then(Samplers::new),
        }
    }

    /// Gives this replica its samplers, if it has none yet.
    pub fn monitor(&mut self) {
        self.samplers.get_or_insert_with(Samplers::new);
    }

    /// Requests currently holding a thread plus queued for one.
    pub fn outstanding(&self) -> usize {
        self.threads.active + self.threads.queue.len()
    }

    /// True when nothing is in flight (safe to remove while draining).
    pub fn is_idle(&self) -> bool {
        self.threads.active == 0 && self.threads.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::{SimDuration, SimTime};

    fn key(n: usize) -> SlabKey {
        // Mint distinct keys the way the world does: via a slab.
        let mut slab = sim_core::Slab::new();
        (0..=n).map(|i| slab.insert(i)).last().unwrap()
    }

    fn replica() -> Replica {
        Replica::new(
            ReplicaId(0),
            ServiceId(0),
            Millicores::from_cores(2),
            0.0,
            2,
            &BTreeMap::from([(ServiceId(9), 1)]),
            false,
        )
    }

    #[test]
    fn thread_gate_limits_and_queues() {
        let mut g = ThreadGate::new(2);
        assert!(g.try_acquire());
        assert!(g.try_acquire());
        assert!(!g.try_acquire());
        g.queue.push_back((key(1), 0));
        assert!(g.admit_next().is_none(), "no free thread yet");
        g.release();
        let (req, _) = g.admit_next().unwrap();
        assert_eq!(req, key(1));
        assert_eq!(g.active, 2);
    }

    #[test]
    fn conn_pool_grants_fifo() {
        let mut p = ConnPool::new(1);
        assert!(p.try_acquire());
        assert!(!p.try_acquire());
        p.waiters.push_back(ConnWaiter {
            request: key(1),
            frame: 0,
            call_idx: 0,
        });
        p.waiters.push_back(ConnWaiter {
            request: key(2),
            frame: 0,
            call_idx: 0,
        });
        assert!(p.grant_next().is_none());
        p.release();
        assert_eq!(p.grant_next().unwrap().request, key(1));
        assert!(p.grant_next().is_none(), "pool full again");
    }

    #[test]
    fn replica_idleness() {
        let mut r = replica();
        assert!(r.is_idle());
        r.threads.try_acquire();
        assert!(!r.is_idle());
        assert_eq!(r.outstanding(), 1);
    }

    #[test]
    fn busy_time_accumulates_on_the_cpu() {
        let mut r = replica();
        // One job on a 2-core pod: busy = 1 core.
        r.cpu
            .add(SimTime::ZERO, SimDuration::from_millis(100), (key(1), 0));
        r.cpu.advance(SimTime::from_millis(10));
        assert!((r.cpu.busy_core_nanos() - 10e6).abs() < 1.0);
    }
}
