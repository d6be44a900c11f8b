//! Conservative sharded engine: deterministic event execution across
//! service shards inside a single [`World`](crate::World).
//!
//! # Model
//!
//! Services are partitioned into contiguous shards. Each shard owns a
//! [`TimerWheel`], the replicas of its services, and the in-flight *jobs*
//! (spans) executing on them. The calling thread advances the shards in
//! turn through sequential time windows whose width is the **lookahead**
//! `L`: the minimum network latency of any inter-service message
//! (`WorldConfig::net_delay.lower_bound()`). Every cross-service
//! interaction — child calls, responses — is a message carrying an
//! explicit `(time, key)` identity; messages between shards wait in the
//! sender's outbox until the window barrier delivers them.
//!
//! Conservatism: a message sent while processing window `[w, w+L)` is
//! delivered no earlier than `w + L`, i.e. never inside the window that
//! produced it. Window-local execution therefore never needs rollback, and
//! because every wheel orders events by `(time, key)` with globally unique
//! keys, the per-shard execution order is a pure function of the message
//! set — independent of shard count and of the order shards take turns.
//!
//! Shards get no threads of their own. Per window, the busiest shard's
//! dispatch count is tallied as the critical path
//! ([`World::critical_path_events`](crate::World::critical_path_events)),
//! so the parallelism the schedule would expose stays measurable; on the
//! measured hosts it never repaid the barrier cost of a thread per shard
//! (DESIGN §14.4).
//!
//! # Partition independence
//!
//! Every event key is derived from the *causal* history of one service
//! (`pack(service, seq)`), every random draw comes from a per-service or
//! per-purpose split stream, and global observables (completions, drops,
//! traces) are buffered per shard and merged in `(time, key)` order at run
//! boundaries. `shards = 1` is therefore the family's sequential oracle and
//! `shards = N` reproduces it byte for byte.

use crate::config::{LbPolicy, RequestTypeSpec, Stage, WorldConfig};
use crate::faults::{BlackoutMode, FaultKind};
use crate::replica::{ConnPool, ConnWaiter, Replica, ReplicaState};
use crate::world::{Completion, DropBreakdown, DropReason, ServiceRuntime};
use cluster::{ClusterState, Millicores, NodeId, PlacementError};
use sim_core::{SimDuration, SimRng, SimTime, Slab, SlabKey, TimerWheel};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::ops::Range;
use telemetry::{
    ChildCall, ClientLog, ReplicaId, RequestId, RequestTypeId, ServiceId, Span, SpanId, Trace,
    TraceWarehouse,
};

/// Why a [`World`](crate::World) could not be switched to the sharded
/// engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The world is already sharded.
    AlreadySharded,
    /// A message-passing network is installed; the sharded engine models
    /// inter-service latency itself and cannot compose with `crates/net`.
    NetworkInstalled,
    /// A fault schedule was installed before sharding was enabled; enable
    /// sharding first so faults become barrier actions.
    FaultsInstalled,
    /// Simulation has already started (clock advanced or requests injected).
    AlreadyStarted,
    /// `net_delay.lower_bound()` is zero, so no conservative lookahead
    /// window exists to advance shards by. Use a distribution with a
    /// positive lower bound.
    ZeroLookahead,
    /// The shard plan is empty, non-contiguous, or does not cover services.
    BadPlan(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::AlreadySharded => write!(f, "world is already sharded"),
            ShardError::NetworkInstalled => {
                write!(f, "sharding cannot be enabled with a network installed")
            }
            ShardError::FaultsInstalled => {
                write!(f, "enable sharding before installing a fault schedule")
            }
            ShardError::AlreadyStarted => {
                write!(f, "sharding must be enabled before the simulation starts")
            }
            ShardError::ZeroLookahead => {
                write!(
                    f,
                    "net_delay lower bound is zero: no conservative lookahead"
                )
            }
            ShardError::BadPlan(why) => write!(f, "bad shard plan: {why}"),
        }
    }
}

impl std::error::Error for ShardError {}

// ---------------------------------------------------------------------
// Event keys
// ---------------------------------------------------------------------

/// Bits reserved for the per-source sequence counter.
const SEQ_BITS: u32 = 40;
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;
/// Synthetic source id for client-originated events (injections).
const CLIENT_SRC: u32 = (1 << 24) - 2;
/// Synthetic source id for coordinator/fault-originated keys.
const FAULT_SRC: u32 = (1 << 24) - 1;

/// Packs a source id and a per-source sequence number into one globally
/// unique, totally ordered event key. Keys are partition-independent: the
/// sequence number counts events *originated by one service*, which is a
/// function of that service's causal history only.
#[inline]
fn pack(src: u32, seq: u64) -> u64 {
    debug_assert!(seq <= SEQ_MASK, "event sequence overflow");
    ((src as u64) << SEQ_BITS) | (seq & SEQ_MASK)
}

/// SplitMix64 finalizer: a bijective mixer, so distinct inputs give
/// distinct span ids.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Root span id for a request: a hash of its identity rather than a global
/// counter, so ids do not depend on cross-service event interleaving.
#[inline]
fn root_span(request: RequestId) -> SpanId {
    SpanId(mix64(request.get().wrapping_add(1)))
}

/// Child span id: hash-chained from the parent span and the call index, so
/// the parent can name the child's span before the child exists.
#[inline]
fn child_span(parent: SpanId, call_idx: usize) -> SpanId {
    SpanId(mix64(parent.get() ^ mix64(call_idx as u64 + 1)))
}

// ---------------------------------------------------------------------
// Messages and events
// ---------------------------------------------------------------------

/// Names the job (and call slot) awaiting a child's response. The slab key
/// is generational, so replies to finished or killed jobs are inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ParentRef {
    shard: u32,
    job: SlabKey,
    call_idx: u32,
}

/// An inter-service call on the wire.
#[derive(Debug, Clone)]
struct CallMsg {
    request: RequestId,
    rtype: RequestTypeId,
    target: ServiceId,
    parent: Option<ParentRef>,
    span: SpanId,
    parent_span: Option<SpanId>,
    attempt: u32,
    deadline: Option<SimTime>,
    issued: SimTime,
}

/// A message between services (possibly crossing shards).
#[derive(Debug, Clone)]
enum Msg {
    /// A call arriving at its target service.
    Call(CallMsg),
    /// A child's response. `spans: None` is an error response: the subtree
    /// failed (connection retries exhausted) and the parent must abort.
    Reply {
        to: ParentRef,
        spans: Option<Vec<Span>>,
    },
}

/// A shard-local event.
#[derive(Debug, Clone)]
enum SEvent {
    Msg(Msg),
    CpuDone {
        replica: ReplicaId,
        epoch: u64,
    },
    ReplicaReady {
        replica: ReplicaId,
    },
    /// The request-wide client deadline fires for one job.
    DeadlineKill {
        job: SlabKey,
    },
    /// A request whose ingress latency already exceeded its deadline is
    /// dropped at the deadline without ever arriving.
    PureDrop {
        request: RequestId,
    },
}

/// One in-flight span: a request executing one service's behaviour on one
/// replica. The sharded engine's analogue of `request::Frame`, except each
/// job is owned by exactly one shard.
#[derive(Debug)]
struct SJob {
    request: RequestId,
    rtype: RequestTypeId,
    service: ServiceId,
    replica: ReplicaId,
    parent: Option<ParentRef>,
    span: SpanId,
    parent_span: Option<SpanId>,
    /// The arrival message's key; reused for the job's deadline event and
    /// any drop/completion records, keeping them partition-independent.
    key: u64,
    issued: SimTime,
    arrival: SimTime,
    started: Option<SimTime>,
    stage: usize,
    pending_children: usize,
    calls: Vec<ChildCall>,
    child_spans: Vec<Vec<Span>>,
    deadline: Option<SimTime>,
}

/// Per-service state local to the owning shard.
#[derive(Debug)]
struct SvcLocal {
    /// Live replica ids in creation order.
    replicas: Vec<ReplicaId>,
    /// Round-robin cursor.
    rr: usize,
    /// Demand / latency / startup draws for this service.
    rng: SimRng,
    /// Load-balancer draws for calls *to* this service.
    lb_rng: SimRng,
    /// Event-key sequence counter.
    seq: u64,
}

/// Immutable engine context handed to shard handlers: everything a shard
/// may read while processing a window. Disjoint from any `&mut ShardCore`.
struct EngCtx<'a> {
    services: &'a [ServiceRuntime],
    config: &'a WorldConfig,
    shard_of: &'a [u32],
}

// ---------------------------------------------------------------------
// ShardCore: one shard's state and event handlers
// ---------------------------------------------------------------------

/// One shard: a contiguous range of services, their replicas, and the jobs
/// executing on them, driven by a private timer wheel.
struct ShardCore {
    idx: u32,
    /// First service id owned by this shard.
    base: usize,
    svcs: Vec<SvcLocal>,
    wheel: TimerWheel<SEvent>,
    replicas: Slab<Replica>,
    /// Dense `ReplicaId → SlabKey` for replicas owned by this shard.
    replica_lookup: Vec<Option<SlabKey>>,
    replica_states: Vec<ReplicaState>,
    jobs: Slab<SJob>,
    /// Requests killed by a replica crash: in-flight calls for them are
    /// discarded on arrival instead of spawning fresh jobs.
    dead: HashSet<RequestId>,
    blackout: Option<BlackoutMode>,
    lag_completions: Vec<(ReplicaId, SimTime, SimDuration)>,
    lag_traces: Vec<(u64, Trace)>,
    /// Root completions buffered for the coordinator's `(time, key)` merge.
    out_completions: Vec<(SimTime, u64, Completion)>,
    out_drops: Vec<(SimTime, u64, RequestId, DropReason)>,
    out_traces: Vec<(SimTime, u64, Trace)>,
    /// Replicas retired mid-window; the coordinator settles them against
    /// the cluster and the service-level busy counters at barriers.
    retired: Vec<(ServiceId, ReplicaId, f64)>,
    events_dispatched: u64,
    spans_created: u64,
    /// Requests injected at this shard's entry services whose root call is
    /// still in flight.
    pending_roots: u64,
    /// Root jobs currently alive on this shard.
    live_roots: u64,
    /// Cross-shard messages `(dst, time, key, msg)` sent since the last
    /// window barrier, which delivers them (see [`deliver_mail`]).
    outbox: Vec<(u32, SimTime, u64, Msg)>,
    cpu_jobs_scratch: Vec<cluster::CpuJobId>,
    cpu_work_scratch: Vec<SlabKey>,
    #[cfg(feature = "audit")]
    audit_last: SimTime,
    #[cfg(feature = "audit")]
    audit_violations: Vec<sim_core::audit::Violation>,
}

impl ShardCore {
    fn new(idx: u32, span: &Range<usize>, rng: &SimRng) -> ShardCore {
        ShardCore {
            idx,
            base: span.start,
            svcs: span
                .clone()
                .map(|sid| SvcLocal {
                    replicas: Vec::new(),
                    rr: 0,
                    rng: rng.split_index("shard-svc", sid as u64),
                    lb_rng: rng.split_index("shard-lb", sid as u64),
                    seq: 0,
                })
                .collect(),
            wheel: TimerWheel::default(),
            replicas: Slab::new(),
            replica_lookup: Vec::new(),
            replica_states: Vec::new(),
            jobs: Slab::new(),
            dead: HashSet::new(),
            blackout: None,
            lag_completions: Vec::new(),
            lag_traces: Vec::new(),
            out_completions: Vec::new(),
            out_drops: Vec::new(),
            out_traces: Vec::new(),
            retired: Vec::new(),
            events_dispatched: 0,
            spans_created: 0,
            pending_roots: 0,
            live_roots: 0,
            outbox: Vec::new(),
            cpu_jobs_scratch: Vec::new(),
            cpu_work_scratch: Vec::new(),
            #[cfg(feature = "audit")]
            audit_last: SimTime::ZERO,
            #[cfg(feature = "audit")]
            audit_violations: Vec::new(),
        }
    }

    #[inline]
    fn svc(&self, sid: ServiceId) -> &SvcLocal {
        &self.svcs[sid.get() as usize - self.base]
    }

    #[inline]
    fn svc_mut(&mut self, sid: ServiceId) -> &mut SvcLocal {
        &mut self.svcs[sid.get() as usize - self.base]
    }

    /// Allocates the next event key originated by `sid`.
    #[inline]
    fn fresh_key(&mut self, sid: ServiceId) -> u64 {
        let svc = self.svc_mut(sid);
        let k = pack(sid.get(), svc.seq);
        svc.seq += 1;
        k
    }

    #[inline]
    fn rep_key(&self, id: ReplicaId) -> Option<SlabKey> {
        self.replica_lookup
            .get(id.get() as usize)
            .copied()
            .flatten()
    }

    fn rep(&self, id: ReplicaId) -> Option<&Replica> {
        self.rep_key(id).and_then(|k| self.replicas.get(k))
    }

    fn state_of(&self, id: ReplicaId) -> Option<ReplicaState> {
        self.rep_key(id)
            .and_then(|_| self.replica_states.get(id.get() as usize).copied())
    }

    fn set_state(&mut self, id: ReplicaId, state: ReplicaState) {
        let idx = id.get() as usize;
        if idx < self.replica_states.len() {
            self.replica_states[idx] = state;
        }
    }

    fn install(&mut self, rep: Replica, state: ReplicaState) {
        let (id, sid) = (rep.id, rep.service);
        let idx = id.get() as usize;
        if self.replica_lookup.len() <= idx {
            self.replica_lookup.resize(idx + 1, None);
            self.replica_states.resize(idx + 1, ReplicaState::Starting);
        }
        let key = self.replicas.insert(rep);
        self.replica_lookup[idx] = Some(key);
        self.replica_states[idx] = state;
        self.svc_mut(sid).replicas.push(id);
    }

    fn make_ready(&mut self, id: ReplicaId) {
        if self.state_of(id) == Some(ReplicaState::Starting) {
            self.set_state(id, ReplicaState::Ready);
        }
    }

    /// Removes an idle replica, buffering its retirement for the
    /// coordinator (cluster deallocation + service busy-counter carryover).
    fn remove_replica_final(&mut self, now: SimTime, id: ReplicaId) {
        let idx = id.get() as usize;
        let Some(slot) = self.replica_lookup.get_mut(idx).and_then(Option::take) else {
            return;
        };
        let Some(mut rep) = self.replicas.remove(slot) else {
            return;
        };
        debug_assert!(rep.is_idle(), "removing a non-idle replica");
        rep.cpu.advance(now);
        let sid = rep.service;
        self.retired.push((sid, id, rep.cpu.busy_core_nanos()));
        self.svc_mut(sid).replicas.retain(|&r| r != id);
    }

    fn maybe_reap_drained(&mut self, now: SimTime, id: ReplicaId) {
        let should_remove = self.state_of(id) == Some(ReplicaState::Draining)
            && self.rep(id).is_some_and(|r| r.is_idle());
        if should_remove {
            self.remove_replica_final(now, id);
        }
    }

    // -- load balancing -------------------------------------------------

    fn ready_count(&self, sid: ServiceId) -> usize {
        self.svc(sid)
            .replicas
            .iter()
            .filter(|&&id| self.state_of(id) == Some(ReplicaState::Ready))
            .count()
    }

    fn nth_ready(&self, sid: ServiceId, n: usize) -> Option<ReplicaId> {
        self.svc(sid)
            .replicas
            .iter()
            .copied()
            .filter(|&id| self.state_of(id) == Some(ReplicaState::Ready))
            .nth(n)
    }

    /// Picks a ready replica of `sid` using the service's LB policy.
    /// Server-side: the draw happens at the *target*, from the target's
    /// split streams, so it is independent of who called and from where.
    fn pick_replica(&mut self, ctx: &EngCtx, sid: ServiceId) -> Option<ReplicaId> {
        let n = self.ready_count(sid);
        if n == 0 {
            return None;
        }
        match ctx.services[sid.get() as usize].spec.lb {
            LbPolicy::RoundRobin => {
                let k = {
                    let svc = self.svc_mut(sid);
                    let k = svc.rr % n;
                    svc.rr = svc.rr.wrapping_add(1);
                    k
                };
                self.nth_ready(sid, k)
            }
            LbPolicy::Random => {
                let k = self.svc_mut(sid).lb_rng.index(n);
                self.nth_ready(sid, k)
            }
            LbPolicy::LeastOutstanding => {
                let ka = self.svc_mut(sid).lb_rng.index(n);
                let a = self.nth_ready(sid, ka)?;
                let kb = self.svc_mut(sid).lb_rng.index(n);
                let b = self.nth_ready(sid, kb)?;
                let oa = self.rep(a).map_or(usize::MAX, Replica::outstanding);
                let ob = self.rep(b).map_or(usize::MAX, Replica::outstanding);
                Some(if oa <= ob { a } else { b })
            }
        }
    }

    // -- messaging ------------------------------------------------------

    /// Routes a message: same-shard messages go straight into the local
    /// wheel; cross-shard messages wait in the outbox until the next window
    /// barrier. Conservative because cross-shard delivery times are at
    /// least `now + lookahead`.
    fn send_to_shard(&mut self, at: SimTime, key: u64, dst: u32, msg: Msg) {
        if dst == self.idx {
            self.wheel.schedule(at, key, SEvent::Msg(msg));
        } else {
            self.outbox.push((dst, at, key, msg));
        }
    }

    // -- dispatch -------------------------------------------------------

    fn dispatch(&mut self, ctx: &EngCtx, now: SimTime, key: u64, ev: SEvent) {
        self.events_dispatched += 1;
        #[cfg(feature = "audit")]
        {
            if now < self.audit_last {
                self.audit_violations.push(sim_core::audit::Violation {
                    invariant: sim_core::audit::Invariant::EventMonotonicity,
                    at_nanos: now.as_nanos(),
                    detail: format!(
                        "event at {} ns dispatched after event at {} ns",
                        now.as_nanos(),
                        self.audit_last.as_nanos()
                    ),
                });
            }
            self.audit_last = now;
        }
        match ev {
            SEvent::Msg(Msg::Call(call)) => self.on_call(ctx, now, key, call),
            SEvent::Msg(Msg::Reply { to, spans }) => self.on_reply(ctx, now, to, spans),
            SEvent::CpuDone { replica, epoch } => self.on_cpu_done(ctx, now, replica, epoch),
            SEvent::ReplicaReady { replica } => self.make_ready(replica),
            SEvent::DeadlineKill { job } => self.on_deadline_kill(ctx, now, job),
            SEvent::PureDrop { request } => {
                self.out_drops
                    .push((now, key, request, DropReason::ClientTimeout));
                self.pending_roots -= 1;
            }
        }
    }

    fn on_call(&mut self, ctx: &EngCtx, now: SimTime, key: u64, call: CallMsg) {
        if self.dead.contains(&call.request) {
            debug_assert!(
                call.parent.is_some(),
                "root call for a crash-killed request"
            );
            return;
        }
        if call.parent.is_some() {
            if let Some(d) = call.deadline {
                // The request-wide deadline passed in flight; every job of
                // the request is killed at `d` by its own DeadlineKill, so
                // the would-be parent is already gone. Discard.
                if now >= d {
                    return;
                }
            }
        }
        let Some(replica) = self.pick_replica(ctx, call.target) else {
            match call.parent {
                None => {
                    // Root calls never retry: no ready entry replica means
                    // an edge refusal, exactly like the classic engine.
                    self.out_drops
                        .push((now, key, call.request, DropReason::Refused));
                    self.pending_roots -= 1;
                }
                Some(parent) => {
                    if call.attempt >= ctx.config.max_connect_retries {
                        let net = {
                            let target = call.target;
                            let svc = self.svc_mut(target);
                            ctx.config.net_delay.sample(&mut svc.rng)
                        };
                        let rkey = self.fresh_key(call.target);
                        self.send_to_shard(
                            now + net,
                            rkey,
                            parent.shard,
                            Msg::Reply {
                                to: parent,
                                spans: None,
                            },
                        );
                    } else {
                        let mut retry = call;
                        retry.attempt += 1;
                        self.wheel.schedule(
                            now + SimDuration::from_millis(10),
                            key,
                            SEvent::Msg(Msg::Call(retry)),
                        );
                    }
                }
            }
            return;
        };
        if call.parent.is_none() {
            self.pending_roots -= 1;
            self.live_roots += 1;
        }
        let deadline = call.deadline;
        let jk = self.jobs.insert(SJob {
            request: call.request,
            rtype: call.rtype,
            service: call.target,
            replica,
            parent: call.parent,
            span: call.span,
            parent_span: call.parent_span,
            key,
            issued: call.issued,
            arrival: now,
            started: None,
            stage: 0,
            pending_children: 0,
            calls: Vec::new(),
            child_spans: Vec::new(),
            deadline,
        });
        self.spans_created += 1;
        if let Some(d) = deadline {
            self.wheel
                .schedule(d, key, SEvent::DeadlineKill { job: jk });
        }
        self.admit_or_queue(ctx, now, jk);
    }

    fn admit_or_queue(&mut self, ctx: &EngCtx, now: SimTime, jk: SlabKey) {
        let replica = self.jobs.get(jk).expect("fresh job").replica;
        let Some(rk) = self.rep_key(replica) else {
            self.fail_job(ctx, now, jk);
            return;
        };
        let admitted = {
            let r = self.replicas.get_mut(rk).expect("live replica");
            if r.threads.try_acquire() {
                true
            } else {
                r.threads.queue.push_back((jk, 0));
                false
            }
        };
        if admitted {
            self.start_job(ctx, now, jk);
        }
    }

    fn start_job(&mut self, ctx: &EngCtx, now: SimTime, jk: SlabKey) {
        let replica = {
            let j = self.jobs.get_mut(jk).expect("admitted job");
            j.started = Some(now);
            j.replica
        };
        if let Some(rk) = self.rep_key(replica) {
            self.replicas
                .get_mut(rk)
                .expect("live replica")
                .concurrency
                .enter(now);
        }
        self.run_stages(ctx, now, jk);
    }

    fn run_stages(&mut self, ctx: &EngCtx, now: SimTime, jk: SlabKey) {
        loop {
            let Some((sid, rtype, stage_idx, replica)) = self
                .jobs
                .get(jk)
                .map(|j| (j.service, j.rtype, j.stage, j.replica))
            else {
                return;
            };
            let spec = &ctx.services[sid.get() as usize].spec;
            let behavior = spec.behaviors.get(&rtype).unwrap_or_else(|| {
                panic!(
                    "service {} has no behaviour for request type {rtype}",
                    spec.name
                )
            });
            match behavior.stages.get(stage_idx) {
                None => {
                    self.complete_job(ctx, now, jk);
                    return;
                }
                Some(Stage::Compute { demand }) => {
                    let d = {
                        let svc = self.svc_mut(sid);
                        demand.sample(&mut svc.rng)
                    };
                    let Some(rk) = self.rep_key(replica) else {
                        return;
                    };
                    {
                        let r = self.replicas.get_mut(rk).expect("live replica");
                        let cj = r.cpu.add(now, d);
                        r.jobs.insert(cj, (jk, 0));
                    }
                    self.schedule_cpu(now, replica);
                    return;
                }
                Some(Stage::Call { targets }) => {
                    if targets.is_empty() {
                        self.jobs.get_mut(jk).expect("live job").stage += 1;
                        continue;
                    }
                    self.issue_calls(ctx, now, jk, targets);
                    return;
                }
            }
        }
    }

    fn issue_calls(&mut self, ctx: &EngCtx, now: SimTime, jk: SlabKey, targets: &[ServiceId]) {
        let replica = {
            let j = self.jobs.get_mut(jk).expect("live job");
            j.calls.reserve(targets.len());
            j.replica
        };
        for &target in targets {
            let ci = {
                let j = self.jobs.get_mut(jk).expect("live job");
                let ci = j.calls.len();
                j.calls.push(ChildCall {
                    service: target,
                    start: now,
                    end: SimTime::MAX,
                });
                j.child_spans.push(Vec::new());
                j.pending_children += 1;
                ci
            };
            let acquired = match self.rep_key(replica) {
                None => true,
                Some(rk) => {
                    let r = self.replicas.get_mut(rk).expect("live replica");
                    match r.conns.get_mut(&target) {
                        Some(pool) => {
                            if pool.try_acquire() {
                                true
                            } else {
                                pool.waiters.push_back(ConnWaiter {
                                    request: jk,
                                    frame: 0,
                                    call_idx: ci,
                                });
                                false
                            }
                        }
                        None => true,
                    }
                }
            };
            if acquired {
                self.send_call(ctx, now, jk, ci, target);
            }
        }
    }

    fn send_call(&mut self, ctx: &EngCtx, now: SimTime, jk: SlabKey, ci: usize, target: ServiceId) {
        let Some((request, rtype, sid, span, deadline, issued)) = self
            .jobs
            .get(jk)
            .map(|j| (j.request, j.rtype, j.service, j.span, j.deadline, j.issued))
        else {
            return;
        };
        let net = {
            let svc = self.svc_mut(sid);
            ctx.config.net_delay.sample(&mut svc.rng)
        };
        let key = self.fresh_key(sid);
        let msg = Msg::Call(CallMsg {
            request,
            rtype,
            target,
            parent: Some(ParentRef {
                shard: self.idx,
                job: jk,
                call_idx: ci as u32,
            }),
            span: child_span(span, ci),
            parent_span: Some(span),
            attempt: 0,
            deadline,
            issued,
        });
        let dst = ctx.shard_of[target.get() as usize];
        self.send_to_shard(now + net, key, dst, msg);
    }

    fn on_reply(&mut self, ctx: &EngCtx, now: SimTime, to: ParentRef, spans: Option<Vec<Span>>) {
        debug_assert_eq!(to.shard, self.idx, "reply routed to wrong shard");
        let jk = to.job;
        if !self.jobs.contains(jk) {
            return; // stale: the waiting job finished, timed out or died
        }
        match spans {
            None => self.fail_job(ctx, now, jk),
            Some(sp) => {
                let ci = to.call_idx as usize;
                let (replica, target, ready) = {
                    let j = self.jobs.get_mut(jk).expect("live job");
                    j.calls[ci].end = now;
                    j.child_spans[ci] = sp;
                    j.pending_children -= 1;
                    (j.replica, j.calls[ci].service, j.pending_children == 0)
                };
                self.release_conn(ctx, now, replica, target);
                if ready && self.jobs.contains(jk) {
                    self.jobs.get_mut(jk).expect("live job").stage += 1;
                    self.run_stages(ctx, now, jk);
                }
            }
        }
    }

    fn complete_job(&mut self, ctx: &EngCtx, now: SimTime, jk: SlabKey) {
        let Some(job) = self.jobs.remove(jk) else {
            return;
        };
        let span_rt = now - job.arrival;
        if let Some(rk) = self.rep_key(job.replica) {
            let blackout = self.blackout;
            let r = self.replicas.get_mut(rk).expect("live replica");
            r.concurrency.leave(now);
            match blackout {
                None => {
                    r.completions.record(now, span_rt);
                    r.span_p99.observe(span_rt.as_millis_f64());
                }
                Some(BlackoutMode::Lag) => {
                    self.lag_completions.push((job.replica, now, span_rt));
                }
                Some(BlackoutMode::Drop) => {}
            }
            r.threads.release();
        }
        self.drain_thread_queue(ctx, now, job.replica);
        self.maybe_reap_drained(now, job.replica);

        let mut spans = Vec::with_capacity(1 + job.child_spans.iter().map(Vec::len).sum::<usize>());
        spans.push(Span {
            id: job.span,
            request: job.request,
            service: job.service,
            replica: job.replica,
            parent: job.parent_span,
            arrival: job.arrival,
            service_start: job.started.unwrap_or(job.arrival),
            departure: now,
            children: job.calls,
        });
        for cs in job.child_spans {
            spans.extend(cs);
        }
        let net = {
            let svc = self.svc_mut(job.service);
            ctx.config.net_delay.sample(&mut svc.rng)
        };
        match job.parent {
            Some(parent) => {
                let key = self.fresh_key(job.service);
                self.send_to_shard(
                    now + net,
                    key,
                    parent.shard,
                    Msg::Reply {
                        to: parent,
                        spans: Some(spans),
                    },
                );
            }
            None => {
                let completed = now + net;
                let response_time = completed - job.issued;
                let trace = Trace {
                    request: job.request,
                    request_type: job.rtype,
                    spans,
                };
                match self.blackout {
                    None => self.out_traces.push((completed, job.key, trace)),
                    Some(BlackoutMode::Lag) => self.lag_traces.push((job.key, trace)),
                    Some(BlackoutMode::Drop) => {}
                }
                self.out_completions.push((
                    completed,
                    job.key,
                    Completion {
                        request: job.request,
                        rtype: job.rtype,
                        issued: job.issued,
                        completed,
                        response_time,
                    },
                ));
                self.live_roots -= 1;
            }
        }
    }

    /// Aborts a job after a failed subtree (error reply), propagating the
    /// error to its own parent — or recording the drop if it is the root.
    fn fail_job(&mut self, ctx: &EngCtx, now: SimTime, jk: SlabKey) {
        self.release_job_resources(ctx, now, jk);
        let Some(job) = self.jobs.remove(jk) else {
            return;
        };
        match job.parent {
            Some(parent) => {
                let net = {
                    let svc = self.svc_mut(job.service);
                    ctx.config.net_delay.sample(&mut svc.rng)
                };
                let key = self.fresh_key(job.service);
                self.send_to_shard(
                    now + net,
                    key,
                    parent.shard,
                    Msg::Reply {
                        to: parent,
                        spans: None,
                    },
                );
            }
            None => {
                self.out_drops
                    .push((now, job.key, job.request, DropReason::RetriesExhausted));
                self.live_roots -= 1;
            }
        }
    }

    fn on_deadline_kill(&mut self, ctx: &EngCtx, now: SimTime, jk: SlabKey) {
        if !self.jobs.contains(jk) {
            return;
        }
        self.release_job_resources(ctx, now, jk);
        let Some(job) = self.jobs.remove(jk) else {
            return;
        };
        if job.parent.is_none() {
            self.out_drops
                .push((now, job.key, job.request, DropReason::ClientTimeout));
            self.live_roots -= 1;
        }
    }

    /// Returns every soft resource a job holds: its worker thread (or queue
    /// slot), any in-flight CPU work, and the connections of open calls.
    fn release_job_resources(&mut self, ctx: &EngCtx, now: SimTime, jk: SlabKey) {
        let Some((replica, started, open_calls)) = self.jobs.get(jk).map(|j| {
            (
                j.replica,
                j.started.is_some(),
                j.calls
                    .iter()
                    .filter(|c| c.end == SimTime::MAX)
                    .map(|c| c.service)
                    .collect::<Vec<_>>(),
            )
        }) else {
            return;
        };
        if started {
            if let Some(rk) = self.rep_key(replica) {
                {
                    let r = self.replicas.get_mut(rk).expect("live replica");
                    r.concurrency.leave(now);
                    r.threads.release();
                    let cancel = r
                        .jobs
                        .iter()
                        .find(|&(_, &(rq, _))| rq == jk)
                        .map(|(&cj, _)| cj);
                    if let Some(cj) = cancel {
                        r.jobs.remove(&cj);
                        r.cpu.cancel(now, cj);
                    }
                }
                self.schedule_cpu(now, replica);
                self.drain_thread_queue(ctx, now, replica);
            }
        } else if let Some(rk) = self.rep_key(replica) {
            let r = self.replicas.get_mut(rk).expect("live replica");
            r.threads.queue.retain(|&(rq, _)| rq != jk);
        }
        if let Some(rk) = self.rep_key(replica) {
            let r = self.replicas.get_mut(rk).expect("live replica");
            for target in &open_calls {
                if let Some(pool) = r.conns.get_mut(target) {
                    let before = pool.waiters.len();
                    pool.waiters.retain(|w| w.request != jk);
                    if pool.waiters.len() == before {
                        pool.release();
                    }
                }
            }
        }
        for target in open_calls {
            self.drain_conn_waiters(ctx, now, replica, target);
        }
        self.maybe_reap_drained(now, replica);
    }

    fn release_conn(&mut self, ctx: &EngCtx, now: SimTime, replica: ReplicaId, target: ServiceId) {
        let released = self.rep_key(replica).is_some_and(|rk| {
            let r = self.replicas.get_mut(rk).expect("live replica");
            if let Some(pool) = r.conns.get_mut(&target) {
                pool.release();
                true
            } else {
                false
            }
        });
        if released {
            self.drain_conn_waiters(ctx, now, replica, target);
        }
    }

    fn drain_conn_waiters(
        &mut self,
        ctx: &EngCtx,
        now: SimTime,
        replica: ReplicaId,
        target: ServiceId,
    ) {
        loop {
            let waiter = {
                let Some(rk) = self.rep_key(replica) else {
                    return;
                };
                let Some(r) = self.replicas.get_mut(rk) else {
                    return;
                };
                let Some(pool) = r.conns.get_mut(&target) else {
                    return;
                };
                match pool.grant_next() {
                    Some(w) => {
                        if self.jobs.contains(w.request) {
                            Some(w)
                        } else {
                            pool.release(); // dead waiter: free the slot, try next
                            continue;
                        }
                    }
                    None => None,
                }
            };
            match waiter {
                Some(w) => self.send_call(ctx, now, w.request, w.call_idx, target),
                None => return,
            }
        }
    }

    fn drain_thread_queue(&mut self, ctx: &EngCtx, now: SimTime, replica: ReplicaId) {
        loop {
            let next = {
                let Some(rk) = self.rep_key(replica) else {
                    return;
                };
                let Some(r) = self.replicas.get_mut(rk) else {
                    return;
                };
                match r.threads.admit_next() {
                    Some((jk, _)) => {
                        if self.jobs.contains(jk) {
                            Some(jk)
                        } else {
                            r.threads.release(); // dead entry: free thread, try next
                            continue;
                        }
                    }
                    None => None,
                }
            };
            match next {
                Some(jk) => self.start_job(ctx, now, jk),
                None => return,
            }
        }
    }

    fn on_cpu_done(&mut self, ctx: &EngCtx, now: SimTime, replica: ReplicaId, epoch: u64) {
        let Some(rk) = self.rep_key(replica) else {
            return;
        };
        let mut work = std::mem::take(&mut self.cpu_work_scratch);
        let mut finished = std::mem::take(&mut self.cpu_jobs_scratch);
        {
            let r = self.replicas.get_mut(rk).expect("live replica");
            if epoch != r.cpu.epoch() {
                self.cpu_work_scratch = work;
                self.cpu_jobs_scratch = finished;
                return;
            }
            r.cpu.advance(now);
            r.cpu.take_finished_into(&mut finished);
            for cj in finished.drain(..) {
                if let Some((jk, _)) = r.jobs.remove(&cj) {
                    work.push(jk);
                }
            }
        }
        for jk in work.drain(..) {
            if self.jobs.contains(jk) {
                self.jobs.get_mut(jk).expect("live job").stage += 1;
                self.run_stages(ctx, now, jk);
            }
        }
        self.cpu_work_scratch = work;
        self.cpu_jobs_scratch = finished;
        if self.rep_key(replica).is_some() {
            self.schedule_cpu(now, replica);
        }
    }

    fn schedule_cpu(&mut self, now: SimTime, replica: ReplicaId) {
        let Some(rk) = self.rep_key(replica) else {
            return;
        };
        let (next, sid) = {
            let r = self.replicas.get_mut(rk).expect("live replica");
            r.cpu.advance(now);
            (
                r.cpu.next_completion().map(|(t, _)| (t, r.cpu.epoch())),
                r.service,
            )
        };
        if let Some((t, epoch)) = next {
            let key = self.fresh_key(sid);
            self.wheel
                .schedule(t, key, SEvent::CpuDone { replica, epoch });
        }
    }

    // -- crash support --------------------------------------------------

    /// Requests with at least one job on `victim` (the crash blast radius).
    fn collect_victim_requests(&self, victim: ReplicaId) -> BTreeSet<RequestId> {
        self.jobs
            .iter()
            .filter(|(_, j)| j.replica == victim)
            .map(|(_, j)| j.request)
            .collect()
    }

    /// Kills every local job belonging to `affected`, in `(request, key)`
    /// order — an order that is shard-count invariant because each job's
    /// key is partition-independent. Returns the requests whose *root* job
    /// was among the killed (their drop is recorded by the coordinator).
    fn kill_requests(
        &mut self,
        ctx: &EngCtx,
        now: SimTime,
        affected: &BTreeSet<RequestId>,
    ) -> BTreeSet<RequestId> {
        self.dead.extend(affected.iter().copied());
        let mut kill: Vec<(RequestId, u64, SlabKey)> = self
            .jobs
            .iter()
            .filter(|(_, j)| affected.contains(&j.request))
            .map(|(k, j)| (j.request, j.key, k))
            .collect();
        kill.sort_unstable_by_key(|&(r, k, _)| (r, k));
        let mut roots = BTreeSet::new();
        for (_, _, jk) in kill {
            if !self.jobs.contains(jk) {
                continue; // completed while a sibling's kill drained queues
            }
            self.release_job_resources(ctx, now, jk);
            if let Some(job) = self.jobs.remove(jk) {
                if job.parent.is_none() {
                    roots.insert(job.request);
                    self.live_roots -= 1;
                }
            }
        }
        roots
    }

    /// Ends a telemetry blackout: flushes lagged samples into the replica
    /// trackers (in buffered order) and releases lagged traces at `now`.
    fn end_blackout(&mut self, now: SimTime) {
        self.blackout = None;
        let comps = std::mem::take(&mut self.lag_completions);
        for (rep, t, rt) in comps {
            if let Some(rk) = self.rep_key(rep) {
                let r = self.replicas.get_mut(rk).expect("live replica");
                r.completions.record(t, rt);
                r.span_p99.observe(rt.as_millis_f64());
            }
        }
        let traces = std::mem::take(&mut self.lag_traces);
        for (key, trace) in traces {
            self.out_traces.push((now, key, trace));
        }
    }

    // -- window execution ----------------------------------------------

    /// Processes every event strictly before `end_nanos`.
    fn process_window(&mut self, ctx: &EngCtx, end_nanos: u64) {
        if end_nanos == 0 {
            return;
        }
        let bound = SimTime::from_nanos(end_nanos - 1);
        while let Some((now, key, ev)) = self.wheel.pop_before(bound) {
            self.dispatch(ctx, now, key, ev);
        }
    }

    /// Earliest pending event time in nanoseconds (`u64::MAX` if idle).
    fn earliest(&self) -> u64 {
        self.wheel.peek().map_or(u64::MAX, |(t, _)| t.as_nanos())
    }
}

// ---------------------------------------------------------------------
// Window loop
// ---------------------------------------------------------------------

/// Window barrier: moves every shard's outgoing cross-shard messages into
/// the destination wheels. Each wheel orders by `(time, key)` with
/// globally unique keys, so the delivery order is unobservable.
fn deliver_mail(shards: &mut [ShardCore]) {
    for src in 0..shards.len() {
        let mut outbox = std::mem::take(&mut shards[src].outbox);
        for (dst, at, key, msg) in outbox.drain(..) {
            shards[dst as usize]
                .wheel
                .schedule(at, key, SEvent::Msg(msg));
        }
        shards[src].outbox = outbox;
    }
}

/// The window loop: runs every shard through window `[w, w + L)` in
/// turn, delivers the window's cross-shard mail, then skips straight to
/// the window holding the earliest pending event.
///
/// Returns the segment's *critical-path* event count: the sum over windows
/// of the maximum per-shard events dispatched in that window, i.e. the
/// makespan (in events) of an idealised run with one core per shard — a
/// portable, deterministic measure of the parallelism the schedule
/// exposes.
fn run_windows(
    shards: &mut [ShardCore],
    ctx: &EngCtx,
    seg_start: u64,
    end: u64,
    lookahead: u64,
) -> u64 {
    let mut crit: u64 = 0;
    let mut w: u64 = 0;
    loop {
        let wstart = seg_start + w.saturating_mul(lookahead);
        if wstart >= end {
            break;
        }
        let wend = (wstart + lookahead).min(end);
        let mut wmax: u64 = 0;
        for sc in shards.iter_mut() {
            let before = sc.events_dispatched;
            sc.process_window(ctx, wend);
            wmax = wmax.max(sc.events_dispatched - before);
        }
        crit += wmax;
        deliver_mail(shards);
        let e = shards
            .iter()
            .map(ShardCore::earliest)
            .min()
            .unwrap_or(u64::MAX);
        if e >= end {
            break;
        }
        w = (w + 1).max((e - seg_start) / lookahead);
    }
    crit
}

/// Processes the events at exactly the (inclusive) end of a span. All
/// messages *sent* at `t` are delivered at `t + lookahead` or later, so a
/// single local drain per shard suffices; the loop is defensive.
fn run_tail(shards: &mut [ShardCore], ctx: &EngCtx, t: SimTime) -> u64 {
    let mut crit: u64 = 0;
    loop {
        let mut any = false;
        let mut rmax: u64 = 0;
        for sc in shards.iter_mut() {
            let before = sc.events_dispatched;
            while let Some((now, key, ev)) = sc.wheel.pop_before(t) {
                sc.dispatch(ctx, now, key, ev);
                any = true;
            }
            rmax = rmax.max(sc.events_dispatched - before);
        }
        crit += rmax;
        deliver_mail(shards);
        if !any {
            break;
        }
    }
    crit
}

// ---------------------------------------------------------------------
// ShardEngine: the coordinator
// ---------------------------------------------------------------------

/// A coordinator-applied action at a deterministic `(time, seq)` barrier.
/// Barriers fire *before* the events scheduled at the same instant.
#[derive(Debug, Clone)]
enum BarrierAction {
    Fault(FaultKind),
    PressureEnd(NodeId),
    BlackoutEnd,
    Restart(ServiceId),
}

/// The sharded world engine: shard partition, barrier schedule,
/// merged global observables and the cluster bookkeeping that must stay
/// centralised (placement, node pressure, request identity).
pub(crate) struct ShardEngine {
    config: WorldConfig,
    lookahead: u64,
    shard_of: Vec<u32>,
    shards: Vec<ShardCore>,
    clock: SimTime,
    barriers: BTreeMap<(u64, u64), BarrierAction>,
    barrier_seq: u64,
    client_seq: u64,
    fault_seq: u64,
    /// Critical-path events: Σ over windows of max per-shard dispatches.
    crit_events: u64,
    inject_rng: SimRng,
    cluster: ClusterState,
    node_pressure: BTreeMap<u32, f64>,
    next_request: u64,
    next_replica: u64,
    /// Dense `ReplicaId → ServiceId.get()` (`u32::MAX` = retired/unknown).
    replica_service: Vec<u32>,
    warehouse: TraceWarehouse,
    client: ClientLog,
    client_by_type: Vec<ClientLog>,
    dropped: u64,
    dropped_log: Vec<(RequestId, DropReason)>,
    drop_breakdown: DropBreakdown,
    fault_log: Vec<(SimTime, String)>,
    /// Drops decided at barriers (crash kills), keyed from the fault
    /// sequence so they merge deterministically with shard drops.
    coord_drops: Vec<(SimTime, u64, RequestId, DropReason)>,
    #[cfg(feature = "audit")]
    audit_sink: sim_core::audit::CountingSink,
    #[cfg(feature = "audit")]
    audit_next_boundary: SimTime,
}

impl ShardEngine {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: WorldConfig,
        plan: &[Range<usize>],
        n_services: usize,
        rng: &SimRng,
        cluster: ClusterState,
        warehouse: TraceWarehouse,
        client: ClientLog,
        client_by_type: Vec<ClientLog>,
    ) -> Result<Box<ShardEngine>, ShardError> {
        ShardEngine::validate(&config, plan, n_services)?;
        let lookahead = config.net_delay.lower_bound().as_nanos();
        let mut shard_of = Vec::with_capacity(n_services);
        for (k, r) in plan.iter().enumerate() {
            shard_of.extend(r.clone().map(|_| k as u32));
        }
        let shards: Vec<ShardCore> = plan
            .iter()
            .enumerate()
            .map(|(k, r)| ShardCore::new(k as u32, r, rng))
            .collect();
        Ok(Box::new(ShardEngine {
            config,
            lookahead,
            shard_of,
            shards,
            clock: SimTime::ZERO,
            barriers: BTreeMap::new(),
            barrier_seq: 0,
            client_seq: 0,
            fault_seq: 0,
            crit_events: 0,
            inject_rng: rng.split("shard-inject"),
            cluster,
            node_pressure: BTreeMap::new(),
            next_request: 0,
            next_replica: 0,
            replica_service: Vec::new(),
            warehouse,
            client,
            client_by_type,
            dropped: 0,
            dropped_log: Vec::new(),
            drop_breakdown: DropBreakdown::default(),
            fault_log: Vec::new(),
            coord_drops: Vec::new(),
            #[cfg(feature = "audit")]
            audit_sink: sim_core::audit::CountingSink::default(),
            #[cfg(feature = "audit")]
            audit_next_boundary: SimTime::ZERO,
        }))
    }

    pub(crate) fn set_next_replica(&mut self, next: u64) {
        self.next_replica = next;
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn lookahead_nanos(&self) -> u64 {
        self.lookahead
    }

    pub(crate) fn requests_injected(&self) -> u64 {
        self.next_request
    }

    pub(crate) fn add_node(&mut self, capacity: Millicores) {
        self.cluster.add_node(capacity);
    }

    /// Checks everything `new` would reject, without consuming any state —
    /// so `World::enable_sharding` can validate *before* moving its
    /// observability state into the engine.
    pub(crate) fn validate(
        config: &WorldConfig,
        plan: &[Range<usize>],
        n_services: usize,
    ) -> Result<(), ShardError> {
        if plan.is_empty() {
            return Err(ShardError::BadPlan("empty plan".into()));
        }
        let mut cursor = 0usize;
        for r in plan {
            if r.start != cursor || r.is_empty() {
                return Err(ShardError::BadPlan(format!(
                    "range {}..{} does not continue contiguously from {cursor}",
                    r.start, r.end
                )));
            }
            cursor = r.end;
        }
        if cursor != n_services {
            return Err(ShardError::BadPlan(format!(
                "plan covers {cursor} of {n_services} services"
            )));
        }
        if config.net_delay.lower_bound().as_nanos() == 0 {
            return Err(ShardError::ZeroLookahead);
        }
        Ok(())
    }

    fn owner(&self, id: ReplicaId) -> Option<usize> {
        let sid = *self.replica_service.get(id.get() as usize)?;
        if sid == u32::MAX {
            None
        } else {
            Some(self.shard_of[sid as usize] as usize)
        }
    }

    // -- replica lifecycle ---------------------------------------------

    /// Installs a replica on its service's shard: a fresh one from
    /// [`ShardEngine::add_replica`], or one the classic engine built before
    /// sharding was enabled, moved in as is (enabling is only legal at time
    /// zero, so nothing has run on it). A starting replica gets its
    /// readiness event from the service's own startup stream.
    pub(crate) fn install_replica(&mut self, rep: Replica, state: ReplicaState) {
        let (id, service) = (rep.id, rep.service);
        let idx = id.get() as usize;
        if self.replica_service.len() <= idx {
            self.replica_service.resize(idx + 1, u32::MAX);
        }
        self.replica_service[idx] = service.get();
        let shard = self.shard_of[service.get() as usize] as usize;
        let clock = self.clock;
        let ShardEngine { shards, config, .. } = self;
        let sc = &mut shards[shard];
        sc.install(rep, state);
        if state == ReplicaState::Starting {
            let delay = {
                let svc = sc.svc_mut(service);
                config.replica_startup.sample(&mut svc.rng)
            };
            let key = sc.fresh_key(service);
            sc.wheel
                .schedule(clock + delay, key, SEvent::ReplicaReady { replica: id });
        }
    }

    pub(crate) fn add_replica(
        &mut self,
        services: &[ServiceRuntime],
        service: ServiceId,
    ) -> Result<ReplicaId, PlacementError> {
        if self.cluster.nodes().is_empty() {
            self.cluster.add_node(Millicores::from_cores(1_000_000));
        }
        let sid = service.get() as usize;
        let rt = &services[sid];
        let id = ReplicaId(self.next_replica);
        self.cluster.place(id.get(), rt.cpu_limit)?;
        self.next_replica += 1;
        let mut rep = Replica::new(
            id,
            service,
            rt.cpu_limit,
            rt.spec.csw_overhead,
            rt.thread_limit,
            &rt.conn_limits,
            self.config.metrics_horizon,
        );
        if let Some(placement) = self.cluster.placement(id.get()) {
            if let Some(&factor) = self.node_pressure.get(&placement.node.0) {
                rep.cpu.set_pressure(self.clock, factor);
            }
        }
        self.install_replica(rep, ReplicaState::Starting);
        Ok(id)
    }

    pub(crate) fn make_ready(&mut self, id: ReplicaId) {
        if let Some(shard) = self.owner(id) {
            self.shards[shard].make_ready(id);
        }
    }

    pub(crate) fn drain_replica(
        &mut self,
        service: ServiceId,
        min_keep: usize,
    ) -> Option<ReplicaId> {
        let shard = self.shard_of[service.get() as usize] as usize;
        let clock = self.clock;
        let live: Vec<ReplicaId> = {
            let sc = &self.shards[shard];
            sc.svc(service)
                .replicas
                .iter()
                .copied()
                .filter(|&id| sc.state_of(id) != Some(ReplicaState::Draining))
                .collect()
        };
        if live.len() <= min_keep {
            return None;
        }
        let victim = *live.last().expect("non-empty live set");
        let sc = &mut self.shards[shard];
        sc.set_state(victim, ReplicaState::Draining);
        if sc.rep(victim).is_some_and(Replica::is_idle) {
            sc.remove_replica_final(clock, victim);
        }
        Some(victim)
    }

    /// Fails a replica immediately: kills every request with a job on it
    /// (everywhere — in `(request, key)` order so the outcome is
    /// shard-count invariant), suppresses the requests' in-flight calls,
    /// records one `ReplicaFailed` drop per killed *root*, and retires the
    /// victim.
    pub(crate) fn kill_replica(
        &mut self,
        bt: SimTime,
        victim: ReplicaId,
        services: &mut [ServiceRuntime],
    ) {
        let Some(vshard) = self.owner(victim) else {
            return;
        };
        let affected = self.shards[vshard].collect_victim_requests(victim);
        let mut roots = BTreeSet::new();
        {
            let ShardEngine {
                shards,
                config,
                shard_of,
                ..
            } = self;
            let ctx = EngCtx {
                services: &*services,
                config,
                shard_of,
            };
            for sc in shards.iter_mut() {
                roots.extend(sc.kill_requests(&ctx, bt, &affected));
            }
            shards[vshard].set_state(victim, ReplicaState::Draining);
            shards[vshard].remove_replica_final(bt, victim);
        }
        for req in roots {
            let key = pack(FAULT_SRC, self.fault_seq);
            self.fault_seq += 1;
            self.coord_drops
                .push((bt, key, req, DropReason::ReplicaFailed));
        }
        self.settle_retired(services);
    }

    /// Applies buffered replica retirements: cluster deallocation and the
    /// service-level busy-core carryover. Sorted by replica id so the
    /// cluster mutation order is shard-count invariant.
    pub(crate) fn settle_retired(&mut self, services: &mut [ServiceRuntime]) {
        let mut retired: Vec<(ServiceId, ReplicaId, f64)> = Vec::new();
        for sc in self.shards.iter_mut() {
            retired.append(&mut sc.retired);
        }
        if retired.is_empty() {
            return;
        }
        retired.sort_unstable_by_key(|&(_, id, _)| id);
        for (sid, id, busy) in retired {
            let _ = self.cluster.remove(id.get());
            let idx = id.get() as usize;
            if idx < self.replica_service.len() {
                self.replica_service[idx] = u32::MAX;
            }
            services[sid.get() as usize].retired_busy_nanos += busy;
        }
    }

    // -- soft-resource actuation ---------------------------------------

    pub(crate) fn set_thread_limit(
        &mut self,
        services: &mut [ServiceRuntime],
        service: ServiceId,
        limit: usize,
    ) {
        let sid = service.get() as usize;
        services[sid].thread_limit = limit;
        let shard = self.shard_of[sid] as usize;
        let clock = self.clock;
        let ShardEngine {
            shards,
            config,
            shard_of,
            ..
        } = self;
        let ctx = EngCtx {
            services: &*services,
            config,
            shard_of,
        };
        let sc = &mut shards[shard];
        let ids = sc.svc(service).replicas.clone();
        for id in ids {
            if let Some(rk) = sc.rep_key(id) {
                sc.replicas.get_mut(rk).expect("live replica").threads.limit = limit;
            }
            sc.drain_thread_queue(&ctx, clock, id);
        }
    }

    pub(crate) fn set_conn_limit(
        &mut self,
        services: &mut [ServiceRuntime],
        service: ServiceId,
        target: ServiceId,
        limit: usize,
    ) {
        let sid = service.get() as usize;
        services[sid].conn_limits.insert(target, limit);
        let shard = self.shard_of[sid] as usize;
        let clock = self.clock;
        let ShardEngine {
            shards,
            config,
            shard_of,
            ..
        } = self;
        let ctx = EngCtx {
            services: &*services,
            config,
            shard_of,
        };
        let sc = &mut shards[shard];
        let ids = sc.svc(service).replicas.clone();
        for id in ids {
            if let Some(rk) = sc.rep_key(id) {
                let r = sc.replicas.get_mut(rk).expect("live replica");
                let pool = r.conns.entry(target).or_insert_with(|| ConnPool {
                    limit,
                    in_use: 0,
                    waiters: Default::default(),
                });
                pool.limit = limit;
            }
            sc.drain_conn_waiters(&ctx, clock, id, target);
        }
    }

    pub(crate) fn set_cpu_limit(
        &mut self,
        services: &mut [ServiceRuntime],
        service: ServiceId,
        limit: Millicores,
    ) -> Result<(), PlacementError> {
        let sid = service.get() as usize;
        services[sid].cpu_limit = limit;
        let shard = self.shard_of[sid] as usize;
        let clock = self.clock;
        let ids = self.shards[shard].svc(service).replicas.clone();
        let mut result = Ok(());
        for id in ids {
            if let Err(e) = self.cluster.resize(id.get(), limit) {
                result = Err(e);
                break;
            }
            let sc = &mut self.shards[shard];
            if let Some(rk) = sc.rep_key(id) {
                sc.replicas
                    .get_mut(rk)
                    .expect("live replica")
                    .cpu
                    .set_limit(clock, limit);
            }
            sc.schedule_cpu(clock, id);
        }
        result
    }

    // -- workload -------------------------------------------------------

    pub(crate) fn inject_at(
        &mut self,
        at: SimTime,
        rtype: RequestTypeId,
        spec: &RequestTypeSpec,
    ) -> RequestId {
        let id = RequestId(self.next_request);
        self.next_request += 1;
        let arrive = at + self.config.net_delay.sample(&mut self.inject_rng);
        let key = pack(CLIENT_SRC, self.client_seq);
        self.client_seq += 1;
        let deadline = spec.timeout.map(|t| at + t);
        let shard = self.shard_of[spec.entry.get() as usize] as usize;
        let sc = &mut self.shards[shard];
        sc.pending_roots += 1;
        match deadline {
            // The ingress latency alone blows the deadline: the request is
            // abandoned at the deadline without ever reaching the cluster.
            Some(d) if arrive >= d => sc.wheel.schedule(d, key, SEvent::PureDrop { request: id }),
            _ => sc.wheel.schedule(
                arrive,
                key,
                SEvent::Msg(Msg::Call(CallMsg {
                    request: id,
                    rtype,
                    target: spec.entry,
                    parent: None,
                    span: root_span(id),
                    parent_span: None,
                    attempt: 0,
                    deadline,
                    issued: at,
                })),
            ),
        }
        id
    }

    // -- faults as barriers --------------------------------------------

    pub(crate) fn push_fault(&mut self, at: SimTime, kind: FaultKind) {
        self.push_barrier(at, BarrierAction::Fault(kind));
    }

    fn push_barrier(&mut self, at: SimTime, act: BarrierAction) {
        let seq = self.barrier_seq;
        self.barrier_seq += 1;
        self.barriers.insert((at.as_nanos(), seq), act);
    }

    fn apply_barrier(&mut self, bt: SimTime, act: BarrierAction, services: &mut [ServiceRuntime]) {
        self.settle_retired(services);
        match act {
            BarrierAction::Fault(kind) => self.apply_fault(bt, kind, services),
            BarrierAction::PressureEnd(node) => {
                self.fault_log
                    .push((bt, format!("cpu pressure node {} lifted", node.0)));
                self.node_pressure.remove(&node.0);
                self.apply_node_pressure(bt, node, 1.0);
            }
            BarrierAction::BlackoutEnd => {
                let lagged = self
                    .shards
                    .iter()
                    .any(|s| matches!(s.blackout, Some(BlackoutMode::Lag)));
                let count: usize = if lagged {
                    self.shards.iter().map(|s| s.lag_completions.len()).sum()
                } else {
                    0
                };
                self.fault_log.push((
                    bt,
                    format!("telemetry blackout ends ({count} lagged samples delivered)"),
                ));
                for sc in self.shards.iter_mut() {
                    sc.end_blackout(bt);
                }
            }
            BarrierAction::Restart(service) => {
                let name = services[service.get() as usize].spec.name.clone();
                match self.add_replica(services, service) {
                    Ok(id) => self
                        .fault_log
                        .push((bt, format!("restart {name} as replica {id}"))),
                    Err(e) => self
                        .fault_log
                        .push((bt, format!("restart {name} failed: {e}"))),
                }
            }
        }
    }

    fn apply_fault(&mut self, bt: SimTime, kind: FaultKind, services: &mut [ServiceRuntime]) {
        match kind {
            FaultKind::ReplicaCrash {
                service,
                restart_after,
            } => {
                let name = services[service.get() as usize].spec.name.clone();
                let shard = self.shard_of[service.get() as usize] as usize;
                let victim = {
                    let sc = &self.shards[shard];
                    sc.svc(service)
                        .replicas
                        .iter()
                        .copied()
                        .find(|&id| sc.state_of(id) == Some(ReplicaState::Ready))
                };
                match victim {
                    None => self
                        .fault_log
                        .push((bt, format!("crash {name}: no ready replica"))),
                    Some(victim) => {
                        self.fault_log
                            .push((bt, format!("crash {name} replica {victim}")));
                        self.kill_replica(bt, victim, services);
                        if let Some(delay) = restart_after {
                            self.push_barrier(bt + delay, BarrierAction::Restart(service));
                        }
                    }
                }
            }
            FaultKind::CpuPressure {
                node,
                factor,
                duration,
            } => {
                self.fault_log.push((
                    bt,
                    format!(
                        "cpu pressure node {} factor {factor} for {}s",
                        node.0,
                        duration.as_secs_f64()
                    ),
                ));
                self.node_pressure.insert(node.0, factor);
                self.apply_node_pressure(bt, node, factor);
                self.push_barrier(bt + duration, BarrierAction::PressureEnd(node));
            }
            FaultKind::TelemetryBlackout { mode, duration } => {
                self.fault_log.push((
                    bt,
                    format!(
                        "telemetry blackout ({mode:?}) for {}s",
                        duration.as_secs_f64()
                    ),
                ));
                for sc in self.shards.iter_mut() {
                    sc.blackout = Some(mode);
                }
                self.push_barrier(bt + duration, BarrierAction::BlackoutEnd);
            }
            FaultKind::Partition { a, b, .. } => {
                let an = services[a.get() as usize].spec.name.clone();
                let bn = services[b.get() as usize].spec.name.clone();
                self.fault_log.push((
                    bt,
                    format!("partition {an} <-> {bn} ignored (no network installed)"),
                ));
            }
            FaultKind::LinkSlow { a, b, .. } => {
                let an = services[a.get() as usize].spec.name.clone();
                let bn = services[b.get() as usize].spec.name.clone();
                self.fault_log.push((
                    bt,
                    format!("slow link {an} <-> {bn} ignored (no network installed)"),
                ));
            }
        }
    }

    fn apply_node_pressure(&mut self, bt: SimTime, node: NodeId, factor: f64) {
        let ShardEngine {
            shards, cluster, ..
        } = self;
        for sc in shards.iter_mut() {
            let mut ids: Vec<ReplicaId> = sc.replicas.iter().map(|(_, r)| r.id).collect();
            ids.sort_unstable();
            for id in ids {
                if cluster.placement(id.get()).is_some_and(|p| p.node == node) {
                    if let Some(rk) = sc.rep_key(id) {
                        sc.replicas
                            .get_mut(rk)
                            .expect("live replica")
                            .cpu
                            .set_pressure(bt, factor);
                        sc.schedule_cpu(bt, id);
                    }
                }
            }
        }
    }

    // -- the run loop ---------------------------------------------------

    /// Advances simulation to `t`, appending root completions to `out`.
    /// Structure: fire due barriers, advance in lookahead windows to the
    /// next barrier (events *at* a barrier instant run after it), repeat;
    /// finish with an inclusive tail at `t`, then merge the per-shard
    /// observable streams in `(time, key)` order.
    pub(crate) fn run_until_into(
        &mut self,
        t: SimTime,
        services: &mut [ServiceRuntime],
        out: &mut Vec<Completion>,
    ) {
        self.settle_retired(services);
        let tn = t.as_nanos();
        loop {
            while let Some((&(bt, _), _)) = self.barriers.first_key_value() {
                if bt <= self.clock.as_nanos() && bt <= tn {
                    let ((bt, _), act) = self.barriers.pop_first().expect("checked");
                    self.apply_barrier(SimTime::from_nanos(bt), act, services);
                } else {
                    break;
                }
            }
            let next_b = self
                .barriers
                .first_key_value()
                .map(|(&(bt, _), _)| bt)
                .filter(|&bt| bt <= tn);
            match next_b {
                Some(b) => {
                    self.advance_span(services, b, false);
                    self.clock = SimTime::from_nanos(b);
                }
                None => {
                    self.advance_span(services, tn, true);
                    if t > self.clock {
                        self.clock = t;
                    }
                    break;
                }
            }
        }
        self.merge_outputs(out);
        #[cfg(feature = "audit")]
        self.audit_run_boundary();
        self.settle_retired(services);
    }

    fn advance_span(&mut self, services: &[ServiceRuntime], end: u64, inclusive: bool) {
        let seg_start = self.clock.as_nanos();
        let ShardEngine {
            shards,
            config,
            shard_of,
            lookahead,
            ..
        } = self;
        let ctx = EngCtx {
            services,
            config,
            shard_of,
        };
        let mut crit: u64 = 0;
        if end > seg_start {
            crit += run_windows(shards, &ctx, seg_start, end, *lookahead);
        }
        if inclusive {
            crit += run_tail(shards, &ctx, SimTime::from_nanos(end));
        }
        self.crit_events += crit;
    }

    /// Merges per-shard completion / drop / trace streams into the global
    /// observables in `(time, key)` order — the canonical order that makes
    /// warehouse sampling, client timelines and drop logs shard-count
    /// invariant.
    fn merge_outputs(&mut self, out: &mut Vec<Completion>) {
        let mut comps: Vec<(SimTime, u64, Completion)> = Vec::new();
        let mut drops: Vec<(SimTime, u64, RequestId, DropReason)> =
            std::mem::take(&mut self.coord_drops);
        let mut traces: Vec<(SimTime, u64, Trace)> = Vec::new();
        for sc in self.shards.iter_mut() {
            comps.append(&mut sc.out_completions);
            drops.append(&mut sc.out_drops);
            traces.append(&mut sc.out_traces);
        }
        comps.sort_unstable_by_key(|&(t, k, _)| (t, k));
        drops.sort_unstable_by_key(|&(t, k, _, _)| (t, k));
        traces.sort_unstable_by_key(|a| (a.0, a.1));
        for (_, _, c) in comps {
            self.client.record(c.completed, c.response_time);
            self.client_by_type[c.rtype.get() as usize].record(c.completed, c.response_time);
            out.push(c);
        }
        for (_, _, req, reason) in drops {
            self.dropped += 1;
            self.drop_breakdown.count(reason);
            self.dropped_log.push((req, reason));
        }
        for (_, _, trace) in traces {
            self.warehouse.push(trace);
        }
    }

    // -- observability ---------------------------------------------------

    pub(crate) fn now(&self) -> SimTime {
        self.clock
    }

    pub(crate) fn rep(&self, id: ReplicaId) -> Option<&Replica> {
        self.owner(id).and_then(|s| self.shards[s].rep(id))
    }

    pub(crate) fn state_of(&self, id: ReplicaId) -> Option<ReplicaState> {
        self.owner(id).and_then(|s| self.shards[s].state_of(id))
    }

    pub(crate) fn service_replicas(&self, service: ServiceId) -> &[ReplicaId] {
        let shard = self.shard_of[service.get() as usize] as usize;
        &self.shards[shard].svc(service).replicas
    }

    pub(crate) fn replica_count(&self) -> usize {
        self.shards.iter().map(|s| s.replicas.len()).sum()
    }

    pub(crate) fn events_dispatched(&self) -> u64 {
        self.shards.iter().map(|s| s.events_dispatched).sum()
    }

    pub(crate) fn critical_path_events(&self) -> u64 {
        self.crit_events
    }

    pub(crate) fn spans_created(&self) -> u64 {
        self.shards.iter().map(|s| s.spans_created).sum()
    }

    pub(crate) fn in_flight(&self) -> u64 {
        self.next_request - self.client.total() - self.dropped
    }

    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    pub(crate) fn drop_breakdown(&self) -> DropBreakdown {
        self.drop_breakdown
    }

    pub(crate) fn drain_dropped(&mut self) -> Vec<(RequestId, DropReason)> {
        std::mem::take(&mut self.dropped_log)
    }

    pub(crate) fn fault_log(&self) -> &[(SimTime, String)] {
        &self.fault_log
    }

    pub(crate) fn warehouse(&self) -> &TraceWarehouse {
        &self.warehouse
    }

    pub(crate) fn client(&self) -> &ClientLog {
        &self.client
    }

    pub(crate) fn client_of(&self, rtype: RequestTypeId) -> &ClientLog {
        &self.client_by_type[rtype.get() as usize]
    }

    pub(crate) fn node_of(&self, id: ReplicaId) -> Option<NodeId> {
        self.cluster.placement(id.get()).map(|p| p.node)
    }

    pub(crate) fn is_quiescent(&self) -> bool {
        self.shards.iter().all(|s| s.wheel.is_empty())
            && self.barriers.is_empty()
            && self.shards.iter().all(|s| s.outbox.is_empty())
    }

    pub(crate) fn cpu_busy_core_secs(
        &mut self,
        services: &mut [ServiceRuntime],
        service: ServiceId,
    ) -> f64 {
        self.settle_retired(services);
        let sid = service.get() as usize;
        let shard = self.shard_of[sid] as usize;
        let clock = self.clock;
        let mut total = services[sid].retired_busy_nanos;
        let sc = &mut self.shards[shard];
        let ids = sc.svc(service).replicas.clone();
        for id in ids {
            if let Some(rk) = sc.rep_key(id) {
                let r = sc.replicas.get_mut(rk).expect("live replica");
                r.cpu.advance(clock);
                total += r.cpu.busy_core_nanos();
            }
        }
        total / 1e9
    }

    #[cfg(feature = "audit")]
    pub(crate) fn audit(&self) -> &sim_core::audit::CountingSink {
        &self.audit_sink
    }

    /// Run-boundary audit: fold per-shard monotonicity violations into the
    /// global sink, check global request conservation (boundary-only: mid
    /// -window outbox buffering makes a per-event check meaningless), and
    /// run the throttled per-replica resource audits.
    #[cfg(feature = "audit")]
    fn audit_run_boundary(&mut self) {
        use sim_core::audit::{AuditSink as _, Invariant, Violation};
        let clock = self.clock;
        let ShardEngine {
            shards,
            audit_sink,
            audit_next_boundary,
            warehouse,
            client,
            next_request,
            dropped,
            ..
        } = self;
        for sc in shards.iter_mut() {
            for v in std::mem::take(&mut sc.audit_violations) {
                audit_sink.record(v);
            }
        }
        let roots: u64 = shards.iter().map(|s| s.pending_roots + s.live_roots).sum();
        let accounted = client.total() + *dropped + roots;
        if *next_request != accounted {
            audit_sink.record(Violation {
                invariant: Invariant::RequestConservation,
                at_nanos: clock.as_nanos(),
                detail: format!(
                    "injected {} != completed {} + dropped {} + in-flight roots {}",
                    next_request,
                    client.total(),
                    dropped,
                    roots
                ),
            });
        }
        if clock >= *audit_next_boundary {
            *audit_next_boundary = clock + SimDuration::from_secs(1);
            for sc in shards.iter_mut() {
                let mut ids: Vec<ReplicaId> = sc.replicas.iter().map(|(_, r)| r.id).collect();
                ids.sort_unstable();
                for id in ids {
                    if let Some(rk) = sc.rep_key(id) {
                        let r = sc.replicas.get_mut(rk).expect("live replica");
                        r.concurrency.audit_into(clock, audit_sink);
                        r.cpu.audit_into(clock, audit_sink);
                    }
                }
            }
            warehouse.audit_into(clock, audit_sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{child_span, mix64, pack, root_span, CLIENT_SRC, FAULT_SRC};
    use crate::config::{Behavior, ServiceSpec, Stage, WorldConfig};
    use crate::world::World;
    use sim_core::{Dist, SimRng, SimTime};
    use telemetry::{RequestId, RequestTypeId, ServiceId, SpanId};

    #[test]
    fn packed_keys_are_unique_and_ordered() {
        let a = pack(0, 0);
        let b = pack(0, 1);
        let c = pack(1, 0);
        let d = pack(CLIENT_SRC, 7);
        let e = pack(FAULT_SRC, 7);
        assert!(a < b && b < c && c < d && d < e);
        let keys = [a, b, c, d, e];
        for (i, &x) in keys.iter().enumerate() {
            for &y in &keys[i + 1..] {
                assert_ne!(x, y);
            }
        }
    }

    #[test]
    fn span_ids_differ_across_children() {
        let root = root_span(RequestId(3));
        let c0 = child_span(root, 0);
        let c1 = child_span(root, 1);
        assert_ne!(root, c0);
        assert_ne!(c0, c1);
        assert_ne!(child_span(c0, 0), child_span(c1, 0));
        // mix64 is bijective: distinct inputs cannot collide.
        assert_ne!(mix64(0), mix64(1));
        assert_eq!(SpanId(mix64(4)), root_span(RequestId(3)));
    }

    /// Four services (front -> mid -> {leaf_a, leaf_b}), steady load with
    /// timeouts: shards=1 and shards=2 must agree on every observable.
    fn run_sharded(shards: usize) -> (Vec<(u64, u64)>, u64, u64, u64) {
        let mut w = World::new(WorldConfig::default(), SimRng::seed_from(7));
        let rt = RequestTypeId(0);
        let leaf_a = ServiceId(2);
        let leaf_b = ServiceId(3);
        let mid = ServiceId(1);
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
        w.add_request_type_with_timeout(
            "GET /",
            front,
            Some(sim_core::SimDuration::from_millis(200)),
        );
        for sid in 0..4u32 {
            for _ in 0..2 {
                let id = w.add_replica(ServiceId(sid)).unwrap();
                w.make_ready(id);
            }
        }
        w.enable_sharding(shards).unwrap();
        for i in 0..200u64 {
            w.inject_at(SimTime::from_nanos(500_000 * i), rt);
        }
        let done = w.run_until(SimTime::from_secs(2));
        let obs: Vec<(u64, u64)> = done
            .iter()
            .map(|c| (c.request.get(), c.completed.as_nanos()))
            .collect();
        assert!(w.is_quiescent(), "requests still pending at t=2s");
        (obs, w.dropped(), w.events_dispatched(), w.spans_created())
    }

    #[test]
    fn one_and_two_shards_are_identical() {
        let a = run_sharded(1);
        let b = run_sharded(2);
        assert_eq!(a.0, b.0, "completion streams diverge");
        assert_eq!(a.1, b.1, "drop counts diverge");
        assert_eq!(a.2, b.2, "event counts diverge");
        assert_eq!(a.3, b.3, "span counts diverge");
        assert!(!a.0.is_empty());
    }

    #[test]
    fn four_shards_match_too() {
        assert_eq!(run_sharded(1), run_sharded(4));
    }
}
