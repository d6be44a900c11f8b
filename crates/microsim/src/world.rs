//! The simulation world: services, replicas, requests and the event loop.

use crate::config::{
    LbPolicy, RequestTypeSpec, ServiceSpec, Stage, WorldConfig, CLIENT_BUCKET, MAX_CONNECT_RETRIES,
    TRACE_HORIZON,
};
use crate::faults::{BlackoutMode, FaultKind, FaultSchedule, FaultScheduleError};
use crate::replica::{ConnWaiter, Replica, ReplicaState};
use crate::request::{Frame, FrameIdx, RequestState};
use crate::shard::{ShardError, ShardTally};
use cluster::{ClusterState, Millicores, NodeId, PlacementError};
use net::{Endpoint, Network, NetworkConfig, SendOutcome};
use serde::{Deserialize, Serialize};
use sim_core::{EventQueue, SimDuration, SimRng, SimTime, Slab, SlabKey};
use std::collections::BTreeMap;
use std::ops::Range;
use telemetry::{
    ClientLog, CompletionLog, ConcurrencyTracker, ReplicaId, RequestId, RequestTypeId, ServiceId,
    SpanId, Trace, TraceWarehouse,
};

/// A finished end-to-end request, as reported to the workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The request's identity.
    pub request: RequestId,
    /// Its request type.
    pub rtype: RequestTypeId,
    /// When the user issued it.
    pub issued: SimTime,
    /// When the response reached the user.
    pub completed: SimTime,
    /// End-to-end response time (`completed − issued`).
    pub response_time: SimDuration,
}

/// Why a request was dropped (refused or aborted without a response).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum DropReason {
    /// Refused at the edge: no ready replica of the entry service.
    Refused,
    /// A replica holding one of the request's open frames failed.
    ReplicaFailed,
    /// The client-side timeout fired while the request was in flight.
    ClientTimeout,
    /// An inter-service call exhausted its connection-level retry budget
    /// without finding a ready replica.
    RetriesExhausted,
    /// The ingress message was lost by the network (random loss or a
    /// partition window on the client edge) before reaching the entry
    /// service. Only produced with a network installed.
    NetLost,
    /// An inter-service call exhausted its per-call timeout resend budget
    /// (the response — or every resend — was lost, partitioned away, or
    /// too slow). Only produced with a network installed.
    NetTimedOut,
}

/// Cumulative drop counts broken down by [`DropReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropBreakdown {
    /// Requests refused at the edge.
    pub refused: u64,
    /// Requests aborted by a replica failure.
    pub replica_failed: u64,
    /// Requests abandoned by the client-side timeout.
    pub client_timeout: u64,
    /// Requests dropped after exhausting connection retries.
    pub retries_exhausted: u64,
    /// Requests whose ingress message the network lost.
    pub net_lost: u64,
    /// Requests dropped after a call exhausted its network-timeout resends.
    pub net_timed_out: u64,
}

impl DropBreakdown {
    fn count(&mut self, reason: DropReason) {
        match reason {
            DropReason::Refused => self.refused += 1,
            DropReason::ReplicaFailed => self.replica_failed += 1,
            DropReason::ClientTimeout => self.client_timeout += 1,
            DropReason::RetriesExhausted => self.retries_exhausted += 1,
            DropReason::NetLost => self.net_lost += 1,
            DropReason::NetTimedOut => self.net_timed_out += 1,
        }
    }

    /// Total drops across all reasons.
    pub fn total(&self) -> u64 {
        self.refused
            + self.replica_failed
            + self.client_timeout
            + self.retries_exhausted
            + self.net_lost
            + self.net_timed_out
    }
}

/// A point-in-time telemetry snapshot, surfaced between simulation steps by
/// the service plane (`sora-server`) so remote observers can watch a live
/// run. Windowed counts cover `[window_from, now)` against the caller's
/// goodput threshold; cumulative counts cover the whole run so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Simulation clock at snapshot time, in nanoseconds.
    pub now_nanos: u64,
    /// End-to-end completions so far (whole run).
    pub completed: u64,
    /// Dropped requests so far (whole run).
    pub dropped: u64,
    /// Requests currently in flight inside the cluster.
    pub in_flight: u64,
    /// Events dispatched by the engine so far.
    pub events_dispatched: u64,
    /// Completions inside the snapshot window.
    pub window_completed: u64,
    /// Completions inside the snapshot window within the goodput threshold.
    pub window_good: u64,
    /// Cumulative drop counts broken down by reason.
    pub drop_breakdown: DropBreakdown,
}

#[derive(Debug, Clone)]
enum Event {
    /// A user request reaches its entry service. Requests are referenced
    /// by generational slab key: a stale key (request already finished or
    /// aborted) simply fails its lookup, which is exactly the "late event"
    /// semantics the handlers want.
    ExternalArrival { request: SlabKey },
    /// An inter-service call reaches the target service. `attempt` counts
    /// connection-level retries taken because no replica was ready.
    ChildArrival {
        request: SlabKey,
        parent: FrameIdx,
        call_idx: usize,
        target: ServiceId,
        attempt: u32,
    },
    /// A child's response reaches the calling frame.
    ChildReturn {
        request: SlabKey,
        parent: FrameIdx,
        call_idx: usize,
    },
    /// A CPU on `replica` may have finished a job (valid only at `epoch`).
    CpuDone { replica: ReplicaId, epoch: u64 },
    /// A starting replica becomes ready.
    ReplicaReady { replica: ReplicaId },
    /// A request's client-side timeout fires (no-op if already finished).
    Timeout { request: SlabKey },
    /// An installed fault fires (see [`FaultSchedule`]).
    Fault { kind: FaultKind },
    /// A node's CPU-pressure window ends.
    PressureEnd { node: NodeId },
    /// A telemetry-blackout window ends.
    BlackoutEnd,
    /// A crashed replica's scheduled replacement is created.
    ReplicaRestart { service: ServiceId },
    /// A caller-side per-call network timeout fires. Inert if the request
    /// is gone, the call was answered, or a resend already bumped the
    /// call past `generation`.
    CallTimeout {
        request: SlabKey,
        parent: FrameIdx,
        call_idx: usize,
        target: ServiceId,
        generation: u32,
    },
    /// A completion sample reaches the monitoring plane over the network
    /// (possibly late and out of order relative to other replica samples).
    TelemetrySample {
        replica: ReplicaId,
        completed: SimTime,
        response_time: SimDuration,
    },
    /// A trace report reaches the warehouse over the network (possibly
    /// late, and possibly a retransmit duplicate).
    TelemetryTrace { trace: Box<Trace> },
    /// A partition window between two services heals.
    PartitionEnd { a: ServiceId, b: ServiceId },
    /// A slow-link window between two services ends.
    LinkSlowEnd {
        a: ServiceId,
        b: ServiceId,
        factor: f64,
    },
}

struct ServiceRuntime {
    spec: ServiceSpec,
    /// All replica ids ever assigned to this service that still exist.
    replicas: Vec<ReplicaId>,
    /// Round-robin cursor.
    rr: usize,
    /// Current (mutable) settings; new replicas inherit these.
    cpu_limit: Millicores,
    thread_limit: usize,
    conn_limits: BTreeMap<ServiceId, usize>,
    /// Busy core-nanoseconds carried over from removed replicas, so the
    /// service-level counter stays monotone across scale-downs.
    retired_busy_nanos: f64,
}

/// The discrete-event microservice cluster simulator.
///
/// Construction order: add services ([`World::add_service`]), request types
/// ([`World::add_request_type`]), replicas ([`World::add_replica`]); then
/// alternate [`World::inject_at`] (workload) and [`World::run_until`]
/// (simulation), adjusting soft/hardware resources from a controller in
/// between. Everything is deterministic given the seed.
///
/// # Example
///
/// ```
/// use microsim::{Behavior, ServiceSpec, World, WorldConfig};
/// use sim_core::{Dist, SimRng, SimTime, SimDuration};
/// use telemetry::RequestTypeId;
///
/// let mut w = World::new(WorldConfig::default(), SimRng::seed_from(1));
/// let rt = RequestTypeId(0);
/// let svc = w.add_service(
///     ServiceSpec::new("api").on(rt, Behavior::leaf(Dist::constant_ms(5))),
/// );
/// w.add_request_type("GET /", svc);
/// let pod = w.add_replica(svc).unwrap();
/// w.make_ready(pod); // skip container start-up in examples/tests
/// w.inject_at(SimTime::from_millis(1), rt);
/// let done = w.run_until(SimTime::from_secs(1));
/// assert_eq!(done.len(), 1);
/// assert!(done[0].response_time.as_millis() >= 5);
/// ```
pub struct World {
    config: WorldConfig,
    queue: EventQueue<Event>,
    rng: SimRng,
    /// Dedicated stream for load-balancer draws, so the choice of LB policy
    /// cannot perturb service-demand sampling (keeps A/B comparisons of
    /// policies unconfounded).
    lb_rng: SimRng,
    clock: SimTime,
    services: Vec<ServiceRuntime>,
    request_types: Vec<RequestTypeSpec>,
    /// Replica storage: a dense generational slab instead of a pointer-
    /// chasing map, plus two parallel arrays (struct-of-arrays layout) so
    /// the hot load-balancer scans touch only flat memory.
    replicas: Slab<Replica>,
    /// `ReplicaId` → slab key of the live replica (`None` once removed).
    /// Dense because replica ids are issued sequentially.
    replica_lookup: Vec<Option<SlabKey>>,
    /// Lifecycle state per replica *slot*, parallel to `replicas`: the
    /// readiness scan in `pick_replica` walks this array and never touches
    /// the replica structs themselves.
    replica_states: Vec<ReplicaState>,
    cluster: ClusterState,
    /// The message-passing transport, when installed. `None` keeps the
    /// original function-edge engine (constant `net_delay`, no loss) —
    /// retained verbatim as the byte-identity oracle for transparent
    /// network configs.
    network: Option<Network>,
    /// In-flight requests, slab-allocated: steady-state churn reuses slots
    /// instead of hitting the allocator, and events hold generational keys
    /// so late events cannot alias a recycled slot.
    requests: Slab<RequestState>,
    warehouse: TraceWarehouse,
    client: ClientLog,
    completed: Vec<Completion>,
    dropped_log: Vec<(RequestId, DropReason)>,
    drop_breakdown: DropBreakdown,
    /// Active node-pressure factors, keyed by node id, so replicas placed
    /// onto a pressured node mid-window inherit the pressure.
    node_pressure: BTreeMap<u32, f64>,
    /// Active telemetry blackout, if any.
    blackout: Option<BlackoutMode>,
    /// Per-replica completion samples withheld during a `Lag` blackout,
    /// in completion order.
    lag_completions: Vec<(ReplicaId, SimTime, SimDuration)>,
    /// Warehouse traces withheld during a `Lag` blackout.
    lag_traces: Vec<Trace>,
    /// Human-readable record of every fault applied, for reports.
    fault_log: Vec<(SimTime, String)>,
    /// Scratch buffer reused across [`World::on_cpu_done`] invocations —
    /// the hottest event handler, fired once per compute stage — so the
    /// completion batch never re-allocates in steady state.
    cpu_work_scratch: Vec<(SlabKey, FrameIdx)>,
    /// Reusable copy of a call stage's targets, so [`World::run_frame`]
    /// can issue the calls without cloning the stage.
    call_targets_scratch: Vec<ServiceId>,
    /// Reusable snapshot of a service's replica list for the soft-resource
    /// actuation loops (drains may mutate the list mid-walk).
    actuation_scratch: Vec<ReplicaId>,
    next_request: u64,
    next_replica: u64,
    next_span: u64,
    dropped: u64,
    /// Total events dispatched (the `scale` bench's events/sec numerator).
    events_dispatched: u64,
    /// The shard tally, when enabled via [`World::enable_sharding`]: the
    /// event loop then pops in lookahead windows and tallies each
    /// window's dispatches by shard.
    tally: Option<ShardTally>,
    /// Conservation-law violations observed during dispatch. Audit-only
    /// state: never serialized, never read by simulation logic.
    #[cfg(feature = "audit")]
    audit_sink: sim_core::audit::CountingSink,
    /// Timestamp of the most recently dispatched event, for the
    /// event-monotonicity check.
    #[cfg(feature = "audit")]
    audit_last_event: SimTime,
    /// Next sim-time at which the per-replica boundary sweep runs.
    #[cfg(feature = "audit")]
    audit_next_boundary: SimTime,
}

impl World {
    /// Creates an empty world with one effectively-unbounded node (capacity
    /// checks can be made meaningful with [`World::add_node`]).
    pub fn new(config: WorldConfig, rng: SimRng) -> Self {
        let warehouse = TraceWarehouse::new(TRACE_HORIZON, config.trace_sample_every);
        let client = ClientLog::new(CLIENT_BUCKET);
        let lb_rng = rng.split("load-balancer");
        World {
            config,
            queue: EventQueue::new(),
            rng,
            lb_rng,
            clock: SimTime::ZERO,
            services: Vec::new(),
            request_types: Vec::new(),
            replicas: Slab::new(),
            replica_lookup: Vec::new(),
            replica_states: Vec::new(),
            cluster: ClusterState::new(),
            network: None,
            requests: Slab::new(),
            warehouse,
            client,
            completed: Vec::new(),
            dropped_log: Vec::new(),
            drop_breakdown: DropBreakdown::default(),
            node_pressure: BTreeMap::new(),
            blackout: None,
            lag_completions: Vec::new(),
            lag_traces: Vec::new(),
            fault_log: Vec::new(),
            cpu_work_scratch: Vec::new(),
            call_targets_scratch: Vec::new(),
            actuation_scratch: Vec::new(),
            next_request: 0,
            next_replica: 0,
            next_span: 0,
            dropped: 0,
            events_dispatched: 0,
            tally: None,
            #[cfg(feature = "audit")]
            audit_sink: sim_core::audit::CountingSink::new(),
            #[cfg(feature = "audit")]
            audit_last_event: SimTime::ZERO,
            #[cfg(feature = "audit")]
            audit_next_boundary: SimTime::ZERO,
        }
    }

    /// Adds a node with the given CPU capacity. If no node is ever added, a
    /// first placement lazily creates a huge default node.
    pub fn add_node(&mut self, capacity: Millicores) {
        self.cluster.add_node(capacity);
    }

    /// Registers a service, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if sharding is already enabled (the shard plan is fixed over
    /// the service set).
    pub fn add_service(&mut self, spec: ServiceSpec) -> ServiceId {
        assert!(
            self.tally.is_none(),
            "add_service: topology is frozen once sharding is enabled"
        );
        let id = ServiceId(self.services.len() as u32);
        self.services.push(ServiceRuntime {
            cpu_limit: spec.cpu_limit,
            thread_limit: spec.thread_limit,
            conn_limits: spec.conn_limits.clone(),
            spec,
            replicas: Vec::new(),
            rr: 0,
            retired_busy_nanos: 0.0,
        });
        id
    }

    /// Registers a request type entering at `entry`, returning its id.
    pub fn add_request_type(&mut self, name: impl Into<String>, entry: ServiceId) -> RequestTypeId {
        self.add_request_type_with_timeout(name, entry, None)
    }

    /// Registers a request type with a client-side timeout: requests still
    /// in flight `timeout` after being issued are abandoned (dropped) and
    /// every resource they hold is reclaimed.
    pub fn add_request_type_with_timeout(
        &mut self,
        name: impl Into<String>,
        entry: ServiceId,
        timeout: Option<SimDuration>,
    ) -> RequestTypeId {
        let id = RequestTypeId(self.request_types.len() as u32);
        self.request_types.push(RequestTypeSpec {
            name: name.into(),
            entry,
            timeout,
        });
        id
    }

    /// The current simulated instant (the `run_until` high-water mark).
    pub fn now(&self) -> SimTime {
        self.clock.max(self.queue.now())
    }

    // ------------------------------------------------------------------
    // Sharding
    // ------------------------------------------------------------------

    /// Enables the shard tally with `shards` contiguous, evenly sized
    /// service partitions. See
    /// [`World::enable_sharding_with_plan`] for semantics and errors.
    pub fn enable_sharding(&mut self, shards: usize) -> Result<(), ShardError> {
        let n = self.services.len();
        let plan: Vec<Range<usize>> = (0..shards)
            .map(|k| (k * n / shards)..((k + 1) * n / shards))
            .collect();
        self.enable_sharding_with_plan(&plan)
    }

    /// Enables the shard tally with an explicit partition plan
    /// (contiguous, non-empty service ranges covering every service).
    /// Add every service first; call it before the first event runs.
    ///
    /// From then on the event loop pops its one queue in lookahead
    /// windows `[w, w + L)`, anchored at the start of each `run_until`
    /// span, and counts every event on the shard of the service it
    /// executes on. The busiest shard per window adds up to
    /// [`World::critical_path_events`]. `L` is read here: the installed
    /// network's [`NetworkConfig::lookahead`], else `net_delay`'s lower
    /// bound, so install the network first. The tally never changes what
    /// runs: a sharded world produces the unsharded world's bytes. See
    /// `DESIGN.md` §14.
    ///
    /// # Errors
    ///
    /// [`ShardError`] when the world has already dispatched events, when
    /// the plan is not a contiguous cover, or when `L` is zero.
    pub fn enable_sharding_with_plan(&mut self, plan: &[Range<usize>]) -> Result<(), ShardError> {
        if self.events_dispatched != 0 {
            return Err(ShardError::AlreadyStarted);
        }
        let lookahead = match &self.network {
            Some(network) => network.config().lookahead(),
            None => self.config.net_delay.lower_bound(),
        };
        self.tally = Some(ShardTally::new(
            plan,
            self.services.len(),
            lookahead.as_nanos(),
        )?);
        Ok(())
    }

    /// Number of shards the tally counts over (1 without sharding).
    pub fn shard_count(&self) -> usize {
        self.tally.as_ref().map_or(1, ShardTally::shards)
    }

    /// The tally's window width in nanoseconds (`None` without sharding).
    pub fn shard_lookahead_nanos(&self) -> Option<u64> {
        self.tally.as_ref().map(ShardTally::lookahead)
    }

    // ------------------------------------------------------------------
    // Dense replica storage (struct-of-arrays hot state)
    // ------------------------------------------------------------------

    /// The slab key of a live replica, or `None` once it is removed.
    fn rep_key(&self, id: ReplicaId) -> Option<SlabKey> {
        self.replica_lookup
            .get(id.get() as usize)
            .copied()
            .flatten()
    }

    fn rep(&self, id: ReplicaId) -> Option<&Replica> {
        self.rep_key(id).and_then(|k| self.replicas.get(k))
    }

    fn rep_mut(&mut self, id: ReplicaId) -> Option<&mut Replica> {
        let k = self.rep_key(id)?;
        self.replicas.get_mut(k)
    }

    /// The lifecycle state of a replica, read from the dense state array.
    fn state_of(&self, id: ReplicaId) -> Option<ReplicaState> {
        self.rep_key(id)
            .map(|k| self.replica_states[k.index() as usize])
    }

    fn set_state(&mut self, id: ReplicaId, state: ReplicaState) {
        if let Some(k) = self.rep_key(id) {
            self.replica_states[k.index() as usize] = state;
        }
    }

    // ------------------------------------------------------------------
    // Scaling & soft-resource actuation
    // ------------------------------------------------------------------

    /// Starts a new replica of `service`. The replica consumes node capacity
    /// immediately but serves traffic only after container start-up
    /// (see [`WorldConfig::replica_startup`]).
    ///
    /// # Errors
    ///
    /// Propagates [`PlacementError`] when no node can host the pod.
    pub fn add_replica(&mut self, service: ServiceId) -> Result<ReplicaId, PlacementError> {
        if self.cluster.nodes().is_empty() {
            // Lazy default: effectively unbounded machine.
            self.cluster.add_node(Millicores::from_cores(1_000_000));
        }
        let id = ReplicaId(self.next_replica);
        let rt = &self.services[service.get() as usize];
        self.cluster.place(id.get(), rt.cpu_limit)?;
        self.next_replica += 1;
        let mut replica = Replica::new(
            id,
            service,
            rt.cpu_limit,
            rt.spec.csw_overhead,
            rt.thread_limit,
            &rt.conn_limits,
        );
        // A pod scheduled onto a node inside an active CPU-pressure window
        // inherits the pressure for the rest of the window.
        if let Some(placement) = self.cluster.placement(id.get()) {
            if let Some(&factor) = self.node_pressure.get(&placement.node.0) {
                replica.cpu.set_pressure(self.now(), factor);
            }
        }
        let key = self.replicas.insert(replica);
        let slot = key.index() as usize;
        if slot >= self.replica_states.len() {
            self.replica_states.resize(slot + 1, ReplicaState::Starting);
        }
        self.replica_states[slot] = ReplicaState::Starting;
        let idx = id.get() as usize;
        if idx >= self.replica_lookup.len() {
            self.replica_lookup.resize(idx + 1, None);
        }
        self.replica_lookup[idx] = Some(key);
        self.services[service.get() as usize].replicas.push(id);
        let delay = self.config.replica_startup.sample(&mut self.rng);
        self.queue.schedule(
            self.now().max(self.queue.now()) + delay,
            Event::ReplicaReady { replica: id },
        );
        Ok(id)
    }

    /// Marks a starting replica ready immediately (used by tests and by
    /// initial topology construction, where pods pre-exist the run).
    pub fn make_ready(&mut self, replica: ReplicaId) {
        if self.state_of(replica) == Some(ReplicaState::Starting) {
            self.set_state(replica, ReplicaState::Ready);
        }
    }

    /// Gracefully removes one replica of `service` (the most recently
    /// added), draining in-flight work first. Returns the drained replica's
    /// id, or `None` if the service has at most `min_keep` replicas.
    pub fn drain_replica(&mut self, service: ServiceId, min_keep: usize) -> Option<ReplicaId> {
        let now = self.now();
        let rt = &self.services[service.get() as usize];
        let live: Vec<ReplicaId> = rt
            .replicas
            .iter()
            .copied()
            .filter(|&id| {
                self.state_of(id)
                    .is_some_and(|s| s != ReplicaState::Draining)
            })
            .collect();
        if live.len() <= min_keep {
            return None;
        }
        let victim = *live.last()?;
        self.set_state(victim, ReplicaState::Draining);
        if self.rep(victim)?.is_idle() {
            self.remove_replica_final(now, victim);
        }
        Some(victim)
    }

    /// Abruptly kills a replica: every request with an open frame on it is
    /// aborted (the user never gets a response; held threads, connections
    /// and CPU jobs elsewhere are reclaimed). Used for failure-injection
    /// tests.
    pub fn fail_replica(&mut self, replica: ReplicaId) {
        let now = self.now();
        // Canonical abort order — by request id, not storage order — so the
        // resulting event sequence is identical across runs and processes.
        let mut touching: Vec<(RequestId, SlabKey)> = self
            .requests
            .iter()
            .filter(|(_, rs)| {
                rs.frames
                    .iter()
                    .any(|f| f.replica == replica && f.departure.is_none())
            })
            .map(|(key, rs)| (rs.id, key))
            .collect();
        touching.sort_unstable();
        for (_, key) in touching {
            self.abort_request(now, key, DropReason::ReplicaFailed);
        }
        self.set_state(replica, ReplicaState::Draining);
        self.remove_replica_final(now, replica);
    }

    /// Restarts a crashed replica of `service`: a replacement pod is placed
    /// and goes through normal container start-up before taking traffic.
    /// The counterpart of [`World::fail_replica`] — crash/recover pairs
    /// model the paper's unasked question of what the control loop does
    /// while capacity flaps.
    ///
    /// # Errors
    ///
    /// Propagates [`PlacementError`] when no node can host the pod.
    pub fn recover_replica(&mut self, service: ServiceId) -> Result<ReplicaId, PlacementError> {
        self.add_replica(service)
    }

    fn remove_replica_final(&mut self, now: SimTime, replica: ReplicaId) {
        let Some(key) = self.rep_key(replica) else {
            return;
        };
        self.replica_lookup[replica.get() as usize] = None;
        if let Some(mut r) = self.replicas.remove(key) {
            debug_assert!(r.is_idle(), "removing a busy replica");
            r.cpu.advance(now);
            let _ = self.cluster.remove(replica.get());
            let svc = &mut self.services[r.service.get() as usize];
            svc.replicas.retain(|&id| id != replica);
            svc.retired_busy_nanos += r.cpu.busy_core_nanos();
        }
    }

    /// Sets the CPU limit of every replica of `service` (vertical scaling).
    ///
    /// # Errors
    ///
    /// Fails with [`PlacementError::InsufficientCapacity`] if any hosting
    /// node cannot absorb the increase; replicas resized before the failure
    /// keep the new limit (mirroring partial VPA roll-outs).
    pub fn set_cpu_limit(
        &mut self,
        service: ServiceId,
        limit: Millicores,
    ) -> Result<(), PlacementError> {
        let now = self.now();
        self.services[service.get() as usize].cpu_limit = limit;
        let mut ids = std::mem::take(&mut self.actuation_scratch);
        ids.clear();
        ids.extend_from_slice(&self.services[service.get() as usize].replicas);
        let mut result = Ok(());
        for &id in &ids {
            if let Err(e) = self.cluster.resize(id.get(), limit) {
                result = Err(e);
                break;
            }
            if let Some(r) = self.rep_mut(id) {
                r.cpu.set_limit(now, limit);
            }
            self.schedule_cpu(now, id);
        }
        self.actuation_scratch = ids;
        result
    }

    /// Sets the per-replica thread-pool size of `service`, admitting queued
    /// requests immediately if the limit grew.
    pub fn set_thread_limit(&mut self, service: ServiceId, limit: usize) {
        let now = self.now();
        self.services[service.get() as usize].thread_limit = limit;
        let mut ids = std::mem::take(&mut self.actuation_scratch);
        ids.clear();
        ids.extend_from_slice(&self.services[service.get() as usize].replicas);
        for &id in &ids {
            if let Some(r) = self.rep_mut(id) {
                r.threads.limit = limit;
            }
            self.drain_thread_queue(now, id);
        }
        self.actuation_scratch = ids;
    }

    /// Sets the per-replica connection-pool size from `service` toward
    /// `target`, granting queued calls immediately if the limit grew.
    pub fn set_conn_limit(&mut self, service: ServiceId, target: ServiceId, limit: usize) {
        let now = self.now();
        self.services[service.get() as usize]
            .conn_limits
            .insert(target, limit);
        let mut ids = std::mem::take(&mut self.actuation_scratch);
        ids.clear();
        ids.extend_from_slice(&self.services[service.get() as usize].replicas);
        for &id in &ids {
            if let Some(r) = self.rep_mut(id) {
                let pool = r
                    .conns
                    .entry(target)
                    .or_insert_with(|| crate::replica::ConnPool {
                        limit,
                        in_use: 0,
                        waiters: Default::default(),
                    });
                pool.limit = limit;
            }
            self.drain_conn_waiters(now, id, target);
        }
        self.actuation_scratch = ids;
    }

    // ------------------------------------------------------------------
    // Network substrate
    // ------------------------------------------------------------------

    /// Installs the message-passing network: from now on client ingress,
    /// inter-service calls and responses, and (unless the telemetry edge
    /// is transparent) telemetry reports ride the event queue as messages
    /// with per-edge latency, loss, queueing, partitions and timeouts.
    ///
    /// The network draws from its own `"network"` split of the world seed,
    /// so installing one cannot perturb service-demand or load-balancer
    /// sampling. A transparent config ([`net::NetworkConfig::transparent`],
    /// or constant latency matching [`WorldConfig::net_delay`] via
    /// [`net::NetworkConfig::constant_latency`]) reproduces the
    /// function-edge engine byte for byte.
    pub fn install_network(&mut self, config: NetworkConfig) {
        self.network = Some(Network::new(config, self.rng.split("network")));
    }

    /// The installed network, if any.
    pub fn network(&self) -> Option<&Network> {
        self.network.as_ref()
    }

    /// Transport counters of the installed network, if any.
    pub fn network_stats(&self) -> Option<net::NetStats> {
        self.network.as_ref().map(|n| *n.stats())
    }

    /// True when telemetry rides the installed network as messages (its
    /// telemetry edge is not transparent): samples and traces are then
    /// delivered by events, and traces may arrive twice.
    fn telemetry_is_networked(&self) -> bool {
        self.network
            .as_ref()
            .is_some_and(|n| !n.config().telemetry_is_transparent())
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    /// Installs a [`FaultSchedule`]: each fault is queued as an ordinary
    /// simulation event at its instant, so faults interleave with the rest
    /// of the run deterministically.
    ///
    /// # Errors
    ///
    /// Rejects structurally invalid schedules (inverted windows,
    /// overlapping crash windows on one service) without queueing anything
    /// — see [`FaultSchedule::validate`].
    pub fn install_faults(&mut self, schedule: FaultSchedule) -> Result<(), FaultScheduleError> {
        schedule.validate()?;
        for event in schedule.events() {
            self.queue.schedule(
                event.at,
                Event::Fault {
                    kind: event.kind.clone(),
                },
            );
        }
        Ok(())
    }

    /// The sim-clock-stamped record of every fault applied so far.
    pub fn fault_log(&self) -> &[(SimTime, String)] {
        &self.fault_log
    }

    fn on_fault(&mut self, now: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::ReplicaCrash {
                service,
                restart_after,
            } => {
                // Deterministic victim: the longest-lived ready replica.
                let Some(victim) = self.ready_replicas_iter(service).next() else {
                    let name = self.service_name(service).to_string();
                    self.fault_log
                        .push((now, format!("crash {name}: no ready replica")));
                    return;
                };
                let name = self.service_name(service).to_string();
                self.fault_log
                    .push((now, format!("crash {name} replica {victim}")));
                self.fail_replica(victim);
                if let Some(delay) = restart_after {
                    self.queue
                        .schedule(now + delay, Event::ReplicaRestart { service });
                }
            }
            FaultKind::CpuPressure {
                node,
                factor,
                duration,
            } => {
                self.fault_log.push((
                    now,
                    format!(
                        "cpu pressure node {} factor {factor} for {}s",
                        node.0,
                        duration.as_secs_f64()
                    ),
                ));
                self.node_pressure.insert(node.0, factor);
                self.apply_node_pressure(now, node, factor);
                self.queue
                    .schedule(now + duration, Event::PressureEnd { node });
            }
            FaultKind::TelemetryBlackout { mode, duration } => {
                self.fault_log.push((
                    now,
                    format!(
                        "telemetry blackout ({mode:?}) for {}s",
                        duration.as_secs_f64()
                    ),
                ));
                self.blackout = Some(mode);
                self.queue.schedule(now + duration, Event::BlackoutEnd);
            }
            FaultKind::Partition { a, b, duration } => {
                let (an, bn) = (
                    self.service_name(a).to_string(),
                    self.service_name(b).to_string(),
                );
                match self.network.as_mut() {
                    Some(network) => {
                        network.partition(a, b);
                        self.fault_log.push((
                            now,
                            format!("partition {an} <-> {bn} for {}s", duration.as_secs_f64()),
                        ));
                        self.queue
                            .schedule(now + duration, Event::PartitionEnd { a, b });
                    }
                    None => self.fault_log.push((
                        now,
                        format!("partition {an} <-> {bn} ignored (no network installed)"),
                    )),
                }
            }
            FaultKind::LinkSlow {
                a,
                b,
                factor,
                duration,
            } => {
                let (an, bn) = (
                    self.service_name(a).to_string(),
                    self.service_name(b).to_string(),
                );
                match self.network.as_mut() {
                    Some(network) => {
                        network.slow_link(a, b, factor);
                        self.fault_log.push((
                            now,
                            format!(
                                "slow link {an} <-> {bn} x{factor} for {}s",
                                duration.as_secs_f64()
                            ),
                        ));
                        self.queue
                            .schedule(now + duration, Event::LinkSlowEnd { a, b, factor });
                    }
                    None => self.fault_log.push((
                        now,
                        format!("slow link {an} <-> {bn} ignored (no network installed)"),
                    )),
                }
            }
        }
    }

    fn on_partition_end(&mut self, now: SimTime, a: ServiceId, b: ServiceId) {
        if let Some(network) = self.network.as_mut() {
            network.heal(a, b);
        }
        let (an, bn) = (
            self.service_name(a).to_string(),
            self.service_name(b).to_string(),
        );
        self.fault_log
            .push((now, format!("partition {an} <-> {bn} heals")));
    }

    fn on_link_slow_end(&mut self, now: SimTime, a: ServiceId, b: ServiceId, factor: f64) {
        if let Some(network) = self.network.as_mut() {
            network.heal_slow_link(a, b, factor);
        }
        let (an, bn) = (
            self.service_name(a).to_string(),
            self.service_name(b).to_string(),
        );
        self.fault_log
            .push((now, format!("slow link {an} <-> {bn} recovers")));
    }

    /// Sets the pressure factor of every replica currently placed on `node`.
    fn apply_node_pressure(&mut self, now: SimTime, node: NodeId, factor: f64) {
        // Sorted to match the former BTreeMap iteration order, so the event
        // sequence (and with it every downstream byte) is unchanged.
        let mut ids: Vec<ReplicaId> = self.replicas.iter().map(|(_, r)| r.id).collect();
        ids.sort_unstable();
        for id in ids {
            let on_node = self
                .cluster
                .placement(id.get())
                .is_some_and(|p| p.node == node);
            if on_node {
                if let Some(r) = self.rep_mut(id) {
                    r.cpu.set_pressure(now, factor);
                }
                self.schedule_cpu(now, id);
            }
        }
    }

    fn on_pressure_end(&mut self, now: SimTime, node: NodeId) {
        self.fault_log
            .push((now, format!("cpu pressure node {} lifted", node.0)));
        self.node_pressure.remove(&node.0);
        self.apply_node_pressure(now, node, 1.0);
    }

    fn on_blackout_end(&mut self, now: SimTime) {
        let lagged = matches!(self.blackout, Some(BlackoutMode::Lag));
        self.blackout = None;
        self.fault_log.push((
            now,
            format!(
                "telemetry blackout ends ({} lagged samples delivered)",
                if lagged {
                    self.lag_completions.len()
                } else {
                    0
                }
            ),
        ));
        let completions = std::mem::take(&mut self.lag_completions);
        let traces = std::mem::take(&mut self.lag_traces);
        if lagged {
            // Buffered in completion order, so per-replica time order holds.
            for (replica, t, rt) in completions {
                if let Some(r) = self.rep_mut(replica) {
                    r.completions.record(t, rt);
                }
            }
            // Traces that came over a non-transparent telemetry edge may
            // include retransmits; traces withheld on the direct path are
            // one per request.
            if self.telemetry_is_networked() {
                for trace in traces {
                    self.warehouse.push(trace);
                }
            } else {
                for trace in traces {
                    self.warehouse.push_unique(trace);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Workload injection & the event loop
    // ------------------------------------------------------------------

    /// Schedules a user request of type `rtype` to be issued at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past or `rtype` is unknown.
    pub fn inject_at(&mut self, at: SimTime, rtype: RequestTypeId) -> RequestId {
        assert!(
            (rtype.get() as usize) < self.request_types.len(),
            "unknown request type {rtype}"
        );
        let id = RequestId(self.next_request);
        self.next_request += 1;
        let arrive = match self.network.as_mut() {
            None => at + self.config.net_delay.sample(&mut self.rng),
            Some(network) => {
                let entry = self.request_types[rtype.get() as usize].entry;
                match network.send(at, Endpoint::Client, Endpoint::Service(entry)) {
                    SendOutcome::Deliver { at: arrive, .. } => arrive,
                    SendOutcome::Lost(_) => {
                        // Ingress lost: the user saw a connection error.
                        self.dropped += 1;
                        self.drop_breakdown.count(DropReason::NetLost);
                        self.dropped_log.push((id, DropReason::NetLost));
                        return id;
                    }
                }
            }
        };
        let key = self.requests.insert(RequestState::new(id, rtype, at));
        self.queue
            .schedule(arrive, Event::ExternalArrival { request: key });
        if let Some(timeout) = self.request_types[rtype.get() as usize].timeout {
            self.queue
                .schedule(at + timeout, Event::Timeout { request: key });
        }
        id
    }

    /// Processes every event up to and including `t`, returning the
    /// requests that completed. The world's clock ends at `t`.
    pub fn run_until(&mut self, t: SimTime) -> Vec<Completion> {
        let mut out = Vec::new();
        self.run_until_into(t, &mut out);
        out
    }

    /// Allocation-free variant of [`World::run_until`]: appends the
    /// completions to `out` (which the caller clears and reuses across
    /// steps) instead of returning a fresh `Vec` per step.
    pub fn run_until_into(&mut self, t: SimTime, out: &mut Vec<Completion>) {
        match self.tally.take() {
            None => {
                while let Some((now, event)) = self.queue.pop_before(t) {
                    self.dispatch(now, event);
                }
            }
            Some(mut tally) => {
                self.run_tallied(&mut tally, t);
                self.tally = Some(tally);
            }
        }
        self.clock = self.clock.max(t);
        #[cfg(feature = "audit")]
        self.audit_run_boundary();
        out.append(&mut self.completed);
    }

    /// The sharded form of the event loop: pops the same events in the
    /// same order, through lookahead windows `[w, w + L)` anchored at the
    /// span's start, and closes each window into the tally. Windows
    /// without events are skipped.
    fn run_tallied(&mut self, tally: &mut ShardTally, t: SimTime) {
        let (start, end) = (self.clock.as_nanos(), t.as_nanos());
        let width = tally.lookahead();
        let mut w = start;
        loop {
            let last = w.saturating_add(width - 1).min(end);
            while let Some((now, event)) = self.queue.pop_before(SimTime::from_nanos(last)) {
                tally.count(self.event_service(&event));
                self.dispatch(now, event);
            }
            tally.close_window();
            match self.queue.peek_time() {
                // The next event lies past `last >= w >= start`.
                Some(next) if next <= t => {
                    w = start + (next.as_nanos() - start) / width * width;
                }
                _ => return,
            }
        }
    }

    /// The service an event executes on, for the shard tally. `None` for
    /// events no service owns (faults and their ends, restarts, trace
    /// ingest) and for stale events whose request or replica is gone.
    fn event_service(&self, event: &Event) -> Option<ServiceId> {
        match *event {
            Event::ExternalArrival { request } | Event::Timeout { request } => {
                let rtype = self.requests.get(request)?.rtype;
                Some(self.request_types[rtype.get() as usize].entry)
            }
            Event::ChildArrival {
                request, target, ..
            } => self.requests.contains(request).then_some(target),
            Event::ChildReturn {
                request, parent, ..
            }
            | Event::CallTimeout {
                request, parent, ..
            } => Some(self.requests.get(request)?.frames[parent].service),
            Event::CpuDone { replica, .. }
            | Event::ReplicaReady { replica }
            | Event::TelemetrySample { replica, .. } => self.rep(replica).map(|r| r.service),
            Event::Fault { .. }
            | Event::PressureEnd { .. }
            | Event::BlackoutEnd
            | Event::ReplicaRestart { .. }
            | Event::TelemetryTrace { .. }
            | Event::PartitionEnd { .. }
            | Event::LinkSlowEnd { .. } => None,
        }
    }

    /// True when no events are pending (all requests finished or dropped).
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
    }

    fn dispatch(&mut self, now: SimTime, event: Event) {
        self.events_dispatched += 1;
        #[cfg(feature = "audit")]
        self.audit_pre_event(now);
        match event {
            Event::ExternalArrival { request } => self.on_external_arrival(now, request),
            Event::ChildArrival {
                request,
                parent,
                call_idx,
                target,
                attempt,
            } => self.on_child_arrival(now, request, parent, call_idx, target, attempt),
            Event::ChildReturn {
                request,
                parent,
                call_idx,
            } => self.on_child_return(now, request, parent, call_idx),
            Event::CpuDone { replica, epoch } => self.on_cpu_done(now, replica, epoch),
            Event::ReplicaReady { replica } => self.make_ready(replica),
            Event::Timeout { request } => {
                if self.requests.contains(request) {
                    self.abort_request(now, request, DropReason::ClientTimeout);
                }
            }
            Event::Fault { kind } => self.on_fault(now, kind),
            Event::PressureEnd { node } => self.on_pressure_end(now, node),
            Event::BlackoutEnd => self.on_blackout_end(now),
            Event::CallTimeout {
                request,
                parent,
                call_idx,
                target,
                generation,
            } => self.on_call_timeout(now, request, parent, call_idx, target, generation),
            Event::TelemetrySample {
                replica,
                completed,
                response_time,
            } => self.on_telemetry_sample(replica, completed, response_time),
            Event::TelemetryTrace { trace } => self.on_telemetry_trace(*trace),
            Event::PartitionEnd { a, b } => self.on_partition_end(now, a, b),
            Event::LinkSlowEnd { a, b, factor } => self.on_link_slow_end(now, a, b, factor),
            Event::ReplicaRestart { service } => {
                let name = self.service_name(service).to_string();
                match self.recover_replica(service) {
                    Ok(id) => self
                        .fault_log
                        .push((now, format!("restart {name} as replica {id}"))),
                    Err(e) => self
                        .fault_log
                        .push((now, format!("restart {name} failed: {e}"))),
                }
            }
        }
        #[cfg(feature = "audit")]
        self.audit_post_event(now);
    }

    fn on_external_arrival(&mut self, now: SimTime, request: SlabKey) {
        let Some(rs) = self.requests.get(request) else {
            return;
        };
        if !rs.frames.is_empty() {
            return; // duplicate delivery: the request already arrived
        }
        let id = rs.id;
        let entry = self.request_types[rs.rtype.get() as usize].entry;
        let Some(replica) = self.pick_replica(entry) else {
            // No ready replica: the request is refused at the edge.
            self.requests.remove(request);
            self.dropped += 1;
            self.drop_breakdown.count(DropReason::Refused);
            self.dropped_log.push((id, DropReason::Refused));
            return;
        };
        let span = SpanId(self.next_span);
        self.next_span += 1;
        let rs = self.requests.get_mut(request).expect("checked above");
        rs.frames.push(Frame::new(entry, replica, span, None, now));
        let frame = rs.frames.len() - 1;
        self.admit_or_queue(now, request, frame);
    }

    fn on_child_arrival(
        &mut self,
        now: SimTime,
        request: SlabKey,
        parent: FrameIdx,
        call_idx: usize,
        target: ServiceId,
        attempt: u32,
    ) {
        if !self.requests.contains(request) {
            return; // request aborted while the call was in flight
        }
        let Some(replica) = self.pick_replica(target) else {
            // No ready replica right now: retry shortly (connection-level
            // retry, as a client library would), up to the configured
            // budget; beyond it the whole request fails.
            if attempt >= MAX_CONNECT_RETRIES {
                self.abort_request(now, request, DropReason::RetriesExhausted);
                return;
            }
            self.queue.schedule(
                now + SimDuration::from_millis(10),
                Event::ChildArrival {
                    request,
                    parent,
                    call_idx,
                    target,
                    attempt: attempt + 1,
                },
            );
            return;
        };
        let span = SpanId(self.next_span);
        self.next_span += 1;
        let rs = self.requests.get_mut(request).expect("checked above");
        rs.frames.push(Frame::new(
            target,
            replica,
            span,
            Some((parent, call_idx)),
            now,
        ));
        let frame = rs.frames.len() - 1;
        self.admit_or_queue(now, request, frame);
    }

    fn on_child_return(
        &mut self,
        now: SimTime,
        request: SlabKey,
        parent: FrameIdx,
        call_idx: usize,
    ) {
        let Some(rs) = self.requests.get_mut(request) else {
            return;
        };
        let frame = &mut rs.frames[parent];
        if frame.calls[call_idx].end != SimTime::MAX {
            // Already answered: a resend raced the original (or a duplicate
            // execution returned late). The first answer won; this one is
            // inert.
            return;
        }
        frame.calls[call_idx].end = now;
        let target = frame.calls[call_idx].service;
        let replica = frame.replica;
        debug_assert!(frame.pending_children > 0);
        frame.pending_children -= 1;
        let ready = frame.pending_children == 0;
        // Release the connection this call held and hand it to a waiter.
        self.release_conn(now, replica, target);
        if ready {
            let rs = self.requests.get_mut(request).expect("still present");
            rs.frames[parent].stage += 1;
            self.run_frame(now, request, parent);
        }
    }

    fn on_cpu_done(&mut self, now: SimTime, replica: ReplicaId, epoch: u64) {
        let mut work = std::mem::take(&mut self.cpu_work_scratch);
        let live = match self.rep_mut(replica) {
            // A stale epoch means the event refers to a superseded schedule.
            Some(r) if r.cpu.epoch() == epoch => {
                r.cpu.advance(now);
                r.cpu.take_finished_into(&mut work);
                true
            }
            _ => false,
        };
        for (request, frame) in work.drain(..) {
            if let Some(rs) = self.requests.get_mut(request) {
                rs.frames[frame].stage += 1;
                self.run_frame(now, request, frame);
            }
        }
        self.cpu_work_scratch = work;
        if live {
            self.schedule_cpu(now, replica);
        }
    }

    // ------------------------------------------------------------------
    // Request lifecycle helpers
    // ------------------------------------------------------------------

    /// Selects a ready replica under the service's LB policy. Two-pass and
    /// allocation-free — count the ready replicas, then walk to the chosen
    /// one — because this runs on every span admission. The RNG draw
    /// sequence is identical to the collect-then-index formulation, so
    /// simulation outputs are unchanged.
    fn pick_replica(&mut self, service: ServiceId) -> Option<ReplicaId> {
        let n = self.ready_count(service);
        if n == 0 {
            return None;
        }
        let choice = match self.services[service.get() as usize].spec.lb {
            LbPolicy::RoundRobin => {
                let rt = &mut self.services[service.get() as usize];
                let k = rt.rr % n;
                rt.rr = rt.rr.wrapping_add(1);
                self.nth_ready(service, k)
            }
            LbPolicy::Random => {
                let k = self.lb_rng.index(n);
                self.nth_ready(service, k)
            }
            LbPolicy::LeastOutstanding => {
                // Power of two choices.
                let ka = self.lb_rng.index(n);
                let a = self.nth_ready(service, ka);
                let kb = self.lb_rng.index(n);
                let b = self.nth_ready(service, kb);
                let oa = self.rep(a).expect("ready replica").outstanding();
                let ob = self.rep(b).expect("ready replica").outstanding();
                if oa <= ob {
                    a
                } else {
                    b
                }
            }
        };
        Some(choice)
    }

    fn ready_count(&self, service: ServiceId) -> usize {
        self.services[service.get() as usize]
            .replicas
            .iter()
            .filter(|&&id| self.state_of(id) == Some(ReplicaState::Ready))
            .count()
    }

    /// The `n`-th ready replica of `service` in creation order.
    fn nth_ready(&self, service: ServiceId, n: usize) -> ReplicaId {
        self.services[service.get() as usize]
            .replicas
            .iter()
            .copied()
            .filter(|&id| self.state_of(id) == Some(ReplicaState::Ready))
            .nth(n)
            .expect("nth_ready index is below the ready count")
    }

    fn admit_or_queue(&mut self, now: SimTime, request: SlabKey, frame: FrameIdx) {
        let replica = self
            .requests
            .get(request)
            .expect("admitting a live request")
            .frames[frame]
            .replica;
        let Some(r) = self.rep_mut(replica) else {
            // Replica vanished between selection and admission (failure).
            self.abort_request(now, request, DropReason::ReplicaFailed);
            return;
        };
        if r.threads.try_acquire() {
            self.start_service(now, request, frame);
        } else {
            r.threads.queue.push_back((request, frame));
        }
    }

    fn start_service(&mut self, now: SimTime, request: SlabKey, frame: FrameIdx) {
        let rs = self
            .requests
            .get_mut(request)
            .expect("admitting a live request");
        let f = &mut rs.frames[frame];
        f.started = Some(now);
        let replica = f.replica;
        if let Some(r) = self.rep_mut(replica) {
            r.concurrency.enter(now);
        }
        self.run_frame(now, request, frame);
    }

    /// Executes stages of `frame` starting at its current stage until the
    /// frame blocks (CPU, downstream calls) or completes.
    fn run_frame(&mut self, now: SimTime, request: SlabKey, frame: FrameIdx) {
        loop {
            let Some(rs) = self.requests.get(request) else {
                return;
            };
            let f = &rs.frames[frame];
            let (service, replica) = (f.service, f.replica);
            let stage_idx = f.stage;
            let rtype = rs.rtype;
            let behavior = self.services[service.get() as usize]
                .spec
                .behaviors
                .get(&rtype)
                .unwrap_or_else(|| {
                    panic!(
                        "service {} has no behaviour for request type {rtype}",
                        self.services[service.get() as usize].spec.name
                    )
                });
            match behavior.stages.get(stage_idx) {
                None => {
                    self.complete_span(now, request, frame);
                    return;
                }
                Some(&Stage::Compute { demand }) => {
                    let d = demand.sample(&mut self.rng);
                    let Some(r) = self.rep_mut(replica) else {
                        return;
                    };
                    r.cpu.add(now, d, (request, frame));
                    self.schedule_cpu(now, replica);
                    return;
                }
                Some(Stage::Call { targets }) => {
                    if targets.is_empty() {
                        let rs = self.requests.get_mut(request).expect("present");
                        rs.frames[frame].stage += 1;
                        continue;
                    }
                    let mut targets_copy = std::mem::take(&mut self.call_targets_scratch);
                    targets_copy.clear();
                    targets_copy.extend_from_slice(targets);
                    self.issue_calls(now, request, frame, &targets_copy);
                    self.call_targets_scratch = targets_copy;
                    return;
                }
            }
        }
    }

    fn issue_calls(
        &mut self,
        now: SimTime,
        request: SlabKey,
        frame: FrameIdx,
        targets: &[ServiceId],
    ) {
        let net_mode = self.network.is_some();
        let replica = {
            let rs = self.requests.get_mut(request).expect("present");
            let f = &mut rs.frames[frame];
            // One growth step for the whole fan-out instead of one per call.
            f.calls.reserve(targets.len());
            f.replica
        };
        for &target in targets {
            let call_idx = {
                let rs = self.requests.get_mut(request).expect("present");
                let f = &mut rs.frames[frame];
                // `end` stays at the SimTime::MAX sentinel until the child
                // returns; a completed call may legitimately have end ==
                // start (zero network delay + zero compute), so "end equals
                // start" cannot mark outstandingness.
                f.calls.push(telemetry::ChildCall {
                    service: target,
                    start: now,
                    end: SimTime::MAX,
                });
                f.pending_children += 1;
                if net_mode {
                    f.attempts.push(0);
                }
                f.calls.len() - 1
            };
            let acquired = match self.rep_mut(replica).and_then(|r| r.conns.get_mut(&target)) {
                Some(pool) => {
                    if pool.try_acquire() {
                        true
                    } else {
                        pool.waiters.push_back(ConnWaiter {
                            request,
                            frame,
                            call_idx,
                        });
                        false
                    }
                }
                None => true, // unlimited: no pool configured
            };
            if acquired {
                self.send_child_call(now, request, frame, call_idx, target);
            }
        }
    }

    /// Dispatches one inter-service call message toward `target`, in either
    /// engine mode. Under a network the caller-side per-call timeout (if
    /// the edge configures one) is armed here — it starts when the message
    /// is actually sent, i.e. after any connection-pool wait.
    fn send_child_call(
        &mut self,
        now: SimTime,
        request: SlabKey,
        parent: FrameIdx,
        call_idx: usize,
        target: ServiceId,
    ) {
        if self.network.is_none() {
            let net = self.config.net_delay.sample(&mut self.rng);
            self.queue.schedule(
                now + net,
                Event::ChildArrival {
                    request,
                    parent,
                    call_idx,
                    target,
                    attempt: 0,
                },
            );
            return;
        }
        let rs = self
            .requests
            .get(request)
            .expect("sending for a live request");
        let caller = rs.frames[parent].service;
        let generation = rs.frames[parent].attempts[call_idx];
        let network = self.network.as_mut().expect("checked above");
        let call_timeout = network
            .config()
            .params(Endpoint::Service(caller), Endpoint::Service(target))
            .call_timeout;
        match network.send(now, Endpoint::Service(caller), Endpoint::Service(target)) {
            SendOutcome::Deliver { at, .. } => {
                self.queue.schedule(
                    at,
                    Event::ChildArrival {
                        request,
                        parent,
                        call_idx,
                        target,
                        attempt: 0,
                    },
                );
            }
            // Lost in transit: nothing arrives. The timeout below (when
            // configured) resends; otherwise only the client-side timeout
            // can reclaim the request.
            SendOutcome::Lost(_) => {}
        }
        if let Some(timeout) = call_timeout {
            self.queue.schedule(
                now + timeout,
                Event::CallTimeout {
                    request,
                    parent,
                    call_idx,
                    target,
                    generation,
                },
            );
        }
    }

    /// A per-call network timeout fired: resend the call (a fresh message
    /// and, at the target, a fresh execution) or — once the edge's resend
    /// budget is spent — give the whole request up as a network timeout.
    fn on_call_timeout(
        &mut self,
        now: SimTime,
        request: SlabKey,
        parent: FrameIdx,
        call_idx: usize,
        target: ServiceId,
        generation: u32,
    ) {
        let Some(rs) = self.requests.get_mut(request) else {
            return;
        };
        let frame = &mut rs.frames[parent];
        if frame.calls[call_idx].end != SimTime::MAX {
            return; // answered before the timeout fired
        }
        if frame.attempts[call_idx] != generation {
            return; // a resend already superseded this timeout
        }
        let caller = frame.service;
        let max_retries = self
            .network
            .as_ref()
            .expect("call timeouts only exist under a network")
            .config()
            .params(Endpoint::Service(caller), Endpoint::Service(target))
            .max_call_retries;
        if generation >= max_retries {
            self.abort_request(now, request, DropReason::NetTimedOut);
            return;
        }
        let rs = self.requests.get_mut(request).expect("checked above");
        rs.frames[parent].attempts[call_idx] = generation + 1;
        self.network
            .as_mut()
            .expect("checked above")
            .note_call_retry();
        // The original connection grant is still held for this call, so the
        // resend goes straight out — no second acquire.
        self.send_child_call(now, request, parent, call_idx, target);
    }

    fn complete_span(&mut self, now: SimTime, request: SlabKey, frame: FrameIdx) {
        let (service, replica, parent, arrival) = {
            let rs = self
                .requests
                .get_mut(request)
                .expect("completing a live request");
            let f = &mut rs.frames[frame];
            f.departure = Some(now);
            (f.service, f.replica, f.parent, f.arrival)
        };
        let span_rt = now - arrival;
        if let Some(k) = self.rep_key(replica) {
            let r = self.replicas.get_mut(k).expect("live replica key");
            r.concurrency.leave(now);
            // Completion *samples* go through the telemetry pipeline, which
            // a blackout window darkens; the concurrency tracker above keeps
            // integrating (it reflects the replica's true state, which a
            // controller would still pair with the missing rate samples).
            // Under a network with a non-transparent telemetry edge the
            // sample becomes a message instead: it may arrive late (and out
            // of order with other replicas' samples) or never — and blackout
            // windows are applied at *delivery* time, where the collector
            // sits. Samples are exactly-once-or-lost; only trace reports
            // (which carry span ids the warehouse can dedupe on) model
            // retransmit duplication.
            if self
                .network
                .as_ref()
                .is_some_and(|n| !n.config().telemetry_is_transparent())
            {
                let network = self.network.as_mut().expect("checked above");
                if let SendOutcome::Deliver { at, .. } =
                    network.send(now, Endpoint::Service(service), Endpoint::Monitor)
                {
                    self.queue.schedule(
                        at,
                        Event::TelemetrySample {
                            replica,
                            completed: now,
                            response_time: span_rt,
                        },
                    );
                }
            } else {
                match self.blackout {
                    None => {
                        r.completions.record(now, span_rt);
                    }
                    Some(BlackoutMode::Lag) => {
                        self.lag_completions.push((replica, now, span_rt));
                    }
                    Some(BlackoutMode::Drop) => {}
                }
            }
            r.threads.release();
        }
        self.drain_thread_queue(now, replica);
        self.maybe_reap_drained(now, replica);
        match parent {
            Some((p, call_idx)) => match self.network.as_mut() {
                None => {
                    let net = self.config.net_delay.sample(&mut self.rng);
                    self.queue.schedule(
                        now + net,
                        Event::ChildReturn {
                            request,
                            parent: p,
                            call_idx,
                        },
                    );
                }
                Some(network) => {
                    let parent_service = self
                        .requests
                        .get(request)
                        .expect("completing a live request")
                        .frames[p]
                        .service;
                    match network.send(
                        now,
                        Endpoint::Service(service),
                        Endpoint::Service(parent_service),
                    ) {
                        SendOutcome::Deliver { at, .. } => self.queue.schedule(
                            at,
                            Event::ChildReturn {
                                request,
                                parent: p,
                                call_idx,
                            },
                        ),
                        // The response vanished; the caller's per-call
                        // timeout (if armed) resends the whole call.
                        SendOutcome::Lost(_) => {}
                    }
                }
            },
            None => self.finalize_request(now, request),
        }
    }

    fn finalize_request(&mut self, now: SimTime, request: SlabKey) {
        let rs = self
            .requests
            .remove(request)
            .expect("finalizing a live request");
        let id = rs.id;
        let issued = rs.issued;
        let rtype = rs.rtype;
        let entry = rs.frames[0].service;
        let completed = match self.network.as_mut() {
            None => now + self.config.net_delay.sample(&mut self.rng),
            // The response rides the established client connection:
            // latency applies, loss does not.
            Some(network) => network.deliver_response(now, Endpoint::Service(entry)),
        };
        let response_time = completed - issued;
        // Under a network, a resend that raced its (slow, not lost)
        // original can leave duplicate child executions still running when
        // the root responds. Their results are discarded: release whatever
        // they hold and clamp their spans at `now`. The function-edge
        // engine keeps the open-frame panic as a lifecycle assertion.
        let mut close_open_at = None;
        if self.network.is_some() && rs.frames.iter().any(|f| f.departure.is_none()) {
            for fi in 0..rs.frames.len() {
                if rs.frames[fi].departure.is_none() {
                    self.release_open_frame(now, request, &rs, fi);
                    self.network.as_mut().expect("checked above").note_orphan();
                }
            }
            close_open_at = Some(now);
        }
        let spare = self.warehouse.take_spare_spans();
        let trace = rs.into_trace_with(spare, close_open_at);
        // The warehouse is part of the monitoring pipeline: blackout windows
        // withhold traces, and under a non-transparent telemetry edge the
        // trace is a message that may arrive late, duplicated (a retransmit
        // echo the warehouse dedupes by span id), or never. On the direct
        // path each request hands over its one trace, whose root span id no
        // other trace carries, so ingest skips the dedupe bookkeeping. The
        // client logs below model the experiment harness and always record.
        if self.telemetry_is_networked() {
            let network = self.network.as_mut().expect("checked above");
            match network.send_dup(now, Endpoint::Service(entry), Endpoint::Monitor) {
                SendOutcome::Deliver { at, duplicate } => {
                    if let Some(at2) = duplicate {
                        self.queue.schedule(
                            at2,
                            Event::TelemetryTrace {
                                trace: Box::new(trace.clone()),
                            },
                        );
                    }
                    self.queue.schedule(
                        at,
                        Event::TelemetryTrace {
                            trace: Box::new(trace),
                        },
                    );
                }
                SendOutcome::Lost(_) => {}
            }
        } else {
            match self.blackout {
                None => self.warehouse.push_unique(trace),
                Some(BlackoutMode::Lag) => self.lag_traces.push(trace),
                Some(BlackoutMode::Drop) => {}
            }
        }
        self.client.record(completed, response_time);
        self.completed.push(Completion {
            request: id,
            rtype,
            issued,
            completed,
            response_time,
        });
    }

    /// Handles a completion sample delivered over the telemetry edge.
    /// `completed` is when the span finished on its replica; delivery (the
    /// current event's instant) may be much later, so the per-replica
    /// completion log absorbs it out of order.
    fn on_telemetry_sample(
        &mut self,
        replica: ReplicaId,
        completed: SimTime,
        response_time: SimDuration,
    ) {
        match self.blackout {
            Some(BlackoutMode::Drop) => return,
            Some(BlackoutMode::Lag) => {
                self.lag_completions
                    .push((replica, completed, response_time));
                return;
            }
            None => {}
        }
        if let Some(r) = self.rep_mut(replica) {
            r.completions.record(completed, response_time);
        }
    }

    /// Handles a trace report delivered over the telemetry edge. Duplicate
    /// retransmits reach this same path; the warehouse ingest is idempotent
    /// by root span id, so they cannot double-count.
    fn on_telemetry_trace(&mut self, trace: Trace) {
        match self.blackout {
            None => self.warehouse.push(trace),
            Some(BlackoutMode::Lag) => self.lag_traces.push(trace),
            Some(BlackoutMode::Drop) => {}
        }
    }

    /// Aborts a request outright, reclaiming every resource its frames hold.
    fn abort_request(&mut self, now: SimTime, request: SlabKey, reason: DropReason) {
        let Some(rs) = self.requests.remove(request) else {
            return;
        };
        let id = rs.id;
        for fi in 0..rs.frames.len() {
            if rs.frames[fi].departure.is_some() {
                continue; // span finished; resources already released
            }
            self.release_open_frame(now, request, &rs, fi);
        }
        self.dropped += 1;
        self.drop_breakdown.count(reason);
        self.dropped_log.push((id, reason));
    }

    /// Reclaims every resource one still-open frame holds: its thread (or
    /// accept-queue slot), any CPU job, and connections held by its
    /// outstanding calls. `rs` has already been removed from the slab;
    /// `request` is the (now-stale) key its waiters and jobs are tagged
    /// with. Shared by [`World::abort_request`] and the orphan-frame
    /// reaping in [`World::finalize_request`].
    fn release_open_frame(
        &mut self,
        now: SimTime,
        request: SlabKey,
        rs: &RequestState,
        fi: FrameIdx,
    ) {
        let frame = &rs.frames[fi];
        let replica = frame.replica;
        // Reclaim the thread (if the frame had been admitted).
        if frame.started.is_some() {
            if let Some(r) = self.rep_mut(replica) {
                r.concurrency.leave(now);
                r.threads.release();
                // Cancel any CPU job of this frame.
                r.cpu.cancel(now, &(request, fi));
            }
            self.schedule_cpu(now, replica);
            self.drain_thread_queue(now, replica);
        } else if let Some(r) = self.rep_mut(replica) {
            // Still in the accept queue: drop the entry lazily.
            r.threads.queue.retain(|&(rq, _)| rq != request);
        }
        // Release connections held by outstanding calls of this frame.
        for call in &frame.calls {
            if call.end == SimTime::MAX {
                // Outstanding (or waiting). If waiting, remove the waiter
                // instead of releasing.
                if let Some(r) = self.rep_mut(replica) {
                    if let Some(pool) = r.conns.get_mut(&call.service) {
                        let before = pool.waiters.len();
                        pool.waiters.retain(|w| w.request != request);
                        if pool.waiters.len() == before {
                            pool.release();
                        }
                    }
                }
                self.drain_conn_waiters(now, replica, call.service);
            }
        }
        self.maybe_reap_drained(now, replica);
    }

    // ------------------------------------------------------------------
    // Resource-release plumbing
    // ------------------------------------------------------------------

    fn release_conn(&mut self, now: SimTime, replica: ReplicaId, target: ServiceId) {
        if let Some(r) = self.rep_mut(replica) {
            if r.conns.contains_key(&target) {
                r.conns.get_mut(&target).expect("checked").release();
                self.drain_conn_waiters(now, replica, target);
            }
        }
    }

    /// Grants free connections to waiters, skipping waiters whose request
    /// has been aborted.
    fn drain_conn_waiters(&mut self, now: SimTime, replica: ReplicaId, target: ServiceId) {
        loop {
            let waiter = {
                let Some(key) = self.rep_key(replica) else {
                    return;
                };
                // Field-level borrow so the request check below can read
                // the disjoint `requests` slab.
                let Some(r) = self.replicas.get_mut(key) else {
                    return;
                };
                let Some(pool) = r.conns.get_mut(&target) else {
                    return;
                };
                match pool.grant_next() {
                    Some(w) => {
                        if self.requests.contains(w.request) {
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
                Some(w) => self.send_child_call(now, w.request, w.frame, w.call_idx, target),
                None => return,
            }
        }
    }

    /// Admits queued requests while threads are free, skipping dead entries.
    fn drain_thread_queue(&mut self, now: SimTime, replica: ReplicaId) {
        loop {
            let next = {
                let Some(key) = self.rep_key(replica) else {
                    return;
                };
                let Some(r) = self.replicas.get_mut(key) else {
                    return;
                };
                match r.threads.admit_next() {
                    Some((req, frame)) => {
                        if self.requests.contains(req) {
                            Some((req, frame))
                        } else {
                            r.threads.release(); // dead entry: free thread, try next
                            continue;
                        }
                    }
                    None => None,
                }
            };
            match next {
                Some((req, frame)) => self.start_service(now, req, frame),
                None => return,
            }
        }
    }

    fn maybe_reap_drained(&mut self, now: SimTime, replica: ReplicaId) {
        let should_remove = self.state_of(replica) == Some(ReplicaState::Draining)
            && self.rep(replica).is_some_and(|r| r.is_idle());
        if should_remove {
            self.remove_replica_final(now, replica);
        }
    }

    fn schedule_cpu(&mut self, now: SimTime, replica: ReplicaId) {
        let Some(r) = self.rep_mut(replica) else {
            return;
        };
        r.cpu.advance(now);
        let next = r.cpu.next_completion().map(|(t, _)| (t, r.cpu.epoch()));
        if let Some((t, epoch)) = next {
            self.queue.schedule(t, Event::CpuDone { replica, epoch });
        }
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// The trace warehouse (Sora's Monitoring Module storage).
    pub fn warehouse(&self) -> &TraceWarehouse {
        &self.warehouse
    }

    /// The end-to-end client log (experiment reporting).
    pub fn client(&self) -> &ClientLog {
        &self.client
    }

    /// Requests refused or aborted without a response.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total simulation events dispatched since construction — the
    /// events-per-second numerator reported by the `scale` bench.
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// The shard tally's critical path: summed over lookahead windows, the
    /// busiest shard's dispatches, plus every event no service owns.
    /// `events_dispatched / critical_path_events` is the parallelism one
    /// event stream exposes when split by service into shards; it is a
    /// measure, not a schedule anything runs (`DESIGN.md` §14). Without
    /// sharding, or with one shard, it equals [`World::events_dispatched`].
    pub fn critical_path_events(&self) -> u64 {
        self.tally
            .as_ref()
            .map_or(self.events_dispatched, ShardTally::critical_path)
    }

    /// Requests ever injected (completed + dropped + in flight).
    pub fn requests_injected(&self) -> u64 {
        self.next_request
    }

    /// Spans ever created (one per service invocation across all requests).
    pub fn spans_created(&self) -> u64 {
        self.next_span
    }

    /// Requests currently in flight.
    pub fn in_flight(&self) -> usize {
        self.requests.len()
    }

    /// Cumulative drop counts broken down by cause.
    pub fn drop_breakdown(&self) -> DropBreakdown {
        self.drop_breakdown
    }

    /// A point-in-time telemetry snapshot: cumulative counters plus exact
    /// completion-window counts over `[window_from, now)` against
    /// `threshold`. This is the read-only seam the service plane
    /// (`sora-server`) streams between simulation steps; taking a snapshot
    /// never perturbs the simulation.
    pub fn telemetry_snapshot(
        &self,
        window_from: SimTime,
        threshold: SimDuration,
    ) -> TelemetrySnapshot {
        let now = self.now();
        let (window_completed, window_good) = self.client().counts_in(window_from, now, threshold);
        TelemetrySnapshot {
            now_nanos: now.as_nanos(),
            completed: self.client().total(),
            dropped: self.dropped(),
            in_flight: self.in_flight() as u64,
            events_dispatched: self.events_dispatched(),
            window_completed,
            window_good,
            drop_breakdown: self.drop_breakdown(),
        }
    }

    /// Drains the requests dropped since the last call, each with the
    /// reason — closed-loop drivers use this to recycle or retry the
    /// affected users (a real client would see a connection error).
    pub fn drain_dropped(&mut self) -> Vec<(RequestId, DropReason)> {
        std::mem::take(&mut self.dropped_log)
    }

    /// The node hosting `replica`, if it is placed (fault schedules use
    /// this to aim CPU-pressure windows at a specific service's node).
    pub fn node_of(&self, replica: ReplicaId) -> Option<NodeId> {
        self.cluster.placement(replica.get()).map(|p| p.node)
    }

    /// Ready replica ids of `service`, in creation order.
    pub fn ready_replicas(&self, service: ServiceId) -> Vec<ReplicaId> {
        self.ready_replicas_iter(service).collect()
    }

    /// Non-allocating variant of [`World::ready_replicas`] for per-tick
    /// monitoring loops.
    pub fn ready_replicas_iter(&self, service: ServiceId) -> impl Iterator<Item = ReplicaId> + '_ {
        self.all_replicas(service)
            .iter()
            .copied()
            .filter(|&id| self.state_of(id) == Some(ReplicaState::Ready))
    }

    /// All live replica ids of `service` (starting + ready + draining).
    pub fn all_replicas(&self, service: ServiceId) -> &[ReplicaId] {
        &self.services[service.get() as usize].replicas
    }

    /// The concurrency sampler of one replica. It keeps the change points
    /// of the last 180 s, and a windowed read scans only those inside its
    /// window.
    pub fn concurrency_of(&self, replica: ReplicaId) -> Option<&ConcurrencyTracker> {
        self.rep(replica).map(|r| &r.concurrency)
    }

    /// The completion log of one replica. It keeps the completions of the
    /// last 180 s, and a windowed read scans only those inside
    /// its window.
    pub fn completions_of(&self, replica: ReplicaId) -> Option<&CompletionLog> {
        self.rep(replica).map(|r| &r.completions)
    }

    /// Threads currently held across ready replicas of `service` (the
    /// paper's "Running Threads" panel).
    pub fn running_threads(&self, service: ServiceId) -> usize {
        self.ready_replicas_iter(service)
            .map(|id| self.rep(id).expect("ready replica").threads.active)
            .sum()
    }

    /// Requests queued for a thread across ready replicas.
    pub fn queued_requests(&self, service: ServiceId) -> usize {
        self.ready_replicas_iter(service)
            .map(|id| self.rep(id).expect("ready replica").threads.queue.len())
            .sum()
    }

    /// Connections in use from `service` toward `target`, across ready
    /// replicas.
    pub fn conns_in_use(&self, service: ServiceId, target: ServiceId) -> usize {
        self.ready_replicas_iter(service)
            .filter_map(|id| self.rep(id).expect("ready replica").conns.get(&target))
            .map(|p| p.in_use)
            .sum()
    }

    /// Calls from `service` queued waiting for a connection toward
    /// `target`, across ready replicas (a saturation signal for the
    /// exploration logic).
    pub fn conn_waiting(&self, service: ServiceId, target: ServiceId) -> usize {
        self.ready_replicas_iter(service)
            .filter_map(|id| self.rep(id).expect("ready replica").conns.get(&target))
            .map(|p| p.waiters.len())
            .sum()
    }

    /// Total configured (established) connections from `service` toward
    /// `target` across ready replicas — pool size × replica count, the
    /// paper's "Established DB Conn" panel.
    pub fn conns_established(&self, service: ServiceId, target: ServiceId) -> usize {
        self.ready_replicas_iter(service)
            .filter_map(|id| self.rep(id).expect("ready replica").conns.get(&target))
            .map(|p| p.limit)
            .sum()
    }

    /// The current per-replica thread limit of `service`.
    pub fn thread_limit(&self, service: ServiceId) -> usize {
        self.services[service.get() as usize].thread_limit
    }

    /// The current per-replica connection limit from `service` to `target`.
    pub fn conn_limit(&self, service: ServiceId, target: ServiceId) -> Option<usize> {
        self.services[service.get() as usize]
            .conn_limits
            .get(&target)
            .copied()
    }

    /// The current per-replica CPU limit of `service`.
    pub fn cpu_limit(&self, service: ServiceId) -> Millicores {
        self.services[service.get() as usize].cpu_limit
    }

    /// Cumulative CPU busy core-seconds of `service` across all its
    /// replicas (past and present), advanced to the current instant.
    /// Utilisation consumers (HPA, FIRM, the timeline sampler) each keep
    /// their own previous reading and divide the delta by elapsed capacity
    /// — see `sora_core::UtilizationProbe` — so concurrent monitors never
    /// corrupt each other's view.
    pub fn cpu_busy_core_secs(&mut self, service: ServiceId) -> f64 {
        let now = self.now();
        let svc = service.get() as usize;
        let mut total = self.services[svc].retired_busy_nanos;
        for i in 0..self.services[svc].replicas.len() {
            let id = self.services[svc].replicas[i];
            if let Some(r) = self.rep_mut(id) {
                r.cpu.advance(now);
                total += r.cpu.busy_core_nanos();
            }
        }
        total / 1e9
    }

    /// Aggregate CPU capacity of `service` in cores (ready replicas ×
    /// per-replica limit).
    pub fn cpu_capacity_cores(&self, service: ServiceId) -> f64 {
        self.ready_replicas_iter(service).count() as f64 * self.cpu_limit(service).as_cores_f64()
    }

    /// The name of `service` (for reports).
    pub fn service_name(&self, service: ServiceId) -> &str {
        &self.services[service.get() as usize].spec.name
    }

    /// The number of registered services.
    pub fn service_count(&self) -> usize {
        self.services.len()
    }
}

// ------------------------------------------------------------------
// Conservation-law auditing (compiled only with `--features audit`)
// ------------------------------------------------------------------
#[cfg(feature = "audit")]
use sim_core::audit::AuditSink as _;

#[cfg(feature = "audit")]
impl World {
    /// Violations observed so far. Empty on a correct simulator; harnesses
    /// assert `world.audit().total() == 0` at the end of audited runs.
    pub fn audit(&self) -> &sim_core::audit::CountingSink {
        &self.audit_sink
    }

    /// Before each event: dispatch order must never move backwards in time.
    /// `EventQueue` enforces this with its own assertions, so this check
    /// firing means the queue invariant itself was broken.
    fn audit_pre_event(&mut self, now: SimTime) {
        if now < self.audit_last_event {
            self.audit_sink.record(sim_core::audit::Violation {
                invariant: sim_core::audit::Invariant::EventMonotonicity,
                at_nanos: now.as_nanos(),
                detail: format!(
                    "event at {} ns dispatched after event at {} ns",
                    now.as_nanos(),
                    self.audit_last_event.as_nanos()
                ),
            });
        }
        self.audit_last_event = now;
    }

    /// After each event: request conservation. Every injected request is
    /// exactly one of completed (client log), dropped (with a reason), or
    /// still in flight — checked after every single event dispatch, so a
    /// leak is caught at the event that caused it.
    fn audit_post_event(&mut self, now: SimTime) {
        let injected = self.next_request;
        let accounted = self.client.total() + self.dropped + self.requests.len() as u64;
        if injected != accounted {
            self.audit_sink.record(sim_core::audit::Violation {
                invariant: sim_core::audit::Invariant::RequestConservation,
                at_nanos: now.as_nanos(),
                detail: format!(
                    "injected {} != completed {} + dropped {} + in-flight {}",
                    injected,
                    self.client.total(),
                    self.dropped,
                    self.requests.len()
                ),
            });
        }
        debug_assert_eq!(
            self.dropped,
            self.drop_breakdown.total(),
            "drop breakdown out of sync with total"
        );
    }

    /// At `run_until` boundaries: per-replica CPU-time conservation and
    /// the warehouse's stored-trace idempotence. These are O(replicas +
    /// retained traces) — far too costly per event, and closed-loop
    /// drivers call `run_until` many times per simulated second — so the
    /// sweep is throttled to at most once per simulated second (plus the
    /// very first boundary). A CPU integral that drifts stays drifted, and
    /// a duplicate stored trace persists until it leaves the retention
    /// horizon (180 s), so a 1 s audit grid cannot miss either.
    fn audit_run_boundary(&mut self) {
        let now = self.clock;
        if now < self.audit_next_boundary {
            return;
        }
        self.audit_next_boundary = now + sim_core::SimDuration::from_secs(1);
        for (_, r) in self.replicas.iter() {
            r.cpu.audit_into(now, &mut self.audit_sink);
        }
        self.warehouse.audit_into(now, &mut self.audit_sink);
    }
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now())
            .field("services", &self.services.len())
            .field("replicas", &self.replicas.len())
            .field("in_flight", &self.in_flight())
            .field("completed", &self.client().total())
            .field("dropped", &self.dropped())
            .finish()
    }
}
