//! Static configuration: service specs, request behaviours, world options.

use cluster::Millicores;
use serde::{Deserialize, Serialize};
use sim_core::{Dist, SimDuration};
use std::collections::BTreeMap;
use telemetry::{RequestTypeId, ServiceId};

/// One step of a service's execution profile for a request type.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stage {
    /// Burn CPU: the demand (single-core CPU time) is drawn from `demand`.
    Compute {
        /// The CPU-demand distribution.
        demand: Dist,
    },
    /// Call downstream services in parallel and wait for all responses.
    /// The calling thread is held (synchronous RPC), and each call consumes
    /// one connection from this service's pool toward the target.
    Call {
        /// Services invoked concurrently by this stage.
        targets: Vec<ServiceId>,
    },
}

impl Stage {
    /// A compute stage with constant demand in milliseconds.
    pub fn compute_ms(ms: u64) -> Stage {
        Stage::Compute {
            demand: Dist::constant_ms(ms),
        }
    }

    /// A compute stage with the given demand distribution.
    pub fn compute(demand: Dist) -> Stage {
        Stage::Compute { demand }
    }

    /// A sequential call to one downstream service.
    pub fn call(target: ServiceId) -> Stage {
        Stage::Call {
            targets: vec![target],
        }
    }

    /// A parallel fan-out call.
    pub fn fanout(targets: Vec<ServiceId>) -> Stage {
        Stage::Call { targets }
    }
}

/// A service's execution profile for one request type: an ordered list of
/// stages. Compute before a `Call` is the paper's request-side processing
/// (`PT_req`), compute after it is response-side processing (`PT_res`).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Behavior {
    /// The stages, executed in order.
    pub stages: Vec<Stage>,
}

impl Behavior {
    /// A behaviour from stages.
    pub fn new(stages: Vec<Stage>) -> Self {
        Behavior { stages }
    }

    /// A leaf behaviour: a single compute stage.
    pub fn leaf(demand: Dist) -> Self {
        Behavior {
            stages: vec![Stage::Compute { demand }],
        }
    }

    /// `compute(req) → call(target) → compute(res)`, the classic middle-tier
    /// shape.
    pub fn tier(req: Dist, target: ServiceId, res: Dist) -> Self {
        Behavior {
            stages: vec![
                Stage::Compute { demand: req },
                Stage::call(target),
                Stage::Compute { demand: res },
            ],
        }
    }
}

/// Load-balancing policy used to pick a replica for an incoming call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LbPolicy {
    /// Cycle through ready replicas (kube-proxy-ish default).
    #[default]
    RoundRobin,
    /// Uniformly random ready replica.
    Random,
    /// Power-of-two-choices: sample two ready replicas and pick the one
    /// with fewer requests in service + queued (the classic load-aware
    /// policy; plain least-of-all degenerates to a deterministic favourite
    /// under light load).
    LeastOutstanding,
}

/// Static definition of one microservice.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Human-readable name (e.g. `"cart"`).
    pub name: String,
    /// Per-replica CPU limit at creation.
    pub cpu_limit: Millicores,
    /// Per-replica thread-pool size: max requests concurrently in service.
    pub thread_limit: usize,
    /// Context-switch penalty κ for this service's pods.
    pub csw_overhead: f64,
    /// Per-replica connection-pool limits toward downstream services.
    /// Calls to a service absent from this map are unlimited (modelling
    /// services that open ad-hoc connections).
    pub conn_limits: BTreeMap<ServiceId, usize>,
    /// Execution profile per request type. A request type arriving at a
    /// service with no behaviour entry is a configuration bug (panics at
    /// runtime with a clear message).
    pub behaviors: BTreeMap<RequestTypeId, Behavior>,
    /// Load-balancing policy for calls *to* this service.
    pub lb: LbPolicy,
}

impl ServiceSpec {
    /// A spec with the given name and sensible defaults: 1-core limit,
    /// 16 threads, κ = 0.03, no connection limits.
    pub fn new(name: impl Into<String>) -> Self {
        ServiceSpec {
            name: name.into(),
            cpu_limit: Millicores::from_cores(1),
            thread_limit: 16,
            csw_overhead: 0.03,
            conn_limits: BTreeMap::new(),
            behaviors: BTreeMap::new(),
            lb: LbPolicy::default(),
        }
    }

    /// Sets the CPU limit.
    pub fn cpu(mut self, limit: Millicores) -> Self {
        self.cpu_limit = limit;
        self
    }

    /// Sets the thread-pool size.
    pub fn threads(mut self, n: usize) -> Self {
        self.thread_limit = n;
        self
    }

    /// Sets the context-switch penalty.
    pub fn csw(mut self, kappa: f64) -> Self {
        self.csw_overhead = kappa;
        self
    }

    /// Sets a connection-pool limit toward `target`.
    pub fn conns(mut self, target: ServiceId, limit: usize) -> Self {
        self.conn_limits.insert(target, limit);
        self
    }

    /// Registers the behaviour for a request type.
    pub fn on(mut self, rtype: RequestTypeId, behavior: Behavior) -> Self {
        self.behaviors.insert(rtype, behavior);
        self
    }

    /// Sets the load-balancing policy.
    pub fn lb(mut self, policy: LbPolicy) -> Self {
        self.lb = policy;
        self
    }
}

/// A request type: a named workload-mix entry with an entry-point service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestTypeSpec {
    /// Human-readable name (e.g. `"GET /catalogue"`).
    pub name: String,
    /// The service where requests of this type arrive.
    pub entry: ServiceId,
    /// Client-side timeout: a request still in flight this long after being
    /// issued is abandoned (every resource it holds is reclaimed and the
    /// client sees an error). `None` waits forever.
    pub timeout: Option<SimDuration>,
}

/// Trace-warehouse retention horizon: three of the controllers' 60 s
/// analysis windows (§4.1; DESIGN §7).
pub(crate) const TRACE_HORIZON: SimDuration = SimDuration::from_secs(180);

/// Retention horizon of the per-replica concurrency and completion
/// samplers: three 60 s scatter windows (§4.1; DESIGN §7).
pub(crate) const METRICS_HORIZON: SimDuration = SimDuration::from_secs(180);

/// Bucket width of the end-to-end client log timeline: the 1 s resolution
/// of the paper's timeline figures (Figs. 10–12).
pub(crate) const CLIENT_BUCKET: SimDuration = SimDuration::from_secs(1);

/// Connection-level retry budget: how many times an inter-service call
/// finding no ready replica is re-attempted (every 10 ms, as a client
/// library would) before the whole request is dropped with
/// [`DropReason::RetriesExhausted`](crate::DropReason::RetriesExhausted).
/// 50 retries wait out 500 ms with no replica ready (DESIGN §7).
pub(crate) const MAX_CONNECT_RETRIES: u32 = 50;

/// World-level options.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Network latency added to every inter-service message (call and
    /// response) and to external arrivals reaching the entry service.
    pub net_delay: Dist,
    /// How long new replicas take from creation to readiness (container
    /// start-up).
    pub replica_startup: Dist,
    /// Warehouse ingest sampling: keep one in `trace_sample_every` traces.
    pub trace_sample_every: u64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            net_delay: Dist::constant_us(200),
            replica_startup: Dist::constant_ms(2_000),
            trace_sample_every: 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let spec = ServiceSpec::new("cart")
            .cpu(Millicores::from_cores(4))
            .threads(30)
            .csw(0.05)
            .conns(ServiceId(2), 10)
            .on(RequestTypeId(0), Behavior::leaf(Dist::constant_ms(4)))
            .lb(LbPolicy::Random);
        assert_eq!(spec.name, "cart");
        assert_eq!(spec.cpu_limit, Millicores::from_cores(4));
        assert_eq!(spec.thread_limit, 30);
        assert_eq!(spec.conn_limits[&ServiceId(2)], 10);
        assert_eq!(spec.behaviors.len(), 1);
        assert_eq!(spec.lb, LbPolicy::Random);
    }

    #[test]
    fn tier_behavior_shape() {
        let b = Behavior::tier(Dist::constant_ms(1), ServiceId(5), Dist::constant_ms(2));
        assert_eq!(b.stages.len(), 3);
        assert!(matches!(b.stages[1], Stage::Call { ref targets } if targets == &[ServiceId(5)]));
    }

    #[test]
    fn default_config_is_sane() {
        let c = WorldConfig::default();
        assert!(c.trace_sample_every >= 1);
    }
}
