//! Simulated network substrate between services (madsim-style seams).
//!
//! The microsimulator's child calls were originally *function edges*: a
//! constant `net_delay` sampled from the world RNG, never lost, never
//! queued, never partitioned. This crate supplies the first-class
//! message-passing transport that replaces them when installed:
//!
//! * **per-edge latency distributions** ([`EdgeParams::latency`]), sampled
//!   from a dedicated split-RNG stream so installing a network cannot
//!   perturb service-demand sampling;
//! * **message loss** ([`EdgeParams::loss`]) and, for telemetry traffic,
//!   **duplicate delivery** ([`EdgeParams::duplicate`]) — the retransmit
//!   echo that exercises warehouse idempotence;
//! * **bandwidth and queueing** ([`EdgeParams::serialize`]): each directed
//!   edge with a serialization cost is a FIFO link; messages queue behind
//!   the previous departure and are dropped once the queueing delay exceeds
//!   [`EdgeParams::max_queue_delay`] (bounded link capacity — the
//!   retry-storm saturation regime);
//! * **per-call timeouts** ([`EdgeParams::call_timeout`]) with a bounded
//!   resend budget ([`EdgeParams::max_call_retries`]), driven by the world;
//! * **partition/heal windows** and **slow-link windows**
//!   ([`Network::partition`], [`Network::slow_link`]), driven through the
//!   fault-schedule event machinery.
//!
//! # Determinism contract
//!
//! All stochastic choices draw from the [`Network`]'s own RNG (the world
//! splits `"network"` off its root seed), in a fixed order per send: loss
//! first, then latency, then (telemetry only) duplication. A *transparent*
//! edge — constant-zero latency, zero loss, zero duplication, no
//! serialization — draws **nothing** ([`Dist::Constant`] consumes no RNG
//! words), so a fully transparent network is byte-identical to the
//! function-edge engine it replaces; the engine is kept in-tree as the
//! equivalence oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::Serialize;
use sim_core::{Dist, SimDuration, SimRng, SimTime};
use std::collections::BTreeMap;
use telemetry::ServiceId;

/// One side of a network edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Endpoint {
    /// The user-facing client (issues requests, receives responses).
    Client,
    /// A simulated service.
    Service(ServiceId),
    /// The monitoring plane (receives telemetry reports).
    Monitor,
}

impl Endpoint {
    /// Stable key for link bookkeeping.
    fn code(self) -> u64 {
        match self {
            Endpoint::Client => u64::MAX,
            Endpoint::Monitor => u64::MAX - 1,
            Endpoint::Service(s) => u64::from(s.0),
        }
    }
}

/// Transmission parameters of one directed edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeParams {
    /// One-way propagation latency distribution.
    pub latency: Dist,
    /// Per-message drop probability in `[0, 1)`.
    pub loss: f64,
    /// Per-message duplicate-delivery probability in `[0, 1)`. Only
    /// consulted for telemetry reports ([`Network::send_dup`]): RPC and
    /// completion-sample streams are modeled exactly-once-or-lost, while
    /// trace retransmits exercise warehouse idempotence.
    pub duplicate: f64,
    /// Per-message serialization time (inverse bandwidth). `Some` makes the
    /// directed edge a FIFO link: messages depart one serialization interval
    /// apart and queue behind each other.
    pub serialize: Option<SimDuration>,
    /// Bound on link queueing delay. A message that would wait longer is
    /// dropped as [`LossCause::Saturated`]. Only meaningful with
    /// [`EdgeParams::serialize`].
    pub max_queue_delay: Option<SimDuration>,
    /// Caller-side timeout per inter-service call. When it fires before the
    /// response arrives, the world resends the call (a fresh message, and a
    /// fresh execution at the target) up to
    /// [`EdgeParams::max_call_retries`] times.
    pub call_timeout: Option<SimDuration>,
    /// Resend budget after [`EdgeParams::call_timeout`] expiries; once
    /// exhausted the whole request is dropped as a network timeout.
    pub max_call_retries: u32,
}

impl Default for EdgeParams {
    /// The transparent edge: zero constant latency, no loss, no
    /// duplication, no serialization, no timeout. Sends over it draw no
    /// randomness and deliver at the send instant.
    fn default() -> Self {
        EdgeParams {
            latency: Dist::constant_us(0),
            loss: 0.0,
            duplicate: 0.0,
            serialize: None,
            max_queue_delay: None,
            call_timeout: None,
            max_call_retries: 0,
        }
    }
}

impl EdgeParams {
    /// A lossless edge with the given constant one-way latency.
    pub fn constant(latency: SimDuration) -> Self {
        EdgeParams {
            latency: Dist::Constant {
                nanos: latency.as_nanos(),
            },
            ..Default::default()
        }
    }

    /// Sets the latency distribution.
    pub fn latency(mut self, latency: Dist) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the per-message loss probability.
    ///
    /// # Panics
    ///
    /// Panics unless `loss` is in `[0, 1)`.
    pub fn loss(mut self, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0, 1)");
        self.loss = loss;
        self
    }

    /// Sets the per-message duplicate-delivery probability.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1)`.
    pub fn duplicate(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "duplicate must be in [0, 1)");
        self.duplicate = p;
        self
    }

    /// Makes the edge a FIFO link: `serialize` per message, dropping
    /// messages that would queue longer than `max_queue_delay`.
    pub fn bandwidth(mut self, serialize: SimDuration, max_queue_delay: SimDuration) -> Self {
        self.serialize = Some(serialize);
        self.max_queue_delay = Some(max_queue_delay);
        self
    }

    /// Sets the per-call timeout and resend budget.
    pub fn timeout(mut self, after: SimDuration, retries: u32) -> Self {
        self.call_timeout = Some(after);
        self.max_call_retries = retries;
        self
    }

    /// True when sends over this edge draw no randomness and deliver at the
    /// send instant — the byte-identity precondition vs the function-edge
    /// oracle.
    pub fn is_transparent(&self) -> bool {
        matches!(self.latency, Dist::Constant { nanos: 0 })
            && self.loss == 0.0
            && self.duplicate == 0.0
            && self.serialize.is_none()
    }
}

/// Edge parameters for every pair of endpoints in a world.
#[derive(Debug, Clone, Default)]
pub struct NetworkConfig {
    /// Parameters of service → service edges without an override.
    pub default_edge: EdgeParams,
    /// Parameters of the client ↔ entry-service edge. Loss applies to the
    /// ingress direction only (a failed connect); responses are delayed but
    /// never lost, modeling an established TCP connection.
    pub client_edge: EdgeParams,
    /// Parameters of the service → monitoring-plane edge that telemetry
    /// reports ride.
    pub telemetry_edge: EdgeParams,
    /// Directed service-pair overrides.
    overrides: BTreeMap<(ServiceId, ServiceId), EdgeParams>,
}

impl NetworkConfig {
    /// The fully transparent network: every edge is the [`EdgeParams`]
    /// default. Installing it reproduces the function-edge engine with
    /// zero `net_delay`, byte for byte.
    pub fn transparent() -> Self {
        NetworkConfig::default()
    }

    /// Constant `latency` on every client and service edge (telemetry stays
    /// transparent) — byte-identical to the function-edge engine with
    /// `WorldConfig::net_delay == Dist::Constant(latency)`.
    pub fn constant_latency(latency: SimDuration) -> Self {
        NetworkConfig {
            default_edge: EdgeParams::constant(latency),
            client_edge: EdgeParams::constant(latency),
            ..Default::default()
        }
    }

    /// Sets the default service-edge parameters.
    pub fn default_edge(mut self, edge: EdgeParams) -> Self {
        self.default_edge = edge;
        self
    }

    /// Sets the client-edge parameters.
    pub fn client_edge(mut self, edge: EdgeParams) -> Self {
        self.client_edge = edge;
        self
    }

    /// Sets the telemetry-edge parameters.
    pub fn telemetry_edge(mut self, edge: EdgeParams) -> Self {
        self.telemetry_edge = edge;
        self
    }

    /// Overrides the directed `from → to` service edge.
    pub fn edge(mut self, from: ServiceId, to: ServiceId, params: EdgeParams) -> Self {
        self.overrides.insert((from, to), params);
        self
    }

    /// Overrides both directions between `a` and `b`.
    pub fn link(self, a: ServiceId, b: ServiceId, params: EdgeParams) -> Self {
        self.edge(a, b, params).edge(b, a, params)
    }

    /// Resolves the parameters governing a `from → to` send.
    pub fn params(&self, from: Endpoint, to: Endpoint) -> &EdgeParams {
        match (from, to) {
            (Endpoint::Service(a), Endpoint::Service(b)) => {
                self.overrides.get(&(a, b)).unwrap_or(&self.default_edge)
            }
            (_, Endpoint::Monitor) | (Endpoint::Monitor, _) => &self.telemetry_edge,
            _ => &self.client_edge,
        }
    }

    /// True when the telemetry edge delivers synchronously and losslessly —
    /// the world then ingests telemetry inline, exactly like the
    /// function-edge engine.
    pub fn telemetry_is_transparent(&self) -> bool {
        self.telemetry_edge.is_transparent()
    }

    /// The conservative cross-shard lookahead this network admits: the
    /// minimum over every message-carrying edge (client, default, and all
    /// overrides) of the latency distribution's lower bound.
    ///
    /// No message sent by one service can reach another sooner, so this is
    /// the window width of a sharded world's tally
    /// (`World::enable_sharding`). Zero (e.g. an exponential-latency edge,
    /// or a transparent network) means the topology admits no lookahead,
    /// and sharding is rejected.
    pub fn lookahead(&self) -> SimDuration {
        let mut min = self
            .client_edge
            .latency
            .lower_bound()
            .min(self.default_edge.latency.lower_bound());
        for params in self.overrides.values() {
            min = min.min(params.latency.lower_bound());
        }
        min
    }
}

/// Why the network dropped a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LossCause {
    /// Random per-message loss.
    Random,
    /// The directed edge is inside a partition window.
    Partitioned,
    /// The link's bounded queue overflowed.
    Saturated,
}

/// The outcome of handing one message to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// The message arrives at `at`; `duplicate` carries the delivery time
    /// of a retransmit echo, when one was sampled.
    Deliver {
        /// Delivery instant.
        at: SimTime,
        /// Delivery instant of the duplicate copy, if any.
        duplicate: Option<SimTime>,
    },
    /// The message vanished.
    Lost(LossCause),
}

/// Cumulative transport counters, serialized into bench reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct NetStats {
    /// Messages handed to the network (all kinds, including lost ones).
    pub messages: u64,
    /// Messages dropped by random loss.
    pub lost_random: u64,
    /// Messages dropped inside a partition window.
    pub lost_partitioned: u64,
    /// Messages dropped by link-queue overflow.
    pub lost_saturated: u64,
    /// Duplicate copies delivered (telemetry retransmit echoes).
    pub duplicated: u64,
    /// Inter-service calls resent after a per-call timeout.
    pub call_retries: u64,
    /// Child executions orphaned by a resend racing the original (the
    /// request finalized while a duplicate execution was still running).
    pub orphaned_frames: u64,
}

impl NetStats {
    /// Total messages the network dropped, across causes.
    pub fn lost_total(&self) -> u64 {
        self.lost_random + self.lost_partitioned + self.lost_saturated
    }
}

/// The runtime transport state threaded through a world.
#[derive(Debug, Clone)]
pub struct Network {
    config: NetworkConfig,
    rng: SimRng,
    /// Next-free instant per directed link with a serialization cost.
    links: BTreeMap<(u64, u64), SimTime>,
    /// Active partition windows per directed service pair (reference
    /// counted: overlapping windows heal only when the last one ends).
    partitions: BTreeMap<(ServiceId, ServiceId), u32>,
    /// Active slow-link factors per directed service pair (stacked
    /// multiplicatively across overlapping windows).
    slow: BTreeMap<(ServiceId, ServiceId), Vec<f64>>,
    stats: NetStats,
}

impl Network {
    /// Creates a network from its config and a dedicated RNG stream.
    pub fn new(config: NetworkConfig, rng: SimRng) -> Self {
        Network {
            config,
            rng,
            links: BTreeMap::new(),
            partitions: BTreeMap::new(),
            slow: BTreeMap::new(),
            stats: NetStats::default(),
        }
    }

    /// The installed edge parameters.
    pub fn config(&self) -> &NetworkConfig {
        &self.config
    }

    /// Transport counters so far.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Records one call resend (the world drives resends; the network only
    /// counts them).
    pub fn note_call_retry(&mut self) {
        self.stats.call_retries += 1;
    }

    /// Records one orphaned child execution.
    pub fn note_orphan(&mut self) {
        self.stats.orphaned_frames += 1;
    }

    /// Opens a partition window between `a` and `b` (both directions).
    /// Messages already in flight are unaffected; new sends on the pair are
    /// dropped until [`Network::heal`].
    pub fn partition(&mut self, a: ServiceId, b: ServiceId) {
        *self.partitions.entry((a, b)).or_insert(0) += 1;
        *self.partitions.entry((b, a)).or_insert(0) += 1;
    }

    /// Closes one partition window between `a` and `b`.
    pub fn heal(&mut self, a: ServiceId, b: ServiceId) {
        for key in [(a, b), (b, a)] {
            if let Some(n) = self.partitions.get_mut(&key) {
                *n -= 1;
                if *n == 0 {
                    self.partitions.remove(&key);
                }
            }
        }
    }

    /// True when `from → to` is currently partitioned.
    pub fn is_partitioned(&self, from: ServiceId, to: ServiceId) -> bool {
        self.partitions.contains_key(&(from, to))
    }

    /// Opens a slow-link window between `a` and `b` (both directions):
    /// sampled latencies on the pair are multiplied by `factor` until
    /// [`Network::heal_slow_link`] removes it. Overlapping windows stack
    /// multiplicatively.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite.
    pub fn slow_link(&mut self, a: ServiceId, b: ServiceId, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "slow-link factor must be positive and finite"
        );
        self.slow.entry((a, b)).or_default().push(factor);
        self.slow.entry((b, a)).or_default().push(factor);
    }

    /// Closes one slow-link window carrying `factor` between `a` and `b`.
    pub fn heal_slow_link(&mut self, a: ServiceId, b: ServiceId, factor: f64) {
        for key in [(a, b), (b, a)] {
            if let Some(fs) = self.slow.get_mut(&key) {
                if let Some(i) = fs.iter().position(|&f| f == factor) {
                    fs.remove(i);
                }
                if fs.is_empty() {
                    self.slow.remove(&key);
                }
            }
        }
    }

    /// Applies a slow-link factor, bypassing the float round-trip entirely
    /// at the (common) factor of exactly 1.0 so unaffected edges keep
    /// integer-exact latencies.
    fn scaled(latency: SimDuration, factor: f64) -> SimDuration {
        if factor == 1.0 {
            latency
        } else {
            latency.mul_f64(factor)
        }
    }

    fn slow_factor(&self, from: Endpoint, to: Endpoint) -> f64 {
        match (from, to) {
            (Endpoint::Service(a), Endpoint::Service(b)) => {
                self.slow.get(&(a, b)).map_or(1.0, |fs| fs.iter().product())
            }
            _ => 1.0,
        }
    }

    /// Hands one message to the network (exactly-once-or-lost: no
    /// duplication). RPC requests, responses and completion samples ride
    /// this path.
    pub fn send(&mut self, now: SimTime, from: Endpoint, to: Endpoint) -> SendOutcome {
        self.transmit(now, from, to, false)
    }

    /// Like [`Network::send`] but may additionally deliver a duplicate copy
    /// per [`EdgeParams::duplicate`] — the path telemetry trace reports
    /// ride, exercising warehouse idempotence.
    pub fn send_dup(&mut self, now: SimTime, from: Endpoint, to: Endpoint) -> SendOutcome {
        self.transmit(now, from, to, true)
    }

    fn transmit(&mut self, now: SimTime, from: Endpoint, to: Endpoint, dup: bool) -> SendOutcome {
        self.stats.messages += 1;
        if let (Endpoint::Service(a), Endpoint::Service(b)) = (from, to) {
            if self.is_partitioned(a, b) {
                self.stats.lost_partitioned += 1;
                return SendOutcome::Lost(LossCause::Partitioned);
            }
        }
        let edge = *self.config.params(from, to);
        if edge.loss > 0.0 && self.rng.chance(edge.loss) {
            self.stats.lost_random += 1;
            return SendOutcome::Lost(LossCause::Random);
        }
        // Serialization onto a bounded FIFO link, if configured.
        let mut depart = now;
        if let Some(ser) = edge.serialize {
            let key = (from.code(), to.code());
            let free = self.links.get(&key).copied().unwrap_or(SimTime::ZERO);
            let start = free.max(now);
            if let Some(bound) = edge.max_queue_delay {
                if start - now > bound {
                    self.stats.lost_saturated += 1;
                    return SendOutcome::Lost(LossCause::Saturated);
                }
            }
            depart = start + ser;
            self.links.insert(key, depart);
        }
        let factor = self.slow_factor(from, to);
        let at = depart + Self::scaled(edge.latency.sample(&mut self.rng), factor);
        let duplicate = if dup && edge.duplicate > 0.0 && self.rng.chance(edge.duplicate) {
            self.stats.duplicated += 1;
            Some(depart + Self::scaled(edge.latency.sample(&mut self.rng), factor))
        } else {
            None
        };
        SendOutcome::Deliver { at, duplicate }
    }

    /// Delivery instant of a response on the client edge: latency applies
    /// (including queueing if configured) but the message is never lost —
    /// the response rides the established connection.
    pub fn deliver_response(&mut self, now: SimTime, from: Endpoint) -> SimTime {
        self.stats.messages += 1;
        let edge = *self.config.params(from, Endpoint::Client);
        now + edge.latency.sample(&mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn svc(n: u32) -> ServiceId {
        ServiceId(n)
    }

    fn net(config: NetworkConfig) -> Network {
        Network::new(config, SimRng::seed_from(7))
    }

    #[test]
    fn transparent_network_delivers_instantly_without_draws() {
        let mut n = net(NetworkConfig::transparent());
        let before = n.rng.clone();
        let t = SimTime::from_millis(5);
        for _ in 0..100 {
            let out = n.send(t, Endpoint::Service(svc(0)), Endpoint::Service(svc(1)));
            assert_eq!(
                out,
                SendOutcome::Deliver {
                    at: t,
                    duplicate: None
                }
            );
        }
        assert_eq!(n.deliver_response(t, Endpoint::Service(svc(0))), t);
        // No randomness consumed: the stream is exactly where it started.
        let mut a = before;
        let mut b = n.rng.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn lookahead_is_min_over_message_edges() {
        // Transparent: every edge is zero-latency → no lookahead.
        assert_eq!(NetworkConfig::transparent().lookahead(), SimDuration::ZERO);
        // Constant latency everywhere → that latency.
        let d = SimDuration::from_micros(200);
        assert_eq!(NetworkConfig::constant_latency(d).lookahead(), d);
        // An override with a smaller lower bound wins.
        let cfg = NetworkConfig::constant_latency(d).edge(
            svc(3),
            svc(4),
            EdgeParams::constant(SimDuration::from_micros(50)),
        );
        assert_eq!(cfg.lookahead(), SimDuration::from_micros(50));
        // Unbounded-below edge latency (exponential) kills all lookahead.
        let cfg = NetworkConfig::constant_latency(d).edge(
            svc(1),
            svc(2),
            EdgeParams::default().latency(Dist::exponential_ms(1.0)),
        );
        assert_eq!(cfg.lookahead(), SimDuration::ZERO);
        // The telemetry edge does not constrain lookahead: reports go to
        // the monitor, not to another service.
        let cfg = NetworkConfig::constant_latency(d)
            .telemetry_edge(EdgeParams::default().latency(Dist::exponential_ms(1.0)));
        assert_eq!(cfg.lookahead(), d);
    }

    #[test]
    fn constant_latency_shifts_delivery() {
        let d = SimDuration::from_millis(3);
        let mut n = net(NetworkConfig::constant_latency(d));
        let t = SimTime::from_secs(1);
        match n.send(t, Endpoint::Client, Endpoint::Service(svc(0))) {
            SendOutcome::Deliver { at, duplicate } => {
                assert_eq!(at, t + d);
                assert_eq!(duplicate, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn partition_drops_and_heals() {
        let mut n = net(NetworkConfig::transparent());
        n.partition(svc(1), svc(2));
        let t = SimTime::ZERO;
        assert_eq!(
            n.send(t, Endpoint::Service(svc(1)), Endpoint::Service(svc(2))),
            SendOutcome::Lost(LossCause::Partitioned)
        );
        assert_eq!(
            n.send(t, Endpoint::Service(svc(2)), Endpoint::Service(svc(1))),
            SendOutcome::Lost(LossCause::Partitioned)
        );
        // An unrelated pair is unaffected.
        assert!(matches!(
            n.send(t, Endpoint::Service(svc(1)), Endpoint::Service(svc(3))),
            SendOutcome::Deliver { .. }
        ));
        // Overlapping windows heal only when the last one closes.
        n.partition(svc(1), svc(2));
        n.heal(svc(1), svc(2));
        assert!(n.is_partitioned(svc(1), svc(2)));
        n.heal(svc(1), svc(2));
        assert!(!n.is_partitioned(svc(1), svc(2)));
        assert_eq!(n.stats().lost_partitioned, 2);
    }

    #[test]
    fn slow_link_scales_latency_and_stacks() {
        let d = SimDuration::from_millis(10);
        let mut n = net(NetworkConfig::constant_latency(d));
        n.slow_link(svc(0), svc(1), 3.0);
        n.slow_link(svc(0), svc(1), 2.0);
        let t = SimTime::ZERO;
        match n.send(t, Endpoint::Service(svc(0)), Endpoint::Service(svc(1))) {
            SendOutcome::Deliver { at, .. } => assert_eq!(at, t + d.mul_f64(6.0)),
            other => panic!("unexpected {other:?}"),
        }
        n.heal_slow_link(svc(0), svc(1), 3.0);
        match n.send(t, Endpoint::Service(svc(1)), Endpoint::Service(svc(0))) {
            SendOutcome::Deliver { at, .. } => assert_eq!(at, t + d.mul_f64(2.0)),
            other => panic!("unexpected {other:?}"),
        }
        n.heal_slow_link(svc(0), svc(1), 2.0);
        match n.send(t, Endpoint::Service(svc(0)), Endpoint::Service(svc(1))) {
            SendOutcome::Deliver { at, .. } => assert_eq!(at, t + d),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bounded_link_queues_then_saturates() {
        let ser = SimDuration::from_millis(1);
        let cfg = NetworkConfig::transparent()
            .default_edge(EdgeParams::default().bandwidth(ser, SimDuration::from_millis(2)));
        let mut n = net(cfg);
        let t = SimTime::ZERO;
        let (a, b) = (Endpoint::Service(svc(0)), Endpoint::Service(svc(1)));
        // Four back-to-back messages: 1 ms apart; the fourth would queue
        // 3 ms > the 2 ms bound and is dropped.
        let mut ats = Vec::new();
        for _ in 0..4 {
            match n.send(t, a, b) {
                SendOutcome::Deliver { at, .. } => ats.push(at.as_millis()),
                SendOutcome::Lost(cause) => {
                    assert_eq!(cause, LossCause::Saturated);
                    ats.push(u64::MAX);
                }
            }
        }
        assert_eq!(ats, vec![1, 2, 3, u64::MAX]);
        assert_eq!(n.stats().lost_saturated, 1);
        // The reverse direction is a separate link.
        assert!(matches!(n.send(t, b, a), SendOutcome::Deliver { .. }));
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let cfg = NetworkConfig::transparent().default_edge(EdgeParams::default().loss(0.5));
        let runs: Vec<Vec<bool>> = (0..2)
            .map(|_| {
                let mut n = net(cfg.clone());
                (0..64)
                    .map(|_| {
                        matches!(
                            n.send(
                                SimTime::ZERO,
                                Endpoint::Service(svc(0)),
                                Endpoint::Service(svc(1))
                            ),
                            SendOutcome::Deliver { .. }
                        )
                    })
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].iter().any(|&d| d) && runs[0].iter().any(|&d| !d));
    }

    #[test]
    fn duplicates_only_on_the_dup_path() {
        let cfg =
            NetworkConfig::transparent().telemetry_edge(EdgeParams::default().duplicate(0.999_999));
        let mut n = net(cfg);
        let from = Endpoint::Service(svc(0));
        match n.send_dup(SimTime::ZERO, from, Endpoint::Monitor) {
            SendOutcome::Deliver { duplicate, .. } => {
                assert!(duplicate.is_some(), "dup path must duplicate")
            }
            other => panic!("unexpected {other:?}"),
        }
        match n.send(SimTime::ZERO, from, Endpoint::Monitor) {
            SendOutcome::Deliver { duplicate, .. } => {
                assert!(duplicate.is_none(), "send path never duplicates")
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn transparency_predicate() {
        assert!(EdgeParams::default().is_transparent());
        assert!(!EdgeParams::constant(SimDuration::from_nanos(1)).is_transparent());
        assert!(!EdgeParams::default().loss(0.1).is_transparent());
        assert!(NetworkConfig::transparent().telemetry_is_transparent());
    }
}
