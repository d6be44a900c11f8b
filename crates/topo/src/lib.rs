//! Parameterized microservice topology generator.
//!
//! The hand-built `apps` topologies stop at Sock Shop's 12 services —
//! the scale of the paper's evaluation. The ROADMAP north-star is worlds
//! serving millions of users across thousands of services, so this crate
//! grows Sock-Shop/Social-Network-*shaped* call graphs to any size: a
//! layered DAG with edge routers up top, CPU-bound logic tiers in the
//! middle, and database-like leaves at the bottom, wired with the same
//! [`ServiceSpec`]/[`Behavior`]/[`Stage`] vocabulary the hand-built apps
//! use.
//!
//! Generation is **deterministic**: the structure (layer widths, call
//! edges, service-time medians) is drawn from a [`SimRng`] seeded by
//! [`TopoParams::seed`], independent of the world's simulation seed — the
//! same parameters always produce the same world, byte for byte.
//!
//! # Example
//!
//! ```
//! use topo::{build, TopoParams};
//! use microsim::WorldConfig;
//! use sim_core::{SimRng, SimTime};
//!
//! let params = TopoParams::sock_shop_like(50);
//! let mut t = build(&params, WorldConfig::default(), SimRng::seed_from(1));
//! assert_eq!(t.world.service_count(), 50);
//! t.world.inject_at(SimTime::from_millis(1), t.request_types[0]);
//! let done = t.world.run_until(SimTime::from_secs(2));
//! assert_eq!(done.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cluster::Millicores;
use microsim::{Behavior, ServiceSpec, Stage, World, WorldConfig};
use sim_core::{Dist, SimDuration, SimRng};
use telemetry::{RequestTypeId, ServiceId};

/// Knobs of the generated topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopoParams {
    /// Total number of services (≥ `depth`).
    pub services: usize,
    /// Layers in the DAG, including the edge layer and the leaf layer.
    /// Calls only go from layer `l` to layer `l + 1`, so the graph is
    /// acyclic by construction.
    pub depth: usize,
    /// Downstream calls per call stage in middle tiers (the fan-out).
    pub fanout: usize,
    /// Number of request types (each enters at its own edge router,
    /// round-robin across the edge layer).
    pub request_types: usize,
    /// Client-side timeout applied to every request type (`None` waits
    /// forever). Timeouts exercise the late-event path at scale: most
    /// fire after their request already finished.
    pub timeout: Option<SimDuration>,
    /// Structure seed: layer widths, call edges, and service-time medians
    /// derive from this, independent of the simulation seed.
    pub seed: u64,
}

impl TopoParams {
    /// A Sock-Shop-shaped graph: narrow edge, tiered fan-out of 2, three
    /// request mixes — the paper's Fig. 2(i) grown to `services` nodes.
    pub fn sock_shop_like(services: usize) -> TopoParams {
        TopoParams {
            services,
            depth: 5,
            fanout: 2,
            request_types: 3,
            timeout: None,
            seed: 0x50c4,
        }
    }

    /// Spans one request creates: a full `fanout`-ary call tree of the
    /// configured depth, `1 + f + f² + … + f^(depth-1)`.
    pub fn spans_per_request(&self) -> u64 {
        let f = self.fanout as u64;
        (0..self.depth as u32).map(|l| f.pow(l)).sum()
    }
}

/// A generated world plus the handles a driver needs.
pub struct Topology {
    /// The simulated cluster, one ready replica per service.
    pub world: World,
    /// One entry per request type, in id order.
    pub request_types: Vec<RequestTypeId>,
    /// Services per layer, edge first.
    pub layer_sizes: Vec<usize>,
}

impl Topology {
    /// A layer-aware shard plan for this topology — see [`shard_plan`].
    pub fn shard_plan(&self, shards: usize) -> Vec<std::ops::Range<usize>> {
        shard_plan(&self.layer_sizes, shards)
    }
}

/// Splits service ids `0..n` (where `n = layer_sizes.iter().sum()`) into
/// `shards` contiguous, balanced ranges for the shard tally
/// (`World::enable_sharding_with_plan`).
///
/// Because generated call edges only go from layer `l` to layer `l + 1`
/// and service ids are assigned layer by layer, a cut placed *at a layer
/// boundary* severs only the edges crossing that one boundary — any other
/// cut additionally splits intra-layer sibling fan-outs across shards.
/// Each interior cut therefore snaps to the nearest layer boundary when
/// one lies within half an ideal shard width of the balanced cut point,
/// and falls back to the balanced point otherwise (needed when
/// `shards > depth`). Every shard is non-empty and the ranges tile
/// `0..n` in order.
///
/// # Panics
///
/// Panics if `shards == 0` or `shards > n`.
pub fn shard_plan(layer_sizes: &[usize], shards: usize) -> Vec<std::ops::Range<usize>> {
    let n: usize = layer_sizes.iter().sum();
    assert!(shards >= 1, "need at least one shard");
    assert!(shards <= n, "more shards ({shards}) than services ({n})");
    let mut bounds = Vec::with_capacity(layer_sizes.len() + 1);
    bounds.push(0usize);
    for &s in layer_sizes {
        bounds.push(bounds.last().unwrap() + s);
    }
    let mut cuts = Vec::with_capacity(shards + 1);
    cuts.push(0usize);
    for k in 1..shards {
        let ideal = k * n / shards;
        let prev = *cuts.last().unwrap();
        // Leave at least one service for each remaining shard.
        let max_cut = n - (shards - k);
        let snapped = bounds
            .iter()
            .copied()
            .filter(|&b| b > prev && b <= max_cut)
            .min_by_key(|&b| b.abs_diff(ideal))
            // Snap only when the boundary is within half a shard width.
            .filter(|&b| b.abs_diff(ideal) * 2 * shards <= n);
        cuts.push(snapped.unwrap_or_else(|| ideal.clamp(prev + 1, max_cut)));
    }
    cuts.push(n);
    cuts.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Splits `n` services across `depth` layers with geometrically growing
/// widths (1 : 2 : 4 : …), every layer non-empty, summing exactly to `n`.
/// This is the id-assignment rule [`build`] uses, exposed so callers can
/// locate a layer (e.g. the connection-pool tier at `depth - 2`) without
/// building the world.
pub fn layer_widths(n: usize, depth: usize) -> Vec<usize> {
    let weights: Vec<u64> = (0..depth as u32).map(|l| 1u64 << l.min(16)).collect();
    let total: u64 = weights.iter().sum();
    let mut sizes: Vec<usize> = weights
        .iter()
        .map(|&w| (((n as u64) * w / total) as usize).max(1))
        .collect();
    // Absorb rounding drift in the leaf layer (the widest).
    let assigned: usize = sizes.iter().sum();
    let last = depth - 1;
    if assigned < n {
        sizes[last] += n - assigned;
    } else {
        let over = assigned - n;
        assert!(
            sizes[last] > over,
            "services = {n} cannot fill depth = {depth}"
        );
        sizes[last] -= over;
    }
    sizes
}

/// Builds the world: services layer by layer, behaviours for every request
/// type, one ready replica per service.
///
/// # Panics
///
/// Panics if `services < depth`, or `depth < 2`, or `fanout == 0`, or
/// `request_types == 0`.
pub fn build(params: &TopoParams, config: WorldConfig, rng: SimRng) -> Topology {
    assert!(params.depth >= 2, "need at least an edge and a leaf layer");
    assert!(
        params.services >= params.depth,
        "need at least one service per layer"
    );
    assert!(params.fanout >= 1, "fanout must be at least 1");
    assert!(params.request_types >= 1, "need at least one request type");

    let mut structure = SimRng::seed_from(params.seed).split("topo-structure");
    let sizes = layer_widths(params.services, params.depth);

    // Service ids are assigned in declaration order: layer 0 first.
    let mut first_id = vec![0u32; params.depth];
    for l in 1..params.depth {
        first_id[l] = first_id[l - 1] + sizes[l - 1] as u32;
    }
    let id_of = |layer: usize, idx: usize| ServiceId(first_id[layer] + idx as u32);

    let mut world = World::new(config, rng);
    for layer in 0..params.depth {
        let leaf_layer = layer == params.depth - 1;
        let conn_layer = layer == params.depth.saturating_sub(2);
        for idx in 0..sizes[layer] {
            let name = match layer {
                0 => format!("edge-{idx}"),
                l if l == params.depth - 1 => format!("store-{idx}"),
                l => format!("svc{l}-{idx}"),
            };
            let mut spec = match layer {
                // Edge routers: async I/O, CPU-light, huge thread gates.
                0 => ServiceSpec::new(name)
                    .cpu(Millicores::from_cores(4))
                    .threads(256)
                    .csw(0.005),
                // Leaves: database-like, concurrency-sensitive.
                l if l == params.depth - 1 => ServiceSpec::new(name)
                    .cpu(Millicores::from_cores(2))
                    .threads(64)
                    .csw(0.03),
                // Middle tiers: synchronous logic services.
                _ => ServiceSpec::new(name)
                    .cpu(Millicores::from_cores(2))
                    .threads(64)
                    .csw(0.02),
            };
            for r in 0..params.request_types {
                let rtype = RequestTypeId(r as u32);
                let behavior = if leaf_layer {
                    // Leaves burn the heaviest CPU (storage engines).
                    let median = structure.range_f64(0.5, 2.0);
                    Behavior::leaf(Dist::lognormal_ms(median, 0.4))
                } else {
                    // Pick `fanout` distinct downstream targets in the
                    // next layer, per request type, so different mixes
                    // traverse different subgraphs like real apps.
                    let width = sizes[layer + 1];
                    let mut targets: Vec<ServiceId> = Vec::with_capacity(params.fanout);
                    let base = structure.index(width);
                    for k in 0..params.fanout.min(width) {
                        // Base plus a random stride keeps edges spread
                        // without a rejection loop.
                        let step = 1 + structure.index(width.max(2) - 1);
                        let pick = (base + k * step) % width;
                        let target = id_of(layer + 1, pick);
                        if !targets.contains(&target) {
                            targets.push(target);
                        }
                    }
                    let req = structure.range_f64(0.2, 1.0);
                    let res = structure.range_f64(0.1, 0.5);
                    Behavior::new(vec![
                        Stage::compute(Dist::lognormal_ms(req, 0.3)),
                        Stage::fanout(targets),
                        Stage::compute(Dist::lognormal_ms(res, 0.3)),
                    ])
                };
                spec = spec.on(rtype, behavior);
            }
            if conn_layer {
                // The tier in front of the stores holds bounded connection
                // pools toward every leaf it calls — the paper's tunable
                // soft resource, present at every scale.
                let leaf_targets: Vec<ServiceId> = spec
                    .behaviors
                    .values()
                    .flat_map(|b| &b.stages)
                    .filter_map(|s| match s {
                        Stage::Call { targets } => Some(targets.clone()),
                        Stage::Compute { .. } => None,
                    })
                    .flatten()
                    .collect();
                for t in leaf_targets {
                    spec = spec.conns(t, 32);
                }
            }
            let sid = world.add_service(spec);
            debug_assert_eq!(sid, id_of(layer, idx));
        }
    }

    let request_types: Vec<RequestTypeId> = (0..params.request_types)
        .map(|r| {
            let entry = id_of(0, r % sizes[0]);
            world.add_request_type_with_timeout(format!("mix-{r}"), entry, params.timeout)
        })
        .collect();

    for idx in 0..world.service_count() {
        let pod = world
            .add_replica(ServiceId(idx as u32))
            .expect("default node fits the generated topology");
        world.make_ready(pod);
    }

    Topology {
        world,
        request_types,
        layer_sizes: sizes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::SimTime;

    fn quiet() -> WorldConfig {
        WorldConfig {
            net_delay: Dist::constant_us(100),
            replica_startup: Dist::constant_us(0),
            ..WorldConfig::default()
        }
    }

    #[test]
    fn layer_sizes_sum_and_grow() {
        for (n, depth) in [(12, 5), (500, 5), (5_000, 4), (7, 5)] {
            let sizes = layer_widths(n, depth);
            assert_eq!(sizes.len(), depth);
            assert_eq!(sizes.iter().sum::<usize>(), n, "n = {n}");
            assert!(sizes.iter().all(|&s| s >= 1));
        }
        let sizes = layer_widths(500, 5);
        assert!(sizes[0] < *sizes.last().unwrap(), "leaves are the widest");
    }

    #[test]
    fn shard_plan_tiles_balances_and_snaps_to_layers() {
        let sizes = layer_widths(500, 5);
        let mut bounds = vec![0usize];
        for &s in &sizes {
            bounds.push(bounds.last().unwrap() + s);
        }
        for shards in [1, 2, 3, 4, 7, 8, 16] {
            let plan = shard_plan(&sizes, shards);
            assert_eq!(plan.len(), shards);
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan.last().unwrap().end, 500);
            for w in plan.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous tiling");
            }
            for r in &plan {
                assert!(!r.is_empty(), "no empty shard at shards = {shards}");
                // Balanced within one ideal shard width either way.
                assert!(r.len() * shards <= 2 * 500, "shard too fat: {r:?}");
            }
        }
        // With few shards, every interior cut lands on a layer boundary.
        let plan = shard_plan(&sizes, 2);
        assert!(
            bounds.contains(&plan[0].end),
            "cut {} should snap to a layer boundary {bounds:?}",
            plan[0].end
        );
        // Degenerate cases.
        assert_eq!(shard_plan(&sizes, 1), vec![0..500]);
        let singles = shard_plan(&[1, 1, 1], 3);
        assert_eq!(singles, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn build_is_deterministic() {
        let p = TopoParams::sock_shop_like(60);
        let a = build(&p, quiet(), SimRng::seed_from(7));
        let b = build(&p, quiet(), SimRng::seed_from(7));
        assert_eq!(a.layer_sizes, b.layer_sizes);
        for idx in 0..a.world.service_count() {
            let s = ServiceId(idx as u32);
            assert_eq!(a.world.service_name(s), b.world.service_name(s));
            assert_eq!(a.world.thread_limit(s), b.world.thread_limit(s));
        }
        // Same structure AND same simulation: identical completions.
        let mut a = a;
        let mut b = b;
        for t in [1u64, 3, 9] {
            a.world
                .inject_at(SimTime::from_millis(t), a.request_types[0]);
            b.world
                .inject_at(SimTime::from_millis(t), b.request_types[0]);
        }
        let da = a.world.run_until(SimTime::from_secs(5));
        let db = b.world.run_until(SimTime::from_secs(5));
        assert_eq!(da.len(), db.len());
        for (x, y) in da.iter().zip(db.iter()) {
            assert_eq!(x.response_time, y.response_time);
        }
    }

    #[test]
    fn request_traverses_every_layer() {
        let p = TopoParams::sock_shop_like(40);
        let mut t = build(&p, quiet(), SimRng::seed_from(3));
        t.world
            .inject_at(SimTime::from_millis(1), t.request_types[1]);
        let done = t.world.run_until(SimTime::from_secs(5));
        assert_eq!(done.len(), 1);
        let trace = t.world.warehouse().iter().next().unwrap();
        assert_eq!(trace.spans.len() as u64, p.spans_per_request());
        let names: Vec<&str> = trace
            .spans
            .iter()
            .map(|sp| t.world.service_name(sp.service))
            .collect();
        assert!(
            names[0].starts_with("edge-"),
            "entry at the edge: {names:?}"
        );
        assert!(
            names.iter().any(|n| n.starts_with("store-")),
            "reaches the leaves: {names:?}"
        );
    }

    #[test]
    fn five_hundred_services_serve_load() {
        let p = TopoParams::sock_shop_like(500);
        let mut t = build(&p, quiet(), SimRng::seed_from(11));
        assert_eq!(t.world.service_count(), 500);
        for i in 0..50u64 {
            let rt = t.request_types[(i % 3) as usize];
            t.world.inject_at(SimTime::from_millis(1 + i * 7), rt);
        }
        let done = t.world.run_until(SimTime::from_secs(10));
        assert_eq!(done.len(), 50);
        assert_eq!(t.world.dropped(), 0);
    }

    #[test]
    fn timeouts_apply_to_generated_request_types() {
        let p = TopoParams {
            timeout: Some(SimDuration::from_millis(1)),
            ..TopoParams::sock_shop_like(20)
        };
        let mut t = build(&p, quiet(), SimRng::seed_from(2));
        t.world
            .inject_at(SimTime::from_millis(1), t.request_types[0]);
        t.world.run_until(SimTime::from_secs(5));
        // A 1 ms budget cannot cover a multi-layer call tree.
        assert_eq!(t.world.dropped(), 1);
    }
}
