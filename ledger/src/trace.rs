//! The outside-in trace: spans recorded around the public calls the ledger
//! makes into each layer, and the per-layer counters read between them.
//!
//! Nothing here reaches inside a crate. Time spent below `step_until` is
//! "runner" time except for what the wrapped controller measures itself,
//! which is how the controller's share is separated from the engine's.

use crate::Metric;
use microsim::{DropBreakdown, World};
use sim_core::allocmeter::Scope;
use sim_core::SimTime;
use sora_core::{Controller, ControllerStatus};
use std::time::Instant;

/// One timed interval: a layer boundary crossed by the ledger.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called (`workload`, `slice`, `controller`, ...).
    pub name: &'static str,
    /// Start, µs since the traced iteration began.
    pub start_us: f64,
    /// End, µs since the traced iteration began.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// An in-memory span recorder; spans are written out when the run ends.
pub struct Tracer {
    origin: Instant,
    /// Recorded spans, in the order they were opened.
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    /// A recorder whose clock starts now.
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span starting now and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.us(Instant::now());
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let end_us = self.us(Instant::now());
        let span = &mut self.spans[id];
        span.end_us = end_us;
        (end_us - span.start_us) / 1e6
    }

    /// Records an already-measured interval.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant, parent: usize) {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            name,
            start_us,
            end_us,
            parent: Some(parent),
        });
    }

    /// Times `f` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = f();
        (out, self.close(id))
    }
}

/// A [`Controller`] wrapper that times and allocation-meters every call of
/// the controller stack a spec builds.
pub struct TimedController {
    inner: Box<dyn Controller>,
    /// The span the next calls happen under.
    pub parent: usize,
    calls: Vec<(usize, Instant, Instant)>,
    allocs: u64,
}

impl TimedController {
    /// Wraps a built controller stack.
    pub fn new(inner: Box<dyn Controller>) -> TimedController {
        TimedController {
            inner,
            parent: 0,
            calls: Vec::new(),
            allocs: 0,
        }
    }

    /// Seconds spent in calls made under span `parent`.
    pub fn time_under(&self, parent: usize) -> f64 {
        self.calls
            .iter()
            .filter(|c| c.0 == parent)
            .map(|c| c.2.duration_since(c.1).as_secs_f64())
            .sum()
    }

    /// Allocations made inside controller calls so far.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Moves the recorded calls into `tracer` as `controller` spans and
    /// folds them into `layers`.
    pub fn finish(self, tracer: &mut Tracer, layers: &mut Layers) {
        for &(parent, start, end) in &self.calls {
            tracer.record("controller", start, end, parent);
            layers
                .controller_ms
                .push(end.duration_since(start).as_secs_f64() * 1e3);
        }
        layers.controller_allocs += self.allocs;
        let ControllerStatus {
            actuations,
            frozen_periods,
            ..
        } = self.inner.status();
        layers.actuations += actuations;
        layers.frozen_periods += frozen_periods;
    }
}

impl Controller for TimedController {
    fn control(&mut self, world: &mut World, now: SimTime) {
        let scope = Scope::begin();
        let start = Instant::now();
        self.inner.control(world, now);
        let end = Instant::now();
        self.allocs += scope.finish().count;
        self.calls.push((self.parent, start, end));
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn status(&self) -> ControllerStatus {
        self.inner.status()
    }
}

/// Per-layer totals of one traced iteration (summed over its scenarios
/// when a farm runs several).
#[derive(Debug, Default)]
pub struct Layers {
    /// Wall time of the whole traced iteration.
    pub wall_s: f64,
    pub parse_s: f64,
    pub build_s: f64,
    pub render_s: f64,
    /// Slice time minus the controller time inside it.
    pub step_s: f64,
    /// `ScenarioStepper::finish` time minus any controller time inside it.
    pub finish_s: f64,
    pub slices_ms: Vec<f64>,
    pub runner_allocs: u64,
    pub runner_bytes: u64,
    pub events: u64,
    pub critical_path_events: u64,
    pub injected: u64,
    pub spans_created: u64,
    pub in_flight_max: usize,
    pub drops: DropBreakdown,
    pub net: net::NetStats,
    pub retry: workload::RetryStats,
    pub ingested: u64,
    pub stored: u64,
    pub duplicates_dropped: u64,
    pub snapshot_us: Vec<f64>,
    pub controller_ms: Vec<f64>,
    pub controller_allocs: u64,
    pub actuations: u64,
    pub frozen_periods: u64,
    pub farm_cold_s: f64,
    pub farm_warm_s: Vec<f64>,
    pub canon_key_us: Vec<f64>,
    pub result_kib: Vec<f64>,
}

impl Layers {
    /// Folds in the world's counters at the end of a run.
    pub fn add_world(&mut self, world: &World) {
        self.events += world.events_dispatched();
        self.critical_path_events += world.critical_path_events();
        self.injected += world.requests_injected();
        self.spans_created += world.spans_created();
        let d = world.drop_breakdown();
        self.drops.refused += d.refused;
        self.drops.replica_failed += d.replica_failed;
        self.drops.client_timeout += d.client_timeout;
        self.drops.retries_exhausted += d.retries_exhausted;
        self.drops.net_lost += d.net_lost;
        self.drops.net_timed_out += d.net_timed_out;
        if let Some(n) = world.network_stats() {
            self.net.messages += n.messages;
            self.net.lost_random += n.lost_random;
            self.net.lost_partitioned += n.lost_partitioned;
            self.net.lost_saturated += n.lost_saturated;
            self.net.duplicated += n.duplicated;
            self.net.call_retries += n.call_retries;
            self.net.orphaned_frames += n.orphaned_frames;
        }
        let w = world.warehouse();
        self.ingested += w.ingested();
        self.stored += w.len() as u64;
        self.duplicates_dropped += w.duplicates_dropped();
    }

    /// The per-layer metrics of this iteration, `trace.overhead` excepted
    /// (it compares iterations, so the caller adds it).
    pub fn metrics(&self) -> Vec<Metric> {
        let controller_s = self.controller_ms.iter().sum::<f64>() / 1e3;
        let snapshot_s = self.snapshot_us.iter().sum::<f64>() / 1e6;
        let attributed = self.parse_s
            + self.build_s
            + self.render_s
            + self.step_s
            + self.finish_s
            + controller_s
            + snapshot_s
            + self.farm_cold_s
            + self.farm_warm_s.iter().sum::<f64>()
            + self.canon_key_us.iter().sum::<f64>() / 1e6;
        let sim_s = self.step_s + self.finish_s + controller_s;
        // Ratios over an empty denominator come out non-finite, which
        // `Metric::new` reports as 0.
        let per_req = |x: u64| x as f64 / self.injected as f64;
        let med = |v: &[f64]| crate::stats::median(v);
        let d = &self.drops;
        let n = &self.net;
        let m = Metric::new;
        vec![
            m("config.parse_s", self.parse_s, "s"),
            m("config.build_s", self.build_s, "s"),
            m("config.render_s", self.render_s, "s"),
            m("runner.step_s", self.step_s, "s"),
            m("runner.finish_s", self.finish_s, "s"),
            m("runner.slice_ms_p50", med(&self.slices_ms), "ms"),
            m(
                "runner.slice_ms_tail",
                crate::stats::tail(&self.slices_ms),
                "ms",
            ),
            m(
                "runner.allocs_per_req",
                per_req(self.runner_allocs),
                "allocs/req",
            ),
            m("runner.bytes_per_req", per_req(self.runner_bytes), "B/req"),
            m("microsim.events", self.events as f64, "count"),
            m("microsim.events_per_s", self.events as f64 / sim_s, "1/s"),
            m(
                "microsim.events_per_req",
                per_req(self.events),
                "events/req",
            ),
            m(
                "microsim.spans_per_req",
                per_req(self.spans_created),
                "spans/req",
            ),
            m("microsim.in_flight_max", self.in_flight_max as f64, "count"),
            m(
                "microsim.shard_parallelism",
                self.events as f64 / self.critical_path_events as f64,
                "ratio",
            ),
            m("microsim.drops.refused", d.refused as f64, "count"),
            m(
                "microsim.drops.replica_failed",
                d.replica_failed as f64,
                "count",
            ),
            m(
                "microsim.drops.client_timeout",
                d.client_timeout as f64,
                "count",
            ),
            m(
                "microsim.drops.retries_exhausted",
                d.retries_exhausted as f64,
                "count",
            ),
            m("microsim.drops.net_lost", d.net_lost as f64, "count"),
            m(
                "microsim.drops.net_timed_out",
                d.net_timed_out as f64,
                "count",
            ),
            m("net.messages", n.messages as f64, "count"),
            m("net.lost_random", n.lost_random as f64, "count"),
            m("net.lost_partitioned", n.lost_partitioned as f64, "count"),
            m("net.lost_saturated", n.lost_saturated as f64, "count"),
            m("net.duplicated", n.duplicated as f64, "count"),
            m("net.call_retries", n.call_retries as f64, "count"),
            m("net.orphaned_frames", n.orphaned_frames as f64, "count"),
            m(
                "workload.retry_attempts",
                self.retry.attempts as f64,
                "count",
            ),
            m("workload.retry_gave_up", self.retry.gave_up as f64, "count"),
            m(
                "workload.retry_budget_denied",
                self.retry.budget_denied as f64,
                "count",
            ),
            m("telemetry.ingested", self.ingested as f64, "count"),
            m("telemetry.stored", self.stored as f64, "count"),
            m(
                "telemetry.duplicates_dropped",
                self.duplicates_dropped as f64,
                "count",
            ),
            m("telemetry.snapshot_us_p50", med(&self.snapshot_us), "us"),
            m("controller.control_s", controller_s, "s"),
            m("controller.calls", self.controller_ms.len() as f64, "count"),
            m("controller.call_ms_p50", med(&self.controller_ms), "ms"),
            m(
                "controller.call_ms_max",
                self.controller_ms.iter().copied().fold(0.0, f64::max),
                "ms",
            ),
            m("controller.allocs", self.controller_allocs as f64, "count"),
            m("controller.actuations", self.actuations as f64, "count"),
            m(
                "controller.frozen_periods",
                self.frozen_periods as f64,
                "count",
            ),
            m("server.farm_cold_s", self.farm_cold_s, "s"),
            m("server.farm_warm_s", med(&self.farm_warm_s), "s"),
            m(
                "server.parallel_efficiency",
                (sim_s + self.render_s) / (crate::FARM_WORKERS as f64 * self.farm_cold_s),
                "ratio",
            ),
            m("server.canon_key_us", med(&self.canon_key_us), "us"),
            m("server.result_kib", med(&self.result_kib), "KiB"),
            m("trace.unattributed_s", self.wall_s - attributed, "s"),
        ]
    }
}
