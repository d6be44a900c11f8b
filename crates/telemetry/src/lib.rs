//! Distributed-tracing vocabulary and the monitoring pipeline.
//!
//! The paper's Sora framework consumes two kinds of telemetry (its
//! *Monitoring Module*, §4.1):
//!
//! 1. **request traces** — per-request arrival/departure timestamps at every
//!    microservice (a Jaeger/Zipkin-style span tree), stored in a *Trace
//!    Warehouse* and queried by the SCG model for critical-path extraction,
//!    deadline propagation and the concurrency/goodput scatter graph;
//! 2. **system metrics** — pod CPU utilisation, used by the hardware-only
//!    autoscalers (HPA/VPA/FIRM).
//!
//! This crate defines that vocabulary ([`Span`], [`Trace`], the id newtypes)
//! and the in-memory pipeline: [`TraceWarehouse`] with time-horizon
//! eviction, [`ConcurrencyTracker`] and [`CompletionLog`] (the 100 ms
//! samplers of the *Metrics Collection Phase*), scatter-graph construction,
//! critical-path analysis, and [`ClientLog`] for end-to-end goodput /
//! percentile reporting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breakdown;
mod client;
mod completions;
mod concurrency;
mod critical_path;
mod ids;
#[cfg(test)]
mod scan_equivalence;
mod scatter;
mod span;
mod warehouse;

pub use breakdown::{latency_breakdown, BreakdownComponent, ServiceBreakdown};
pub use client::ClientLog;
pub use completions::CompletionLog;
pub use concurrency::ConcurrencyTracker;
pub use critical_path::{critical_path, per_service_stats, CriticalPathStats, PathHop};
pub use ids::{ReplicaId, RequestId, RequestTypeId, ServiceId, SpanId};
pub use scatter::ScatterScratch;
pub use scatter::{build_scatter, build_scatter_into, build_scatter_throughput, ScatterPoint};
pub use span::{ChildCall, Span, Trace};
pub use warehouse::{TraceWarehouse, WithheldTraces};
