//! The Scatter-Concurrency-Goodput (SCG) model — the paper's core
//! contribution (§3).
//!
//! Given fine-grained `<concurrency, goodput>` samples of a critical
//! microservice (built by [`telemetry::build_scatter`] at 100 ms
//! granularity over a short window), the model recommends the *optimal
//! concurrency setting*: the knee of the main-sequence curve, i.e. the
//! smallest concurrency that achieves the highest goodput under the
//! service's propagated response-time deadline.
//!
//! The pipeline mirrors the paper's four phases:
//!
//! 1. **Critical service localisation** ([`localize_critical_service`]) —
//!    resource utilisation screening plus the Pearson correlation between
//!    each service's on-path processing time and the end-to-end response
//!    time;
//! 2. **RT-threshold propagation** ([`propagate_deadline`]) — the
//!    critical service's goodput threshold is the SLA minus upstream
//!    processing time (eq. 3);
//! 3. **Metrics collection** — performed by the `telemetry` crate's
//!    samplers;
//! 4. **Estimation** ([`ScgModel::estimate`]) — aggregate the scatter by
//!    concurrency, fit a smoothing polynomial with incremental degree
//!    tuning, and detect the knee with [`Kneedle`] (Satopaa et al. 2011).
//!
//! The Scatter-Concurrency-**Throughput** (SCT) model that ConScale uses is
//! the same pipeline fed with throughput instead of goodput (build the
//! scatter with [`telemetry::build_scatter_throughput`]); no separate code
//! is needed, which is itself a faithful rendition of the paper's framing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deadline;
mod fit;
mod kneedle;
mod localize;
mod model;
pub mod sensitivity;

pub use deadline::propagate_deadline;
pub use fit::PolyFit;
pub use kneedle::{KneeDirection, Kneedle};
pub use localize::{localize_critical_service, MIN_ON_PATH};
pub use model::{ConcurrencyEstimate, ScgConfig, ScgModel};
