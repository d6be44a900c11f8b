//! **Sora** — the latency-sensitive soft-resource adaptation framework
//! (the paper's §4).
//!
//! Sora sits next to any hardware-only autoscaler and re-adapts *soft*
//! resources — thread pools and connection pools — whenever the hardware
//! picture or the workload changes. Its control loop mirrors Fig. 8 of the
//! paper:
//!
//! 1. the [`Monitor`] collects system-level metrics (pod CPU utilisation)
//!    and pulls traces from the warehouse;
//! 2. the critical service is localised (utilisation screen + Pearson
//!    correlation, via [`scg::localize_critical_service`]);
//! 3. the end-to-end SLA is propagated along the critical path to obtain
//!    the critical service's response-time threshold
//!    ([`scg::propagate_deadline`]);
//! 4. the [`ConcurrencyEstimator`] builds the concurrency/goodput scatter
//!    and asks the SCG model for the optimal concurrency;
//! 5. the [`ConcurrencyAdapter`] actuates the owning soft resource
//!    (gradually exploring upward when the model reports no knee yet).
//!
//! The same machinery with a throughput-scoring estimator
//! ([`SoraController::conscale`]) reproduces ConScale's SCT-based
//! adaptation — used as a baseline in the evaluation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod controller;
mod estimator;
mod monitor;
mod probe;
mod resource;
mod sora;

pub use adapter::ConcurrencyAdapter;
pub use controller::{Controller, ControllerStatus, NullController};
pub use estimator::ConcurrencyEstimator;
pub use monitor::{Monitor, Observation};
pub use probe::UtilizationProbe;
pub use resource::{ResourceBounds, ResourceRegistry, SoftResource};
pub use sora::{SoraConfig, SoraController};
