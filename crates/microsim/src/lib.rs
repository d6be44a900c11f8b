//! Discrete-event microservice cluster simulator.
//!
//! This crate is the substitute for the paper's physical testbed (VMware +
//! Kubernetes + Sock Shop / Social Network containers). It simulates:
//!
//! * **services** with per-request-type execution profiles (compute stages
//!   and synchronous downstream calls, sequential or fanned out);
//! * **replicas (pods)** with a CPU limit enforced by a processor-sharing
//!   CPU (see [`cluster::PsCpu`]), a bounded **thread pool** (requests beyond
//!   it queue FIFO), and client-side **connection pools** toward downstream
//!   services (calls beyond the limit block holding their thread);
//! * **load balancing** across replicas, container start-up delay, graceful
//!   draining and abrupt failure;
//! * **telemetry**: every request produces a span tree ingested by the
//!   trace warehouse, and every replica of a monitored service (see
//!   [`World::monitor`]) feeds concurrency/completion samplers — the
//!   inputs of the SCG model;
//! * **fault injection**: deterministic sim-clock schedules of replica
//!   crashes (with restart), node CPU-pressure windows and telemetry
//!   blackouts (see [`FaultSchedule`]), with every drop attributed to a
//!   [`DropReason`].
//!
//! The paper's phenomena emerge from these mechanics rather than being
//! scripted: under-allocated pools create queueing delay, over-allocated
//! pools oversubscribe the CPU and spread the latency distribution, and the
//! goodput knee moves with CPU limits, deadlines and request weight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod faults;
mod replica;
mod request;
mod shard;
mod world;

pub use config::{Behavior, LbPolicy, RequestTypeSpec, ServiceSpec, Stage, WorldConfig};
pub use faults::{BlackoutMode, FaultEvent, FaultKind, FaultSchedule, FaultScheduleError};
pub use shard::ShardError;
pub use world::{Completion, DropBreakdown, DropReason, TelemetrySnapshot, World};

#[cfg(test)]
mod tests;
