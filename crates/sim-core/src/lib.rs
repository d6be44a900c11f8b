//! Deterministic discrete-event simulation (DES) core.
//!
//! This crate is the bottom layer of the Sora reproduction workspace. It
//! provides the machinery every other crate builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time;
//! * [`EventQueue`] — the future event list: a binary heap that pops
//!   earliest time first and equal times in scheduling order;
//! * [`SimRng`] — a seeded, splittable random-number generator so whole
//!   cluster simulations are reproducible bit-for-bit;
//! * [`Dist`] — the service-time / inter-arrival distributions used by the
//!   microservice models;
//! * [`stats`] — streaming statistics (mean/variance, histograms, exact
//!   percentiles, Pearson correlation, MAPE) used both by the simulated
//!   telemetry pipeline and by the experiment harness;
//! * [`audit`] — the conservation-law audit seam ([`audit::AuditSink`])
//!   through which components report invariant violations when the
//!   workspace-wide `audit` feature is enabled.
//!
//! # Example
//!
//! ```
//! use sim_core::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! q.schedule(SimTime::ZERO + SimDuration::from_millis(1), "a");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t.as_millis(), ev), (1, "a"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocmeter;
pub mod audit;
mod dist;
mod queue;
mod rng;
mod slab;
pub mod stats;
mod time;

pub use dist::Dist;
pub use queue::EventQueue;
pub use rng::SimRng;
pub use slab::{Slab, SlabKey};
pub use time::{SimDuration, SimTime};
