//! Simulated container-cluster hardware.
//!
//! This crate models the part of the paper's testbed that Kubernetes and the
//! hypervisor provided: **CPU-limited pods on capacity-limited nodes**.
//!
//! The centrepiece is [`PsCpu`], a processor-sharing CPU with a configurable
//! context-switch/cache penalty. It is what couples *soft* resources to
//! *hardware* resources: a pod's thread pool decides how many jobs run
//! concurrently on the pod's CPU, and
//!
//! * too few threads leave cores idle (under-utilisation → queueing upstream),
//! * too many threads oversubscribe the cores, and every job slows down a
//!   little extra per excess thread (the "non-trivial multithreading
//!   overhead" of §2.3 in the paper).
//!
//! Those two regimes are exactly what creates the goodput knee that the SCG
//! model detects.
//!
//! [`Node`]/[`ClusterState`] provide placement with capacity accounting so
//! vertical scaling can fail realistically when a node is full.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cpu;
mod millicores;
mod node;

pub use cpu::PsCpu;
pub use millicores::Millicores;
pub use node::{ClusterState, Node, NodeId, PlacementError, PodPlacement};
