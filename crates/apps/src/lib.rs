//! Benchmark application topologies and the scenario runner.
//!
//! Reproduces the paper's two testbeds as simulated topologies:
//!
//! * [`SockShop`] — the 11-service e-commerce demo (§2.2, Fig. 2i), with
//!   the SpringBoot Cart thread pool and the Golang Catalogue DB-connection
//!   pool as the tunable soft resources;
//! * [`SocialNetwork`] — DeathStarBench's 36-service broadcast network
//!   (Fig. 2ii), with the Thrift client pool from Home-Timeline to Post
//!   Storage as the tunable soft resource and a light/heavy request-weight
//!   switch for the §5.3 state-drift experiment.
//!
//! [`Scenario`] drives a topology with a closed-loop user pool following
//! one of the six bursty traces, invokes a controller on the Kubernetes
//! control grid (15 s), samples gauges every second, and returns the
//! timelines and summary statistics the paper's figures and tables report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runner;
mod social_network;
mod sock_shop;

pub use runner::{RunResult, SampleRow, Scenario, ScenarioStepper, Summary, Watch};
pub use social_network::{SocialNetwork, SocialNetworkParams};
pub use sock_shop::{SockShop, SockShopParams};
