//! Seed-driven scenario fuzzer with the audit layer as its oracle.
//!
//! PRs 4–9 stacked up exactly the machinery property-based testing needs:
//! a conservation-law audit (`--features audit`) that renders a verdict on
//! any finished run, a shard tally that must leave every result byte
//! unchanged, and the metamorphic invariances of
//! `tests/metamorphic.rs` (time translation, replica-spawn permutation).
//! This crate composes them into a standing search:
//!
//! 1. [`generate`] turns a seed into a *valid* [`ScenarioSpec`] — random
//!    app (hand-built or `crates/topo`-generated), workload shape, retry
//!    policy, shard plan, network config and fault schedule. Validity is
//!    enforced by construction: every optional feature is accepted only if
//!    [`ScenarioSpec::validate`] (and through it
//!    `FaultSchedule::validate_within`) admits the composed spec, so the
//!    generator trusts the production gate rather than private knowledge.
//! 2. [`check`] runs the spec through the oracle stack: panic-free
//!    execution, `parse(emit(spec))` round-trip plus canon-key stability,
//!    a clean audit verdict, shard invariance (unsharded vs 4), and — for
//!    generated topologies — time translation and replica-permutation at
//!    the world level.
//! 3. On a violation, [`shrink`] delta-debugs the spec (drop faults, halve
//!    users / duration / services, strip features) to a minimal reproducer
//!    that still trips the *same* oracle; reproducers are committed under
//!    `scenarios/regressions/` with a regression test each.
//!
//! Every step is deterministic: the same seed range produces a
//! byte-identical [`FuzzReport`] at any `--jobs` count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
mod oracle;
mod report;
mod shrink;

pub use gen::generate;
pub use oracle::{check, FuzzOptions, Violation};
pub use report::{campaign, FuzzFinding, FuzzReport};
pub use shrink::shrink;

pub use sora_bench::config::{FaultSpec, ScenarioSpec};
