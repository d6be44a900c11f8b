//! Shared machinery of the experiment harness: the declarative
//! [`ScenarioSpec`], the few hand-built worlds it cannot describe, the
//! parallel [`Sweep`] runner, and table/JSON reporting.
//!
//! Each `src/bin/figXX_*` / `src/bin/tabXX_*` binary regenerates one table
//! or figure of the paper; see DESIGN.md's per-experiment index. Every
//! Sock Shop Cart and Social Network read-home-timeline run, the paper's
//! FIRM / VPA / HPA (+ Sora / ConScale) comparisons included, is a
//! [`ScenarioSpec::run`] whose `hardware`/`soft` pair names its controller
//! stack, so `scenarios/*.json` through `run_scenario` or `sora-server`
//! reproduces a figure's arm byte for byte. Binaries accept `--quick` to
//! run a shortened variant (useful in CI); the default reproduces the
//! paper's full 12-minute runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod report;
pub mod scenarios;
pub mod sweep;

pub use config::{
    scenario_result_data, scenario_result_text, App, BuiltScenario, Hardware, ScenarioError,
    ScenarioOutcome, ScenarioSpec, SoftAdaptation,
};
pub use report::{print_table, save_json, save_json_with_perf, Table};
pub use scenarios::{post_storage_goodput, MonitoredCase};
pub use sweep::{
    ctx_job, job, CtxJob, CtxOutcome, Job, PerfMetrics, PerfTimer, RunStat, Sweep, SweepOutcome,
};

/// Returns `true` when `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// Experiment duration: the paper's 12 minutes, or 3 in quick mode.
pub fn trace_secs() -> u64 {
    if quick_mode() {
        180
    } else {
        720
    }
}
