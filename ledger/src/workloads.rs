//! The ledger's fixed workloads and how their inputs are made.
//!
//! Every workload is a committed `ScenarioSpec` under `workloads/`, embedded
//! at compile time so the binary runs from any directory. The seed given on
//! the command line replaces each spec's own seed; `--smoke` cuts every spec
//! to a few simulated seconds for tests.

use sora_bench::config::{FaultSpec, SoftAdaptation};
use sora_bench::ScenarioSpec;
use workload::TraceShape;

/// How a workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One scenario, built and run in this process.
    Scenario,
    /// Tab. 2's matrix fanned over `sora_server::run_farm` worker processes.
    Farm,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name given to `--workload`.
    pub name: &'static str,
    /// How it is driven.
    pub kind: Kind,
    spec: &'static str,
}

/// Every workload, in the order the ledger runs them.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "flagship",
        kind: Kind::Scenario,
        spec: include_str!("../workloads/flagship.json"),
    },
    Workload {
        name: "drift",
        kind: Kind::Scenario,
        spec: include_str!("../workloads/drift.json"),
    },
    Workload {
        name: "wide",
        kind: Kind::Scenario,
        spec: include_str!("../workloads/wide.json"),
    },
    Workload {
        name: "wide-sharded",
        kind: Kind::Scenario,
        spec: include_str!("../workloads/wide-sharded.json"),
    },
    Workload {
        name: "net-faults",
        kind: Kind::Scenario,
        spec: include_str!("../workloads/net-faults.json"),
    },
    Workload {
        name: "paper-farm",
        kind: Kind::Farm,
        spec: include_str!("../workloads/paper-farm.json"),
    },
];

/// Simulated seconds each spec is cut to under `--smoke`.
pub const SMOKE_SECS: u64 = 20;
/// Farm scenarios kept under `--smoke`.
const SMOKE_FARM_SPECS: usize = 2;

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The scenario texts this workload runs, reseeded when `seed` is given
    /// and cut when `smoke` is set. A farm workload expands its base spec
    /// over Tab. 2's matrix: the six traces × {no soft adaptation, Sora}.
    pub fn specs(&self, seed: Option<u64>, smoke: bool) -> Vec<ScenarioSpec> {
        let mut base = ScenarioSpec::parse(self.spec).expect("committed workload specs are valid");
        if let Some(seed) = seed {
            base.seed = seed;
        }
        let mut specs = match self.kind {
            Kind::Scenario => vec![base],
            Kind::Farm => TraceShape::ALL
                .into_iter()
                .flat_map(|trace| {
                    [SoftAdaptation::None, SoftAdaptation::Sora].map(|soft| ScenarioSpec {
                        trace,
                        soft,
                        ..base.clone()
                    })
                })
                .collect(),
        };
        if smoke {
            specs.truncate(SMOKE_FARM_SPECS);
            for spec in &mut specs {
                cut(spec, SMOKE_SECS);
            }
        }
        specs
    }
}

/// Shortens `spec` to at most `secs` simulated seconds, scaling the drift
/// instant and every fault window by the same factor so each still lands
/// inside the run.
fn cut(spec: &mut ScenarioSpec, secs: u64) {
    let old = spec.duration_secs;
    if old <= secs {
        return;
    }
    let scale = |ms: u64| ms * secs / old;
    spec.duration_secs = secs;
    spec.drift_at_secs = spec.drift_at_secs.map(|at| at * secs / old);
    for fault in &mut spec.faults {
        match fault {
            FaultSpec::Crash {
                at_ms,
                restart_after_ms,
                ..
            } => {
                *at_ms = scale(*at_ms);
                *restart_after_ms = restart_after_ms.map(scale);
            }
            FaultSpec::CpuPressure {
                at_ms, duration_ms, ..
            }
            | FaultSpec::TelemetryBlackout {
                at_ms, duration_ms, ..
            }
            | FaultSpec::Partition {
                at_ms, duration_ms, ..
            }
            | FaultSpec::LinkSlow {
                at_ms, duration_ms, ..
            } => {
                *at_ms = scale(*at_ms);
                *duration_ms = scale(*duration_ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_and_its_smoke_cut_validate() {
        for w in &WORKLOADS {
            for smoke in [false, true] {
                let specs = w.specs(Some(7), smoke);
                let expected = match (w.kind, smoke) {
                    (Kind::Scenario, _) => 1,
                    (Kind::Farm, false) => 12,
                    (Kind::Farm, true) => SMOKE_FARM_SPECS,
                };
                assert_eq!(specs.len(), expected, "{}", w.name);
                for spec in specs {
                    spec.validate()
                        .unwrap_or_else(|e| panic!("{} smoke={smoke}: {e}", w.name));
                    assert_eq!(spec.seed, 7);
                    assert!(!smoke || spec.duration_secs <= SMOKE_SECS);
                }
            }
        }
    }

    #[test]
    fn farm_specs_cover_tab2_matrix_once() {
        let specs = find("paper-farm").unwrap().specs(None, false);
        let keys: std::collections::BTreeSet<String> = specs
            .iter()
            .map(|s| format!("{:?}/{:?}", s.trace, s.soft))
            .collect();
        assert_eq!(keys.len(), 12);
    }
}
