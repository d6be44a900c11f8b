//! The fuzz-found regression corpus under `scenarios/regressions/`.
//!
//! Each file is a shrunken minimal reproducer for a bug the scenario
//! fuzzer's development flushed out of the spec gate or the simulator.
//! Two kinds of entries:
//!
//! - **rejected**: specs that *used to* slip through `validate()` and then
//!   panicked, were silently mis-run, or aliased a different scenario
//!   under the canon cache key. The fix is the hardened gate; the
//!   regression asserts the spec still parses but is now rejected with the
//!   expected field diagnosis.
//! - **clean**: runnable specs covering the fixed classes' positive path;
//!   they must pass the entire oracle stack (audited when the `audit`
//!   feature is on — `scripts/check.sh` runs this test in the audit lane).
//!
//! The expectation table below must list the directory exactly: a new
//! reproducer without a matching entry (or vice versa) fails the test, so
//! the corpus can't drift from its assertions.

use sora_fuzz::{check, FuzzOptions, ScenarioSpec};

#[derive(Debug, Clone, Copy)]
enum Expect {
    /// `validate()` must reject the spec, blaming this field.
    Rejected(&'static str),
    /// The spec must run and pass every oracle.
    Clean,
}

/// file stem → expected verdict, and the bug each entry pins down.
const CORPUS: &[(&str, Expect)] = &[
    // Crash restart window ran past the horizon: accepted by the old
    // gate, then the restart event fired outside the run (or never),
    // leaving the service down for a "recoverable" fault.
    ("001_fault_window_past_horizon", Expect::Rejected("faults")),
    // Two overlapping telemetry blackouts: the second window's end event
    // un-blacked-out the first while it was still supposed to hold.
    (
        "002_overlapping_blackout_windows",
        Expect::Rejected("faults"),
    ),
    // Network plus shards: used to pass validate and then panic in
    // `World::install_network`. The two now compose; the oracle stack's
    // panic check pins the old panic.
    ("003_network_with_shards", Expect::Clean),
    // Partition fault without a network: used to be logged and silently
    // ignored, so two behaviourally identical runs cached under
    // different canon keys.
    ("004_partition_without_network", Expect::Rejected("faults")),
    // Drift knob on an app that never reads it: same silent-alias class.
    (
        "005_drift_knob_on_sock_shop",
        Expect::Rejected("drift_at_secs"),
    ),
    // Fault instant beyond the ms→ns range: passed the old gate, then
    // overflowed u64 nanoseconds inside `SimTime::from_millis`.
    ("006_fault_instant_overflow", Expect::Rejected("faults")),
    // Positive path for the fixed classes: a generated topology with a
    // crash-and-restart plus a lagging blackout runs audited-clean.
    ("007_faulted_generated_scenario", Expect::Clean),
];

fn corpus_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scenarios/regressions")
}

#[test]
fn corpus_matches_the_expectation_table() {
    let mut on_disk: Vec<String> = std::fs::read_dir(corpus_dir())
        .expect("scenarios/regressions exists")
        .map(|e| {
            let name = e.unwrap().file_name().into_string().unwrap();
            name.strip_suffix(".json")
                .unwrap_or_else(|| panic!("non-JSON file in corpus: {name}"))
                .to_string()
        })
        .collect();
    on_disk.sort();
    let expected: Vec<String> = CORPUS.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(on_disk, expected, "corpus and expectation table drifted");
}

#[test]
fn every_reproducer_meets_its_expectation() {
    for (stem, expect) in CORPUS {
        let path = corpus_dir().join(format!("{stem}.json"));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{stem}: unreadable: {e}"));
        match expect {
            Expect::Rejected(field) => {
                // The spec is well-formed JSON the parser accepts…
                let spec = ScenarioSpec::parse_unchecked(&text)
                    .unwrap_or_else(|e| panic!("{stem}: no longer parses: {e}"));
                // …but the hardened gate rejects it, blaming the field
                // the original bug hid behind.
                match spec.validate() {
                    Err(e) => {
                        let msg = e.to_string();
                        assert!(
                            msg.contains(field),
                            "{stem}: rejection `{msg}` does not blame `{field}`"
                        );
                    }
                    Ok(()) => panic!("{stem}: regressed — validate accepts it again"),
                }
            }
            Expect::Clean => {
                let spec =
                    ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("{stem}: rejected: {e}"));
                if let Some(v) = check(&spec, &FuzzOptions::default()) {
                    panic!("{stem}: {} violation: {}", v.oracle, v.detail);
                }
            }
        }
    }
}
