//! `ledger compare` on synthetic samples.

use sora_ledger::compare::{compare, compare_dirs, Better, Verdict};

#[test]
fn nine_of_ten_wins_beyond_the_spread_is_an_improvement() {
    let parent: Vec<f64> = (0..10).map(|i| 1.00 + 0.002 * f64::from(i)).collect();
    let mut change: Vec<f64> = parent.iter().map(|p| p * 0.9).collect();
    change[4] = parent[4] + 0.01; // the one pair the change loses
    let r = compare(&parent, &change, Better::Lower, 0.1);
    assert_eq!(r.win_share, 0.9);
    assert_eq!(r.verdict, Verdict::Improved);
    // Higher-is-better metrics mirror it.
    let r = compare(&change, &parent, Better::Higher, 0.1);
    assert_eq!(r.verdict, Verdict::Improved);
}

#[test]
fn a_tie_is_no_change() {
    let parent = [5.0, 5.1, 4.9, 5.0, 5.05, 4.95, 5.0, 5.02, 4.98, 5.0];
    let r = compare(&parent, &parent, Better::Lower, 0.1);
    assert_eq!(r.win_share, 0.0, "ties count for neither side");
    assert_eq!(r.verdict, Verdict::NoChange);
}

#[test]
fn a_spread_wider_than_the_bound_is_unresolved() {
    let parent = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1];
    let change: Vec<f64> = parent.iter().map(|p| p * 1.3).collect();
    let r = compare(&parent, &change, Better::Lower, 0.1);
    assert_eq!(r.verdict, Verdict::Unresolved);
    // Unless every change run beats every parent run.
    let change = [0.3; 10];
    assert_eq!(
        compare(&parent, &change, Better::Lower, 0.1).verdict,
        Verdict::Improved
    );
}

#[test]
fn worse_beyond_the_bound_is_a_regression() {
    let parent = [2.0, 2.01, 1.99, 2.0, 2.02, 1.98, 2.0, 2.01, 1.99, 2.0];
    let change: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
    assert_eq!(
        compare(&parent, &change, Better::Lower, 0.1).verdict,
        Verdict::Worse
    );
    let change: Vec<f64> = parent.iter().map(|p| p * 1.05).collect();
    assert_eq!(
        compare(&parent, &change, Better::Lower, 0.1).verdict,
        Verdict::NoChange
    );
}

#[test]
fn directories_of_records_are_paired_and_digests_checked() {
    let root = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("compare-dirs");
    let _ = std::fs::remove_dir_all(&root);
    let record = |side: &str, i: u32, wall: f64, digest: &str| {
        let dir = root.join(side);
        std::fs::create_dir_all(&dir).unwrap();
        let text = format!(
            r#"{{"workload": "w", "seed": {i}, "trace": false, "attempted": 10, "failed": 0,
                "sim_digest": "{digest}", "metrics": {{"t": {{"value": {wall}, "unit": "s"}}}}}}"#
        );
        std::fs::write(dir.join(format!("w-t0-{i:03}.json")), text).unwrap();
    };
    let bench = root.join("BENCHMARK.json");
    for i in 0..10 {
        record("parent", i, 1.0 + f64::from(i) * 1e-3, "aa");
        record("same", i, 1.0 + f64::from(i) * 1e-3, "aa");
        record("slow", i, 1.5, if i == 3 { "bb" } else { "aa" });
    }
    std::fs::write(
        &bench,
        r#"{"end_to_end": [{"name": "t", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
    )
    .unwrap();
    let (table, bad) = compare_dirs(&root.join("parent"), &root.join("same"), &bench).unwrap();
    assert!(!bad, "{table}");
    assert!(table.contains("| no change | same |"), "{table}");
    let (table, bad) = compare_dirs(&root.join("parent"), &root.join("slow"), &bench).unwrap();
    assert!(bad, "{table}");
    assert!(table.contains("| worse | differ |"), "{table}");
}
