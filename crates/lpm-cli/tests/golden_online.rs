//! Golden snapshot test for the `lpm-cli online` human summary.
//!
//! The online command's report (interval table, adaptation line,
//! controller health) is deterministic for a fixed workload, seed and
//! interval: no wall-clock quantity reaches stdout on this path. A diff
//! against the checked-in snapshot means observable behavior changed;
//! regenerate intentionally with
//! `UPDATE_GOLDEN=1 cargo test -p lpm-cli --test golden_online`.

use std::path::PathBuf;
use std::process::Command;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../tests/golden/{name}"))
}

fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").as_deref() == Ok("1") {
        std::fs::write(&path, actual).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "{name} drifted from its golden snapshot.\n\
         If the change is intended, regenerate with UPDATE_GOLDEN=1.\n\
         --- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
}

/// The fixed scenario the snapshot pins down: small enough for a debug
/// test run, long enough to cross several adaptation steps.
const ONLINE_ARGS: &[&str] = &[
    "online",
    "--workload",
    "bwaves",
    "--instructions",
    "60000",
    "--interval",
    "5000",
    "--seed",
    "7",
];

fn run_cli(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lpm-cli"))
        .args(args)
        .output()
        .expect("lpm-cli should run");
    assert!(
        out.status.success(),
        "lpm-cli {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("stdout is UTF-8")
}

#[test]
fn online_summary_matches_snapshot() {
    assert_golden("lpm_cli_online.txt", &run_cli(ONLINE_ARGS));
}

#[test]
fn online_faulted_summary_matches_snapshot() {
    let mut args = ONLINE_ARGS.to_vec();
    args.extend(["--faults", "all", "--fault-seed", "42"]);
    assert_golden("lpm_cli_online_faults.txt", &run_cli(&args));
}

#[test]
fn online_interval_past_the_end_of_the_clock_exits_1_with_a_typed_error() {
    // A wrapped `now + interval` would run twelve zero-cycle degenerate
    // windows and exit 0 with no data.
    let out = Command::new(env!("CARGO_BIN_EXE_lpm-cli"))
        .args([
            "online",
            "--workload",
            "gcc",
            "--instructions",
            "20000",
            "--interval",
            "18446744073709551615",
        ])
        .output()
        .expect("lpm-cli should run");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("overflows the simulated clock"),
        "unexpected stderr: {stderr}"
    );
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("degenerate"),
        "no interval may run"
    );
}
