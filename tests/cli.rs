//! The `m3run` command line, driven as a user drives it: bad input is
//! refused before anything is simulated, `--profile` draws every series on
//! one time axis, a run reports its oracle verdict, and an `M3_TRACE` dump
//! reads back.

use std::process::{Command, Output};

use m3::prelude::*;
use m3::sim::trace::TraceLog;

fn m3run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_m3run"))
        .args(args)
        .output()
        .expect("m3run starts")
}

#[test]
fn list_prints_the_workloads() {
    let out = m3run(&["list"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("MMW 180"));
}

#[test]
fn zero_gib_node_is_a_usage_error() {
    let out = m3run(&["run", "WPM180", "--phys-gib", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn zero_nodes_is_a_usage_error() {
    let out = m3run(&["run", "WPM180", "--nodes", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unwritable_json_path_fails_before_the_run() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("no-such-dir")
        .join("out.json");
    let out = m3run(&[
        "run",
        "WPM180",
        "--json",
        path.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot create"));
    assert!(out.stdout.is_empty(), "nothing may be simulated: {out:?}");
}

#[test]
fn profile_rows_share_one_time_axis() {
    // C 2 finishes well before the run ends: its row must end in blanks,
    // not be stretched to the last column like the total's.
    let out = m3run(&["run", "CCC0", "--profile"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = |name: &str| {
        let prefix = format!("{name} |");
        stdout
            .lines()
            .find(|l| l.trim_start().starts_with(&prefix))
            .unwrap_or_else(|| panic!("no {name} row in:\n{stdout}"))
    };
    assert!(row("C 2").ends_with(" |"), "{stdout}");
    assert!(!row("total").ends_with(" |"), "{stdout}");
}

#[test]
fn run_reports_the_oracle_verdict() {
    let out = m3run(&["run", "CCC0"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.trim() == "oracle: 0 violations"),
        "{stdout}"
    );
}

#[test]
fn m3_trace_dump_reads_back_and_replays_clean() {
    // The dump is one pretty JSON document: it must parse as a trace,
    // render back to the same text, and replay through the oracle.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("ccc0.trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_m3run"))
        .args(["run", "CCC0"])
        .env("M3_TRACE", &path)
        .output()
        .expect("m3run starts");
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("M3_TRACE file written");
    let trace: TraceLog = serde_json::from_str(&text).expect("dump parses as a trace");
    assert!(trace.count("monitor.poll") > 0, "the dump holds the run");
    assert_eq!(serde_json::to_string_pretty(&trace).expect("renders"), text);
    let violations = Oracle::paper(Some(MonitorConfig::scaled(64 * GIB))).check(&trace);
    assert!(violations.is_empty(), "{violations:#?}");
}
