//! The `m3run` command line, driven as a user drives it: bad input is
//! refused before anything is simulated, and `--profile` draws every series
//! on one time axis.

use std::process::{Command, Output};

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
