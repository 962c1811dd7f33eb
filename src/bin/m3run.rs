//! `m3run` — command-line driver for the M3 reproduction.
//!
//! ```text
//! m3run list
//! m3run run MMW180 [--setting m3|default|oracle|ows] [--nodes N]
//!                  [--phys-gib G] [--json FILE] [--profile]
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run --release --bin m3run -- list
//! cargo run --release --bin m3run -- run CMW180 --setting m3 --profile
//! cargo run --release --bin m3run -- run MMW180 --setting ows --json out.json
//! cargo run --release --bin m3run -- run CCC480 --setting m3 --nodes 8
//! ```
//!
//! Bad arguments, including zero nodes or zero GiB, print the usage and
//! exit 2. A `--json` file that cannot be created is reported before
//! anything is simulated, with exit 1.

use std::fs::File;
use std::io::Write;

use m3::prelude::*;
use m3::sim::clock::SimDuration;
use m3::workloads::cluster::run_cluster;
use m3::workloads::scenario::all_scenarios;
use m3::workloads::search::{search_oracle, search_ows, SearchSpace};

fn usage() -> ! {
    eprintln!(
        "usage:\n  m3run list\n  m3run run <WORKLOAD> [--setting m3|default|oracle|ows] \
         [--nodes N] [--phys-gib G] [--json FILE] [--profile]\n\n\
         WORKLOAD is a paper name without the space, e.g. MMW180 or CCC0;\n\
         or letters and delay separately, e.g. 'MMW 180'."
    );
    std::process::exit(2);
}

fn find_scenario(name: &str) -> Option<Scenario> {
    let normalized = name.replace([' ', '-', '_'], "").to_uppercase();
    all_scenarios()
        .into_iter()
        .find(|s| s.name.replace(' ', "") == normalized)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("{:<10} {:>5} {:>12}", "workload", "apps", "worst-case?");
            for s in all_scenarios() {
                println!(
                    "{:<10} {:>5} {:>12}",
                    s.name,
                    s.len(),
                    if s.is_worst_case() { "yes" } else { "" }
                );
            }
            println!("\nsettings: m3 (default), default, oracle, ows");
        }
        Some("run") => run_cmd(&args[1..]),
        _ => usage(),
    }
}

fn run_cmd(args: &[String]) {
    let Some(workload) = args.first() else {
        usage()
    };
    let Some(scenario) = find_scenario(workload) else {
        eprintln!("unknown workload {workload:?}; try `m3run list`");
        std::process::exit(2);
    };

    let mut setting_name = "m3".to_string();
    let mut nodes = 1usize;
    let mut phys_gib = 64u64;
    let mut json_path: Option<String> = None;
    let mut show_profile = false;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--setting" => setting_name = it.next().unwrap_or_else(|| usage()).clone(),
            "--nodes" => nodes = positive(it.next()),
            "--phys-gib" => phys_gib = positive(it.next()),
            "--json" => json_path = Some(it.next().unwrap_or_else(|| usage()).clone()),
            "--profile" => show_profile = true,
            _ => usage(),
        }
    }
    let phys_total = phys_gib.checked_mul(GIB).unwrap_or_else(|| usage());
    // Create the output file up front: a bad path must not cost a run.
    let json_out = json_path.map(|path| match File::create(&path) {
        Ok(file) => (path, file),
        Err(e) => fail(&format!("cannot create {path}: {e}")),
    });

    let mut cfg = MachineConfig::scaled(phys_total, true);
    cfg.max_time = SimDuration::from_secs(60_000);
    if !show_profile {
        cfg.sample_period = None;
    }

    let setting = match setting_name.as_str() {
        "m3" => Setting::m3(scenario.len()),
        "default" => Setting::default_for(scenario.len()),
        "oracle" => {
            eprintln!(
                "[m3run] grid-searching the Oracle for {} ...",
                scenario.name
            );
            search_oracle(&scenario, &SearchSpace::paper(), cfg)
        }
        "ows" => {
            eprintln!("[m3run] grid-searching OWS for {} ...", scenario.name);
            search_ows(&scenario, &SearchSpace::paper(), cfg)
        }
        other => {
            eprintln!("unknown setting {other:?} (want m3|default|oracle|ows)");
            std::process::exit(2);
        }
    };

    if nodes > 1 {
        let res = run_cluster(&scenario, &setting, cfg, nodes);
        println!(
            "{} under {} on {} nodes (job completion = slowest node):",
            scenario.name,
            setting.kind.label(),
            nodes
        );
        for (i, rt) in res.app_runtimes_s.iter().enumerate() {
            println!(
                "  app {i}: {}  (node spread {:.0}s)",
                rt.map_or("FAIL".into(), |v| format!("{v:.0}s")),
                res.spread_s[i]
            );
        }
        if let Some(json) = json_out {
            write_json(
                json,
                &serde_json::to_string_pretty(&res).expect("serialise"),
            );
        }
        return;
    }

    let out = run_scenario(&scenario, &setting, cfg);
    println!("{} under {}:", scenario.name, setting.kind.label());
    for a in &out.run.apps {
        let status = if a.failed {
            "FAIL (insufficient static memory)".to_string()
        } else if a.killed {
            "KILLED".to_string()
        } else {
            format!(
                "{:.0}s  (gc {:.0}s, mm {:.0}s, peak {:.1} GiB)",
                a.runtime().map(|d| d.as_secs_f64()).unwrap_or(f64::NAN),
                a.gc_pause.as_secs_f64(),
                a.mm_time.as_secs_f64(),
                a.peak_rss as f64 / GIB as f64
            )
        };
        println!("  {:<8} {}", a.name, status);
    }
    if let Some(stats) = out.run.monitor_stats {
        println!(
            "  monitor: {} polls, {} low, {} high, {} kills",
            stats.polls, stats.low_signals, stats.high_signals, stats.kills
        );
    }
    println!(
        "  mean node usage: {:.1} GiB of {} GiB",
        out.run.mean_rss / GIB as f64,
        phys_gib
    );
    // The run checked its trace as it recorded it: reporting costs nothing.
    let violations = &out.run.violations;
    let plural = if violations.len() == 1 { "" } else { "s" };
    print!("  oracle: {} violation{plural}", violations.len());
    if !violations.is_empty() {
        let first: Vec<&str> = (violations.iter().take(3))
            .map(|v| v.invariant.as_str())
            .collect();
        print!(", first: {}", first.join(", "));
    }
    println!();
    if show_profile {
        println!();
        print!("{}", out.run.profile.ascii(72, phys_gib as f64));
    }
    if let Some(json) = json_out {
        write_json(
            json,
            &serde_json::to_string_pretty(&out.run.apps).expect("serialise"),
        );
    }
}

/// Parses a positive integer option value, or exits with the usage.
fn positive<T: std::str::FromStr + PartialOrd + Default>(value: Option<&String>) -> T {
    value
        .and_then(|v| v.parse().ok())
        .filter(|v| *v > T::default())
        .unwrap_or_else(|| usage())
}

/// Reports a failure that is not a usage error and exits 1.
fn fail(msg: &str) -> ! {
    eprintln!("m3run: {msg}");
    std::process::exit(1);
}

fn write_json((path, mut file): (String, File), json: &str) {
    if let Err(e) = file.write_all(json.as_bytes()) {
        fail(&format!("cannot write {path}: {e}"));
    }
    println!("wrote {path}");
}
