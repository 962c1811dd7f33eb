//! The pressure-aware fleet scheduler in a few lines.
//!
//! ```text
//! cargo run --release --example fleet_quickstart
//! ```
//!
//! Submits the canonical fleet workload (`MMWMCM 120`) to a three-node
//! fleet. Each node exports its live pressure summary (zone, distance to
//! the high/top thresholds, watchdog escalations); the scheduler places
//! every arriving job on the least-pressured node that can fit it, defers
//! jobs that would push a node past its top of memory, and migrates the
//! newest job off any node that stays red beyond the grace window. The
//! whole run is deterministic and checked against the cluster-level
//! conformance oracle.

use m3::prelude::*;

fn main() {
    let scenario = fleet_canonical();
    let setting = Setting::m3(scenario.len());
    let mut machine = MachineConfig::stock_64gb();
    machine.sample_period = None;
    machine.max_time = SimDuration::from_secs(40_000);
    let fleet = FleetConfig::homogeneous(3, 64 * GIB);

    println!(
        "fleet: {} nodes x 64 GiB, workload {}\n",
        fleet.nodes.len(),
        scenario.name
    );
    let res = run_fleet(&scenario, &setting, machine, &fleet);

    println!("job  kind  node  deferrals  migrations  runtime");
    for j in &res.jobs {
        let kind = scenario.apps[j.job].0.code();
        println!(
            "{:>3}  {:>4}  {:>4}  {:>9}  {:>10}  {}",
            j.job,
            kind,
            j.node.map_or("-".into(), |n| n.to_string()),
            j.deferrals,
            j.migrations,
            j.runtime_s
                .map_or("gave up / failed".into(), |s| format!("{s:.0} s")),
        );
    }

    let mean = res.class_mean();
    println!(
        "\nmean runtime {} over {} completed app(s), {} failed",
        mean.mean_secs.map_or("-".into(), |s| format!("{s:.0} s")),
        mean.completed_apps,
        mean.failed_apps,
    );
    println!(
        "placement log: {} event(s); oracle violations: {}",
        res.trace.len(),
        res.violations.len(),
    );
    assert!(res.violations.is_empty(), "{:#?}", res.violations);
}
