//! Fixed-seed fleet chaos drill: cluster-scale fault injection and the
//! scheduler's degradation report.
//!
//! ```text
//! cargo run --release --example fleet_chaos_drill
//! ```
//!
//! The cluster-scale sibling of `chaos_drill`: an eight-node fleet runs
//! the canonical mixed workload while a deterministic `FleetFaultPlan`
//! misbehaves underneath the scheduler — two nodes die mid-horizon, a
//! third's probe endpoint flaps long enough to be quarantined, one
//! placement decision is delayed, and the scheduler itself restarts and
//! rebuilds its candidate index from authoritative node state. The drill
//! prints the degradation report, checks the fleet oracle's recovery
//! invariants, and proves the whole run replays byte for byte — suitable
//! as a CI smoke test for fleet-level self-healing.

use m3::prelude::*;
use m3::workloads::fleet::{DEFER_INTERVAL, GRACE};

fn main() {
    let scenario = fleet_canonical();
    let setting = Setting::m3(scenario.len());
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    let mut fleet = FleetConfig::homogeneous(8, 64 * GIB);
    fleet.rebalance_checks = 30;

    let plan = FleetFaultPlan::none()
        .with_node_crash(SimDuration::from_secs(200), 0)
        .with_node_crash(SimDuration::from_secs(300), 1)
        .with_flap(
            6,
            SimDuration::from_secs(400),
            SimDuration::from_secs(1_500),
        )
        .with_placement_delay(3, SimDuration::from_secs(180))
        .with_scheduler_restart(SimDuration::from_secs(2_400));

    println!(
        "injecting {} fleet faults into {} on 8 nodes ...",
        plan.injected_count(),
        scenario.name
    );
    let clean = run_fleet(&scenario, &setting, cfg, &fleet);
    fleet.faults = plan;
    let chaos = run_fleet(&scenario, &setting, cfg, &fleet);

    println!("\n{:<6} {:>10} {:>10}", "job", "clean (s)", "chaos (s)");
    for i in 0..scenario.len() {
        let cell = |r: &FleetResult| {
            r.jobs[i]
                .runtime_s
                .map(|s| format!("{s:.0}"))
                .unwrap_or_else(|| format!("{:?}", r.jobs[i].failure.unwrap()))
        };
        println!("{:<6} {:>10} {:>10}", i, cell(&clean), cell(&chaos));
    }

    let d = &chaos.degradation;
    println!("\nfleet degradation report");
    println!("  nodes lost:                       {}", d.nodes_lost);
    println!(
        "  jobs lost / rescheduled / orphaned: {} / {} / {}",
        d.jobs_lost, d.jobs_rescheduled, d.jobs_orphaned
    );
    println!(
        "  quarantine episodes:              {}",
        d.quarantine_episodes
    );
    println!(
        "  probe failures / stale decisions: {} / {}",
        d.probe_failures, d.stale_probe_decisions
    );
    println!(
        "  placements delayed (total ms):    {} ({})",
        d.placements_delayed, d.placement_delay_ms
    );
    println!(
        "  scheduler restarts (nodes re-indexed): {} ({})",
        d.scheduler_restarts, d.index_rebuild_nodes
    );
    println!("  faults unapplied:                 {}", d.faults_unapplied);

    assert_eq!(
        d.jobs_lost,
        d.jobs_rescheduled + d.jobs_orphaned,
        "every lost job must be rescheduled or explicitly orphaned"
    );
    assert!(
        chaos.violations.is_empty(),
        "the chaotic run must pass the fleet oracle: {:#?}",
        chaos.violations
    );
    let replay =
        FleetOracle::new(GRACE.as_millis(), DEFER_INTERVAL.as_millis()).check(&chaos.trace);
    assert!(replay.is_empty(), "independent oracle replay: {replay:#?}");
    println!("\nfleet oracle: zero violations (run + independent replay)");

    // Fixed seeds: a second run must reproduce the result byte for byte.
    let again = run_fleet(&scenario, &setting, cfg, &fleet);
    let a = serde_json::to_string(&chaos).expect("serialize");
    let b = serde_json::to_string(&again).expect("serialize");
    assert_eq!(a, b, "fleet chaos drill must be deterministic");
    println!("replay is byte-identical: the drill is deterministic");
}
