//! Fleet-chaos experiment: node MTBF vs completion rate and runtime.
//!
//! Sweeps a deterministic node-failure rate (mean time between failures
//! across the fleet) over the wave-shaped fleet-scale workload and
//! reports, per point, how the self-healing scheduler degrades: nodes
//! lost, jobs lost / rescheduled / orphaned, completion rate and mean
//! runtime. Crash times and victims are drawn from `SimRng` with a fixed
//! per-row seed, so every point reproduces byte for byte. Each run must
//! pass the fleet oracle's recovery invariants — placements never land on
//! dead or quarantined nodes, and every lost job is rescheduled or
//! explicitly given up.
//!
//! Knobs: `M3_FLEET_CHAOS_NODES` sets the fleet size (default 512);
//! `M3_FLEET_CHAOS_BUDGET_S` asserts a per-point wall-clock budget.
//! A fleet run is serial and reads no worker count: each point's
//! `workers` field only records `M3_JOBS`.

use m3_bench::{fmt_runtime, render_table, BenchTimer};
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_sim::SimRng;
use m3_workloads::cluster::ClusterMean;
use m3_workloads::faults::FleetFaultPlan;
use m3_workloads::fleet::{run_fleet, FleetConfig, NodeSpec};
use m3_workloads::machine::MachineConfig;
use m3_workloads::scenario::fleet_scale_scenario;
use m3_workloads::settings::Setting;
use m3_workloads::worker_threads;
use serde::Serialize;
use std::collections::BTreeSet;

/// Arrival window of the wave workload (ten waves, sixteen minutes
/// apart): the MTBF math is taken over this horizon.
const ACTIVE_WINDOW_S: u64 = 8_640;
/// Wave spacing of `fleet_scale_scenario`.
const WAVE_GAP_S: u64 = 960;
/// How far into a wave a crash may land. Jobs run ~390 s, so a crash in
/// the first six minutes of a wave hits live residents — drawing times
/// here (rather than uniformly, where half the horizon is drained gaps)
/// keeps every injected failure a real job-loss incident.
const WAVE_CRASH_WINDOW_S: (u64, u64) = (30, 360);

#[derive(Serialize)]
struct ChaosRow {
    /// Per-node mean time between failures, seconds; 0 = no failures.
    mtbf_s: u64,
    nodes: usize,
    jobs: usize,
    workers: usize,
    wall_clock_s: f64,
    crashes_injected: usize,
    nodes_lost: u64,
    jobs_lost: u64,
    jobs_rescheduled: u64,
    jobs_orphaned: u64,
    completed_apps: usize,
    failed_apps: usize,
    node_lost_apps: usize,
    completion_rate: f64,
    mean_runtime_s: Option<f64>,
    violations: usize,
}

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.capture_trace = false;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

fn quarter_small_fleet(n: usize) -> FleetConfig {
    let mut fleet = FleetConfig::homogeneous(n, 64 * GIB);
    for (i, node) in fleet.nodes.iter_mut().enumerate() {
        if i % 4 == 3 {
            *node = NodeSpec {
                phys_total: 32 * GIB,
            };
        }
    }
    fleet
}

/// Poisson-ish failure schedule for one MTBF point: the expected crash
/// count over the active window, capped at a quarter of the fleet, with
/// distinct victims and fixed-seed times — deterministic by construction.
fn crash_plan(nodes: usize, mtbf_s: u64) -> FleetFaultPlan {
    let mut plan = FleetFaultPlan::none();
    if mtbf_s == 0 {
        return plan;
    }
    let expected = (nodes as u64 * ACTIVE_WINDOW_S / mtbf_s) as usize;
    let crashes = expected.min(nodes / 4).max(1);
    let mut rng = SimRng::new(0xC8A0_5EED ^ mtbf_s);
    let mut victims = BTreeSet::new();
    while victims.len() < crashes {
        victims.insert(rng.gen_range(nodes as u64) as usize);
    }
    for node in victims {
        let wave = rng.gen_range(ACTIVE_WINDOW_S / WAVE_GAP_S);
        let at = wave * WAVE_GAP_S + rng.gen_range_in(WAVE_CRASH_WINDOW_S.0, WAVE_CRASH_WINDOW_S.1);
        plan = plan.with_node_crash(SimDuration::from_secs(at), node);
    }
    plan
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn main() {
    let bench = BenchTimer::start("fleet_chaos");
    let nodes = env_usize("M3_FLEET_CHAOS_NODES").unwrap_or(512);
    let budget_s = env_f64("M3_FLEET_CHAOS_BUDGET_S");
    let scenario = fleet_scale_scenario(nodes);
    let mut fleet = quarter_small_fleet(nodes);
    let setting = Setting::m3(scenario.len());
    println!(
        "Fleet chaos — node MTBF sweep at {nodes} nodes, {} jobs\n",
        scenario.len()
    );

    let mut rows = Vec::new();
    for mtbf_s in [0u64, 172_800, 43_200, 14_400] {
        fleet.faults = crash_plan(nodes, mtbf_s);
        let started = std::time::Instant::now();
        let res = run_fleet(&scenario, &setting, machine(), &fleet);
        let wall_clock_s = started.elapsed().as_secs_f64();
        let ClusterMean {
            mean_secs,
            completed_apps,
            failed_apps,
            node_lost_apps,
            ..
        } = res.class_mean();
        let d = &res.degradation;
        rows.push(ChaosRow {
            mtbf_s,
            nodes,
            jobs: scenario.len(),
            workers: worker_threads(),
            wall_clock_s,
            crashes_injected: fleet.faults.node_crashes.len(),
            nodes_lost: d.nodes_lost,
            jobs_lost: d.jobs_lost,
            jobs_rescheduled: d.jobs_rescheduled,
            jobs_orphaned: d.jobs_orphaned,
            completed_apps,
            failed_apps,
            node_lost_apps,
            completion_rate: completed_apps as f64 / scenario.len() as f64,
            mean_runtime_s: mean_secs,
            violations: res.violations.len(),
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                if r.mtbf_s == 0 {
                    "∞".into()
                } else {
                    r.mtbf_s.to_string()
                },
                r.crashes_injected.to_string(),
                r.nodes_lost.to_string(),
                r.jobs_lost.to_string(),
                r.jobs_rescheduled.to_string(),
                r.jobs_orphaned.to_string(),
                format!("{:.1}%", r.completion_rate * 100.0),
                fmt_runtime(r.mean_runtime_s),
                format!("{:.2}", r.wall_clock_s),
                r.violations.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "MTBF (s)",
                "crashes",
                "nodes lost",
                "jobs lost",
                "rescheduled",
                "orphaned",
                "completion",
                "mean runtime (s)",
                "wall (s)",
                "violations",
            ],
            &table
        )
    );

    for r in &rows {
        assert_eq!(
            r.violations, 0,
            "MTBF {} point must pass the fleet oracle",
            r.mtbf_s
        );
        assert_eq!(
            r.jobs_lost,
            r.jobs_rescheduled + r.jobs_orphaned,
            "MTBF {}: every lost job must be rescheduled or orphaned",
            r.mtbf_s
        );
        if r.mtbf_s != 0 {
            assert!(
                r.nodes_lost > 0,
                "MTBF {} must actually lose nodes",
                r.mtbf_s
            );
        }
        if let Some(budget) = budget_s {
            assert!(
                r.wall_clock_s <= budget,
                "MTBF {} point took {:.2}s, over the {budget}s budget",
                r.mtbf_s,
                r.wall_clock_s
            );
        }
    }
    let clean = &rows[0];
    assert_eq!(clean.nodes_lost, 0, "the control point injects nothing");
    assert!(
        rows.iter().skip(1).all(|r| r.jobs_lost >= 1),
        "chaotic points must lose at least one resident job"
    );
    bench.finish(&rows);
}
