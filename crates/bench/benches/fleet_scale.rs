//! Fleet-scale experiment: the pressure-aware scheduler at 8 → 10,000
//! nodes.
//!
//! Runs the wave-shaped fleet-scale workload (ten waves of `nodes` jobs,
//! so `10 * nodes` jobs per point — 100,000 at the top) through the
//! pressure-aware scheduler at growing fleet sizes, on a quarter-small
//! heterogeneous fleet (every fourth node is 32 GiB). Reports per-point
//! wall clock, scheduler activity, and the node-run cache's hit rate —
//! the content-addressed sharing that makes a 10k-node fleet simulate
//! only its few distinct node schedules. A replicated-worker point
//! (`run_cluster`: every node runs the whole schedule) and a memoized
//! repeat of the largest point ride along as contrast and regression
//! checks.
//!
//! Knobs: `M3_FLEET_SCALE_MAX_NODES` caps the curve (CI smoke runs 512);
//! `M3_FLEET_SCALE_BUDGET_S` asserts a per-point wall-clock budget;
//! `M3_JOBS` sets the worker count recorded in the report.

use m3_bench::{fmt_runtime, render_table, BenchTimer};
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_workloads::cluster::{run_cluster, ClusterMean, JobFailure};
use m3_workloads::fleet::{fleet_cache_stats, run_fleet_cached, FleetConfig, JobOutcome, NodeSpec};
use m3_workloads::machine::MachineConfig;
use m3_workloads::parallel::cache_stats;
use m3_workloads::scenario::{fleet_canonical, fleet_scale_scenario, Scenario};
use m3_workloads::settings::Setting;
use m3_workloads::worker_threads;
use serde::Serialize;

#[derive(Serialize)]
struct FleetRow {
    nodes: usize,
    jobs: usize,
    scheduler: bool,
    wall_clock_s: f64,
    workers: usize,
    mean_runtime_s: Option<f64>,
    completed_apps: usize,
    failed_apps: usize,
    deferrals: u64,
    migrations: u64,
    gave_up: usize,
    violations: usize,
    /// Node-run cache activity of this point: misses = distinct node
    /// simulations actually run, hit rate = the content-addressed sharing
    /// across the fleet's nodes and probe times.
    node_cache_hits: u64,
    node_cache_misses: u64,
    node_cache_hit_rate: f64,
}

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.capture_trace = false;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

/// A fleet of `n` nodes where every fourth one is a small 32-GiB worker —
/// heterogeneity the candidate index and admission control must respect.
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

/// One point: `scenario` on `fleet`, or with no fleet on `nodes` replicated
/// workers that each run the whole schedule — no placements, so no per-job
/// outcomes and nothing for the fleet oracle to check.
fn run_row(scenario: &Scenario, nodes: usize, fleet: Option<&FleetConfig>) -> FleetRow {
    let setting = Setting::m3(scenario.len());
    let cache_before = cache_stats();
    let started = std::time::Instant::now();
    let scheduled;
    let (mean, jobs, violations): (ClusterMean, &[JobOutcome], usize) = match fleet {
        Some(fleet) => {
            scheduled = run_fleet_cached(scenario, &setting, machine(), fleet);
            (
                scheduled.class_mean(),
                &scheduled.jobs,
                scheduled.violations.len(),
            )
        }
        None => {
            let replicated = run_cluster(scenario, &setting, machine(), nodes);
            (replicated.mean_runtime_secs(), &[], 0)
        }
    };
    let wall_clock_s = started.elapsed().as_secs_f64();
    let cache = cache_stats().since(&cache_before);
    let ClusterMean {
        mean_secs,
        completed_apps,
        failed_apps,
        ..
    } = mean;
    FleetRow {
        nodes,
        jobs: scenario.len(),
        scheduler: fleet.is_some(),
        wall_clock_s,
        workers: worker_threads(),
        mean_runtime_s: mean_secs,
        completed_apps,
        failed_apps,
        deferrals: jobs.iter().map(|j| j.deferrals as u64).sum(),
        migrations: jobs.iter().map(|j| j.migrations as u64).sum(),
        gave_up: jobs
            .iter()
            .filter(|j| j.failure == Some(JobFailure::GaveUp))
            .count(),
        violations,
        node_cache_hits: cache.hits,
        node_cache_misses: cache.misses,
        node_cache_hit_rate: cache.hit_rate(),
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn main() {
    let bench = BenchTimer::start("fleet_scale");
    let max_nodes = env_usize("M3_FLEET_SCALE_MAX_NODES").unwrap_or(10_000);
    let budget_s = env_f64("M3_FLEET_SCALE_BUDGET_S");
    println!("Fleet scheduler scaling — wave workload, 10 jobs/node\n");

    let mut rows = Vec::new();
    for nodes in [8usize, 64, 512, 4096, 10_000] {
        if nodes > max_nodes {
            println!("[skipping {nodes} nodes: M3_FLEET_SCALE_MAX_NODES={max_nodes}]");
            continue;
        }
        let scenario = fleet_scale_scenario(nodes);
        rows.push(run_row(&scenario, nodes, Some(&quarter_small_fleet(nodes))));
    }
    // Contrast: the replicated-worker setup on the canonical mix (every
    // node runs the whole schedule; no placement decisions at all).
    rows.push(run_row(&fleet_canonical(), 8, None));
    // Re-running the largest scheduled point must be a pure cache hit.
    let largest = rows
        .iter()
        .filter(|r| r.scheduler)
        .map(|r| r.nodes)
        .max()
        .expect("at least one scheduled point");
    let before = fleet_cache_stats();
    rows.push(run_row(
        &fleet_scale_scenario(largest),
        largest,
        Some(&quarter_small_fleet(largest)),
    ));
    let delta = fleet_cache_stats().since(&before);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.jobs.to_string(),
                if r.scheduler { "fleet" } else { "replicated" }.into(),
                format!("{:.2}", r.wall_clock_s),
                fmt_runtime(r.mean_runtime_s),
                format!("{}/{}", r.completed_apps, r.completed_apps + r.failed_apps),
                r.deferrals.to_string(),
                r.migrations.to_string(),
                r.gave_up.to_string(),
                r.violations.to_string(),
                format!("{:.0}%", r.node_cache_hit_rate * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "nodes",
                "jobs",
                "mode",
                "wall (s)",
                "mean runtime (s)",
                "completed",
                "deferrals",
                "migrations",
                "gave up",
                "violations",
                "sim cache",
            ],
            &table
        )
    );
    println!(
        "fleet memoization on repeat: {} hit(s), {} miss(es)",
        delta.hits, delta.misses
    );
    assert_eq!(delta.misses, 0, "repeated fleet run must be memoized");
    assert!(
        rows.iter().all(|r| r.violations == 0),
        "conformant fleet runs must pass the cluster oracle at every scale"
    );
    if let Some(budget) = budget_s {
        for r in &rows {
            assert!(
                r.wall_clock_s <= budget,
                "{}-node point took {:.2}s, over the {budget}s budget",
                r.nodes,
                r.wall_clock_s
            );
        }
    }
    bench.finish(&rows);
}
