//! Mixed-criticality co-location: batch load vs critical-tier SLO debt.
//!
//! The flagship criticality experiment: a latency-critical memcached-style
//! cache tier arrives on a one-node fleet *after* an increasing number of
//! batch Spark k-means jobs. Under the classified scheduler the cache
//! preempts a batch reservation instead of queueing behind it and the
//! node's kill ordering shields it from reclamation; under the
//! criticality-unaware baseline (the same workload with its classes
//! stripped) the cache waits its turn and absorbs the pressure, so its SLO
//! debt grows with batch load. Every point — classified and unaware — must
//! replay through the conformance oracles with zero violations. The test
//! suite shows the oracles catch criticality-*violating* kill ordering and
//! preemption, on real traces with their classes relabelled.
//!
//! Knobs: `M3_MIXED_CRIT_MAX_BATCH` caps the sweep's batch load (default
//! 8); `M3_MIXED_CRIT_BUDGET_S` asserts a per-point wall-clock budget.
//! A fleet run is serial and reads no worker count: each point's
//! `workers` field only records `M3_JOBS`.

use m3_bench::{fmt_runtime, render_table, BenchTimer};
use m3_sim::clock::SimDuration;
use m3_sim::trace::{Criticality, TraceData};
use m3_sim::units::GIB;
use m3_workloads::fleet::{run_fleet, FleetConfig, FleetResult};
use m3_workloads::machine::MachineConfig;
use m3_workloads::scenario::mixed_criticality_scenario;
use m3_workloads::settings::Setting;
use m3_workloads::worker_threads;
use serde::Serialize;

/// The cache tier's latency SLO: submission-to-completion wall time, ms.
/// Generous against a solo run, tight enough that queueing behind a batch
/// backlog blows it.
const SLO_MS: u64 = 2_600_000;

#[derive(Serialize)]
struct MixedCritRow {
    /// Co-located batch k-means jobs ahead of the cache tier.
    batch: usize,
    /// `"classified"` or `"unaware"` (classes stripped).
    setting: String,
    workers: usize,
    wall_clock_s: f64,
    /// Cache-tier wall time from submission, seconds.
    cache_runtime_s: Option<f64>,
    /// Cache-tier SLO debt: max(0, runtime − SLO), ms; `None` = no run.
    slo_debt_ms: Option<u64>,
    /// Whether the cache tier met its SLO (unaware runs are scored against
    /// the same SLO the classified run declares).
    slo_met: Option<bool>,
    /// Admission deferrals the cache tier absorbed.
    cache_deferrals: u32,
    /// Reclamation-handler stall the cache tier absorbed, ms.
    cache_stall_ms: u64,
    /// Batch reservations preempted for the cache tier.
    preemptions: usize,
    /// Batch-tier completions (the cost side of the preemption trade).
    batch_completed: usize,
    batch_jobs: usize,
    /// Batch-tier requeues caused by preemption or node loss.
    batch_reschedules: u32,
    batch_mean_runtime_s: Option<f64>,
    violations: usize,
}

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.capture_trace = false;
    cfg.max_time = SimDuration::from_secs(60_000);
    cfg
}

/// One cramped 24-GiB node: its top of memory (~23.3 GiB) holds exactly one
/// 21-GiB batch k-means reservation, so the cache tier cannot co-locate
/// beside a batch resident — admission is a genuine criticality decision,
/// not a formality.
fn one_node_fleet() -> FleetConfig {
    let mut fleet = FleetConfig::homogeneous(1, 24 * GIB);
    fleet.rebalance_checks = 10;
    fleet.max_defers = 100;
    fleet
}

fn row_for(batch: usize, setting: &str, res: &FleetResult, wall_clock_s: f64) -> MixedCritRow {
    let cache = res.jobs.last().expect("the cache tier is the last job");
    let runtime_ms = cache.runtime_s.map(|s| (s * 1000.0).round() as u64);
    let preemptions = res
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e.data, TraceData::SchedClassPreempt { .. }))
        .count();
    let batch_jobs = &res.jobs[..batch];
    let batch_runtimes: Vec<f64> = batch_jobs.iter().filter_map(|j| j.runtime_s).collect();
    MixedCritRow {
        batch,
        setting: setting.to_string(),
        workers: worker_threads(),
        wall_clock_s,
        cache_runtime_s: cache.runtime_s,
        slo_debt_ms: runtime_ms.map(|ms| ms.saturating_sub(SLO_MS)),
        slo_met: runtime_ms.map(|ms| ms <= SLO_MS),
        cache_deferrals: cache.deferrals,
        cache_stall_ms: cache.stall_ms,
        preemptions,
        batch_completed: batch_runtimes.len(),
        batch_jobs: batch,
        batch_reschedules: batch_jobs.iter().map(|j| j.reschedules).sum(),
        batch_mean_runtime_s: if batch_runtimes.is_empty() {
            None
        } else {
            Some(batch_runtimes.iter().sum::<f64>() / batch_runtimes.len() as f64)
        },
        violations: res.violations.len(),
    }
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn main() {
    let bench = BenchTimer::start("mixed_criticality");
    let max_batch = env_usize("M3_MIXED_CRIT_MAX_BATCH").unwrap_or(8);
    let budget_s = env_f64("M3_MIXED_CRIT_BUDGET_S");
    let fleet = one_node_fleet();
    println!(
        "Mixed-criticality co-location — batch load vs cache-tier SLO debt (SLO {SLO_MS} ms)\n"
    );

    let mut rows = Vec::new();
    for batch in [2usize, 4, 6, 8].into_iter().filter(|&b| b <= max_batch) {
        let classified = mixed_criticality_scenario(batch, SLO_MS);
        let unaware = classified.clone().with_classes(Vec::new());
        for (label, scenario) in [("classified", &classified), ("unaware", &unaware)] {
            let setting = Setting::m3(scenario.len());
            let started = std::time::Instant::now();
            let res = run_fleet(scenario, &setting, machine(), &fleet);
            let wall_clock_s = started.elapsed().as_secs_f64();
            rows.push(row_for(batch, label, &res, wall_clock_s));
            // The classified run's own SLO accounting must agree with the
            // bench's external scoring.
            if label == "classified" {
                let cache = res.jobs.last().expect("cache job");
                assert_eq!(cache.crit, Criticality::LatencyCritical);
                assert_eq!(cache.slo_ms, SLO_MS);
                assert_eq!(
                    cache.slo_met,
                    rows.last().expect("just pushed").slo_met,
                    "fleet SLO accounting disagrees with the bench at batch={batch}"
                );
            }
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                r.setting.clone(),
                fmt_runtime(r.cache_runtime_s),
                r.slo_debt_ms
                    .map_or_else(|| "FAIL".into(), |d| d.to_string()),
                r.slo_met
                    .map_or_else(|| "-".into(), |m| if m { "yes" } else { "NO" }.to_string()),
                r.cache_deferrals.to_string(),
                r.preemptions.to_string(),
                format!("{}/{}", r.batch_completed, r.batch_jobs),
                fmt_runtime(r.batch_mean_runtime_s),
                format!("{:.2}", r.wall_clock_s),
                r.violations.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "batch",
                "setting",
                "cache rt (s)",
                "SLO debt (ms)",
                "SLO met",
                "defers",
                "preempts",
                "batch done",
                "batch rt (s)",
                "wall (s)",
                "violations",
            ],
            &table
        )
    );

    for r in &rows {
        assert_eq!(
            r.violations, 0,
            "batch={} {} must pass the conformance oracles",
            r.batch, r.setting
        );
        assert!(
            r.cache_runtime_s.is_some(),
            "batch={} {}: the cache tier must complete",
            r.batch,
            r.setting
        );
        if r.setting == "classified" {
            assert_eq!(
                r.slo_met,
                Some(true),
                "batch={}: the classified scheduler must hold the cache SLO",
                r.batch
            );
        }
        if let Some(budget) = budget_s {
            assert!(
                r.wall_clock_s <= budget,
                "batch={} {} took {:.2}s, over the {budget}s budget",
                r.batch,
                r.setting,
                r.wall_clock_s
            );
        }
    }
    // The headline: at the highest swept load, classification is what holds
    // the SLO — the unaware baseline pays more debt than the classified run
    // at the same load.
    if let (Some(c), Some(u)) = (
        rows.iter()
            .rev()
            .find(|r| r.setting == "classified" && r.slo_debt_ms.is_some()),
        rows.iter()
            .rev()
            .find(|r| r.setting == "unaware" && r.slo_debt_ms.is_some()),
    ) {
        assert!(
            u.slo_debt_ms >= c.slo_debt_ms,
            "the unaware baseline must not beat the classified scheduler on SLO debt \
             (classified {:?} ms vs unaware {:?} ms at batch={})",
            c.slo_debt_ms,
            u.slo_debt_ms,
            u.batch
        );
    }
    bench.finish(&rows);
}
