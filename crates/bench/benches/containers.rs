//! Extension experiment: M3 vs per-container static limits (§9's question).
//!
//! The paper asks whether M3 extends to containers. The natural container
//! baseline — what MemOpLight's world looks like before its feedback loop —
//! is a static `memory.high` limit per application container: a container
//! that exceeds its limit receives reclaim pressure once per second, but
//! the limits themselves never move. This harness runs the CMW 180
//! workload with M3-capable applications under:
//!
//! 1. **M3** — one global monitor, adaptive thresholds, Algorithm 1;
//! 2. **equal containers** — 62 GiB split evenly;
//! 3. **demand-proportional containers** — limits proportional to each
//!    application's full working set (the best static guess an operator
//!    with perfect profiling could make).
//!
//! Expected: M3 wins both, because container limits cannot follow the
//! workload's phase shifts — the same reason static heaps lose in Fig. 5.

use m3_bench::{render_table, BenchTimer};
use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use m3_workloads::faults::FaultPlan;
use m3_workloads::machine::{Machine, MachineConfig, RunResult};
use m3_workloads::runner::run_scenario;
use m3_workloads::scenario::Scenario;
use m3_workloads::settings::{blueprint_for, AppConfig, Setting};
use serde::Serialize;

#[derive(Serialize)]
struct ContainerRow {
    policy: String,
    mean_runtime_s: Option<f64>,
    per_app_s: Vec<Option<f64>>,
}

fn mean_runtime(res: &RunResult) -> (Option<f64>, Vec<Option<f64>>) {
    let rts: Vec<Option<f64>> = res
        .apps
        .iter()
        .map(|a| {
            if a.failed || a.killed {
                None
            } else {
                a.runtime().map(|d| d.as_secs_f64())
            }
        })
        .collect();
    let mean = if rts.iter().any(Option::is_none) {
        None
    } else {
        Some(rts.iter().flatten().sum::<f64>() / rts.len() as f64)
    };
    (mean, rts)
}

fn run_containers(scenario: &Scenario, limits: Vec<u64>) -> (Option<f64>, Vec<Option<f64>>) {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    // The apps are M3-capable (they can handle pressure signals), but the
    // pressure source is their container limit, not a global monitor.
    let schedule = scenario
        .apps
        .iter()
        .enumerate()
        .map(|(i, &(kind, start))| {
            let bp = blueprint_for(kind, &AppConfig::stock_default(), true);
            (m3_workloads::app_name(kind.code(), i), start, bp)
        })
        .collect();
    let res = Machine::new(cfg).run_with(schedule, &FaultPlan::none(), &[], Some(limits));
    mean_runtime(&res)
}

fn main() {
    let bench = BenchTimer::start("containers");
    let scenario = Scenario::uniform("CMW", 180);
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);

    println!(
        "Containers extension — {} with M3-capable apps\n",
        scenario.name
    );
    let m3 = run_scenario(&scenario, &Setting::m3(scenario.len()), cfg);
    let (m3_mean, m3_apps) = {
        let (m, a) = (m3.mean_runtime_secs(), m3.runtimes_secs());
        (m, a)
    };

    // Equal split of the 62-GiB top.
    let equal = vec![62 * GIB / 3; 3];
    let (eq_mean, eq_apps) = run_containers(&scenario, equal);

    // Demand-proportional: working sets C ≈ 46, M ≈ 18, W ≈ 40 GiB → split
    // 62 GiB as 27/11/24.
    let prop = vec![27 * GIB, 11 * GIB, 24 * GIB];
    let (pr_mean, pr_apps) = run_containers(&scenario, prop);

    let rows = vec![
        ContainerRow {
            policy: "M3 (global monitor)".into(),
            mean_runtime_s: m3_mean,
            per_app_s: m3_apps,
        },
        ContainerRow {
            policy: "equal container limits".into(),
            mean_runtime_s: eq_mean,
            per_app_s: eq_apps,
        },
        ContainerRow {
            policy: "demand-proportional limits".into(),
            mean_runtime_s: pr_mean,
            per_app_s: pr_apps,
        },
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.policy.clone(),
                r.mean_runtime_s
                    .map_or("FAIL".into(), |v| format!("{v:.0}")),
                r.per_app_s
                    .iter()
                    .map(|x| x.map_or("FAIL".into(), |v| format!("{v:.0}")))
                    .collect::<Vec<_>>()
                    .join(" / "),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["policy", "mean runtime (s)", "per-app (s)"], &table)
    );
    if let (Some(m), Some(p)) = (m3_mean, pr_mean) {
        println!(
            "M3 vs best container policy: {:.2}x  (static limits cannot follow phase shifts)",
            p / m
        );
    }
    bench.finish(&rows);
}
