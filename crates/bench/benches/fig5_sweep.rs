//! Wall-clock benchmark of the parallel experiment harness itself.
//!
//! The payload is the Fig. 5 sweep — the twelve evaluation workloads, each
//! run under M3 and under Default (24 independent runs). The sweep is
//! executed three ways:
//!
//! 1. **serial** — a plain loop over `run_scenario`, the pre-harness
//!    behaviour and the correctness reference;
//! 2. **parallel** — the same fresh runs fanned out over the worker pool
//!    with [`m3_workloads::parallel_map`];
//! 3. **memoized** — [`m3_workloads::run_scenario_cached`] fanned out the
//!    same way, twice: the first pass fills the content-addressed run
//!    cache, the second replays it without simulating anything.
//!
//! All three produce byte-identical outcomes (asserted here and pinned
//! down in `tests/determinism.rs`); only the wall clock differs. The
//! speedups depend on the host: the parallel/serial ratio tracks the
//! core count (`workers` in the report), the replay pass is near-free
//! everywhere.

use std::time::Instant;

use m3_bench::{render_table, BenchTimer};
use m3_sim::clock::SimDuration;
use m3_workloads::machine::MachineConfig;
use m3_workloads::runner::{run_scenario, ScenarioOutcome};
use m3_workloads::scenario::{figure5_scenarios, Scenario};
use m3_workloads::settings::Setting;
use m3_workloads::{cache_stats, parallel_map, run_scenario_cached, worker_threads};
use serde::Serialize;

#[derive(Serialize)]
struct SweepReport {
    jobs: usize,
    workers: usize,
    serial_secs: f64,
    parallel_secs: f64,
    parallel_speedup: f64,
    memo_first_pass_secs: f64,
    memo_replay_secs: f64,
    memo_replay_speedup_vs_serial: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    per_job: Vec<JobRow>,
}

#[derive(Serialize)]
struct JobRow {
    workload: String,
    setting: String,
    mean_runtime_s: Option<f64>,
}

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

fn outcome_bytes(o: &ScenarioOutcome) -> String {
    serde_json::to_string(o).expect("serialize outcome")
}

fn main() {
    let bench = BenchTimer::start("fig5_sweep");
    let cfg = machine();
    let jobs: Vec<(Scenario, Setting, MachineConfig)> = figure5_scenarios()
        .into_iter()
        .flat_map(|s| {
            let n = s.len();
            [
                (s.clone(), Setting::m3(n), cfg),
                (s, Setting::default_for(n), cfg),
            ]
        })
        .collect();
    let workers = worker_threads();
    println!(
        "Fig. 5 sweep: {} runs (12 workloads x M3/Default), {} worker(s)\n",
        jobs.len(),
        workers
    );

    // 1. Serial reference: the pre-harness behaviour.
    let t = Instant::now();
    let serial: Vec<ScenarioOutcome> = jobs
        .iter()
        .map(|(s, set, cfg)| run_scenario(s, set, *cfg))
        .collect();
    let serial_secs = t.elapsed().as_secs_f64();

    // 2. Parallel, fresh computation per job (no memoization involved).
    let t = Instant::now();
    let parallel: Vec<ScenarioOutcome> = parallel_map(jobs.clone(), workers, |(s, set, cfg)| {
        run_scenario(&s, &set, cfg)
    });
    let parallel_secs = t.elapsed().as_secs_f64();

    // 3. Memoized harness: first pass computes and fills the cache, the
    //    replay pass answers everything from it.
    let memoized = || {
        parallel_map(jobs.clone(), workers, |(s, set, cfg)| {
            run_scenario_cached(&s, &set, cfg)
        })
    };
    let cache_before = cache_stats();
    let t = Instant::now();
    let warm = memoized();
    let memo_first_pass_secs = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let replay = memoized();
    let memo_replay_secs = t.elapsed().as_secs_f64();
    let cache_delta = cache_stats().since(&cache_before);

    // Every execution mode must agree byte for byte.
    for (i, a) in serial.iter().enumerate() {
        let reference = outcome_bytes(a);
        assert_eq!(reference, outcome_bytes(&parallel[i]), "job {i} (parallel)");
        assert_eq!(reference, outcome_bytes(&warm[i]), "job {i} (memo warm)");
        assert_eq!(
            reference,
            outcome_bytes(&replay[i]),
            "job {i} (memo replay)"
        );
    }
    println!(
        "all {} runs byte-identical across execution modes\n",
        jobs.len()
    );

    let per_job: Vec<JobRow> = jobs
        .iter()
        .zip(&serial)
        .map(|((s, set, _), out)| JobRow {
            workload: s.name.clone(),
            setting: set.kind.label().to_string(),
            mean_runtime_s: out.mean_runtime_secs(),
        })
        .collect();
    let report = SweepReport {
        jobs: jobs.len(),
        workers,
        serial_secs,
        parallel_secs,
        parallel_speedup: serial_secs / parallel_secs.max(1e-9),
        memo_first_pass_secs,
        memo_replay_secs,
        memo_replay_speedup_vs_serial: serial_secs / memo_replay_secs.max(1e-9),
        cache_hits: cache_delta.hits,
        cache_misses: cache_delta.misses,
        cache_hit_rate: cache_delta.hit_rate(),
        per_job,
    };
    println!(
        "{}",
        render_table(
            &["mode", "wall clock (s)", "speedup vs serial"],
            &[
                vec!["serial".into(), format!("{serial_secs:.2}"), "1.00x".into()],
                vec![
                    format!("parallel x{workers}"),
                    format!("{parallel_secs:.2}"),
                    format!("{:.2}x", report.parallel_speedup),
                ],
                vec![
                    "memo replay".into(),
                    format!("{memo_replay_secs:.3}"),
                    format!("{:.0}x", report.memo_replay_speedup_vs_serial),
                ],
            ],
        )
    );
    println!(
        "memo cache: {} hits / {} misses ({:.0}% hit rate over both passes)",
        report.cache_hits,
        report.cache_misses,
        report.cache_hit_rate * 100.0
    );
    bench.finish(&report);
}
