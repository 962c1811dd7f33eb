//! Determinism regression tests for the experiment harness.
//!
//! The parallel harness is only sound if a run is a pure function of
//! `(scenario, setting, machine_cfg)`. These tests pin that down at the
//! byte level: the serialized `RunResult` must be identical whether the run
//! executes serially or through the parallel harness at 1/4/8 workers
//! (twice each). That the world loop's idle skip matches ticking through
//! every idle window is checked against a tick-by-tick reference in
//! `m3-workloads`' unit tests (`machine::tests`).

use m3::os::SignalFaultConfig;
use m3::sim::clock::SimDuration;
use m3::sim::units::MIB;
use m3::workloads::faults::FaultPlan;
use m3::workloads::machine::MachineConfig;
use m3::workloads::runner::{run_scenario, run_scenario_with_faults};
use m3::workloads::scenario::Scenario;
use m3::workloads::settings::Setting;
use m3::workloads::{parallel_map, run_scenario_cached};

/// A small but representative job mix: stock and M3 regimes, solo and
/// staggered multi-app schedules, analytics and cache kinds — with profile
/// sampling on, so the serialized result covers every `RunResult` field.
fn jobs() -> Vec<(Scenario, Setting, MachineConfig)> {
    let cfg = MachineConfig::stock_64gb();
    vec![
        (Scenario::uniform("M", 0), Setting::default_for(1), cfg),
        (Scenario::uniform("M", 0), Setting::m3(1), cfg),
        (Scenario::uniform("MM", 60), Setting::m3(2), cfg),
        (Scenario::uniform("CM", 120), Setting::m3(2), cfg),
    ]
}

fn run_bytes(scenario: &Scenario, setting: &Setting, cfg: MachineConfig) -> String {
    serde_json::to_string(&run_scenario(scenario, setting, cfg).run).expect("serialize run")
}

#[test]
fn parallel_harness_matches_serial_at_1_4_8_workers() {
    let jobs = jobs();
    let reference: Vec<String> = jobs
        .iter()
        .map(|(s, set, cfg)| run_bytes(s, set, *cfg))
        .collect();
    for workers in [1, 4, 8] {
        for rep in 0..2 {
            let outs = parallel_map(jobs.clone(), workers, |(s, set, cfg)| {
                run_scenario_cached(&s, &set, cfg)
            });
            assert_eq!(outs.len(), jobs.len());
            for (i, out) in outs.iter().enumerate() {
                let bytes = serde_json::to_string(&out.run).expect("serialize run");
                assert_eq!(
                    reference[i], bytes,
                    "parallel run diverged: workers={workers} rep={rep} job={i}"
                );
            }
        }
    }
}

#[test]
fn uncached_parallel_fanout_matches_serial() {
    // `run_scenario_cached` may answer repeats from the memo cache;
    // this variant forces a fresh simulation per job on every worker count,
    // proving the fan-out itself (not just the cache) is deterministic.
    let jobs = jobs();
    let reference: Vec<String> = jobs
        .iter()
        .map(|(s, set, cfg)| run_bytes(s, set, *cfg))
        .collect();
    for workers in [1, 4, 8] {
        let bytes = parallel_map(jobs.clone(), workers, |(s, set, cfg)| {
            run_bytes(&s, &set, cfg)
        });
        assert_eq!(
            reference, bytes,
            "fresh fan-out diverged at {workers} workers"
        );
    }
}

#[test]
fn cache_trace_sweep_is_deterministic_across_workers_and_repeats() {
    // The BENCH_cache_trace scenario at CI-smoke scale: every
    // (pattern, policy) point must serialize byte-identically whether the
    // sweep runs serially, fanned out on 1 or 8 workers, or answered from
    // the memo cache on a repeat invocation (M3_JOBS only changes worker
    // count, never results).
    use m3::prelude::{run_cache_trace, run_cache_trace_cached, CachePolicy};
    use m3::prelude::{TraceWorkload, TrafficPattern};

    let patterns = [
        TrafficPattern::Burst,
        TrafficPattern::Diurnal,
        TrafficPattern::HotKeyShift,
    ];
    let points: Vec<(TraceWorkload, CachePolicy)> = patterns
        .iter()
        .flat_map(|&p| {
            let twl = TraceWorkload {
                key_space: 40_000,
                total_ops: 250_000,
                phase_ops: 62_500,
                ..TraceWorkload::smoke(p)
            };
            CachePolicy::ALL.map(|policy| (twl, policy))
        })
        .collect();
    let reference: Vec<String> = points
        .iter()
        .map(|(twl, policy)| {
            serde_json::to_string(&run_cache_trace(*twl, *policy)).expect("serialize outcome")
        })
        .collect();
    for workers in [1, 8] {
        let bytes = parallel_map(points.clone(), workers, |(twl, policy)| {
            serde_json::to_string(&run_cache_trace(twl, policy)).expect("serialize outcome")
        });
        assert_eq!(
            reference, bytes,
            "cache-trace fan-out diverged at {workers} workers"
        );
    }
    // Memoized repeats: the second lookup is answered from the cache and
    // must still match the fresh serial reference byte for byte.
    for rep in 0..2 {
        for (i, (twl, policy)) in points.iter().enumerate() {
            let cached = run_cache_trace_cached(*twl, *policy);
            let bytes = serde_json::to_string(&*cached).expect("serialize outcome");
            assert_eq!(
                reference[i], bytes,
                "memoized cache-trace run diverged: rep={rep} point={i}"
            );
        }
    }
}

#[test]
fn mixed_criticality_colocation_is_deterministic_across_repeats() {
    // The criticality machinery (class-aware kill ordering, fleet
    // preemption, SLO accounting) must not perturb determinism: the
    // memcached+Spark co-location fleet serializes byte-identically when
    // it is run again, its node runs then all run-cache hits.
    use m3::prelude::*;
    use m3::workloads::scenario::mixed_criticality_scenario;

    let scenario = mixed_criticality_scenario(4, 3_600_000);
    let setting = Setting::m3(scenario.len());
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    let mut fleet = FleetConfig::homogeneous(2, 64 * GIB);
    fleet.rebalance_checks = 10;
    let a = run_fleet(&scenario, &setting, cfg, &fleet);
    let b = run_fleet(&scenario, &setting, cfg, &fleet);
    assert_eq!(
        serde_json::to_string(&a).expect("serialize fleet"),
        serde_json::to_string(&b).expect("serialize fleet"),
        "a repeat changed the mixed-criticality result"
    );
}

/// A fault plan touching every injection channel: app faults, a lossy and
/// laggy signal bus, and a monitor poll outage.
fn chaos_plan() -> FaultPlan {
    FaultPlan::none()
        .with_unresponsive(SimDuration::from_secs(90), 0, 0.25)
        .with_leak(SimDuration::from_secs(60), 1, 8 * MIB)
        .with_signal_faults(SignalFaultConfig {
            drop_prob: 0.2,
            delay_prob: 0.3,
            delay: SimDuration::from_secs(2),
            seed: 77,
        })
        .with_poll_outage(SimDuration::from_secs(120), SimDuration::from_secs(30))
}

fn chaos_bytes(scenario: &Scenario, setting: &Setting, cfg: MachineConfig) -> String {
    let plan = chaos_plan();
    serde_json::to_string(&run_scenario_with_faults(scenario, setting, cfg, &plan).run)
        .expect("serialize run")
}

#[test]
fn chaos_runs_are_deterministic_across_paths_and_workers() {
    // Fault injection must not perturb determinism: the seeded lossy bus
    // must replay the same drop/delay sequence on every worker.
    let jobs = jobs();
    let reference: Vec<String> = jobs
        .iter()
        .map(|(s, set, cfg)| chaos_bytes(s, set, *cfg))
        .collect();
    for workers in [1, 4] {
        let bytes = parallel_map(jobs.clone(), workers, |(s, set, cfg)| {
            chaos_bytes(&s, &set, cfg)
        });
        assert_eq!(
            reference, bytes,
            "chaos fan-out diverged at {workers} workers"
        );
    }
}
