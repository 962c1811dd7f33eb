//! Integration tests for the post-paper extensions (DESIGN.md §8):
//! containers, cluster aggregation, and the rate-curve variants.

use m3::prelude::*;
use m3::sim::clock::SimDuration;
use m3::workloads::cluster::run_cluster;
use m3::workloads::settings::blueprint_for;

fn quick_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

fn mean_runtime(res: &m3::workloads::machine::RunResult) -> Option<f64> {
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
    if rts.iter().any(Option::is_none) || rts.is_empty() {
        None
    } else {
        Some(rts.iter().flatten().sum::<f64>() / rts.len() as f64)
    }
}

#[test]
fn container_limits_pressure_their_members() {
    // Two M3-capable apps in containers: the one over its limit receives
    // pressure; the one within it stays untouched.
    let scenario = Scenario::uniform("CM", 0);
    let schedule: Vec<_> = scenario
        .apps
        .iter()
        .enumerate()
        .map(|(i, &(kind, start))| {
            let bp = blueprint_for(kind, &AppConfig::stock_default(), true);
            (m3::workloads::app_name(kind.code(), i), start, bp)
        })
        .collect();
    // The Go-Cache's full demand is ~46 GiB; a 10-GiB container must cap it.
    let res = Machine::new(quick_cfg()).run_with(
        schedule,
        &FaultPlan::none(),
        &[],
        Some(vec![10 * GIB, 40 * GIB]),
    );
    let cache = &res.apps[0];
    assert!(cache.finished.is_some(), "capped cache still completes");
    assert!(
        cache.peak_rss < 14 * GIB,
        "container pressure must cap the cache near its limit, peak = {:.1} GiB",
        cache.peak_rss as f64 / GIB as f64
    );
    let kmeans = &res.apps[1];
    assert!(kmeans.finished.is_some());
}

#[test]
fn m3_beats_static_containers_on_phase_shifting_workload() {
    let scenario = Scenario::uniform("CMW", 180);
    let m3 = run_scenario(&scenario, &Setting::m3(3), quick_cfg());
    let schedule: Vec<_> = scenario
        .apps
        .iter()
        .enumerate()
        .map(|(i, &(kind, start))| {
            let bp = blueprint_for(kind, &AppConfig::stock_default(), true);
            (m3::workloads::app_name(kind.code(), i), start, bp)
        })
        .collect();
    let contained = Machine::new(quick_cfg()).run_with(
        schedule,
        &FaultPlan::none(),
        &[],
        Some(vec![27 * GIB, 11 * GIB, 24 * GIB]),
    );
    let m3_mean = m3.mean_runtime_secs().expect("m3 finishes");
    let cont_mean = mean_runtime(&contained).expect("containers finish");
    assert!(
        m3_mean < cont_mean,
        "M3 ({m3_mean:.0}s) must beat static containers ({cont_mean:.0}s)"
    );
}

#[test]
fn cluster_runs_are_deterministic_per_node_count() {
    let scenario = Scenario::uniform("MM", 60);
    let a = run_cluster(&scenario, &Setting::m3(2), quick_cfg(), 3);
    let b = run_cluster(&scenario, &Setting::m3(2), quick_cfg(), 3);
    assert_eq!(a.app_runtimes_s, b.app_runtimes_s);
    assert_eq!(a.per_node_s, b.per_node_s);
}

#[test]
fn cluster_runtime_is_at_least_single_node() {
    let scenario = Scenario::uniform("M", 0);
    let single = run_scenario(&scenario, &Setting::m3(1), quick_cfg());
    let cluster = run_cluster(&scenario, &Setting::m3(1), quick_cfg(), 4);
    let single_rt = single.runtimes_secs()[0].expect("finishes");
    let cluster_rt = cluster.app_runtimes_s[0].expect("finishes");
    // The slowest of 4 perturbed nodes cannot beat... every node, but the
    // salt-0 single node is not in the cluster set; allow a small margin.
    assert!(
        cluster_rt >= single_rt * 0.8,
        "slowest-node aggregation should not be dramatically faster"
    );
}

#[test]
fn rate_curves_all_complete_the_workload() {
    use m3::core::RateCurve;
    use m3::workloads::apps::AppBlueprint;
    for curve in [RateCurve::Linear, RateCurve::Exponential, RateCurve::Step] {
        let scenario = Scenario::uniform("MM", 60);
        let schedule: Vec<_> = scenario
            .apps
            .iter()
            .enumerate()
            .map(|(i, &(kind, start))| {
                let mut bp = blueprint_for(kind, &AppConfig::stock_default(), true);
                if let AppBlueprint::Spark { spark, .. } = &mut bp {
                    spark.rate_curve = curve;
                }
                (m3::workloads::app_name(kind.code(), i), start, bp)
            })
            .collect();
        let mut cfg = quick_cfg();
        cfg.monitor = Some(MonitorConfig::paper_64gb());
        let res = Machine::new(cfg).run(schedule);
        assert!(res.all_finished(), "{curve:?} must still complete");
    }
}

#[test]
fn crash_mid_run_frees_memory_for_survivors() {
    // Failure injection: kill the Go-Cache 120 s in. The survivors must
    // keep running, the dead process's memory must return to the pool, and
    // the monitor must sweep its stale registration.
    use m3::workloads::settings::blueprint_for;
    let scenario = Scenario::uniform("CM", 0);
    let schedule: Vec<_> = scenario
        .apps
        .iter()
        .enumerate()
        .map(|(i, &(kind, start))| {
            let bp = blueprint_for(kind, &AppConfig::stock_default(), true);
            (m3::workloads::app_name(kind.code(), i), start, bp)
        })
        .collect();
    let mut cfg = quick_cfg();
    cfg.monitor = Some(MonitorConfig::paper_64gb());
    let crash = FaultPlan::none().with_crash(SimDuration::from_secs(120), 0);
    let res = Machine::new(cfg).run_with(schedule, &crash, &[], None);
    let cache = &res.apps[0];
    assert!(cache.killed, "the injected crash must be recorded");
    assert!(cache.finished.is_none());
    let kmeans = &res.apps[1];
    assert!(
        kmeans.finished.is_some() && !kmeans.killed,
        "the survivor must complete: {kmeans:?}"
    );
    // No residual memory after the run.
    assert!(res.end > SimTime::from_secs(120));
}

#[test]
fn chaos_on_all_apps_ends_the_run() {
    use m3::workloads::settings::blueprint_for;
    let scenario = Scenario::uniform("MM", 0);
    let schedule: Vec<_> = scenario
        .apps
        .iter()
        .enumerate()
        .map(|(i, &(kind, start))| {
            let bp = blueprint_for(kind, &AppConfig::stock_default(), true);
            (m3::workloads::app_name(kind.code(), i), start, bp)
        })
        .collect();
    let mut cfg = quick_cfg();
    cfg.monitor = Some(MonitorConfig::paper_64gb());
    let crashes = FaultPlan::none()
        .with_crash(SimDuration::from_secs(30), 0)
        .with_crash(SimDuration::from_secs(40), 1);
    let res = Machine::new(cfg).run_with(schedule, &crashes, &[], None);
    assert!(res.apps.iter().all(|a| a.killed));
    assert!(
        res.end < SimTime::from_secs(120),
        "the run must terminate promptly once everyone is dead, ended at {}",
        res.end
    );
}
