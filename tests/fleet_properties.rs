//! Property-based tests of the fleet scheduler's placement invariants.
//!
//! Over randomly generated workloads and fleet shapes (heterogeneous node
//! sizes included): every job is placed exactly once or explicitly
//! resolved, admitted placements never exceed the target node's top of
//! memory, and identical inputs produce bit-identical placement logs.

use m3::prelude::*;
use m3::sim::trace::TraceData;
use m3::workloads::fleet::demand_estimate;
use proptest::prelude::*;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::stock_64gb();
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

/// Two to four jobs drawn from k-means / PageRank / Go-Cache, arriving at a
/// uniform delay. (n-weight is left to the integration suite: its long
/// runtimes add minutes per case without exercising different code paths.)
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (proptest::collection::vec(0usize..3, 2..5), 0usize..4).prop_map(|(kinds, delay_idx)| {
        let codes: String = kinds.iter().map(|&k| ['M', 'P', 'C'][k]).collect();
        Scenario::uniform(&codes, [0u64, 60, 180, 300][delay_idx])
    })
}

/// Two to four nodes, each either a paper-sized 64-GB worker or a cramped
/// 32-GB one that cannot admit the larger jobs — so deferral and give-up
/// paths are reached, not just the happy path.
fn fleet_strategy() -> impl Strategy<Value = FleetConfig> {
    (
        proptest::collection::vec(proptest::bool::ANY, 2..5),
        0u32..3,
        0u32..4,
    )
        .prop_map(|(small, max_defers, checks)| {
            let mut fleet = FleetConfig::homogeneous(small.len(), 64 * GIB);
            for (spec, small) in fleet.nodes.iter_mut().zip(&small) {
                if *small {
                    spec.phys_total = 32 * GIB;
                }
            }
            // At least one node a job of any kind fits on.
            fleet.nodes[0].phys_total = 64 * GIB;
            fleet.max_defers = max_defers;
            fleet.rebalance_checks = checks;
            fleet
        })
}

/// A random chaos plan: up to two node crashes, a flapping probe
/// endpoint, a delayed placement and maybe a scheduler restart, all over
/// the first few hundred nodes / first simulated hour so they actually
/// land on a 256-node fleet.
fn fleet_fault_plan_strategy() -> impl Strategy<Value = FleetFaultPlan> {
    (
        proptest::collection::vec((60u64..3_600, 0usize..256), 0..3),
        (
            proptest::bool::ANY,
            0usize..256,
            60u64..1_800,
            300u64..2_400,
        ),
        (proptest::bool::ANY, 0u64..4, 30u64..600),
        proptest::bool::ANY,
    )
        .prop_map(|(crashes, flap, delay, restart)| {
            let mut plan = FleetFaultPlan::none();
            for (at, node) in crashes {
                plan = plan.with_node_crash(SimDuration::from_secs(at), node);
            }
            if let (true, node, start, dur) = flap {
                plan = plan.with_flap(
                    node,
                    SimDuration::from_secs(start),
                    SimDuration::from_secs(dur),
                );
            }
            if let (true, job, d) = delay {
                plan = plan.with_placement_delay(job as usize, SimDuration::from_secs(d));
            }
            if restart {
                plan = plan.with_scheduler_restart(SimDuration::from_secs(1_500));
            }
            plan
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every submitted job is placed exactly once, or carries exactly one
    /// explicit give-up record — never both, never silently dropped.
    #[test]
    fn every_job_is_placed_once_or_explicitly_resolved(
        scenario in scenario_strategy(),
        fleet in fleet_strategy(),
    ) {
        let setting = Setting::m3(scenario.len());
        let res = run_fleet(&scenario, &setting, machine(), &fleet);
        prop_assert_eq!(res.jobs.len(), scenario.len());
        let mut places = vec![0u32; scenario.len()];
        let mut giveups = vec![0u32; scenario.len()];
        for e in res.trace.events() {
            match e.data {
                TraceData::FleetPlace { job, .. } => places[job as usize] += 1,
                TraceData::FleetGiveUp { job, .. } => giveups[job as usize] += 1,
                _ => {}
            }
        }
        for j in &res.jobs {
            if j.failure == Some(JobFailure::GaveUp) {
                prop_assert_eq!(places[j.job], 0, "job {} placed and given up", j.job);
                prop_assert_eq!(giveups[j.job], 1, "job {} lacks its give-up record", j.job);
                prop_assert!(j.node.is_none());
            } else {
                prop_assert_eq!(places[j.job], 1, "job {} not placed exactly once", j.job);
                prop_assert_eq!(giveups[j.job], 0);
                prop_assert!(j.node.is_some());
            }
        }
    }

    /// Under the default policy, no admitted placement pushes its target
    /// node past the top of memory: `used + demand <= top` at admission,
    /// straight from the recorded placement events.
    #[test]
    fn admitted_placements_fit_under_the_nodes_top(
        scenario in scenario_strategy(),
        fleet in fleet_strategy(),
    ) {
        let setting = Setting::m3(scenario.len());
        let res = run_fleet(&scenario, &setting, machine(), &fleet);
        for e in res.trace.events() {
            if let TraceData::FleetPlace { job, node, used, demand, top } = e.data {
                prop_assert!(
                    used.saturating_add(demand) <= top,
                    "job {job} on node {node}: used {used} + demand {demand} > top {top}"
                );
                let kind = scenario.apps[job as usize].0;
                prop_assert_eq!(demand, demand_estimate(kind));
            }
        }
        // The red-zone and grace invariants hold on every generated run.
        prop_assert!(res.violations.is_empty(), "violations: {:#?}", res.violations);
    }

    /// Chaos does not break the determinism contract: a randomized
    /// 256-node fleet under a random [`FleetFaultPlan`] produces a
    /// byte-identical serialized [`FleetResult`] — degradation report
    /// included — when it is run again, its node runs then all run-cache
    /// hits, with zero violations and every lost job accounted.
    #[test]
    fn chaos_is_deterministic_across_repeats(
        scenario in scenario_strategy(),
        small_stride in 2usize..6,
        plan in fleet_fault_plan_strategy(),
    ) {
        let mut fleet = FleetConfig::homogeneous(256, 64 * GIB);
        for (i, spec) in fleet.nodes.iter_mut().enumerate() {
            if i % small_stride == small_stride - 1 {
                spec.phys_total = 32 * GIB;
            }
        }
        fleet.faults = plan;
        let setting = Setting::m3(scenario.len());
        let a = run_fleet(&scenario, &setting, machine(), &fleet);
        let b = run_fleet(&scenario, &setting, machine(), &fleet);
        prop_assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "a repeat changed the chaotic fleet result"
        );
        prop_assert!(a.violations.is_empty(), "violations: {:#?}", a.violations);
        prop_assert_eq!(
            a.degradation.jobs_lost,
            a.degradation.jobs_rescheduled + a.degradation.jobs_orphaned,
            "lost-job accounting identity broke: {:#?}", a.degradation
        );
    }

    /// Classified fleets conform to the criticality contract on every
    /// random mix: zero oracle violations (kill ordering, preemption
    /// direction, SLO conservation), and every recorded preemption pairs a
    /// LatencyCritical admission with a strictly-more-expendable Batch
    /// victim.
    #[test]
    fn random_criticality_mixes_are_conformant(
        (scenario, fleet) in (scenario_strategy(), fleet_strategy()),
        mix_seed in proptest::collection::vec((0usize..3, proptest::bool::ANY), 4..5),
    ) {
        let classes: Vec<JobClass> = mix_seed
            .iter()
            .take(scenario.len())
            .map(|&(c, has_slo)| {
                let crit = Criticality::ALL[c];
                let slo_ms = if crit == Criticality::LatencyCritical && has_slo {
                    3_600_000
                } else {
                    0
                };
                JobClass::new(crit, slo_ms)
            })
            .collect();
        let scenario = scenario.with_classes(classes);
        let setting = Setting::m3(scenario.len());
        let res = run_fleet(&scenario, &setting, machine(), &fleet);
        prop_assert!(res.violations.is_empty(), "violations: {:#?}", res.violations);
        for e in res.trace.events() {
            if let TraceData::SchedClassPreempt { crit, victim_crit, .. } = e.data {
                prop_assert_eq!(crit, Criticality::LatencyCritical,
                    "only latency-critical jobs may preempt");
                prop_assert_eq!(victim_crit, Criticality::Batch,
                    "only batch reservations are preemptible");
            }
        }
    }

    /// The flagship deferral guarantee: with a generous defer budget, a
    /// LatencyCritical job is never starved out of the fleet while Batch
    /// reservations exist to preempt — it takes a reservation instead of
    /// giving up, on every random fleet shape.
    #[test]
    fn latency_critical_never_starves_while_batch_is_preemptible(
        scenario in scenario_strategy(),
        fleet in fleet_strategy(),
    ) {
        // All jobs Batch except the last, which is the critical tenant.
        let n = scenario.len();
        let mut classes = vec![JobClass::new(Criticality::Batch, 0); n];
        classes[n - 1] = JobClass::new(Criticality::LatencyCritical, 3_600_000);
        let scenario = scenario.with_classes(classes);
        let setting = Setting::m3(scenario.len());
        let mut fleet = fleet;
        fleet.max_defers = 50;
        let res = run_fleet(&scenario, &setting, machine(), &fleet);
        prop_assert!(res.violations.is_empty(), "violations: {:#?}", res.violations);
        let lc = &res.jobs[n - 1];
        prop_assert!(
            lc.failure != Some(JobFailure::GaveUp),
            "latency-critical job {} gave up with preemptible batch residents: {:#?}",
            lc.job, res.jobs
        );
        // Per-class aggregation sees exactly one latency-critical job.
        let report = res.class_mean();
        let lc_class = report.class(Criticality::LatencyCritical);
        prop_assert!(lc_class.is_some());
        prop_assert_eq!(lc_class.expect("checked").jobs, 1);
    }

    /// Determinism: the same scenario, setting, machine and fleet config
    /// produce bit-identical placement logs and job outcomes.
    #[test]
    fn identical_inputs_give_identical_placement_logs(
        scenario in scenario_strategy(),
        fleet in fleet_strategy(),
    ) {
        let setting = Setting::m3(scenario.len());
        let a = run_fleet(&scenario, &setting, machine(), &fleet);
        let b = run_fleet(&scenario, &setting, machine(), &fleet);
        prop_assert_eq!(
            serde_json::to_string(&a.trace).unwrap(),
            serde_json::to_string(&b.trace).unwrap(),
            "placement logs diverged"
        );
        prop_assert_eq!(
            serde_json::to_string(&a.jobs).unwrap(),
            serde_json::to_string(&b.jobs).unwrap(),
            "job outcomes diverged"
        );
    }
}
