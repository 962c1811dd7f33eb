//! Chaos suite: fault-injection plans against the world loop, and the
//! monitor's hardening against them (DESIGN.md §10).
//!
//! The acceptance bar: every fault plan runs to completion
//! deterministically, unapplied chaos is accounted rather than dropped,
//! the reclamation watchdog escalates a non-cooperating participant to a
//! kill with recovery below top, and a plan is part of the run
//! memoization key.

use std::sync::Arc;

use m3::framework::{JobKind, JobSpec, SparkConfig};
use m3::prelude::*;
use m3::runtime::JvmConfig;
use m3::workloads::apps::AppBlueprint;
use m3::workloads::faults::{FaultKind, UnappliedReason};
use m3::workloads::machine::ScheduleEntry;
use m3::workloads::run_scenario_cached_faulted;
use m3::workloads::settings::M3_HEAP_CEILING;
use proptest::prelude::*;

const MIB: u64 = 1024 * 1024;

/// A small k-means-shaped job with a `ws_gib`-GiB working set; `iters`
/// stretches the runtime so faults scheduled minutes in still find the
/// app alive.
fn tiny_job(ws_gib: u64, iters: u32) -> JobSpec {
    JobSpec {
        kind: JobKind::KMeans,
        name: "tiny".into(),
        input_bytes: ws_gib * GIB / 2,
        working_set: ws_gib * GIB,
        iterations: iters,
        compute_ms_per_block: 50,
        churn_per_block: 64 * MIB,
        min_heap: 0,
        churn_survival: 0.08,
        exec_demand: 0,
    }
}

/// An M3-participating Spark executor entry.
fn m3_entry(name: &str, start_s: u64, ws_gib: u64, iters: u32) -> ScheduleEntry {
    (
        name.into(),
        SimDuration::from_secs(start_s),
        AppBlueprint::Spark {
            jvm: JvmConfig::m3(M3_HEAP_CEILING),
            spark: SparkConfig::m3(),
            job: tiny_job(ws_gib, iters),
        },
    )
}

/// An 8-GiB M3 node (scaled monitor: top ≈ 7.75 GiB), small enough that
/// chaos scenarios stress the monitor without hour-long simulations.
fn small_m3_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::scaled(8 * GIB, true);
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

fn run_bytes(cfg: MachineConfig, schedule: Vec<ScheduleEntry>, plan: &FaultPlan) -> String {
    let res = Machine::new(cfg).run_with(schedule, plan, &[], None);
    serde_json::to_string(&res).expect("serialize run")
}

/// Representative built-in plans covering every fault class.
fn builtin_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("none", FaultPlan::none()),
        (
            "crash",
            FaultPlan::none().with_crash(SimDuration::from_secs(90), 0),
        ),
        (
            "unresponsive",
            FaultPlan::none().with_unresponsive(SimDuration::from_secs(60), 1, 0.0),
        ),
        (
            "leak",
            FaultPlan::none().with_leak(SimDuration::from_secs(30), 0, 16 * MIB),
        ),
        (
            "lossy-bus",
            FaultPlan::none().with_signal_faults(SignalFaultConfig::lossy(41, 0.3)),
        ),
        (
            "laggy-bus",
            FaultPlan::none().with_signal_faults(SignalFaultConfig::laggy(
                42,
                0.5,
                SimDuration::from_secs(3),
            )),
        ),
        (
            "poll-outage",
            FaultPlan::none()
                .with_poll_outage(SimDuration::from_secs(50), SimDuration::from_secs(20)),
        ),
        (
            "churn",
            FaultPlan::none().with_churn(
                SimDuration::from_secs(40),
                GIB / 2,
                SimDuration::from_secs(60),
            ),
        ),
        (
            "everything",
            FaultPlan::none()
                .with_crash(SimDuration::from_secs(200), 0)
                .with_unresponsive(SimDuration::from_secs(80), 1, 0.25)
                .with_leak(SimDuration::from_secs(50), 1, 8 * MIB)
                .with_signal_faults(SignalFaultConfig::lossy(7, 0.2))
                .with_poll_outage(SimDuration::from_secs(100), SimDuration::from_secs(15))
                .with_churn(
                    SimDuration::from_secs(70),
                    GIB / 4,
                    SimDuration::from_secs(30),
                ),
        ),
    ]
}

#[test]
fn builtin_fault_plans_run_to_completion_deterministically() {
    for (name, plan) in builtin_plans() {
        let schedule = || vec![m3_entry("a", 0, 2, 250), m3_entry("b", 20, 2, 250)];
        let a = run_bytes(small_m3_cfg(), schedule(), &plan);
        let b = run_bytes(small_m3_cfg(), schedule(), &plan);
        assert_eq!(a, b, "plan `{name}` must replay bit-identically");
        let res: m3::workloads::RunResult = serde_json::from_str(&a).expect("round-trip");
        assert!(
            res.end.saturating_since(SimTime::ZERO) < small_m3_cfg().max_time,
            "plan `{name}` must terminate before the time cap, ended at {}",
            res.end
        );
        assert_eq!(res.degradation.faults_injected, plan.injected_count());
    }
}

/// The tentpole acceptance scenario: a participant that keeps handling
/// signals but returns nothing must be escalated by the reclamation
/// watchdog and ultimately killed, after which the system recovers below
/// top and the cooperating app completes.
#[test]
fn watchdog_escalates_unresponsive_participant_to_kill() {
    // The cooperator starts first (oldest); the hog is newest, so the
    // paper's newest-first ordering already targets it — the watchdog's
    // deprioritization is covered at the unit level in m3-core.
    let schedule = vec![m3_entry("coop", 0, 2, 500), m3_entry("hog", 60, 5, 500)];
    // The hog goes fully non-cooperative shortly after starting: every
    // handled signal "frees" pages that never reach the OS, so its
    // footprint ratchets past top (7.75 GiB). The monitor's kill timeout
    // runs out before the hog reaches the OOM killer's 10-GiB bound.
    let cfg = small_m3_cfg();
    let plan = FaultPlan::none().with_unresponsive(SimDuration::from_secs(100), 1, 0.0);
    let res = Machine::new(cfg).run_with(schedule, &plan, &[], None);

    let hog = &res.apps[1];
    assert!(
        hog.killed,
        "the monitor must escalate the non-cooperator to a kill: {hog:?}"
    );
    let coop = &res.apps[0];
    assert!(
        coop.finished.is_some() && !coop.killed,
        "the cooperating participant must survive and complete: {coop:?}"
    );

    let d = &res.degradation;
    assert_eq!(d.faults_applied, 1);
    let stats = res.monitor_stats.expect("monitor ran");
    assert!(
        stats.watchdog_escalations >= 1,
        "the watchdog must have escalated: {stats:?}"
    );
    assert!(
        stats.watchdog_resignals >= 1,
        "escalated participants are re-signalled with backoff: {stats:?}"
    );
    // The kill timeout demonstrably elapsed before the monitor killed its
    // way back below top.
    assert!(
        m3::core::POLL_PERIOD * stats.polls_above_top >= m3::core::KILL_TIMEOUT,
        "the system must have lingered above top for the kill timeout: {stats:?}"
    );
    // Recovery: the fault drove a real above-top excursion and the system
    // returned below the high threshold, measured in polls. (The recorded
    // time is the *first* excursion-and-return; the kill resolves the
    // final one, witnessed by `polls_above_top` and `kills` instead.)
    assert_eq!(d.recoveries.len(), 1);
    let recovered = d.recoveries[0]
        .recovered_after_polls
        .unwrap_or_else(|| panic!("the system must return below top after the kill: {d:?}"));
    assert!(recovered >= 1, "a real excursion must have been measured");
    assert!(stats.kills >= 1);
}

#[test]
fn unapplied_chaos_is_recorded_not_dropped() {
    let schedule = vec![m3_entry("a", 0, 2, 100), m3_entry("late", 2_000, 1, 2)];
    let plan = FaultPlan::none()
        // Fires before `late` starts.
        .with_crash(SimDuration::from_secs(10), 1)
        // Kills `a`...
        .with_crash(SimDuration::from_secs(60), 0)
        // ...so this second crash of `a` finds it already dead.
        .with_crash(SimDuration::from_secs(90), 0)
        // No such schedule index.
        .with_crash(SimDuration::from_secs(5), 99)
        // Far beyond the run's natural end.
        .with_leak(SimDuration::from_secs(35_000), 0, MIB);
    let res = Machine::new(small_m3_cfg()).run_with(schedule, &plan, &[], None);
    let d = &res.degradation;
    assert_eq!(d.faults_injected, 5);
    assert_eq!(d.faults_applied, 1, "only the 60-s crash applies");
    let reasons: Vec<UnappliedReason> = d.faults_unapplied.iter().map(|u| u.reason).collect();
    assert!(reasons.contains(&UnappliedReason::NotStarted));
    assert!(reasons.contains(&UnappliedReason::AlreadyDone));
    assert!(reasons.contains(&UnappliedReason::NoSuchApp));
    assert!(reasons.contains(&UnappliedReason::RunEnded));
    assert_eq!(
        d.faults_applied + d.faults_unapplied.len() as u64,
        d.faults_injected,
        "every injected app event is accounted exactly once: {d:?}"
    );
}

#[test]
fn registration_churn_applies_and_the_run_is_unharmed() {
    let schedule = || vec![m3_entry("a", 0, 2, 150)];
    let plan = FaultPlan::none()
        .with_churn(
            SimDuration::from_secs(30),
            GIB / 2,
            SimDuration::from_secs(45),
        )
        .with_churn(
            SimDuration::from_secs(90),
            GIB / 4,
            SimDuration::from_secs(20),
        );
    let res = Machine::new(small_m3_cfg()).run_with(schedule(), &plan, &[], None);
    assert!(res.all_finished(), "churn bystanders must not hurt the app");
    assert_eq!(res.degradation.faults_applied, 2);
    // The ghost/bystander pid dance is deterministic too.
    let a = run_bytes(small_m3_cfg(), schedule(), &plan);
    let b = run_bytes(small_m3_cfg(), schedule(), &plan);
    assert_eq!(a, b);
}

#[test]
fn degraded_polling_is_counted_during_outages() {
    let schedule = vec![m3_entry("a", 0, 2, 50)];
    let plan =
        FaultPlan::none().with_poll_outage(SimDuration::from_secs(20), SimDuration::from_secs(10));
    let res = Machine::new(small_m3_cfg()).run_with(schedule, &plan, &[], None);
    assert!(res.all_finished());
    let stats = res.monitor_stats.expect("monitor ran");
    assert!(
        stats.degraded_polls >= 9,
        "a 10-s outage at 1-s polling must produce ~10 degraded polls: {stats:?}"
    );
}

#[test]
fn fault_plan_is_part_of_the_memo_key() {
    let scenario = Scenario::uniform("M", 0);
    let setting = Setting::m3(1);
    let cfg = MachineConfig::stock_64gb();
    let plain = FaultPlan::none();
    let faulted = FaultPlan::none().with_crash(SimDuration::from_secs(60), 0);

    let a = run_scenario_cached_faulted(&scenario, &setting, cfg, &plain);
    let b = run_scenario_cached_faulted(&scenario, &setting, cfg, &faulted);
    assert!(
        !Arc::ptr_eq(&a, &b),
        "runs differing only in the fault plan must not share a cache entry"
    );
    // Same plan → same entry; and the faulted run really is different.
    let a2 = run_scenario_cached_faulted(&scenario, &setting, cfg, &plain);
    let b2 = run_scenario_cached_faulted(&scenario, &setting, cfg, &faulted);
    assert!(Arc::ptr_eq(&a, &a2));
    assert!(Arc::ptr_eq(&b, &b2));
    assert!(!b.run.apps[0].killed || !a.run.apps[0].killed || a.run.end != b.run.end);
}

/// Strategy for a small arbitrary fault plan over a 2-app schedule: app
/// events of every kind, an optional lossy/laggy bus, and an optional poll
/// outage. (Churn is covered deterministically above so the
/// applied+unapplied accounting below stays exact.)
fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let event = (0u64..200, 0usize..3, 0u8..3, 0u32..100).prop_map(|(at_s, target, kind, pct)| {
        let at = SimDuration::from_secs(at_s);
        match kind {
            0 => (at, target, FaultKind::Crash),
            1 => (
                at,
                target,
                FaultKind::Unresponsive {
                    reclaim_fraction: f64::from(pct) / 100.0,
                },
            ),
            _ => (
                at,
                target,
                FaultKind::Leak {
                    bytes_per_sec: u64::from(pct) * MIB / 8,
                },
            ),
        }
    });
    (
        proptest::collection::vec(event, 0..4),
        0u8..3,
        0u32..100,
        0u64..2,
        (0u64..200, 0u64..30),
    )
        .prop_map(
            |(events, bus_kind, bus_pct, seed, (outage_at, outage_len))| {
                let mut plan = FaultPlan::none();
                for (at, target, kind) in events {
                    plan.events
                        .push(m3::workloads::FaultEvent { at, target, kind });
                }
                plan.signal_faults = match bus_kind {
                    0 => None,
                    1 => Some(SignalFaultConfig::lossy(seed, f64::from(bus_pct) / 200.0)),
                    _ => Some(SignalFaultConfig::laggy(
                        seed,
                        f64::from(bus_pct) / 200.0,
                        SimDuration::from_secs(2),
                    )),
                };
                if outage_len > 0 {
                    plan = plan.with_poll_outage(
                        SimDuration::from_secs(outage_at),
                        SimDuration::from_secs(outage_len),
                    );
                }
                plan
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated plan terminates before the time cap, accounts every
    /// app event exactly once, closes every recovery, and replays
    /// bit-identically.
    #[test]
    fn arbitrary_plans_terminate_account_and_replay(plan in plan_strategy()) {
        let schedule = || vec![m3_entry("a", 0, 2, 150), m3_entry("b", 30, 2, 150)];
        let bytes = run_bytes(small_m3_cfg(), schedule(), &plan);
        let res: m3::workloads::RunResult =
            serde_json::from_str(&bytes).expect("round-trip");

        // Termination: the fault plan cannot wedge the world loop.
        prop_assert!(
            res.end.saturating_since(SimTime::ZERO) < small_m3_cfg().max_time,
            "run must end before the cap, ended at {}", res.end
        );

        // Accounting: applied + unapplied covers exactly the app events.
        let d = &res.degradation;
        prop_assert_eq!(d.faults_injected, plan.injected_count());
        prop_assert_eq!(
            d.faults_applied + d.faults_unapplied.len() as u64,
            d.faults_injected
        );

        // Containment: the monitor either kept/returned the system below
        // top or killed its way back (recoveries all close, one per
        // applied fault).
        prop_assert_eq!(d.recoveries.len() as u64, d.faults_applied);
        let kills = res.monitor_stats.as_ref().map_or(0, |s| s.kills);
        for r in &d.recoveries {
            prop_assert!(
                r.recovered_after_polls.is_some() || kills > 0,
                "unrecovered fault without any kill reported: {:?}", d
            );
        }

        // Determinism: an identical replay is bit-identical.
        prop_assert_eq!(&bytes, &run_bytes(small_m3_cfg(), schedule(), &plan));
    }
}
