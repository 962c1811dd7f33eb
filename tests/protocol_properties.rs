//! Property-based tests of M3's core invariants (proptest).

mod support;

use m3::core::selection::{select_processes, sort_candidates, Candidate};
use m3::core::thresholds::AdaptiveThresholds;
use m3::core::{
    AdaptiveAllocator, MonitorConfig, PacketBucket, PacketKind, PacketOutcome, ReclaimScheduler,
    SortOrder,
};
use m3::os::{Kernel, KernelConfig, Pid, SignalFaultConfig};
use m3::sim::clock::{SimDuration, SimTime};
use m3::sim::trace::Criticality;
use m3::sim::units::{GIB, KIB, MIB};
use m3::workloads::faults::{FaultEvent, FaultKind, FaultPlan};
use m3::workloads::machine::MachineConfig;
use m3::workloads::runner::{run_scenario, run_scenario_with_faults};
use m3::workloads::scenario::Scenario;
use m3::workloads::settings::Setting;
use proptest::prelude::*;

fn candidate_strategy() -> impl Strategy<Value = Candidate> {
    (
        0u64..50,
        0u64..1000,
        0u64..(64 * GIB),
        1u64..(8 * GIB),
        0usize..3,
    )
        .prop_map(|(pid, spawn, rss, expect, crit)| Candidate {
            pid,
            spawned_at: SimTime::from_secs(spawn),
            rss,
            expected_reclaim: expect,
            crit: Criticality::ALL[crit],
        })
}

proptest! {
    /// Algorithm 1 selects enough expected reclamation to cover the target,
    /// or everything if the total cannot cover it — and never over-selects:
    /// dropping the last selected process would leave the target uncovered.
    #[test]
    fn selection_covers_target_minimally(
        cands in proptest::collection::vec(candidate_strategy(), 0..20),
        target in 0u64..(64 * GIB),
        order_idx in 0usize..4,
    ) {
        let order = [
            SortOrder::NewestFirst,
            SortOrder::OldestFirst,
            SortOrder::LargestRss,
            SortOrder::LargestExpectedReclaim,
        ][order_idx];
        let selected = select_processes(&cands, order, target);
        let expect_of = |pid: u64| {
            cands.iter().find(|c| c.pid == pid).map(|c| c.expected_reclaim)
        };
        // Duplicated pids make per-pid lookups ambiguous; restrict to the
        // well-formed case.
        let mut pids: Vec<u64> = cands.iter().map(|c| c.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        prop_assume!(pids.len() == cands.len());

        let total: u64 = cands.iter().map(|c| c.expected_reclaim).sum();
        let covered: u64 = selected.iter().filter_map(|&p| expect_of(p)).sum();
        if target == 0 {
            prop_assert!(selected.is_empty());
        } else if total >= target {
            prop_assert!(covered >= target, "selection must cover the target");
            // Minimality: without the last pick, the target is uncovered.
            let without_last: u64 = selected[..selected.len() - 1]
                .iter()
                .filter_map(|&p| expect_of(p))
                .sum();
            prop_assert!(without_last < target);
        } else {
            prop_assert_eq!(selected.len(), cands.len(), "all must be signalled");
        }
    }

    /// Sorting is a permutation, criticality is the primary key (more
    /// expendable classes first), and the posture key orders within a
    /// class.
    #[test]
    fn sort_is_a_permutation(
        mut cands in proptest::collection::vec(candidate_strategy(), 0..20),
    ) {
        let mut pids: Vec<u64> = cands.iter().map(|c| c.pid).collect();
        sort_candidates(&mut cands, SortOrder::LargestRss);
        let mut sorted_pids: Vec<u64> = cands.iter().map(|c| c.pid).collect();
        pids.sort_unstable();
        sorted_pids.sort_unstable();
        prop_assert_eq!(pids, sorted_pids);
        for w in cands.windows(2) {
            let (a, b) = (w[0].crit.expendability(), w[1].crit.expendability());
            prop_assert!(a >= b, "expendable classes must sort first");
            if a == b {
                prop_assert!(w[0].rss >= w[1].rss);
            }
        }
    }

    /// Algorithm 1's kill-ordering invariant, as a pure property of the
    /// selection routine: no candidate is selected while a strictly
    /// more-expendable one is left unselected — under every posture order.
    #[test]
    fn selection_never_spares_a_more_expendable_candidate(
        cands in proptest::collection::vec(candidate_strategy(), 0..20),
        target in 1u64..(64 * GIB),
        order_idx in 0usize..4,
    ) {
        let order = [
            SortOrder::NewestFirst,
            SortOrder::OldestFirst,
            SortOrder::LargestRss,
            SortOrder::LargestExpectedReclaim,
        ][order_idx];
        let selected = select_processes(&cands, order, target);
        let expendability_of = |pid: u64| {
            cands
                .iter()
                .find(|c| c.pid == pid)
                .map(|c| c.crit.expendability())
                .expect("selected pids come from the candidate set")
        };
        let mut pids: Vec<u64> = cands.iter().map(|c| c.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        prop_assume!(pids.len() == cands.len());
        for c in &cands {
            if selected.contains(&c.pid) {
                continue;
            }
            // `c` was spared: nothing selected may be less expendable.
            for &victim in &selected {
                prop_assert!(
                    expendability_of(victim) >= c.crit.expendability(),
                    "{:?} pid {} selected while more-expendable {:?} pid {} was spared",
                    cands.iter().find(|k| k.pid == victim).expect("present").crit,
                    victim,
                    c.crit,
                    c.pid
                );
            }
        }
    }

    /// The allow rate is within [0, 1], non-decreasing with time after a
    /// signal, and resets to zero on a new signal.
    #[test]
    fn allow_rate_is_monotone(
        epoch_ms in 1u64..60_000,
        num_epochs in 1u32..10,
        probes in proptest::collection::vec(0u64..600_000, 1..20),
    ) {
        let mut a = AdaptiveAllocator::new(num_epochs);
        a.on_high_signal(SimTime::from_millis(1000));
        a.on_reclaim_done(SimTime::from_millis(1000 + epoch_ms));
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        let mut last = -1.0f64;
        for p in sorted {
            let r = a.allow_rate(SimTime::from_millis(1000 + p));
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!(r >= last);
            last = r;
        }
        a.on_high_signal(SimTime::from_millis(700_000));
        prop_assert_eq!(a.allow_rate(SimTime::from_millis(700_000)), 0.0);
    }

    /// Batched delays track the exact throttle fraction: over many batches
    /// at rate r, the delayed share converges to 1 − r.
    #[test]
    fn batched_delays_match_rate(
        epoch_s in 1u64..100,
        elapsed_frac in 0.0f64..1.0,
        batch in 1u64..5000,
    ) {
        let mut a = AdaptiveAllocator::new(1);
        a.on_high_signal(SimTime::ZERO);
        a.on_reclaim_done(SimTime::from_secs(epoch_s));
        let now = SimTime::from_millis((epoch_s as f64 * 1000.0 * elapsed_frac) as u64);
        let rate = a.allow_rate(now);
        let mut delayed = 0u64;
        let rounds = 50;
        for _ in 0..rounds {
            delayed += a.delayed_of(batch, now);
        }
        let total = (batch * rounds) as f64;
        let frac = delayed as f64 / total;
        // The fractional carry bounds the error by one allocation in
        // `total`, plus float slack.
        prop_assert!((frac - (1.0 - rate)).abs() <= 1.0 / total + 1e-9,
            "delayed fraction {frac} vs expected {}", 1.0 - rate);
    }

    /// Threshold ordering low <= high <= top holds under any usage stream.
    #[test]
    fn thresholds_stay_ordered(
        usages in proptest::collection::vec(0u64..(70 * GIB), 1..300),
    ) {
        let cfg = MonitorConfig::paper_64gb();
        let mut t = AdaptiveThresholds::new(&cfg);
        for u in usages {
            t.observe(u);
            prop_assert!(t.low() <= t.high());
            prop_assert!(t.high() <= t.top());
        }
    }

    /// Kernel accounting: committed equals the sum of per-process RSS under
    /// any interleaving of grows, releases and exits; meminfo stays
    /// self-consistent.
    #[test]
    fn kernel_ledger_balances(
        ops in proptest::collection::vec((0u8..4, 0u64..8, 1u64..(4 * GIB)), 1..200),
    ) {
        let mut os = Kernel::new(KernelConfig::with_total(16 * GIB));
        let pids: Vec<_> = (0..8).map(|i| os.spawn(format!("p{i}"))).collect();
        for (op, which, bytes) in ops {
            let pid = pids[which as usize];
            match op {
                0 => { let _ = os.grow(pid, bytes); }
                1 => { let _ = os.release(pid, bytes); }
                2 => { os.exit(pid); }
                _ => { os.kill(pid); }
            }
            let sum: u64 = pids.iter().map(|&p| os.rss(p)).sum();
            prop_assert_eq!(os.committed(), sum);
            let mi = os.meminfo();
            prop_assert_eq!(mi.used + mi.available, mi.total);
            prop_assert_eq!(mi.swapped, os.swapped());
        }
    }

    /// Slab cache residency never exceeds the key space, never goes
    /// negative, and byte accounting is slab-aligned.
    #[test]
    fn slab_cache_invariants(
        ops in proptest::collection::vec((0u8..2, 1u64..100_000), 1..100),
    ) {
        use m3::cache::SlabCache;
        let (key_space, cap) = (1_000_000, 2 * GIB);
        let mut c = SlabCache::new(key_space, 4 * KIB, MIB, cap);
        for (op, n) in ops {
            match op {
                0 => { c.insert(n); }
                _ => { c.evict_slabs(n / 256 + 1); }
            }
            prop_assert!(c.resident_items() <= key_space);
            prop_assert_eq!(c.resident_bytes() % MIB, 0, "whole slabs only");
            prop_assert!(c.resident_bytes() <= cap + MIB);
            let h = c.hit_ratio();
            prop_assert!((0.0..=1.0).contains(&h));
        }
    }

    /// JVM pool accounting: committed = young + pinned + garbage + free at
    /// all times, and the kernel agrees, under arbitrary operation mixes.
    #[test]
    fn jvm_accounting_invariant(
        ops in proptest::collection::vec((0u8..5, 1u64..(512 * MIB)), 1..100),
        m3_mode in proptest::bool::ANY,
    ) {
        use m3::runtime::{Jvm, JvmConfig};
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("jvm");
        let cfg = if m3_mode { JvmConfig::m3(32 * GIB) } else { JvmConfig::stock(8 * GIB) };
        let mut jvm = Jvm::new(pid, cfg);
        for (op, bytes) in ops {
            match op {
                0 => { let _ = jvm.alloc_transient(&mut os, bytes); }
                1 => { let _ = jvm.alloc_pinned(&mut os, bytes); }
                2 => { jvm.free_pinned(bytes); }
                3 => { jvm.young_gc(&mut os); }
                _ => { jvm.mixed_gc(&mut os); }
            }
            prop_assert_eq!(
                jvm.committed(),
                jvm.young_used() + jvm.pinned() + jvm.garbage() + jvm.free()
            );
            prop_assert_eq!(os.rss(pid), jvm.committed());
            prop_assert!(jvm.committed() <= jvm.config().max_heap);
        }
    }
}

/// One random work packet: a bucket index, the bytes it will reclaim, a
/// seed for picking dependencies, and how many dependencies to attempt.
type PacketSpec = (usize, u64, u64, usize);

/// The synthetic reclamation context for packet-DAG properties: slot `i`
/// holds the bytes packet `i` reclaims, so the monolithic path is a plain
/// sum over the slots.
#[derive(Debug)]
struct Pool {
    slots: Vec<u64>,
}

/// Builds a scheduler holding the random DAG. Dependencies are resolved
/// against already-enqueued packets in the same or an earlier bucket (the
/// only edges the scheduler accepts), picked deterministically from the
/// spec's seed.
fn build_dag(specs: &[PacketSpec], pid: Pid) -> ReclaimScheduler<Pool> {
    const SHAPES: [(PacketKind, PacketBucket); 3] = [
        (PacketKind::EvictSlabs, PacketBucket::Prepare),
        (PacketKind::GcYoung, PacketBucket::Collect),
        (PacketKind::Madvise, PacketBucket::Release),
    ];
    let mut sched = ReclaimScheduler::new(pid);
    let mut buckets: Vec<PacketBucket> = Vec::new();
    for (i, &(shape, _bytes, seed, ndeps)) in specs.iter().enumerate() {
        let (kind, bucket) = SHAPES[shape];
        let candidates: Vec<u64> = buckets
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b <= bucket)
            .map(|(j, _)| j as u64)
            .collect();
        let mut deps: Vec<u64> = (0..ndeps)
            .filter_map(|k| {
                candidates
                    .get((seed as usize).wrapping_add(k * 7) % candidates.len().max(1))
                    .copied()
            })
            .collect();
        deps.sort_unstable();
        deps.dedup();
        sched.add_in(
            kind,
            bucket,
            &deps,
            move |p: &mut Pool, _os: &mut Kernel| {
                let b = std::mem::take(&mut p.slots[i]);
                PacketOutcome::freed(b, SimDuration::from_millis(1))
            },
        );
        buckets.push(bucket);
    }
    sched
}

/// The number of `reclaim.packet.finish` events in `trace`, and the bytes
/// they report reclaimed.
fn finished_packets(trace: &m3::sim::trace::TraceLog) -> (usize, u64) {
    trace
        .events()
        .iter()
        .filter_map(|e| match e.data {
            m3::sim::trace::TraceData::PacketFinish { bytes, .. } => Some(bytes),
            _ => None,
        })
        .fold((0, 0), |(n, sum), b| (n + 1, sum + b))
}

fn packet_violations(trace: &m3::sim::trace::TraceLog) -> Vec<m3::oracle::Violation> {
    m3::oracle::Oracle::paper(None)
        .check(trace)
        .into_iter()
        .filter(|v| v.invariant.starts_with("reclaim.packet"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any random packet DAG satisfies the `reclaim.packet.*` invariants,
    /// runs every packet exactly once and conserves bytes against the
    /// monolithic sum.
    #[test]
    fn random_packet_dags_never_violate_ordering(
        specs in proptest::collection::vec(
            (0usize..3, 0u64..(64 * MIB), 0u64..1_000_000_000, 0usize..3),
            1..24,
        ),
    ) {
        let monolithic: u64 = specs.iter().map(|s| s.1).sum();
        let mut os = Kernel::new(KernelConfig::with_total(GIB));
        let pid = os.spawn("dag");
        let mut pool = Pool {
            slots: specs.iter().map(|s| s.1).collect(),
        };
        let out = build_dag(&specs, pid).drain(&mut pool, &mut os);
        prop_assert!(pool.slots.iter().all(|&s| s == 0), "every packet must run");
        prop_assert_eq!(
            finished_packets(&os.trace),
            (specs.len(), monolithic),
            "one finish per packet, summing to the monolithic path's total"
        );
        prop_assert_eq!(out.duration, SimDuration::from_millis(specs.len() as u64));
        let violations = packet_violations(&os.trace);
        prop_assert!(violations.is_empty(), "{violations:#?}");
    }

    /// Reverse-bucket draining of a DAG with a guaranteed Prepare→Release
    /// dependency edge is caught by both the bucket and the dependency
    /// invariants. The misordered log is the conformant drain's, reordered
    /// into reverse bucket order.
    #[test]
    fn random_packet_dag_ablation_is_caught(
        specs in proptest::collection::vec(
            (0usize..3, 0u64..(64 * MIB), 0u64..1_000_000_000, 0usize..3),
            0..16,
        ),
    ) {
        let mut os = Kernel::new(KernelConfig::with_total(GIB));
        let pid = os.spawn("dag");
        let n = specs.len();
        let mut slots: Vec<u64> = specs.iter().map(|s| s.1).collect();
        slots.push(MIB);
        slots.push(MIB);
        let mut pool = Pool { slots };
        let mut sched = build_dag(&specs, pid);
        let prep = sched.add_in(
            PacketKind::EvictSlabs,
            PacketBucket::Prepare,
            &[],
            move |p: &mut Pool, _os: &mut Kernel| {
                PacketOutcome::freed(std::mem::take(&mut p.slots[n]), SimDuration::from_millis(1))
            },
        );
        sched.add_in(
            PacketKind::Madvise,
            PacketBucket::Release,
            &[prep],
            move |p: &mut Pool, _os: &mut Kernel| {
                PacketOutcome::freed(
                    std::mem::take(&mut p.slots[n + 1]),
                    SimDuration::from_millis(1),
                )
            },
        );
        let monolithic: u64 = specs.iter().map(|s| s.1).sum::<u64>() + 2 * MIB;
        sched.drain(&mut pool, &mut os);
        prop_assert_eq!(finished_packets(&os.trace).1, monolithic);
        let conformant = packet_violations(&os.trace);
        prop_assert!(conformant.is_empty(), "{conformant:#?}");
        let violations = packet_violations(&support::reverse_bucket_drains(&os.trace));
        prop_assert!(
            violations.iter().any(|v| v.invariant == "reclaim.packet.bucket"),
            "reverse-bucket drain must trip the bucket invariant, got {violations:#?}"
        );
        prop_assert!(
            violations.iter().any(|v| v.invariant == "reclaim.packet.deps"),
            "ignored dependency edges must trip the deps invariant, got {violations:#?}"
        );
    }
}

/// Strategy for a random small evaluation workload: 1–3 apps drawn from the
/// paper's letters, with a uniform inter-job delay.
fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (proptest::collection::vec(0usize..4, 1..4), 0usize..4).prop_map(|(letters, delay_idx)| {
        let codes: String = letters.iter().map(|&i| ['M', 'P', 'W', 'C'][i]).collect();
        Scenario::uniform(&codes, [0u64, 60, 180, 300][delay_idx])
    })
}

/// Strategy for a small arbitrary fault plan over a 2-app schedule: app
/// events of every kind, an optional lossy/laggy signal bus, and an
/// optional meminfo outage.
fn fault_plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let event = (0u64..200, 0usize..3, 0u8..3, 0u32..100).prop_map(|(at_s, target, kind, pct)| {
        let at = SimDuration::from_secs(at_s);
        let kind = match kind {
            0 => FaultKind::Crash,
            1 => FaultKind::Unresponsive {
                reclaim_fraction: f64::from(pct) / 100.0,
            },
            _ => FaultKind::Leak {
                bytes_per_sec: u64::from(pct) * MIB / 8,
            },
        };
        FaultEvent { at, target, kind }
    });
    (
        proptest::collection::vec(event, 0..4),
        0u8..3,
        0u32..100,
        0u64..4,
        (0u64..200, 0u64..30),
    )
        .prop_map(
            |(events, bus_kind, bus_pct, seed, (outage_at, outage_len))| {
                let mut plan = FaultPlan::none();
                plan.events = events;
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every random workload's trace replays through the conformance
    /// oracle with zero violations, under M3 and under a stock system.
    #[test]
    fn random_scenarios_are_conformant(
        scenario in scenario_strategy(),
        m3_mode in proptest::bool::ANY,
    ) {
        let mut cfg = MachineConfig::m3_64gb();
        cfg.max_time = SimDuration::from_secs(40_000);
        let setting = if m3_mode {
            Setting::m3(scenario.len())
        } else {
            Setting::default_for(scenario.len())
        };
        let out = run_scenario(&scenario, &setting, cfg);
        prop_assert!(!out.run.trace.is_empty(), "trace capture is on by default");
        prop_assert!(
            out.run.violations.is_empty(),
            "conformance violations in {} ({:?} mode): {:#?}",
            scenario.name, setting.kind, out.run.violations
        );
    }

    /// Fault-injected runs may only violate paper invariants with fault
    /// provenance: when the degradation report shows the plan touched
    /// nothing (no applied faults, no bus loss/lag, no degraded polls),
    /// the trace must replay violation-free.
    #[test]
    fn fault_plans_only_violate_with_provenance(plan in fault_plan_strategy()) {
        let scenario = Scenario::uniform("MM", 60);
        let setting = Setting::m3(scenario.len());
        let mut cfg = MachineConfig::m3_64gb();
        cfg.max_time = SimDuration::from_secs(40_000);
        let out = run_scenario_with_faults(&scenario, &setting, cfg, &plan);
        let d = &out.run.degradation;
        let untouched = d.faults_applied == 0
            && d.signals_dropped == 0
            && d.signals_delayed == 0
            && out.run.monitor_stats.is_none_or(|s| s.degraded_polls == 0);
        if untouched {
            prop_assert!(
                out.run.violations.is_empty(),
                "violations without any applied fault (plan {plan:?}): {:#?}",
                out.run.violations
            );
        }
        // Whatever the plan did, the oracle is deterministic: re-checking
        // the same trace yields the same verdict.
        let recheck = m3::oracle::Oracle::paper(cfg.with_setting(&setting).monitor)
            .check(&out.run.trace);
        prop_assert_eq!(&recheck, &out.run.violations);
    }
}
