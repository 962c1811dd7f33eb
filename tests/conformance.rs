//! Trace-oracle conformance suite.
//!
//! Every harness run records a typed end-to-end trace and replays it through
//! the conformance oracle (`m3-oracle`), which checks the paper's protocol
//! invariants: threshold adjustment steps and ordering (§4.1), Algorithm 1
//! victim selection, allocation-rate gating (§5.2), Table 1 eviction
//! magnitudes, and top-down reclamation ordering (§4.2). These tests assert
//! that real runs are conformant, that golden traces stay byte-identical
//! and read back byte for byte, that every event kind's wire format is
//! pinned, and that a deliberately broken policy is caught.
//!
//! Golden snapshots live in `tests/golden/`; regenerate with
//! `M3_UPDATE_GOLDEN=1 cargo test --test conformance`. On a mismatch the
//! offending trace is written under `target/conformance-artifacts/` so CI
//! can upload it.

mod support;

use std::fs;
use std::path::PathBuf;

use m3::prelude::*;
use m3::sim::clock::SimDuration;
use m3::sim::trace::{
    CandidateInfo, EvictReason, GcLayer, PacketBucket, SigKind, ThresholdSide, TraceData,
    TraceEvent, TraceLog, TraceZone,
};
use m3::workloads::apps::AppBlueprint;
use m3::workloads::hibench;

fn machine() -> MachineConfig {
    let mut cfg = MachineConfig::m3_64gb();
    cfg.max_time = SimDuration::from_secs(40_000);
    cfg
}

/// Serializes a trace one compact JSON object per line, so golden files
/// diff line-by-line in review.
fn trace_jsonl(trace: &TraceLog) -> String {
    let mut out = String::new();
    for e in trace.events() {
        out.push_str(&serde_json::to_string(e).expect("trace event serializes"));
        out.push('\n');
    }
    out
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

fn artifact_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("conformance-artifacts")
}

/// Compares `actual` against the golden snapshot `name`, writing the
/// offending trace to `target/conformance-artifacts/` on divergence.
/// `M3_UPDATE_GOLDEN=1` rewrites the snapshot instead.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_dir().join(name);
    if std::env::var("M3_UPDATE_GOLDEN").is_ok() {
        fs::create_dir_all(golden_dir()).expect("create golden dir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             M3_UPDATE_GOLDEN=1 cargo test --test conformance",
            path.display()
        )
    });
    if expected != actual {
        let dump = artifact_dir().join(name);
        fs::create_dir_all(artifact_dir()).expect("create artifact dir");
        fs::write(&dump, actual).expect("write artifact");
        let first_diff = expected
            .lines()
            .zip(actual.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || "lengths differ".to_string(),
                |i| format!("first differing line {}", i + 1),
            );
        panic!(
            "trace diverged from golden {name} ({first_diff}); \
             offending trace written to {}",
            dump.display()
        );
    }
}

/// Asserts a run produced a non-empty trace and zero oracle violations,
/// dumping the trace as a CI artifact otherwise.
fn assert_conformant(label: &str, run: &RunResult) {
    assert!(
        !run.trace.is_empty(),
        "{label}: capture_trace is on, the trace must not be empty"
    );
    if !run.violations.is_empty() {
        let dump = artifact_dir().join(format!("{label}.trace.jsonl"));
        fs::create_dir_all(artifact_dir()).expect("create artifact dir");
        fs::write(&dump, trace_jsonl(&run.trace)).expect("write artifact");
        panic!(
            "{label}: {} oracle violations (trace written to {}): {:#?}",
            run.violations.len(),
            dump.display(),
            run.violations
        );
    }
}

#[test]
fn m3_scenario_run_is_conformant() {
    let scenario = Scenario::uniform("MMW", 180);
    let out = run_scenario(&scenario, &Setting::m3(3), machine());
    assert!(out.run.all_finished());
    assert_conformant("MMW-180-m3", &out.run);
    // The run must have exercised the monitor protocol, not vacuously passed.
    assert!(out.run.trace.count("monitor.poll") > 100);
    assert!(out.run.trace.count("threshold.adjust") > 0);
}

#[test]
fn cache_scenario_run_is_conformant() {
    // CCC exercises the slab caches: Table 1 eviction magnitudes and the
    // allocation-rate gate are all on the hot path here.
    let scenario = Scenario::uniform("CCC", 480);
    let out = run_scenario(&scenario, &Setting::m3(3), machine());
    assert!(out.run.all_finished());
    assert_conformant("CCC-480-m3", &out.run);
}

#[test]
fn stock_run_is_conformant() {
    // No monitor: the oracle still checks the monitor-independent
    // invariants (eviction magnitudes, reclamation ordering, gating).
    let scenario = Scenario::uniform("MMW", 180);
    let mut cfg = MachineConfig::stock_64gb();
    cfg.max_time = SimDuration::from_secs(40_000);
    let out = run_scenario(&scenario, &Setting::default_for(3), cfg);
    assert_conformant("MMW-180-stock", &out.run);
}

#[test]
fn disabled_capture_records_nothing() {
    let scenario = Scenario::uniform("MMW", 180);
    let mut cfg = machine();
    cfg.capture_trace = false;
    let out = run_scenario(&scenario, &Setting::m3(3), cfg);
    assert!(out.run.trace.is_empty());
    assert!(out.run.violations.is_empty());
}

#[test]
fn golden_fig1_solo_kmeans_trace() {
    // The Fig. 1 elasticity scenario, scaled down: one k-means on a stock
    // node with memory never the constraint. The small heap forces Spark MM
    // capacity evictions, so the golden covers block-cache events too.
    let mut cfg = MachineConfig::stock_64gb();
    cfg.phys_total = 192 * GIB;
    cfg.sample_period = None;
    let machine = Machine::new(cfg);
    let res = machine.run(vec![(
        "k-means".into(),
        SimDuration::ZERO,
        AppBlueprint::Spark {
            jvm: m3::runtime::JvmConfig::stock(4 * GIB),
            spark: m3::framework::SparkConfig::default(),
            job: hibench::kmeans_small(),
        },
    )]);
    assert!(res.all_finished());
    assert_conformant("golden-fig1", &res);
    assert_golden("fig1_solo_kmeans.trace.jsonl", &trace_jsonl(&res.trace));
}

#[test]
fn golden_fig2_alternating_trace() {
    // The Fig. 2 alternating-peaks scenario, scaled down: two M3 JVMs whose
    // load peaks alternate, under the scaled monitor.
    use m3::workloads::alternating::AlternatingProfile;
    use m3::workloads::settings::M3_HEAP_CEILING;
    let phase = SimDuration::from_secs(30);
    let profile = |offset_phases: u64| AlternatingProfile {
        baseline: 2 * GIB,
        peak: 13 * GIB,
        phase,
        offset: phase * offset_phases,
        churn_per_sec: 64 * 1024 * 1024,
        lifetime: SimDuration::from_secs(150),
    };
    let mut cfg = MachineConfig::scaled(64 * GIB, true);
    cfg.max_time = SimDuration::from_secs(300);
    let jvm = m3::runtime::JvmConfig::m3(M3_HEAP_CEILING);
    let machine = Machine::new(cfg);
    let res = machine.run(vec![
        (
            "cassandra".into(),
            SimDuration::ZERO,
            AppBlueprint::Alternating {
                jvm,
                profile: profile(0),
            },
        ),
        (
            "elasticsearch".into(),
            SimDuration::ZERO,
            AppBlueprint::Alternating {
                jvm,
                profile: profile(1),
            },
        ),
    ]);
    assert_conformant("golden-fig2", &res);
    assert_golden("fig2_alternating.trace.jsonl", &trace_jsonl(&res.trace));
}

/// Serializes only the reclamation-relevant events (handler windows, work
/// packets, evictions, collections, madvise), so the packet golden stays
/// focused and reviewable instead of drowning in monitor polls.
fn reclaim_trace_jsonl(trace: &TraceLog) -> String {
    const PREFIXES: [&str; 5] = [
        "handler.",
        "reclaim.packet.",
        "evict.",
        "gc.",
        "mem.madvise",
    ];
    let mut out = String::new();
    for e in trace.events() {
        if PREFIXES.iter().any(|p| e.kind().starts_with(p)) {
            out.push_str(&serde_json::to_string(e).expect("trace event serializes"));
            out.push('\n');
        }
    }
    out
}

#[test]
fn golden_packet_reclaim_trace() {
    // The canonical two-runtime co-location: a Go cache and a Spark JVM on
    // one M3 node, so the snapshot covers both runtimes' packet graphs
    // (evict -> gc -> madvise) plus the framework block cache.
    let scenario = Scenario::uniform("CM", 180);
    let out = run_scenario(&scenario, &Setting::m3(2), machine());
    assert!(out.run.all_finished());
    assert_conformant("golden-packet-reclaim", &out.run);
    // Reclamation must actually have flowed through the packet scheduler,
    // and every enqueued packet must have run.
    let enqueued = out.run.trace.count("reclaim.packet.enqueue");
    assert!(enqueued > 0, "the run must exercise packetized reclamation");
    assert_eq!(enqueued, out.run.trace.count("reclaim.packet.finish"));
    assert_golden(
        "packet_reclaim.trace.jsonl",
        &reclaim_trace_jsonl(&out.run.trace),
    );
}

#[test]
fn golden_packet_reclaim_replays_conformant() {
    // The committed snapshot itself — not just the run that regenerates it —
    // must satisfy the packet invariants: parse it back off disk and replay
    // it through the paper oracle.
    let path = golden_dir().join("packet_reclaim.trace.jsonl");
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); regenerate with \
             M3_UPDATE_GOLDEN=1 cargo test --test conformance",
            path.display()
        )
    });
    let mut log = TraceLog::new();
    for (i, line) in text.lines().enumerate() {
        let e: TraceEvent = serde_json::from_str(line)
            .unwrap_or_else(|err| panic!("golden line {} does not parse: {err:?}", i + 1));
        log.record(e.t, e.pid, e.data);
    }
    assert!(log.count("reclaim.packet.enqueue") > 0);
    let violations = Oracle::paper(None).check(&log);
    assert!(
        violations.is_empty(),
        "replaying the packet golden must be violation-free, got {violations:#?}"
    );
}

#[test]
fn golden_cache_trace() {
    // The key-granular cache path: the M3 trace-cache node exactly as
    // `run_cache_trace` builds it, on a small hot-key-shift trace, and the
    // outcome of every cache policy at that size. The slab store, the trace
    // generator and the node sizing all feed both snapshots, and the
    // static-limit outcome covers capacity recycling.
    use m3::workloads::kvtrace::node_phys_bytes;
    let twl = TraceWorkload {
        key_space: 30_000,
        total_ops: 200_000,
        phase_ops: 50_000,
        ..TraceWorkload::smoke(TrafficPattern::HotKeyShift)
    };
    let phys = node_phys_bytes(&twl);
    let mut cfg = MachineConfig::scaled(phys, true);
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(60_000);
    let res = Machine::new(cfg).run(vec![(
        "memcached-trace".into(),
        SimDuration::ZERO,
        AppBlueprint::TraceCache {
            workload: twl,
            max_bytes: 0,
            m3_mode: true,
        },
    )]);
    assert_conformant("golden-cache-trace", &res);
    assert!(res.trace.count("evict.class") > 0, "the store must evict");
    let outcomes: Vec<CacheTraceOutcome> = CachePolicy::ALL
        .iter()
        .map(|&policy| run_cache_trace(twl, policy))
        .collect();
    assert_eq!(outcomes[0].end_ms, res.end.as_millis(), "the M3 node ran");
    assert!(outcomes[2].capacity_items > 0, "the cap forces recycling");
    assert_golden("cache_trace.trace.jsonl", &trace_jsonl(&res.trace));
    let mut text = serde_json::to_string_pretty(&outcomes).expect("outcomes render");
    text.push('\n');
    assert_golden("cache_trace.outcomes.json", &text);
}

#[test]
fn golden_analytic_cache_trace() {
    // The analytic cache path: a Go-Cache and a jemalloc Memcached on one
    // small M3 node, so both backends throttle (`alloc.batch`), evict on
    // both signals and evict for delayed puts; then both servers stock,
    // capped below their key space, where capacity eviction records no
    // event and only the app outcomes pin it.
    use m3::cache::KvWorkload;
    use m3::runtime::{AllocatorKind, GoConfig};
    let workload = KvWorkload {
        key_space: 120_000,
        total_requests: 300_000,
        ..KvWorkload::paper_memtier()
    };
    let go = |go, max_bytes, m3_mode| {
        let app = AppBlueprint::GoCache {
            go,
            workload,
            max_bytes,
            m3_mode,
        };
        ("go-cache", app)
    };
    let memcached = |allocator, max_bytes, m3_mode| {
        let app = AppBlueprint::Memcached {
            allocator,
            workload,
            max_bytes,
            m3_mode,
        };
        ("memcached", app)
    };
    // The first server starts at 0 s, the second at 5 s.
    let run = |m3_mode: bool, first: (&str, AppBlueprint), second: (&str, AppBlueprint)| {
        let mut cfg = MachineConfig::scaled(GIB, m3_mode);
        cfg.sample_period = None;
        cfg.max_time = SimDuration::from_secs(40_000);
        let schedule = [(first, 0), (second, 5)]
            .map(|((name, app), at)| (name.into(), SimDuration::from_secs(at), app));
        let res = Machine::new(cfg).run(schedule.into());
        assert!(res.all_finished(), "every server finishes");
        res
    };
    let m3 = run(
        true,
        go(GoConfig::m3(100), 0, true),
        memcached(AllocatorKind::Jemalloc, 0, true),
    );
    assert_conformant("golden-analytic-cache-trace", &m3);
    for pid in [1, 2] {
        let of = |kind: &'static str| m3.trace.of_kind(kind).filter(move |e| e.pid == pid);
        assert!(
            of("alloc.batch")
                .any(|e| matches!(e.data, TraceData::AllocBatch { delayed, .. } if delayed > 0)),
            "pid {pid} delays puts"
        );
        for reason in [
            EvictReason::LowSignal,
            EvictReason::HighSignal,
            EvictReason::AdmissionDelay,
        ] {
            assert!(
                of("evict.slabs").any(
                    |e| matches!(e.data, TraceData::EvictSlabs { reason: r, .. } if r == reason)
                ),
                "pid {pid} evicts slabs for {reason:?}"
            );
        }
    }
    assert_golden("analytic_cache.trace.jsonl", &trace_jsonl(&m3.trace));
    let cap = 256 * MIB;
    let stock = run(
        false,
        memcached(AllocatorKind::Malloc, cap, false),
        go(GoConfig::stock(100), cap, false),
    );
    let mut text = serde_json::to_string_pretty(&stock.apps).expect("apps render");
    text.push('\n');
    assert_golden("analytic_cache.stock_apps.json", &text);
}

/// One payload per kind string, every field set away from its default, so a
/// field that is dropped, renamed, reordered or tagged with the wrong kind
/// changes the every-kind golden.
fn every_kind() -> Vec<(&'static str, TraceData)> {
    use TraceData::*;
    let candidate = |pid: u64, crit: Criticality| CandidateInfo {
        pid,
        spawned_at_ms: 1_500 * pid,
        rss: 3 * GIB + pid,
        expected_reclaim: GIB + pid,
        crit,
    };
    let sig = |sig| SignalSent { sig };
    let adjust = |side| ThresholdAdjust {
        side,
        old: 40 * GIB,
        new: 41 * GIB,
    };
    let gc = |layer| Gc {
        layer,
        reclaimed: 700 * MIB,
        returned: 300 * MIB,
        pause_ms: 42,
    };
    let gate = |delayed| AllocGate {
        delayed,
        rate: 0.625,
        elapsed_ms: 750,
        epoch_ms: 1_200,
        num_epochs: 3,
        curve: "Exponential".into(),
    };
    vec![
        (
            "proc.spawn",
            ProcSpawn {
                name: "k-means 1".into(),
            },
        ),
        (
            "proc.respawn",
            ProcRespawn {
                name: "ghost 7".into(),
            },
        ),
        ("proc.exit", ProcExit),
        ("proc.kill", ProcKill),
        ("oom.kill", OomKill),
        ("signal.low", sig(SigKind::Low)),
        ("signal.high", sig(SigKind::High)),
        ("signal.kill", sig(SigKind::Kill)),
        ("signal.dropped", SignalDropped { sig: SigKind::High }),
        ("signal.delayed", SignalDelayed { sig: SigKind::Kill }),
        ("mem.madvise", Madvise { bytes: 96 * MIB }),
        (
            "monitor.poll",
            MonitorPoll {
                zone: TraceZone::Red,
                used: 55 * GIB,
                low: 45 * GIB,
                high: 50 * GIB,
                degraded: true,
                low_signalled: vec![3, 4],
                high_signalled: vec![5],
                killed: vec![6, 7],
            },
        ),
        (
            "monitor.zone",
            ZoneChange {
                from: TraceZone::Yellow,
                to: TraceZone::AboveTop,
            },
        ),
        ("threshold.adjust.low", adjust(ThresholdSide::Low)),
        ("threshold.adjust.high", adjust(ThresholdSide::High)),
        (
            "monitor.select",
            Selection {
                order: "NewestFirst".into(),
                target: 2 * GIB,
                all: true,
                candidates: vec![
                    candidate(3, Criticality::Batch),
                    candidate(4, Criticality::LatencyCritical),
                ],
                selected: vec![4, 3],
            },
        ),
        ("watchdog.skip", WatchdogSkip),
        ("watchdog.escalate", WatchdogEscalate { backoff: 4 }),
        ("watchdog.resignal", WatchdogResignal { backoff: 8 }),
        ("monitor.kill", MonitorKill { rss: 6 * GIB }),
        ("handler.start", HandlerStart { sig: SigKind::Low }),
        (
            "handler.end",
            HandlerEnd {
                sig: SigKind::High,
                duration_ms: 230,
                returned: 512 * MIB,
            },
        ),
        (
            "evict.blocks",
            EvictBlocks {
                before: 120,
                evicted: 30,
                bytes: 3_840 * MIB,
                reason: EvictReason::HighSignal,
            },
        ),
        (
            "evict.slabs",
            EvictSlabs {
                before: 900,
                evicted: 90,
                items: 45_000,
                bytes: 90 * MIB,
                reason: EvictReason::LowSignal,
            },
        ),
        (
            "evict.class",
            EvictClass {
                chunk: 4_096,
                before: 300,
                evicted: 30,
                items: 7_680,
                bytes: 30 * MIB,
                reason: EvictReason::AdmissionDelay,
            },
        ),
        (
            "cache.stats",
            CacheStats {
                requests: 100_000,
                hits: 81_000,
                misses: 9_000,
                negative: 1_200,
                sets: 7_000,
                deletes: 3_000,
                delayed: 250,
                capacity_items: 640,
                resident_bytes: 5 * GIB,
                live_items: 1_200_000,
                serve_ms: 60_000,
            },
        ),
        ("gc.young", gc(GcLayer::Young)),
        ("gc.mixed", gc(GcLayer::Mixed)),
        ("gc.full", gc(GcLayer::Full)),
        ("gc.go", gc(GcLayer::Go)),
        ("alloc.delay", gate(true)),
        ("alloc.admit", gate(false)),
        (
            "alloc.batch",
            AllocBatch {
                n: 64,
                delayed: 24,
                rate: 0.375,
                elapsed_ms: 900,
                epoch_ms: 1_800,
                num_epochs: 2,
                curve: "Step".into(),
            },
        ),
        (
            "fleet.pressure",
            FleetPressure {
                node: 9,
                zone: TraceZone::Yellow,
                used: 47 * GIB,
                reserved: 52 * GIB,
                high: 50 * GIB,
                top: 60 * GIB,
                escalations: 2,
            },
        ),
        (
            "fleet.place",
            FleetPlace {
                job: 17,
                node: 9,
                used: 20 * GIB,
                demand: 12 * GIB,
                top: 60 * GIB,
            },
        ),
        (
            "fleet.defer",
            FleetDefer {
                job: 18,
                attempt: 2,
                retry_at_ms: 45_000,
            },
        ),
        (
            "fleet.migrate",
            FleetMigrate {
                job: 19,
                from: 9,
                to: 11,
                red_for_ms: 12_000,
            },
        ),
        (
            "fleet.giveup",
            FleetGiveUp {
                job: 20,
                attempts: 5,
                demand: 70 * GIB,
            },
        ),
        (
            "fleet.node_lost",
            FleetNodeLost {
                node: 12,
                jobs_lost: 3,
            },
        ),
        (
            "fleet.reschedule",
            FleetReschedule {
                job: 21,
                from: 12,
                retries: 1,
                retry_at_ms: 95_000,
                requeued: true,
            },
        ),
        (
            "fleet.quarantine",
            FleetQuarantine {
                node: 13,
                entered: true,
                streak: 3,
            },
        ),
        (
            "sched.class.assign",
            SchedClassAssign {
                job: 22,
                crit: Criticality::LatencyCritical,
                slo_ms: 5_000,
            },
        ),
        (
            "sched.class.preempt",
            SchedClassPreempt {
                job: 22,
                crit: Criticality::LatencyCritical,
                victim: 23,
                victim_crit: Criticality::Batch,
                node: 14,
            },
        ),
        (
            "sched.class.slo",
            SchedClassSlo {
                job: 22,
                crit: Criticality::Batch,
                slo_ms: 4_000,
                runtime_ms: 3_500,
                stall_ms: 120,
                met: true,
            },
        ),
        (
            "kill.class",
            KillClass {
                crit: Criticality::Batch,
                candidates: vec![candidate(8, Criticality::Batch)],
            },
        ),
        (
            "reclaim.packet.enqueue",
            PacketEnqueue {
                packet: 2,
                pkind: "gc_old".into(),
                bucket: PacketBucket::Collect,
                deps: vec![1],
            },
        ),
        (
            "reclaim.packet.start",
            PacketStart {
                packet: 2,
                bucket: PacketBucket::Release,
                wave: 1,
            },
        ),
        (
            "reclaim.packet.finish",
            PacketFinish {
                packet: 2,
                bucket: PacketBucket::Collect,
                bytes: 64 * MIB,
                returned: 32 * MIB,
                duration_ms: 7,
            },
        ),
        (
            "reclaim.packet.stall",
            PacketStall {
                packet: 3,
                waiting_on: 2,
                wave: 1,
            },
        ),
    ]
}

#[test]
fn golden_every_trace_kind() {
    // The wire format of every event kind, pinned byte for byte: each
    // payload reports its kind, the log survives a trip through JSON text,
    // and the rendering equals the committed snapshot.
    let mut log = TraceLog::new();
    let mut kinds = std::collections::BTreeSet::new();
    for (i, (kind, data)) in (1..).zip(every_kind()) {
        assert_eq!(data.kind(), kind);
        assert!(kinds.insert(kind), "`{kind}` is listed twice");
        log.record(SimTime::from_millis(250 * i), i, data);
    }
    let text = serde_json::to_string(&log).expect("trace renders");
    let back: TraceLog = serde_json::from_str(&text).expect("trace parses back");
    assert_eq!(back.events(), log.events());
    assert_golden("every_kind.trace.jsonl", &trace_jsonl(&log));
}

#[test]
fn packed_trace_of_a_real_run_averages_at_most_24_bytes_an_event() {
    // A `TraceEvent` takes 120 bytes, sized by its largest payloads; the
    // log packs an M3 run's events at about 15 bytes each.
    let out = run_scenario(&Scenario::uniform("MMW", 180), &Setting::m3(3), machine());
    let trace = &out.run.trace;
    assert!(trace.len() > 1_000, "{} events", trace.len());
    let per_event = trace.packed_bytes() as f64 / trace.len() as f64;
    assert!(per_event <= 24.0, "{per_event:.2} packed bytes an event");
}

#[test]
fn every_golden_line_re_renders_byte_for_byte() {
    // Every committed snapshot reads back: each line parses as an event and
    // renders to the identical line, so what a tool reads off disk is what
    // the run wrote. Recorded into a log, every file (the every-kind
    // golden too) renders back byte for byte through the packed store,
    // whether the log is decoded whole or streamed.
    let mut files: Vec<PathBuf> = fs::read_dir(golden_dir())
        .expect("golden dir")
        .map(|e| e.expect("golden entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    assert!(files.len() >= 6, "expected every golden, found {files:?}");
    for path in files {
        let text = fs::read_to_string(&path).expect("read golden");
        let mut log = TraceLog::new();
        for (i, line) in text.lines().enumerate() {
            let e: TraceEvent = serde_json::from_str(line).unwrap_or_else(|err| {
                panic!("{}:{} does not parse: {err:?}", path.display(), i + 1)
            });
            let again = serde_json::to_string(&e).expect("event renders");
            assert_eq!(
                again,
                line,
                "{}:{} re-renders differently",
                path.display(),
                i + 1
            );
            log.record(e.t, e.pid, e.data);
        }
        assert_eq!(log.len(), text.lines().count());
        let mut streamed = String::new();
        log.for_each(|e| {
            streamed.push_str(&serde_json::to_string(e).expect("event renders"));
            streamed.push('\n');
        });
        assert!(
            streamed == text,
            "{} streams back differently",
            path.display()
        );
        assert!(
            trace_jsonl(&log) == text,
            "{} decodes back differently",
            path.display()
        );
    }
}

#[test]
fn packet_bucket_order_ablation_is_caught() {
    // Draining the packet graph in reverse bucket order (madvise before GC
    // before eviction) while ignoring dependency edges must be flagged by
    // the reclaim.packet.* invariants — proof the suite can catch a
    // misordered scheduler rather than just blessing the correct one. The
    // misordered log is a real conformant run's, with every drain's packets
    // reordered that way.
    let scenario = Scenario::uniform("CM", 180);
    let out = run_scenario(&scenario, &Setting::m3(2), machine());
    assert!(out.run.trace.count("reclaim.packet.enqueue") > 0);
    assert_eq!(out.run.violations, Vec::new());
    let reversed = support::reverse_bucket_drains(&out.run.trace);
    let violations = Oracle::paper(Some(MonitorConfig::paper_64gb())).check(&reversed);
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == "reclaim.packet.bucket"),
        "a packet must be seen starting before its bucket opened, got {violations:#?}"
    );
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == "reclaim.packet.deps"),
        "a packet must be seen starting before its dependencies finished, got {violations:#?}"
    );
}

#[test]
fn broken_threshold_policy_is_caught() {
    // A monitor with 5% threshold steps violates the paper's 2%-of-top
    // bound. Its own run is self-consistent (the machine checks the trace
    // against its own config), but replaying the trace against the paper's
    // configuration must flag the oversized moves.
    let scenario = Scenario::uniform("MMW", 180);
    let mut cfg = machine();
    let mut mon = MonitorConfig::paper_64gb();
    mon.step_fraction = 0.05;
    cfg.monitor = Some(mon);
    let out = run_scenario(&scenario, &Setting::m3(3), cfg);
    assert!(
        out.run.violations.is_empty(),
        "the run is consistent with its own (non-paper) config"
    );
    assert!(out.run.trace.count("threshold.adjust") > 0);
    let violations = Oracle::paper(Some(MonitorConfig::paper_64gb())).check(&out.run.trace);
    assert!(
        violations.iter().any(|v| v.invariant == "threshold.step"),
        "a 5% step policy must be flagged against the paper's 2% bound, got {violations:#?}"
    );
}
