//! Work-packet reclamation: scheduler conformance and harness scaling.
//!
//! Runs the fig6 (MMW 180) and fig7 (CMW 180) profile scenarios under M3
//! across a spread of node salts, twice: fanned out on one worker and on
//! eight. Asserts that
//!
//! - the two sweeps serialize byte-identically (worker count must never
//!   leak into simulation results — each run, its packet drains included,
//!   is serial, and only whole runs fan out);
//! - every run is oracle-clean: zero violations, which includes the
//!   `reclaim.packet.*` ordering, dependency, and byte-conservation
//!   invariants;
//! - every enqueued packet finished, and reclamation genuinely flowed
//!   through packets (non-zero packet traffic in every run);
//! - the 8-worker sweep beats the 1-worker sweep on wall clock when the
//!   host actually has cores to parallelize over (on a single-CPU host the
//!   requirement degrades to a bounded-overhead check, and
//!   `speedup_8_over_1` is written as `null` beside the recorded
//!   `host_cpus`: one CPU cannot show a worker speedup);
//! - packetization fragments the old lump-sum reclamation pause: the
//!   worst per-packet mutator stall is a fraction of the worst whole-drain
//!   stall, a simulated-latency win that is deterministic and independent
//!   of host parallelism.
//!
//! `M3_RECLAIM_PACKETS_SALTS` shrinks the per-scenario salt spread for CI
//! smoke runs; `M3_RECLAIM_PACKETS_REPS` sets the min-of-N timing repeats;
//! `M3_RECLAIM_PACKETS_BUDGET_S` asserts a total wall-clock budget.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use m3_bench::{render_table, BenchTimer};
use m3_sim::clock::SimDuration;
use m3_sim::trace::TraceData;
use m3_workloads::machine::MachineConfig;
use m3_workloads::parallel_map;
use m3_workloads::runner::{run_scenario, ScenarioOutcome};
use m3_workloads::scenario::Scenario;
use m3_workloads::settings::Setting;
use serde::Serialize;

#[derive(Serialize)]
struct KindCount {
    kind: String,
    packets: u64,
}

#[derive(Serialize)]
struct ReclaimPacketsReport {
    scenarios: Vec<String>,
    jobs: usize,
    packets_enqueued: u64,
    packets_finished: u64,
    packet_stalls: u64,
    packet_bytes: u64,
    packet_returned_bytes: u64,
    by_kind: Vec<KindCount>,
    violations: u64,
    byte_identical_across_workers: bool,
    host_cpus: usize,
    wall_clock_1_worker_s: f64,
    wall_clock_8_workers_s: f64,
    /// `None` on a single-CPU host, where workers cannot run in parallel.
    speedup_8_over_1: Option<f64>,
    max_drain_pause_ms: u64,
    max_packet_pause_ms: u64,
    pause_fragmentation: f64,
    drains: u64,
    mean_packets_per_drain: f64,
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn env_f64(name: &str) -> Option<f64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// One sweep: every job simulated fresh (no memo cache) on `workers`
/// workers, returning the wall clock and the outcomes in submission order.
fn sweep(
    jobs: &[(Scenario, Setting, MachineConfig)],
    workers: usize,
) -> (f64, Vec<Arc<ScenarioOutcome>>) {
    let started = Instant::now();
    let outs = parallel_map(jobs.to_vec(), workers, |(s, set, cfg)| {
        Arc::new(run_scenario(&s, &set, cfg))
    });
    (started.elapsed().as_secs_f64(), outs)
}

/// Min-of-N wall clock for a sweep (the repeats simulate identical worlds —
/// pinned by `tests/determinism.rs` — so the minimum is the noise floor).
fn timed_sweep(
    jobs: &[(Scenario, Setting, MachineConfig)],
    workers: usize,
    reps: usize,
) -> (f64, Vec<Arc<ScenarioOutcome>>) {
    let mut best = f64::INFINITY;
    let mut outs = Vec::new();
    for _ in 0..reps.max(1) {
        let (wall, o) = sweep(jobs, workers);
        best = best.min(wall);
        outs = o;
    }
    (best, outs)
}

fn main() {
    let bench = BenchTimer::start("reclaim_packets");
    let salts = env_usize("M3_RECLAIM_PACKETS_SALTS").unwrap_or(16);
    let budget_s = env_f64("M3_RECLAIM_PACKETS_BUDGET_S");

    let scenarios = [Scenario::uniform("MMW", 180), Scenario::uniform("CMW", 180)];
    let mut jobs: Vec<(Scenario, Setting, MachineConfig)> = Vec::new();
    for scenario in &scenarios {
        for salt in 0..salts {
            let mut cfg = MachineConfig::m3_64gb();
            cfg.max_time = SimDuration::from_secs(40_000);
            cfg.sample_period = None;
            cfg.node_salt = salt as u64;
            jobs.push((scenario.clone(), Setting::m3(scenario.len()), cfg));
        }
    }

    eprintln!(
        "[reclaim_packets] {} jobs ({} scenarios x {salts} salts), warmup sweep ...",
        jobs.len(),
        scenarios.len()
    );
    // Untimed warmup so allocator and page-cache state do not bias
    // whichever timed sweep happens to run first.
    let _ = sweep(&jobs, 1);
    let reps = env_usize("M3_RECLAIM_PACKETS_REPS").unwrap_or(3);
    eprintln!("[reclaim_packets] 1-worker sweep ...");
    let (wall_1, serial) = timed_sweep(&jobs, 1, reps);
    eprintln!("[reclaim_packets] 8-worker sweep ...");
    let (wall_8, parallel) = timed_sweep(&jobs, 8, reps);
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Worker count must never leak into results.
    let mut identical = true;
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        let sa = serde_json::to_string(&a.run).expect("serialize run");
        let sb = serde_json::to_string(&b.run).expect("serialize run");
        if sa != sb {
            identical = false;
            eprintln!("[reclaim_packets] job {i} diverged between 1 and 8 workers");
        }
    }
    assert!(identical, "worker count changed a simulation result");

    // Conformance and packet accounting over the (identical) outcomes.
    let mut violations = 0u64;
    let mut enqueued = 0u64;
    let mut started = 0u64;
    let mut finished = 0u64;
    let mut stalls = 0u64;
    let mut bytes = 0u64;
    let mut returned = 0u64;
    let mut by_kind: BTreeMap<String, u64> = BTreeMap::new();
    // Pause fragmentation: the worst whole-drain mutator stall (every
    // packet of one handler window, summed) vs the worst single-packet
    // stall — the incremental-reclamation win, in simulated time.
    let mut max_drain_pause = 0u64;
    let mut max_packet_pause = 0u64;
    let mut drains = 0u64;
    for (i, out) in serial.iter().enumerate() {
        assert!(out.run.all_finished(), "job {i}: every app must finish");
        violations += out.run.violations.len() as u64;
        let mut job_enq = 0u64;
        let mut job_fin = 0u64;
        let mut window: BTreeMap<u64, u64> = BTreeMap::new();
        for e in out.run.trace.events() {
            if e.data.kind() == "handler.start" {
                window.insert(e.pid, 0);
            }
            match &e.data {
                TraceData::PacketEnqueue { pkind, .. } => {
                    job_enq += 1;
                    *by_kind.entry(pkind.clone()).or_default() += 1;
                }
                TraceData::PacketStart { .. } => started += 1,
                TraceData::PacketStall { .. } => stalls += 1,
                TraceData::PacketFinish {
                    bytes: b,
                    returned: r,
                    duration_ms,
                    ..
                } => {
                    job_fin += 1;
                    bytes += b;
                    returned += r;
                    max_packet_pause = max_packet_pause.max(*duration_ms);
                    let w = window.entry(e.pid).or_insert(0);
                    if *w == 0 {
                        drains += 1;
                    }
                    *w += duration_ms;
                    max_drain_pause = max_drain_pause.max(*w);
                }
                _ => {}
            }
        }
        assert!(
            job_enq > 0,
            "job {i}: reclamation must flow through packets"
        );
        assert_eq!(
            job_enq, job_fin,
            "job {i}: every enqueued packet must finish"
        );
        enqueued += job_enq;
        finished += job_fin;
    }
    assert_eq!(
        violations, 0,
        "oracle violations in the packetized sweep (includes reclaim.packet.*)"
    );
    assert_eq!(enqueued, started, "every enqueued packet must start");

    let rows: Vec<Vec<String>> = by_kind
        .iter()
        .map(|(k, n)| vec![k.clone(), n.to_string()])
        .collect();
    println!("Work-packet reclamation — fig6/fig7 profile scenarios under M3\n");
    println!("{}", render_table(&["packet kind", "count"], &rows));
    println!(
        "\n{enqueued} packets enqueued, {finished} finished, {stalls} stall observations \
         across {} runs — 0 oracle violations",
        serial.len()
    );
    println!(
        "packet bytes: {:.2} GiB reclaimed, {:.2} GiB returned to the OS",
        bytes as f64 / (1u64 << 30) as f64,
        returned as f64 / (1u64 << 30) as f64
    );
    let fragmentation = max_drain_pause as f64 / (max_packet_pause.max(1)) as f64;
    let mean_split = finished as f64 / drains.max(1) as f64;
    println!(
        "worst mutator stall: {max_drain_pause} ms as one lump-sum drain, \
         {max_packet_pause} ms as the worst single packet ({fragmentation:.1}x split); \
         the mean drain yields to the mutator {mean_split:.1} times"
    );
    assert!(
        max_packet_pause < max_drain_pause,
        "packetization must fragment the lump-sum pause \
         ({max_packet_pause} ms vs {max_drain_pause} ms)"
    );
    let speedup = wall_1 / wall_8.max(1e-9);
    println!(
        "wall clock: {wall_1:.2}s on 1 worker vs {wall_8:.2}s on 8 workers \
         ({speedup:.2}x on {host_cpus} host cpu(s))"
    );
    if host_cpus > 1 {
        assert!(
            wall_8 < wall_1,
            "the 8-worker sweep must beat 1 worker on a {host_cpus}-cpu host \
             ({wall_8:.2}s vs {wall_1:.2}s)"
        );
    } else {
        // A single-cpu host cannot demonstrate thread-level speedup; hold
        // the scheduler to a bounded-overhead requirement instead.
        assert!(
            wall_8 <= wall_1 * 1.5,
            "8 workers on one cpu must stay within 1.5x of serial \
             ({wall_8:.2}s vs {wall_1:.2}s)"
        );
    }
    if let Some(budget) = budget_s {
        let total = wall_1 + wall_8;
        assert!(
            total <= budget,
            "sweeps took {total:.2}s, over the {budget}s budget"
        );
    }

    let report = ReclaimPacketsReport {
        scenarios: scenarios.iter().map(|s| s.name.clone()).collect(),
        jobs: jobs.len(),
        packets_enqueued: enqueued,
        packets_finished: finished,
        packet_stalls: stalls,
        packet_bytes: bytes,
        packet_returned_bytes: returned,
        by_kind: by_kind
            .into_iter()
            .map(|(kind, packets)| KindCount { kind, packets })
            .collect(),
        violations,
        byte_identical_across_workers: identical,
        host_cpus,
        wall_clock_1_worker_s: wall_1,
        wall_clock_8_workers_s: wall_8,
        speedup_8_over_1: (host_cpus > 1).then_some(speedup),
        max_drain_pause_ms: max_drain_pause,
        max_packet_pause_ms: max_packet_pause,
        pause_fragmentation: fragmentation,
        drains,
        mean_packets_per_drain: mean_split,
    };
    bench.finish(&report);
}
