//! Key-granular cache-trace sweep: M3 vs Default vs static-limit under
//! production-shaped KV traffic (DESIGN.md §15).
//!
//! Each point replays a deterministic trace — Zipf(α = 1.2) popularity over
//! ≥ 1 M distinct keys, tiered value sizes, a 90/7/3 GET/SET/DELETE mix with
//! ~5 % negative lookups — against a Memcached server on a node sized so the
//! full working set does not fit (30 % coverage). The three policies face
//! the burst, diurnal, and hot-key-shift traffic phases on identical op
//! streams; every point's trace is replayed through the conformance oracle
//! and must come back clean.
//!
//! Knobs: `M3_CACHE_TRACE_KEYS` / `M3_CACHE_TRACE_OPS` scale the sweep down
//! (CI smoke); `M3_CACHE_TRACE_BUDGET_S` asserts a per-point wall-clock
//! budget; `M3_JOBS` sets the recorded worker count.

use m3_bench::{render_table, BenchTimer};
use m3_cache::{TraceWorkload, TrafficPattern};
use m3_sim::units::GIB;
use m3_workloads::kvtrace::{run_cache_trace_cached, CachePolicy};
use m3_workloads::worker_threads;
use serde::Serialize;

#[derive(Serialize)]
struct TraceRow {
    pattern: &'static str,
    policy: &'static str,
    keys: u64,
    ops: u64,
    /// Single-core wall clock of this point's simulation, seconds.
    wall_clock_s: f64,
    /// Simulated throughput: requests per simulated serve second.
    sim_ops_per_sec: f64,
    /// Engine speed: simulated requests per wall-clock second.
    ops_per_wall_s: f64,
    hit_ratio: f64,
    requests: u64,
    hits: u64,
    misses: u64,
    negative: u64,
    sets: u64,
    deletes: u64,
    delayed_puts: u64,
    evict_slabs_low: u64,
    evict_slabs_high: u64,
    evict_slabs_admission: u64,
    class_evictions: u64,
    capacity_items: u64,
    phys_gib: f64,
    resident_gib: f64,
    peak_rss_gib: f64,
    finished: bool,
    killed: bool,
    violations: usize,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn pattern_name(p: TrafficPattern) -> &'static str {
    match p {
        TrafficPattern::Steady => "steady",
        TrafficPattern::Burst => "burst",
        TrafficPattern::Diurnal => "diurnal",
        TrafficPattern::HotKeyShift => "hot-key-shift",
    }
}

fn main() {
    let bench = BenchTimer::start("cache_trace");
    let base = TraceWorkload::production(TrafficPattern::Steady);
    let keys = env_u64("M3_CACHE_TRACE_KEYS", base.key_space);
    let ops = env_u64("M3_CACHE_TRACE_OPS", base.total_ops);
    let budget_s = std::env::var("M3_CACHE_TRACE_BUDGET_S")
        .ok()
        .and_then(|v| v.trim().parse::<f64>().ok());
    println!(
        "cache-trace sweep — {keys} keys, {ops} ops per point, {} workers\n",
        worker_threads()
    );

    let patterns = [
        TrafficPattern::Burst,
        TrafficPattern::Diurnal,
        TrafficPattern::HotKeyShift,
    ];
    let mut rows: Vec<TraceRow> = Vec::new();
    for pattern in patterns {
        let twl = TraceWorkload {
            key_space: keys,
            total_ops: ops,
            phase_ops: (ops / 4).max(1),
            ..TraceWorkload::production(pattern)
        };
        for policy in CachePolicy::ALL {
            let started = std::time::Instant::now();
            let out = run_cache_trace_cached(twl, policy);
            let wall_clock_s = started.elapsed().as_secs_f64();
            assert_eq!(
                out.violations,
                0,
                "{}/{} must replay oracle-clean: {:?}",
                pattern_name(pattern),
                policy.name(),
                out.violation_samples
            );
            if let Some(budget) = budget_s {
                assert!(
                    wall_clock_s <= budget,
                    "{}/{} took {wall_clock_s:.2}s, budget {budget}s",
                    pattern_name(pattern),
                    policy.name()
                );
            }
            let serve_s = out.serve_ms as f64 / 1000.0;
            rows.push(TraceRow {
                pattern: pattern_name(pattern),
                policy: policy.name(),
                keys,
                ops,
                wall_clock_s,
                sim_ops_per_sec: if serve_s > 0.0 {
                    out.requests as f64 / serve_s
                } else {
                    0.0
                },
                ops_per_wall_s: if wall_clock_s > 0.0 {
                    out.requests as f64 / wall_clock_s
                } else {
                    0.0
                },
                hit_ratio: out.hit_ratio(),
                requests: out.requests,
                hits: out.hits,
                misses: out.misses,
                negative: out.negative,
                sets: out.sets,
                deletes: out.deletes,
                delayed_puts: out.delayed,
                evict_slabs_low: out.evict_slabs_low,
                evict_slabs_high: out.evict_slabs_high,
                evict_slabs_admission: out.evict_slabs_admission,
                class_evictions: out.class_evictions,
                capacity_items: out.capacity_items,
                phys_gib: out.phys_bytes as f64 / GIB as f64,
                resident_gib: out.resident_bytes as f64 / GIB as f64,
                peak_rss_gib: out.peak_rss as f64 / GIB as f64,
                finished: out.finished,
                killed: out.killed,
                violations: out.violations,
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.pattern.to_string(),
                r.policy.to_string(),
                format!("{:.3}", r.hit_ratio),
                format!("{:.0}k", r.sim_ops_per_sec / 1000.0),
                format!("{}", r.evict_slabs_low + r.evict_slabs_high),
                format!("{:.2}", r.peak_rss_gib),
                if r.killed {
                    "KILLED".into()
                } else if r.finished {
                    "ok".into()
                } else {
                    "capped".into()
                },
                format!("{:.2}", r.wall_clock_s),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "pattern",
                "policy",
                "hit ratio",
                "sim ops/s",
                "signal evictions",
                "peak rss (GiB)",
                "verdict",
                "wall (s)",
            ],
            &table
        )
    );
    println!("all {} points oracle-clean", rows.len());
    bench.finish(&rows);
}
