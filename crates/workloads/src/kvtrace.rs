//! Key-granular cache-trace sweep (DESIGN.md §15).
//!
//! One [`run_cache_trace`] is one Memcached server driven by a
//! production-shaped trace ([`TraceWorkload`]: Zipf popularity over millions
//! of keys, tiered value sizes, a 90/7/3 GET/SET/DELETE mix) on a node sized
//! so the full working set does **not** fit — the paper's production-cache
//! setting. Three policies compete on identical traffic:
//!
//! - **M3** — unbounded cache plus the monitor: Table 1 slab eviction (1 %
//!   low / 4 % high) and the §4.2 adaptive allocation protocol keep the
//!   server inside physical memory.
//! - **Default** — unbounded cache, no monitor: the server grows until the
//!   kernel swaps and the OOM killer fires (the stock failure mode).
//! - **StaticLimit** — a best-effort static cache cap well under physical
//!   memory: safe, but the capacity it surrenders shows up as misses.
//!
//! Runs are memoized content-addressed on `(workload, policy)` exactly like
//! the scenario harness ([`crate::parallel`]), so sweeps and repeated bench
//! invocations replay for free, and the outcome is a pure serializable
//! function of its inputs (the determinism test compares worker counts by
//! serialized bytes).

use std::sync::Arc;

use m3_cache::{KeyedSlabCache, TraceWorkload};
use m3_sim::clock::SimDuration;
use m3_sim::trace::{EvictReason, TraceData};
use serde::{Deserialize, Serialize};

use crate::apps::AppBlueprint;
use crate::machine::{Machine, MachineConfig};
use crate::parallel::{CacheStats, MemoCache};

/// Fraction of the chunked working set the node's physical memory covers:
/// small enough that every policy is under real pressure — the footprint a
/// Zipf(1.2) trace actually touches (preload plus on-demand miss fills)
/// lands near 40 % of the full working set, so at 30 % even the touched set
/// overhangs physical memory and swap — yet large enough that the Zipf head
/// fits and hit ratios stay meaningful.
const PHYS_FRACTION_PCT: u64 = 30;

/// Fraction of physical memory a best-effort static cache cap takes (the
/// operator leaves headroom for everything else on the node).
const STATIC_CAP_PCT: u64 = 45;

/// How the cache is allowed to use memory in a trace run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CachePolicy {
    /// Unbounded cache + M3 monitor (signal-driven slab eviction).
    M3,
    /// Unbounded cache, no monitor: stock memcached headed for the OOM
    /// killer on an over-committed node.
    Default,
    /// Static cache cap at 45 % (`STATIC_CAP_PCT`) of physical memory.
    StaticLimit,
}

impl CachePolicy {
    /// All policies, in reporting order.
    pub const ALL: [CachePolicy; 3] = [
        CachePolicy::M3,
        CachePolicy::Default,
        CachePolicy::StaticLimit,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            CachePolicy::M3 => "m3",
            CachePolicy::Default => "default",
            CachePolicy::StaticLimit => "static-limit",
        }
    }
}

/// Outcome of one trace run: the last `cache.stats` snapshot the server
/// emitted (the final one for completed runs, the last periodic one for
/// killed runs), eviction totals by reason, and the run verdict. A pure
/// serializable function of `(workload, policy)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheTraceOutcome {
    /// The policy that ran.
    pub policy: CachePolicy,
    /// The trace workload (keys, ops, skew, pattern, seed).
    pub workload: TraceWorkload,
    /// Physical memory of the node, bytes.
    pub phys_bytes: u64,
    /// The static cache cap, when one applied.
    pub cache_cap_bytes: Option<u64>,
    /// Requests completed (equals `workload.total_ops` unless killed).
    pub requests: u64,
    /// GET hits.
    pub hits: u64,
    /// GET misses (including negative lookups).
    pub misses: u64,
    /// Negative lookups among the misses.
    pub negative: u64,
    /// SETs applied.
    pub sets: u64,
    /// DELETEs applied.
    pub deletes: u64,
    /// Inserts delayed by the §4.2 adaptive allocation protocol.
    pub delayed: u64,
    /// Items recycled by capacity pressure (static caps).
    pub capacity_items: u64,
    /// Live items at the last snapshot.
    pub live_items: u64,
    /// Resident cache bytes at the last snapshot.
    pub resident_bytes: u64,
    /// Simulated serve time at the last snapshot, ms.
    pub serve_ms: u64,
    /// Slabs evicted on low signals (Table 1: 1 %).
    pub evict_slabs_low: u64,
    /// Slabs evicted on high signals (Table 1: 4 %).
    pub evict_slabs_high: u64,
    /// Slabs clawed back by the admission-delay path.
    pub evict_slabs_admission: u64,
    /// Per-class eviction detail events recorded (key-granular runs only).
    pub class_evictions: u64,
    /// True if the server completed the whole trace.
    pub finished: bool,
    /// True if the server was killed (OOM or M3 escalation).
    pub killed: bool,
    /// Peak resident set size observed, bytes.
    pub peak_rss: u64,
    /// End of the run, simulated ms.
    pub end_ms: u64,
    /// Conformance-oracle violations found in the run's trace.
    pub violations: usize,
    /// First few violation descriptions, for diagnostics.
    pub violation_samples: Vec<String>,
}

impl CacheTraceOutcome {
    /// GET hit ratio in `[0, 1]` (0 when no GETs completed).
    pub fn hit_ratio(&self) -> f64 {
        let gets = self.hits + self.misses;
        if gets == 0 {
            0.0
        } else {
            self.hits as f64 / gets as f64
        }
    }
}

/// Exact chunked bytes of the full key space: every key resident in its
/// slab class at once. The sizing anchor for [`node_phys_bytes`].
pub fn working_set_bytes(twl: &TraceWorkload) -> u64 {
    // A probe store supplies the chunk-class geometry; nothing is inserted.
    let probe = KeyedSlabCache::new(u64::MAX / 2);
    (0..twl.key_space)
        .map(|key| probe.chunk_bytes_for(twl.value_bytes(twl.fp_of(key))))
        .sum()
}

/// Physical memory for the trace node: 30 % (`PHYS_FRACTION_PCT`) of the
/// chunked working set, so no policy can simply hold everything.
pub fn node_phys_bytes(twl: &TraceWorkload) -> u64 {
    working_set_bytes(twl) * PHYS_FRACTION_PCT / 100
}

fn blueprint(twl: TraceWorkload, policy: CachePolicy, phys: u64) -> (AppBlueprint, Option<u64>) {
    match policy {
        CachePolicy::M3 => (
            AppBlueprint::TraceCache {
                workload: twl,
                max_bytes: 0,
                m3_mode: true,
            },
            None,
        ),
        CachePolicy::Default => (
            AppBlueprint::TraceCache {
                workload: twl,
                max_bytes: u64::MAX / 2,
                m3_mode: false,
            },
            None,
        ),
        CachePolicy::StaticLimit => {
            let cap = phys * STATIC_CAP_PCT / 100;
            (
                AppBlueprint::TraceCache {
                    workload: twl,
                    max_bytes: cap,
                    m3_mode: false,
                },
                Some(cap),
            )
        }
    }
}

/// Runs one `(workload, policy)` point uncached.
pub fn run_cache_trace(twl: TraceWorkload, policy: CachePolicy) -> CacheTraceOutcome {
    twl.validate();
    let phys = node_phys_bytes(&twl);
    let (bp, cap) = blueprint(twl, policy, phys);
    let mut cfg = MachineConfig::scaled(phys, policy == CachePolicy::M3);
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(60_000);
    let res = Machine::new(cfg).run(vec![("memcached-trace".into(), SimDuration::ZERO, bp)]);

    // The last cache.stats snapshot: final for completed runs, the last
    // periodic one for runs the kernel killed mid-trace.
    let mut out = CacheTraceOutcome {
        policy,
        workload: twl,
        phys_bytes: phys,
        cache_cap_bytes: cap,
        requests: 0,
        hits: 0,
        misses: 0,
        negative: 0,
        sets: 0,
        deletes: 0,
        delayed: 0,
        capacity_items: 0,
        live_items: 0,
        resident_bytes: 0,
        serve_ms: 0,
        evict_slabs_low: 0,
        evict_slabs_high: 0,
        evict_slabs_admission: 0,
        class_evictions: 0,
        finished: res.apps[0].finished.is_some(),
        killed: res.apps[0].killed,
        peak_rss: res.apps[0].peak_rss,
        end_ms: res.end.as_millis(),
        violations: res.violations.len(),
        violation_samples: res
            .violations
            .iter()
            .take(3)
            .map(|v| format!("{}: {}", v.invariant, v.message))
            .collect(),
    };
    for e in res.trace.events() {
        match &e.data {
            TraceData::CacheStats {
                requests,
                hits,
                misses,
                negative,
                sets,
                deletes,
                delayed,
                capacity_items,
                resident_bytes,
                live_items,
                serve_ms,
            } => {
                out.requests = *requests;
                out.hits = *hits;
                out.misses = *misses;
                out.negative = *negative;
                out.sets = *sets;
                out.deletes = *deletes;
                out.delayed = *delayed;
                out.capacity_items = *capacity_items;
                out.resident_bytes = *resident_bytes;
                out.live_items = *live_items;
                out.serve_ms = *serve_ms;
            }
            TraceData::EvictSlabs {
                evicted, reason, ..
            } => match reason {
                EvictReason::LowSignal => out.evict_slabs_low += evicted,
                EvictReason::HighSignal => out.evict_slabs_high += evicted,
                EvictReason::AdmissionDelay => out.evict_slabs_admission += evicted,
                _ => {}
            },
            TraceData::EvictClass { .. } => out.class_evictions += 1,
            _ => {}
        }
    }
    out
}

static CACHE: MemoCache<CacheTraceOutcome> = MemoCache::new();

/// Current totals of the trace-run memoization cache.
pub fn kvtrace_cache_stats() -> CacheStats {
    CACHE.stats()
}

/// [`run_cache_trace`], content-addressed: the fingerprint of the
/// `(workload, policy)` pair keys a process-wide cache ([`MemoCache`]), and
/// an identical earlier run is returned as a shared [`Arc`] without
/// re-simulating.
pub fn run_cache_trace_cached(twl: TraceWorkload, policy: CachePolicy) -> Arc<CacheTraceOutcome> {
    CACHE.get_or_compute(&(&twl, policy), || run_cache_trace(twl, policy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_cache::TrafficPattern;
    use m3_sim::units::{GIB, MIB};

    fn tiny(pattern: TrafficPattern) -> TraceWorkload {
        TraceWorkload {
            key_space: 30_000,
            total_ops: 200_000,
            phase_ops: 50_000,
            ..TraceWorkload::smoke(pattern)
        }
    }

    #[test]
    fn working_set_sizing_is_sane() {
        let twl = tiny(TrafficPattern::Steady);
        let ws = working_set_bytes(&twl);
        // 30k keys at a few KiB mean chunked size.
        assert!(ws > 30_000 * 128, "ws {ws}");
        assert!(ws < 30_000 * MIB, "ws {ws}");
        let phys = node_phys_bytes(&twl);
        assert!(phys < ws, "the working set must overhang physical memory");
        assert!(phys > ws / 4);
    }

    #[test]
    fn m3_point_completes_under_pressure_with_zero_violations() {
        let out = run_cache_trace(tiny(TrafficPattern::Steady), CachePolicy::M3);
        assert!(out.finished, "M3 keeps the server alive: {out:?}");
        assert!(!out.killed);
        assert_eq!(out.requests, 200_000);
        assert_eq!(
            out.violations, 0,
            "oracle-clean: {:?}",
            out.violation_samples
        );
        assert!(
            out.evict_slabs_low + out.evict_slabs_high > 0,
            "pressure must trigger signal-driven eviction: {out:?}"
        );
        assert!(out.class_evictions > 0, "key-granular class detail");
        assert!(out.hit_ratio() > 0.5, "Zipf head stays resident: {out:?}");
        assert!(out.peak_rss <= out.phys_bytes + GIB / 4);
    }

    #[test]
    fn static_limit_point_respects_its_cap() {
        let out = run_cache_trace(tiny(TrafficPattern::Steady), CachePolicy::StaticLimit);
        assert!(out.finished && !out.killed, "{out:?}");
        assert_eq!(out.violations, 0, "{:?}", out.violation_samples);
        let cap = out.cache_cap_bytes.unwrap();
        assert!(out.resident_bytes <= cap, "{out:?}");
        assert!(out.capacity_items > 0, "cap forces LRU recycling: {out:?}");
        assert_eq!(out.evict_slabs_low + out.evict_slabs_high, 0, "no monitor");
    }

    #[test]
    fn default_policy_overcommits() {
        let out = run_cache_trace(tiny(TrafficPattern::Steady), CachePolicy::Default);
        assert_eq!(out.violations, 0, "{:?}", out.violation_samples);
        // Stock with no cap on an overcommitted node: either the OOM killer
        // fired, or swap thrash let it limp through with the full working
        // set resident beyond physical memory.
        assert!(
            out.killed || out.peak_rss > out.phys_bytes,
            "unbounded stock cache must overcommit: {out:?}"
        );
        // Either way some progress was recorded via periodic snapshots.
        assert!(out.requests > 0, "{out:?}");
    }

    #[test]
    fn memoized_run_is_shared_and_identical() {
        let twl = tiny(TrafficPattern::Burst);
        let a = run_cache_trace_cached(twl, CachePolicy::StaticLimit);
        let b = run_cache_trace_cached(twl, CachePolicy::StaticLimit);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let fresh = run_cache_trace(twl, CachePolicy::StaticLimit);
        assert_eq!(
            serde_json::to_string(&*a).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "cached and fresh runs are byte-identical"
        );
    }
}
