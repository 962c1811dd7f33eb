//! The span-traced pass: each unit's public calls wrapped in spans, plus
//! the standalone layer calls that split a unit's host time by layer.
//!
//! - `node_mix`: the unit with capture on (as timed), again with capture
//!   off, and a standalone `Oracle::check` over each captured trace.
//! - `kv_*`: the unit's `run_cache_trace`; a standalone `TraceGen` over its
//!   workload; the generated ops replayed into a `KeyedSlabCache` of the
//!   node's size; and the same node run through `Machine` with capture off
//!   and on, whose trace gives the layer counts and the oracle its input.
//! - `fleet_waves`: the unit cold, then an identical repeat whose node runs
//!   are all memo hits.
//!
//! Every traced unit also checks that the extra calls agree with the timed
//! one: capture must not change a node's outcome, the `Machine` replay must
//! serve exactly what `run_cache_trace` reported, and the warm fleet repeat
//! must reproduce the cold run without simulating a node.

use m3_cache::{KeyedSlabCache, TraceGen, TraceOp, TraceOpKind, TraceWorkload};
use m3_oracle::Oracle;
use m3_sim::clock::SimDuration;
use m3_sim::trace::{TraceData, TraceLog};
use m3_workloads::{
    cache_stats, node_phys_bytes, AppBlueprint, AppResult, CacheStats, CacheTraceOutcome, Machine,
    MachineConfig,
};

use crate::ledger::{Ledger, Spans};
use crate::units::{Bench, Input, Outcome, Raw};

/// Runs unit `index` span-traced, folding its layers into `ledger`.
pub fn traced_unit(bench: &Bench, index: u64, spans: &mut Spans, ledger: &mut Ledger) -> Outcome {
    let input = bench.input(index);
    spans.open("bench.unit", index);
    let out = match &input {
        Input::Node(cfg) => node_unit(bench, &input, *cfg, index, spans, ledger),
        Input::Kv(twl) => kv_unit(bench, &input, *twl, index, spans, ledger),
        Input::Fleet(_) => fleet_unit(bench, &input, index, spans, ledger),
    };
    spans.close();
    out
}

/// Runs `f` and adds the memo-cache activity it caused to the ledger.
fn with_memo<R>(ledger: &mut Ledger, f: impl FnOnce() -> R) -> (R, CacheStats) {
    let before = cache_stats();
    let out = f();
    let delta = cache_stats().since(&before);
    ledger.add("workloads.parallel.memo_hits", delta.hits as f64);
    ledger.add("workloads.parallel.memo_misses", delta.misses as f64);
    (out, delta)
}

fn fail(out: &mut Outcome, why: String) {
    out.failure.get_or_insert(why);
}

fn fold_node(ledger: &mut Ledger, trace: &TraceLog, apps: &[AppResult]) {
    ledger.add("sim.trace.events", trace.len() as f64);
    ledger.fold(trace);
    let mm: f64 = apps.iter().map(|a| a.mm_time.as_secs_f64()).sum();
    ledger.add("framework.mm_sim_s", mm);
}

fn node_unit(
    bench: &Bench,
    input: &Input,
    cfg: MachineConfig,
    index: u64,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Outcome {
    let uncaptured = Input::Node(MachineConfig {
        capture_trace: false,
        ..cfg
    });
    // Alternate which run goes first, so what the first one warms up for
    // the second cancels out over the units.
    let mut raw_off = None;
    if index.is_multiple_of(2) {
        raw_off = Some(spans.time("workloads.machine.run", index, || {
            bench.execute(&uncaptured)
        }));
    }
    let (raw, _) = with_memo(ledger, || {
        spans.time("workloads.machine.captured", index, || bench.execute(input))
    });
    let raw_off = raw_off.unwrap_or_else(|| {
        spans.time("workloads.machine.run", index, || {
            bench.execute(&uncaptured)
        })
    });
    let Raw::Node(outs) = &raw else {
        unreachable!("node input")
    };
    let oracle = Oracle::paper(cfg.monitor);
    let violations: usize = spans.time("oracle.check", index, || {
        outs.iter().map(|o| oracle.check(&o.run.trace).len()).sum()
    });
    for o in outs {
        fold_node(ledger, &o.run.trace, &o.run.apps);
    }
    sample_capture(spans, ledger, index);

    let mut out = bench.reduce(input, &raw);
    if violations > 0 {
        fail(
            &mut out,
            format!("{violations} standalone oracle violation(s)"),
        );
    }
    if bench.reduce(&uncaptured, &raw_off).digest != out.digest {
        fail(&mut out, "event capture changed a node's outcome".into());
    }
    out
}

/// Records the capture cost of one unit: the captured run less the
/// uncaptured run less the oracle replay it includes.
fn sample_capture(spans: &Spans, ledger: &mut Ledger, index: u64) {
    let captured = spans.total_ms("workloads.machine.captured", index);
    let run = spans.total_ms("workloads.machine.run", index);
    let oracle = spans.total_ms("oracle.check", index);
    ledger.sample_ms("sim.trace.capture_ms", captured - run - oracle);
    ledger.sample_ms("workloads.machine.run_ms", run);
    ledger.sample_ms("oracle.check_ms", oracle);
}

/// The node `run_cache_trace` builds for an M3 point, run through
/// `Machine` so its event trace is visible.
fn kv_node(
    twl: TraceWorkload,
    phys: u64,
    capture: bool,
) -> (MachineConfig, m3_workloads::RunResult) {
    let mut cfg = MachineConfig::scaled(phys, true);
    cfg.sample_period = None;
    cfg.max_time = SimDuration::from_secs(60_000);
    cfg.capture_trace = capture;
    let server = AppBlueprint::TraceCache {
        workload: twl,
        max_bytes: 0,
        m3_mode: true,
    };
    let res = Machine::new(cfg).run(vec![("memcached-trace".into(), SimDuration::ZERO, server)]);
    (cfg, res)
}

/// Replays generated ops into a store of the node's size the way the
/// cache server applies them: preload the hottest keys, fill on a miss of
/// a real key.
fn replay(twl: &TraceWorkload, phys: u64, ops: &[TraceOp]) -> KeyedSlabCache {
    let mut store = KeyedSlabCache::new(phys);
    for key in 0..twl.preload_items() {
        let fp = twl.fp_of(key);
        store.insert(fp, twl.value_bytes(fp));
    }
    for op in ops {
        match op.kind {
            TraceOpKind::Get { negative } => {
                if !store.get(op.fp) && !negative {
                    store.insert(op.fp, twl.value_bytes(op.fp));
                }
            }
            TraceOpKind::Set => {
                store.insert(op.fp, twl.value_bytes(op.fp));
            }
            TraceOpKind::Delete => {
                store.delete(op.fp);
            }
        }
    }
    store
}

/// True if the last `cache.stats` snapshot of `trace` is what `out`
/// reports.
fn same_cache_stats(trace: &TraceLog, out: &CacheTraceOutcome) -> bool {
    trace.events().iter().rev().find_map(|e| match e.data {
        TraceData::CacheStats {
            requests,
            hits,
            misses,
            sets,
            deletes,
            delayed,
            ..
        } => Some((requests, hits, misses, sets, deletes, delayed)),
        _ => None,
    }) == Some((
        out.requests,
        out.hits,
        out.misses,
        out.sets,
        out.deletes,
        out.delayed,
    ))
}

fn kv_unit(
    bench: &Bench,
    input: &Input,
    twl: TraceWorkload,
    index: u64,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Outcome {
    let (raw, _) = with_memo(ledger, || {
        spans.time("workloads.kvtrace.run", index, || bench.execute(input))
    });
    let Raw::Kv(model) = &raw else {
        unreachable!("kv input")
    };
    ledger.sample("cache.kv.hit_ratio", model.hit_ratio());

    let ops: Vec<TraceOp> = spans.time("cache.trace.gen", index, || TraceGen::new(twl).collect());
    ledger.sample_ms(
        "cache.trace.gen_ms",
        spans.total_ms("cache.trace.gen", index),
    );
    ledger.add("cache.trace.ops", ops.len() as f64);
    for op in &ops {
        let name = match op.kind {
            TraceOpKind::Get { .. } => "cache.store.gets",
            TraceOpKind::Set => "cache.store.sets",
            TraceOpKind::Delete => "cache.store.deletes",
        };
        ledger.add(name, 1.0);
    }
    let phys = node_phys_bytes(&twl);
    let store = spans.time("cache.store.replay", index, || replay(&twl, phys, &ops));
    ledger.sample_ms(
        "cache.store.replay_ms",
        spans.total_ms("cache.store.replay", index),
    );
    ledger.add(
        "cache.store.class_evictions",
        store.capacity_evictions as f64,
    );
    ledger.add("cache.store.slab_evictions", store.evicted_slabs as f64);
    drop((ops, store));

    let mut off = None;
    if index.is_multiple_of(2) {
        off = Some(
            spans
                .time("workloads.machine.run", index, || kv_node(twl, phys, false))
                .1,
        );
    }
    let (cfg, on) = spans.time("workloads.machine.captured", index, || {
        kv_node(twl, phys, true)
    });
    let off = off.unwrap_or_else(|| {
        spans
            .time("workloads.machine.run", index, || kv_node(twl, phys, false))
            .1
    });
    let violations = spans.time("oracle.check", index, || {
        Oracle::paper(cfg.monitor).check(&on.trace).len()
    });
    fold_node(ledger, &on.trace, &on.apps);
    sample_capture(spans, ledger, index);

    let mut out = bench.reduce(input, &raw);
    if violations > 0 {
        fail(
            &mut out,
            format!("{violations} standalone oracle violation(s)"),
        );
    }
    if !same_cache_stats(&on.trace, model) || on.end.as_millis() != model.end_ms {
        fail(
            &mut out,
            "the Machine replay differs from run_cache_trace".into(),
        );
    }
    let apps =
        |r: &m3_workloads::RunResult| serde_json::to_string(&r.apps).expect("apps serialize");
    if apps(&off) != apps(&on) {
        fail(
            &mut out,
            "event capture changed the cache server's outcome".into(),
        );
    }
    out
}

fn fleet_unit(
    bench: &Bench,
    input: &Input,
    index: u64,
    spans: &mut Spans,
    ledger: &mut Ledger,
) -> Outcome {
    let (cold, _) = with_memo(ledger, || {
        spans.time("workloads.fleet.cold", index, || bench.execute(input))
    });
    let before = cache_stats();
    let warm = spans.time("workloads.fleet.warm", index, || bench.execute(input));
    let warm_memo = cache_stats().since(&before);

    let cold_ms = spans.total_ms("workloads.fleet.cold", index);
    let warm_ms = spans.total_ms("workloads.fleet.warm", index);
    ledger.sample_ms("workloads.fleet.cold_ms", cold_ms);
    ledger.sample_ms("workloads.fleet.warm_ms", warm_ms);
    ledger.sample_ms("workloads.fleet.node_sim_ms", cold_ms - warm_ms);
    let Raw::Fleet(res) = &cold else {
        unreachable!("fleet input")
    };
    ledger.fold(&res.trace);
    for job in &res.jobs {
        ledger.add("workloads.fleet.deferrals", job.deferrals as f64);
        ledger.add("workloads.fleet.migrations", job.migrations as f64);
    }

    let mut out = bench.reduce(input, &cold);
    if warm_memo.misses > 0 {
        fail(
            &mut out,
            format!("warm repeat simulated {} node(s)", warm_memo.misses),
        );
    }
    if bench.reduce(input, &warm).digest != out.digest {
        fail(&mut out, "warm repeat differs from the cold run".into());
    }
    out
}
