//! The per-layer ledger of a traced run.
//!
//! Two sources feed it, both outside the program: spans the benchmark
//! records around each public call it makes, and layer counts folded from
//! the event traces those calls return. Nothing is traced inside the
//! program, so a host-speed change leaves every count identical.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use m3_sim::trace::{GcLayer, SigKind, TraceData, TraceLog};

/// Every per-layer metric a traced run prints, with its unit, in output
/// order. Names are `<module>.<metric>`; a metric a workload does not reach
/// reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.trace.events", "count"),
    ("sim.trace.capture_ms", "ref-ms"),
    ("oracle.check_ms", "ref-ms"),
    ("cache.trace.gen_ms", "ref-ms"),
    ("cache.trace.ops", "count"),
    ("cache.store.replay_ms", "ref-ms"),
    ("cache.store.gets", "count"),
    ("cache.store.sets", "count"),
    ("cache.store.deletes", "count"),
    ("cache.store.class_evictions", "count"),
    ("cache.store.slab_evictions", "count"),
    ("cache.kv.hit_ratio", "ratio"),
    ("core.scheduler.packets", "count"),
    ("core.scheduler.stalls", "count"),
    ("core.scheduler.stall_ratio", "ratio"),
    ("core.alloc.batches", "count"),
    ("core.alloc.admits", "count"),
    ("core.alloc.delayed", "count"),
    ("core.alloc.delay_ratio", "ratio"),
    ("core.monitor.polls", "count"),
    ("core.monitor.signals_low", "count"),
    ("core.monitor.signals_high", "count"),
    ("core.monitor.selects", "count"),
    ("core.monitor.kills", "count"),
    ("core.monitor.threshold_moves", "count"),
    ("runtime.gc_young", "count"),
    ("runtime.gc_mixed", "count"),
    ("runtime.gc_go", "count"),
    ("runtime.gc_pause_sim_s", "sim-s"),
    ("framework.block_evictions", "count"),
    ("framework.mm_sim_s", "sim-s"),
    ("os.spawns", "count"),
    ("os.madvise_calls", "count"),
    ("workloads.parallel.memo_hits", "count"),
    ("workloads.parallel.memo_misses", "count"),
    ("workloads.parallel.memo_hit_ratio", "ratio"),
    ("workloads.fleet.cold_ms", "ref-ms"),
    ("workloads.fleet.warm_ms", "ref-ms"),
    ("workloads.fleet.node_sim_ms", "ref-ms"),
    ("workloads.fleet.probes", "count"),
    ("workloads.fleet.placements", "count"),
    ("workloads.fleet.deferrals", "count"),
    ("workloads.fleet.migrations", "count"),
    ("workloads.machine.run_ms", "ref-ms"),
    ("bench.untraced_unit_ms", "ref-ms"),
    ("bench.traced_unit_ms", "ref-ms"),
    ("bench.trace_overhead_ms", "ref-ms"),
];

/// One recorded span: a named interval of one unit, nested in `parent`.
struct Span {
    name: &'static str,
    unit: u64,
    parent: Option<usize>,
    start_ns: u128,
    end_ns: u128,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans kept in memory and written out when the benchmark ends.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u128 {
        self.origin.elapsed().as_nanos()
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, unit: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("a span is open");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, unit);
        let out = f();
        self.close();
        out
    }

    /// Summed duration of the spans named `name` in `unit`, ms.
    pub fn total_ms(&self, name: &str, unit: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.unit == unit)
            .map(Span::ms)
            .sum()
    }

    /// One JSON object per span, with its self time: its duration minus
    /// the part its child spans cover.
    pub fn to_jsonl(&self) -> String {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"unit\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ms\": {}}}",
                s.unit,
                s.name,
                s.start_ns,
                s.end_ns,
                s.ms() - child_ms[id]
            );
        }
        out
    }
}

/// Per-layer values: counts summed over the traced units, timings kept
/// per unit and reported as their median.
pub struct Ledger {
    counts: BTreeMap<&'static str, f64>,
    timings: BTreeMap<&'static str, Vec<f64>>,
    /// Converts the current unit's host ms into ref-ms.
    pub scale: f64,
}

impl Default for Ledger {
    fn default() -> Self {
        Ledger {
            counts: BTreeMap::new(),
            timings: BTreeMap::new(),
            scale: 1.0,
        }
    }
}

impl Ledger {
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counts.entry(name).or_default() += v;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.counts.insert(name, v);
    }

    /// Records one unit's value of a metric reported as the median over
    /// units.
    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.timings.entry(name).or_default().push(v);
    }

    /// Records one unit's host time in ms, converted into ref-ms.
    pub fn sample_ms(&mut self, name: &'static str, ms: f64) {
        self.sample(name, ms * self.scale);
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Folds one event trace into the layer counts.
    pub fn fold(&mut self, trace: &TraceLog) {
        for e in trace.events() {
            match &e.data {
                TraceData::MonitorPoll { .. } => self.add("core.monitor.polls", 1.0),
                TraceData::SignalSent { sig: SigKind::Low } => {
                    self.add("core.monitor.signals_low", 1.0)
                }
                TraceData::SignalSent { sig: SigKind::High } => {
                    self.add("core.monitor.signals_high", 1.0)
                }
                TraceData::Selection { .. } => self.add("core.monitor.selects", 1.0),
                TraceData::MonitorKill { .. } => self.add("core.monitor.kills", 1.0),
                TraceData::ThresholdAdjust { .. } => self.add("core.monitor.threshold_moves", 1.0),
                TraceData::Gc {
                    layer, pause_ms, ..
                } => {
                    match layer {
                        GcLayer::Young => self.add("runtime.gc_young", 1.0),
                        GcLayer::Mixed => self.add("runtime.gc_mixed", 1.0),
                        GcLayer::Go => self.add("runtime.gc_go", 1.0),
                        GcLayer::Full => {}
                    }
                    self.add("runtime.gc_pause_sim_s", *pause_ms as f64 / 1000.0);
                }
                TraceData::EvictBlocks { evicted, .. } => {
                    self.add("framework.block_evictions", *evicted as f64)
                }
                TraceData::AllocBatch { n, delayed, .. } => {
                    self.add("core.alloc.batches", 1.0);
                    self.add("core.alloc.admits", (n - delayed) as f64);
                    self.add("core.alloc.delayed", *delayed as f64);
                }
                TraceData::AllocGate { delayed, .. } => {
                    let name = if *delayed {
                        "core.alloc.delayed"
                    } else {
                        "core.alloc.admits"
                    };
                    self.add(name, 1.0);
                }
                TraceData::PacketFinish { .. } => self.add("core.scheduler.packets", 1.0),
                TraceData::PacketStall { .. } => self.add("core.scheduler.stalls", 1.0),
                TraceData::ProcSpawn { .. } => self.add("os.spawns", 1.0),
                TraceData::Madvise { .. } => self.add("os.madvise_calls", 1.0),
                TraceData::FleetPressure { .. } => self.add("workloads.fleet.probes", 1.0),
                TraceData::FleetPlace { .. } => self.add("workloads.fleet.placements", 1.0),
                _ => {}
            }
        }
    }

    /// Every per-layer metric, in [`PER_LAYER`] order: ratios derived from
    /// their counts, timings as the median over units.
    pub fn metrics(mut self) -> Vec<(&'static str, f64, &'static str)> {
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let derived = [
            (
                "core.scheduler.stall_ratio",
                ratio(
                    self.count("core.scheduler.stalls"),
                    self.count("core.scheduler.packets"),
                ),
            ),
            (
                "core.alloc.delay_ratio",
                ratio(
                    self.count("core.alloc.delayed"),
                    self.count("core.alloc.delayed") + self.count("core.alloc.admits"),
                ),
            ),
            (
                "workloads.parallel.memo_hit_ratio",
                ratio(
                    self.count("workloads.parallel.memo_hits"),
                    self.count("workloads.parallel.memo_hits")
                        + self.count("workloads.parallel.memo_misses"),
                ),
            ),
        ];
        for (name, v) in derived {
            self.set(name, v);
        }
        for (name, samples) in std::mem::take(&mut self.timings) {
            self.set(name, crate::stats::median(&samples));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.count(name), unit))
            .collect()
    }
}
