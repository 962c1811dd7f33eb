//! The cache server process driver (Go-Cache and Memcached).
//!
//! One [`KvApp`] models a cache process: a preload phase filling the store
//! to the workload's preload fraction, then a measured phase of uniform
//! random gets where each miss pays a backend penalty and inserts the
//! value. The memory backend is either the Go runtime (Go-Cache) or a
//! native allocator (Memcached with `malloc` or `jemalloc`).
//!
//! Requests are advanced in deterministic batches: under uniform access the
//! hit ratio is exactly the resident fraction, so per-request sampling adds
//! nothing but noise (see [`crate::slab`]). A trace-driven server
//! ([`KvApp::trace_memcached`]) replays a production-shaped trace over the
//! key-granular store instead (DESIGN.md §15).

use m3_core::{
    AdaptiveAllocator, M3Participant, PacketKind, PacketOutcome, ReclaimScheduler, SignalOutcome,
    ThresholdSignal,
};
use m3_os::{Kernel, Pid};
use m3_runtime::{AllocatorKind, GoConfig, GoRuntime, NativeAllocator};
use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::trace::{EvictReason, TraceData};
use serde::{Deserialize, Serialize};

use crate::slab::{slabs_for_fraction, SlabCache};
use crate::store::{EvictOutcome, InsertOutcome, KeyedSlabCache};
use crate::trace::{TraceGen, TraceOpKind, TraceWorkload};
use crate::workload::KvWorkload;

/// `NUM_epochs` for cache stacks (§4.2: 5 for Go-Cache and Memcached).
pub const CACHE_NUM_EPOCHS: u32 = 5;

/// Bookkeeping cost of evicting one slab, microseconds.
const SLAB_EVICT_US: u64 = 50;

/// Largest request batch advanced at one hit ratio (keeps the ratio fresh).
const MAX_BATCH: u64 = 20_000;

/// Trace-mode ops applied before the allocation gate settles a batch.
const TRACE_BATCH: u64 = 4096;

/// Keys ahead of the one being preloaded whose index slot is prefetched:
/// the preload knows its next keys, so their cache misses overlap.
const PREFETCH_AHEAD: u64 = 16;

/// Upper bound on trace-mode ops between periodic `cache.stats` snapshots.
/// Short traces snapshot every tenth of the run instead, so even a server
/// the OOM killer takes down early leaves progress counters in the trace.
const TRACE_STATS_EVERY: u64 = 1_000_000;

/// The periodic snapshot interval for a trace of `total_ops` requests.
fn trace_stats_every(total_ops: u64) -> u64 {
    (total_ops / 10).clamp(1, TRACE_STATS_EVERY)
}

/// The memory-management backend under the cache.
#[derive(Debug, Clone)]
pub enum KvBackend {
    /// Go-Cache: a library cache on the Go runtime.
    Go(GoRuntime),
    /// Memcached: native allocation (`malloc` or `jemalloc`).
    Native(NativeAllocator),
}

impl KvBackend {
    fn pid(&self) -> Pid {
        match self {
            KvBackend::Go(g) => g.pid(),
            KvBackend::Native(n) => n.pid(),
        }
    }

    /// Allocates `bytes` of item data; returns any GC pause incurred.
    fn alloc(&mut self, os: &mut Kernel, bytes: u64, now: SimTime) -> SimDuration {
        match self {
            KvBackend::Go(g) => g.alloc(os, bytes, now).pause,
            KvBackend::Native(n) => {
                n.alloc(os, bytes);
                SimDuration::ZERO
            }
        }
    }

    /// Frees `bytes` of item data (eviction).
    fn free(&mut self, os: &mut Kernel, bytes: u64) {
        match self {
            KvBackend::Go(g) => g.free_bytes(bytes),
            KvBackend::Native(n) => n.free(os, bytes),
        }
    }

    /// Periodic housekeeping (Go's background scavenger).
    fn housekeeping(&mut self, os: &mut Kernel, now: SimTime) {
        if let KvBackend::Go(g) = self {
            g.scavenge(os, now);
        }
    }

    fn shutdown(&mut self, os: &mut Kernel) {
        match self {
            KvBackend::Go(g) => g.shutdown(os),
            KvBackend::Native(n) => n.shutdown(os),
        }
    }
}

/// Cumulative cache-server statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct KvStats {
    /// Measured requests completed.
    pub requests_done: u64,
    /// Expected hits among them (deterministic batching).
    pub hits: u64,
    /// Expected misses.
    pub misses: u64,
    /// Inserts delayed by the adaptive protocol.
    pub delayed_puts: u64,
}

/// What one tick accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvTickOutcome {
    /// Simulated time consumed (≤ budget).
    pub consumed: SimDuration,
    /// True once the benchmark completed and all debt is paid.
    pub finished: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Preload,
    Serve,
    Done,
}

/// The key-granular engine driving a production-trace workload: the slab
/// store, the op stream, and its extra accounting.
#[derive(Debug, Clone)]
struct TraceEngine {
    store: KeyedSlabCache,
    gen: TraceGen,
    /// When the measured phase began.
    serve_started: Option<SimTime>,
    /// Next `requests_done` milestone for a periodic stats snapshot.
    next_stats_at: u64,
    /// Negative lookups observed.
    negative: u64,
    /// SETs applied.
    sets: u64,
    /// DELETEs applied.
    deletes: u64,
}

/// Slab-layout deltas accumulated over one trace batch; the backend and
/// the allocation gate are settled once per batch from these.
#[derive(Debug, Default, Clone, Copy)]
struct BatchFx {
    /// Chunk-consuming inserts (gate-relevant allocation attempts).
    attempts: u64,
    /// Chunk bytes those inserts consumed.
    chunk_bytes: u64,
    /// Slabs newly committed.
    new_slabs: u64,
    /// Slabs released (class steals).
    freed_slabs: u64,
}

impl BatchFx {
    /// Adds one insert's slab-layout delta to the batch.
    fn note(&mut self, out: InsertOutcome) {
        if out.chunk_bytes > 0 {
            self.attempts += 1;
            self.chunk_bytes += out.chunk_bytes;
        }
        self.new_slabs += out.new_slabs;
        self.freed_slabs += out.freed_slabs;
    }
}

/// The one store behind a cache server. A server keeps the variant it
/// was built with, so each step reads only its own.
#[derive(Debug, Clone)]
enum Store {
    /// The analytic uniform-access model (§7.1.1): counters, no keys.
    Analytic {
        slabs: SlabCache,
        wl: KvWorkload,
        /// Fractional misses carried across serve batches.
        miss_carry: f64,
    },
    /// A production-shaped trace over the key-granular store.
    Keyed(Box<TraceEngine>),
}

impl Store {
    /// The counters, workload and miss carry of an analytic server.
    fn analytic(&mut self) -> (&mut SlabCache, &KvWorkload, &mut f64) {
        match self {
            Store::Analytic {
                slabs,
                wl,
                miss_carry,
            } => (slabs, wl, miss_carry),
            Store::Keyed(_) => unreachable!("a keyed server runs no analytic step"),
        }
    }

    /// The key-granular engine of a trace-driven server.
    fn keyed(&mut self) -> &mut TraceEngine {
        match self {
            Store::Keyed(e) => e,
            Store::Analytic { .. } => unreachable!("an analytic server runs no trace step"),
        }
    }
}

/// A cache server process (Go-Cache or Memcached).
#[derive(Debug, Clone)]
pub struct KvApp {
    backend: KvBackend,
    store: Store,
    allocator: Option<AdaptiveAllocator>,
    phase: Phase,
    preloaded: u64,
    debt: SimDuration,
    finished: bool,
    /// Drain-scoped accumulator for the keyed eviction packets.
    evict_acc: EvictOutcome,
    /// Statistics.
    pub stats: KvStats,
}

impl KvApp {
    /// Creates a cache app. `max_bytes` is the stock static cache size
    /// (ignored — unbounded — when `m3_mode` is set, matching the paper's
    /// modification).
    pub fn new(backend: KvBackend, wl: KvWorkload, max_bytes: u64, m3_mode: bool) -> Self {
        wl.validate();
        let cap = if m3_mode { u64::MAX / 2 } else { max_bytes };
        let slabs = SlabCache::new(wl.key_space, wl.item_bytes, wl.slab_bytes, cap);
        let store = Store::Analytic {
            slabs,
            wl,
            miss_carry: 0.0,
        };
        KvApp::with_store(backend, store, m3_mode)
    }

    /// Creates a Memcached on jemalloc — the paper's production cache
    /// configuration — driven by a production-shaped trace (Zipf
    /// popularity, tiered values, op mix) over the key-granular slab
    /// store. Shares the analytic path's tick, debt, signal, and
    /// adaptive-allocation plumbing; only the store and the request
    /// stream differ.
    pub fn trace_memcached(pid: Pid, twl: TraceWorkload, max_bytes: u64, m3_mode: bool) -> Self {
        twl.validate();
        let cap = if m3_mode { u64::MAX / 2 } else { max_bytes };
        let mut store = KeyedSlabCache::new(cap);
        store.reserve(twl.preload_items());
        let engine = TraceEngine {
            store,
            gen: TraceGen::new(twl),
            serve_started: None,
            next_stats_at: trace_stats_every(twl.total_ops),
            negative: 0,
            sets: 0,
            deletes: 0,
        };
        let backend = KvBackend::Native(NativeAllocator::new(pid, AllocatorKind::Jemalloc));
        KvApp::with_store(backend, Store::Keyed(Box::new(engine)), m3_mode)
    }

    /// A server around `store`, before its preload.
    fn with_store(backend: KvBackend, store: Store, m3_mode: bool) -> Self {
        KvApp {
            backend,
            store,
            allocator: m3_mode.then(|| AdaptiveAllocator::new(CACHE_NUM_EPOCHS)),
            phase: Phase::Preload,
            preloaded: 0,
            debt: SimDuration::ZERO,
            finished: false,
            evict_acc: EvictOutcome::default(),
            stats: KvStats::default(),
        }
    }

    /// Convenience constructor: Go-Cache on a Go runtime.
    pub fn go_cache(
        pid: Pid,
        go_cfg: GoConfig,
        wl: KvWorkload,
        max_bytes: u64,
        m3_mode: bool,
    ) -> Self {
        KvApp::new(
            KvBackend::Go(GoRuntime::new(pid, go_cfg)),
            wl,
            max_bytes,
            m3_mode,
        )
    }

    /// Convenience constructor: Memcached on a native allocator.
    pub fn memcached(
        pid: Pid,
        kind: AllocatorKind,
        wl: KvWorkload,
        max_bytes: u64,
        m3_mode: bool,
    ) -> Self {
        KvApp::new(
            KvBackend::Native(NativeAllocator::new(pid, kind)),
            wl,
            max_bytes,
            m3_mode,
        )
    }

    /// The memory backend.
    pub fn backend(&self) -> &KvBackend {
        &self.backend
    }

    /// True once the benchmark is complete.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Adds externally incurred time (signal handling) to the debt.
    pub fn add_debt(&mut self, d: SimDuration) {
        self.debt += d;
    }

    /// Runs the server for up to `budget` of simulated time.
    pub fn tick(&mut self, os: &mut Kernel, now: SimTime, budget: SimDuration) -> KvTickOutcome {
        if self.finished {
            return KvTickOutcome {
                consumed: SimDuration::ZERO,
                finished: true,
            };
        }
        self.backend.housekeeping(os, now);

        let mut remaining_us = budget.as_millis() * 1000;
        // Pay outstanding debt first.
        let debt_us = self.debt.as_millis() * 1000;
        let pay = debt_us.min(remaining_us);
        self.debt = SimDuration::from_millis((debt_us - pay) / 1000);
        remaining_us -= pay;

        let keyed = matches!(self.store, Store::Keyed(_));
        while remaining_us > 0 && self.phase != Phase::Done {
            let spent = match (self.phase, keyed) {
                (Phase::Preload, false) => self.preload_step(os, now, remaining_us),
                (Phase::Serve, false) => self.serve_step(os, now, remaining_us),
                (Phase::Preload, true) => self.trace_preload_step(os, now, remaining_us),
                (Phase::Serve, true) => self.trace_serve_step(os, now, remaining_us),
                (Phase::Done, _) => 0,
            };
            if spent == 0 {
                break;
            }
            remaining_us = remaining_us.saturating_sub(spent);
        }

        if self.phase == Phase::Done && self.debt.is_zero() {
            self.finished = true;
            match &mut self.store {
                Store::Analytic { slabs, .. } => slabs.clear(),
                Store::Keyed(e) => {
                    e.store.clear();
                }
            }
            self.backend.shutdown(os);
        }
        KvTickOutcome {
            consumed: budget - SimDuration::from_millis(remaining_us / 1000),
            finished: self.finished,
        }
    }

    /// Advances the preload phase; returns microseconds spent.
    fn preload_step(&mut self, os: &mut Kernel, now: SimTime, budget_us: u64) -> u64 {
        let wl = *self.store.analytic().1;
        let target = wl.preload_items();
        if self.preloaded >= target {
            self.phase = Phase::Serve;
            return 0;
        }
        let bytes_per_us = wl.preload_bytes_per_sec as f64 / 1e6;
        let max_items = ((budget_us as f64 * bytes_per_us) / wl.item_bytes as f64) as u64;
        let n = max_items.min(target - self.preloaded).clamp(1, MAX_BATCH);
        let pause = self.insert_items(os, now, n);
        self.debt += pause;
        self.preloaded += n;
        let spent = (n * wl.item_bytes) as f64 / bytes_per_us;
        (spent as u64).max(1)
    }

    /// Advances the measured phase; returns microseconds spent.
    fn serve_step(&mut self, os: &mut Kernel, now: SimTime, budget_us: u64) -> u64 {
        let (slabs, wl, miss_carry) = self.store.analytic();
        let left = wl.total_requests - self.stats.requests_done;
        if left == 0 {
            self.phase = Phase::Done;
            return 0;
        }
        let h = slabs.hit_ratio();
        let cost = wl.request_cost_us(h);
        let n = ((budget_us as f64 / cost) as u64).clamp(1, MAX_BATCH.min(left));
        // `exact_misses >= 0`: `h` is resident/key-space, so `1 - h >= 0`,
        // and the carry is `exact - min(floor(exact), n) >= 0`. On
        // non-negative values the `as` truncation equals `floor`.
        let exact_misses = n as f64 * (1.0 - h) + *miss_carry;
        let misses = (exact_misses as u64).min(n);
        *miss_carry = exact_misses - misses as f64;

        let pause = self.insert_items(os, now, misses);
        self.debt += pause;

        self.stats.requests_done += n;
        self.stats.hits += n - misses;
        self.stats.misses += misses;
        ((n as f64 * cost) as u64).max(1)
    }

    /// Runs `n` allocation attempts through the adaptive gate (traced by
    /// the allocator) and counts the delayed puts. Returns how many are
    /// delayed.
    fn gate(&mut self, os: &mut Kernel, n: u64, now: SimTime) -> u64 {
        let pid = self.backend.pid();
        let delayed = match self.allocator.as_mut() {
            Some(a) if n > 0 => a.admit_batch(os, pid, n, now),
            _ => 0,
        };
        self.stats.delayed_puts += delayed;
        delayed
    }

    /// Inserts `n` new items, applying the adaptive allocation protocol and
    /// stock capacity eviction. Returns GC pauses incurred.
    fn insert_items(&mut self, os: &mut Kernel, now: SimTime, n: u64) -> SimDuration {
        let delayed = self.gate(os, n, now);
        let (slabs, ..) = self.store.analytic();
        let backend = &mut self.backend;
        let mut pause = SimDuration::ZERO;
        if delayed > 0 {
            // Delayed puts first evict slabs covering their size, then
            // insert: resident memory does not grow.
            let slabs_before = slabs.slab_count();
            let slabs_needed = delayed.div_ceil(slabs.items_per_slab());
            let evicted_items = slabs.evict_slabs(slabs_needed);
            os.record_trace_with(backend.pid(), || TraceData::EvictSlabs {
                before: slabs_before,
                evicted: slabs_before - slabs.slab_count(),
                items: evicted_items,
                bytes: slabs.items_to_bytes(evicted_items),
                reason: EvictReason::AdmissionDelay,
            });
            backend.free(os, slabs.items_to_bytes(evicted_items));
            pause += SimDuration::from_millis(slabs_needed * SLAB_EVICT_US / 1000);
            pause += backend.alloc(os, slabs.items_to_bytes(delayed), now);
            slabs.insert(delayed);
        }
        let allowed = n - delayed;
        if allowed > 0 {
            let evicted = slabs.insert(allowed);
            if evicted > 0 {
                backend.free(os, slabs.items_to_bytes(evicted));
            }
            pause += backend.alloc(os, slabs.items_to_bytes(allowed), now);
        }
        pause
    }

    /// Preloads the hottest ranks into the key-granular store, rate-limited
    /// by the workload's fill bandwidth. Returns microseconds spent.
    fn trace_preload_step(&mut self, os: &mut Kernel, now: SimTime, budget_us: u64) -> u64 {
        let e = self.store.keyed();
        let twl = *e.gen.workload();
        let target = twl.preload_items();
        if self.preloaded >= target {
            self.phase = Phase::Serve;
            return 0;
        }
        let budget_bytes = (budget_us * twl.preload_bytes_per_sec / 1_000_000).max(1);
        let mut fx = BatchFx::default();
        let mut loaded = 0;
        while self.preloaded + loaded < target
            && fx.chunk_bytes < budget_bytes
            && loaded < MAX_BATCH
        {
            let key = self.preloaded + loaded;
            if key + PREFETCH_AHEAD < target {
                e.store.prefetch(twl.fp_of(key + PREFETCH_AHEAD));
            }
            let fp = twl.fp_of(key);
            fx.note(e.store.insert(fp, twl.value_bytes(fp)));
            loaded += 1;
        }
        self.preloaded += loaded;
        let spent = fx.chunk_bytes * 1_000_000 / twl.preload_bytes_per_sec;
        let pause = self.trace_settle(os, now, fx);
        self.debt += pause;
        spent.max(1)
    }

    /// Applies one batch of trace ops against the key-granular store,
    /// then settles the allocation gate and the backend once for the
    /// whole batch. Returns microseconds spent.
    fn trace_serve_step(&mut self, os: &mut Kernel, now: SimTime, budget_us: u64) -> u64 {
        let e = self.store.keyed();
        if e.gen.exhausted() {
            self.emit_cache_stats(os, now);
            self.phase = Phase::Done;
            return 0;
        }
        e.serve_started.get_or_insert(now);
        let twl = *e.gen.workload();
        let budget_ns = budget_us.saturating_mul(1000);
        let mut spent_ns = 0u64;
        let mut fx = BatchFx::default();
        let mut ops = 0;
        let mut stats_due = false;
        while spent_ns < budget_ns && ops < TRACE_BATCH {
            let Some(op) = e.gen.next() else { break };
            ops += 1;
            let base_us = match op.kind {
                TraceOpKind::Get { negative } => {
                    if e.store.get(op.fp) {
                        self.stats.hits += 1;
                        twl.hit_us
                    } else {
                        self.stats.misses += 1;
                        if negative {
                            e.negative += 1;
                        } else {
                            // A real key misses once, then fills.
                            fx.note(e.store.insert(op.fp, twl.value_bytes(op.fp)));
                        }
                        twl.hit_us + twl.miss_extra_us
                    }
                }
                TraceOpKind::Set => {
                    e.sets += 1;
                    fx.note(e.store.insert(op.fp, twl.value_bytes(op.fp)));
                    twl.set_us
                }
                TraceOpKind::Delete => {
                    e.deletes += 1;
                    e.store.delete(op.fp);
                    twl.delete_us
                }
            };
            self.stats.requests_done += 1;
            let (num, den) = op.pace;
            spent_ns += base_us * 1000 * num as u64 / den as u64;
            if self.stats.requests_done >= e.next_stats_at {
                e.next_stats_at += trace_stats_every(twl.total_ops);
                stats_due = true;
            }
        }
        let pause = self.trace_settle(os, now, fx);
        self.debt += pause;
        if stats_due {
            self.emit_cache_stats(os, now);
        }
        (spent_ns / 1000).max(1)
    }

    /// Settles one trace batch: runs the adaptive allocation gate over the
    /// batch's chunk-consuming inserts (one `alloc.batch` event, exactly
    /// like the analytic path), claws back slabs covering the delayed
    /// share, and applies the net slab delta to the memory backend.
    fn trace_settle(&mut self, os: &mut Kernel, now: SimTime, mut fx: BatchFx) -> SimDuration {
        let delayed = self.gate(os, fx.attempts, now);
        let pid = self.backend.pid();
        let store = &mut self.store.keyed().store;
        let mut pause = SimDuration::ZERO;
        if delayed > 0 {
            // Delayed puts must not grow resident memory: evict slabs
            // covering their share of the batch's bytes.
            let delayed_bytes = fx.chunk_bytes * delayed / fx.attempts;
            let slabs_needed = delayed_bytes.div_ceil(store.slab_bytes()).max(1);
            let before = store.slab_count();
            let out = store.evict_slabs(slabs_needed);
            if out.slabs > 0 {
                os.record_trace_with(pid, || TraceData::EvictSlabs {
                    before,
                    evicted: out.slabs,
                    items: out.items,
                    bytes: out.bytes,
                    reason: EvictReason::AdmissionDelay,
                });
                fx.freed_slabs += out.slabs;
                pause += SimDuration::from_millis(out.slabs * SLAB_EVICT_US / 1000);
            }
        }
        let slab_bytes = store.slab_bytes();
        if fx.freed_slabs > 0 {
            self.backend.free(os, fx.freed_slabs * slab_bytes);
        }
        if fx.new_slabs > 0 {
            pause += self.backend.alloc(os, fx.new_slabs * slab_bytes, now);
        }
        pause
    }

    /// Ends a signal's slab eviction of `ev` out of `before` slabs: records
    /// `evict.slabs`, frees the bytes to the backend and charges the
    /// per-slab bookkeeping. Memcached's jemalloc returns freed slabs to
    /// the OS inside `free`, so it reports them as returned.
    fn settle_eviction(
        &mut self,
        os: &mut Kernel,
        before: u64,
        ev: EvictOutcome,
        reason: EvictReason,
    ) -> PacketOutcome {
        os.record_trace_with(self.backend.pid(), || TraceData::EvictSlabs {
            before,
            evicted: ev.slabs,
            items: ev.items,
            bytes: ev.bytes,
            reason,
        });
        self.backend.free(os, ev.bytes);
        let returned = match &self.backend {
            KvBackend::Native(n) if n.kind() == AllocatorKind::Jemalloc => ev.bytes,
            _ => 0,
        };
        PacketOutcome {
            bytes: ev.bytes,
            returned,
            duration: SimDuration::from_millis(ev.slabs * SLAB_EVICT_US / 1000),
        }
    }

    /// Emits a cumulative `cache.stats` snapshot for the trace engine.
    fn emit_cache_stats(&mut self, os: &mut Kernel, now: SimTime) {
        let pid = self.backend.pid();
        let stats = self.stats;
        let e = self.store.keyed();
        let serve_ms = e.serve_started.map(|s| (now - s).as_millis()).unwrap_or(0);
        os.record_trace_with(pid, || TraceData::CacheStats {
            requests: stats.requests_done,
            hits: stats.hits,
            misses: stats.misses,
            negative: e.negative,
            sets: e.sets,
            deletes: e.deletes,
            delayed: stats.delayed_puts,
            capacity_items: e.store.capacity_evictions,
            resident_bytes: e.store.resident_bytes(),
            live_items: e.store.live_items(),
            serve_ms,
        });
    }
}

impl M3Participant for KvApp {
    fn pid(&self) -> Pid {
        self.backend.pid()
    }

    /// Table 1, cache rows — low signal: light eviction (1 % of slabs) +
    /// call Go (where present); high signal: heavy eviction (4 %) + call
    /// Go, then run the adaptive allocation protocol.
    fn handle_signal(
        &mut self,
        sig: ThresholdSignal,
        os: &mut Kernel,
        now: SimTime,
    ) -> SignalOutcome {
        if self.finished {
            return SignalOutcome::default();
        }
        let fraction = match sig {
            ThresholdSignal::Low => 0.01,
            ThresholdSignal::High => 0.04,
        };
        if sig == ThresholdSignal::High {
            if let Some(a) = self.allocator.as_mut() {
                a.on_high_signal(now);
            }
        }
        let pid = self.backend.pid();
        let reason = match sig {
            ThresholdSignal::Low => EvictReason::LowSignal,
            ThresholdSignal::High => EvictReason::HighSignal,
        };
        let mut sched = ReclaimScheduler::new(pid);
        self.evict_acc = EvictOutcome::default();

        // Prepare: the cache's own slab eviction. The key-granular path
        // plans per-class quotas now (nothing runs between enqueue and
        // drain), enqueues one packet per affected class, and an aggregate
        // packet that settles the backend free; the analytic path is a
        // single aggregate packet.
        let evict = match &self.store {
            Store::Keyed(e) => {
                let total = e.store.slab_count();
                let plan = e.store.class_quotas(slabs_for_fraction(total, fraction));
                let mut class_ids = Vec::with_capacity(plan.len());
                for (class, quota) in plan {
                    class_ids.push(sched.add(
                        PacketKind::EvictClass,
                        &[],
                        move |app: &mut KvApp, os: &mut Kernel| {
                            let d = app.store.keyed().store.evict_class(class, quota);
                            os.record_trace_with(pid, || TraceData::EvictClass {
                                chunk: d.chunk,
                                before: d.before,
                                evicted: d.slabs,
                                items: d.items,
                                bytes: d.bytes,
                                reason,
                            });
                            app.evict_acc.add(&d);
                            PacketOutcome::freed(d.bytes, SimDuration::ZERO)
                        },
                    ));
                }
                sched.add(
                    PacketKind::EvictSlabs,
                    &class_ids,
                    move |app: &mut KvApp, os: &mut Kernel| {
                        let acc = std::mem::take(&mut app.evict_acc);
                        app.settle_eviction(os, total, acc, reason)
                    },
                )
            }
            Store::Analytic { .. } => sched.add(
                PacketKind::EvictSlabs,
                &[],
                move |app: &mut KvApp, os: &mut Kernel| {
                    let (slabs, ..) = app.store.analytic();
                    let before = slabs.slab_count();
                    let (evicted, items) = slabs.evict_fraction(fraction);
                    let bytes = slabs.items_to_bytes(items);
                    let ev = EvictOutcome {
                        slabs: evicted,
                        items,
                        bytes,
                    };
                    app.settle_eviction(os, before, ev, reason)
                },
            ),
        };

        // Collect + Release: only the Go runtime has a GC below the cache
        // (Table 1: "call Go"). Memcached's jemalloc already returned the
        // freed slabs inside the eviction packet's `free`.
        if matches!(self.backend, KvBackend::Go(_)) {
            let gc = sched.add(
                PacketKind::GcGo,
                &[evict],
                move |app: &mut KvApp, os: &mut Kernel| match &mut app.backend {
                    KvBackend::Go(g) => {
                        let out = g.collect(os);
                        if !g.config().return_immediately {
                            // Stock Go leaves free spans to the background
                            // scavenger; start its clock.
                            g.note_idle_free(now);
                        }
                        PacketOutcome::freed(out.reclaimed, out.pause)
                    }
                    KvBackend::Native(_) => PacketOutcome::default(),
                },
            );
            let immediate = match &self.backend {
                KvBackend::Go(g) => g.config().return_immediately,
                KvBackend::Native(_) => false,
            };
            if immediate {
                sched.add(
                    PacketKind::Madvise,
                    &[gc],
                    |app: &mut KvApp, os: &mut Kernel| match &mut app.backend {
                        KvBackend::Go(g) => PacketOutcome::released(g.release_to_os(os)),
                        KvBackend::Native(_) => PacketOutcome::default(),
                    },
                );
            }
        }

        let outcome = sched.drain(self, os);
        if sig == ThresholdSignal::High {
            if let Some(a) = self.allocator.as_mut() {
                a.on_reclaim_done(now + outcome.duration);
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;
    use m3_sim::units::GIB;

    fn small_workload() -> KvWorkload {
        KvWorkload {
            key_space: 100_000,
            preload_fraction: 0.85,
            total_requests: 200_000,
            ..KvWorkload::paper_gocache()
        }
    }

    fn setup_go(m3: bool, max: u64) -> (Kernel, KvApp) {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("go-cache");
        let cfg = if m3 {
            GoConfig::m3(100)
        } else {
            GoConfig::stock(100)
        };
        (os, KvApp::go_cache(pid, cfg, small_workload(), max, m3))
    }

    /// The analytic store of an analytic server.
    fn slabs(app: &KvApp) -> &SlabCache {
        match &app.store {
            Store::Analytic { slabs, .. } => slabs,
            Store::Keyed(_) => panic!("a keyed server has no analytic store"),
        }
    }

    /// The key-granular store of a trace-driven server.
    fn keyed(app: &KvApp) -> &KeyedSlabCache {
        match &app.store {
            Store::Keyed(e) => &e.store,
            Store::Analytic { .. } => panic!("an analytic server has no keyed store"),
        }
    }

    fn run(os: &mut Kernel, app: &mut KvApp) -> SimTime {
        run_checking(os, app, |_| {})
    }

    /// [`run`], calling `check` after every tick that does not finish the
    /// server (the finishing tick clears its store).
    fn run_checking(os: &mut Kernel, app: &mut KvApp, mut check: impl FnMut(&KvApp)) -> SimTime {
        let mut now = SimTime::ZERO;
        let tick = SimDuration::from_millis(100);
        for _ in 0..10_000_000 {
            let out = app.tick(os, now, tick);
            now += tick;
            if out.finished {
                return now;
            }
            check(app);
        }
        panic!("benchmark did not finish");
    }

    #[test]
    fn benchmark_completes_and_releases() {
        let (mut os, mut app) = setup_go(false, 64 * GIB);
        let pid = app.pid();
        run(&mut os, &mut app);
        assert_eq!(app.stats.requests_done, 200_000);
        assert_eq!(os.rss(pid), 0, "shutdown releases everything");
    }

    #[test]
    fn preload_reaches_target_before_serving() {
        let (mut os, mut app) = setup_go(false, 64 * GIB);
        let mut now = SimTime::ZERO;
        let tick = SimDuration::from_millis(100);
        while app.phase == Phase::Preload {
            app.tick(&mut os, now, tick);
            now += tick;
        }
        assert_eq!(
            slabs(&app).resident_items(),
            small_workload().preload_items()
        );
    }

    #[test]
    fn bigger_cache_is_faster() {
        // Cache elasticity: a small static cache misses more and pays the
        // backend penalty more often.
        let (mut os_small, mut small) = setup_go(false, app_bytes(0.3));
        let t_small = run(&mut os_small, &mut small);
        let (mut os_big, mut big) = setup_go(false, app_bytes(2.0));
        let t_big = run(&mut os_big, &mut big);
        assert!(
            t_small > t_big,
            "small cache {} must be slower than big cache {}",
            t_small,
            t_big
        );
        assert!(small.stats.misses > big.stats.misses);
    }

    fn app_bytes(frac_of_keyspace: f64) -> u64 {
        let wl = small_workload();
        (wl.full_bytes() as f64 * frac_of_keyspace) as u64
    }

    #[test]
    fn hit_ratio_tracks_residency() {
        let (mut os, mut app) = setup_go(true, 0);
        run(&mut os, &mut app);
        // With an unbounded cache and no signals, every miss fills a key:
        // the store converges toward the full key space.
        assert!(app.stats.hits > app.stats.misses);
    }

    #[test]
    fn low_signal_evicts_one_percent() {
        // Use a small commit chunk so the few evicted slabs exceed the
        // runtime's retained slack and actually reach the OS.
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("go-cache");
        let cfg = GoConfig {
            commit_chunk: m3_sim::units::MIB,
            ..GoConfig::m3(100)
        };
        let mut app = KvApp::go_cache(pid, cfg, small_workload(), 0, true);
        let mut now = SimTime::ZERO;
        while app.phase == Phase::Preload {
            app.tick(&mut os, now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
        }
        let slabs_before = slabs(&app).slab_count();
        let out = app.handle_signal(ThresholdSignal::Low, &mut os, now);
        let expect = ((slabs_before as f64) * 0.01).ceil() as u64;
        assert_eq!(slabs(&app).slab_count(), slabs_before - expect);
        assert!(out.returned_to_os > 0, "Go GC must return evicted slabs");
    }

    #[test]
    fn high_signal_evicts_four_percent_and_throttles() {
        let (mut os, mut app) = setup_go(true, 0);
        let mut now = SimTime::ZERO;
        while app.phase == Phase::Preload {
            app.tick(&mut os, now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
        }
        let slabs_before = slabs(&app).slab_count();
        app.handle_signal(ThresholdSignal::High, &mut os, now);
        let expect = ((slabs_before as f64) * 0.04).ceil() as u64;
        assert_eq!(slabs(&app).slab_count(), slabs_before - expect);
        // Serve while time is frozen: the allow rate is 0, all puts delayed.
        let before = app.stats.delayed_puts;
        for _ in 0..50 {
            app.tick(&mut os, now, SimDuration::from_millis(100));
        }
        assert!(app.stats.delayed_puts > before);
    }

    #[test]
    fn memcached_jemalloc_returns_on_eviction() {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("memcached");
        let mut app = KvApp::memcached(pid, AllocatorKind::Jemalloc, small_workload(), 0, true);
        let mut now = SimTime::ZERO;
        while app.phase == Phase::Preload {
            app.tick(&mut os, now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
        }
        let rss_before = os.rss(pid);
        let out = app.handle_signal(ThresholdSignal::High, &mut os, now);
        assert!(out.returned_to_os > 0);
        assert!(os.rss(pid) < rss_before);
    }

    #[test]
    fn memcached_malloc_holds_freed_memory() {
        // The reason the paper swapped in jemalloc.
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("memcached");
        let mut app = KvApp::memcached(pid, AllocatorKind::Malloc, small_workload(), 0, true);
        let mut now = SimTime::ZERO;
        while app.phase == Phase::Preload {
            app.tick(&mut os, now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
        }
        let rss_before = os.rss(pid);
        let out = app.handle_signal(ThresholdSignal::High, &mut os, now);
        assert_eq!(out.returned_to_os, 0);
        assert_eq!(
            os.rss(pid),
            rss_before,
            "malloc keeps evicted slabs resident"
        );
    }

    #[test]
    fn miss_accounting_is_exact() {
        let (mut os, mut app) = setup_go(false, 64 * GIB);
        run(&mut os, &mut app);
        assert_eq!(
            app.stats.hits + app.stats.misses,
            app.stats.requests_done,
            "hits and misses must partition the requests"
        );
        // Preload covers 85%; the remaining keys fill on first miss, so the
        // total misses are bounded by uncovered keys plus the steady-state
        // expectation — loosely, fewer than half the requests.
        assert!(app.stats.misses < app.stats.requests_done / 2);
    }

    #[test]
    fn stock_capacity_is_respected() {
        let cap = app_bytes(0.3);
        let slab = small_workload().slab_bytes;
        let (mut os, mut app) = setup_go(false, cap);
        let mut peak = 0;
        run_checking(&mut os, &mut app, |app| {
            let resident = slabs(app).resident_bytes();
            assert!(
                resident <= cap + slab,
                "stock cache must stay at its static size: {resident} > {cap} + {slab}"
            );
            peak = peak.max(resident);
        });
        assert!(peak + slab > cap, "the cache fills to its cap");
        assert!(slabs(&app).evicted_slabs > 0);
    }

    #[test]
    fn signals_after_finish_are_noops() {
        let (mut os, mut app) = setup_go(true, 0);
        run(&mut os, &mut app);
        let out = app.handle_signal(ThresholdSignal::High, &mut os, SimTime::from_secs(99999));
        assert_eq!(out, SignalOutcome::default());
    }

    use crate::trace::{TraceWorkload, TrafficPattern};

    fn small_trace() -> TraceWorkload {
        TraceWorkload {
            key_space: 20_000,
            total_ops: 120_000,
            phase_ops: 30_000,
            ..TraceWorkload::smoke(TrafficPattern::Steady)
        }
    }

    fn setup_trace(m3: bool, max: u64) -> (Kernel, KvApp) {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("memcached-trace");
        (os, KvApp::trace_memcached(pid, small_trace(), max, m3))
    }

    #[test]
    fn trace_benchmark_completes_and_releases() {
        let (mut os, mut app) = setup_trace(true, 0);
        let pid = app.pid();
        run(&mut os, &mut app);
        assert_eq!(app.stats.requests_done, 120_000);
        assert!(app.stats.hits > 0 && app.stats.misses > 0);
        assert_eq!(os.rss(pid), 0, "shutdown releases everything");
    }

    #[test]
    fn trace_preload_fills_the_hottest_ranks() {
        let (mut os, mut app) = setup_trace(true, 0);
        let mut now = SimTime::ZERO;
        while app.phase == Phase::Preload {
            app.tick(&mut os, now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
        }
        let twl = small_trace();
        let store = keyed(&app);
        assert_eq!(store.live_items(), twl.preload_items());
        for key in 0..100 {
            assert!(store.contains(twl.fp_of(key)), "hot key {key} preloaded");
        }
    }

    #[test]
    fn trace_signal_emits_class_detail_summing_to_aggregate() {
        let (mut os, mut app) = setup_trace(true, 0);
        let mut now = SimTime::ZERO;
        while app.phase == Phase::Preload {
            app.tick(&mut os, now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
        }
        let before = keyed(&app).slab_count();
        app.handle_signal(ThresholdSignal::High, &mut os, now);
        let agg = os
            .trace
            .of_kind("evict.slabs")
            .filter_map(|ev| match ev.data {
                TraceData::EvictSlabs {
                    before,
                    evicted,
                    items,
                    bytes,
                    reason: EvictReason::HighSignal,
                } => Some((before, evicted, items, bytes)),
                _ => None,
            })
            .last()
            .expect("high-signal eviction recorded");
        assert_eq!(agg.0, before);
        assert_eq!(agg.1, ((before as f64) * 0.04).ceil() as u64, "Table 1: 4%");
        let (mut slabs, mut items, mut bytes, mut classes) = (0, 0, 0, 0);
        for ev in os.trace.of_kind("evict.class") {
            if let TraceData::EvictClass {
                evicted,
                items: i,
                bytes: b,
                reason: EvictReason::HighSignal,
                ..
            } = ev.data
            {
                classes += 1;
                slabs += evicted;
                items += i;
                bytes += b;
            }
        }
        assert!(classes > 1, "eviction spans multiple slab classes");
        assert_eq!(slabs, agg.1, "class slabs sum to the aggregate");
        assert_eq!(items, agg.2, "class items sum to the aggregate");
        assert_eq!(bytes, agg.3, "class bytes sum to the aggregate");
    }

    #[test]
    fn trace_high_signal_throttles_inserts() {
        let (mut os, mut app) = setup_trace(true, 0);
        let mut now = SimTime::ZERO;
        while app.phase == Phase::Preload {
            app.tick(&mut os, now, SimDuration::from_millis(100));
            now += SimDuration::from_millis(100);
        }
        app.handle_signal(ThresholdSignal::High, &mut os, now);
        // Serve while time is frozen: the allow rate is 0, all chunk
        // allocations delayed and clawed back.
        let before = app.stats.delayed_puts;
        for _ in 0..50 {
            app.tick(&mut os, now, SimDuration::from_millis(100));
        }
        assert!(app.stats.delayed_puts > before);
        assert!(os.trace.count("alloc.batch") > 0, "gate events recorded");
    }

    #[test]
    fn trace_emits_final_cache_stats() {
        let (mut os, mut app) = setup_trace(false, 64 * GIB);
        run(&mut os, &mut app);
        let last = os
            .trace
            .of_kind("cache.stats")
            .last()
            .expect("final stats snapshot");
        match &last.data {
            &TraceData::CacheStats {
                requests,
                hits,
                misses,
                negative,
                sets,
                deletes,
                ..
            } => {
                assert_eq!(requests, 120_000);
                assert_eq!(hits + misses + sets + deletes, requests);
                assert!(negative > 0, "negative lookups observed");
                let get_share = (hits + misses) as f64 / requests as f64;
                assert!((get_share - 0.90).abs() < 0.01, "GET share {get_share}");
            }
            other => panic!("unexpected payload {other:?}"),
        }
    }

    #[test]
    fn trace_static_limit_caps_residency() {
        let cap = 64 * m3_sim::units::MIB;
        let (mut os, mut app) = setup_trace(false, cap);
        let pid = app.pid();
        let mut now = SimTime::ZERO;
        let tick = SimDuration::from_millis(100);
        let mut peak = 0;
        for _ in 0..10_000_000 {
            let out = app.tick(&mut os, now, tick);
            now += tick;
            peak = peak.max(os.rss(pid));
            if out.finished {
                break;
            }
        }
        assert!(app.finished(), "run completes under a static cap");
        assert!(
            peak <= cap + 8 * m3_sim::units::MIB,
            "peak rss {peak} must respect the static limit"
        );
        assert!(
            keyed(&app).capacity_evictions > 0,
            "capacity pressure forces LRU recycling"
        );
    }

    #[test]
    fn trace_run_is_deterministic() {
        let run_once = || {
            let (mut os, mut app) = setup_trace(true, 0);
            run(&mut os, &mut app);
            (
                app.stats.requests_done,
                app.stats.hits,
                app.stats.misses,
                app.stats.delayed_puts,
                os.trace.len(),
            )
        };
        assert_eq!(run_once(), run_once());
    }
}
