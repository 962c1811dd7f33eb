//! A HotSpot-G1-like managed runtime model.
//!
//! The model tracks four byte pools inside a committed heap obtained from the
//! simulated OS:
//!
//! ```text
//! committed = young_used + old_live + old_garbage + free
//! ```
//!
//! - `young_used` — bytes allocated since the last young collection;
//! - `old_live` — application-*pinned* data (Spark's cached blocks live
//!   here; they die only when the application explicitly frees them);
//! - `old_garbage` — dead old-generation bytes awaiting a mixed or full
//!   collection (includes young survivors, which in the workloads we model
//!   are short-lived task data that dies before the next mixed cycle);
//! - `free` — committed but unused space (free G1 regions).
//!
//! Two properties of the real JVM that the paper leans on are modelled
//! explicitly. First, a *stock* JVM never returns free regions to the OS —
//! its RSS is its high-water mark (paper Fig. 2). With
//! [`JvmConfig::return_to_os`] set (the paper's ~200-line JVM modification),
//! freed regions are `madvise`d back immediately. Second, the JVM maintains
//! an internal growth *watermark* independent of the max heap size
//! (footnote 2): each time occupancy crosses it, a concurrent cycle + mixed
//! collection runs and the watermark rises, so even an effectively unbounded
//! heap keeps paying a GC cost.

use m3_os::{Kernel, Pid};
use m3_sim::clock::SimDuration;
use m3_sim::trace::{GcLayer, TraceData};
use m3_sim::units::{GIB, MIB, PAGE_SIZE};
use serde::{Deserialize, Serialize};

use crate::gc::{GcCostModel, GcKind, GcStats};
use crate::RuntimeError;

/// Static configuration of a JVM instance (the paper's tuning surface).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JvmConfig {
    /// `-Xmx`: the static maximum heap size.
    pub max_heap: u64,
    /// Region/commit granularity for OS interactions.
    pub commit_chunk: u64,
    /// Fraction of transient young bytes that survive a young collection
    /// (they are promoted and die in the old generation).
    pub survival_rate: f64,
    /// Young generation capacity as a fraction of the effective heap.
    pub young_fraction: f64,
    /// Lower/upper clamps on the young generation capacity.
    pub young_min: u64,
    /// Upper clamp on the young generation capacity.
    pub young_max: u64,
    /// Occupancy fraction of the effective heap that triggers a mixed
    /// collection (G1's initiating-heap-occupancy percent).
    pub ihop: f64,
    /// Fraction of old garbage a single mixed collection reclaims.
    pub mixed_yield: f64,
    /// Initial internal growth watermark (footnote 2).
    pub initial_watermark: u64,
    /// Multiplier applied to the watermark after each watermark-triggered
    /// collection.
    pub watermark_growth: f64,
    /// Garbage-proportional pacing for effectively-unbounded heaps (the M3
    /// JVM): a mixed cycle runs once old garbage reaches this fraction of
    /// the live set. Ignored by bounded stock heaps, which pace on IHOP.
    pub garbage_ratio: f64,
    /// If true (the paper's modified JVM), freed regions are returned to the
    /// OS with `madvise` as soon as they are collected.
    pub return_to_os: bool,
    /// GC pause cost model.
    pub costs: GcCostModel,
}

impl JvmConfig {
    /// A configuration matching the paper's stock JVM with the given
    /// `-Xmx`.
    pub fn stock(max_heap: u64) -> Self {
        JvmConfig {
            max_heap,
            commit_chunk: 256 * MIB,
            survival_rate: 0.08,
            young_fraction: 0.60,
            young_min: 64 * MIB,
            young_max: 4 * GIB,
            ihop: 0.45,
            mixed_yield: 0.90,
            // A stock JVM is greedy from the start: the heap expands to the
            // static maximum and garbage accumulates to the IHOP before any
            // mixed cycle (the paper's Problem 2).
            initial_watermark: max_heap,
            watermark_growth: 1.3,
            garbage_ratio: 0.30,
            return_to_os: false,
            costs: GcCostModel::default(),
        }
    }

    /// The paper's M3-modified JVM: effectively unbounded max heap (growth
    /// is governed by M3 signals instead) and immediate `madvise` of freed
    /// regions.
    pub fn m3(ceiling: u64) -> Self {
        JvmConfig {
            return_to_os: true,
            // Footnote 2's growth watermark: with an effectively unbounded
            // maximum, heap usage is paced by a rising internal watermark,
            // each crossing paying one mixed cycle.
            initial_watermark: 2 * GIB,
            ..JvmConfig::stock(ceiling)
        }
    }
}

/// Outcome of one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcOutcome {
    /// Which collection ran.
    pub kind: GcKind,
    /// Stop-the-world pause charged to the mutator.
    pub pause: SimDuration,
    /// Bytes freed inside the heap.
    pub reclaimed: u64,
    /// Bytes returned to the OS (`0` for a stock JVM).
    pub returned_to_os: u64,
}

/// Outcome of an allocation request (which may have triggered collections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCost {
    /// Total mutator time consumed (GC pauses + commit overhead).
    pub pause: SimDuration,
    /// Bytes returned to the OS by collections this allocation triggered.
    pub returned_to_os: u64,
}

/// A G1-like JVM instance bound to one simulated process.
#[derive(Debug, Clone)]
pub struct Jvm {
    cfg: JvmConfig,
    pid: Pid,
    committed: u64,
    young_used: u64,
    old_live: u64,
    old_garbage: u64,
    watermark: u64,
    /// Collection statistics (figure 1's GC-pause bars read these).
    pub stats: GcStats,
}

impl Jvm {
    /// Creates a JVM for process `pid`. No memory is committed until the
    /// first allocation.
    pub fn new(pid: Pid, cfg: JvmConfig) -> Self {
        let watermark = cfg.initial_watermark.min(cfg.max_heap);
        Jvm {
            cfg,
            pid,
            committed: 0,
            young_used: 0,
            old_live: 0,
            old_garbage: 0,
            watermark,
            stats: GcStats::default(),
        }
    }

    /// The configuration this JVM was built with.
    pub fn config(&self) -> &JvmConfig {
        &self.cfg
    }

    /// The owning process id.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Bytes committed from the OS (the JVM's RSS contribution).
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Bytes in use (young + old live + old garbage).
    pub fn used(&self) -> u64 {
        self.young_used + self.old_live + self.old_garbage
    }

    /// Committed-but-unused bytes (free regions).
    pub fn free(&self) -> u64 {
        self.committed - self.used()
    }

    /// Application-pinned live bytes.
    pub fn pinned(&self) -> u64 {
        self.old_live
    }

    /// Dead old-generation bytes awaiting collection.
    pub fn garbage(&self) -> u64 {
        self.old_garbage
    }

    /// Current young-generation occupancy.
    pub fn young_used(&self) -> u64 {
        self.young_used
    }

    /// The internal growth watermark (footnote 2).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// The effective heap bound: the static max, tempered by the watermark.
    fn effective_cap(&self) -> u64 {
        self.watermark.min(self.cfg.max_heap)
    }

    /// Young generation capacity under the current effective heap.
    ///
    /// Like real G1, the young generation expands into whatever heap the old
    /// generation is not using (up to `young_fraction`, G1's default maximum
    /// of 60 %). This is the paper's Problem 2: a stock JVM "will greedily
    /// use up its entire max heap size before aggressively performing GC",
    /// so to the OS most of a big `-Xmx` looks in-use even though it is
    /// garbage. Under M3 the same expansion is tamed by threshold signals
    /// (young collections) instead of by the static maximum.
    pub fn young_capacity(&self) -> u64 {
        let old_used = self.old_live + self.old_garbage;
        let head = self.effective_cap().saturating_sub(old_used);
        let target = (head as f64 * self.cfg.young_fraction) as u64;
        target.clamp(self.cfg.young_min, self.cfg.young_max)
    }

    /// Grows committed memory so at least `bytes` of free space exist,
    /// bounded by the max heap. Returns whether enough free space exists
    /// afterwards.
    fn ensure_free(&mut self, os: &mut Kernel, bytes: u64) -> bool {
        if self.free() >= bytes {
            return true;
        }
        let need = bytes - self.free();
        let chunked = need.div_ceil(self.cfg.commit_chunk) * self.cfg.commit_chunk;
        let headroom = self.cfg.max_heap.saturating_sub(self.committed);
        let grow = chunked.min(headroom).max(need.min(headroom));
        if grow < need {
            return false;
        }
        os.grow(self.pid, grow).expect("jvm process must be alive");
        self.committed += grow;
        self.free() >= bytes
    }

    /// Releases free regions back to the OS if configured to (the paper's
    /// modification `madvise`s "whenever a heap region is freed"), keeping
    /// one commit chunk of slack for allocation velocity. Only whole pages
    /// can be `madvise`d, so the amount is rounded down to page granularity.
    fn maybe_return_free(&mut self, os: &mut Kernel) -> u64 {
        if !self.cfg.return_to_os {
            return 0;
        }
        let releasable = self.free().saturating_sub(self.cfg.commit_chunk) / PAGE_SIZE * PAGE_SIZE;
        if releasable == 0 {
            return 0;
        }
        os.release(self.pid, releasable)
            .expect("jvm process must be alive");
        self.committed -= releasable;
        releasable
    }

    /// The young collection *phase*: evacuates survivors to the old
    /// generation and frees the rest of the young space, without touching
    /// the OS. The `gc_young` work packet runs exactly this; the Release
    /// bucket (or the monolithic [`Jvm::young_gc`] wrapper) hands the freed
    /// regions back afterwards.
    pub fn young_collect(&mut self, os: &mut Kernel) -> GcOutcome {
        let survivors = (self.young_used as f64 * self.cfg.survival_rate) as u64;
        let reclaimed = self.young_used - survivors;
        let pause = self.cfg.costs.pause(survivors, survivors, reclaimed);
        self.young_used = 0;
        self.old_garbage += survivors;
        self.stats.record(GcKind::Young, pause);
        os.record_trace_with(self.pid, || TraceData::Gc {
            layer: GcLayer::Young,
            reclaimed,
            returned: 0,
            pause_ms: pause.as_millis(),
        });
        GcOutcome {
            kind: GcKind::Young,
            pause,
            reclaimed,
            returned_to_os: 0,
        }
    }

    /// The old-generation trace/evacuate *phase* of a mixed collection
    /// (the `gc_old` work packet): reclaims `mixed_yield` of the
    /// accumulated old garbage, without touching the OS.
    pub fn old_collect(&mut self, os: &mut Kernel) -> GcOutcome {
        let old_reclaimed = (self.old_garbage as f64 * self.cfg.mixed_yield) as u64;
        self.old_garbage -= old_reclaimed;
        // Concurrent marking precedes this; the pause pays remembered-set
        // scanning plus evacuation of live data out of the sparsest regions
        // (a small slice of the live set).
        let copied = (self.old_live as f64 * 0.05) as u64;
        let pause = self.cfg.costs.pause(self.old_live, copied, old_reclaimed);
        self.stats.record(GcKind::Mixed, pause);
        os.record_trace_with(self.pid, || TraceData::Gc {
            layer: GcLayer::Mixed,
            reclaimed: old_reclaimed,
            returned: 0,
            pause_ms: pause.as_millis(),
        });
        GcOutcome {
            kind: GcKind::Mixed,
            pause,
            reclaimed: old_reclaimed,
            returned_to_os: 0,
        }
    }

    /// The full-heap compact *phase* (the `gc_full` work packet): every
    /// dead old byte is reclaimed and the live set compacted, without
    /// touching the OS.
    pub fn full_collect(&mut self, os: &mut Kernel) -> GcOutcome {
        let reclaimed = self.old_garbage;
        self.old_garbage = 0;
        let pause = self
            .cfg
            .costs
            .pause(self.old_live, self.old_live, reclaimed);
        self.stats.record(GcKind::Full, pause);
        os.record_trace_with(self.pid, || TraceData::Gc {
            layer: GcLayer::Full,
            reclaimed,
            returned: 0,
            pause_ms: pause.as_millis(),
        });
        GcOutcome {
            kind: GcKind::Full,
            pause,
            reclaimed,
            returned_to_os: 0,
        }
    }

    /// Releases all currently releasable free heap to the OS (the
    /// `madvise` work packet of the Release bucket). Returns the bytes
    /// given back. Deferring every release to one batched call at the end
    /// of a drain returns exactly as many bytes as the incremental
    /// per-collection releases would have: with `al()` the page-alignment,
    /// `al(x) + al((x - al(x)) + d) = al(x + d)`.
    pub fn release_to_os(&mut self, os: &mut Kernel) -> u64 {
        self.maybe_return_free(os)
    }

    /// Performs a young collection: the young phase plus an immediate
    /// release of freed regions (when configured).
    pub fn young_gc(&mut self, os: &mut Kernel) -> GcOutcome {
        let mut out = self.young_collect(os);
        out.returned_to_os = self.maybe_return_free(os);
        out
    }

    /// Performs a mixed collection: a young collection plus evacuation of a
    /// slice of old regions, reclaiming most accumulated old garbage.
    pub fn mixed_gc(&mut self, os: &mut Kernel) -> GcOutcome {
        let young = self.young_collect(os);
        let old = self.old_collect(os);
        let returned = self.maybe_return_free(os);
        GcOutcome {
            kind: GcKind::Mixed,
            pause: old.pause + young.pause,
            reclaimed: old.reclaimed + young.reclaimed,
            returned_to_os: returned,
        }
    }

    /// Performs a full stop-the-world collection: everything dead is
    /// reclaimed and the live set is compacted.
    pub fn full_gc(&mut self, os: &mut Kernel) -> GcOutcome {
        let young = self.young_collect(os);
        let full = self.full_collect(os);
        let returned = self.maybe_return_free(os);
        GcOutcome {
            kind: GcKind::Full,
            pause: full.pause + young.pause,
            reclaimed: full.reclaimed + young.reclaimed,
            returned_to_os: returned,
        }
    }

    /// Minimum reclaimable old garbage required before a watermark-triggered
    /// collection is worthwhile (prevents no-yield GC storms on a live-heavy
    /// heap; real G1 similarly skips mixed collections whose candidate
    /// regions are below the heap-waste threshold).
    fn min_mixed_yield(&self) -> u64 {
        (self.cfg.commit_chunk / 2).max((self.effective_cap() as f64 * 0.02) as u64)
    }

    /// Checks the internal growth watermark (footnote 2).
    ///
    /// A *bounded* stock heap paces on G1's IHOP: a mixed cycle once
    /// old-generation occupancy (live + garbage — young is handled by young
    /// collections) crosses `ihop × max_heap`, which is exactly the greedy
    /// fill-then-collect behaviour of §2.2 Problem 2.
    ///
    /// An *effectively unbounded* heap (the M3 JVM) paces on the live set
    /// instead: each time usage grows a `garbage_ratio` past the live data,
    /// a mixed cycle runs and the internal watermark rises to track it —
    /// footnote 2's ever-rising watermark, with GC cost that never reaches
    /// zero no matter the ceiling.
    fn check_watermark(&mut self, os: &mut Kernel, cost: &mut AllocCost) {
        if self.cfg.return_to_os {
            let trigger = ((self.old_live as f64) * self.cfg.garbage_ratio) as u64;
            let trigger = trigger.max(self.min_mixed_yield());
            while self.old_garbage >= trigger {
                let pre_used = self.used();
                let out = self.mixed_gc(os);
                cost.pause += out.pause;
                cost.returned_to_os += out.returned_to_os;
                let next = (pre_used as f64 * self.cfg.watermark_growth) as u64;
                self.watermark = self.watermark.max(next).min(self.cfg.max_heap);
            }
            return;
        }
        while self.old_live + self.old_garbage
            >= (self.effective_cap() as f64 * self.cfg.ihop) as u64
            && self.old_garbage >= self.min_mixed_yield()
        {
            let out = self.mixed_gc(os);
            cost.pause += out.pause;
            cost.returned_to_os += out.returned_to_os;
            if self.watermark < self.cfg.max_heap {
                let next = (self.watermark as f64 * self.cfg.watermark_growth) as u64;
                self.watermark = next.min(self.cfg.max_heap);
            } else {
                // At the static maximum the trigger cannot move; one
                // collection per crossing is all G1 would do.
                break;
            }
        }
    }

    /// Allocates short-lived (task/transient) bytes in the young generation.
    ///
    /// May trigger young/mixed/full collections. Fails with
    /// [`RuntimeError::HeapExhausted`] only when the heap is at its static
    /// maximum and almost fully live — the caller (an elastic application)
    /// must evict pinned data and retry.
    pub fn alloc_transient(
        &mut self,
        os: &mut Kernel,
        bytes: u64,
    ) -> Result<AllocCost, RuntimeError> {
        let mut cost = AllocCost::default();
        if self.young_used + bytes > self.young_capacity() {
            let out = self.young_gc(os);
            cost.pause += out.pause;
            cost.returned_to_os += out.returned_to_os;
        }
        self.reserve(os, bytes, &mut cost)?;
        self.young_used += bytes;
        self.check_watermark(os, &mut cost);
        Ok(cost)
    }

    /// Allocates long-lived application-pinned bytes (cached blocks) directly
    /// in the old generation. The bytes stay live until
    /// [`Jvm::free_pinned`].
    pub fn alloc_pinned(&mut self, os: &mut Kernel, bytes: u64) -> Result<AllocCost, RuntimeError> {
        let mut cost = AllocCost::default();
        self.reserve(os, bytes, &mut cost)?;
        self.old_live += bytes;
        self.check_watermark(os, &mut cost);
        Ok(cost)
    }

    /// Marks `bytes` of pinned data dead (application-level eviction). The
    /// space is reclaimed by the next mixed or full collection.
    pub fn free_pinned(&mut self, bytes: u64) {
        let bytes = bytes.min(self.old_live);
        self.old_live -= bytes;
        self.old_garbage += bytes;
    }

    /// Evicts `bytes_out` of pinned data and immediately reuses the space
    /// for `bytes_in` of new pinned data, without growing the heap.
    ///
    /// This models the delayed-allocation path of §4.2: "the evicted memory
    /// is not returned to the OS; instead it is replaced with the newly
    /// allocated data" — and likewise stock Spark's behaviour at its static
    /// maximum ("perform eviction until enough space is created, such that
    /// usage does not increase past maximum size"). Any excess of `bytes_in`
    /// over `bytes_out` goes through the normal allocation path.
    pub fn replace_pinned(
        &mut self,
        os: &mut Kernel,
        bytes_out: u64,
        bytes_in: u64,
    ) -> Result<AllocCost, RuntimeError> {
        let evicted = bytes_out.min(self.old_live);
        self.old_live -= evicted;
        let reused = evicted.min(bytes_in);
        // Space reused in place stays live; eviction overshoot is garbage.
        self.old_live += reused;
        self.old_garbage += evicted - reused;
        let remainder = bytes_in - reused;
        if remainder > 0 {
            self.alloc_pinned(os, remainder)
        } else {
            Ok(AllocCost::default())
        }
    }

    /// Makes `bytes` of free space available, escalating young → grow →
    /// mixed → full, or fails if the static maximum is truly exhausted.
    fn reserve(
        &mut self,
        os: &mut Kernel,
        bytes: u64,
        cost: &mut AllocCost,
    ) -> Result<(), RuntimeError> {
        if self.ensure_free(os, bytes) {
            return Ok(());
        }
        let out = self.mixed_gc(os);
        cost.pause += out.pause;
        cost.returned_to_os += out.returned_to_os;
        if self.ensure_free(os, bytes) {
            return Ok(());
        }
        let out = self.full_gc(os);
        cost.pause += out.pause;
        cost.returned_to_os += out.returned_to_os;
        if self.ensure_free(os, bytes) {
            return Ok(());
        }
        Err(RuntimeError::HeapExhausted)
    }

    /// Shuts the JVM down, returning all committed memory to the OS.
    pub fn shutdown(&mut self, os: &mut Kernel) {
        if os.is_alive(self.pid) {
            os.release(self.pid, self.committed)
                .expect("alive process releases cleanly");
        }
        self.committed = 0;
        self.young_used = 0;
        self.old_live = 0;
        self.old_garbage = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;

    fn setup(max_heap: u64) -> (Kernel, Jvm) {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("jvm");
        let jvm = Jvm::new(pid, JvmConfig::stock(max_heap));
        (os, jvm)
    }

    fn run_churn(jvm: &mut Jvm, os: &mut Kernel, blocks: u64, each: u64) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for _ in 0..blocks {
            total += jvm.alloc_transient(os, each).expect("fits").pause;
        }
        total
    }

    fn setup_m3(ceiling: u64) -> (Kernel, Jvm) {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("jvm-m3");
        let jvm = Jvm::new(pid, JvmConfig::m3(ceiling));
        (os, jvm)
    }

    #[test]
    fn invariant_holds_through_operations() {
        let (mut os, mut jvm) = setup(8 * GIB);
        jvm.alloc_transient(&mut os, 100 * MIB).unwrap();
        jvm.alloc_pinned(&mut os, GIB).unwrap();
        jvm.free_pinned(512 * MIB);
        jvm.young_gc(&mut os);
        jvm.mixed_gc(&mut os);
        assert_eq!(
            jvm.committed(),
            jvm.young_used() + jvm.pinned() + jvm.garbage() + jvm.free()
        );
        assert_eq!(os.rss(jvm.pid()), jvm.committed());
    }

    #[test]
    fn commit_grows_lazily_in_chunks() {
        let (mut os, mut jvm) = setup(8 * GIB);
        assert_eq!(jvm.committed(), 0);
        jvm.alloc_transient(&mut os, MIB).unwrap();
        assert_eq!(jvm.committed(), 256 * MIB, "one commit chunk");
    }

    #[test]
    fn young_gc_reclaims_and_promotes() {
        let (mut os, mut jvm) = setup(8 * GIB);
        jvm.alloc_transient(&mut os, 100 * MIB).unwrap();
        let out = jvm.young_gc(&mut os);
        assert_eq!(out.kind, GcKind::Young);
        assert_eq!(jvm.young_used(), 0);
        let survivors = (100.0 * MIB as f64 * 0.08) as u64;
        assert_eq!(jvm.garbage(), survivors);
        assert_eq!(out.reclaimed, 100 * MIB - survivors);
        assert!(out.pause > SimDuration::ZERO);
    }

    #[test]
    fn mixed_gc_clears_most_old_garbage() {
        let (mut os, mut jvm) = setup(8 * GIB);
        jvm.alloc_pinned(&mut os, GIB).unwrap();
        jvm.free_pinned(GIB);
        assert_eq!(jvm.garbage(), GIB);
        let out = jvm.mixed_gc(&mut os);
        assert_eq!(out.kind, GcKind::Mixed);
        assert!(jvm.garbage() < GIB / 8, "mixed should reclaim ~90%");
        assert!(out.reclaimed >= (GIB as f64 * 0.9) as u64 - MIB);
    }

    #[test]
    fn full_gc_clears_all_garbage_but_costs_more() {
        let (mut os, mut jvm) = setup(16 * GIB);
        jvm.alloc_pinned(&mut os, 4 * GIB).unwrap();
        jvm.free_pinned(2 * GIB);
        let mut jvm2 = jvm.clone();
        let mixed = jvm.mixed_gc(&mut os);
        let full = jvm2.full_gc(&mut os);
        assert_eq!(jvm2.garbage(), 0);
        assert!(
            full.pause > mixed.pause,
            "full {} vs mixed {}",
            full.pause,
            mixed.pause
        );
    }

    #[test]
    fn stock_jvm_holds_committed_memory() {
        let (mut os, mut jvm) = setup(8 * GIB);
        jvm.alloc_pinned(&mut os, 2 * GIB).unwrap();
        jvm.free_pinned(2 * GIB);
        jvm.full_gc(&mut os);
        // Everything is dead and collected, yet RSS stays at the peak.
        assert!(jvm.committed() >= 2 * GIB);
        assert_eq!(os.rss(jvm.pid()), jvm.committed());
    }

    #[test]
    fn m3_jvm_returns_freed_memory() {
        let (mut os, mut jvm) = setup_m3(62 * GIB);
        jvm.alloc_pinned(&mut os, 2 * GIB).unwrap();
        jvm.free_pinned(2 * GIB);
        let out = jvm.full_gc(&mut os);
        assert!(
            out.returned_to_os > GIB,
            "freed regions must go back to the OS"
        );
        assert!(jvm.committed() < GIB, "only allocation slack retained");
        assert_eq!(os.rss(jvm.pid()), jvm.committed());
    }

    #[test]
    fn small_heap_means_more_gc_for_same_allocation() {
        // The elasticity of Fig. 1: the same live set and allocation stream
        // under a smaller -Xmx → more collections and more total pause.
        let mut pauses = Vec::new();
        for heap in [2 * GIB, 8 * GIB] {
            let (mut os, mut jvm) = setup(heap);
            jvm.alloc_pinned(&mut os, GIB / 2).unwrap();
            let mut total = SimDuration::ZERO;
            for _ in 0..2000 {
                let c = jvm.alloc_transient(&mut os, 4 * MIB).unwrap();
                total += c.pause;
            }
            pauses.push(total);
        }
        assert!(
            pauses[0] > pauses[1],
            "2GiB heap GC {} should exceed 8GiB heap GC {}",
            pauses[0],
            pauses[1]
        );
    }

    #[test]
    fn watermark_triggers_gc_even_with_huge_heap() {
        // Footnote 2: PageRank pays ≥328 s of GC regardless of max heap.
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("jvm-m3");
        let mut jvm = Jvm::new(pid, JvmConfig::m3(1024 * GIB));
        let wm0 = jvm.watermark();
        // A PageRank-like heap: a multi-GiB live set plus heavy churn.
        jvm.alloc_pinned(&mut os, 4 * GIB).unwrap();
        run_churn(&mut jvm, &mut os, 12_000, 2 * MIB);
        assert!(jvm.stats.total_count() > 0, "GC must still run");
        assert!(jvm.watermark() > wm0, "watermark must rise after triggers");
    }

    #[test]
    fn stock_jvm_is_greedy_with_large_max_heap() {
        // Problem 2 (§2.2): a stock JVM greedily fills its -Xmx with young
        // space and garbage before collecting aggressively; to the OS the
        // memory appears in use.
        let (mut os, mut jvm) = setup(32 * GIB);
        jvm.alloc_pinned(&mut os, 4 * GIB).unwrap();
        run_churn(&mut jvm, &mut os, 1500, 128 * MIB);
        assert!(
            jvm.committed() > 16 * GIB,
            "committed {} should balloon toward the static maximum",
            jvm.committed()
        );
    }

    #[test]
    fn heap_exhaustion_surfaces_to_caller() {
        let (mut os, mut jvm) = setup(GIB);
        // Fill the heap with live data; no GC can help.
        jvm.alloc_pinned(&mut os, (0.9 * GIB as f64) as u64)
            .unwrap();
        let err = jvm.alloc_pinned(&mut os, GIB / 2).unwrap_err();
        assert_eq!(err, RuntimeError::HeapExhausted);
        // Evicting pinned data makes the allocation succeed again.
        jvm.free_pinned(GIB / 2);
        assert!(jvm.alloc_pinned(&mut os, GIB / 4).is_ok());
    }

    #[test]
    fn replace_pinned_does_not_grow_heap() {
        let (mut os, mut jvm) = setup(8 * GIB);
        jvm.alloc_pinned(&mut os, 2 * GIB).unwrap();
        let committed = jvm.committed();
        let live = jvm.pinned();
        jvm.replace_pinned(&mut os, 256 * MIB, 256 * MIB).unwrap();
        assert_eq!(jvm.committed(), committed, "in-place replacement");
        assert_eq!(jvm.pinned(), live);
        assert_eq!(jvm.garbage(), 0);
    }

    #[test]
    fn replace_pinned_overshoot_becomes_garbage() {
        let (mut os, mut jvm) = setup(8 * GIB);
        jvm.alloc_pinned(&mut os, 2 * GIB).unwrap();
        jvm.replace_pinned(&mut os, 512 * MIB, 128 * MIB).unwrap();
        assert_eq!(jvm.pinned(), 2 * GIB - 384 * MIB);
        assert_eq!(jvm.garbage(), 384 * MIB);
    }

    #[test]
    fn replace_pinned_shortfall_allocates() {
        let (mut os, mut jvm) = setup(8 * GIB);
        jvm.alloc_pinned(&mut os, GIB).unwrap();
        jvm.replace_pinned(&mut os, 128 * MIB, 512 * MIB).unwrap();
        assert_eq!(jvm.pinned(), GIB + 384 * MIB);
    }

    #[test]
    fn shutdown_releases_everything() {
        let (mut os, mut jvm) = setup(8 * GIB);
        jvm.alloc_pinned(&mut os, GIB).unwrap();
        jvm.shutdown(&mut os);
        assert_eq!(jvm.committed(), 0);
        assert_eq!(os.rss(jvm.pid()), 0);
    }

    #[test]
    fn reserve_escalates_to_full_gc() {
        // A heap full of garbage: the allocation path must escalate through
        // mixed to full collection rather than fail.
        let (mut os, mut jvm) = setup(2 * GIB);
        jvm.alloc_pinned(&mut os, GIB).unwrap();
        jvm.free_pinned(GIB);
        // Mixed reclaims 90%; ask for more than that to force the full GC.
        jvm.alloc_pinned(&mut os, 2 * GIB - 256 * MIB).unwrap();
        assert!(jvm.stats.full_count + jvm.stats.mixed_count >= 1);
        assert!(jvm.committed() <= 2 * GIB);
    }

    #[test]
    fn replace_pinned_on_empty_heap_allocates() {
        let (mut os, mut jvm) = setup(4 * GIB);
        jvm.replace_pinned(&mut os, 512 * MIB, 256 * MIB).unwrap();
        assert_eq!(
            jvm.pinned(),
            256 * MIB,
            "nothing to evict, plain allocation"
        );
    }

    #[test]
    fn gc_outcomes_report_reclaimed_bytes() {
        let (mut os, mut jvm) = setup(8 * GIB);
        jvm.alloc_transient(&mut os, 512 * MIB).unwrap();
        let out = jvm.young_gc(&mut os);
        assert_eq!(
            out.reclaimed,
            512 * MIB - (512.0 * MIB as f64 * 0.08) as u64
        );
        let event = os.trace.last("gc.young").expect("young collection traced");
        assert!(
            matches!(event.data, TraceData::Gc { reclaimed, .. } if reclaimed == out.reclaimed),
            "the gc.young event carries the reclaimed bytes, got {:?}",
            event.data
        );
    }

    #[test]
    fn collect_phases_compose_to_monolithic_mixed_gc() {
        // The packetized path (young + old collect phases, one batched
        // release) must leave the heap bit-identical to the monolithic
        // mixed_gc and return the same bytes to the OS.
        // Kernel is not Clone, so drive two identically-constructed worlds.
        let (mut os, mut jvm) = setup_m3(62 * GIB);
        jvm.alloc_pinned(&mut os, 2 * GIB).unwrap();
        jvm.alloc_transient(&mut os, 512 * MIB).unwrap();
        jvm.free_pinned(GIB);
        let (mut os2, mut packetized) = setup_m3(62 * GIB);
        packetized.alloc_pinned(&mut os2, 2 * GIB).unwrap();
        packetized.alloc_transient(&mut os2, 512 * MIB).unwrap();
        packetized.free_pinned(GIB);

        let mono = jvm.mixed_gc(&mut os);

        let young = packetized.young_collect(&mut os2);
        let old = packetized.old_collect(&mut os2);
        let returned = packetized.release_to_os(&mut os2);

        assert_eq!(mono.reclaimed, young.reclaimed + old.reclaimed);
        assert_eq!(mono.pause, young.pause + old.pause);
        assert_eq!(mono.returned_to_os, returned);
        assert_eq!(jvm.committed(), packetized.committed());
        assert_eq!(jvm.free(), packetized.free());
        assert_eq!(jvm.garbage(), packetized.garbage());
        assert_eq!(os.rss(jvm.pid()), os2.rss(packetized.pid()));
    }

    #[test]
    fn young_capacity_scales_with_heap_and_clamps() {
        let (_, small) = setup(GIB);
        let (_, big) = setup(64 * GIB);
        assert!(small.young_capacity() >= 64 * MIB);
        assert_eq!(big.young_capacity(), 4 * GIB, "clamped at young_max");
        assert!(small.young_capacity() <= big.young_capacity());
    }
}
