//! The Spark executor process driver.
//!
//! One [`SparkApp`] models the single multi-threaded executor the paper's
//! Spark spawns per node (§7.1): it makes iterative passes over its job's
//! working set, consulting the block cache for each block, reading misses
//! from disk, churning transient allocation through the JVM, and — under
//! M3 — handling threshold signals per Table 1 and throttling growth with
//! the adaptive allocation protocol.
//!
//! Time accounting is the *debt* pattern used by every app driver in this
//! workspace: each piece of work (compute, disk read, GC pause, eviction
//! bookkeeping) adds to a debt balance that the world loop pays down with
//! tick budgets; the process finishes when its last block is processed and
//! its debt is paid.

use m3_core::{
    AdaptiveAllocator, M3Participant, PacketBucket, PacketKind, PacketOutcome, ReclaimScheduler,
    SignalOutcome, ThresholdSignal,
};
use m3_os::{DiskModel, Kernel, Pid};
use m3_runtime::{Jvm, JvmConfig, RuntimeError};
use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::rng::SimRng;
use m3_sim::trace::{EvictReason, TraceData};
use serde::{Deserialize, Serialize};

use crate::cache::BlockCache;
use crate::config::SparkConfig;
use crate::hdfs::HdfsInput;
use crate::job::JobSpec;

/// Bookkeeping cost of evicting one block from the cache.
const EVICT_MS_PER_BLOCK: u64 = 5;

/// `NUM_epochs` for the Spark stack (§4.2: "We set this value to 1 in
/// Spark ... because the Spark stack takes longer to reclaim memory").
pub const SPARK_NUM_EPOCHS: u32 = 1;

/// What one tick accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickOutcome {
    /// Simulated time actually consumed (≤ the offered budget).
    pub consumed: SimDuration,
    /// True once the job is complete (or failed) and all debt is paid.
    pub finished: bool,
}

/// Cumulative per-job statistics (the stacked bars of Fig. 1).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SparkStats {
    /// Pure compute time over cached blocks.
    pub compute: SimDuration,
    /// Time handling block-cache capacity misses: evictions plus re-reads
    /// (the paper's "Spark MM" bars).
    pub spark_mm: SimDuration,
    /// First-pass cold input reads (counted as runtime, not MM).
    pub cold_reads: SimDuration,
    /// Allocations delayed by the adaptive protocol.
    pub delayed_allocs: u64,
    /// Block visits processed.
    pub visits: u64,
}

/// A Spark executor process.
#[derive(Debug, Clone)]
pub struct SparkApp {
    cfg: SparkConfig,
    job: JobSpec,
    /// Compute slow-down from execution-memory shortfall (1.0 = none).
    exec_penalty: f64,
    jvm: Jvm,
    cache: BlockCache,
    input: HdfsInput,
    allocator: Option<AdaptiveAllocator>,
    iter: u32,
    next_block: u32,
    /// Visit order for the current pass. Spark's task scheduler does not
    /// visit partitions in a fixed sequence; a per-pass shuffle avoids the
    /// sequential-scan LRU pathology (all-miss below capacity, all-hit
    /// above) and yields the smooth capacity curve of Fig. 1.
    order: Vec<u32>,
    rng: SimRng,
    /// Blocks ever loaded at least once (distinguishes cold from capacity
    /// misses).
    ever_loaded: Vec<bool>,
    debt: SimDuration,
    finished: bool,
    failed: bool,
    /// Per-job statistics.
    pub stats: SparkStats,
}

impl SparkApp {
    /// Creates an executor for `job` in process `pid`.
    ///
    /// Stock executors whose heap is below the job's execution-memory floor
    /// fail immediately (the paper's "nine of the twelve workloads cannot
    /// even run" under the Default setting).
    pub fn new(pid: Pid, jvm_cfg: JvmConfig, cfg: SparkConfig, job: JobSpec) -> Self {
        cfg.validate();
        job.validate();
        // The survivor profile is a property of the job's data lifetimes.
        let jvm_cfg = JvmConfig {
            survival_rate: job.churn_survival,
            ..jvm_cfg
        };
        let jvm = Jvm::new(pid, jvm_cfg);
        let cache = BlockCache::new(cfg.storage_capacity(jvm_cfg.max_heap));
        let num_blocks = job.num_blocks(cfg.block_size);
        let failed = !cfg.m3_mode && jvm_cfg.max_heap < job.min_heap;
        let allocator = cfg
            .m3_mode
            .then(|| AdaptiveAllocator::with_curve(SPARK_NUM_EPOCHS, cfg.rate_curve));
        let input = HdfsInput::new(job.input_bytes.max(1), cfg.block_size);
        let exec_penalty = cfg.execution_penalty(jvm_cfg.max_heap, job.exec_demand);
        let mut rng = SimRng::new(0x5AA5_0FF1 ^ pid ^ u64::from(num_blocks));
        let mut order: Vec<u32> = (0..num_blocks).collect();
        rng.shuffle(&mut order);
        SparkApp {
            cfg,
            exec_penalty,
            order,
            rng,
            jvm,
            cache,
            input,
            allocator,
            iter: 0,
            next_block: 0,
            ever_loaded: vec![false; num_blocks as usize],
            debt: SimDuration::ZERO,
            finished: failed,
            failed,
            stats: SparkStats::default(),
            job,
        }
    }

    /// Re-seeds the per-pass visit order (used to give each cluster node
    /// its own task-scheduling history).
    pub fn with_seed(mut self, salt: u64) -> Self {
        self.rng = SimRng::new(0x5AA5_0FF1 ^ salt ^ self.jvm.pid());
        self.rng.shuffle(&mut self.order);
        self
    }

    /// The job being run.
    pub fn job(&self) -> &JobSpec {
        &self.job
    }

    /// The underlying JVM (for GC statistics and memory inspection).
    pub fn jvm(&self) -> &Jvm {
        &self.jvm
    }

    /// The block cache (for hit/miss statistics).
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// True if the job failed to run (insufficient static heap).
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// True once all passes are processed (debt may still be outstanding).
    fn work_done(&self) -> bool {
        self.iter >= self.job.iterations
    }

    /// Fraction of the job completed, in `[0, 1]`.
    pub fn progress(&self) -> f64 {
        let total = self.job.total_visits(self.cfg.block_size);
        if total == 0 {
            return 1.0;
        }
        (self.stats.visits as f64 / total as f64).min(1.0)
    }

    /// Runs the executor for up to `budget` of simulated time.
    ///
    /// `readers` is the number of processes concurrently hitting the shared
    /// disk this tick (for the contention model).
    pub fn tick(
        &mut self,
        os: &mut Kernel,
        disk: &DiskModel,
        now: SimTime,
        budget: SimDuration,
        readers: usize,
    ) -> TickOutcome {
        if self.finished {
            return TickOutcome {
                consumed: SimDuration::ZERO,
                finished: true,
            };
        }
        let mut remaining = budget;
        // Pay outstanding debt first.
        let pay = self.debt.min(remaining);
        self.debt = self.debt - pay;
        remaining = remaining - pay;

        while !remaining.is_zero() && !self.work_done() {
            let cost = self.process_block(os, disk, now, readers);
            if cost <= remaining {
                remaining = remaining - cost;
            } else {
                self.debt = cost - remaining;
                remaining = SimDuration::ZERO;
            }
        }

        if self.work_done() && self.debt.is_zero() {
            self.finished = true;
            self.jvm.shutdown(os);
        }
        TickOutcome {
            consumed: budget - remaining,
            finished: self.finished,
        }
    }

    /// Adds externally incurred time (e.g. a signal handler's duration) to
    /// the process's debt.
    pub fn add_debt(&mut self, d: SimDuration) {
        self.debt += d;
    }

    /// Processes one block visit, returning its time cost.
    fn process_block(
        &mut self,
        os: &mut Kernel,
        disk: &DiskModel,
        now: SimTime,
        readers: usize,
    ) -> SimDuration {
        let id = self.order[self.next_block as usize];
        let mut cost = SimDuration::ZERO;
        let hit = self.cache.access(id);
        if !hit {
            let cold = !self.ever_loaded[id as usize];
            let read = if cold {
                // First materialization: read this block's share of the
                // on-disk input (the in-memory block is usually larger than
                // its input slice — graph/feature expansion).
                let num = u64::from(self.job.num_blocks(self.cfg.block_size));
                let input_share = self.input.bytes / num.max(1);
                disk.read_time(input_share, readers)
            } else {
                // A capacity miss: this block was evicted earlier and the
                // whole cached representation is re-read/recomputed — the
                // paper's "Spark MM" time (Fig. 1's back-slash bars).
                disk.read_time(self.effective_block_bytes(id), readers)
            };
            if cold {
                self.stats.cold_reads += read;
                self.ever_loaded[id as usize] = true;
            } else {
                self.stats.spark_mm += read;
            }
            cost += read;
            cost += self.insert_block(os, id, now);
        }
        let compute =
            SimDuration::from_millis(self.job.compute_ms_per_block).mul_f64(self.exec_penalty);
        cost += compute;
        self.stats.compute += compute;

        // Transient churn through the JVM (task data, shuffle buffers).
        // These are `alloc()` calls too: under the adaptive protocol a
        // delayed transient allocation reclaims its own space first (a
        // young collection) instead of growing the heap (§4.2).
        if self.job.churn_per_block > 0 {
            let delayed = self.gate_alloc(os, now);
            if delayed {
                self.stats.delayed_allocs += 1;
                let gc = self.jvm.young_gc(os);
                cost += gc.pause;
            }
            match self.jvm.alloc_transient(os, self.job.churn_per_block) {
                Ok(c) => cost += c.pause,
                Err(RuntimeError::HeapExhausted) => {
                    // Make execution room by shrinking the cache.
                    cost += self.evict_blocks_for(os, self.job.churn_per_block, true);
                    if let Ok(c) = self.jvm.alloc_transient(os, self.job.churn_per_block) {
                        cost += c.pause;
                    } else {
                        self.fail(os);
                        return cost;
                    }
                }
            }
        }

        self.stats.visits += 1;
        self.next_block += 1;
        if self.next_block >= self.job.num_blocks(self.cfg.block_size) {
            self.next_block = 0;
            self.iter += 1;
            self.rng.shuffle(&mut self.order);
        }
        cost
    }

    /// Runs one `alloc()` through the adaptive gate (traced by the
    /// allocator); returns `true` if it is delayed.
    fn gate_alloc(&mut self, os: &mut Kernel, now: SimTime) -> bool {
        let pid = self.jvm.pid();
        self.allocator
            .as_mut()
            .is_some_and(|a| a.admit(os, pid, now))
    }

    /// Bytes of the cached representation of block `id` (uniform blocks;
    /// the tail block of the *input* may be short but the in-memory block
    /// is the unit of caching).
    fn effective_block_bytes(&self, _id: u32) -> u64 {
        self.cfg.block_size
    }

    /// Inserts a freshly read block into the cache, applying either stock
    /// capacity eviction or the M3 delayed-allocation protocol.
    fn insert_block(&mut self, os: &mut Kernel, id: u32, now: SimTime) -> SimDuration {
        let bytes = self.effective_block_bytes(id);
        let mut cost = SimDuration::ZERO;

        let delayed = self.gate_alloc(os, now);
        if delayed {
            self.stats.delayed_allocs += 1;
            // §4.2: a delayed allocation first evicts enough of the
            // application's own data to satisfy itself, replacing it
            // in place — usage does not grow.
            let needed = bytes.min(self.cache.used());
            if needed > 0 {
                let (freed, evict_cost) =
                    self.evict_blocks(os, EvictReason::AdmissionDelay, |c| c.evict_bytes(needed));
                cost += evict_cost;
                match self.jvm.replace_pinned(os, freed, bytes) {
                    Ok(c) => cost += c.pause,
                    Err(RuntimeError::HeapExhausted) => {
                        self.fail(os);
                        return cost;
                    }
                }
                self.cache.insert(id, bytes);
                return cost;
            }
        }

        // Stock capacity limit (a no-op under M3's unbounded cache).
        let need = self.cache.needed_for(bytes);
        if need > 0 {
            cost += self.evict_blocks_for(os, need, true);
        }
        match self.jvm.alloc_pinned(os, bytes) {
            Ok(c) => cost += c.pause,
            Err(RuntimeError::HeapExhausted) => {
                // At the static heap maximum: evict and replace in place.
                cost += self.evict_blocks_for(os, bytes, false);
                let freed = bytes.min(self.jvm.pinned());
                match self.jvm.replace_pinned(os, freed, bytes) {
                    Ok(c) => cost += c.pause,
                    Err(RuntimeError::HeapExhausted) => {
                        self.fail(os);
                        return cost;
                    }
                }
            }
        }
        self.cache.insert(id, bytes);
        cost
    }

    /// Evicts cache blocks totalling at least `need` bytes, marking the
    /// JVM data dead. `for_execution` distinguishes eviction forced by
    /// transient allocation (or the stock capacity limit) from
    /// block-replacement eviction.
    fn evict_blocks_for(&mut self, os: &mut Kernel, need: u64, for_execution: bool) -> SimDuration {
        let (freed, cost) = self.evict_blocks(os, EvictReason::Capacity, |c| c.evict_bytes(need));
        if !for_execution {
            // The replacement path reuses the space in place; only mark
            // dead what replace_pinned will not reuse.
            self.jvm.free_pinned(freed.saturating_sub(need));
        } else {
            self.jvm.free_pinned(freed);
        }
        cost
    }

    /// Runs one block eviction, `evict` returning the bytes it freed from
    /// the cache: records `evict.blocks` and charges the per-block
    /// bookkeeping to Spark MM. Returns `(freed, cost)`.
    fn evict_blocks(
        &mut self,
        os: &mut Kernel,
        reason: EvictReason,
        evict: impl FnOnce(&mut BlockCache) -> u64,
    ) -> (u64, SimDuration) {
        let before = self.cache.len();
        let freed = evict(&mut self.cache);
        let evicted = (before - self.cache.len()) as u64;
        os.record_trace_with(self.jvm.pid(), || TraceData::EvictBlocks {
            before: before as u64,
            evicted,
            bytes: freed,
            reason,
        });
        let cost = SimDuration::from_millis(evicted * EVICT_MS_PER_BLOCK);
        self.stats.spark_mm += cost;
        (freed, cost)
    }

    /// Marks the job failed and releases its memory.
    fn fail(&mut self, os: &mut Kernel) {
        self.failed = true;
        self.finished = true;
        self.cache.clear();
        self.jvm.shutdown(os);
    }

    /// The High-signal eviction work packet: drops ⅛ of the cached blocks
    /// (Table 1) and marks their bytes dead in the JVM.
    fn evict_high_packet(&mut self, os: &mut Kernel) -> PacketOutcome {
        let fraction = self.cfg.high_evict_fraction;
        let (freed, cost) =
            self.evict_blocks(os, EvictReason::HighSignal, |c| c.evict_fraction(fraction));
        self.jvm.free_pinned(freed);
        PacketOutcome::freed(freed, cost)
    }
}

impl M3Participant for SparkApp {
    fn pid(&self) -> Pid {
        self.jvm.pid()
    }

    /// Table 1, Spark row — low signal: "call down to JVM" (young GC);
    /// high signal: "evict blocks + call JVM" (⅛ LRU + mixed GC), then run
    /// the adaptive allocation protocol.
    fn handle_signal(
        &mut self,
        sig: ThresholdSignal,
        os: &mut Kernel,
        now: SimTime,
    ) -> SignalOutcome {
        if self.finished {
            return SignalOutcome::default();
        }
        let mut sched = ReclaimScheduler::new(self.jvm.pid());
        let young_run = |app: &mut SparkApp, os: &mut Kernel| {
            let gc = app.jvm.young_collect(os);
            PacketOutcome::freed(gc.reclaimed, gc.pause)
        };
        let madv_run = |app: &mut SparkApp, os: &mut Kernel| {
            PacketOutcome::released(app.jvm.release_to_os(os))
        };
        match sig {
            ThresholdSignal::Low => {
                // Table 1 low: call down to the JVM only.
                let gc = sched.add(PacketKind::GcYoung, &[], young_run);
                sched.add(PacketKind::Madvise, &[gc], madv_run);
                sched.drain(self, os)
            }
            ThresholdSignal::High => {
                if let Some(a) = self.allocator.as_mut() {
                    a.on_high_signal(now);
                }
                let evict_run = |app: &mut SparkApp, os: &mut Kernel| app.evict_high_packet(os);
                let old_run = |app: &mut SparkApp, os: &mut Kernel| {
                    let gc = app.jvm.old_collect(os);
                    PacketOutcome::freed(gc.reclaimed, gc.pause)
                };
                if self.cfg.gc_before_evict {
                    // Ablation: the uncoordinated bottom-up order collects
                    // (and releases) before the upper layer has freed
                    // anything (§2.2 Problem 3) — this cycle's yield is
                    // wasted. Expressed by swapping the bucket assignments.
                    let y =
                        sched.add_in(PacketKind::GcYoung, PacketBucket::Prepare, &[], young_run);
                    let o = sched.add_in(PacketKind::GcOld, PacketBucket::Prepare, &[y], old_run);
                    sched.add_in(PacketKind::Madvise, PacketBucket::Collect, &[o], madv_run);
                    sched.add_in(
                        PacketKind::EvictBlocks,
                        PacketBucket::Release,
                        &[],
                        evict_run,
                    );
                } else {
                    // Top-down: evict blocks, then the mixed collection's
                    // two phases, then one batched release.
                    let e = sched.add(PacketKind::EvictBlocks, &[], evict_run);
                    let y = sched.add(PacketKind::GcYoung, &[e], young_run);
                    let o = sched.add(PacketKind::GcOld, &[y], old_run);
                    sched.add(PacketKind::Madvise, &[o], madv_run);
                }
                let outcome = sched.drain(self, os);
                if let Some(a) = self.allocator.as_mut() {
                    a.on_reclaim_done(now + outcome.duration);
                }
                outcome
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;
    use m3_sim::units::{GIB, MIB};

    fn job() -> JobSpec {
        JobSpec {
            kind: crate::job::JobKind::KMeans,
            name: "kmeans".into(),
            input_bytes: 4 * GIB,
            working_set: 4 * GIB,
            iterations: 3,
            compute_ms_per_block: 100,
            churn_per_block: 64 * MIB,
            min_heap: 2 * GIB,
            churn_survival: 0.08,
            exec_demand: GIB,
        }
    }

    fn setup(jvm_cfg: JvmConfig, spark_cfg: SparkConfig) -> (Kernel, DiskModel, SparkApp) {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("spark");
        let app = SparkApp::new(pid, jvm_cfg, spark_cfg, job());
        (os, DiskModel::hdd_7200rpm(), app)
    }

    fn run_to_completion(os: &mut Kernel, disk: &DiskModel, app: &mut SparkApp) -> SimTime {
        let mut now = SimTime::ZERO;
        let tick = SimDuration::from_millis(100);
        for _ in 0..4_000_000 {
            let out = app.tick(os, disk, now, tick, 1);
            now += tick;
            if out.finished {
                return now;
            }
        }
        panic!("job did not finish");
    }

    #[test]
    fn job_completes_and_releases_memory() {
        let (mut os, disk, mut app) = setup(JvmConfig::stock(8 * GIB), SparkConfig::default());
        let pid = app.pid();
        run_to_completion(&mut os, &disk, &mut app);
        assert!(!app.failed());
        assert_eq!(app.stats.visits, app.job().total_visits(128 * MIB));
        assert_eq!(os.rss(pid), 0, "shutdown must release the heap");
    }

    #[test]
    fn small_heap_is_slower_than_large_heap() {
        // Fig. 1's elasticity end to end: with a 3 GiB heap the 4 GiB
        // working set cannot be cached, so re-reads and GC slow the job.
        let (mut os_s, disk, mut small) = setup(JvmConfig::stock(3 * GIB), SparkConfig::default());
        let t_small = run_to_completion(&mut os_s, &disk, &mut small);
        let (mut os_l, _, mut large) = setup(JvmConfig::stock(12 * GIB), SparkConfig::default());
        let t_large = run_to_completion(&mut os_l, &disk, &mut large);
        assert!(
            t_small > t_large,
            "3GiB heap {} must be slower than 12GiB heap {}",
            t_small,
            t_large
        );
        assert!(small.stats.spark_mm > large.stats.spark_mm);
    }

    #[test]
    fn below_min_heap_fails_immediately() {
        let (mut os, disk, mut app) = setup(JvmConfig::stock(GIB), SparkConfig::default());
        assert!(app.failed());
        let out = app.tick(&mut os, &disk, SimTime::ZERO, SimDuration::from_secs(1), 1);
        assert!(out.finished);
        assert_eq!(out.consumed, SimDuration::ZERO);
    }

    #[test]
    fn m3_mode_ignores_min_heap() {
        let (_, _, app) = setup(JvmConfig::m3(62 * GIB), SparkConfig::m3());
        assert!(!app.failed());
    }

    #[test]
    fn m3_mode_caches_whole_working_set_without_pressure() {
        let (mut os, disk, mut app) = setup(JvmConfig::m3(62 * GIB), SparkConfig::m3());
        run_to_completion(&mut os, &disk, &mut app);
        // No signals were ever sent, so nothing was evicted: every miss was
        // a cold read, zero capacity misses.
        assert_eq!(app.cache.stats.evicted, 0);
        assert_eq!(app.stats.spark_mm, SimDuration::ZERO);
    }

    #[test]
    fn stock_capacity_forces_evictions() {
        // 4 GiB working set, 3 GiB heap → ~1.35 GiB cache: lots of churn.
        let (mut os, disk, mut app) = setup(JvmConfig::stock(3 * GIB), SparkConfig::default());
        run_to_completion(&mut os, &disk, &mut app);
        assert!(app.cache.stats.evicted > 0);
        assert!(app.stats.spark_mm > SimDuration::ZERO);
    }

    #[test]
    fn low_signal_runs_young_gc_only() {
        let (mut os, _, mut app) = setup(JvmConfig::m3(62 * GIB), SparkConfig::m3());
        // Prime some heap state.
        app.jvm.alloc_transient(&mut os, 100 * MIB).unwrap();
        let blocks_before = app.cache.len();
        let out = app.handle_signal(ThresholdSignal::Low, &mut os, SimTime::from_secs(1));
        assert!(out.duration > SimDuration::ZERO);
        assert_eq!(app.cache.len(), blocks_before, "low signal must not evict");
        assert_eq!(app.jvm.stats.young_count, 1);
        assert_eq!(app.jvm.stats.mixed_count, 0);
    }

    #[test]
    fn high_signal_evicts_eighth_and_mixed_gcs() {
        let (mut os, disk, mut app) = setup(JvmConfig::m3(62 * GIB), SparkConfig::m3());
        // Load the cache fully first.
        let mut now = SimTime::ZERO;
        let tick = SimDuration::from_millis(100);
        while app.cache.len() < 32 {
            app.tick(&mut os, &disk, now, tick, 1);
            now += tick;
        }
        let blocks = app.cache.len();
        let mm_before = app.stats.spark_mm;
        let out = app.handle_signal(ThresholdSignal::High, &mut os, now);
        let expected_evicted = (blocks as f64 / 8.0).ceil() as usize;
        assert_eq!(app.cache.len(), blocks - expected_evicted);
        assert_eq!(
            app.stats.spark_mm - mm_before,
            SimDuration::from_millis(expected_evicted as u64 * EVICT_MS_PER_BLOCK),
            "each evicted block's bookkeeping is Spark MM time"
        );
        assert!(app.jvm.stats.mixed_count >= 1);
        assert!(
            out.returned_to_os > 0,
            "mixed GC must return evicted bytes to OS"
        );
    }

    #[test]
    fn high_signal_throttles_subsequent_allocation() {
        let (mut os, disk, mut app) = setup(JvmConfig::m3(62 * GIB), SparkConfig::m3());
        let mut now = SimTime::ZERO;
        let tick = SimDuration::from_millis(100);
        while app.cache.len() < 30 {
            app.tick(&mut os, &disk, now, tick, 1);
            now += tick;
        }
        app.handle_signal(ThresholdSignal::High, &mut os, now);
        let before = app.stats.delayed_allocs;
        // Immediately after the signal the allow rate is ~0: the next
        // misses must be delayed (evict-and-replace instead of growth).
        // Ticking without advancing `now` keeps the rate pinned at zero, so
        // every re-insert of an evicted block must take the delayed path.
        for _ in 0..200 {
            let out = app.tick(&mut os, &disk, now, tick, 1);
            if out.finished {
                break;
            }
        }
        assert!(
            app.stats.delayed_allocs > before,
            "allocations must be delayed"
        );
    }

    #[test]
    fn bottom_up_order_reclaims_less_per_signal() {
        // §2.2 Problem 3: collecting before the upper layer evicts wastes
        // the cycle — the evicted blocks stay garbage until the next one.
        let mk = |gc_first: bool| {
            let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
            let pid = os.spawn("spark");
            let cfg = SparkConfig {
                gc_before_evict: gc_first,
                ..SparkConfig::m3()
            };
            let mut app = SparkApp::new(pid, JvmConfig::m3(62 * GIB), cfg, job());
            let disk = DiskModel::hdd_7200rpm();
            let mut now = SimTime::ZERO;
            while app.cache.len() < 30 {
                app.tick(&mut os, &disk, now, SimDuration::from_millis(100), 1);
                now += SimDuration::from_millis(100);
            }
            let out = app.handle_signal(ThresholdSignal::High, &mut os, now);
            out.returned_to_os
        };
        let top_down = mk(false);
        let bottom_up = mk(true);
        assert!(
            top_down > bottom_up,
            "top-down {top_down} must return more than bottom-up {bottom_up}"
        );
    }

    #[test]
    fn exec_starved_config_computes_slower() {
        let starved = SparkConfig {
            memory_fraction: 0.9,
            storage_fraction: 0.95,
            ..SparkConfig::default()
        };
        let mut big_job = job();
        big_job.exec_demand = 4 * GIB;
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("spark");
        let app = SparkApp::new(pid, JvmConfig::stock(8 * GIB), starved, big_job);
        assert!(app.exec_penalty > 1.0);
    }

    #[test]
    fn signals_after_finish_are_noops() {
        let (mut os, disk, mut app) = setup(JvmConfig::stock(8 * GIB), SparkConfig::default());
        run_to_completion(&mut os, &disk, &mut app);
        let out = app.handle_signal(ThresholdSignal::High, &mut os, SimTime::from_secs(9999));
        assert_eq!(out, SignalOutcome::default());
    }

    #[test]
    fn progress_is_monotone() {
        let (mut os, disk, mut app) = setup(JvmConfig::stock(8 * GIB), SparkConfig::default());
        let mut last = 0.0;
        let mut now = SimTime::ZERO;
        let tick = SimDuration::from_millis(200);
        for _ in 0..100 {
            app.tick(&mut os, &disk, now, tick, 1);
            now += tick;
            let p = app.progress();
            assert!(p >= last);
            last = p;
        }
        assert!(last > 0.0);
    }
}
