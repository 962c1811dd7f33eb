//! Work-packet reclamation scheduler.
//!
//! Every M3 reclamation used to be a monolithic handler: Spark's High
//! handler evicted ⅛ of its blocks, ran a mixed GC and madvised, all as one
//! opaque call. This module decomposes those handlers into typed
//! [`WorkPacket`]s placed in three ordered buckets that encode the paper's
//! top-down reclamation order:
//!
//! 1. [`PacketBucket::Prepare`] — application-layer evictions that mark
//!    bytes dead (block-cache purges, slab-class evictions);
//! 2. [`PacketBucket::Collect`] — runtime GC phases that turn dead bytes
//!    into free heap (young/old/full/Go cycles);
//! 3. [`PacketBucket::Release`] — batched `madvise` handing free pages back
//!    to the OS.
//!
//! A bucket only *opens* once every packet in all earlier buckets has
//! finished, and a packet only *executes* once its explicit dependencies
//! have finished. The drain proceeds in waves: each wave, the ready set of
//! the open bucket is costed in parallel through
//! [`m3_sim::parallel::parallel_map`] (a pure pass, merged in submission
//! order), then the mutations commit serially in packet-id order. Because
//! the only parallel phase is pure and its merge is deterministic, a drain
//! is **byte-identical for any worker count** — `M3_JOBS=8` changes
//! wall-clock time, never results. The conformance suite pins this down,
//! and the `reclaim.packet.*` trace events emitted here let the oracle
//! verify bucket order, dependency edges and byte conservation after every
//! traced run.

mod packet;
mod stats;

pub use packet::{PacketId, PacketKind, PacketOutcome, WorkPacket};
pub use stats::{PacketRecord, PacketStats};

pub use m3_sim::trace::PacketBucket;

use m3_os::{Kernel, Pid};
use m3_sim::parallel::{parallel_map, worker_threads};
use m3_sim::trace::TraceData;

use crate::layer::SignalOutcome;

/// Ready waves at least this large are costed through the thread pool;
/// smaller waves are costed serially (spawning threads for two or three
/// pure estimator calls costs more than it saves).
pub const PARALLEL_COST_MIN: usize = 4;

/// Scheduler tunables.
#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerConfig {
    /// Worker threads for the parallel costing pass; `None` uses
    /// [`worker_threads`] (the `M3_JOBS` environment variable).
    pub workers: Option<usize>,
}

impl SchedulerConfig {
    /// The effective worker count.
    pub fn worker_count(&self) -> usize {
        self.workers.unwrap_or_else(worker_threads)
    }
}

/// What one full drain accomplished.
#[derive(Debug)]
pub struct DrainResult {
    /// Summed handler outcome (durations add, returned bytes add) — what
    /// `handle_signal` reports to the monitor.
    pub outcome: SignalOutcome,
    /// Per-packet statistics.
    pub stats: PacketStats,
}

/// A single-drain packet scheduler over a participant context `C`.
///
/// Built fresh for each signal: the handler enqueues its packets (eviction,
/// GC phases, madvise) with explicit dependencies, then calls
/// [`ReclaimScheduler::drain`] once. Ids are assigned in enqueue order and
/// double as the deterministic execution order within a wave.
pub struct ReclaimScheduler<C> {
    pid: Pid,
    cfg: SchedulerConfig,
    packets: Vec<WorkPacket<C>>,
}

impl<C: Sync> ReclaimScheduler<C> {
    /// An empty scheduler draining on behalf of `pid`.
    pub fn new(pid: Pid, cfg: SchedulerConfig) -> Self {
        ReclaimScheduler {
            pid,
            cfg,
            packets: Vec::new(),
        }
    }

    /// Number of packets enqueued so far.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when nothing has been enqueued.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Enqueues a packet in its kind's default bucket with a zero cost
    /// estimate. Returns its id for use in later packets' `deps`.
    pub fn add(
        &mut self,
        kind: PacketKind,
        deps: &[PacketId],
        run: impl FnOnce(&mut C, &mut Kernel) -> PacketOutcome + 'static,
    ) -> PacketId {
        self.add_in(kind, kind.default_bucket(), deps, |_| 0, run)
    }

    /// Enqueues a packet in its kind's default bucket with a pure byte-cost
    /// estimator (evaluated during the wave's parallel costing pass).
    pub fn add_costed(
        &mut self,
        kind: PacketKind,
        deps: &[PacketId],
        cost: impl Fn(&C) -> u64 + Send + Sync + 'static,
        run: impl FnOnce(&mut C, &mut Kernel) -> PacketOutcome + 'static,
    ) -> PacketId {
        self.add_in(kind, kind.default_bucket(), deps, cost, run)
    }

    /// Fully explicit enqueue: kind, bucket, dependencies, cost estimator
    /// and the mutation itself.
    ///
    /// Panics if a dependency names a not-yet-enqueued packet or one in a
    /// *later* bucket — either would deadlock the drain, so both are
    /// rejected as programming errors at enqueue time.
    pub fn add_in(
        &mut self,
        kind: PacketKind,
        bucket: PacketBucket,
        deps: &[PacketId],
        cost: impl Fn(&C) -> u64 + Send + Sync + 'static,
        run: impl FnOnce(&mut C, &mut Kernel) -> PacketOutcome + 'static,
    ) -> PacketId {
        let id = self.packets.len() as PacketId;
        for &d in deps {
            let dep = self
                .packets
                .get(d as usize)
                .unwrap_or_else(|| panic!("packet {id} depends on unknown packet {d}"));
            assert!(
                dep.bucket <= bucket,
                "packet {id} ({bucket:?}) depends on packet {d} in later bucket {:?}",
                dep.bucket
            );
        }
        self.packets.push(WorkPacket {
            id,
            kind,
            bucket,
            deps: deps.to_vec(),
            cost: Box::new(cost),
            run: Some(Box::new(run)),
        });
        id
    }

    /// Executes every packet and returns the summed outcome plus
    /// per-packet statistics. Emits `reclaim.packet.enqueue` for every
    /// packet up front (id order), then `stall`/`start`/`finish` events as
    /// the waves progress.
    pub fn drain(mut self, ctx: &mut C, os: &mut Kernel) -> DrainResult {
        let pid = self.pid;
        for p in &self.packets {
            os.record_trace_with(pid, || TraceData::PacketEnqueue {
                packet: p.id,
                pkind: p.kind.name().to_string(),
                bucket: p.bucket,
                deps: p.deps.clone(),
            });
        }

        let n = self.packets.len();
        let mut finished = vec![false; n];
        let mut stats = PacketStats::default();
        let mut outcome = SignalOutcome::default();
        let mut wave: u64 = 0;
        let mut done = 0usize;
        while done < n {
            // The open bucket is the earliest one still holding unfinished
            // packets: by definition every packet in a strictly earlier
            // bucket has finished.
            let open = self
                .packets
                .iter()
                .filter(|p| !finished[p.id as usize])
                .map(|p| p.bucket)
                .min()
                .expect("unfinished packets remain");
            let mut ready: Vec<usize> = Vec::new();
            for p in self.packets.iter().filter(|p| p.bucket == open) {
                let i = p.id as usize;
                if finished[i] {
                    continue;
                }
                match p.deps.iter().find(|&&d| !finished[d as usize]) {
                    None => ready.push(i),
                    Some(&blocker) => {
                        os.record_trace(
                            pid,
                            TraceData::PacketStall {
                                packet: p.id,
                                waiting_on: blocker,
                                wave,
                            },
                        );
                        stats.stalls += 1;
                    }
                }
            }
            // Always true: the smallest unfinished id in the open bucket
            // has only finished dependencies (deps are earlier ids in the
            // same or an earlier bucket), so every wave makes progress.
            assert!(!ready.is_empty(), "packet dependency cycle");

            // Pure costing pass, fanned out when the wave is large enough.
            // `parallel_map` merges in submission order, so the planned
            // bytes land in the same slots for any worker count. Only a
            // wave that fans out reads the worker count: with `M3_JOBS`
            // unset that reads cgroup files, which most drains never need.
            let cost_workers = if ready.len() >= PARALLEL_COST_MIN {
                self.cfg.worker_count()
            } else {
                1
            };
            let estimators: Vec<&(dyn Fn(&C) -> u64 + Send + Sync)> = ready
                .iter()
                .map(|&i| self.packets[i].cost.as_ref())
                .collect();
            let shared: &C = ctx;
            let planned = parallel_map(estimators, cost_workers, |est| est(shared));

            // Commit serially in packet-id order (`ready` is id-sorted).
            for (&i, &planned_bytes) in ready.iter().zip(planned.iter()) {
                let (id, kind, bucket) = {
                    let p = &self.packets[i];
                    (p.id, p.kind, p.bucket)
                };
                os.record_trace(
                    pid,
                    TraceData::PacketStart {
                        packet: id,
                        bucket,
                        wave,
                    },
                );
                let run = self.packets[i]
                    .run
                    .take()
                    .expect("packet executes exactly once");
                let out = run(ctx, os);
                os.record_trace(
                    pid,
                    TraceData::PacketFinish {
                        packet: id,
                        bucket,
                        bytes: out.bytes,
                        returned: out.returned,
                        duration_ms: out.duration.as_millis(),
                    },
                );
                outcome.merge(SignalOutcome {
                    duration: out.duration,
                    returned_to_os: out.returned,
                });
                stats.records.push(PacketRecord {
                    id,
                    kind: kind.name(),
                    bucket,
                    wave,
                    queued_waves: wave,
                    planned_bytes,
                    bytes: out.bytes,
                    returned: out.returned,
                    duration: out.duration,
                });
                finished[i] = true;
                done += 1;
            }
            wave += 1;
        }
        stats.waves = wave;
        DrainResult { outcome, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;
    use m3_sim::clock::SimDuration;
    use m3_sim::units::GIB;

    /// Synthetic participant: a log of executed packet labels plus a pool
    /// of "dead" bytes that Collect packets free and Release returns.
    #[derive(Default)]
    struct Ctx {
        ran: Vec<&'static str>,
        dead: u64,
        free: u64,
    }

    fn kernel() -> Kernel {
        Kernel::new(KernelConfig::with_total(4 * GIB))
    }

    fn outcome(bytes: u64) -> PacketOutcome {
        PacketOutcome {
            bytes,
            returned: 0,
            duration: SimDuration::from_millis(5),
        }
    }

    #[test]
    fn buckets_execute_in_order_regardless_of_enqueue_order() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let mut sched = ReclaimScheduler::new(7, SchedulerConfig::default());
        sched.add(PacketKind::Madvise, &[], |c: &mut Ctx, _| {
            c.ran.push("madvise");
            outcome(0)
        });
        sched.add(PacketKind::GcYoung, &[], |c: &mut Ctx, _| {
            c.ran.push("gc");
            outcome(100)
        });
        sched.add(PacketKind::EvictBlocks, &[], |c: &mut Ctx, _| {
            c.ran.push("evict");
            outcome(200)
        });
        let res = sched.drain(&mut ctx, &mut os);
        assert_eq!(ctx.ran, vec!["evict", "gc", "madvise"]);
        assert_eq!(res.stats.waves, 3, "one wave per non-empty bucket");
        assert_eq!(res.stats.bytes(), 300);
        assert_eq!(os.trace.count("reclaim.packet.start"), 3);
    }

    #[test]
    fn dependencies_gate_within_a_bucket_and_emit_stalls() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let mut sched = ReclaimScheduler::new(7, SchedulerConfig::default());
        let young = sched.add(PacketKind::GcYoung, &[], |c: &mut Ctx, _| {
            c.ran.push("young");
            outcome(10)
        });
        sched.add(PacketKind::GcOld, &[young], |c: &mut Ctx, _| {
            c.ran.push("old");
            outcome(20)
        });
        // Flip enqueue order relative to execution: old depends on young
        // but a second independent young-bucket packet rides in wave 0.
        sched.add(PacketKind::GcYoung, &[], |c: &mut Ctx, _| {
            c.ran.push("young2");
            outcome(30)
        });
        let res = sched.drain(&mut ctx, &mut os);
        assert_eq!(ctx.ran, vec!["young", "young2", "old"]);
        assert_eq!(res.stats.waves, 2);
        assert_eq!(res.stats.stalls, 1, "old stalled one wave behind young");
        let stall = os.trace.first("reclaim.packet.stall").expect("stall event");
        match &stall.data {
            TraceData::PacketStall {
                packet, waiting_on, ..
            } => {
                assert_eq!(*packet, 1);
                assert_eq!(*waiting_on, young);
            }
            other => panic!("unexpected stall payload {other:?}"),
        }
        let old = res.stats.of_kind("gc_old")[0];
        assert_eq!(old.queued_waves, 1);
    }

    #[test]
    fn drain_is_identical_for_any_worker_count() {
        let run = |workers: usize| {
            let mut os = kernel();
            let mut ctx = Ctx {
                dead: 600,
                ..Ctx::default()
            };
            let mut sched = ReclaimScheduler::new(
                7,
                SchedulerConfig {
                    workers: Some(workers),
                },
            );
            // A wave wide enough to trip the parallel costing path.
            for i in 0..6u64 {
                sched.add_costed(
                    PacketKind::EvictClass,
                    &[],
                    move |c: &Ctx| c.dead / 6 + i,
                    move |c: &mut Ctx, _| {
                        let freed = c.dead / 6;
                        c.dead -= freed;
                        c.free += freed;
                        outcome(freed)
                    },
                );
            }
            let res = sched.drain(&mut ctx, &mut os);
            let planned: Vec<u64> = res.stats.records.iter().map(|r| r.planned_bytes).collect();
            (planned, res.stats.bytes(), ctx.free, os.trace.len())
        };
        let baseline = run(1);
        assert_eq!(run(4), baseline);
        assert_eq!(run(8), baseline);
    }

    #[test]
    #[should_panic(expected = "later bucket")]
    fn dependency_on_a_later_bucket_is_rejected() {
        let mut sched: ReclaimScheduler<Ctx> = ReclaimScheduler::new(7, SchedulerConfig::default());
        let madv = sched.add(PacketKind::Madvise, &[], |_, _| PacketOutcome::default());
        sched.add(PacketKind::EvictBlocks, &[madv], |_, _| {
            PacketOutcome::default()
        });
    }

    #[test]
    fn empty_drain_is_a_no_op() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let sched: ReclaimScheduler<Ctx> = ReclaimScheduler::new(7, SchedulerConfig::default());
        let res = sched.drain(&mut ctx, &mut os);
        assert_eq!(res.outcome, SignalOutcome::default());
        assert!(res.stats.records.is_empty());
        assert!(os.trace.is_empty());
    }
}
