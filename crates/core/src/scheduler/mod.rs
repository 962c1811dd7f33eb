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
//! have finished. The drain is one serial loop over waves: each wave takes
//! the ready set of the open bucket and runs it in packet-id order. The
//! `reclaim.packet.*` trace events emitted here let the oracle verify
//! bucket order, dependency edges and byte conservation after every traced
//! run.

mod packet;

pub use packet::{PacketId, PacketKind, PacketOutcome, WorkPacket};

pub use m3_sim::trace::PacketBucket;

use m3_os::{Kernel, Pid};
use m3_sim::trace::TraceData;

use crate::layer::SignalOutcome;

/// A single-drain packet scheduler over a participant context `C`.
///
/// Built fresh for each signal: the handler enqueues its packets (eviction,
/// GC phases, madvise) with explicit dependencies, then calls
/// [`ReclaimScheduler::drain`] once. Ids are assigned in enqueue order and
/// double as the deterministic execution order within a wave.
pub struct ReclaimScheduler<C> {
    pid: Pid,
    packets: Vec<WorkPacket<C>>,
}

impl<C> ReclaimScheduler<C> {
    /// An empty scheduler draining on behalf of `pid`.
    pub fn new(pid: Pid) -> Self {
        ReclaimScheduler {
            pid,
            packets: Vec::new(),
        }
    }

    /// Enqueues a packet in its kind's default bucket. Returns its id for
    /// use in later packets' `deps`.
    pub fn add(
        &mut self,
        kind: PacketKind,
        deps: &[PacketId],
        run: impl FnOnce(&mut C, &mut Kernel) -> PacketOutcome + 'static,
    ) -> PacketId {
        self.add_in(kind, kind.default_bucket(), deps, run)
    }

    /// Fully explicit enqueue: kind, bucket, dependencies and the mutation
    /// itself.
    ///
    /// Panics if a dependency names a not-yet-enqueued packet or one in a
    /// *later* bucket — either would deadlock the drain, so both are
    /// rejected as programming errors at enqueue time.
    pub fn add_in(
        &mut self,
        kind: PacketKind,
        bucket: PacketBucket,
        deps: &[PacketId],
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
            run: Some(Box::new(run)),
        });
        id
    }

    /// Executes every packet and returns the summed outcome (durations add,
    /// returned bytes add) — what `handle_signal` reports to the monitor.
    /// Emits `reclaim.packet.enqueue` for every packet up front (id order),
    /// then `stall`/`start`/`finish` events as the waves progress.
    pub fn drain(mut self, ctx: &mut C, os: &mut Kernel) -> SignalOutcome {
        let pid = self.pid;
        for p in &self.packets {
            os.record_trace_with(pid, || TraceData::PacketEnqueue {
                packet: p.id,
                pkind: p.kind.name().to_string(),
                bucket: p.bucket,
                deps: p.deps.clone(),
            });
        }

        let mut finished = vec![false; self.packets.len()];
        let mut outcome = SignalOutcome::default();
        let mut wave: u64 = 0;
        // The open bucket is the earliest one still holding unfinished
        // packets: by definition every packet in a strictly earlier bucket
        // has finished.
        while let Some(open) = self
            .packets
            .iter()
            .filter(|p| !finished[p.id as usize])
            .map(|p| p.bucket)
            .min()
        {
            let mut ready: Vec<usize> = Vec::new();
            for p in self.packets.iter().filter(|p| p.bucket == open) {
                let i = p.id as usize;
                if finished[i] {
                    continue;
                }
                match p.deps.iter().find(|&&d| !finished[d as usize]) {
                    None => ready.push(i),
                    Some(&blocker) => os.record_trace(
                        pid,
                        TraceData::PacketStall {
                            packet: p.id,
                            waiting_on: blocker,
                            wave,
                        },
                    ),
                }
            }
            // Always true: the smallest unfinished id in the open bucket
            // has only finished dependencies (deps are earlier ids in the
            // same or an earlier bucket), so every wave makes progress.
            assert!(!ready.is_empty(), "packet dependency cycle");

            // `ready` is id-sorted, so the wave runs in packet-id order.
            for i in ready {
                let p = &mut self.packets[i];
                os.record_trace(
                    pid,
                    TraceData::PacketStart {
                        packet: p.id,
                        bucket: p.bucket,
                        wave,
                    },
                );
                let run = p.run.take().expect("packet executes exactly once");
                let out = run(ctx, os);
                os.record_trace(
                    pid,
                    TraceData::PacketFinish {
                        packet: p.id,
                        bucket: p.bucket,
                        bytes: out.bytes,
                        returned: out.returned,
                        duration_ms: out.duration.as_millis(),
                    },
                );
                outcome.merge(SignalOutcome {
                    duration: out.duration,
                    returned_to_os: out.returned,
                });
                finished[i] = true;
            }
            wave += 1;
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;
    use m3_sim::clock::SimDuration;
    use m3_sim::units::GIB;

    /// Synthetic participant: a log of executed packet labels.
    #[derive(Default)]
    struct Ctx {
        ran: Vec<&'static str>,
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

    /// The wave each packet started in, in start order.
    fn start_waves(os: &Kernel) -> Vec<(PacketId, u64)> {
        os.trace
            .events()
            .iter()
            .filter_map(|e| match e.data {
                TraceData::PacketStart { packet, wave, .. } => Some((packet, wave)),
                _ => None,
            })
            .collect()
    }

    /// Bytes the finished packets reclaimed, summed over the trace.
    fn finished_bytes(os: &Kernel) -> u64 {
        os.trace
            .events()
            .iter()
            .filter_map(|e| match e.data {
                TraceData::PacketFinish { bytes, .. } => Some(bytes),
                _ => None,
            })
            .sum()
    }

    #[test]
    fn buckets_execute_in_order_regardless_of_enqueue_order() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let mut sched = ReclaimScheduler::new(7);
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
        let out = sched.drain(&mut ctx, &mut os);
        assert_eq!(ctx.ran, vec!["evict", "gc", "madvise"]);
        assert_eq!(
            start_waves(&os),
            vec![(2, 0), (1, 1), (0, 2)],
            "one wave per non-empty bucket"
        );
        assert_eq!(finished_bytes(&os), 300);
        assert_eq!(out.duration, SimDuration::from_millis(15));
    }

    #[test]
    fn dependencies_gate_within_a_bucket_and_emit_stalls() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let mut sched = ReclaimScheduler::new(7);
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
        sched.drain(&mut ctx, &mut os);
        assert_eq!(ctx.ran, vec!["young", "young2", "old"]);
        assert_eq!(
            start_waves(&os),
            vec![(0, 0), (2, 0), (1, 1)],
            "old runs one wave behind young"
        );
        assert_eq!(os.trace.count("reclaim.packet.stall"), 1);
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
    }

    #[test]
    #[should_panic(expected = "later bucket")]
    fn dependency_on_a_later_bucket_is_rejected() {
        let mut sched: ReclaimScheduler<Ctx> = ReclaimScheduler::new(7);
        let madv = sched.add(PacketKind::Madvise, &[], |_, _| PacketOutcome::default());
        sched.add(PacketKind::EvictBlocks, &[madv], |_, _| {
            PacketOutcome::default()
        });
    }

    #[test]
    fn empty_drain_is_a_no_op() {
        let mut os = kernel();
        let mut ctx = Ctx::default();
        let sched: ReclaimScheduler<Ctx> = ReclaimScheduler::new(7);
        assert_eq!(sched.drain(&mut ctx, &mut os), SignalOutcome::default());
        assert!(os.trace.is_empty());
    }
}
