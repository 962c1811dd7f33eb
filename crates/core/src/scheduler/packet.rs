//! The typed work-packet vocabulary.
//!
//! A [`WorkPacket`] is one unit of reclamation work: a GC phase, one slab
//! class's eviction, a block-cache purge, or a batched madvise. Packets are
//! placed into ordered [`PacketBucket`]s and may name earlier packets as
//! explicit dependencies; the scheduler in [`super`] guarantees neither a
//! bucket nor a dependency edge is ever violated.

use m3_os::Kernel;
use m3_sim::clock::SimDuration;
use m3_sim::trace::PacketBucket;

/// Drain-local packet identifier (ids are assigned in enqueue order and
/// restart at 0 for every drain).
pub type PacketId = u64;

/// What kind of reclamation work a packet carries. The stable names feed
/// the `reclaim.packet.enqueue` trace event, which is how the conformance
/// oracle classifies per-packet bytes against the aggregate `evict.*` and
/// `gc.*` events of the same handler window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Framework block-cache eviction (Spark, Table 1's top row).
    EvictBlocks,
    /// One slab class's eviction (key-granular cache).
    EvictClass,
    /// Aggregate slab eviction (analytic cache, or the key-granular
    /// summary packet that settles the backend free).
    EvictSlabs,
    /// JVM young collection (scan + evacuate + sweep the young gen).
    GcYoung,
    /// JVM old-generation trace/evacuate (the mixed-specific part).
    GcOld,
    /// JVM full-heap mark/compact (the full-specific part).
    GcFull,
    /// Go runtime mark/sweep cycle.
    GcGo,
    /// Batched `madvise` returning the freed pages to the OS.
    Madvise,
}

impl PacketKind {
    /// Stable name recorded in `reclaim.packet.enqueue` events.
    pub fn name(&self) -> &'static str {
        match self {
            PacketKind::EvictBlocks => "evict_blocks",
            PacketKind::EvictClass => "evict_class",
            PacketKind::EvictSlabs => "evict_slabs",
            PacketKind::GcYoung => "gc_young",
            PacketKind::GcOld => "gc_old",
            PacketKind::GcFull => "gc_full",
            PacketKind::GcGo => "gc_go",
            PacketKind::Madvise => "madvise",
        }
    }

    /// The bucket this kind of work naturally belongs to (callers may
    /// override, e.g. the `gc_before_evict` ablation swaps GC and eviction).
    pub fn default_bucket(&self) -> PacketBucket {
        match self {
            PacketKind::EvictBlocks | PacketKind::EvictClass | PacketKind::EvictSlabs => {
                PacketBucket::Prepare
            }
            PacketKind::GcYoung | PacketKind::GcOld | PacketKind::GcFull | PacketKind::GcGo => {
                PacketBucket::Collect
            }
            PacketKind::Madvise => PacketBucket::Release,
        }
    }
}

/// What one executed packet did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketOutcome {
    /// Bytes reclaimed at the packet's own layer (evicted from a cache or
    /// freed inside a heap).
    pub bytes: u64,
    /// Bytes returned to the OS (madvise).
    pub returned: u64,
    /// Execution cost charged to the mutator.
    pub duration: SimDuration,
}

impl PacketOutcome {
    /// An outcome that freed `bytes` at its own layer in `duration`.
    pub fn freed(bytes: u64, duration: SimDuration) -> Self {
        PacketOutcome {
            bytes,
            returned: 0,
            duration,
        }
    }

    /// An outcome that returned `returned` bytes to the OS (madvise is
    /// charged no mutator time; the kernel work is below this model).
    pub fn released(returned: u64) -> Self {
        PacketOutcome {
            bytes: 0,
            returned,
            duration: SimDuration::ZERO,
        }
    }
}

/// The mutation step of a packet: commits the reclamation against the
/// participant context and the kernel, consumed exactly once at drain.
pub(super) type PacketRun<C> = Box<dyn FnOnce(&mut C, &mut Kernel) -> PacketOutcome>;

/// One unit of reclamation work over a participant context `C` (the app
/// that owns the layers being reclaimed). `run` commits the mutation.
pub struct WorkPacket<C> {
    pub(super) id: PacketId,
    pub(super) kind: PacketKind,
    pub(super) bucket: PacketBucket,
    pub(super) deps: Vec<PacketId>,
    pub(super) run: Option<PacketRun<C>>,
}

impl<C> std::fmt::Debug for WorkPacket<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkPacket")
            .field("id", &self.id)
            .field("kind", &self.kind.name())
            .field("bucket", &self.bucket)
            .field("deps", &self.deps)
            .finish_non_exhaustive()
    }
}
