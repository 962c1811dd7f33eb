//! Typed end-to-end event tracing.
//!
//! Tests, the experiment harness and the conformance oracle assert on *what
//! happened* (a young GC ran before Spark evicted; the monitor signalled
//! exactly the processes Algorithm 1 selected) rather than scraping logs.
//! Components append [`TraceEvent`]s to a shared [`TraceLog`]; each event
//! carries a typed [`TraceData`] payload so a replay oracle can recompute
//! the paper's formulas from the recorded inputs instead of parsing strings.
//!
//! Every payload maps to a stable dotted *kind* string (e.g. `"gc.young"`,
//! `"signal.high"`, `"evict.blocks"`); the prefix-query helpers
//! ([`TraceLog::of_kind`], [`TraceLog::happened_before`], ...) operate on
//! those kinds, so existing string-based assertions keep working.
//!
//! [`TraceData`] is declared through [`crate::tagged_enum!`], which writes
//! each variant's kind and fields once and generates `kind()`, the
//! serializer and the deserializer from them. An event serializes as one
//! flat map: `t`, `pid`, `kind`, then the payload's fields in declaration
//! order. A trace written as JSON (the `M3_TRACE` dump, the JSONL goldens)
//! reads back with `serde_json::from_str`.
//!
//! A [`TraceLog`] stores its events packed ([`crate::pack`]), about 15
//! bytes an event where a [`TraceEvent`] takes 120.
//! [`TraceLog::for_each`] and [`TraceLog::iter`] decode them one at a
//! time; [`TraceLog::events`] decodes them all once for callers that want
//! a slice.

use std::any::Any;
use std::fmt;
use std::sync::OnceLock;

use crate::clock::SimTime;
use crate::pack::{pack_fieldless, put_varint, unzigzag, zigzag, Pack, PackTagged, Unpacker};
use serde::{map_field, Content, DeError, Deserialize, Serialize};

/// Monitor zone as recorded in a trace (mirrors `m3-core`'s `Zone` without
/// depending on it; `m3-sim` sits below `m3-core` in the crate stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceZone {
    /// Usage below the low threshold.
    Green,
    /// Usage between the low and high thresholds.
    Yellow,
    /// Usage between the high threshold and the top of memory.
    Red,
    /// Usage above the top of memory.
    AboveTop,
}

/// Which notification a signal event carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SigKind {
    /// Low-threshold (early-warning) signal.
    Low,
    /// High-threshold (severe-pressure) signal.
    High,
    /// Kill signal.
    Kill,
}

/// Which threshold a `ThresholdAdjust` event moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThresholdSide {
    /// The low threshold.
    Low,
    /// The high threshold.
    High,
}

/// Why an application-layer eviction ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EvictReason {
    /// Responding to a low-threshold signal (Table 1).
    LowSignal,
    /// Responding to a high-threshold signal (Table 1).
    HighSignal,
    /// Making room under a static capacity limit.
    Capacity,
    /// A delayed allocation evicting to satisfy itself (§4.2).
    AdmissionDelay,
}

/// Which collection a `Gc` event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GcLayer {
    /// JVM young collection.
    Young,
    /// JVM mixed collection.
    Mixed,
    /// JVM full collection.
    Full,
    /// Go runtime GC cycle.
    Go,
}

/// Ordered work bucket of the reclamation packet scheduler. A bucket opens
/// only after every packet in all earlier buckets has finished, encoding the
/// paper's top-down order at packet granularity: upper layers mark bytes
/// dead (`Prepare`), runtimes trace and sweep them (`Collect`), and madvise
/// batches return the freed pages (`Release`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PacketBucket {
    /// Application/framework-layer work that marks bytes dead: block-cache
    /// and slab evictions (Table 1's upper rows).
    Prepare,
    /// Runtime-layer collection work: young scan/evacuate, old-generation
    /// trace, full compaction, Go mark/sweep.
    Collect,
    /// OS-layer release work: batched `madvise` of the pages the collection
    /// freed.
    Release,
}

impl PacketBucket {
    /// All buckets in opening order.
    pub const ALL: [PacketBucket; 3] = [
        PacketBucket::Prepare,
        PacketBucket::Collect,
        PacketBucket::Release,
    ];

    /// Stable name used in traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PacketBucket::Prepare => "prepare",
            PacketBucket::Collect => "collect",
            PacketBucket::Release => "release",
        }
    }
}

/// Job criticality class for mixed-criticality scheduling (SARA/MURS:
/// pressure decisions must respect criticality, not just memory posture).
///
/// Lives in `m3-sim` so trace events, the monitor, the fleet scheduler and
/// the oracle all share one definition. The derived `Ord` runs from least to
/// most expendable is NOT implied — use [`Criticality::expendability`] for
/// victim ordering.
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Criticality {
    /// Latency-critical serving tier: killed/evicted last, never disturbed
    /// by early-warning reclamation.
    LatencyCritical,
    /// Ordinary job: the paper's behaviour, unchanged.
    #[default]
    Standard,
    /// Batch analytics: absorbs pressure first (earlier/larger evictions,
    /// first in the kill ordering, preemptible by critical admissions).
    Batch,
}

impl Criticality {
    /// All classes, least expendable first.
    pub const ALL: [Criticality; 3] = [
        Criticality::LatencyCritical,
        Criticality::Standard,
        Criticality::Batch,
    ];

    /// Stable name used in traces and reports.
    pub fn name(&self) -> &'static str {
        match self {
            Criticality::LatencyCritical => "latency_critical",
            Criticality::Standard => "standard",
            Criticality::Batch => "batch",
        }
    }

    /// Parses a stable name back into a class.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "latency_critical" => Some(Criticality::LatencyCritical),
            "standard" => Some(Criticality::Standard),
            "batch" => Some(Criticality::Batch),
            _ => None,
        }
    }

    /// How readily this class is sacrificed under pressure: higher values
    /// are killed, evicted, and preempted before lower ones.
    pub fn expendability(&self) -> u8 {
        match self {
            Criticality::LatencyCritical => 0,
            Criticality::Standard => 1,
            Criticality::Batch => 2,
        }
    }
}

/// One Algorithm 1 candidate as the monitor saw it at selection time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CandidateInfo {
    /// The candidate process.
    pub pid: u64,
    /// When the process was spawned, ms.
    pub spawned_at_ms: u64,
    /// Resident set size at selection time, bytes.
    pub rss: u64,
    /// Expected reclamation on a high signal, bytes.
    pub expected_reclaim: u64,
    /// The candidate's criticality class.
    pub crit: Criticality,
}

pack_fieldless! {
    TraceZone { Green, Yellow, Red, AboveTop }
    SigKind { Low, High, Kill }
    ThresholdSide { Low, High }
    EvictReason { LowSignal, HighSignal, Capacity, AdmissionDelay }
    GcLayer { Young, Mixed, Full, Go }
    PacketBucket { Prepare, Collect, Release }
    Criticality { LatencyCritical, Standard, Batch }
}

impl Pack for CandidateInfo {
    fn pack(&self, out: &mut Vec<u8>) {
        self.pid.pack(out);
        self.spawned_at_ms.pack(out);
        self.rss.pack(out);
        self.expected_reclaim.pack(out);
        self.crit.pack(out);
    }

    fn unpack(r: &mut Unpacker<'_>) -> Self {
        CandidateInfo {
            pid: Pack::unpack(r),
            spawned_at_ms: Pack::unpack(r),
            rss: Pack::unpack(r),
            expected_reclaim: Pack::unpack(r),
            crit: Pack::unpack(r),
        }
    }
}

crate::tagged_enum! {
    /// The typed payload of one traced event.
    ///
    /// Each variant serializes as a flat map whose `"kind"` entry is the stable
    /// dotted string returned by [`TraceData::kind`]; signal, threshold, GC and
    /// allocation-gate variants encode their discriminating sub-field in the
    /// kind itself (`"signal.high"`, `"gc.young"`, `"alloc.delay"`, ...).
    #[derive(Debug, Clone, PartialEq)]
    pub enum TraceData {
        /// A process was spawned.
        ProcSpawn {
            /// Display name of the process.
            name: String,
        } = "proc.spawn",
        /// A process was respawned reusing an existing pid.
        ProcRespawn {
            /// Display name of the process.
            name: String,
        } = "proc.respawn",
        /// A process exited normally.
        ProcExit = "proc.exit",
        /// A process was killed.
        ProcKill = "proc.kill",
        /// The kernel OOM killer chose this victim.
        OomKill = "oom.kill",
        /// A threshold/kill signal was delivered to the process.
        SignalSent {
            /// Which signal.
            sig: SigKind,
        } = "signal.low" | "signal.high" | "signal.kill" => match sig {
            SigKind::Low => "signal.low",
            SigKind::High => "signal.high",
            SigKind::Kill => "signal.kill",
        },
        /// A signal was dropped by a faulty bus.
        SignalDropped {
            /// Which signal.
            sig: SigKind,
        } = "signal.dropped",
        /// A signal was delayed by a laggy bus.
        SignalDelayed {
            /// Which signal.
            sig: SigKind,
        } = "signal.delayed",
        /// Memory was returned to the OS (`madvise(MADV_FREE)`-equivalent).
        Madvise {
            /// Bytes actually released.
            bytes: u64,
        } = "mem.madvise",
        /// One monitor poll completed (§5): the zone it classified, the
        /// thresholds in force, and every pid it signalled or killed this poll.
        MonitorPoll {
            /// The zone the poll classified usage into.
            zone: TraceZone,
            /// Memory usage observed, bytes.
            used: u64,
            /// Low threshold after this poll's adjustment, bytes.
            low: u64,
            /// High threshold after this poll's adjustment, bytes.
            high: u64,
            /// True when the poll ran on stale/degraded meminfo.
            degraded: bool,
            /// Pids sent a low signal this poll, in send order.
            low_signalled: Vec<u64>,
            /// Pids sent a high signal this poll, in send order.
            high_signalled: Vec<u64>,
            /// Pids killed this poll, in kill order.
            killed: Vec<u64>,
        } = "monitor.poll",
        /// The monitor's zone changed between polls.
        ZoneChange {
            /// Previous zone.
            from: TraceZone,
            /// New zone.
            to: TraceZone,
        } = "monitor.zone",
        /// An adaptive threshold moved (§5.2).
        ThresholdAdjust {
            /// Which threshold moved.
            side: ThresholdSide,
            /// Value before, bytes.
            old: u64,
            /// Value after, bytes.
            new: u64,
        } = "threshold.adjust.low" | "threshold.adjust.high" => match side {
            ThresholdSide::Low => "threshold.adjust.low",
            ThresholdSide::High => "threshold.adjust.high",
        },
        /// Algorithm 1 ran (§5.1).
        Selection {
            /// The sort order used.
            order: String,
            /// Reclamation target, bytes.
            target: u64,
            /// True for the above-top signal-everyone escalation.
            all: bool,
            /// The unsorted candidate set the algorithm saw.
            candidates: Vec<CandidateInfo>,
            /// The selected pids, in signalling order.
            selected: Vec<u64>,
        } = "monitor.select",
        /// The watchdog suppressed a high signal during backoff cooldown (§6).
        WatchdogSkip = "watchdog.skip",
        /// The watchdog escalated an unresponsive process into backoff.
        WatchdogEscalate {
            /// The new backoff length, polls.
            backoff: u64,
        } = "watchdog.escalate",
        /// The watchdog re-signalled after a full cooldown.
        WatchdogResignal {
            /// The backoff length that just elapsed, polls.
            backoff: u64,
        } = "watchdog.resignal",
        /// The monitor killed a process to get back under top (§6).
        MonitorKill {
            /// The victim's RSS at kill time, bytes.
            rss: u64,
        } = "monitor.kill",
        /// An application signal handler started.
        HandlerStart {
            /// Which signal it is handling.
            sig: SigKind,
        } = "handler.start",
        /// An application signal handler finished.
        HandlerEnd {
            /// Which signal it handled.
            sig: SigKind,
            /// Handler wall time (the §4.2 epoch length), ms.
            duration_ms: u64,
            /// Bytes the whole stack returned to the OS.
            returned: u64,
        } = "handler.end",
        /// A framework-layer block-cache eviction (Spark, Table 1).
        EvictBlocks {
            /// Cached blocks before eviction.
            before: u64,
            /// Blocks evicted.
            evicted: u64,
            /// Bytes freed (marked dead in the layer below).
            bytes: u64,
            /// Why the eviction ran.
            reason: EvictReason,
        } = "evict.blocks",
        /// A cache-layer slab eviction (Go-Cache/Memcached, Table 1).
        EvictSlabs {
            /// Resident slabs before eviction.
            before: u64,
            /// Slabs evicted.
            evicted: u64,
            /// Items evicted.
            items: u64,
            /// Bytes freed (marked dead in the layer below).
            bytes: u64,
            /// Why the eviction ran.
            reason: EvictReason,
        } = "evict.slabs",
        /// Per-slab-class detail of a signal-driven cache eviction; a group of
        /// these immediately precedes the aggregate [`TraceData::EvictSlabs`]
        /// they sum to (key-granular runs only).
        EvictClass {
            /// Chunk size of the slab class, bytes.
            chunk: u64,
            /// Slabs the class held before eviction.
            before: u64,
            /// Slabs evicted from the class.
            evicted: u64,
            /// Live items removed with them.
            items: u64,
            /// Bytes freed (whole slabs).
            bytes: u64,
            /// Why the eviction ran.
            reason: EvictReason,
        } = "evict.class",
        /// Cumulative key-granular cache statistics (trace workloads): emitted
        /// periodically during the measured phase and once at completion.
        CacheStats {
            /// Requests completed.
            requests: u64,
            /// GET hits.
            hits: u64,
            /// GET misses (including negative lookups).
            misses: u64,
            /// Negative lookups among the misses.
            negative: u64,
            /// SETs applied.
            sets: u64,
            /// DELETEs applied.
            deletes: u64,
            /// Inserts delayed by the adaptive protocol.
            delayed: u64,
            /// Items evicted by capacity pressure.
            capacity_items: u64,
            /// Resident bytes (whole slabs).
            resident_bytes: u64,
            /// Live items.
            live_items: u64,
            /// Simulated milliseconds since the measured phase began.
            serve_ms: u64,
        } = "cache.stats",
        /// A runtime-layer collection ran.
        Gc {
            /// Which collection.
            layer: GcLayer,
            /// Bytes freed inside the heap.
            reclaimed: u64,
            /// Bytes returned to the OS by this collection.
            returned: u64,
            /// Stop-the-world pause charged to the mutator, ms.
            pause_ms: u64,
        } = "gc.young" | "gc.mixed" | "gc.full" | "gc.go" => match layer {
            GcLayer::Young => "gc.young",
            GcLayer::Mixed => "gc.mixed",
            GcLayer::Full => "gc.full",
            GcLayer::Go => "gc.go",
        },
        /// One adaptive-allocation gate decision (§4.2, per-allocation form).
        AllocGate {
            /// True if this allocation was delayed (evict first).
            delayed: bool,
            /// The allow rate at decision time.
            rate: f64,
            /// Time since the last high signal, ms.
            elapsed_ms: u64,
            /// Epoch length (time handling the last high signal), ms.
            epoch_ms: u64,
            /// `NUM_epochs` of the protocol instance.
            num_epochs: u32,
            /// Recovery curve name (`"Linear"`, `"Exponential"`, `"Step"`).
            curve: String,
        } = "alloc.delay" | "alloc.admit" => if *delayed { "alloc.delay" } else { "alloc.admit" },
        /// One adaptive-allocation batched gate decision (§4.2, batched form).
        AllocBatch {
            /// Allocation attempts in the batch.
            n: u64,
            /// How many of them were delayed.
            delayed: u64,
            /// The allow rate at decision time.
            rate: f64,
            /// Time since the last high signal, ms.
            elapsed_ms: u64,
            /// Epoch length, ms.
            epoch_ms: u64,
            /// `NUM_epochs` of the protocol instance.
            num_epochs: u32,
            /// Recovery curve name.
            curve: String,
        } = "alloc.batch",
        /// The fleet scheduler probed one node's live pressure summary (the
        /// event's `pid` is the node index).
        FleetPressure {
            /// The probed node.
            node: u64,
            /// The node's zone at probe time.
            zone: TraceZone,
            /// Committed bytes observed on the node.
            used: u64,
            /// Summed demand estimates of the node's assigned unfinished jobs
            /// (what admission ranks against when it exceeds `used`).
            reserved: u64,
            /// The node's high threshold at probe time.
            high: u64,
            /// The node's top of memory.
            top: u64,
            /// Watchdog escalations accumulated on the node so far.
            escalations: u64,
        } = "fleet.pressure",
        /// The fleet scheduler admitted a job and placed it onto a node (the
        /// event's `pid` is the job index).
        FleetPlace {
            /// The placed job (scenario schedule index).
            job: u64,
            /// The target node.
            node: u64,
            /// The node's committed bytes at admission time.
            used: u64,
            /// The job's estimated peak demand, bytes.
            demand: u64,
            /// The target node's top of memory.
            top: u64,
        } = "fleet.place",
        /// Admission control found no feasible node and deferred the job.
        FleetDefer {
            /// The deferred job.
            job: u64,
            /// How many admission attempts the job has made so far.
            attempt: u64,
            /// When the job will retry, ms.
            retry_at_ms: u64,
        } = "fleet.defer",
        /// Red-zone rebalancing migrated a job off a node armed beyond the
        /// grace window.
        FleetMigrate {
            /// The migrated job.
            job: u64,
            /// The armed source node.
            from: u64,
            /// The target node.
            to: u64,
            /// How long the source had been observed red, ms.
            red_for_ms: u64,
        } = "fleet.migrate",
        /// A job exhausted its deferral budget and was reported unplaceable.
        FleetGiveUp {
            /// The rejected job.
            job: u64,
            /// Admission attempts made before giving up.
            attempts: u64,
            /// The job's estimated peak demand, bytes (lets the oracle check no
            /// probed node could in fact have admitted the job).
            demand: u64,
        } = "fleet.giveup",
        /// A whole node crashed; every job resident on it died mid-run (the
        /// event's `pid` is the node index).
        FleetNodeLost {
            /// The dead node.
            node: u64,
            /// Jobs that were alive on the node when it died.
            jobs_lost: u64,
        } = "fleet.node_lost",
        /// A job lost to node death was re-queued for placement (`requeued`)
        /// or found its retry budget exhausted (the event's `pid` is the job).
        FleetReschedule {
            /// The lost job.
            job: u64,
            /// The node that died under it.
            from: u64,
            /// Node-loss incidents this job has now survived.
            retries: u64,
            /// When the job re-enters the arrival queue, ms (0 when not
            /// requeued).
            retry_at_ms: u64,
            /// True if the job re-enters the queue; false if the retry budget
            /// is exhausted and a give-up record follows.
            requeued: bool,
        } = "fleet.reschedule",
        /// A node's probe endpoint health changed its quarantine state (the
        /// event's `pid` is the node index).
        FleetQuarantine {
            /// The node entering or leaving quarantine.
            node: u64,
            /// True on quarantine entry, false on re-admission.
            entered: bool,
            /// The probe streak that triggered the transition: consecutive
            /// failures on entry, consecutive healthy probes on exit.
            streak: u64,
        } = "fleet.quarantine",
        /// The fleet scheduler recorded a job's criticality class and latency
        /// SLO at submission time (the event's `pid` is the job index).
        SchedClassAssign {
            /// The classified job.
            job: u64,
            /// Its criticality class.
            crit: Criticality,
            /// Its latency SLO, ms (0 = no SLO).
            slo_ms: u64,
        } = "sched.class.assign",
        /// A critical admission preempted a lower-criticality resident's
        /// reservation instead of deferring (the event's `pid` is the admitted
        /// job).
        SchedClassPreempt {
            /// The admitted job.
            job: u64,
            /// The admitted job's class.
            crit: Criticality,
            /// The preempted resident.
            victim: u64,
            /// The preempted resident's class.
            victim_crit: Criticality,
            /// The node the preemption happened on.
            node: u64,
        } = "sched.class.preempt",
        /// Per-job SLO accounting emitted when a job leaves the fleet (the
        /// event's `pid` is the job index).
        SchedClassSlo {
            /// The finished job.
            job: u64,
            /// Its criticality class.
            crit: Criticality,
            /// Its latency SLO, ms (0 = no SLO).
            slo_ms: u64,
            /// Wall time from submission to completion, ms.
            runtime_ms: u64,
            /// Time spent stalled (deferred/queued) rather than running, ms.
            stall_ms: u64,
            /// Whether the SLO was met (vacuously true without one).
            met: bool,
        } = "sched.class.slo",
        /// The monitor killed a process with criticality context: the victim's
        /// class and the not-yet-killed candidate set it was chosen from (the
        /// event's `pid` is the victim; one event per kill, paired with the
        /// plain `monitor.kill`).
        KillClass {
            /// The victim's criticality class.
            crit: Criticality,
            /// The alive candidates the victim was chosen from, victim included.
            candidates: Vec<CandidateInfo>,
        } = "kill.class",
        /// A reclamation work packet entered its bucket (one drain's packets
        /// are all enqueued before any executes; ids are drain-local).
        PacketEnqueue {
            /// Drain-local packet id.
            packet: u64,
            /// Stable packet-kind name (`"evict_blocks"`, `"gc_young"`, ...).
            pkind: String,
            /// The bucket the packet was placed in.
            bucket: PacketBucket,
            /// Ids of packets that must finish before this one may start.
            deps: Vec<u64>,
        } = "reclaim.packet.enqueue",
        /// A reclamation work packet began executing.
        PacketStart {
            /// Drain-local packet id.
            packet: u64,
            /// The packet's bucket.
            bucket: PacketBucket,
            /// The drain wave (execution round) the packet ran in.
            wave: u64,
        } = "reclaim.packet.start",
        /// A reclamation work packet finished executing.
        PacketFinish {
            /// Drain-local packet id.
            packet: u64,
            /// The packet's bucket.
            bucket: PacketBucket,
            /// Bytes the packet reclaimed in its own layer (evicted or freed
            /// inside the heap); sums to the aggregate `evict.*`/`gc.*` bytes
            /// of the same handler window.
            bytes: u64,
            /// Bytes the packet returned to the OS (madvise); sums to the
            /// window's `mem.madvise` bytes.
            returned: u64,
            /// Execution cost charged to the mutator, ms.
            duration_ms: u64,
        } = "reclaim.packet.finish",
        /// A ready bucket held a packet back because a dependency had not
        /// finished yet (the packet waits at least one more wave).
        PacketStall {
            /// Drain-local packet id of the stalled packet.
            packet: u64,
            /// The unfinished dependency it is waiting on.
            waiting_on: u64,
            /// The wave that skipped it.
            wave: u64,
        } = "reclaim.packet.stall",
    }
}

/// One traced event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When the event happened.
    pub t: SimTime,
    /// The process the event concerns (0 for system-wide events).
    pub pid: u64,
    /// The typed payload.
    pub data: TraceData,
}

impl TraceEvent {
    /// The event's stable dotted kind string.
    pub fn kind(&self) -> &'static str {
        self.data.kind()
    }
}

impl Serialize for TraceEvent {
    fn serialize(&self) -> Content {
        let mut m = vec![
            ("t".into(), self.t.serialize()),
            ("pid".into(), Content::U64(self.pid)),
        ];
        match self.data.serialize() {
            Content::Map(fields) => m.extend(fields),
            other => m.push(("data".into(), other)),
        }
        Content::Map(m)
    }
}

impl Deserialize for TraceEvent {
    fn deserialize(c: &Content) -> Result<Self, DeError> {
        Ok(TraceEvent {
            t: map_field(c, "t")?,
            pid: map_field(c, "pid")?,
            data: TraceData::deserialize(c)?,
        })
    }
}

/// Reads each event as it is recorded, before a [`TraceLog`] packs it: the
/// conformance oracle's online checker (`m3_oracle::Checker`), which this
/// crate sits below and cannot name. The kernel keeps one beside its log
/// (`m3_os::Kernel::observe_with`), so a node run is checked without a
/// second pass over its trace.
pub trait TraceObserver: Any + Send + Sync {
    /// Reads the next event.
    fn observe(&mut self, e: &TraceEvent);

    /// A boxed copy, so that what holds one can be cloned.
    fn clone_box(&self) -> Box<dyn TraceObserver>;
}

impl Clone for Box<dyn TraceObserver> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl fmt::Debug for dyn TraceObserver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("TraceObserver")
    }
}

/// An append-only in-memory event log.
///
/// Events are stored packed, one after another: the payload's tag byte,
/// the time as a zigzag varint delta from the previous event's, the pid,
/// then the payload's fields in declaration order ([`crate::pack`]).
#[derive(Default)]
pub struct TraceLog {
    bytes: Vec<u8>,
    /// Events packed in `bytes`.
    len: usize,
    /// Time of the last event, ms: the base of the next event's delta.
    last_ms: u64,
    enabled: bool,
    /// What [`TraceLog::events`] decoded, until the next record.
    decoded: OnceLock<Vec<TraceEvent>>,
}

/// A position in a [`TraceLog`], where [`TraceLog::prefix`] cuts it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceMark {
    bytes: usize,
    len: usize,
    last_ms: u64,
}

impl TraceLog {
    /// Creates an enabled, empty log.
    pub fn new() -> Self {
        TraceLog {
            enabled: true,
            ..TraceLog::default()
        }
    }

    /// Creates a disabled log that drops all events (for benchmark runs).
    /// Its byte store never allocates: [`TraceLog::record`] and
    /// [`TraceLog::record_with`] return before touching it.
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// Appends an event (no-op when disabled).
    pub fn record(&mut self, t: SimTime, pid: u64, data: TraceData) {
        if self.enabled {
            self.push(t, pid, &data);
        }
    }

    /// Appends an event built lazily: `make` runs only when the log is
    /// enabled, so hot paths pay nothing for tracing when it is off.
    pub fn record_with(&mut self, t: SimTime, pid: u64, make: impl FnOnce() -> TraceData) {
        if self.enabled {
            self.push(t, pid, &make());
        }
    }

    fn push(&mut self, t: SimTime, pid: u64, data: &TraceData) {
        let out = &mut self.bytes;
        out.push(data.tag());
        let ms = t.as_millis();
        put_varint(out, zigzag(ms.wrapping_sub(self.last_ms) as i64));
        put_varint(out, pid);
        data.pack_fields(out);
        self.last_ms = ms;
        self.len += 1;
        self.decoded.take();
    }

    /// The events in record order, each decoded as the iterator reaches it.
    pub fn iter(&self) -> Events<'_> {
        Events {
            r: Unpacker::new(&self.bytes),
            left: self.len,
            last_ms: 0,
        }
    }

    /// Hands each event to `f`, in record order, decoded where `f` reads
    /// it: the streaming read for readers that borrow each event. (A
    /// loop over [`TraceLog::iter`] moves each 120-byte event out of an
    /// `Option` first, which took about a tenth of the node oracle's
    /// replay.)
    pub fn for_each(&self, mut f: impl FnMut(&TraceEvent)) {
        let mut events = self.iter();
        for _ in 0..self.len {
            f(&events.decode());
        }
    }

    /// All events, in record order. The first call after a record decodes
    /// the whole log and keeps the copy until the next record; a reader
    /// that walks the log once wants [`TraceLog::for_each`] or
    /// [`TraceLog::iter`], as the queries below do.
    pub fn events(&self) -> &[TraceEvent] {
        self.decoded.get_or_init(|| self.iter().collect())
    }

    /// Events whose kind starts with `prefix`, decoded one at a time.
    pub fn of_kind<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = TraceEvent> + 'a {
        self.iter().filter(move |e| e.kind().starts_with(prefix))
    }

    /// Number of events whose kind starts with `prefix`.
    pub fn count(&self, prefix: &str) -> usize {
        self.of_kind(prefix).count()
    }

    /// The first event of the given kind prefix, if any.
    pub fn first(&self, prefix: &str) -> Option<TraceEvent> {
        self.of_kind(prefix).next()
    }

    /// The last event of the given kind prefix, if any.
    pub fn last(&self, prefix: &str) -> Option<TraceEvent> {
        self.of_kind(prefix).last()
    }

    /// True if an event with kind-prefix `a` occurs before one with `b`.
    ///
    /// Returns `false` if either never occurs.
    pub fn happened_before(&self, a: &str, b: &str) -> bool {
        let mut seen_a = false;
        for e in self.iter() {
            let kind = e.kind();
            if kind.starts_with(b) {
                return seen_a;
            }
            seen_a |= kind.starts_with(a);
        }
        false
    }

    /// Where the log ends now: [`TraceLog::prefix`] of this mark is a copy
    /// of the log as it is.
    pub fn mark(&self) -> TraceMark {
        TraceMark {
            bytes: self.bytes.len(),
            len: self.len,
            last_ms: self.last_ms,
        }
    }

    /// A copy of the events before `mark`, enabled as this log is. The
    /// mark must come from a log whose events this one starts with.
    pub fn prefix(&self, mark: TraceMark) -> TraceLog {
        TraceLog {
            bytes: self.bytes[..mark.bytes].to_vec(),
            len: mark.len,
            last_ms: mark.last_ms,
            enabled: self.enabled,
            decoded: OnceLock::new(),
        }
    }

    /// Discards all recorded events (keeps the enabled flag).
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.len = 0;
        self.last_ms = 0;
        self.decoded.take();
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the packed events take.
    pub fn packed_bytes(&self) -> usize {
        self.bytes.len()
    }
}

/// A copy without the decoded events, which the copy makes again if asked.
impl Clone for TraceLog {
    fn clone(&self) -> Self {
        TraceLog {
            bytes: self.bytes.clone(),
            len: self.len,
            last_ms: self.last_ms,
            enabled: self.enabled,
            decoded: OnceLock::new(),
        }
    }
}

impl fmt::Debug for TraceLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceLog")
            .field("events", &DebugEvents(self))
            .field("enabled", &self.enabled)
            .finish()
    }
}

struct DebugEvents<'a>(&'a TraceLog);

impl fmt::Debug for DebugEvents<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.0.iter()).finish()
    }
}

/// The wire format is a map of the decoded events and the enabled flag.
impl Serialize for TraceLog {
    fn serialize(&self) -> Content {
        Content::Map(vec![
            (
                "events".into(),
                Content::Seq(self.iter().map(|e| e.serialize()).collect()),
            ),
            ("enabled".into(), Content::Bool(self.enabled)),
        ])
    }
}

impl Deserialize for TraceLog {
    fn deserialize(c: &Content) -> Result<Self, DeError> {
        let events: Vec<TraceEvent> = map_field(c, "events")?;
        let mut log = TraceLog {
            enabled: map_field(c, "enabled")?,
            ..TraceLog::default()
        };
        for e in &events {
            log.push(e.t, e.pid, &e.data);
        }
        Ok(log)
    }
}

/// The events of a [`TraceLog`], decoded one at a time
/// ([`TraceLog::iter`]).
pub struct Events<'a> {
    r: Unpacker<'a>,
    left: usize,
    last_ms: u64,
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        if self.left == 0 {
            return None;
        }
        Some(self.decode())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl Events<'_> {
    /// Decodes the next event; the caller knows one is left.
    fn decode(&mut self) -> TraceEvent {
        self.left -= 1;
        let tag = self.r.byte();
        self.last_ms = (self.last_ms).wrapping_add(unzigzag(self.r.varint()) as u64);
        let pid = self.r.varint();
        let data = TraceData::unpack_fields(tag, &mut self.r);
        TraceEvent {
            t: SimTime::from_millis(self.last_ms),
            pid,
            data,
        }
    }
}

impl ExactSizeIterator for Events<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn gc(layer: GcLayer, reclaimed: u64) -> TraceData {
        TraceData::Gc {
            layer,
            reclaimed,
            returned: 0,
            pause_ms: 1,
        }
    }

    #[test]
    fn records_and_queries() {
        let mut log = TraceLog::new();
        log.record(t(1), 10, gc(GcLayer::Young, 5));
        log.record(t(2), 10, gc(GcLayer::Mixed, 9));
        log.record(t(3), 11, TraceData::SignalSent { sig: SigKind::High });
        assert_eq!(log.len(), 3);
        assert_eq!(log.count("gc"), 2);
        assert_eq!(log.count("gc.young"), 1);
        assert!(matches!(
            log.first("gc").unwrap().data,
            TraceData::Gc { reclaimed: 5, .. }
        ));
        assert_eq!(log.last("gc").unwrap().kind(), "gc.mixed");
        assert_eq!(log.count("signal.high"), 1);
    }

    #[test]
    fn ordering_queries() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            1,
            TraceData::EvictBlocks {
                before: 8,
                evicted: 1,
                bytes: 100,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(t(2), 1, gc(GcLayer::Mixed, 50));
        assert!(log.happened_before("evict", "gc"));
        assert!(!log.happened_before("gc", "evict"));
        assert!(!log.happened_before("gc", "never"));
        assert!(!log.happened_before("never", "gc"));
        // An event is not before itself: the first `gc.mixed` is also the
        // first `gc`.
        assert!(!log.happened_before("gc", "gc.mixed"));
        log.record(t(3), 1, gc(GcLayer::Mixed, 10));
        assert!(!log.happened_before("gc", "gc.mixed"));
    }

    #[test]
    fn disabled_log_drops_events_without_allocating() {
        let mut log = TraceLog::disabled();
        log.record(t(1), 1, gc(GcLayer::Young, 0));
        log.record_with(t(2), 1, || unreachable!("closure must not run"));
        assert!(log.is_empty());
        assert_eq!(log.bytes.capacity(), 0, "disabled log never allocates");
    }

    #[test]
    fn record_with_is_lazy_only_when_disabled() {
        let mut log = TraceLog::new();
        log.record_with(t(1), 1, || gc(GcLayer::Go, 7));
        assert_eq!(log.len(), 1);
        assert_eq!(log.first("gc.go").unwrap().pid, 1);
    }

    #[test]
    fn clear_resets() {
        let mut log = TraceLog::new();
        log.record(t(1), 1, TraceData::ProcExit);
        log.clear();
        assert!(log.is_empty());
        log.record(t(2), 1, TraceData::ProcKill);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn criticality_names_round_trip_and_order_expendability() {
        for c in Criticality::ALL {
            assert_eq!(Criticality::from_name(c.name()), Some(c));
        }
        assert_eq!(Criticality::from_name("frobnicate"), None);
        assert_eq!(Criticality::default(), Criticality::Standard);
        assert!(
            Criticality::Batch.expendability() > Criticality::Standard.expendability()
                && Criticality::Standard.expendability()
                    > Criticality::LatencyCritical.expendability(),
            "batch dies first, latency-critical last"
        );
    }

    #[test]
    fn events_round_trip_through_serde() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::MonitorPoll {
                zone: TraceZone::Red,
                used: 100,
                low: 50,
                high: 80,
                degraded: false,
                low_signalled: vec![],
                high_signalled: vec![3, 4],
                killed: vec![],
            },
        );
        log.record(
            t(2),
            0,
            TraceData::Selection {
                order: "NewestFirst".into(),
                target: 20,
                all: false,
                candidates: vec![CandidateInfo {
                    pid: 3,
                    spawned_at_ms: 0,
                    rss: 100,
                    expected_reclaim: 25,
                    crit: Criticality::Standard,
                }],
                selected: vec![3],
            },
        );
        log.record(
            t(3),
            3,
            TraceData::AllocBatch {
                n: 10,
                delayed: 4,
                rate: 0.6,
                elapsed_ms: 600,
                epoch_ms: 1000,
                num_epochs: 1,
                curve: "Linear".into(),
            },
        );
        log.record(
            t(4),
            0,
            TraceData::FleetPressure {
                node: 2,
                zone: TraceZone::Yellow,
                used: 10,
                reserved: 15,
                high: 20,
                top: 30,
                escalations: 1,
            },
        );
        log.record(
            t(5),
            0,
            TraceData::FleetPlace {
                job: 1,
                node: 2,
                used: 10,
                demand: 5,
                top: 30,
            },
        );
        log.record(
            t(6),
            0,
            TraceData::FleetMigrate {
                job: 1,
                from: 2,
                to: 0,
                red_for_ms: 9000,
            },
        );
        log.record(
            t(7),
            2,
            TraceData::FleetNodeLost {
                node: 2,
                jobs_lost: 1,
            },
        );
        log.record(
            t(8),
            1,
            TraceData::FleetReschedule {
                job: 1,
                from: 2,
                retries: 1,
                retry_at_ms: 9_500,
                requeued: true,
            },
        );
        log.record(
            t(9),
            0,
            TraceData::FleetQuarantine {
                node: 0,
                entered: false,
                streak: 3,
            },
        );
        log.record(
            t(10),
            1,
            TraceData::SchedClassAssign {
                job: 1,
                crit: Criticality::Batch,
                slo_ms: 0,
            },
        );
        log.record(
            t(11),
            0,
            TraceData::SchedClassPreempt {
                job: 0,
                crit: Criticality::LatencyCritical,
                victim: 1,
                victim_crit: Criticality::Batch,
                node: 2,
            },
        );
        log.record(
            t(12),
            0,
            TraceData::SchedClassSlo {
                job: 0,
                crit: Criticality::LatencyCritical,
                slo_ms: 4000,
                runtime_ms: 3500,
                stall_ms: 120,
                met: true,
            },
        );
        log.record(
            t(13),
            5,
            TraceData::KillClass {
                crit: Criticality::Batch,
                candidates: vec![CandidateInfo {
                    pid: 5,
                    spawned_at_ms: 100,
                    rss: 64,
                    expected_reclaim: 6,
                    crit: Criticality::Batch,
                }],
            },
        );
        log.record(
            t(14),
            3,
            TraceData::PacketEnqueue {
                packet: 2,
                pkind: "gc_old".into(),
                bucket: PacketBucket::Collect,
                deps: vec![1],
            },
        );
        log.record(
            t(14),
            3,
            TraceData::PacketStall {
                packet: 2,
                waiting_on: 1,
                wave: 0,
            },
        );
        log.record(
            t(14),
            3,
            TraceData::PacketStart {
                packet: 2,
                bucket: PacketBucket::Collect,
                wave: 1,
            },
        );
        log.record(
            t(14),
            3,
            TraceData::PacketFinish {
                packet: 2,
                bucket: PacketBucket::Collect,
                bytes: 4096,
                returned: 0,
                duration_ms: 7,
            },
        );
        let c = log.serialize();
        let back = TraceLog::deserialize(&c).expect("round trip");
        assert_eq!(back.len(), log.len());
        for (a, b) in log.events().iter().zip(back.events()) {
            assert_eq!(a, b);
        }

        // Through JSON text: the parser owns every name it reads, while the
        // serializer borrows its static ones. The trees must still compare
        // and render alike.
        let text = serde_json::to_string(&c).expect("render");
        let parsed: Content = serde_json::from_str(&text).expect("parse");
        assert_eq!(parsed, c);
        assert_eq!(serde_json::to_string(&parsed).expect("re-render"), text);
        let from_text = TraceLog::deserialize(&parsed).expect("round trip");
        assert_eq!(from_text.events(), log.events());
    }

    #[test]
    fn unknown_kind_and_missing_field_are_named_errors() {
        let map = |entries: &[(&'static str, Content)]| {
            Content::Map(
                entries
                    .iter()
                    .map(|(k, v)| ((*k).into(), v.clone()))
                    .collect(),
            )
        };
        let unknown = TraceData::deserialize(&map(&[("kind", Content::Str("gc.huge".into()))]))
            .expect_err("unknown kind");
        assert!(unknown.0.contains("`gc.huge`"), "{unknown}");
        let missing = TraceData::deserialize(&map(&[
            ("kind", Content::Str("handler.end".into())),
            ("sig", SigKind::High.serialize()),
            ("returned", Content::U64(1)),
        ]))
        .expect_err("missing field");
        assert!(missing.0.contains("`duration_ms`"), "{missing}");
        let untagged = TraceData::deserialize(&map(&[])).expect_err("no kind");
        assert!(untagged.0.contains("`kind`"), "{untagged}");
    }

    #[test]
    fn kind_that_disagrees_with_its_fields_is_a_named_error() {
        // One line per variant whose kind encodes a field: the tag names
        // one kind, the field another. Each is refused, not relabelled.
        for (tag, fields, given) in [
            (
                "gc.young",
                r#""layer":"Full","reclaimed":1,"returned":0,"pause_ms":1"#,
                "gc.full",
            ),
            ("signal.low", r#""sig":"Kill""#, "signal.kill"),
            (
                "threshold.adjust.high",
                r#""side":"Low","old":1,"new":2"#,
                "threshold.adjust.low",
            ),
            (
                "alloc.admit",
                r#""delayed":true,"rate":0.5,"elapsed_ms":1,"epoch_ms":1,"num_epochs":1,"curve":"Linear""#,
                "alloc.delay",
            ),
        ] {
            let line = format!(r#"{{"t":1,"pid":1,"kind":"{tag}",{fields}}}"#);
            let err = serde_json::from_str::<TraceEvent>(&line).expect_err(&line);
            let err = err.to_string();
            assert!(err.contains(&format!("`{tag}`")), "{err}");
            assert!(err.contains(&format!("`{given}`")), "{err}");
        }
    }

    /// Random field values for the codec property, edge cases often:
    /// `u64::MAX`, NaNs with payloads, negative zero, empty lists and
    /// multi-byte strings.
    struct Gen<'a>(&'a mut proptest::TestRng);

    impl Gen<'_> {
        fn pick(&mut self, n: u64) -> u64 {
            self.0.next_u64() % n
        }
        fn u64(&mut self) -> u64 {
            match self.pick(4) {
                0 => u64::MAX,
                1 => self.pick(300),
                2 => 1 << self.pick(64),
                _ => self.0.next_u64(),
            }
        }
        fn u32(&mut self) -> u32 {
            match self.pick(3) {
                0 => u32::MAX,
                1 => self.pick(8) as u32,
                _ => self.0.next_u64() as u32,
            }
        }
        fn bool(&mut self) -> bool {
            self.pick(2) == 1
        }
        fn rate(&mut self) -> f64 {
            match self.pick(5) {
                // A quiet NaN with a random payload, and any bit pattern.
                0 => f64::from_bits(0x7ff8_0000_0000_0000 | (self.0.next_u64() >> 13)),
                1 => f64::from_bits(self.0.next_u64()),
                2 => -0.0,
                3 => 1.0,
                _ => self.0.next_f64(),
            }
        }
        fn string(&mut self) -> String {
            [
                "",
                "Linear",
                "k-means 1",
                "na\u{ef}ve \u{2013} \u{65e5}\u{672c} \u{2713}",
                "\u{1f980}",
            ][self.pick(5) as usize]
                .to_string()
        }
        fn list(&mut self) -> Vec<u64> {
            (0..self.pick(4)).map(|_| self.u64()).collect()
        }
        fn candidates(&mut self) -> Vec<CandidateInfo> {
            (0..self.pick(3))
                .map(|_| CandidateInfo {
                    pid: self.u64(),
                    spawned_at_ms: self.u64(),
                    rss: self.u64(),
                    expected_reclaim: self.u64(),
                    crit: self.crit(),
                })
                .collect()
        }
        fn zone(&mut self) -> TraceZone {
            [
                TraceZone::Green,
                TraceZone::Yellow,
                TraceZone::Red,
                TraceZone::AboveTop,
            ][self.pick(4) as usize]
        }
        fn sig(&mut self) -> SigKind {
            [SigKind::Low, SigKind::High, SigKind::Kill][self.pick(3) as usize]
        }
        fn side(&mut self) -> ThresholdSide {
            [ThresholdSide::Low, ThresholdSide::High][self.pick(2) as usize]
        }
        fn reason(&mut self) -> EvictReason {
            [
                EvictReason::LowSignal,
                EvictReason::HighSignal,
                EvictReason::Capacity,
                EvictReason::AdmissionDelay,
            ][self.pick(4) as usize]
        }
        fn layer(&mut self) -> GcLayer {
            [GcLayer::Young, GcLayer::Mixed, GcLayer::Full, GcLayer::Go][self.pick(4) as usize]
        }
        fn bucket(&mut self) -> PacketBucket {
            PacketBucket::ALL[self.pick(3) as usize]
        }
        fn crit(&mut self) -> Criticality {
            Criticality::ALL[self.pick(3) as usize]
        }

        /// A payload of `template`'s variant with every field drawn anew.
        /// The match names every variant, so a new one must be added here.
        fn like(&mut self, template: &TraceData) -> TraceData {
            use TraceData as D;
            match template {
                D::ProcSpawn { .. } => D::ProcSpawn {
                    name: self.string(),
                },
                D::ProcRespawn { .. } => D::ProcRespawn {
                    name: self.string(),
                },
                D::ProcExit => D::ProcExit,
                D::ProcKill => D::ProcKill,
                D::OomKill => D::OomKill,
                D::SignalSent { .. } => D::SignalSent { sig: self.sig() },
                D::SignalDropped { .. } => D::SignalDropped { sig: self.sig() },
                D::SignalDelayed { .. } => D::SignalDelayed { sig: self.sig() },
                D::Madvise { .. } => D::Madvise { bytes: self.u64() },
                D::MonitorPoll { .. } => D::MonitorPoll {
                    zone: self.zone(),
                    used: self.u64(),
                    low: self.u64(),
                    high: self.u64(),
                    degraded: self.bool(),
                    low_signalled: self.list(),
                    high_signalled: self.list(),
                    killed: self.list(),
                },
                D::ZoneChange { .. } => D::ZoneChange {
                    from: self.zone(),
                    to: self.zone(),
                },
                D::ThresholdAdjust { .. } => D::ThresholdAdjust {
                    side: self.side(),
                    old: self.u64(),
                    new: self.u64(),
                },
                D::Selection { .. } => D::Selection {
                    order: self.string(),
                    target: self.u64(),
                    all: self.bool(),
                    candidates: self.candidates(),
                    selected: self.list(),
                },
                D::WatchdogSkip => D::WatchdogSkip,
                D::WatchdogEscalate { .. } => D::WatchdogEscalate {
                    backoff: self.u64(),
                },
                D::WatchdogResignal { .. } => D::WatchdogResignal {
                    backoff: self.u64(),
                },
                D::MonitorKill { .. } => D::MonitorKill { rss: self.u64() },
                D::HandlerStart { .. } => D::HandlerStart { sig: self.sig() },
                D::HandlerEnd { .. } => D::HandlerEnd {
                    sig: self.sig(),
                    duration_ms: self.u64(),
                    returned: self.u64(),
                },
                D::EvictBlocks { .. } => D::EvictBlocks {
                    before: self.u64(),
                    evicted: self.u64(),
                    bytes: self.u64(),
                    reason: self.reason(),
                },
                D::EvictSlabs { .. } => D::EvictSlabs {
                    before: self.u64(),
                    evicted: self.u64(),
                    items: self.u64(),
                    bytes: self.u64(),
                    reason: self.reason(),
                },
                D::EvictClass { .. } => D::EvictClass {
                    chunk: self.u64(),
                    before: self.u64(),
                    evicted: self.u64(),
                    items: self.u64(),
                    bytes: self.u64(),
                    reason: self.reason(),
                },
                D::CacheStats { .. } => D::CacheStats {
                    requests: self.u64(),
                    hits: self.u64(),
                    misses: self.u64(),
                    negative: self.u64(),
                    sets: self.u64(),
                    deletes: self.u64(),
                    delayed: self.u64(),
                    capacity_items: self.u64(),
                    resident_bytes: self.u64(),
                    live_items: self.u64(),
                    serve_ms: self.u64(),
                },
                D::Gc { .. } => D::Gc {
                    layer: self.layer(),
                    reclaimed: self.u64(),
                    returned: self.u64(),
                    pause_ms: self.u64(),
                },
                D::AllocGate { .. } => D::AllocGate {
                    delayed: self.bool(),
                    rate: self.rate(),
                    elapsed_ms: self.u64(),
                    epoch_ms: self.u64(),
                    num_epochs: self.u32(),
                    curve: self.string(),
                },
                D::AllocBatch { .. } => D::AllocBatch {
                    n: self.u64(),
                    delayed: self.u64(),
                    rate: self.rate(),
                    elapsed_ms: self.u64(),
                    epoch_ms: self.u64(),
                    num_epochs: self.u32(),
                    curve: self.string(),
                },
                D::FleetPressure { .. } => D::FleetPressure {
                    node: self.u64(),
                    zone: self.zone(),
                    used: self.u64(),
                    reserved: self.u64(),
                    high: self.u64(),
                    top: self.u64(),
                    escalations: self.u64(),
                },
                D::FleetPlace { .. } => D::FleetPlace {
                    job: self.u64(),
                    node: self.u64(),
                    used: self.u64(),
                    demand: self.u64(),
                    top: self.u64(),
                },
                D::FleetDefer { .. } => D::FleetDefer {
                    job: self.u64(),
                    attempt: self.u64(),
                    retry_at_ms: self.u64(),
                },
                D::FleetMigrate { .. } => D::FleetMigrate {
                    job: self.u64(),
                    from: self.u64(),
                    to: self.u64(),
                    red_for_ms: self.u64(),
                },
                D::FleetGiveUp { .. } => D::FleetGiveUp {
                    job: self.u64(),
                    attempts: self.u64(),
                    demand: self.u64(),
                },
                D::FleetNodeLost { .. } => D::FleetNodeLost {
                    node: self.u64(),
                    jobs_lost: self.u64(),
                },
                D::FleetReschedule { .. } => D::FleetReschedule {
                    job: self.u64(),
                    from: self.u64(),
                    retries: self.u64(),
                    retry_at_ms: self.u64(),
                    requeued: self.bool(),
                },
                D::FleetQuarantine { .. } => D::FleetQuarantine {
                    node: self.u64(),
                    entered: self.bool(),
                    streak: self.u64(),
                },
                D::SchedClassAssign { .. } => D::SchedClassAssign {
                    job: self.u64(),
                    crit: self.crit(),
                    slo_ms: self.u64(),
                },
                D::SchedClassPreempt { .. } => D::SchedClassPreempt {
                    job: self.u64(),
                    crit: self.crit(),
                    victim: self.u64(),
                    victim_crit: self.crit(),
                    node: self.u64(),
                },
                D::SchedClassSlo { .. } => D::SchedClassSlo {
                    job: self.u64(),
                    crit: self.crit(),
                    slo_ms: self.u64(),
                    runtime_ms: self.u64(),
                    stall_ms: self.u64(),
                    met: self.bool(),
                },
                D::KillClass { .. } => D::KillClass {
                    crit: self.crit(),
                    candidates: self.candidates(),
                },
                D::PacketEnqueue { .. } => D::PacketEnqueue {
                    packet: self.u64(),
                    pkind: self.string(),
                    bucket: self.bucket(),
                    deps: self.list(),
                },
                D::PacketStart { .. } => D::PacketStart {
                    packet: self.u64(),
                    bucket: self.bucket(),
                    wave: self.u64(),
                },
                D::PacketFinish { .. } => D::PacketFinish {
                    packet: self.u64(),
                    bucket: self.bucket(),
                    bytes: self.u64(),
                    returned: self.u64(),
                    duration_ms: self.u64(),
                },
                D::PacketStall { .. } => D::PacketStall {
                    packet: self.u64(),
                    waiting_on: self.u64(),
                    wave: self.u64(),
                },
            }
        }
    }

    /// One payload of every kind: the wire-format golden, which lists each
    /// kind once.
    fn every_kind() -> Vec<TraceData> {
        include_str!("../../../tests/golden/every_kind.trace.jsonl")
            .lines()
            .map(|line| {
                serde_json::from_str::<TraceEvent>(line)
                    .expect("golden line")
                    .data
            })
            .collect()
    }

    /// Traces that hold every kind at least once, in a rotated order, with
    /// times that jump back and forth across the whole `u64` range.
    struct ArbTrace(Vec<TraceData>);

    impl proptest::StrategyCore for ArbTrace {
        type Value = Vec<TraceEvent>;
        fn generate(&self, rng: &mut proptest::TestRng) -> Vec<TraceEvent> {
            let mut g = Gen(rng);
            let n = self.0.len();
            let (extra, rotate) = (g.pick(n as u64) as usize, g.pick(n as u64) as usize);
            let mut t = g.u64();
            (0..n + extra)
                .map(|i| {
                    t = match g.pick(4) {
                        0 => t.wrapping_sub(g.pick(5_000)),
                        1 => t.wrapping_add(g.pick(5_000)),
                        _ => g.u64(),
                    };
                    TraceEvent {
                        t: SimTime::from_millis(t),
                        pid: g.u64(),
                        data: g.like(&self.0[(i + rotate) % n]),
                    }
                })
                .collect()
        }
    }

    /// The event with its allow rate, if any, zeroed, and the rate's bits:
    /// what two events must share to be equal bit for bit.
    fn by_bits(e: &TraceEvent) -> (TraceEvent, Option<u64>) {
        let mut e = e.clone();
        let bits = match &mut e.data {
            TraceData::AllocGate { rate, .. } | TraceData::AllocBatch { rate, .. } => {
                Some(std::mem::replace(rate, 0.0).to_bits())
            }
            _ => None,
        };
        (e, bits)
    }

    fn log_of(events: &[TraceEvent]) -> TraceLog {
        let mut log = TraceLog::new();
        for e in events {
            log.record(e.t, e.pid, e.data.clone());
        }
        log
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn packed_events_of_every_kind_come_back_bit_for_bit(
            events in ArbTrace(every_kind()),
        ) {
            let log = log_of(&events);
            let want: Vec<_> = events.iter().map(by_bits).collect();
            proptest::prop_assert_eq!(log.len(), events.len());
            let streamed: Vec<_> = log.iter().map(|e| by_bits(&e)).collect();
            proptest::prop_assert!(streamed == want, "iter() differs from what was recorded");
            let decoded: Vec<_> = log.events().iter().map(by_bits).collect();
            proptest::prop_assert!(decoded == want, "events() differs from what was recorded");

            // A prefix cut at a mark continues into the very same bytes.
            let half = events.len() / 2;
            let mut cut = log_of(&events[..half]).mark();
            let mut resumed = log.prefix(cut);
            proptest::prop_assert_eq!(resumed.len(), half);
            for e in &events[half..] {
                resumed.record(e.t, e.pid, e.data.clone());
            }
            proptest::prop_assert!(resumed.bytes == log.bytes, "a resumed prefix diverged");
            cut = log.mark();
            proptest::prop_assert!(log.prefix(cut).bytes == log.bytes);

            // JSON has no NaN and reads `-0` back as zero: give those rates
            // a finite value, then the text, the events and a re-render
            // must all agree.
            let finite: Vec<TraceEvent> = events
                .iter()
                .cloned()
                .map(|mut e| {
                    if let TraceData::AllocGate { rate, .. } | TraceData::AllocBatch { rate, .. } =
                        &mut e.data
                    {
                        if !rate.is_finite() || *rate == 0.0 {
                            *rate = 0.25;
                        }
                    }
                    e
                })
                .collect();
            let log = log_of(&finite);
            let text = serde_json::to_string(&log).expect("renders");
            let back: TraceLog = serde_json::from_str(&text).expect("parses back");
            proptest::prop_assert!(back.events() == finite.as_slice(), "JSON changed an event");
            proptest::prop_assert!(back.iter().eq(log.iter()), "JSON changed an event");
            proptest::prop_assert_eq!(serde_json::to_string(&back).expect("re-renders"), text);
        }
    }

    #[test]
    fn events_are_decoded_again_after_a_record() {
        let mut log = TraceLog::new();
        log.record(t(1), 1, gc(GcLayer::Young, 5));
        assert_eq!(log.events().len(), 1);
        log.record(t(2), 2, TraceData::ProcExit);
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[1].pid, 2);
        let copy = log.clone();
        log.clear();
        assert!(log.events().is_empty() && log.iter().next().is_none());
        assert_eq!(copy.events(), log_of(copy.events()).events());
    }

    #[test]
    fn serialized_event_is_flat_with_kind_first() {
        let ev = TraceEvent {
            t: t(5),
            pid: 7,
            data: TraceData::Madvise { bytes: 4096 },
        };
        let c = ev.serialize();
        let serde::Content::Map(entries) = &c else {
            panic!("expected map");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, vec!["t", "pid", "kind", "bytes"]);
    }
}
