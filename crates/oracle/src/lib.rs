//! Trace-replay conformance oracle.
//!
//! [`Oracle::check`] walks a recorded [`TraceLog`] and re-derives every
//! decision the M3 stack claims to have made, flagging a [`Violation`]
//! wherever the recorded behaviour diverges from the paper's protocols. A
//! [`Checker`] does the same one event at a time: a captured run feeds it
//! each event as it records it, so the run never reads its trace back.
//! The invariants:
//!
//! - **Thresholds (§5.2)** — `low ≤ high ≤ top` at every poll, every move
//!   bounded by the 2 %-of-top step, and a full replay of the adaptive
//!   algorithm (1:32 ratio over the 32-poll window) from the recorded
//!   usage sequence.
//! - **Zoning (§5, §6)** — each poll's zone matches the recorded usage
//!   against the recorded thresholds, including the widened margin of
//!   degraded (stale-meminfo) polls; low signals only on upward crossings.
//! - **Selective notification (§5.1, Algorithm 1)** — the selected set is
//!   recomputed from the recorded candidates, order and target; the pids
//!   actually high-signalled are the selection minus watchdog skips; every
//!   signalled pid has a matching signal-bus event.
//! - **Escalation (§6)** — kills only above the top of memory and only
//!   after the kill-timeout grace period.
//! - **Adaptive allocation (§4.2)** —
//!   `allow_rate = min(elapsed / (epoch_len × NUM_epochs), 1)` recomputed
//!   from each gate event's recorded inputs, plus an exact replay of the
//!   ⌊1/r⌋ stride gate and of the batched gate's fractional carry.
//! - **Reclamation responses (Table 1, §4.1)** — a high signal evicts ⅛ of
//!   the Spark block cache, 1 % (low) / 4 % (high) of cache slabs, and each
//!   handler reclaims top-down: eviction before GC before `madvise`.
//! - **Class-granular eviction (Table 1 at slab-class granularity)** — in
//!   key-granular cache runs every signal eviction records one
//!   `evict.class` event per touched slab class; each class must evict no
//!   more slabs than it held, the group's slab/item/byte sums must equal
//!   the aggregate `evict.slabs` event that follows, and no class event may
//!   be left orphaned without its aggregate.
//! - **Cache statistics (trace workloads)** — every `cache.stats` snapshot
//!   must conserve (`hits + misses + sets + deletes = requests`, negative
//!   lookups a subset of the misses) and grow monotonically per pid.
//! - **Mixed-criticality kill ordering (`kill.class.order`)** — the
//!   flagship criticality invariant: a job is only ever killed while no
//!   more-expendable candidate is still alive. Every monitor kill records a
//!   `kill.class` event with the victim's class and the alive candidate set
//!   it was chosen from; the victim must be of maximal expendability within
//!   that set (batch dies before standard, standard before
//!   latency-critical). A criticality-blind policy under a mixed load is
//!   caught here.
//! - **Packet scheduling (`reclaim.packet.*`)** — handlers drained through
//!   the work-packet scheduler must respect its contract: a packet only
//!   starts after its enqueue (`reclaim.packet.order`), never before every
//!   dependency finished (`reclaim.packet.deps`), and never before its
//!   bucket opened — i.e. while any packet of a strictly earlier bucket is
//!   unfinished (`reclaim.packet.bucket`). Within one handler window the
//!   per-packet `finish` bytes must sum exactly to the aggregate events of
//!   the same layer — `evict_blocks` packets to `evict.blocks` bytes,
//!   `evict_class` to `evict.class`, `evict_slabs` to `evict.slabs`, GC
//!   packets to `gc.*` reclaimed bytes, and every packet's returned bytes
//!   to the window's `mem.madvise` total
//!   (`reclaim.packet.conservation`) — and every enqueued packet must
//!   finish before the handler ends (`reclaim.packet.orphan`). A drain
//!   run in reverse bucket order is caught here.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use m3_core::alloc::RateCurve;
use m3_core::config::{MonitorConfig, KILL_TIMEOUT};
use m3_core::monitor::{DEGRADED_MARGIN_FRACTION, MAX_DEGRADED_WIDENING};
use m3_core::selection::{select_processes, Candidate, SortOrder};
use m3_core::thresholds::AdaptiveThresholds;
use m3_sim::trace::{
    CandidateInfo, Criticality, EvictReason, SigKind, ThresholdSide, TraceData, TraceEvent,
    TraceLog, TraceObserver, TraceZone,
};
use serde::{Deserialize, Serialize};

/// One divergence between a recorded trace and the paper's protocols.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Violation {
    /// Which invariant failed (stable dotted name, e.g. `"alloc.stride"`).
    pub invariant: String,
    /// When the offending event happened, ms.
    pub at_ms: u64,
    /// The process the offending event concerns (0 for the monitor).
    pub pid: u64,
    /// Human-readable description of the divergence.
    pub message: String,
}

/// Fraction of cached blocks a framework evicts on a high signal (Table 1:
/// Spark drops ⅛ of its block cache).
const BLOCK_HIGH_FRACTION: f64 = 1.0 / 8.0;
/// Fraction of slabs a cache evicts on a low signal (Table 1: 1 %).
const SLAB_LOW_FRACTION: f64 = 0.01;
/// Fraction of slabs a cache evicts on a high signal (Table 1: 4 %).
const SLAB_HIGH_FRACTION: f64 = 0.04;

/// The conformance oracle: the paper's constants plus the monitor
/// configuration the run declared (monitor invariants are skipped for
/// monitor-less runs).
#[derive(Debug, Clone, Copy)]
pub struct Oracle {
    monitor: Option<MonitorConfig>,
}

impl Oracle {
    /// An oracle with the paper's Table 1 constants.
    pub fn paper(monitor: Option<MonitorConfig>) -> Self {
        Oracle { monitor }
    }

    /// Replays `trace` and returns every divergence found (empty =
    /// conformant): the check of a stored or loaded trace. A node run
    /// checks its events as it records them (`Kernel::observe_with`).
    pub fn check(&self, trace: &TraceLog) -> Vec<Violation> {
        let mut checker = self.checker();
        trace.for_each(|e| checker.observe(e));
        checker.finish()
    }

    /// A checker, with its own copy of this oracle, that replays events as
    /// they are handed to it.
    pub fn checker(&self) -> Checker {
        Checker::new(*self)
    }
}

/// Cluster-level conformance oracle for fleet placement logs.
///
/// Walks the scheduler's trace (`fleet.*` events) and checks the
/// placement invariants:
///
/// - **`fleet.place.red`** — a job is never placed onto a node whose latest
///   pressure snapshot is red or above top (and never without a snapshot).
/// - **`fleet.migrate.grace`** — a migration off a node only happens after
///   that node's pressure snapshots have been contiguously red for at least
///   the grace window.
/// - **`fleet.defer.progress`** — every deferred job is eventually placed
///   or explicitly given up on; no job is silently dropped.
/// - **`fleet.defer.latency`** — a deferred job's next admission attempt
///   happens no later than the retry time the defer announced, and the
///   announced retry is no further out than the scheduler's defer
///   interval.
/// - **`fleet.giveup.starvation`** — a job is never given up on while some
///   node's latest snapshot is green/yellow with room for the job's demand
///   (`max(used, reserved) + demand <= top`): bounded placement scans must
///   degrade to exhaustive ones before abandoning work. Nodes known dead or
///   quarantined are exempt, as are jobs abandoned after node loss (their
///   give-up is budget-bound, not fleet-fullness-bound).
///
/// Recovery invariants (the chaos layer):
///
/// - **`fleet.place.dead`** — no placement or migration ever targets a node
///   after its `fleet.node_lost` event: a node known dead at decision time
///   receives nothing.
/// - **`fleet.place.quarantined`** — a quarantined node receives zero
///   placements or migrations between its quarantine entry and its
///   re-admission.
/// - **`fleet.lost.resolved`** — every job re-queued after node death
///   (`fleet.reschedule` with `requeued`) is eventually placed again or
///   explicitly given up on; no lost job is silently dropped.
///
/// Mixed-criticality invariants (`sched.class.*` events):
///
/// - **`sched.class.preempt`** — a reservation preemption is only legal
///   when the preemptor is strictly *less* expendable than its victim
///   (latency-critical may displace batch, never a peer or better).
/// - **`sched.class.slo`** — per-job SLO accounting must conserve: `met`
///   equals `runtime_ms <= slo_ms` (vacuously true without an SLO) and the
///   stall time never exceeds the runtime.
/// - **`sched.class.consistency`** — preempt and SLO events must agree
///   with the class and SLO the job declared in its `sched.class.assign`.
#[derive(Debug, Clone, Copy)]
pub struct FleetOracle {
    /// Grace window a node must stay red before migration is allowed, ms.
    pub grace_ms: u64,
    /// The scheduler's defer interval, ms: bounds how far out a defer may
    /// announce its retry.
    pub defer_interval_ms: u64,
}

/// A node's latest pressure snapshot as the fleet oracle replays it, and
/// since when the node has been contiguously red (`None` while it is
/// green or yellow, or once it is lost).
#[derive(Debug, Clone, Copy)]
struct NodeSnap {
    zone: TraceZone,
    used: u64,
    reserved: u64,
    top: u64,
    red_since: Option<u64>,
}

/// What the fleet oracle knows of one node as the trace replays.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// The latest pressure snapshot, if the node was probed.
    snap: Option<NodeSnap>,
    /// The node was lost.
    dead: bool,
    /// The node is in quarantine.
    quarantined: bool,
}

impl NodeState {
    /// The node's latest snapshot, when the node is alive, out of
    /// quarantine, green or yellow, and has room for `demand`
    /// (`max(used, reserved) + demand <= top`).
    fn admits(&self, demand: u64) -> Option<&NodeSnap> {
        (self.snap.as_ref()).filter(|s| {
            !self.dead
                && !self.quarantined
                && matches!(s.zone, TraceZone::Green | TraceZone::Yellow)
                && s.used.max(s.reserved).saturating_add(demand) <= s.top
        })
    }
}

impl FleetOracle {
    /// An oracle for a scheduler with the given grace window and defer
    /// interval.
    pub fn new(grace_ms: u64, defer_interval_ms: u64) -> Self {
        FleetOracle {
            grace_ms,
            defer_interval_ms,
        }
    }

    /// Replays the fleet events in `trace` and returns every divergence
    /// found (empty = conformant). Non-fleet events are ignored, so the
    /// scheduler's full log can be passed as-is. The fleet scheduler
    /// checks its events as it records them; this is the check of a
    /// stored or loaded log.
    pub fn check(&self, trace: &TraceLog) -> Vec<Violation> {
        let mut checker = self.checker();
        trace.for_each(|e| checker.observe(e));
        checker.finish()
    }

    /// A checker, with its own copy of this oracle, that replays fleet
    /// events as they are handed to it.
    pub fn checker(&self) -> FleetChecker {
        FleetChecker {
            oracle: *self,
            seen: 0,
            out: Vec::new(),
            nodes: HashMap::new(),
            pending_defer: BTreeMap::new(),
            lost_jobs: BTreeSet::new(),
            pending_requeue: BTreeMap::new(),
            classes: BTreeMap::new(),
        }
    }
}

/// The fleet oracle's replay state: [`FleetChecker::observe`] takes the
/// events in record order, one at a time, and [`FleetChecker::finish`]
/// returns the divergences found ([`FleetOracle::check`] drives one over
/// a stored trace).
pub struct FleetChecker {
    oracle: FleetOracle,
    /// Events observed so far, fleet or not.
    seen: usize,
    out: Vec<Violation>,
    /// Latest pressure snapshot, red streak, loss and quarantine per node.
    nodes: HashMap<u64, NodeState>,
    /// Jobs with a defer not yet resolved by a place or a give-up:
    /// job -> (deferred at, announced retry time).
    pending_defer: BTreeMap<u64, (u64, u64)>,
    /// Jobs that have ever been lost to node death, and the re-queued
    /// losses not yet resolved by a place or a give-up: job -> lost at.
    lost_jobs: BTreeSet<u64>,
    pending_requeue: BTreeMap<u64, u64>,
    /// Criticality class and SLO each job declared at submission.
    classes: BTreeMap<u64, (Criticality, u64)>,
}

impl FleetChecker {
    /// How many events this checker has observed.
    pub fn observed(&self) -> usize {
        self.seen
    }

    fn flag(&mut self, invariant: &str, at: u64, pid: u64, message: String) {
        self.out.push(Violation {
            invariant: invariant.into(),
            at_ms: at,
            pid,
            message,
        });
    }

    /// `fleet.defer.latency`: the event at `at` ms resolves `job`'s pending
    /// defer (if any), which must not have announced an earlier retry.
    fn resolve_defer(&mut self, job: u64, at: u64, pid: u64) {
        let Some((_, retry_at)) = self.pending_defer.remove(&job) else {
            return;
        };
        if at > retry_at {
            self.flag(
                "fleet.defer.latency",
                at,
                pid,
                format!(
                    "job {job} deferred with retry announced at {retry_at} ms \
                     was next attempted only at {at} ms"
                ),
            );
        }
    }

    /// A placement or migration target must be neither dead nor
    /// quarantined at decision time.
    fn check_target(&mut self, job: u64, node: u64, at: u64, pid: u64) {
        let state = self.nodes.get(&node).copied().unwrap_or_default();
        if state.dead {
            self.flag(
                "fleet.place.dead",
                at,
                pid,
                format!("job {job} placed on node {node}, which is dead"),
            );
        }
        if state.quarantined {
            self.flag(
                "fleet.place.quarantined",
                at,
                pid,
                format!("job {job} placed on node {node}, which is quarantined"),
            );
        }
    }

    /// Replays the next event; non-fleet events are ignored.
    #[allow(clippy::too_many_lines)]
    pub fn observe(&mut self, e: &TraceEvent) {
        self.seen += 1;
        let at = e.t.as_millis();
        match &e.data {
            TraceData::FleetPressure {
                node,
                zone,
                used,
                reserved,
                top,
                ..
            } => {
                let n = self.nodes.entry(*node).or_default();
                let red_since = match zone {
                    TraceZone::Red | TraceZone::AboveTop => {
                        n.snap.and_then(|s| s.red_since).or(Some(at))
                    }
                    _ => None,
                };
                n.snap = Some(NodeSnap {
                    zone: *zone,
                    used: *used,
                    reserved: *reserved,
                    top: *top,
                    red_since,
                });
            }
            TraceData::FleetPlace { job, node, .. } => {
                match self.nodes.get(node).and_then(|n| n.snap).map(|s| s.zone) {
                    None => self.flag(
                        "fleet.place.red",
                        at,
                        e.pid,
                        format!("job {job} placed on node {node} without a pressure probe"),
                    ),
                    Some(z @ (TraceZone::Red | TraceZone::AboveTop)) => self.flag(
                        "fleet.place.red",
                        at,
                        e.pid,
                        format!(
                            "job {job} placed on node {node} whose latest \
                             pressure snapshot is {z:?}"
                        ),
                    ),
                    Some(_) => {}
                }
                self.check_target(*job, *node, at, e.pid);
                self.pending_requeue.remove(job);
                self.resolve_defer(*job, at, e.pid);
            }
            TraceData::FleetDefer {
                job, retry_at_ms, ..
            } => {
                // A retry that itself defers resolves the previous
                // pending defer (and must itself be on time).
                self.resolve_defer(*job, at, e.pid);
                let interval = self.oracle.defer_interval_ms;
                if retry_at_ms.saturating_sub(at) > interval {
                    self.flag(
                        "fleet.defer.latency",
                        at,
                        e.pid,
                        format!(
                            "job {job} deferred at {at} ms announced retry at \
                             {retry_at_ms} ms, beyond the {interval} ms defer interval"
                        ),
                    );
                }
                self.pending_defer.insert(*job, (at, *retry_at_ms));
            }
            TraceData::FleetMigrate { job, from, to, .. } => {
                self.check_target(*job, *to, at, e.pid);
                let streak = (self.nodes.get(from))
                    .and_then(|n| n.snap?.red_since)
                    .map(|since| at.saturating_sub(since));
                let grace = self.oracle.grace_ms;
                match streak {
                    None => self.flag(
                        "fleet.migrate.grace",
                        at,
                        e.pid,
                        format!("job {job} migrated off node {from} that is not red"),
                    ),
                    Some(ms) if ms < grace => self.flag(
                        "fleet.migrate.grace",
                        at,
                        e.pid,
                        format!(
                            "job {job} migrated off node {from} after only {ms} ms \
                             red (grace window is {grace} ms)"
                        ),
                    ),
                    Some(_) => {}
                }
            }
            TraceData::FleetGiveUp { job, demand, .. } => {
                self.resolve_defer(*job, at, e.pid);
                self.pending_requeue.remove(job);
                // Giving up while some node visibly admits the job is
                // starvation: the final attempt must have seen it. Jobs
                // abandoned after node loss exhausted a retry budget, not
                // the candidate set, so they are exempt — as are nodes
                // the scheduler rightly refuses to target. The report
                // names the lowest-index node that fits.
                if self.lost_jobs.contains(job) {
                    return;
                }
                let fitting = (self.nodes.iter())
                    .filter_map(|(node, n)| Some((*node, n.admits(*demand)?)))
                    .min_by_key(|(node, _)| *node);
                if let Some((node, s)) = fitting {
                    let message = format!(
                        "job {job} (demand {demand}) given up on while node {node} \
                         is {:?} with effective load {} of top {}",
                        s.zone,
                        s.used.max(s.reserved),
                        s.top
                    );
                    self.flag("fleet.giveup.starvation", at, e.pid, message);
                }
            }
            TraceData::FleetNodeLost { node, .. } => {
                let n = self.nodes.entry(*node).or_default();
                n.dead = true;
                if let Some(s) = &mut n.snap {
                    s.red_since = None;
                }
            }
            TraceData::FleetReschedule { job, requeued, .. } => {
                self.lost_jobs.insert(*job);
                if *requeued {
                    self.pending_requeue.insert(*job, at);
                }
            }
            TraceData::FleetQuarantine { node, entered, .. } => {
                self.nodes.entry(*node).or_default().quarantined = *entered;
            }
            TraceData::SchedClassAssign { job, crit, slo_ms } => {
                self.classes.insert(*job, (*crit, *slo_ms));
            }
            TraceData::SchedClassPreempt {
                job,
                crit,
                victim,
                victim_crit,
                node,
            } => {
                if crit.expendability() >= victim_crit.expendability() {
                    self.flag(
                        "sched.class.preempt",
                        at,
                        e.pid,
                        format!(
                            "job {job} ({}) preempted job {victim} ({}) on node \
                             {node}: a preemptor must be strictly less expendable \
                             than its victim",
                            crit.name(),
                            victim_crit.name()
                        ),
                    );
                }
                for (who, recorded) in [(job, crit), (victim, victim_crit)] {
                    if let Some(&(assigned, _)) = self.classes.get(who) {
                        if assigned != *recorded {
                            self.flag(
                                "sched.class.consistency",
                                at,
                                e.pid,
                                format!(
                                    "preempt records job {who} as {}, its assignment \
                                     declared {}",
                                    recorded.name(),
                                    assigned.name()
                                ),
                            );
                        }
                    }
                }
            }
            TraceData::SchedClassSlo {
                job,
                crit,
                slo_ms,
                runtime_ms,
                stall_ms,
                met,
            } => {
                let want_met = *slo_ms == 0 || runtime_ms <= slo_ms;
                if *met != want_met {
                    self.flag(
                        "sched.class.slo",
                        at,
                        e.pid,
                        format!(
                            "job {job} recorded met={met} but runtime {runtime_ms} ms \
                             against SLO {slo_ms} ms implies met={want_met}"
                        ),
                    );
                }
                if stall_ms > runtime_ms {
                    self.flag(
                        "sched.class.slo",
                        at,
                        e.pid,
                        format!(
                            "job {job} stalled {stall_ms} ms, more than its whole \
                             {runtime_ms} ms runtime"
                        ),
                    );
                }
                if let Some(&(assigned, assigned_slo)) = self.classes.get(job) {
                    if assigned != *crit || assigned_slo != *slo_ms {
                        self.flag(
                            "sched.class.consistency",
                            at,
                            e.pid,
                            format!(
                                "job {job} SLO report says ({}, {slo_ms} ms), its \
                                 assignment declared ({}, {assigned_slo} ms)",
                                crit.name(),
                                assigned.name()
                            ),
                        );
                    }
                }
            }
            _ => {}
        }
    }

    /// Ends the replay: flags the re-queued and deferred jobs the trace
    /// never resolved and returns every divergence found (empty =
    /// conformant).
    pub fn finish(mut self) -> Vec<Violation> {
        for (job, since) in std::mem::take(&mut self.pending_requeue) {
            self.flag(
                "fleet.lost.resolved",
                since,
                job,
                format!(
                    "job {job} lost to node death at {since} ms was re-queued \
                     but never placed or given up on"
                ),
            );
        }
        for (job, (since, _)) in std::mem::take(&mut self.pending_defer) {
            self.flag(
                "fleet.defer.progress",
                since,
                job,
                format!("job {job} was deferred at {since} ms and never placed or given up on"),
            );
        }
        self.out
    }
}

/// Per-pid replay of the §4.2 allocation gate.
#[derive(Clone, Default)]
struct AllocReplay {
    counter: u64,
    carry: f64,
}

/// Reclamation events seen inside one open `handler.start`/`handler.end`
/// window, by global event index, plus the byte totals the packet
/// conservation check compares at `handler.end`.
#[derive(Clone, Default)]
struct HandlerWindow {
    last_evict: Option<usize>,
    first_gc: Option<usize>,
    first_madvise: Option<usize>,
    /// True once a `reclaim.packet.finish` landed in this window: the
    /// conservation check only applies to packetized handlers.
    saw_packets: bool,
    /// Aggregate layer-event bytes inside the window.
    agg_blocks: u64,
    agg_slabs: u64,
    agg_class: u64,
    agg_gc: u64,
    agg_madvise: u64,
    /// Packet `finish` bytes inside the window, by packet-kind class.
    pkt_blocks: u64,
    pkt_slabs: u64,
    pkt_class: u64,
    pkt_gc: u64,
    /// Packet `finish` returned-to-OS bytes (all kinds).
    pkt_returned: u64,
}

/// Replay state of one enqueued work packet.
#[derive(Debug, Clone)]
struct PacketState {
    pkind: String,
    bucket: m3_sim::trace::PacketBucket,
    deps: Vec<u64>,
    enq_at_ms: u64,
    started: bool,
    finished: bool,
}

/// One `evict.class` event awaiting its aggregate `evict.slabs`.
#[derive(Debug, Clone, Copy)]
struct PendingClassEvict {
    at_ms: u64,
    chunk: u64,
    evicted: u64,
    items: u64,
    bytes: u64,
    reason: EvictReason,
}

/// Cumulative counters of the last `cache.stats` snapshot for one pid.
#[derive(Debug, Clone, Copy, Default)]
struct StatsSnap {
    requests: u64,
    hits: u64,
    misses: u64,
    negative: u64,
    sets: u64,
    deletes: u64,
    delayed: u64,
    capacity_items: u64,
    serve_ms: u64,
}

/// The red-zone/above-top selection awaiting its `monitor.poll`.
#[derive(Clone)]
struct PendingSelection {
    target: u64,
    all: bool,
    selected: Vec<u64>,
}

/// The node oracle's replay state: [`Checker::observe`] takes the events
/// in record order, one at a time, and [`Checker::finish`] returns the
/// divergences found ([`Oracle::check`] drives one over a stored trace).
#[derive(Clone)]
pub struct Checker {
    oracle: Oracle,
    out: Vec<Violation>,
    /// Events observed so far: the next event's index, which orders the
    /// layers of a handler window.
    seen: usize,
    /// Shadow copy of the adaptive-threshold state, fed the recorded polls.
    replica: Option<AdaptiveThresholds>,
    /// `threshold.adjust.*` events since the last poll (they precede their
    /// poll's `monitor.poll` event).
    pending_adjusts: Vec<(ThresholdSide, u64, u64)>,
    pending_selection: Option<PendingSelection>,
    /// Pids whose high signal the watchdog suppressed this poll.
    skipped: Vec<u64>,
    /// Signal-bus events (sent, dropped or delayed) since the last poll.
    window_low: Vec<u64>,
    window_high: Vec<u64>,
    /// `monitor.kill` victims since the last poll.
    window_kills: Vec<u64>,
    /// Replay of the monitor's kill-grace clock, ms.
    above_top_since: Option<u64>,
    /// Replay of the low-signal upward-crossing edge detector.
    prev_above_low: bool,
    /// Consecutive degraded polls (degraded-margin widening factor).
    degraded_run: u64,
    alloc: BTreeMap<u64, AllocReplay>,
    handlers: BTreeMap<u64, HandlerWindow>,
    /// `evict.class` groups not yet folded into their aggregate, per pid.
    pending_classes: BTreeMap<u64, Vec<PendingClassEvict>>,
    /// Last `cache.stats` snapshot per pid (monotonicity).
    last_stats: BTreeMap<u64, StatsSnap>,
    /// Work packets of the current drain, per pid (ids are drain-local, so
    /// a new handler window starts a fresh map).
    packets: BTreeMap<u64, BTreeMap<u64, PacketState>>,
}

impl Checker {
    fn new(oracle: Oracle) -> Self {
        Checker {
            oracle,
            out: Vec::new(),
            seen: 0,
            replica: oracle.monitor.as_ref().map(AdaptiveThresholds::new),
            pending_adjusts: Vec::new(),
            pending_selection: None,
            skipped: Vec::new(),
            window_low: Vec::new(),
            window_high: Vec::new(),
            window_kills: Vec::new(),
            above_top_since: None,
            prev_above_low: false,
            degraded_run: 0,
            alloc: BTreeMap::new(),
            handlers: BTreeMap::new(),
            pending_classes: BTreeMap::new(),
            last_stats: BTreeMap::new(),
            packets: BTreeMap::new(),
        }
    }

    fn flag(&mut self, invariant: &str, e: &TraceEvent, message: String) {
        self.out.push(Violation {
            invariant: invariant.to_string(),
            at_ms: e.t.as_millis(),
            pid: e.pid,
            message,
        });
    }

    /// How many events this checker has observed.
    pub fn observed(&self) -> usize {
        self.seen
    }

    /// Replays the next event.
    pub fn observe(&mut self, e: &TraceEvent) {
        let i = self.seen;
        self.seen += 1;
        match &e.data {
            TraceData::ThresholdAdjust { side, old, new } => {
                self.on_adjust(e, *side, *old, *new);
            }
            TraceData::Selection {
                order,
                target,
                all,
                candidates,
                selected,
            } => self.on_selection(e, order, *target, *all, candidates, selected),
            TraceData::WatchdogSkip => self.skipped.push(e.pid),
            TraceData::SignalSent { sig }
            | TraceData::SignalDropped { sig }
            | TraceData::SignalDelayed { sig } => match sig {
                SigKind::Low => self.window_low.push(e.pid),
                SigKind::High => self.window_high.push(e.pid),
                SigKind::Kill => {}
            },
            TraceData::MonitorKill { .. } => self.window_kills.push(e.pid),
            TraceData::KillClass { crit, candidates } => {
                self.on_kill_class(e, *crit, candidates);
            }
            TraceData::MonitorPoll { .. } => self.on_poll(e),
            TraceData::AllocGate {
                delayed,
                rate,
                elapsed_ms,
                epoch_ms,
                num_epochs,
                curve,
            } => self.on_gate(
                e,
                *delayed,
                *rate,
                *elapsed_ms,
                *epoch_ms,
                *num_epochs,
                curve,
            ),
            TraceData::AllocBatch {
                n,
                delayed,
                rate,
                elapsed_ms,
                epoch_ms,
                num_epochs,
                curve,
            } => self.on_batch(
                e,
                *n,
                *delayed,
                *rate,
                *elapsed_ms,
                *epoch_ms,
                *num_epochs,
                curve,
            ),
            TraceData::EvictBlocks {
                before,
                evicted,
                bytes,
                reason,
            } => {
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.agg_blocks += bytes;
                }
                if *reason == EvictReason::HighSignal {
                    let want = expected_fraction(*before, BLOCK_HIGH_FRACTION);
                    if *evicted != want {
                        self.flag(
                            "evict.blocks.magnitude",
                            e,
                            format!(
                                "high signal evicted {evicted} of {before} blocks, \
                                     Table 1 expects {want}"
                            ),
                        );
                    }
                }
                self.note_evict(e.pid, i);
            }
            TraceData::EvictSlabs {
                before,
                evicted,
                items,
                bytes,
                reason,
            } => {
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.agg_slabs += bytes;
                }
                let frac = match reason {
                    EvictReason::LowSignal => Some(SLAB_LOW_FRACTION),
                    EvictReason::HighSignal => Some(SLAB_HIGH_FRACTION),
                    _ => None,
                };
                if let Some(frac) = frac {
                    // The slab layer always evicts at least one slab
                    // when non-empty, so tiny caches still respond.
                    let want = expected_fraction(*before, frac).max(u64::from(*before > 0));
                    if *evicted != want {
                        self.flag(
                            "evict.slabs.magnitude",
                            e,
                            format!(
                                "{reason:?} evicted {evicted} of {before} slabs, \
                                     Table 1 expects {want}"
                            ),
                        );
                    }
                }
                self.on_slab_aggregate(e, *evicted, *items, *bytes, *reason);
                self.note_evict(e.pid, i);
            }
            TraceData::EvictClass {
                chunk,
                before,
                evicted,
                items,
                bytes,
                reason,
            } => {
                if evicted > before {
                    self.flag(
                        "evict.class.bound",
                        e,
                        format!(
                            "class {chunk} evicted {evicted} slabs but held \
                                 only {before}"
                        ),
                    );
                }
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.agg_class += bytes;
                }
                self.pending_classes
                    .entry(e.pid)
                    .or_default()
                    .push(PendingClassEvict {
                        at_ms: e.t.as_millis(),
                        chunk: *chunk,
                        evicted: *evicted,
                        items: *items,
                        bytes: *bytes,
                        reason: *reason,
                    });
            }
            TraceData::CacheStats { .. } => self.on_cache_stats(e),
            TraceData::Gc { reclaimed, .. } => {
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.first_gc.get_or_insert(i);
                    w.agg_gc += reclaimed;
                }
            }
            TraceData::Madvise { bytes } => {
                if let Some(w) = self.handlers.get_mut(&e.pid) {
                    w.first_madvise.get_or_insert(i);
                    w.agg_madvise += bytes;
                }
            }
            TraceData::HandlerStart { .. } => {
                self.handlers.insert(e.pid, HandlerWindow::default());
                // Packet ids are drain-local; a new handler means a new
                // scheduler, so the replay state starts fresh too.
                self.packets.remove(&e.pid);
            }
            TraceData::HandlerEnd { .. } => self.on_handler_end(e),
            TraceData::ProcSpawn { .. }
            | TraceData::ProcRespawn { .. }
            | TraceData::ProcExit
            | TraceData::ProcKill
            | TraceData::OomKill => {
                // A pid's allocator (and any handler window) dies with
                // the process; a respawn starts from fresh state.
                self.alloc.remove(&e.pid);
                self.handlers.remove(&e.pid);
                self.pending_classes.remove(&e.pid);
                self.last_stats.remove(&e.pid);
                self.packets.remove(&e.pid);
            }
            TraceData::PacketEnqueue {
                packet,
                pkind,
                bucket,
                deps,
            } => self.on_packet_enqueue(e, *packet, pkind, *bucket, deps),
            TraceData::PacketStart { packet, bucket, .. } => {
                self.on_packet_start(e, *packet, *bucket);
            }
            TraceData::PacketFinish {
                packet,
                bucket,
                bytes,
                returned,
                ..
            } => self.on_packet_finish(e, *packet, *bucket, *bytes, *returned),
            TraceData::PacketStall {
                packet, waiting_on, ..
            } => self.on_packet_stall(e, *packet, *waiting_on),
            TraceData::ZoneChange { .. }
            | TraceData::WatchdogEscalate { .. }
            | TraceData::WatchdogResignal { .. } => {}
            // Fleet events are cluster-level: they appear in the
            // scheduler's placement log, never in a node trace, and are
            // checked by [`FleetOracle`] instead.
            TraceData::FleetPressure { .. }
            | TraceData::FleetPlace { .. }
            | TraceData::FleetDefer { .. }
            | TraceData::FleetMigrate { .. }
            | TraceData::FleetGiveUp { .. }
            | TraceData::FleetNodeLost { .. }
            | TraceData::FleetReschedule { .. }
            | TraceData::FleetQuarantine { .. }
            | TraceData::SchedClassAssign { .. }
            | TraceData::SchedClassPreempt { .. }
            | TraceData::SchedClassSlo { .. } => {}
        }
    }

    /// Ends the replay: flags what the trace left unfinished and returns
    /// every divergence found (empty = conformant).
    pub fn finish(mut self) -> Vec<Violation> {
        for (pid, group) in std::mem::take(&mut self.pending_classes) {
            for c in group {
                self.out.push(Violation {
                    invariant: "evict.class.orphan".to_string(),
                    at_ms: c.at_ms,
                    pid,
                    message: format!(
                        "evict.class for class {} ({} slabs, {:?}) was never \
                         folded into an aggregate evict.slabs event",
                        c.chunk, c.evicted, c.reason
                    ),
                });
            }
        }
        self.out
    }

    /// Folds the pending `evict.class` group (if any) into its aggregate:
    /// reasons must match and the per-class slab/item/byte sums must equal
    /// the aggregate exactly — the class detail is a decomposition of the
    /// aggregate, not an independent report. Analytic (non-key-granular)
    /// runs record no class detail, so an empty group is conformant.
    fn on_slab_aggregate(
        &mut self,
        e: &TraceEvent,
        evicted: u64,
        items: u64,
        bytes: u64,
        reason: EvictReason,
    ) {
        let Some(group) = self.pending_classes.remove(&e.pid) else {
            return;
        };
        for c in &group {
            if c.reason != reason {
                self.flag(
                    "evict.class.conservation",
                    e,
                    format!(
                        "class {} detail recorded reason {:?} inside a {reason:?} \
                         aggregate",
                        c.chunk, c.reason
                    ),
                );
            }
        }
        let (s, i, b) = group.iter().fold((0u64, 0u64, 0u64), |(s, i, b), c| {
            (s + c.evicted, i + c.items, b + c.bytes)
        });
        if (s, i, b) != (evicted, items, bytes) {
            self.flag(
                "evict.class.conservation",
                e,
                format!(
                    "class detail sums to {s} slabs / {i} items / {b} bytes, \
                     aggregate recorded {evicted} / {items} / {bytes}"
                ),
            );
        }
    }

    /// `cache.stats` snapshots must conserve and grow monotonically.
    fn on_cache_stats(&mut self, e: &TraceEvent) {
        let &TraceData::CacheStats {
            requests,
            hits,
            misses,
            negative,
            sets,
            deletes,
            delayed,
            capacity_items,
            serve_ms,
            ..
        } = &e.data
        else {
            unreachable!("on_cache_stats called with a non-stats event");
        };
        if hits + misses + sets + deletes != requests {
            self.flag(
                "cache.stats.conservation",
                e,
                format!(
                    "hits {hits} + misses {misses} + sets {sets} + deletes \
                     {deletes} != requests {requests}"
                ),
            );
        }
        if negative > misses {
            self.flag(
                "cache.stats.conservation",
                e,
                format!("negative lookups {negative} exceed misses {misses}"),
            );
        }
        let snap = StatsSnap {
            requests,
            hits,
            misses,
            negative,
            sets,
            deletes,
            delayed,
            capacity_items,
            serve_ms,
        };
        if let Some(prev) = self.last_stats.get(&e.pid) {
            let regressed = [
                ("requests", prev.requests, requests),
                ("hits", prev.hits, hits),
                ("misses", prev.misses, misses),
                ("negative", prev.negative, negative),
                ("sets", prev.sets, sets),
                ("deletes", prev.deletes, deletes),
                ("delayed", prev.delayed, delayed),
                ("capacity_items", prev.capacity_items, capacity_items),
                ("serve_ms", prev.serve_ms, serve_ms),
            ];
            for (name, old, new) in regressed {
                if new < old {
                    self.flag(
                        "cache.stats.monotonic",
                        e,
                        format!("cumulative {name} fell from {old} to {new}"),
                    );
                }
            }
        }
        self.last_stats.insert(e.pid, snap);
    }

    fn note_evict(&mut self, pid: u64, i: usize) {
        if let Some(w) = self.handlers.get_mut(&pid) {
            w.last_evict = Some(i);
        }
    }

    fn on_adjust(&mut self, e: &TraceEvent, side: ThresholdSide, old: u64, new: u64) {
        if old == new {
            self.flag(
                "threshold.step",
                e,
                format!("{side:?} adjustment recorded with no movement (stayed {old})"),
            );
        }
        if let Some(cfg) = &self.oracle.monitor {
            let step = cfg.step();
            if old.abs_diff(new) > step {
                self.flag(
                    "threshold.step",
                    e,
                    format!(
                        "{side:?} moved {old} -> {new} ({} bytes), exceeding the \
                         {:.0}%-of-top step of {step} bytes",
                        old.abs_diff(new),
                        cfg.step_fraction * 100.0
                    ),
                );
            }
        }
        self.pending_adjusts.push((side, old, new));
    }

    fn on_selection(
        &mut self,
        e: &TraceEvent,
        order: &str,
        target: u64,
        all: bool,
        candidates: &[CandidateInfo],
        selected: &[u64],
    ) {
        if self.pending_selection.is_some() {
            self.flag(
                "selection.replay",
                e,
                "two selections without an intervening monitor poll".to_string(),
            );
        }
        if all {
            let pids: Vec<u64> = candidates.iter().map(|c| c.pid).collect();
            if pids != selected {
                self.flag(
                    "selection.all",
                    e,
                    format!(
                        "signal-everyone selection picked {selected:?}, \
                         expected every candidate {pids:?}"
                    ),
                );
            }
        } else {
            match SortOrder::from_name(order) {
                Some(ord) => {
                    let cands: Vec<Candidate> =
                        candidates.iter().map(Candidate::from_info).collect();
                    let want = select_processes(&cands, ord, target);
                    if want != selected {
                        self.flag(
                            "selection.replay",
                            e,
                            format!(
                                "Algorithm 1 ({order}, target {target}) replays to \
                                 {want:?}, trace recorded {selected:?}"
                            ),
                        );
                    }
                }
                None => self.flag(
                    "selection.replay",
                    e,
                    format!("unknown sort order `{order}`"),
                ),
            }
        }
        self.pending_selection = Some(PendingSelection {
            target,
            all,
            selected: selected.to_vec(),
        });
    }

    /// `kill.class.order`: when a classed kill is recorded, the victim must
    /// be maximally expendable among the candidates still alive at that
    /// moment — a batch job must always die before a standard one, and a
    /// standard one before a latency-critical one.
    fn on_kill_class(&mut self, e: &TraceEvent, crit: Criticality, candidates: &[CandidateInfo]) {
        let Some(victim) = candidates.iter().find(|c| c.pid == e.pid) else {
            self.flag(
                "kill.class.order",
                e,
                format!(
                    "kill.class victim {} is not among its recorded candidates",
                    e.pid
                ),
            );
            return;
        };
        if victim.crit != crit {
            self.flag(
                "kill.class.order",
                e,
                format!(
                    "kill.class records the victim as {:?} but its candidate \
                     entry says {:?}",
                    crit, victim.crit
                ),
            );
        }
        if let Some(better) = candidates
            .iter()
            .find(|c| c.crit.expendability() > crit.expendability())
        {
            self.flag(
                "kill.class.order",
                e,
                format!(
                    "{crit:?} job {} killed while more-expendable {:?} candidate \
                     {} was still alive",
                    e.pid, better.crit, better.pid
                ),
            );
        }
    }

    #[allow(clippy::too_many_lines)]
    fn on_poll(&mut self, e: &TraceEvent) {
        let TraceData::MonitorPoll {
            zone,
            used,
            low,
            high,
            degraded,
            low_signalled,
            high_signalled,
            killed,
        } = &e.data
        else {
            unreachable!("on_poll called with a non-poll event");
        };
        let (zone, used, low, high, degraded) = (*zone, *used, *low, *high, *degraded);
        let ms = e.t.as_millis();

        // Degraded polls widen the enforcement margin with each consecutive
        // failed meminfo read, capped at MAX_DEGRADED_WIDENING.
        self.degraded_run = if degraded { self.degraded_run + 1 } else { 0 };
        let margin = match &self.oracle.monitor {
            Some(cfg) if degraded => {
                let step = (cfg.top as f64 * DEGRADED_MARGIN_FRACTION) as u64;
                step * self.degraded_run.min(u64::from(MAX_DEGRADED_WIDENING))
            }
            _ => 0,
        };

        // Ordering: low <= high <= top, always (§5.2).
        if low > high {
            self.flag(
                "threshold.ordering",
                e,
                format!("low threshold {low} above high threshold {high}"),
            );
        }
        if let Some(cfg) = &self.oracle.monitor {
            if high > cfg.top {
                self.flag(
                    "threshold.ordering",
                    e,
                    format!("high threshold {high} above top of memory {}", cfg.top),
                );
            }
        }

        // Adaptive-threshold replay: feed the shadow copy this poll's usage
        // and require the recorded moves and post-state to match (§5.2).
        if let Some(mut replica) = self.replica.take() {
            if degraded {
                if !self.pending_adjusts.is_empty() {
                    self.flag(
                        "threshold.replay",
                        e,
                        format!(
                            "degraded poll must not adjust thresholds, recorded {:?}",
                            self.pending_adjusts
                        ),
                    );
                }
            } else {
                let up = replica.observe(used);
                let mut want: Vec<(ThresholdSide, u64, u64)> = Vec::new();
                if let Some((old, new)) = up.low {
                    want.push((ThresholdSide::Low, old, new));
                }
                if let Some((old, new)) = up.high {
                    want.push((ThresholdSide::High, old, new));
                }
                if want != self.pending_adjusts {
                    self.flag(
                        "threshold.replay",
                        e,
                        format!(
                            "replay expected adjustments {:?}, trace recorded {:?}",
                            want, self.pending_adjusts
                        ),
                    );
                }
            }
            if replica.low() != low || replica.high() != high {
                self.flag(
                    "threshold.replay",
                    e,
                    format!(
                        "replayed thresholds ({}, {}) differ from recorded ({low}, {high})",
                        replica.low(),
                        replica.high()
                    ),
                );
                // Re-sync so one divergence does not cascade over the rest
                // of the trace.
                if let Some(cfg) = &self.oracle.monitor {
                    let mut resync = *cfg;
                    resync.initial_high = high.min(cfg.top);
                    resync.initial_low = low.min(resync.initial_high);
                    replica = AdaptiveThresholds::new(&resync);
                }
            }
            self.replica = Some(replica);
        }
        self.pending_adjusts.clear();

        // Zone replay against the recorded usage and thresholds (§5, §6).
        if let Some(cfg) = &self.oracle.monitor {
            let want = if used > cfg.top {
                TraceZone::AboveTop
            } else if used > high.saturating_sub(margin) {
                TraceZone::Red
            } else if used > low.saturating_sub(margin) {
                TraceZone::Yellow
            } else {
                TraceZone::Green
            };
            if want != zone {
                self.flag(
                    "zone.replay",
                    e,
                    format!(
                        "used {used} with thresholds ({low}, {high}), margin {margin} \
                         is {want:?}, poll recorded {zone:?}"
                    ),
                );
            }
        }

        // The early warning fires on the upward crossing of the low
        // threshold only, and never above top (§5).
        let above_low = used > low.saturating_sub(margin);
        let crossing = above_low && !self.prev_above_low && zone != TraceZone::AboveTop;
        if !crossing && !low_signalled.is_empty() {
            self.flag(
                "lowsignal.crossing",
                e,
                format!(
                    "low signals to {low_signalled:?} without an upward crossing \
                     of the low threshold"
                ),
            );
        }
        self.prev_above_low = above_low;

        // High-signal recipients are exactly the selection minus the pids
        // whose signal the watchdog suppressed (§5.1, §6).
        match self.pending_selection.take() {
            Some(sel) => {
                let want: Vec<u64> = sel
                    .selected
                    .iter()
                    .copied()
                    .filter(|p| !self.skipped.contains(p))
                    .collect();
                if !same_pids(&want, high_signalled) {
                    self.flag(
                        "signal.recipients",
                        e,
                        format!(
                            "selection {:?} minus watchdog skips {:?} expects \
                             recipients {want:?}, poll recorded {high_signalled:?}",
                            sel.selected, self.skipped
                        ),
                    );
                }
                if let Some(cfg) = &self.oracle.monitor {
                    let want_target = match zone {
                        TraceZone::Red => used - high.saturating_sub(margin),
                        TraceZone::AboveTop => used.saturating_sub(cfg.top),
                        _ => {
                            self.flag(
                                "selection.zone",
                                e,
                                format!("selection ran in the {zone:?} zone"),
                            );
                            sel.target
                        }
                    };
                    if want_target != sel.target {
                        self.flag(
                            "selection.target",
                            e,
                            format!(
                                "selection target {} does not match the {zone:?}-zone \
                                 formula value {want_target}",
                                sel.target
                            ),
                        );
                    }
                    if zone == TraceZone::AboveTop && !sel.all {
                        self.flag(
                            "selection.all",
                            e,
                            "above-top selection must signal everyone".to_string(),
                        );
                    }
                }
            }
            None => {
                if !high_signalled.is_empty() {
                    self.flag(
                        "signal.recipients",
                        e,
                        format!("high signals to {high_signalled:?} without a selection"),
                    );
                }
            }
        }
        self.skipped.clear();

        // Every signalled pid must have a matching signal-bus event (sent,
        // dropped or delayed — the monitor cannot know the bus outcome).
        for (signalled, window, which) in [
            (low_signalled, &mut self.window_low, "low"),
            (high_signalled, &mut self.window_high, "high"),
        ] {
            let mut available = std::mem::take(window);
            let mut missing = Vec::new();
            for pid in signalled {
                match available.iter().position(|p| p == pid) {
                    Some(i) => {
                        available.swap_remove(i);
                    }
                    None => missing.push(*pid),
                }
            }
            if !missing.is_empty() {
                self.out.push(Violation {
                    invariant: "signal.delivery".to_string(),
                    at_ms: ms,
                    pid: e.pid,
                    message: format!(
                        "poll reports {which} signals to {missing:?} but the signal \
                         bus has no matching events"
                    ),
                });
            }
        }

        // Kills: victims match the monitor.kill events, happen only above
        // top, and only after the kill-timeout grace period (§6).
        if !same_pids(killed, &self.window_kills) {
            self.flag(
                "kill.victims",
                e,
                format!(
                    "poll reports kills {killed:?} but monitor.kill events \
                     name {:?}",
                    self.window_kills
                ),
            );
        }
        self.window_kills.clear();
        if zone == TraceZone::AboveTop {
            let since = *self.above_top_since.get_or_insert(ms);
            if !killed.is_empty() {
                if self.oracle.monitor.is_some() {
                    let grace = KILL_TIMEOUT.as_millis();
                    if ms.saturating_sub(since) < grace {
                        self.flag(
                            "kill.grace",
                            e,
                            format!(
                                "killed {killed:?} only {} ms above top, before the \
                                 {grace} ms grace period",
                                ms.saturating_sub(since)
                            ),
                        );
                    }
                }
                self.above_top_since = None;
            }
        } else {
            self.above_top_since = None;
            if !killed.is_empty() {
                self.flag(
                    "kill.grace",
                    e,
                    format!("killed {killed:?} in the {zone:?} zone"),
                );
            }
        }
    }

    /// Recorded allow rate must equal the §4.2 formula applied to the
    /// recorded inputs.
    fn check_rate(
        &mut self,
        e: &TraceEvent,
        rate: f64,
        elapsed_ms: u64,
        epoch_ms: u64,
        num_epochs: u32,
        curve: &str,
    ) {
        let Some(c) = curve_from_name(curve) else {
            self.flag("alloc.rate", e, format!("unknown rate curve `{curve}`"));
            return;
        };
        let denom = (epoch_ms * u64::from(num_epochs)).max(1) as f64;
        let want = c.rate(elapsed_ms as f64 / denom);
        if (want - rate).abs() > 1e-9 {
            self.flag(
                "alloc.rate",
                e,
                format!(
                    "recorded rate {rate} but {curve}({elapsed_ms} / ({epoch_ms} x \
                     {num_epochs})) = {want}"
                ),
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_gate(
        &mut self,
        e: &TraceEvent,
        delayed: bool,
        rate: f64,
        elapsed_ms: u64,
        epoch_ms: u64,
        num_epochs: u32,
        curve: &str,
    ) {
        self.check_rate(e, rate, elapsed_ms, epoch_ms, num_epochs, curve);
        if rate >= 1.0 {
            self.flag(
                "alloc.stride",
                e,
                "gate event recorded at full allow rate (the gate is a no-op)".to_string(),
            );
            return;
        }
        let st = self.alloc.entry(e.pid).or_default();
        st.counter += 1;
        let want = if rate <= 0.0 {
            true
        } else {
            let stride = (1.0 / rate).floor().max(1.0) as u64;
            !st.counter.is_multiple_of(stride)
        };
        if want != delayed {
            self.flag(
                "alloc.stride",
                e,
                format!(
                    "at rate {rate} the \u{230a}1/r\u{230b} gate expects delayed={want}, \
                     trace recorded delayed={delayed}"
                ),
            );
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_batch(
        &mut self,
        e: &TraceEvent,
        n: u64,
        delayed: u64,
        rate: f64,
        elapsed_ms: u64,
        epoch_ms: u64,
        num_epochs: u32,
        curve: &str,
    ) {
        self.check_rate(e, rate, elapsed_ms, epoch_ms, num_epochs, curve);
        if rate >= 1.0 || n == 0 {
            self.flag(
                "alloc.carry",
                e,
                "batch event recorded at full allow rate (the gate is a no-op)".to_string(),
            );
            return;
        }
        let st = self.alloc.entry(e.pid).or_default();
        let exact = n as f64 * (1.0 - rate) + st.carry;
        let want = (exact.floor() as u64).min(n);
        st.carry = exact - want as f64;
        if want != delayed {
            self.flag(
                "alloc.carry",
                e,
                format!(
                    "batch of {n} at rate {rate} expects {want} delayed, \
                     trace recorded {delayed}"
                ),
            );
        }
    }

    /// `reclaim.packet.order`: a packet id may be enqueued only once per
    /// drain. Handler windows and process restarts reset the id space; so
    /// does a re-used id once every packet of the previous drain finished
    /// (back-to-back drains outside a handler window, e.g. direct signal
    /// delivery in unit harnesses).
    fn on_packet_enqueue(
        &mut self,
        e: &TraceEvent,
        packet: u64,
        pkind: &str,
        bucket: m3_sim::trace::PacketBucket,
        deps: &[u64],
    ) {
        let drain = self.packets.entry(e.pid).or_default();
        if drain.contains_key(&packet) {
            if drain.values().all(|p| p.finished) {
                drain.clear();
            } else {
                let msg = format!("packet {packet} enqueued twice in one drain");
                self.flag("reclaim.packet.order", e, msg);
                return;
            }
        }
        drain.insert(
            packet,
            PacketState {
                pkind: pkind.to_string(),
                bucket,
                deps: deps.to_vec(),
                enq_at_ms: e.t.as_millis(),
                started: false,
                finished: false,
            },
        );
    }

    /// A packet start must come after its enqueue and only once
    /// (`reclaim.packet.order`), after every dependency finished
    /// (`reclaim.packet.deps`), and only once its bucket is open — no
    /// packet of a strictly earlier bucket may still be unfinished
    /// (`reclaim.packet.bucket`).
    fn on_packet_start(
        &mut self,
        e: &TraceEvent,
        packet: u64,
        bucket: m3_sim::trace::PacketBucket,
    ) {
        let drain = self.packets.entry(e.pid).or_default();
        let Some(st) = drain.get(&packet) else {
            let msg = format!("packet {packet} started without an enqueue");
            self.flag("reclaim.packet.order", e, msg);
            return;
        };
        let mut flags: Vec<(&str, String)> = Vec::new();
        if st.started {
            flags.push((
                "reclaim.packet.order",
                format!("packet {packet} started twice"),
            ));
        }
        if st.bucket != bucket {
            flags.push((
                "reclaim.packet.order",
                format!(
                    "packet {packet} started in bucket {bucket:?} but was \
                     enqueued into {:?}",
                    st.bucket
                ),
            ));
        }
        for &d in &st.deps {
            if !drain.get(&d).is_some_and(|dep| dep.finished) {
                flags.push((
                    "reclaim.packet.deps",
                    format!("packet {packet} started before its dependency {d} finished"),
                ));
            }
        }
        let enq_bucket = st.bucket;
        if let Some((id, earlier)) = drain
            .iter()
            .find(|(_, p)| p.bucket < enq_bucket && !p.finished)
        {
            flags.push((
                "reclaim.packet.bucket",
                format!(
                    "packet {packet} ({enq_bucket:?}) started while packet {id} \
                     of earlier bucket {:?} was unfinished",
                    earlier.bucket
                ),
            ));
        }
        drain.get_mut(&packet).expect("checked above").started = true;
        for (invariant, msg) in flags {
            self.flag(invariant, e, msg);
        }
    }

    /// A finish must close a started, not-yet-finished packet
    /// (`reclaim.packet.order`); its bytes feed the window's conservation
    /// totals by packet-kind class.
    fn on_packet_finish(
        &mut self,
        e: &TraceEvent,
        packet: u64,
        bucket: m3_sim::trace::PacketBucket,
        bytes: u64,
        returned: u64,
    ) {
        let drain = self.packets.entry(e.pid).or_default();
        let pkind = match drain.get_mut(&packet) {
            None => {
                let msg = format!("packet {packet} finished without an enqueue");
                self.flag("reclaim.packet.order", e, msg);
                return;
            }
            Some(st) => {
                let mut flags: Vec<String> = Vec::new();
                if !st.started {
                    flags.push(format!("packet {packet} finished before it started"));
                }
                if st.finished {
                    flags.push(format!("packet {packet} finished twice"));
                }
                if st.bucket != bucket {
                    flags.push(format!(
                        "packet {packet} finished in bucket {bucket:?} but was \
                         enqueued into {:?}",
                        st.bucket
                    ));
                }
                st.finished = true;
                let pkind = st.pkind.clone();
                for msg in flags {
                    self.flag("reclaim.packet.order", e, msg);
                }
                pkind
            }
        };
        if let Some(w) = self.handlers.get_mut(&e.pid) {
            w.saw_packets = true;
            match pkind.as_str() {
                "evict_blocks" => w.pkt_blocks += bytes,
                "evict_class" => w.pkt_class += bytes,
                "evict_slabs" => w.pkt_slabs += bytes,
                k if k.starts_with("gc") => w.pkt_gc += bytes,
                _ => {}
            }
            w.pkt_returned += returned;
        }
    }

    /// A stall must name an enqueued, still-unfinished dependency — a stall
    /// on a finished (or unknown) packet means the scheduler's ready logic
    /// diverged (`reclaim.packet.deps`).
    fn on_packet_stall(&mut self, e: &TraceEvent, packet: u64, waiting_on: u64) {
        let drain = self.packets.entry(e.pid).or_default();
        let unknown = !drain.contains_key(&packet);
        let bad_dep = drain.get(&waiting_on).is_none_or(|dep| dep.finished);
        if unknown {
            let msg = format!("packet {packet} stalled without an enqueue");
            self.flag("reclaim.packet.order", e, msg);
        }
        if bad_dep {
            let msg = format!(
                "packet {packet} recorded a stall on packet {waiting_on}, which \
                 is not an unfinished enqueued packet"
            );
            self.flag("reclaim.packet.deps", e, msg);
        }
    }

    /// Top-down reclamation (§4.1): within one handler window the layers
    /// act top to bottom — framework/cache eviction, then runtime GC, then
    /// memory returned to the OS. For packetized handlers, the per-packet
    /// bytes must also conserve against the window's aggregate events, and
    /// no enqueued packet may be left unfinished.
    fn on_handler_end(&mut self, e: &TraceEvent) {
        let Some(w) = self.handlers.remove(&e.pid) else {
            return;
        };
        if let (Some(ev), Some(gc)) = (w.last_evict, w.first_gc) {
            if ev > gc {
                self.flag(
                    "topdown.order",
                    e,
                    "eviction ran after the runtime GC inside one handler".to_string(),
                );
            }
        }
        if let (Some(gc), Some(m)) = (w.first_gc, w.first_madvise) {
            if gc > m {
                self.flag(
                    "topdown.order",
                    e,
                    "memory returned to the OS before the runtime GC ran".to_string(),
                );
            }
        }
        if let (Some(ev), Some(m)) = (w.last_evict, w.first_madvise) {
            if ev > m {
                self.flag(
                    "topdown.order",
                    e,
                    "memory returned to the OS before the eviction above it".to_string(),
                );
            }
        }
        if w.saw_packets {
            let pairs = [
                ("evict_blocks", "evict.blocks", w.pkt_blocks, w.agg_blocks),
                ("evict_class", "evict.class", w.pkt_class, w.agg_class),
                ("evict_slabs", "evict.slabs", w.pkt_slabs, w.agg_slabs),
                ("gc_*", "gc.*", w.pkt_gc, w.agg_gc),
                ("* returned", "mem.madvise", w.pkt_returned, w.agg_madvise),
            ];
            for (pkt_name, agg_name, pkt, agg) in pairs {
                if pkt != agg {
                    self.flag(
                        "reclaim.packet.conservation",
                        e,
                        format!(
                            "{pkt_name} packets finished {pkt} bytes inside the \
                             handler but its {agg_name} events record {agg}"
                        ),
                    );
                }
            }
        }
        if let Some(drain) = self.packets.remove(&e.pid) {
            for (id, st) in drain {
                if !st.finished {
                    self.out.push(Violation {
                        invariant: "reclaim.packet.orphan".to_string(),
                        at_ms: st.enq_at_ms,
                        pid: e.pid,
                        message: format!(
                            "packet {id} ({}) was enqueued but never finished \
                             before its handler ended",
                            st.pkind
                        ),
                    });
                }
            }
        }
    }
}

/// A node run's online check: the kernel hands the checker each event
/// before its log packs it, so the run needs no replay.
impl TraceObserver for Checker {
    fn observe(&mut self, e: &TraceEvent) {
        Checker::observe(self, e);
    }

    fn clone_box(&self) -> Box<dyn TraceObserver> {
        Box::new(self.clone())
    }
}

/// Whether two pid lists are equal. Both are empty at nearly every poll,
/// and the length guard skips slice equality's `memcmp` call, which some
/// libc builds make cost over 100 ns on two empty, dangling lists.
fn same_pids(a: &[u64], b: &[u64]) -> bool {
    (a.is_empty() && b.is_empty()) || a == b
}

/// `ceil(before × fraction)`, clamped to the population.
fn expected_fraction(before: u64, fraction: f64) -> u64 {
    ((before as f64 * fraction).ceil() as u64).min(before)
}

fn curve_from_name(name: &str) -> Option<RateCurve> {
    match name {
        "linear" => Some(RateCurve::Linear),
        "exponential" => Some(RateCurve::Exponential),
        "step" => Some(RateCurve::Step),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_core::alloc::AdaptiveAllocator;
    use m3_core::monitor::{Monitor, MONITOR_PID};
    use m3_os::{Kernel, KernelConfig};
    use m3_sim::clock::SimTime;
    use m3_sim::trace::GcLayer;
    use m3_sim::units::GIB;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn paper() -> MonitorConfig {
        MonitorConfig::paper_64gb()
    }

    /// Drives a real monitor over a real kernel and returns the trace.
    fn monitored_run(usages: &[u64]) -> (TraceLog, MonitorConfig) {
        let cfg = paper();
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let mut mon = Monitor::new(cfg);
        os.set_time(t(0));
        let a = os.spawn("a");
        let b = os.spawn("b");
        mon.register(a);
        mon.register(b);
        let mut held = 0u64;
        for (i, &used) in usages.iter().enumerate() {
            let now = t(1 + i as u64);
            os.set_time(now);
            if os.is_alive(a) {
                if used > held {
                    os.grow(a, used - held).unwrap();
                } else if held > used {
                    os.release(a, held - used).unwrap();
                }
                held = used;
            }
            mon.poll(&mut os, now);
            os.take_signals(a);
            os.take_signals(b);
        }
        (std::mem::take(&mut os.trace), cfg)
    }

    #[test]
    fn clean_monitor_run_has_no_violations() {
        // Green, yellow crossings, sustained red (threshold adjustments once
        // the window fills), and relief back to green.
        let mut usages = vec![10 * GIB, 52 * GIB, 30 * GIB, 53 * GIB];
        usages.extend(vec![58 * GIB; 40]);
        usages.extend([20 * GIB, 52 * GIB]);
        let (trace, cfg) = monitored_run(&usages);
        assert!(trace.count("monitor.poll") == usages.len());
        assert!(
            trace.count("threshold.adjust") > 0,
            "sustained red must adjust thresholds"
        );
        let violations = Oracle::paper(Some(cfg)).check(&trace);
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn above_top_kill_run_is_conformant() {
        let mut usages = vec![63 * GIB; 31];
        usages.push(10 * GIB);
        let (trace, cfg) = monitored_run(&usages);
        assert!(trace.count("monitor.kill") > 0, "kill path must trigger");
        let violations = Oracle::paper(Some(cfg)).check(&trace);
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn empty_trace_is_conformant() {
        assert!(Oracle::paper(Some(paper()))
            .check(&TraceLog::new())
            .is_empty());
        assert!(Oracle::paper(None).check(&TraceLog::disabled()).is_empty());
    }

    #[test]
    fn oversized_threshold_move_is_flagged() {
        let cfg = paper();
        let mut log = TraceLog::new();
        // A 5%-of-top move: more than double the allowed 2% step.
        let step5 = (cfg.top as f64 * 0.05) as u64;
        log.record(
            t(1),
            MONITOR_PID,
            TraceData::ThresholdAdjust {
                side: ThresholdSide::Low,
                old: cfg.initial_low,
                new: cfg.initial_low - step5,
            },
        );
        let violations = Oracle::paper(Some(cfg)).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "threshold.step"),
            "got {violations:?}"
        );
    }

    #[test]
    fn tampered_selection_is_flagged() {
        let (trace, cfg) = monitored_run(&[58 * GIB; 4]);
        // Rewrite one selection's outcome to a wrong pid set.
        let mut log = TraceLog::new();
        for e in trace.events() {
            let data = match &e.data {
                TraceData::Selection {
                    order,
                    target,
                    all,
                    candidates,
                    ..
                } => TraceData::Selection {
                    order: order.clone(),
                    target: *target,
                    all: *all,
                    candidates: candidates.clone(),
                    selected: vec![999],
                },
                d => d.clone(),
            };
            log.record(e.t, e.pid, data);
        }
        let violations = Oracle::paper(Some(cfg)).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "selection.replay"),
            "got {violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "signal.recipients"),
            "recipients no longer match the (tampered) selection"
        );
    }

    #[test]
    fn high_signal_without_selection_is_flagged() {
        let cfg = paper();
        let mut log = TraceLog::new();
        log.record(t(1), 3, TraceData::SignalSent { sig: SigKind::High });
        log.record(
            t(1),
            MONITOR_PID,
            TraceData::MonitorPoll {
                zone: TraceZone::Red,
                used: 56 * GIB,
                low: cfg.initial_low,
                high: cfg.initial_high,
                degraded: false,
                low_signalled: vec![],
                high_signalled: vec![3],
                killed: vec![],
            },
        );
        let violations = Oracle::paper(Some(cfg)).check(&log);
        assert!(violations
            .iter()
            .any(|v| v.invariant == "signal.recipients"));
    }

    #[test]
    fn kill_before_grace_period_is_flagged() {
        let cfg = paper();
        let mut log = TraceLog::new();
        log.record(t(1), 7, TraceData::MonitorKill { rss: GIB });
        log.record(
            t(1),
            MONITOR_PID,
            TraceData::MonitorPoll {
                zone: TraceZone::AboveTop,
                used: 63 * GIB,
                low: cfg.initial_low,
                high: cfg.initial_high,
                degraded: false,
                low_signalled: vec![],
                high_signalled: vec![],
                killed: vec![7],
            },
        );
        let violations = Oracle::paper(Some(cfg)).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "kill.grace"),
            "first above-top poll cannot kill yet: {violations:?}"
        );
    }

    #[test]
    fn kill_victims_must_match_the_kill_events() {
        // A poll reporting a kill that no `monitor.kill` event names, and
        // a `monitor.kill` event that its poll does not report.
        let cfg = paper();
        let poll = |killed: Vec<u64>| TraceData::MonitorPoll {
            zone: TraceZone::AboveTop,
            used: 63 * GIB,
            low: cfg.initial_low,
            high: cfg.initial_high,
            degraded: false,
            low_signalled: vec![],
            high_signalled: vec![],
            killed,
        };
        let mut unannounced = TraceLog::new();
        unannounced.record(t(1), MONITOR_PID, poll(vec![7]));
        let mut unreported = TraceLog::new();
        unreported.record(t(1), 7, TraceData::MonitorKill { rss: GIB });
        unreported.record(t(1), MONITOR_PID, poll(vec![]));
        for log in [unannounced, unreported] {
            let violations = Oracle::paper(Some(cfg)).check(&log);
            assert!(
                violations.iter().any(|v| v.invariant == "kill.victims"),
                "got {violations:?}"
            );
        }
    }

    /// Drives a real monitor over two hogs registered in `classes`: the
    /// batch hog spawned first, the critical hog five seconds later. Their
    /// combined usage sits above top until the grace period expires and
    /// the monitor kills down to top. Returns the trace, the config and
    /// the batch hog's pid.
    fn classed_kill_run(classes: [Criticality; 2]) -> (TraceLog, MonitorConfig, u64) {
        let cfg = paper();
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let mut mon = Monitor::new(cfg);
        os.set_time(t(0));
        let batch = os.spawn("batch");
        mon.register_with_class(batch, classes[0]);
        os.grow(batch, 31 * GIB).unwrap();
        os.set_time(t(5));
        let critical = os.spawn("critical");
        mon.register_with_class(critical, classes[1]);
        os.grow(critical, 32 * GIB).unwrap();
        for s in 6..45 {
            let now = t(s);
            os.set_time(now);
            mon.poll(&mut os, now);
            os.take_signals(batch);
            os.take_signals(critical);
        }
        (std::mem::take(&mut os.trace), cfg, batch)
    }

    #[test]
    fn classed_kill_run_is_conformant_and_spares_the_critical_job() {
        let (trace, cfg, _) = classed_kill_run([Criticality::Batch, Criticality::LatencyCritical]);
        assert!(trace.count("kill.class") > 0, "kill path must trigger");
        let violations = Oracle::paper(Some(cfg)).check(&trace);
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn criticality_blind_policy_is_caught_by_the_oracle() {
        // A criticality-blind policy sorts by posture alone. Within one
        // class Algorithm 1 does exactly that, so a real run with both hogs
        // registered as Standard, relabelled into their classes afterwards,
        // is the log such a policy writes: newest-first kills the
        // latency-critical job while the batch job is still alive. The
        // flagship invariant must catch exactly this.
        let (standard, cfg, batch) = classed_kill_run([Criticality::Standard; 2]);
        let class = |pid: u64| {
            if pid == batch {
                Criticality::Batch
            } else {
                Criticality::LatencyCritical
            }
        };
        let mut trace = TraceLog::new();
        for e in standard.events() {
            let mut data = e.data.clone();
            match &mut data {
                TraceData::Selection { candidates, .. } => {
                    candidates.iter_mut().for_each(|c| c.crit = class(c.pid));
                }
                TraceData::KillClass { crit, candidates } => {
                    *crit = class(e.pid);
                    candidates.iter_mut().for_each(|c| c.crit = class(c.pid));
                }
                _ => {}
            }
            trace.record(e.t, e.pid, data);
        }
        assert!(trace.count("kill.class") > 0, "kill path must trigger");
        let violations = Oracle::paper(Some(cfg)).check(&trace);
        assert!(
            violations.iter().any(|v| v.invariant == "kill.class.order"),
            "posture-only kill under mixed criticality must be flagged: {violations:?}"
        );
    }

    #[test]
    fn kill_class_victim_missing_from_candidates_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            7,
            TraceData::KillClass {
                crit: Criticality::Batch,
                candidates: vec![CandidateInfo {
                    pid: 8,
                    spawned_at_ms: 0,
                    rss: GIB,
                    expected_reclaim: 0,
                    crit: Criticality::Batch,
                }],
            },
        );
        let violations = Oracle::paper(Some(paper())).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "kill.class.order"),
            "got {violations:?}"
        );
    }

    #[test]
    fn kill_class_crit_mismatch_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            7,
            TraceData::KillClass {
                crit: Criticality::Batch,
                candidates: vec![CandidateInfo {
                    pid: 7,
                    spawned_at_ms: 0,
                    rss: GIB,
                    expected_reclaim: 0,
                    crit: Criticality::Standard,
                }],
            },
        );
        let violations = Oracle::paper(Some(paper())).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "kill.class.order"),
            "got {violations:?}"
        );
    }

    #[test]
    fn alloc_gate_replay_accepts_the_real_allocator() {
        let mut a = AdaptiveAllocator::new(1);
        a.on_high_signal(SimTime::from_millis(0));
        a.on_reclaim_done(SimTime::from_millis(10_000));
        let mut os = Kernel::new(KernelConfig::with_total(GIB));
        let now = SimTime::from_millis(1500); // rate 15%
        os.set_time(now);
        for _ in 0..50 {
            a.admit(&mut os, 4, now);
        }
        assert_eq!(os.trace.count("alloc."), 50);
        assert!(Oracle::paper(None).check(&os.trace).is_empty());
    }

    #[test]
    fn wrong_stride_decision_is_flagged() {
        let mut log = TraceLog::new();
        // rate 0.5 -> stride 2: first call (counter 1) must be delayed.
        log.record(
            SimTime::from_millis(500),
            4,
            TraceData::AllocGate {
                delayed: false,
                rate: 0.5,
                elapsed_ms: 500,
                epoch_ms: 1000,
                num_epochs: 1,
                curve: "linear".to_string(),
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(violations.iter().any(|v| v.invariant == "alloc.stride"));
    }

    #[test]
    fn misreported_rate_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            SimTime::from_millis(500),
            4,
            TraceData::AllocGate {
                delayed: true,
                rate: 0.9, // linear(500/1000) = 0.5
                elapsed_ms: 500,
                epoch_ms: 1000,
                num_epochs: 1,
                curve: "linear".to_string(),
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(violations.iter().any(|v| v.invariant == "alloc.rate"));
    }

    #[test]
    fn batch_carry_replay_accepts_the_real_allocator() {
        let mut a = AdaptiveAllocator::new(5);
        a.on_high_signal(SimTime::from_millis(0));
        a.on_reclaim_done(SimTime::from_millis(700));
        let mut os = Kernel::new(KernelConfig::with_total(GIB));
        for i in 0..40u64 {
            let now = SimTime::from_millis(800 + i * 13);
            os.set_time(now);
            a.admit_batch(&mut os, 9, 7, now);
        }
        assert!(os.trace.count("alloc.batch") > 0);
        assert!(Oracle::paper(None).check(&os.trace).is_empty());
    }

    #[test]
    fn wrong_batch_split_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            SimTime::from_millis(250),
            9,
            TraceData::AllocBatch {
                n: 100,
                delayed: 10, // linear rate 0.25 -> 75 delayed
                rate: 0.25,
                elapsed_ms: 250,
                epoch_ms: 1000,
                num_epochs: 1,
                curve: "linear".to_string(),
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(violations.iter().any(|v| v.invariant == "alloc.carry"));
    }

    #[test]
    fn table1_magnitudes_are_enforced() {
        let mut log = TraceLog::new();
        // 1/8 of 64 blocks = 8: recording 3 is a violation.
        log.record(
            t(1),
            2,
            TraceData::EvictBlocks {
                before: 64,
                evicted: 3,
                bytes: 0,
                reason: EvictReason::HighSignal,
            },
        );
        // 1% of 300 slabs rounds up to 3: recording 30 is a violation.
        log.record(
            t(2),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 30,
                items: 0,
                bytes: 0,
                reason: EvictReason::LowSignal,
            },
        );
        // Capacity evictions are policy-free: any magnitude is fine.
        log.record(
            t(3),
            2,
            TraceData::EvictBlocks {
                before: 64,
                evicted: 64,
                bytes: 0,
                reason: EvictReason::Capacity,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert_eq!(
            violations
                .iter()
                .filter(|v| v.invariant.starts_with("evict."))
                .count(),
            2,
            "got {violations:?}"
        );
    }

    #[test]
    fn correct_table1_magnitudes_pass() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            2,
            TraceData::EvictBlocks {
                before: 60,
                evicted: 8, // ceil(60/8)
                bytes: 0,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(
            t(2),
            3,
            TraceData::EvictSlabs {
                before: 10,
                evicted: 1, // ceil(0.04 * 10), min one slab
                items: 0,
                bytes: 0,
                reason: EvictReason::HighSignal,
            },
        );
        assert!(Oracle::paper(None).check(&log).is_empty());
    }

    /// `evict.class` detail for one signal eviction: classes summing to
    /// (3 slabs, 15 items, 3 MiB) before a 300-slab low-signal aggregate.
    fn class_group(log: &mut TraceLog, reason: EvictReason) {
        for (chunk, before, evicted, items, bytes) in [
            (128, 200, 2, 10, 2 * 1024 * 1024),
            (1024, 100, 1, 5, 1024 * 1024),
        ] {
            log.record(
                t(4),
                3,
                TraceData::EvictClass {
                    chunk,
                    before,
                    evicted,
                    items,
                    bytes,
                    reason,
                },
            );
        }
    }

    #[test]
    fn class_detail_conserving_to_its_aggregate_passes() {
        let mut log = TraceLog::new();
        class_group(&mut log, EvictReason::LowSignal);
        log.record(
            t(4),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 3, // ceil(0.01 * 300)
                items: 15,
                bytes: 3 * 1024 * 1024,
                reason: EvictReason::LowSignal,
            },
        );
        assert_eq!(Oracle::paper(None).check(&log), Vec::new());
    }

    #[test]
    fn class_detail_that_does_not_sum_is_flagged() {
        let mut log = TraceLog::new();
        class_group(&mut log, EvictReason::LowSignal);
        log.record(
            t(4),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 3,
                items: 99, // group sums to 15
                bytes: 3 * 1024 * 1024,
                reason: EvictReason::LowSignal,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "evict.class.conservation"),
            "got {violations:?}"
        );
    }

    #[test]
    fn class_reason_mismatch_is_flagged() {
        let mut log = TraceLog::new();
        class_group(&mut log, EvictReason::HighSignal);
        log.record(
            t(4),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 3,
                items: 15,
                bytes: 3 * 1024 * 1024,
                reason: EvictReason::LowSignal,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "evict.class.conservation"),
            "got {violations:?}"
        );
    }

    #[test]
    fn class_overdraw_is_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(4),
            3,
            TraceData::EvictClass {
                chunk: 128,
                before: 2,
                evicted: 5, // more than the class held
                items: 10,
                bytes: 5 * 1024 * 1024,
                reason: EvictReason::HighSignal,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "evict.class.bound"),
            "got {violations:?}"
        );
    }

    #[test]
    fn orphaned_class_detail_is_flagged() {
        let mut log = TraceLog::new();
        class_group(&mut log, EvictReason::LowSignal);
        // No aggregate follows: both class events are orphans.
        let violations = Oracle::paper(None).check(&log);
        assert_eq!(
            violations
                .iter()
                .filter(|v| v.invariant == "evict.class.orphan")
                .count(),
            2,
            "got {violations:?}"
        );
    }

    #[test]
    fn analytic_aggregate_without_class_detail_passes() {
        // Statistical runs record no class granularity; the aggregate alone
        // is conformant.
        let mut log = TraceLog::new();
        log.record(
            t(4),
            3,
            TraceData::EvictSlabs {
                before: 300,
                evicted: 3,
                items: 700,
                bytes: 3 * 1024 * 1024,
                reason: EvictReason::LowSignal,
            },
        );
        assert_eq!(Oracle::paper(None).check(&log), Vec::new());
    }

    fn stats(requests: u64, hits: u64, serve_ms: u64) -> TraceData {
        TraceData::CacheStats {
            requests,
            hits,
            misses: requests - hits,
            negative: 0,
            sets: 0,
            deletes: 0,
            delayed: 0,
            capacity_items: 0,
            resident_bytes: GIB,
            live_items: 1000,
            serve_ms,
        }
    }

    #[test]
    fn cache_stats_that_do_not_conserve_are_flagged() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            3,
            TraceData::CacheStats {
                requests: 100,
                hits: 40,
                misses: 30,   // 40 + 30 + 10 + 10 = 90 != 100
                negative: 50, // and negative > misses
                sets: 10,
                deletes: 10,
                delayed: 0,
                capacity_items: 0,
                resident_bytes: 0,
                live_items: 0,
                serve_ms: 10,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert_eq!(
            violations
                .iter()
                .filter(|v| v.invariant == "cache.stats.conservation")
                .count(),
            2,
            "got {violations:?}"
        );
    }

    #[test]
    fn cache_stats_regression_is_flagged() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, stats(1000, 800, 100));
        log.record(t(2), 3, stats(500, 400, 200)); // cumulative counters fell
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "cache.stats.monotonic"),
            "got {violations:?}"
        );
    }

    #[test]
    fn monotone_cache_stats_pass() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, stats(1000, 800, 100));
        log.record(t(2), 3, stats(2000, 1500, 200));
        log.record(t(3), 3, stats(2000, 1500, 200)); // idle snapshot repeats
        assert_eq!(Oracle::paper(None).check(&log), Vec::new());
    }

    /// End to end: a real key-granular trace run — preload, Zipf serve,
    /// a low and a high signal mid-run — replays with zero violations,
    /// including the class-granular Table 1 checks and the batched
    /// allocation-gate carry.
    #[test]
    fn keyed_cache_run_is_conformant() {
        use m3_cache::{KvApp, TraceWorkload, TrafficPattern};
        use m3_core::{M3Participant, ThresholdSignal};
        use m3_sim::clock::SimDuration;

        let twl = TraceWorkload {
            key_space: 20_000,
            total_ops: 120_000,
            phase_ops: 30_000,
            ..TraceWorkload::smoke(TrafficPattern::HotKeyShift)
        };
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("memcached-trace");
        let mut app = KvApp::trace_memcached(pid, twl, 0, true);
        let tick = SimDuration::from_millis(100);
        let mut now = t(0);
        let mut ticks = 0u64;
        while !app.finished() {
            app.tick(&mut os, now, tick);
            now += tick;
            ticks += 1;
            if ticks == 10 {
                app.handle_signal(ThresholdSignal::Low, &mut os, now);
            }
            if ticks == 25 {
                app.handle_signal(ThresholdSignal::High, &mut os, now);
            }
            assert!(ticks < 1_000_000, "run must terminate");
        }
        let trace = std::mem::take(&mut os.trace);
        assert!(trace.count("evict.class") > 0, "class detail recorded");
        assert!(trace.count("cache.stats") > 0, "stats snapshots recorded");
        assert!(trace.count("alloc.batch") > 0, "gate events recorded");
        assert_eq!(Oracle::paper(None).check(&trace), Vec::new());
    }

    #[test]
    fn bottom_up_reclamation_is_flagged() {
        let mut log = TraceLog::new();
        log.record(t(1), 5, TraceData::HandlerStart { sig: SigKind::High });
        log.record(
            t(1),
            5,
            TraceData::Gc {
                layer: GcLayer::Mixed,
                reclaimed: GIB,
                returned: GIB,
                pause_ms: 80,
            },
        );
        log.record(t(1), 5, TraceData::Madvise { bytes: GIB });
        log.record(
            t(1),
            5,
            TraceData::EvictBlocks {
                before: 8,
                evicted: 1,
                bytes: GIB,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(
            t(2),
            5,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 1000,
                returned: GIB,
            },
        );
        let violations = Oracle::paper(None).check(&log);
        assert!(
            violations.iter().any(|v| v.invariant == "topdown.order"),
            "got {violations:?}"
        );
    }

    #[test]
    fn top_down_window_passes() {
        let mut log = TraceLog::new();
        log.record(t(1), 5, TraceData::HandlerStart { sig: SigKind::High });
        log.record(
            t(1),
            5,
            TraceData::EvictBlocks {
                before: 8,
                evicted: 1,
                bytes: GIB,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(
            t(1),
            5,
            TraceData::Gc {
                layer: GcLayer::Young,
                reclaimed: GIB,
                returned: GIB,
                pause_ms: 10,
            },
        );
        log.record(t(1), 5, TraceData::Madvise { bytes: GIB });
        log.record(
            t(2),
            5,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 1000,
                returned: GIB,
            },
        );
        assert!(Oracle::paper(None).check(&log).is_empty());
    }

    #[test]
    fn respawn_resets_the_gate_replay() {
        let mut log = TraceLog::new();
        let gate = |delayed| TraceData::AllocGate {
            delayed,
            rate: 0.5,
            elapsed_ms: 500,
            epoch_ms: 1000,
            num_epochs: 1,
            curve: "linear".to_string(),
        };
        // counter 1 -> delayed, counter 2 -> admitted.
        log.record(SimTime::from_millis(500), 4, gate(true));
        log.record(SimTime::from_millis(500), 4, gate(false));
        // The process respawns: its allocator starts over, so the next
        // decision is counter 1 -> delayed again.
        log.record(
            SimTime::from_millis(501),
            4,
            TraceData::ProcRespawn { name: "a".into() },
        );
        log.record(SimTime::from_millis(502), 4, gate(true));
        assert!(Oracle::paper(None).check(&log).is_empty());
    }

    #[test]
    fn violations_serialize_round_trip() {
        let v = Violation {
            invariant: "alloc.stride".to_string(),
            at_ms: 1500,
            pid: 4,
            message: "x".to_string(),
        };
        let c = v.serialize();
        let back = Violation::deserialize(&c).expect("round trip");
        assert_eq!(v, back);
    }

    // ---- FleetOracle --------------------------------------------------

    const GRACE_MS: u64 = 10_000;
    /// A defer interval no test defer below reaches, except the one that
    /// checks it.
    const DEFER_INTERVAL_MS: u64 = 120_000;

    fn fleet_oracle() -> FleetOracle {
        FleetOracle::new(GRACE_MS, DEFER_INTERVAL_MS)
    }

    fn pressure(node: u64, zone: TraceZone) -> TraceData {
        TraceData::FleetPressure {
            node,
            zone,
            used: 0,
            reserved: 0,
            high: 0,
            top: 0,
            escalations: 0,
        }
    }

    fn place(job: u64, node: u64) -> TraceData {
        TraceData::FleetPlace {
            job,
            node,
            used: 0,
            demand: 0,
            top: 0,
        }
    }

    #[test]
    fn fleet_place_on_green_node_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(t(1), 0, pressure(1, TraceZone::Yellow));
        log.record(t(1), 0, place(0, 0));
        log.record(t(2), 1, place(1, 1));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_place_on_red_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(2, TraceZone::Red));
        log.record(t(1), 0, place(0, 2));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.place.red");
    }

    #[test]
    fn fleet_place_above_top_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::AboveTop));
        log.record(t(1), 0, place(3, 0));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.place.red");
    }

    #[test]
    fn fleet_place_without_probe_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, place(0, 5));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.place.red");
        assert!(v[0].message.contains("without a pressure probe"));
    }

    #[test]
    fn fleet_place_uses_latest_snapshot_not_an_old_one() {
        // Node recovers: red then green — placement after the recovery is fine.
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(t(5), 0, pressure(0, TraceZone::Green));
        log.record(t(5), 0, place(0, 0));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_migrate_after_grace_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(t(6), 0, pressure(0, TraceZone::Red));
        log.record(
            t(11),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 10_000,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_migrate_before_grace_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(
            t(3),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 2_000,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.migrate.grace");
    }

    #[test]
    fn fleet_migrate_off_non_red_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Yellow));
        log.record(
            t(20),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 0,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.migrate.grace");
        assert!(v[0].message.contains("not red"));
    }

    #[test]
    fn fleet_red_streak_resets_on_recovery() {
        // Red for ages, recovers, goes red again briefly: the streak restarts
        // at the second red onset, so an early migration is still caught.
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(t(30), 0, pressure(0, TraceZone::Green));
        log.record(t(31), 0, pressure(0, TraceZone::Red));
        log.record(
            t(33),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 2_000,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.migrate.grace");
    }

    #[test]
    fn fleet_defer_then_place_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 0,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        log.record(t(5), 0, place(0, 0));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_defer_then_giveup_is_conformant() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 2,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        log.record(
            t(5),
            0,
            TraceData::FleetGiveUp {
                job: 2,
                attempts: 1,
                demand: 0,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_giveup_while_a_node_admits_is_caught() {
        // Node 1's latest snapshot is green with room for the job's demand:
        // abandoning the job is starvation.
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetPressure {
                node: 1,
                zone: TraceZone::Green,
                used: 10,
                reserved: 20,
                high: 80,
                top: 100,
                escalations: 0,
            },
        );
        log.record(
            t(2),
            0,
            TraceData::FleetGiveUp {
                job: 3,
                attempts: 5,
                demand: 50,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.giveup.starvation");
    }

    #[test]
    fn fleet_giveup_with_no_room_anywhere_is_conformant() {
        // Reserved demand (not just used) blocks the only green node, so
        // the give-up is legitimate.
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetPressure {
                node: 0,
                zone: TraceZone::Green,
                used: 10,
                reserved: 60,
                high: 80,
                top: 100,
                escalations: 0,
            },
        );
        log.record(
            t(2),
            0,
            TraceData::FleetGiveUp {
                job: 3,
                attempts: 5,
                demand: 50,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_starvation_names_the_lowest_index_fitting_node() {
        // Nodes 40 down to 1 report in descending order; the multiples of
        // three are red, the rest fit the job. The report names node 1,
        // the lowest-index fitting node, whatever order the replay keeps
        // its nodes in.
        let mut log = TraceLog::new();
        for node in (1..=40).rev() {
            let zone = match node % 3 {
                0 => TraceZone::Red,
                _ => TraceZone::Green,
            };
            log.record(
                t(1),
                0,
                TraceData::FleetPressure {
                    node,
                    zone,
                    used: node,
                    reserved: 0,
                    high: 80,
                    top: 100,
                    escalations: 0,
                },
            );
        }
        log.record(
            t(2),
            0,
            TraceData::FleetGiveUp {
                job: 3,
                attempts: 5,
                demand: 50,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.giveup.starvation");
        assert_eq!(
            v[0].message,
            "job 3 (demand 50) given up on while node 1 is Green with effective load 1 of top 100"
        );
    }

    #[test]
    fn fleet_replay_of_the_largest_node_id_stays_bounded() {
        // Node ids come from traces read from disk. The largest one is a
        // key like any other: its snapshot and red streak replay, and the
        // placement onto it after its loss is caught twice.
        let node = u64::MAX;
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(node, TraceZone::Red));
        log.record(t(11), 0, pressure(node, TraceZone::Red));
        log.record(
            t(11),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: node,
                to: 1,
                red_for_ms: 10_000,
            },
        );
        log.record(t(12), 0, node_lost(node));
        log.record(t(13), 0, place(1, node));
        let v = fleet_oracle().check(&log);
        let invariants: Vec<&str> = v.iter().map(|v| v.invariant.as_str()).collect();
        assert_eq!(invariants, ["fleet.place.red", "fleet.place.dead"], "{v:?}");
        assert!(v[1].message.contains(&node.to_string()));
    }

    #[test]
    fn fleet_late_retry_is_caught() {
        // The defer announced a retry at 5 s but the next attempt for the
        // job only happened at 6 s.
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 0,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        log.record(t(6), 0, place(0, 0));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.defer.latency");
    }

    #[test]
    fn fleet_defer_beyond_the_interval_is_caught() {
        // With the scheduler's defer interval known (3 s), a defer that
        // announces its retry 4 s out is flagged at the defer itself.
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 0,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        log.record(t(5), 0, pressure(0, TraceZone::Green));
        log.record(t(5), 0, place(0, 0));
        let v = FleetOracle::new(GRACE_MS, 3_000).check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.defer.latency");
        assert!(v[0].message.contains("defer interval"));
    }

    #[test]
    fn fleet_defer_never_resolved_is_caught() {
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetDefer {
                job: 7,
                attempt: 1,
                retry_at_ms: 5_000,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "fleet.defer.progress");
        assert_eq!(v[0].pid, 7);
    }

    #[test]
    fn fleet_oracle_ignores_node_level_events() {
        let mut log = TraceLog::new();
        log.record(t(1), 1, TraceData::Madvise { bytes: GIB });
        log.record(t(1), 0, TraceData::ProcExit);
        assert!(fleet_oracle().check(&log).is_empty());
    }

    fn node_lost(node: u64) -> TraceData {
        TraceData::FleetNodeLost { node, jobs_lost: 1 }
    }

    fn reschedule(job: u64, requeued: bool) -> TraceData {
        TraceData::FleetReschedule {
            job,
            from: 0,
            retries: 1,
            retry_at_ms: 5_000,
            requeued,
        }
    }

    fn quarantine(node: u64, entered: bool) -> TraceData {
        TraceData::FleetQuarantine {
            node,
            entered,
            streak: 2,
        }
    }

    #[test]
    fn fleet_place_on_dead_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(t(2), 0, node_lost(0));
        log.record(t(3), 0, place(1, 0));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.place.dead");
    }

    #[test]
    fn fleet_place_on_quarantined_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(t(2), 0, quarantine(0, true));
        log.record(t(3), 0, place(1, 0));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.place.quarantined");
    }

    #[test]
    fn fleet_migrate_onto_quarantined_node_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Red));
        log.record(t(2), 0, quarantine(1, true));
        log.record(
            t(12),
            0,
            TraceData::FleetMigrate {
                job: 0,
                from: 0,
                to: 1,
                red_for_ms: 11_000,
            },
        );
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.place.quarantined");
    }

    #[test]
    fn fleet_place_after_quarantine_exit_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(0, TraceZone::Green));
        log.record(t(2), 0, quarantine(0, true));
        log.record(t(5), 0, quarantine(0, false));
        log.record(t(6), 0, place(1, 0));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_requeued_job_placed_elsewhere_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, pressure(1, TraceZone::Green));
        log.record(t(2), 0, node_lost(0));
        log.record(t(2), 0, reschedule(4, true));
        log.record(t(5), 0, place(4, 1));
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_requeued_job_never_resolved_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(2), 0, node_lost(0));
        log.record(t(2), 0, reschedule(4, true));
        let v = fleet_oracle().check(&log);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "fleet.lost.resolved");
        assert_eq!(v[0].pid, 4);
    }

    #[test]
    fn fleet_orphaned_lost_job_giveup_skips_starvation() {
        // Node 1 visibly admits the job, but the job exhausted its node-loss
        // retry budget — the give-up is legitimate, not starvation.
        let mut log = TraceLog::new();
        log.record(
            t(1),
            0,
            TraceData::FleetPressure {
                node: 1,
                zone: TraceZone::Green,
                used: 10,
                reserved: 20,
                high: 80,
                top: 100,
                escalations: 0,
            },
        );
        log.record(t(2), 0, node_lost(0));
        log.record(t(2), 0, reschedule(3, false));
        log.record(
            t(2),
            0,
            TraceData::FleetGiveUp {
                job: 3,
                attempts: 4,
                demand: 50,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn fleet_starvation_search_skips_dead_and_quarantined_nodes() {
        // The only nodes with room are dead or quarantined, so giving up is
        // legitimate for an ordinary (never-lost) job too.
        let snap = |node| TraceData::FleetPressure {
            node,
            zone: TraceZone::Green,
            used: 0,
            reserved: 0,
            high: 80,
            top: 100,
            escalations: 0,
        };
        let mut log = TraceLog::new();
        log.record(t(1), 0, snap(0));
        log.record(t(1), 0, snap(1));
        log.record(t(2), 0, node_lost(0));
        log.record(t(2), 0, quarantine(1, true));
        log.record(
            t(3),
            0,
            TraceData::FleetGiveUp {
                job: 9,
                attempts: 5,
                demand: 50,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    fn assign(job: u64, crit: Criticality, slo_ms: u64) -> TraceData {
        TraceData::SchedClassAssign { job, crit, slo_ms }
    }

    fn preempt(job: u64, crit: Criticality, victim: u64, victim_crit: Criticality) -> TraceData {
        TraceData::SchedClassPreempt {
            job,
            crit,
            victim,
            victim_crit,
            node: 0,
        }
    }

    #[test]
    fn sched_class_preempt_of_more_expendable_victim_is_conformant() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::LatencyCritical, 500));
        log.record(t(1), 0, assign(2, Criticality::Batch, 0));
        log.record(
            t(2),
            0,
            preempt(1, Criticality::LatencyCritical, 2, Criticality::Batch),
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    #[test]
    fn sched_class_preempt_of_equal_or_less_expendable_victim_is_caught() {
        for victim_crit in [Criticality::Batch, Criticality::LatencyCritical] {
            let mut log = TraceLog::new();
            log.record(t(1), 0, assign(1, Criticality::Batch, 0));
            log.record(t(1), 0, assign(2, victim_crit, 0));
            log.record(t(2), 0, preempt(1, Criticality::Batch, 2, victim_crit));
            let v = fleet_oracle().check(&log);
            assert!(
                v.iter().any(|x| x.invariant == "sched.class.preempt"),
                "batch preempting {victim_crit:?} must be flagged: {v:?}"
            );
        }
    }

    #[test]
    fn sched_class_preempt_contradicting_assignment_is_caught() {
        // Job 2 was declared latency-critical, but the preempt event
        // relabels it as batch to make the eviction look legal.
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::LatencyCritical, 500));
        log.record(t(1), 0, assign(2, Criticality::LatencyCritical, 500));
        log.record(
            t(2),
            0,
            preempt(1, Criticality::LatencyCritical, 2, Criticality::Batch),
        );
        let v = fleet_oracle().check(&log);
        assert!(
            v.iter().any(|x| x.invariant == "sched.class.consistency"),
            "got {v:?}"
        );
    }

    #[test]
    fn sched_class_slo_accounting_is_checked() {
        // met must equal runtime <= slo, and stall time cannot exceed the
        // whole runtime.
        let ok = TraceData::SchedClassSlo {
            job: 1,
            crit: Criticality::LatencyCritical,
            slo_ms: 500,
            runtime_ms: 400,
            stall_ms: 100,
            met: true,
        };
        let wrong_met = TraceData::SchedClassSlo {
            job: 1,
            crit: Criticality::LatencyCritical,
            slo_ms: 500,
            runtime_ms: 900,
            stall_ms: 100,
            met: true,
        };
        let impossible_stall = TraceData::SchedClassSlo {
            job: 1,
            crit: Criticality::LatencyCritical,
            slo_ms: 500,
            runtime_ms: 400,
            stall_ms: 401,
            met: true,
        };
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::LatencyCritical, 500));
        log.record(t(2), 0, ok);
        assert!(fleet_oracle().check(&log).is_empty());

        for bad in [wrong_met, impossible_stall] {
            let mut log = TraceLog::new();
            log.record(t(1), 0, assign(1, Criticality::LatencyCritical, 500));
            log.record(t(2), 0, bad);
            let v = fleet_oracle().check(&log);
            assert!(
                v.iter().any(|x| x.invariant == "sched.class.slo"),
                "got {v:?}"
            );
        }
    }

    #[test]
    fn sched_class_slo_contradicting_assignment_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::Standard, 0));
        log.record(
            t(2),
            0,
            TraceData::SchedClassSlo {
                job: 1,
                crit: Criticality::LatencyCritical,
                slo_ms: 500,
                runtime_ms: 400,
                stall_ms: 0,
                met: true,
            },
        );
        let v = fleet_oracle().check(&log);
        assert!(
            v.iter().any(|x| x.invariant == "sched.class.consistency"),
            "got {v:?}"
        );
    }

    #[test]
    fn jobs_without_slo_are_always_met() {
        // slo_ms == 0 means "no SLO declared": met must be recorded true.
        let mut log = TraceLog::new();
        log.record(t(1), 0, assign(1, Criticality::Batch, 0));
        log.record(
            t(2),
            0,
            TraceData::SchedClassSlo {
                job: 1,
                crit: Criticality::Batch,
                slo_ms: 0,
                runtime_ms: 10_000,
                stall_ms: 2_000,
                met: true,
            },
        );
        assert!(fleet_oracle().check(&log).is_empty());
    }

    // ---- work-packet invariants -----------------------------------------

    use m3_sim::trace::PacketBucket;

    fn enq(packet: u64, pkind: &str, bucket: PacketBucket, deps: &[u64]) -> TraceData {
        TraceData::PacketEnqueue {
            packet,
            pkind: pkind.to_string(),
            bucket,
            deps: deps.to_vec(),
        }
    }

    fn start(packet: u64, bucket: PacketBucket, wave: u64) -> TraceData {
        TraceData::PacketStart {
            packet,
            bucket,
            wave,
        }
    }

    fn finish(packet: u64, bucket: PacketBucket, bytes: u64, returned: u64) -> TraceData {
        TraceData::PacketFinish {
            packet,
            bucket,
            bytes,
            returned,
            duration_ms: 5,
        }
    }

    /// A canonical, conformant packetized High handler: evict ⅛ of 8
    /// blocks, young + old GC, then one madvise returning everything.
    fn packetized_handler() -> TraceLog {
        let mut log = TraceLog::new();
        let pid = 3;
        log.record(t(1), pid, TraceData::HandlerStart { sig: SigKind::High });
        log.record(
            t(1),
            pid,
            enq(0, "evict_blocks", PacketBucket::Prepare, &[]),
        );
        log.record(t(1), pid, enq(1, "gc_young", PacketBucket::Collect, &[0]));
        log.record(t(1), pid, enq(2, "gc_old", PacketBucket::Collect, &[1]));
        log.record(t(1), pid, enq(3, "madvise", PacketBucket::Release, &[2]));
        log.record(t(1), pid, start(0, PacketBucket::Prepare, 0));
        log.record(
            t(1),
            pid,
            TraceData::EvictBlocks {
                before: 8,
                evicted: 1,
                bytes: 4096,
                reason: EvictReason::HighSignal,
            },
        );
        log.record(t(1), pid, finish(0, PacketBucket::Prepare, 4096, 0));
        log.record(
            t(1),
            pid,
            TraceData::PacketStall {
                packet: 2,
                waiting_on: 1,
                wave: 1,
            },
        );
        log.record(t(1), pid, start(1, PacketBucket::Collect, 1));
        log.record(
            t(1),
            pid,
            TraceData::Gc {
                layer: GcLayer::Young,
                reclaimed: 1000,
                returned: 0,
                pause_ms: 10,
            },
        );
        log.record(t(1), pid, finish(1, PacketBucket::Collect, 1000, 0));
        log.record(t(1), pid, start(2, PacketBucket::Collect, 2));
        log.record(
            t(1),
            pid,
            TraceData::Gc {
                layer: GcLayer::Mixed,
                reclaimed: 3000,
                returned: 0,
                pause_ms: 20,
            },
        );
        log.record(t(1), pid, finish(2, PacketBucket::Collect, 3000, 0));
        log.record(t(1), pid, start(3, PacketBucket::Release, 3));
        log.record(t(1), pid, TraceData::Madvise { bytes: 8192 });
        log.record(t(1), pid, finish(3, PacketBucket::Release, 0, 8192));
        log.record(
            t(1),
            pid,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 40,
                returned: 8192,
            },
        );
        log
    }

    fn packet_violations(log: &TraceLog) -> Vec<String> {
        Oracle::paper(None)
            .check(log)
            .into_iter()
            .filter(|v| v.invariant.starts_with("reclaim.packet"))
            .map(|v| v.invariant)
            .collect()
    }

    #[test]
    fn conformant_packetized_handler_has_no_violations() {
        let violations = Oracle::paper(None).check(&packetized_handler());
        assert_eq!(violations, Vec::new());
    }

    #[test]
    fn back_to_back_drains_without_handler_window_reset_ids() {
        // Direct signal delivery (unit harnesses) drains twice with no
        // handler.start between: the re-used id 0 after a fully finished
        // drain is a fresh drain, not a double enqueue.
        let mut log = TraceLog::new();
        for _ in 0..2 {
            log.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
            log.record(t(1), 3, enq(1, "madvise", PacketBucket::Release, &[0]));
            log.record(t(1), 3, start(0, PacketBucket::Collect, 0));
            log.record(t(1), 3, finish(0, PacketBucket::Collect, 1000, 0));
            log.record(t(1), 3, start(1, PacketBucket::Release, 1));
            log.record(t(1), 3, finish(1, PacketBucket::Release, 0, 4096));
        }
        assert_eq!(packet_violations(&log), Vec::<String>::new());
        // With packet 1 of the first drain still unfinished, the same
        // re-enqueue IS a violation.
        let mut bad = TraceLog::new();
        bad.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
        bad.record(t(1), 3, enq(1, "madvise", PacketBucket::Release, &[0]));
        bad.record(t(1), 3, start(0, PacketBucket::Collect, 0));
        bad.record(t(1), 3, finish(0, PacketBucket::Collect, 1000, 0));
        bad.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
        assert!(packet_violations(&bad)
            .iter()
            .any(|v| v == "reclaim.packet.order"));
    }

    #[test]
    fn packet_start_before_dependency_finishes_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, TraceData::HandlerStart { sig: SigKind::High });
        log.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
        log.record(t(1), 3, enq(1, "gc_old", PacketBucket::Collect, &[0]));
        // Old starts before young has finished.
        log.record(t(1), 3, start(1, PacketBucket::Collect, 0));
        let v = packet_violations(&log);
        assert!(v.contains(&"reclaim.packet.deps".to_string()), "got {v:?}");
    }

    #[test]
    fn packet_start_before_bucket_opens_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, TraceData::HandlerStart { sig: SigKind::High });
        log.record(t(1), 3, enq(0, "evict_blocks", PacketBucket::Prepare, &[]));
        log.record(t(1), 3, enq(1, "madvise", PacketBucket::Release, &[]));
        // Release starts while the Prepare packet is unfinished.
        log.record(t(1), 3, start(1, PacketBucket::Release, 0));
        let v = packet_violations(&log);
        assert!(
            v.contains(&"reclaim.packet.bucket".to_string()),
            "got {v:?}"
        );
    }

    #[test]
    fn packet_start_without_enqueue_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, start(0, PacketBucket::Prepare, 0));
        let v = packet_violations(&log);
        assert!(v.contains(&"reclaim.packet.order".to_string()), "got {v:?}");
    }

    #[test]
    fn packet_byte_conservation_mismatch_is_caught() {
        // Rewrite the conformant handler's young-GC packet to claim fewer
        // bytes than the gc.young event it wraps.
        let mut log = TraceLog::new();
        for e in packetized_handler().events() {
            let data = match &e.data {
                TraceData::PacketFinish {
                    packet: 1,
                    bucket,
                    returned,
                    duration_ms,
                    ..
                } => TraceData::PacketFinish {
                    packet: 1,
                    bucket: *bucket,
                    bytes: 999,
                    returned: *returned,
                    duration_ms: *duration_ms,
                },
                d => d.clone(),
            };
            log.record(e.t, e.pid, data);
        }
        let v = packet_violations(&log);
        assert!(
            v.contains(&"reclaim.packet.conservation".to_string()),
            "got {v:?}"
        );
    }

    #[test]
    fn unfinished_packet_at_handler_end_is_caught() {
        let mut log = TraceLog::new();
        log.record(t(1), 3, TraceData::HandlerStart { sig: SigKind::High });
        log.record(t(1), 3, enq(0, "gc_young", PacketBucket::Collect, &[]));
        log.record(t(1), 3, start(0, PacketBucket::Collect, 0));
        log.record(t(1), 3, finish(0, PacketBucket::Collect, 0, 0));
        log.record(t(1), 3, enq(1, "madvise", PacketBucket::Release, &[0]));
        log.record(
            t(1),
            3,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 1,
                returned: 0,
            },
        );
        let v = packet_violations(&log);
        assert!(
            v.contains(&"reclaim.packet.orphan".to_string()),
            "got {v:?}"
        );
    }

    /// Rewrites each packet drain in `trace` into the log a drain that ran
    /// the buckets in reverse and ignored dependency edges would record:
    /// the enqueues as they were, then each packet's start-to-finish span
    /// (with the events recorded while it ran) one packet per wave, later
    /// buckets first and ids ascending within a bucket, and no stalls.
    fn reverse_bucket_drains(trace: &TraceLog) -> TraceLog {
        let mut out = TraceLog::new();
        let mut spans: Vec<(PacketBucket, u64, Vec<TraceEvent>)> = Vec::new();
        let mut unfinished = 0usize;
        for e in trace.events() {
            match e.data {
                TraceData::PacketEnqueue { .. } => {
                    unfinished += 1;
                    out.record(e.t, e.pid, e.data.clone());
                }
                TraceData::PacketStall { .. } => {}
                TraceData::PacketStart { packet, bucket, .. } => {
                    spans.push((bucket, packet, vec![e.clone()]));
                }
                _ if unfinished == 0 => out.record(e.t, e.pid, e.data.clone()),
                _ => {
                    spans.last_mut().expect("inside a packet").2.push(e.clone());
                    if matches!(e.data, TraceData::PacketFinish { .. }) {
                        unfinished -= 1;
                    }
                }
            }
            if unfinished == 0 && !spans.is_empty() {
                spans.sort_by_key(|&(bucket, packet, _)| (std::cmp::Reverse(bucket), packet));
                for (wave, (_, _, events)) in spans.drain(..).enumerate() {
                    for mut e in events {
                        if let TraceData::PacketStart { wave: w, .. } = &mut e.data {
                            *w = wave as u64;
                        }
                        out.record(e.t, e.pid, e.data);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn ablated_scheduler_drain_is_caught() {
        // Drive the *real* scheduler, then reorder its trace into what a
        // drain running the buckets in reverse and ignoring dependency
        // edges records: enqueues as they were, then one packet per wave,
        // later buckets first. The oracle must flag the reversed buckets
        // and the ignored dependency edges.
        use m3_core::scheduler::{PacketKind, PacketOutcome, ReclaimScheduler};
        let mut os = Kernel::new(KernelConfig::with_total(GIB));
        let pid = os.spawn("app");
        os.record_trace(pid, TraceData::HandlerStart { sig: SigKind::High });
        let mut sched = ReclaimScheduler::new(pid);
        let ev = sched.add(PacketKind::EvictBlocks, &[], |_: &mut (), _| {
            PacketOutcome::default()
        });
        let gc = sched.add(PacketKind::GcYoung, &[ev], |_: &mut (), _| {
            PacketOutcome::default()
        });
        sched.add(PacketKind::Madvise, &[gc], |_: &mut (), _| {
            PacketOutcome::default()
        });
        sched.drain(&mut (), &mut os);
        os.record_trace(
            pid,
            TraceData::HandlerEnd {
                sig: SigKind::High,
                duration_ms: 0,
                returned: 0,
            },
        );
        assert_eq!(packet_violations(&os.trace), Vec::<String>::new());
        let v = packet_violations(&reverse_bucket_drains(&os.trace));
        assert!(
            v.contains(&"reclaim.packet.bucket".to_string()),
            "reversed buckets must be flagged, got {v:?}"
        );
        assert!(
            v.contains(&"reclaim.packet.deps".to_string()),
            "ignored dependency edges must be flagged, got {v:?}"
        );
    }
}
