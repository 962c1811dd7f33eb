//! `m3-fleet`: a pressure-aware cluster scheduler on top of the node
//! simulator.
//!
//! The paper's cluster (§7.1) is N independent workers all running the same
//! schedule; every placement decision is implicit. This module lifts M3's
//! node-local pressure signals to the cluster layer: incoming elastic jobs
//! are *placed* onto the least-pressured feasible node, *deferred* when no
//! node can take them without being pushed above its top of memory, and
//! *migrated* off a node whose monitor stays in the red zone beyond a grace
//! window (the direction MURS/SARA argue service stacks must go).
//!
//! The scheduler's timing and health policy is fixed, as the paper fixes
//! its monitor's: a [`GRACE`] window of 60 s, a [`DEFER_INTERVAL`] of
//! 120 s, rebalance checks every 60 s, three node-loss requeues with a
//! 30-s backoff base, a 120-s stale window for flapping endpoints, and
//! quarantine after two failed reads, lifted after three healthy ones.
//! [`FleetConfig`] holds only what callers vary: the nodes, the fault
//! plan, the defer budget and the number of rebalance checks.
//!
//! # Scaling model (DESIGN.md §13)
//!
//! The scheduler targets O(10k) nodes and O(100k) jobs on one machine, so
//! every per-decision cost must be bounded and every node simulation must
//! be shared when it can be:
//!
//! - **Incremental probes.** A node's probe simulation runs once over the
//!   full horizon with a pressure timeline that keeps every monitor poll
//!   whose summary changed, and is cached on the node until the node's
//!   assignment set or fault plan changes (the *dirty* rule: any mutation
//!   clears the cache).
//!   Reading the node's state at time `t` is then a timeline lookup, not
//!   a re-simulation, and the probe keeps the last view it answered, so a
//!   second read at the same instant looks nothing up. Idle nodes never
//!   simulate at all: the idle summary of their size, computed once at
//!   fleet construction and kept on the node, answers their probes. Every
//!   node run has one configuration, so a node's final run is the probe of
//!   its final schedule.
//! - **Resumed node runs.** Every change to a node is due at the
//!   scheduler's current time, so a node's run up to its latest change is
//!   the run of its earlier schedule. A node run that misses the run
//!   cache clones the checkpoint the fleet kept for that earlier
//!   schedule, pushes the new entries, advances to the change and
//!   finishes, instead of simulating from t = 0. A checkpoint holds the
//!   world at its schedule's change and the world where its run ended;
//!   a later run starts from the end world when that run had ended by the
//!   new change, so it does not simulate the earlier run again. The
//!   outcome is byte-identical either way (DESIGN.md §9).
//! - **Content-addressed node runs.** The per-node machine config carries
//!   no node salt and the sub-scenario name carries no node index, so two
//!   nodes with identical (size, schedule, faults) share one entry in the
//!   process-wide run cache, and one checkpoint. Wave-shaped arrivals
//!   over homogeneous nodes collapse thousands of node simulations into a
//!   handful of distinct ones. A node keeps its run's cache key as its
//!   schedule grows, absorbing each appended job or crash in O(1), so a
//!   probe looks its run up without building or fingerprinting its
//!   inputs; two nodes share a key exactly when they share the inputs'
//!   content key (DESIGN.md §9).
//! - **Ordered placement index.** One `BTreeSet<u128>` candidate index
//!   orders the nodes by an *advisory* effective-load key, each entry the
//!   key and the node index packed into one integer. Placement probes the
//!   first `PROBE_BUDGET` (16) entries, the least-estimated nodes
//!   (stopping early once `PLACE_CANDIDATES` (4) feasible candidates are
//!   in hand), instead of probing all N; a full refresh sweep rebuilds the
//!   set in one pass. The index only orders the scan —
//!   admission is always decided by authoritative probes — and a job's
//!   *final* admission attempt scans every node, so a job is never given
//!   up on while a feasible node exists anywhere in the fleet.
//! - **Batched pressure refresh.** Each rebalance check refreshes one
//!   range of `SHARD_SIZE` (64) nodes round-robin rather than the whole
//!   fleet, probing them in node order.
//!
//! # Determinism
//!
//! The scheduler is a pure function of `(scenario, setting, machine_cfg,
//! fleet_cfg)`. There is no randomness and no wall clock anywhere:
//!
//! - A fleet run is serial from start to finish: it reads no worker count
//!   and spawns no thread, so its node runs fill the run cache and the
//!   checkpoints in the order its decisions probe them.
//! - Scheduler events pop in `(time_ms, class, index)` order, a total
//!   order: the arrivals from a list sorted once, every other event from
//!   a binary heap (`EventQueue`).
//! - A node's pressure at time `t` is a pure function of its assignment
//!   set and fault plan: the cached probe simulation is deterministic, and
//!   the timeline read picks the last sample at or before `t`.
//! - Ties in the placement order are broken by node index; admission is an
//!   exact integer comparison (no float ordering).
//!
//! Migration is modelled as a crash fault on the source node (the elastic
//! job restarts from scratch on the target, as §7.1's restartable jobs do).
//! The crash instant always equals the scheduler's current time, so probes
//! cached for earlier times stay valid and the node's run can resume from
//! its previous checkpoint.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;

use m3_core::config::MonitorConfig;
use m3_core::monitor::{Monitor, PressureSummary, Zone};
use m3_oracle::{FleetChecker, FleetOracle, Violation};
use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::trace::{Criticality, TraceData, TraceEvent, TraceLog, TraceMark, TraceZone};
use m3_sim::units::GIB;
use m3_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::cluster::{ClusterMean, ClusterResult, JobFailure};
use crate::faults::{FaultPlan, FleetDegradationReport, FleetFaultPlan, ProbeFlap};
use crate::hibench;
use crate::machine::{MachineConfig, World};
use crate::parallel::{CacheStats, Fingerprint, MemoCache, RUN_CACHE};
use crate::runner::{outcome, schedule_entry, ScenarioOutcome};
use crate::scenario::{AppKind, JobClass, Scenario};
use crate::settings::Setting;
#[cfg(test)]
use crate::timeline::PressureTimeline;

/// One worker node of the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Physical memory of the node.
    pub phys_total: u64,
}

impl NodeSpec {
    /// The paper's 64-GB worker.
    pub fn paper() -> Self {
        NodeSpec {
            phys_total: 64 * GIB,
        }
    }
}

/// Fleet scheduler configuration. Part of the fleet-level memoization key.
///
/// The scheduler's timing and health policy is fixed, not configured:
/// [`GRACE`], [`DEFER_INTERVAL`] and the private constants beside them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// The worker nodes (heterogeneous sizes allowed).
    pub nodes: Vec<NodeSpec>,
    /// What goes wrong around the scheduler: node crashes, flapping probe
    /// endpoints, delayed placements, scheduler restarts. The plan indexes
    /// [`FleetConfig::nodes`]; empty for a clean run.
    pub faults: FleetFaultPlan,
    /// Admission retries before the scheduler gives up on a job.
    pub max_defers: u32,
    /// Number of rebalance checks scheduled, one every 60 s (bounds the
    /// event horizon).
    pub rebalance_checks: u32,
}

impl FleetConfig {
    /// A scheduling fleet of `n` homogeneous nodes of `phys_total` bytes.
    pub fn homogeneous(n: usize, phys_total: u64) -> Self {
        FleetConfig {
            nodes: vec![NodeSpec { phys_total }; n],
            faults: FleetFaultPlan::none(),
            max_defers: 30,
            rebalance_checks: 40,
        }
    }

    /// The paper's eight 64-GB workers.
    pub fn paper() -> Self {
        FleetConfig::homogeneous(crate::cluster::PAPER_NODES, 64 * GIB)
    }
}

/// How long a node must stay red before the rebalancer may migrate a job
/// off it. A replay of a fleet trace builds its [`FleetOracle`] from this
/// and [`DEFER_INTERVAL`].
pub const GRACE: SimDuration = SimDuration::from_secs(60);
/// How long a deferred job waits before retrying admission.
pub const DEFER_INTERVAL: SimDuration = SimDuration::from_secs(120);
/// Cadence of the red-zone rebalance checks.
const REBALANCE_PERIOD: SimDuration = SimDuration::from_secs(60);
/// Times a job lost to node death may re-enter the arrival queue before
/// the scheduler abandons it as orphaned.
const RETRY_BUDGET: u32 = 3;
/// Base delay of the node-loss retry backoff; retry `k` waits
/// `base * 2^(k-1)` plus deterministic jitter in `[0, base)`.
const BACKOFF_BASE: SimDuration = SimDuration::from_secs(30);
/// How old a flapping endpoint's stale summary may be before the scheduler
/// refuses it and forces an authoritative re-read.
const STALE_WINDOW: SimDuration = SimDuration::from_secs(120);
/// Consecutive forced re-reads before a flapping node is quarantined.
const QUARANTINE_AFTER: u32 = 2;
/// Consecutive healthy probes a quarantined node must answer before it is
/// re-admitted as a placement target.
const QUARANTINE_HEALTHY: u32 = 3;
/// Migrations allowed per job (a migration restarts the job).
const MAX_MIGRATIONS: u32 = 1;
/// Nodes per rebalance range: each rebalance check refreshes one range of
/// this many consecutive nodes, round-robin.
const SHARD_SIZE: usize = 64;
/// Feasible candidates a bounded placement scan collects before picking
/// (the scan's early-stop).
const PLACE_CANDIDATES: usize = 4;
/// Upper bound on authoritative probes per bounded placement scan (at least
/// [`PLACE_CANDIDATES`]): the scan order is the least-estimated
/// `PROBE_BUDGET` nodes by the candidate index.
const PROBE_BUDGET: usize = 16;
/// Seed of the deterministic node-loss backoff jitter.
const BACKOFF_SEED: u64 = 0xF1EE7;

/// A candidate-index entry: `key` in the high bits and the node index in
/// the low 32, so entries order by key, ties to the lower node index.
fn packed(key: u64, node: usize) -> u128 {
    (key as u128) << 32 | node as u128
}

/// What happened to one submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The job's index in the scenario.
    pub job: usize,
    /// The node the job finally ran on (`None` if the scheduler gave up or
    /// the job was orphaned).
    pub node: Option<usize>,
    /// Admission deferrals before placement (or before giving up).
    pub deferrals: u32,
    /// Times the rebalancer migrated the job.
    pub migrations: u32,
    /// Times the job re-entered the arrival queue after losing its node —
    /// to node death or to a preemption by a less-expendable job.
    pub reschedules: u32,
    /// Why the job produced no runtime; `None` = it completed.
    pub failure: Option<JobFailure>,
    /// Completion time minus the job's *arrival* (not its last restart),
    /// seconds; `None` if the job failed, was killed, or was given up on.
    pub runtime_s: Option<f64>,
    /// The criticality class the job declared at submission
    /// (`Standard` in unclassified scenarios).
    pub crit: Criticality,
    /// The latency SLO the job declared, ms (0 = none).
    pub slo_ms: u64,
    /// Reclamation-handler time the job absorbed on its final node, ms
    /// (0 when the job never ran).
    pub stall_ms: u64,
    /// Whether the job met its SLO — trivially `Some(true)` without one;
    /// `None` when the job never completed.
    pub slo_met: Option<bool>,
}

/// Outcome of one fleet run. Serializable end to end: the golden snapshot
/// and determinism tests compare runs by their serialized bytes, and the
/// fleet memoization cache hands out shared results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetResult {
    /// Per-job scheduler outcomes, each job's runtime measured from its
    /// arrival on its final node: the one record of each job's outcome,
    /// which [`FleetResult::class_mean`] aggregates.
    pub jobs: Vec<JobOutcome>,
    /// The scheduler's placement log (`fleet.*` events).
    pub trace: TraceLog,
    /// Cluster-invariant violations from [`FleetOracle`] plus any node-level
    /// conformance violations from the final node runs. Empty = conformant.
    pub violations: Vec<Violation>,
    /// What the injected fleet faults cost this run (all zeros for a clean
    /// run).
    pub degradation: FleetDegradationReport,
}

impl FleetResult {
    /// [`ClusterResult::mean_runtime_secs`] over the per-job runtimes and
    /// failures, with the per-class slices filled from the same outcomes:
    /// the mixed-criticality report — SLO attainment and stall per
    /// criticality class.
    pub fn class_mean(&self) -> ClusterMean {
        ClusterResult {
            app_runtimes_s: self.jobs.iter().map(|j| j.runtime_s).collect(),
            failures: self.jobs.iter().map(|j| j.failure).collect(),
            ..ClusterResult::default()
        }
        .mean_runtime_secs()
        .with_classes(&self.jobs)
    }
}

/// Peak-memory estimate used for admission control: what placing a job of
/// this kind may eventually commit on the node.
pub fn demand_estimate(kind: AppKind) -> u64 {
    match kind {
        AppKind::KMeans | AppKind::PageRank | AppKind::NWeight => {
            let job = hibench::job_by_code(kind.code());
            job.working_set + job.exec_demand
        }
        AppKind::GoCache => hibench::gocache_workload().full_bytes(),
        AppKind::Memcached => hibench::memtier_workload().full_bytes(),
    }
}

/// The configuration of every run of a node, its probes and so its final
/// run: the base config at this node's size, with the base's trace
/// capture, no profile (a fleet reports none), and the pressure timeline
/// on, so one simulation answers probes at every time. A
/// node whose size differs from the base keeps no stale monitor —
/// [`MachineConfig::with_setting`] re-scales one to the node. No node
/// salt: two nodes of the same size running the same schedule under the
/// same faults are byte-identical simulations, so dropping the salt lets
/// them share one content-addressed run-cache entry — the reason a 10k-node
/// fleet only simulates its few hundred distinct nodes. The scheduler's own
/// placement provides the per-node heterogeneity a salt used to fake.
fn sched_node_cfg(base: MachineConfig, phys_total: u64) -> MachineConfig {
    let mut cfg = base;
    cfg.node_salt = 0;
    cfg.sample_period = None;
    cfg.pressure_timeline = true;
    if cfg.phys_total != phys_total {
        cfg.phys_total = phys_total;
        cfg.monitor = None;
    }
    cfg
}

/// A probed node world with its whole schedule pushed, kept twice: stopped
/// before the schedule's latest change instant, and paused where its run
/// ended unless the time cap ended it (DESIGN.md §13).
struct Checkpoint {
    at_change: Kept,
    at_end: Option<Kept>,
    /// The schedule's memoized probe outcome, whose pressure timeline and
    /// node trace start with each world's prefixes.
    outcome: Arc<ScenarioOutcome>,
}

/// A world without its pressure timeline and node trace, and where the
/// prefixes of both it had end.
struct Kept {
    world: World,
    samples: usize,
    trace: TraceMark,
}

impl Checkpoint {
    /// A copy of the latest kept world whose clock is at most `t`, with its
    /// trace prefix copied back and its timeline prefix shared with the
    /// outcome's.
    fn resume(&self, t: SimTime) -> World {
        let kept = (self.at_end.as_ref())
            .filter(|end| end.world.now() <= t)
            .unwrap_or(&self.at_change);
        let mut world = kept.world.clone();
        let run = &self.outcome.run;
        world.pressure_timeline = run.pressure_timeline.prefix(kept.samples);
        *world.trace_mut() = run.trace.prefix(kept.trace);
        world
    }
}

/// What a [`Checkpoint`] keeps of `world`: a copy without its pressure
/// timeline and node trace.
fn kept(world: &mut World) -> Kept {
    let timeline = std::mem::take(&mut world.pressure_timeline);
    let trace = std::mem::take(world.trace_mut());
    let kept = Kept {
        world: world.clone(),
        samples: timeline.len(),
        trace: trace.mark(),
    };
    world.pressure_timeline = timeline;
    *world.trace_mut() = trace;
    kept
}

/// The first word of every fleet node key: a tag past the value tags 1–8
/// of [`Fingerprint::content`], so a node key and the run cache's content
/// keys part at word 0 (DESIGN.md §9).
const TAG_NODE_KEY: u64 = 9;
/// The first word of an app step and of a crash step.
const TAG_APP: u64 = 10;
const TAG_CRASH: u64 = 11;
/// The tags of the app count and the crash count that close a key.
const TAG_APPS: u64 = 12;
const TAG_CRASHES: u64 = 13;

/// The fingerprint of what the content key of a node run holds constant
/// over one fleet run at one node size: the sub-scenario's name, the node
/// config `cfg`, and the regime and per-app config [`Setting::m3`] repeats
/// for every app.
fn key_header(name: &str, cfg: &MachineConfig) -> u128 {
    let setting = Setting::m3(1);
    let mut fp = Fingerprint(0);
    fp.halves(TAG_NODE_KEY, 0);
    fp.content(&name.serialize());
    fp.content(&cfg.serialize());
    fp.content(&setting.kind.serialize());
    fp.content(&setting.per_app[0].serialize());
    fp.0
}

/// Running fingerprints of a node schedule's two lists (DESIGN.md §9).
/// They are kept apart because a run sees two lists, not the order in
/// which a fleet instant interleaved them.
#[derive(Clone, Copy, Default)]
struct Streams {
    /// One step per assigned job: `(kind, start, class)`.
    apps: u128,
    napps: u64,
    /// One step per crash: `(target, at)`.
    crashes: u128,
    ncrashes: u64,
}

impl Streams {
    /// This schedule's run-cache key under `header`: the app state, a
    /// tagged app count, the crash state and a tagged crash count.
    fn key(&self, header: u128) -> u128 {
        let mut fp = Fingerprint(header);
        fp.word(self.apps);
        fp.halves(TAG_APPS, self.napps);
        fp.word(self.crashes);
        fp.halves(TAG_CRASHES, self.ncrashes);
        fp.0
    }
}

/// A node's run-cache keys, each appended job or crash absorbed in O(1):
/// the key of its schedule's run, and the key of the earlier schedule
/// that run resumes from (DESIGN.md §13).
struct NodeKey {
    /// [`key_header`] at the node's size.
    header: u128,
    /// The whole schedule.
    now: Streams,
    /// The schedule without its entries due at `changed_at`.
    earlier: Streams,
    /// The latest instant an entry was appended at.
    changed_at: SimDuration,
}

impl NodeKey {
    fn new(header: u128) -> Self {
        NodeKey {
            header,
            now: Streams::default(),
            earlier: Streams::default(),
            changed_at: SimDuration::ZERO,
        }
    }

    /// The streams to append an entry due at `at` to. Entries come in
    /// time order; the first one at a new instant makes the schedule so
    /// far the earlier one.
    fn change(&mut self, at: SimDuration) -> &mut Streams {
        debug_assert!(at >= self.changed_at, "a node's entries come in time order");
        if at > self.changed_at {
            self.earlier = self.now;
            self.changed_at = at;
        }
        &mut self.now
    }

    fn push_app(&mut self, kind: AppKind, start: SimDuration, class: JobClass) {
        let now = self.change(start);
        let mut fp = Fingerprint(now.apps);
        fp.halves(TAG_APP, kind as u64);
        fp.halves(0, start.as_millis());
        fp.halves(class.crit as u64, class.slo_ms);
        now.apps = fp.0;
        now.napps += 1;
    }

    fn push_crash(&mut self, at: SimDuration, target: usize) {
        let now = self.change(at);
        let mut fp = Fingerprint(now.crashes);
        fp.halves(TAG_CRASH, target as u64);
        fp.halves(0, at.as_millis());
        now.crashes = fp.0;
        now.ncrashes += 1;
    }

    /// The run-cache key of the node's run of its schedule.
    fn run(&self) -> u128 {
        self.now.key(self.header)
    }

    /// The key of the earlier schedule's run, whose checkpoint the node's
    /// run resumes from.
    fn resume(&self) -> u128 {
        self.earlier.key(self.header)
    }
}

/// Scheduler event classes, ordered within one instant: faults fire first
/// (a node dead at time `t` is dead for every decision at `t`), then the
/// scheduler restart, then placement attempts (arrivals and retries), then
/// rebalance checks. Clean runs schedule no crash/restart events, so their
/// event order — and their golden traces — are untouched by the renumber.
const CLASS_CRASH: u8 = 0;
const CLASS_RESTART: u8 = 1;
const CLASS_PLACE: u8 = 2;
const CLASS_REBALANCE: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Node `node` dies: every resident job is killed mid-run and
    /// re-queued (or orphaned once its retry budget is spent).
    NodeCrash { node: usize },
    /// The scheduler restarts: all advisory state is wiped and the
    /// candidate index is rebuilt from authoritative node reads.
    Restart,
    /// Try to admit job `job` (arrival or deferred retry), attempt number
    /// `attempt` (0 = the arrival itself).
    Place { job: usize, attempt: u32 },
    /// Rebalance check number `check` (1-based): refresh the due ranges
    /// and migrate off nodes red beyond the grace window.
    Rebalance { check: u32 },
}

/// One node's scheduling state.
struct NodeState {
    phys_total: u64,
    /// Jobs assigned to this node, in assignment order: `(job, kind,
    /// start offset)`. Only ever appended to, so fault targets (indices
    /// into this list) stay stable.
    apps: Vec<(usize, AppKind, SimDuration)>,
    /// Accumulated migration crashes on this node.
    faults: FaultPlan,
    /// The run-cache keys of `apps` and `faults`, kept as they grow.
    key: NodeKey,
    /// When the node's probes turned contiguously red, ms.
    red_since: Option<u64>,
    /// Memoized full-horizon probe simulation and the last view read from
    /// it; `None` = dirty (the assignment set or fault plan changed since
    /// it was computed). Every mutation of `apps` or `faults` must clear
    /// this.
    probe: Option<Probe>,
    /// What a probe of the node answers while nothing is assigned to it,
    /// precomputed per node size; its `top` is the node's top of memory
    /// (from its scaled monitor config).
    idle: PressureSummary,
    /// Advisory effective-load estimate backing the candidate index; healed to
    /// the authoritative value on every probe.
    index_effective: u64,
    /// When the node died, ms since the epoch (`None` = alive).
    dead: Option<u64>,
    /// True while the node is quarantined for flapping probes: deindexed
    /// and ineligible as a placement or migration target.
    quarantined: bool,
    /// Consecutive forced authoritative re-reads (endpoint too stale).
    fail_streak: u32,
    /// Consecutive healthy probes while quarantined.
    healthy_streak: u32,
}

impl NodeState {
    /// The node's candidate-index key: its estimated load over its top in
    /// 2^20 fixed point. Advisory ordering only — admission never reads it.
    fn index_key(&self) -> u64 {
        ((self.index_effective as u128 * (1u128 << 20)) / self.idle.top.max(1) as u128)
            .min(u64::MAX as u128) as u64
    }
}

/// A node's memoized probe simulation, with the view last read from it.
/// Clearing the node's probe clears both: every change to what a view
/// reads — the node's schedule, its faults, the assignment of a job to one
/// of its slots — comes with a crash or an assignment on the node.
struct Probe {
    out: Arc<ScenarioOutcome>,
    /// The last view read from `out`, and its instant in ms.
    last: Option<(u64, NodeView)>,
}

impl Probe {
    fn new(out: Arc<ScenarioOutcome>) -> Self {
        Probe { out, last: None }
    }
}

/// Keeps in `best` the less pressured of it and `v`: exact integer
/// comparison of `effective/top` ratios (`eff_a * top_b` vs
/// `eff_b * top_a`), ties to `best`, the view read first.
fn keep_least(best: &mut Option<NodeView>, v: NodeView) {
    let better = best.is_none_or(|b| {
        v.effective() as u128 * (b.summary.top as u128)
            < b.effective() as u128 * (v.summary.top as u128)
    });
    if better {
        *best = Some(v);
    }
}

/// One node's state as seen by a scheduling decision at some instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeView {
    node: usize,
    summary: PressureSummary,
    /// Summed demand estimates of this node's assigned, unfinished jobs.
    reserved: u64,
}

impl NodeView {
    /// The load the placer ranks and admits against: committed memory or
    /// outstanding reservations, whichever is larger (reservations cover
    /// placed jobs that have not grown into their demand yet; `used` covers
    /// jobs that outgrew their estimate).
    fn effective(&self) -> u64 {
        self.summary.used.max(self.reserved)
    }
}

/// What a node's probe endpoint answered. The *endpoint* is the fiction
/// the fault plan degrades: authoritative node state (the simulation) is
/// always intact underneath, but a flapping endpoint serves the summary it
/// captured when the flap started — and past the configured stale window
/// the scheduler refuses that and pays for an authoritative re-read.
enum ProbeRead {
    /// The endpoint is healthy: the view is authoritative at `t`.
    Fresh(NodeView),
    /// The endpoint is flapping but its stale summary (captured at flap
    /// start) is inside [`STALE_WINDOW`] — tolerated.
    Stale(NodeView),
    /// The endpoint is flapping and its summary is too old to act on.
    Unreachable,
}

struct Fleet<'a> {
    scenario: &'a Scenario,
    base_cfg: MachineConfig,
    fleet: &'a FleetConfig,
    nodes: Vec<NodeState>,
    /// The placement log, recorded through [`Fleet::record`].
    trace: TraceLog,
    /// The fleet oracle, fed each event as [`Fleet::record`] stores it.
    checker: FleetChecker,
    /// Final `(node, slot in that node's app list)` per job.
    assignment: Vec<Option<(usize, usize)>>,
    deferrals: Vec<u32>,
    migrations: Vec<u32>,
    gave_up: Vec<bool>,
    /// Per-job node-loss requeues (bounded by the retry budget).
    reschedules: Vec<u32>,
    /// Jobs abandoned after node loss exhausted their retry budget.
    orphaned: Vec<bool>,
    /// Probe-flap windows per node, from the fault plan.
    flaps: HashMap<usize, Vec<ProbeFlap>>,
    /// Running cost of the injected faults.
    degradation: FleetDegradationReport,
    /// The candidate index: every available node (alive and not
    /// quarantined) as its [`packed`] `(index_key, node)`, ascending =
    /// least estimated pressure first, ties to the lower node index.
    index: BTreeSet<u128>,
    /// The placement time the candidate index was last bulk-refreshed at
    /// (the index decays as simulated time passes — see [`Fleet::refresh`]).
    index_fresh_ms: Option<u64>,
    /// Probed node worlds to resume from, by the run-cache key of the run
    /// of the schedule each holds.
    checkpoints: HashMap<u128, Checkpoint>,
    /// Test seam: places every arrival on this node without admission
    /// control, so the rebalance tests can co-locate jobs.
    #[cfg(test)]
    pin: Option<usize>,
    /// Every node key [`Fleet::simulate`] looked up, mapped to its
    /// schedule's content key, and back: the two key families must
    /// partition the schedules alike ([`Fleet::check_key`]).
    #[cfg(test)]
    key_pairs: [HashMap<u128, u128>; 2],
    /// The clock of every checkpoint world a run resumed from, in order.
    #[cfg(test)]
    resumed_from: Vec<SimTime>,
    /// The timeline samples this fleet's node runs stored themselves.
    #[cfg(test)]
    stored_samples: usize,
}

impl<'a> Fleet<'a> {
    fn new(scenario: &'a Scenario, base_cfg: MachineConfig, fleet: &'a FleetConfig) -> Fleet<'a> {
        let njobs = scenario.len();
        let mut degradation = FleetDegradationReport::default();
        let mut flaps: HashMap<usize, Vec<ProbeFlap>> = HashMap::new();
        for f in &fleet.faults.flaps {
            if f.node < fleet.nodes.len() {
                flaps.entry(f.node).or_default().push(*f);
            } else {
                degradation.faults_unapplied += 1;
            }
        }
        // Per distinct node size: the idle summary and the node key header.
        assert!(
            fleet.nodes.len() <= u32::MAX as usize,
            "the candidate index packs a node index into 32 bits"
        );
        let name = format!("{}::sched", scenario.name);
        let mut sizes: HashMap<u64, (PressureSummary, u128)> = HashMap::new();
        let mut nodes = Vec::with_capacity(fleet.nodes.len());
        for spec in &fleet.nodes {
            let (summary, header) = *sizes.entry(spec.phys_total).or_insert_with(|| {
                let cfg = sched_node_cfg(base_cfg, spec.phys_total).with_setting(&Setting::m3(0));
                let monitor = cfg
                    .monitor
                    .unwrap_or_else(|| MonitorConfig::scaled(cfg.phys_total));
                (
                    Monitor::new(monitor).pressure_summary(0),
                    key_header(&name, &cfg),
                )
            });
            nodes.push(NodeState {
                phys_total: spec.phys_total,
                apps: Vec::new(),
                faults: FaultPlan::none(),
                key: NodeKey::new(header),
                red_since: None,
                probe: None,
                idle: summary,
                index_effective: 0,
                dead: None,
                quarantined: false,
                fail_streak: 0,
                healthy_streak: 0,
            });
        }
        let index = (0..nodes.len()).map(|n| packed(0, n)).collect();
        Fleet {
            scenario,
            base_cfg,
            fleet,
            nodes,
            trace: TraceLog::new(),
            checker: FleetOracle::new(GRACE.as_millis(), DEFER_INTERVAL.as_millis()).checker(),
            assignment: vec![None; njobs],
            deferrals: vec![0; njobs],
            migrations: vec![0; njobs],
            gave_up: vec![false; njobs],
            reschedules: vec![0; njobs],
            orphaned: vec![false; njobs],
            flaps,
            degradation,
            index,
            index_fresh_ms: None,
            checkpoints: HashMap::new(),
            #[cfg(test)]
            pin: None,
            #[cfg(test)]
            key_pairs: Default::default(),
            #[cfg(test)]
            resumed_from: Vec::new(),
            #[cfg(test)]
            stored_samples: 0,
        }
    }

    /// Records a scheduler event: the fleet oracle observes it, then the
    /// placement log stores it.
    fn record(&mut self, t: SimTime, pid: u64, data: TraceData) {
        let e = TraceEvent { t, pid, data };
        self.checker.observe(&e);
        self.trace.record(e.t, e.pid, e.data);
    }

    /// True if the node may be probed for placement and targeted: alive
    /// and not quarantined.
    fn available(&self, node: usize) -> bool {
        self.nodes[node].dead.is_none() && !self.nodes[node].quarantined
    }

    /// The sub-scenario of `apps`, a node's assignments. Deliberately
    /// *not* salted with the node index: the name is part of the run's
    /// content key (and of [`key_header`]), and nodes with identical
    /// schedules must share one entry.
    fn scenario_of(&self, apps: &[(usize, AppKind, SimDuration)]) -> Scenario {
        let classes = apps
            .iter()
            .map(|&(job, _, _)| self.scenario.class_of(job))
            .collect();
        Scenario {
            name: format!("{}::sched", self.scenario.name),
            apps: apps.iter().map(|&(_, kind, start)| (kind, start)).collect(),
            classes: Vec::new(),
        }
        .with_classes(classes)
    }

    /// Simulates node `node` over the full horizon (run cache, by the
    /// node's incremental key) and returns the outcome. A miss builds the
    /// node's sub-scenario and config, resumes the node's world
    /// ([`Fleet::world_at_latest_change`]) instead of simulating from
    /// t = 0, and keeps copies of it from before it runs on and from where
    /// its run ends as this schedule's checkpoint. The outcome equals the
    /// run from t = 0 byte for byte (DESIGN.md §9), which test builds check
    /// on every miss, with its timeline's sharing (`Fleet::check_timeline`);
    /// they check the key against the content key on every call.
    fn simulate(&mut self, node: usize) -> Arc<ScenarioOutcome> {
        let key = self.nodes[node].key.run();
        #[cfg(test)]
        self.check_key(node, key);
        let mut miss = None;
        let out = RUN_CACHE.get_or_compute_by_key(key, || {
            let state = &self.nodes[node];
            let scenario = self.scenario_of(&state.apps);
            let setting = Setting::m3(scenario.len());
            let cfg = sched_node_cfg(self.base_cfg, state.phys_total).with_setting(&setting);
            let (mut world, resumed_from) =
                self.world_at_latest_change(node, &scenario, &setting, cfg);
            // The checkpoint's copies leave out the timeline, whose prefix
            // the memoized outcome keeps. A run the cap ended keeps no end
            // world: every entry a later schedule could give it is due past
            // the cap and never runs.
            let at_change = kept(&mut world);
            world.run_to_end();
            let at_end = (!world.is_over()).then(|| kept(&mut world));
            miss = Some((at_change, at_end, resumed_from));
            let out = outcome(&scenario, &setting, world.finish());
            #[cfg(test)]
            assert_eq!(
                serde_json::to_string(&out).expect("serialize"),
                serde_json::to_string(&crate::runner::run_scenario_with_faults(
                    &scenario,
                    &setting,
                    cfg,
                    &state.faults
                ))
                .expect("serialize"),
                "node {node}: a resumed run must equal the run from t = 0"
            );
            out
        });
        if let Some((at_change, at_end, _resumed_from)) = miss {
            #[cfg(test)]
            {
                self.resumed_from.extend(_resumed_from);
                let resumed_at = _resumed_from.unwrap_or(SimTime::ZERO);
                self.check_timeline(node, &out.run.pressure_timeline, resumed_at);
            }
            let checkpoint = Checkpoint {
                at_change,
                at_end,
                outcome: Arc::clone(&out),
            };
            self.checkpoints.insert(key, checkpoint);
        }
        out
    }

    /// Node `node`'s world under `cfg`, with its whole schedule
    /// (`scenario`) pushed and stopped before its latest change instant,
    /// and the clock of the checkpoint world it resumed from (`None` for a
    /// fresh world). Every change to a node is due at the scheduler's
    /// current time, so the schedule is an earlier schedule plus the
    /// entries due at that instant: the world is a copy of the earlier
    /// schedule's checkpoint (its end world if that ended by the instant)
    /// given those entries, or a fresh world without one, from t = 0,
    /// advanced to the instant.
    fn world_at_latest_change(
        &self,
        node: usize,
        scenario: &Scenario,
        setting: &Setting,
        cfg: MachineConfig,
    ) -> (World, Option<SimTime>) {
        let (key, faults) = (&self.nodes[node].key, &self.nodes[node].faults);
        let changed_at = SimTime::ZERO + key.changed_at;
        let checkpoint = self.checkpoints.get(&key.resume());
        let entry = |(i, &(kind, start)): (usize, &(AppKind, SimDuration))| {
            schedule_entry(setting, i, kind, start)
        };
        let mut world = match checkpoint {
            Some(checkpoint) => {
                let mut world = checkpoint.resume(changed_at);
                let (k, m) = (key.earlier.napps as usize, key.earlier.ncrashes as usize);
                for (i, app) in scenario.apps.iter().enumerate().skip(k) {
                    world.push_app(entry((i, app)), scenario.class_of(i));
                }
                for ev in &faults.events[m..] {
                    world.push_fault(ev.clone());
                }
                world
            }
            None => {
                let schedule = scenario.apps.iter().enumerate().map(entry).collect();
                World::new(cfg, schedule, faults.clone(), &scenario.classes, None)
            }
        };
        let resumed_from = checkpoint.map(|_| world.now());
        world.advance_to(changed_at);
        (world, resumed_from)
    }

    /// The run cache's content key of the run of `apps` under `faults` on a
    /// node of `phys_total` bytes, as [`crate::parallel::run_key`] derives
    /// it: the reference the incremental node keys are checked against.
    #[cfg(test)]
    fn content_key(
        &self,
        phys_total: u64,
        apps: &[(usize, AppKind, SimDuration)],
        faults: &FaultPlan,
    ) -> u128 {
        crate::parallel::run_key(
            &self.scenario_of(apps),
            &Setting::m3(apps.len()),
            sched_node_cfg(self.base_cfg, phys_total),
            faults,
        )
    }

    /// Asserts that `key`, node `node`'s key, and its schedule's content
    /// key map one to one, over every key this fleet run has looked up.
    #[cfg(test)]
    fn check_key(&mut self, node: usize, key: u128) {
        let n = &self.nodes[node];
        let content = self.content_key(n.phys_total, &n.apps, &n.faults);
        let [by_node, by_content] = &mut self.key_pairs;
        assert_eq!(
            *by_node.entry(key).or_insert(content),
            content,
            "node {node}: one node key for two content keys"
        );
        assert_eq!(
            *by_content.entry(content).or_insert(key),
            key,
            "node {node}: one content key for two node keys"
        );
    }

    /// Asserts that no sample of node `node`'s run `timeline` repeats the
    /// summary before it and that the run stores itself only samples at or
    /// after `resumed_at`, the clock it resumed from; adds those samples to
    /// `stored_samples`.
    #[cfg(test)]
    fn check_timeline(&mut self, node: usize, timeline: &PressureTimeline, resumed_at: SimTime) {
        let samples: Vec<_> = timeline.iter().collect();
        assert!(
            samples.windows(2).all(|w| w[0].1 != w[1].1),
            "node {node}: a timeline sample repeats the one before it"
        );
        assert!(
            (timeline.own().iter()).all(|&(at, _)| at >= resumed_at.as_millis()),
            "node {node}: a run resumed at {resumed_at:?} stores an earlier sample"
        );
        self.stored_samples += timeline.own().len();
    }

    /// The node's probe, its simulation computed only if the node is
    /// dirty.
    fn probe_of(&mut self, node: usize) -> &mut Probe {
        if self.nodes[node].probe.is_none() {
            let out = self.simulate(node);
            self.nodes[node].probe = Some(Probe::new(out));
        }
        self.nodes[node]
            .probe
            .as_mut()
            .expect("probe just computed")
    }

    /// `(slot, job, kind)` of every job assigned to `node` and alive on it
    /// at `t_ms`, by the node's probe simulation.
    fn residents(&mut self, node: usize, t_ms: u64) -> Vec<(usize, usize, AppKind)> {
        if self.nodes[node].apps.is_empty() {
            return Vec::new();
        }
        self.probe_of(node);
        let state = &self.nodes[node];
        let out = &state.probe.as_ref().expect("probed").out;
        state
            .apps
            .iter()
            .enumerate()
            .filter(|&(slot, &(job, _, _))| {
                self.assignment[job] == Some((node, slot)) && out.run.apps[slot].alive_at(t_ms)
            })
            .map(|(slot, &(job, kind, _))| (slot, job, kind))
            .collect()
    }

    /// Reads node `node`'s state at time `t` — the incremental-probe read.
    /// Idle nodes answer from the precomputed per-size summary; loaded
    /// nodes answer from the cached probe simulation's pressure timeline
    /// (last sample at or before `t`). A loaded node's probe keeps the view
    /// it last answered, so a second read at the same instant is free.
    ///
    /// Besides the monitor's summary, the view carries the node's *reserved*
    /// demand: the summed demand estimates of jobs assigned to it that are
    /// alive at `t`. A freshly placed job has committed nothing yet, so
    /// admission must rank against `max(used, reserved)` or simultaneous
    /// arrivals would all pile onto the same empty node.
    fn view(&mut self, node: usize, t: SimTime) -> NodeView {
        let state = &self.nodes[node];
        if state.apps.is_empty() {
            return NodeView {
                node,
                summary: state.idle,
                reserved: 0,
            };
        }
        let t_ms = t.as_millis();
        if let Some((at, view)) = self.probe_of(node).last {
            if at == t_ms {
                return view;
            }
        }
        let state = &self.nodes[node];
        let out = &state.probe.as_ref().expect("probed").out;
        let summary = out.run.pressure_timeline.at(t_ms).unwrap_or(state.idle);
        let mut reserved = 0u64;
        for (slot, &(job, kind, _)) in state.apps.iter().enumerate() {
            let here = self.assignment[job] == Some((node, slot));
            if here && out.run.apps[slot].alive_at(t_ms) {
                reserved = reserved.saturating_add(demand_estimate(kind));
            }
        }
        let view = NodeView {
            node,
            summary,
            reserved,
        };
        self.nodes[node].probe.as_mut().expect("probed").last = Some((t_ms, view));
        view
    }

    /// The flap window covering `t` on `node`, if any.
    fn flap_at(&self, node: usize, t: SimTime) -> Option<ProbeFlap> {
        self.flaps
            .get(&node)?
            .iter()
            .copied()
            .find(|f| f.contains(t))
    }

    /// Reads node `node`'s probe endpoint at time `t`. Outside a flap
    /// window this is the authoritative view; inside one, the endpoint
    /// serves the summary it captured when the flap started — accepted
    /// while younger than [`STALE_WINDOW`], refused after.
    /// Every stale acceptance and every refusal is counted in the
    /// degradation report.
    fn endpoint(&mut self, node: usize, t: SimTime) -> ProbeRead {
        match self.flap_at(node, t) {
            None => ProbeRead::Fresh(self.view(node, t)),
            Some(f) => {
                let age = t.as_millis().saturating_sub(f.start.as_millis());
                if age <= STALE_WINDOW.as_millis() {
                    self.degradation.stale_probe_decisions += 1;
                    let frozen = SimTime::from_millis(f.start.as_millis());
                    ProbeRead::Stale(self.view(node, frozen))
                } else {
                    self.degradation.probe_failures += 1;
                    ProbeRead::Unreachable
                }
            }
        }
    }

    /// Advances node `node`'s health streaks after a traced probe. An
    /// `ok` read resets the failure streak and, on a quarantined node,
    /// counts toward re-admission; a failed read counts toward quarantine.
    /// Stale-but-tolerated reads are neutral and never reach here.
    fn note_health(&mut self, node: usize, t: SimTime, ok: bool) {
        if ok {
            self.nodes[node].fail_streak = 0;
            if !self.nodes[node].quarantined {
                return;
            }
            self.nodes[node].healthy_streak += 1;
            let streak = self.nodes[node].healthy_streak;
            if streak < QUARANTINE_HEALTHY {
                return;
            }
            self.nodes[node].quarantined = false;
            self.nodes[node].healthy_streak = 0;
            self.record(
                t,
                node as u64,
                TraceData::FleetQuarantine {
                    node: node as u64,
                    entered: false,
                    streak: streak as u64,
                },
            );
            if self.nodes[node].dead.is_none() {
                self.set_indexed(node, true);
            }
        } else {
            self.nodes[node].healthy_streak = 0;
            self.nodes[node].fail_streak += 1;
            let streak = self.nodes[node].fail_streak;
            if self.nodes[node].quarantined || streak < QUARANTINE_AFTER {
                return;
            }
            self.nodes[node].quarantined = true;
            self.degradation.quarantine_episodes += 1;
            self.record(
                t,
                node as u64,
                TraceData::FleetQuarantine {
                    node: node as u64,
                    entered: true,
                    streak: streak as u64,
                },
            );
            self.set_indexed(node, false);
        }
    }

    /// Reads node `node`'s pressure at time `t`, records the
    /// `fleet.pressure` event, heals the candidate index with the
    /// authoritative load, and advances the node's red-streak clock.
    /// Chaos-aware: a flapping endpoint serves its tolerated stale view;
    /// past the stale window the scheduler forces an authoritative
    /// re-read, which counts against the node's health (quarantine).
    fn probe(&mut self, node: usize, t: SimTime) -> NodeView {
        debug_assert!(self.nodes[node].dead.is_none(), "probed a dead node");
        let view = match self.endpoint(node, t) {
            ProbeRead::Fresh(v) => {
                self.note_health(node, t, true);
                v
            }
            ProbeRead::Stale(v) => v,
            ProbeRead::Unreachable => {
                self.note_health(node, t, false);
                self.view(node, t)
            }
        };
        self.update_index(node, view.effective());
        let summary = view.summary;
        let zone: TraceZone = summary.zone.into();
        self.record(
            t,
            node as u64,
            TraceData::FleetPressure {
                node: node as u64,
                zone,
                used: summary.used,
                reserved: view.reserved,
                high: summary.high,
                top: summary.top,
                escalations: summary.watchdog_escalations,
            },
        );
        match summary.zone {
            Zone::Red | Zone::AboveTop => {
                self.nodes[node].red_since.get_or_insert(t.as_millis());
            }
            _ => self.nodes[node].red_since = None,
        }
        view
    }

    /// Sets `node`'s load estimate and moves it to its new key in the
    /// candidate index. Unavailable nodes (dead or quarantined) keep their
    /// estimate current without re-entering the index — only
    /// [`Fleet::set_indexed`] re-admits.
    fn update_index(&mut self, node: usize, effective: u64) {
        if self.nodes[node].index_effective == effective {
            return; // most probes confirm the estimate
        }
        let old = self.nodes[node].index_key();
        self.nodes[node].index_effective = effective;
        let key = self.nodes[node].index_key();
        if key != old && self.available(node) {
            self.index.remove(&packed(old, node));
            self.index.insert(packed(key, node));
        }
    }

    /// Inserts `node` into the candidate index, or removes it.
    fn set_indexed(&mut self, node: usize, on: bool) {
        let entry = packed(self.nodes[node].index_key(), node);
        if on {
            self.index.insert(entry);
        } else {
            self.index.remove(&entry);
        }
    }

    /// Rebuilds the candidate index from the available nodes' keys.
    fn rebuild_index(&mut self) {
        self.index = (0..self.nodes.len())
            .filter(|&n| self.available(n))
            .map(|n| packed(self.nodes[n].index_key(), n))
            .collect();
    }

    /// Asserts the candidate index's invariant: it holds exactly
    /// `(index_key, node)` for the available nodes, and its head, the
    /// placement scan order, is the head of a fresh sort of them.
    #[cfg(test)]
    fn check_index(&self) {
        let mut want: Vec<(u64, usize)> = (0..self.nodes.len())
            .filter(|&n| self.available(n))
            .map(|n| (self.nodes[n].index_key(), n))
            .collect();
        want.sort_unstable();
        let have: Vec<(u64, usize)> = (self.index.iter())
            .map(|&entry| ((entry >> 32) as u64, entry as u32 as usize))
            .collect();
        assert_eq!(have, want, "the index disagrees with its nodes");
        let (head, len) = self.candidate_order();
        let fresh: Vec<usize> = want.iter().take(PROBE_BUDGET).map(|&(_, n)| n).collect();
        assert_eq!(
            head[..len],
            fresh[..],
            "the scan order is not the index's head"
        );
    }

    /// The bounded placement scan order: the least-estimated
    /// [`PROBE_BUDGET`] nodes, the head of the candidate index (never a walk
    /// over all N nodes), and how many there are.
    fn candidate_order(&self) -> ([usize; PROBE_BUDGET], usize) {
        let mut head = [0; PROBE_BUDGET];
        let mut len = 0;
        for (slot, &entry) in head.iter_mut().zip(&self.index) {
            *slot = entry as u32 as usize;
            len += 1;
        }
        (head, len)
    }

    /// Heals the whole candidate index with silent cached view reads at
    /// time `t` (no trace events; clean nodes answer from their cached
    /// probe timeline, idle nodes from the per-size summary), rebuilding
    /// it in one pass. Returns the least-pressured view that would admit
    /// `demand` more bytes, ties to the lower node index — so the defer
    /// fallback gets its pick from the same sweep. Records the refresh
    /// instant so at most one sweep runs per placement time.
    fn refresh(&mut self, t: SimTime, demand: u64) -> Option<NodeView> {
        self.index_fresh_ms = Some(t.as_millis());
        let mut best = None;
        for node in 0..self.nodes.len() {
            if !self.available(node) {
                continue;
            }
            self.nodes[node].index_effective = match self.endpoint(node, t) {
                ProbeRead::Fresh(v) | ProbeRead::Stale(v) => {
                    if Self::admits(&v, demand) {
                        keep_least(&mut best, v);
                    }
                    v.effective()
                }
                // Bulk sweeps are health-neutral (they must not quarantine
                // half the fleet in one pass); an unreachable node just
                // takes the pessimal key until a real probe heals it.
                ProbeRead::Unreachable => u64::MAX,
            };
        }
        self.rebuild_index();
        best
    }

    /// True if `demand` more bytes fit on this node without crossing its
    /// top of memory (and the node is not already red).
    fn admits(view: &NodeView, demand: u64) -> bool {
        matches!(view.summary.zone, Zone::Green | Zone::Yellow)
            && view.effective().saturating_add(demand) <= view.summary.top
    }

    /// Assigns job `job` to `node` starting at `t` and records the
    /// bookkeeping shared by placement and migration. The node's probe
    /// cache is invalidated (its schedule changed) and its advisory index
    /// estimate grows by the job's demand.
    fn assign(&mut self, job: usize, kind: AppKind, node: usize, t: SimTime) {
        let start = t.saturating_since(SimTime::ZERO);
        let slot = self.nodes[node].apps.len();
        self.nodes[node].apps.push((job, kind, start));
        let class = self.scenario.class_of(job);
        self.nodes[node].key.push_app(kind, start, class);
        self.assignment[job] = Some((node, slot));
        self.nodes[node].probe = None;
        let est = self.nodes[node]
            .index_effective
            .saturating_add(demand_estimate(kind));
        self.update_index(node, est);
    }

    /// Last-resort admission for a job nothing currently admits: evict
    /// more-expendable residents from one node so the job fits (DESIGN.md
    /// §16). A latency-critical job may preempt `Batch` reservations —
    /// never the other way around; the oracle's `sched.class.preempt`
    /// invariant flags any wrong-direction eviction.
    ///
    /// Victims are chosen on the node needing the fewest evictions (ties
    /// to the lower node index), latest-arriving first, until the demand
    /// heuristic says the job fits. Each victim is crashed at `t` exactly
    /// like a migration source and re-enters the arrival queue after the
    /// node-loss backoff (`fleet.reschedule` with `requeued`, so the
    /// oracle's lost-job resolution machinery tracks it; preemption never
    /// orphans — the victim always requeues). Returns the chosen node;
    /// the caller re-probes it and places only on an authoritative admit.
    fn try_preempt(
        &mut self,
        job: usize,
        demand: u64,
        t: SimTime,
        queue: &mut EventQueue,
    ) -> Option<usize> {
        if !self.scenario.is_classified() {
            return None;
        }
        let crit = self.scenario.class_of(job).crit;
        if crit != Criticality::LatencyCritical {
            return None;
        }
        let t_ms = t.as_millis();
        let mut best: Option<(usize, usize)> = None; // (victim count, node)
        let mut best_victims: Vec<(usize, usize, AppKind)> = Vec::new();
        for node in 0..self.nodes.len() {
            if !self.available(node) {
                continue;
            }
            let mut evictable = self.residents(node, t_ms);
            evictable.retain(|&(_, res, _)| self.scenario.class_of(res).crit == Criticality::Batch);
            if evictable.is_empty() {
                continue;
            }
            evictable.sort_by_key(|&(_, res, _)| Reverse(res)); // latest-arriving first
            let view = self.view(node, t);
            let mut freed = 0u64;
            let mut needed = None;
            for (i, &(_, _, kind)) in evictable.iter().enumerate() {
                freed = freed.saturating_add(demand_estimate(kind));
                let after = view.effective().saturating_sub(freed);
                if after.saturating_add(demand) <= view.summary.top {
                    needed = Some(i + 1);
                    break;
                }
            }
            let Some(n) = needed else { continue };
            if best.is_none_or(|(bn, _)| n < bn) {
                best = Some((n, node));
                evictable.truncate(n);
                best_victims = evictable;
            }
        }
        let (_, node) = best?;
        let mut freed = 0u64;
        for &(slot, victim, kind) in &best_victims {
            self.crash(node, slot, t);
            self.assignment[victim] = None;
            self.reschedules[victim] += 1;
            freed = freed.saturating_add(demand_estimate(kind));
            self.record(
                t,
                victim as u64,
                TraceData::SchedClassPreempt {
                    job: job as u64,
                    crit,
                    victim: victim as u64,
                    victim_crit: self.scenario.class_of(victim).crit,
                    node: node as u64,
                },
            );
            self.requeue(victim, node, t, queue);
        }
        let est = self.nodes[node].index_effective.saturating_sub(freed);
        self.update_index(node, est);
        Some(node)
    }

    /// Records job `job`'s admission onto `node`, backed by the pressure
    /// snapshot `summary` the placement probed, and assigns it.
    fn place(
        &mut self,
        job: usize,
        node: usize,
        summary: PressureSummary,
        demand: u64,
        attempt: u32,
        t: SimTime,
    ) {
        self.record(
            t,
            job as u64,
            TraceData::FleetPlace {
                job: job as u64,
                node: node as u64,
                used: summary.used,
                demand,
                top: summary.top,
            },
        );
        self.deferrals[job] = attempt;
        self.assign(job, self.scenario.apps[job].0, node, t);
    }

    fn on_place(&mut self, job: usize, attempt: u32, t: SimTime, queue: &mut EventQueue) {
        let kind = self.scenario.apps[job].0;
        let demand = demand_estimate(kind);
        #[cfg(test)]
        if let Some(node) = self.pin {
            let summary = self.probe(node, t).summary;
            self.place(job, node, summary, demand, attempt, t);
            return;
        }
        // A job's final attempt must see every node (the no-starvation
        // guarantee: give-up implies nothing anywhere admits the job).
        let exhaustive = attempt >= self.fleet.max_defers;
        // Index keys go stale as simulated time passes (a node that drained
        // since its last probe keeps its old high key until something reads
        // it again), so the first placement at each new instant bulk-heals
        // the index with silent cached view reads — no trace events, no new
        // simulations for clean nodes. Freshly healed, ties in the key
        // order break by node index, which keeps placement patterns — and
        // with them the set of distinct node schedules the content-
        // addressed run cache must actually simulate — regular across
        // arrival bursts of any size.
        if !exhaustive && self.index_fresh_ms != Some(t.as_millis()) {
            self.refresh(t, 0);
        }
        let all: Vec<usize>;
        let head;
        let order: &[usize] = if exhaustive {
            all = (0..self.nodes.len())
                .filter(|&n| self.available(n))
                .collect();
            &all
        } else {
            head = self.candidate_order();
            &head.0[..head.1]
        };
        // The choice is the view that backs the placement: the probe that
        // found the node, or the re-probe of a node a sweep or a
        // preemption found.
        let mut choice = None;
        let (mut probed, mut feasible) = (0, 0);
        for &node in order {
            if !self.available(node) {
                continue;
            }
            let v = self.probe(node, t);
            if self.nodes[node].quarantined {
                // The probe itself tipped the node into quarantine (its
                // endpoint was unreachable): not a candidate.
                continue;
            }
            probed += 1;
            if Self::admits(&v, demand) {
                feasible += 1;
                keep_least(&mut choice, v);
            }
            if !exhaustive && (feasible >= PLACE_CANDIDATES || probed >= PROBE_BUDGET) {
                break;
            }
        }
        // The index is advisory and decays: before deferring, heal it with
        // a full silent sweep and retry the pick. Only a genuinely full
        // fleet defers, and the next scan's index is fresh.
        if choice.is_none() && !exhaustive {
            if let Some(v) = self.refresh(t, demand) {
                // Re-read through `probe` so the placement is backed by a
                // traced pressure snapshot like every other admission.
                choice = Some(self.probe(v.node, t));
            }
        }
        // Nothing admits the job outright: a latency-critical job may
        // evict Batch reservations instead of deferring. The preempted
        // node is re-read through `probe`, and the job still only places
        // on an authoritative admit — if the freed memory has not surfaced
        // in the pressure timeline yet, the job defers once more and its
        // retry lands on the now-lighter node.
        if choice.is_none() {
            if let Some(node) = self.try_preempt(job, demand, t, queue) {
                let v = self.probe(node, t);
                if Self::admits(&v, demand) {
                    choice = Some(v);
                }
            }
        }
        match choice {
            Some(v) => self.place(job, v.node, v.summary, demand, attempt, t),
            None if attempt >= self.fleet.max_defers => {
                self.deferrals[job] = attempt;
                self.gave_up[job] = true;
                self.record(
                    t,
                    job as u64,
                    TraceData::FleetGiveUp {
                        job: job as u64,
                        attempts: attempt as u64 + 1,
                        demand,
                    },
                );
            }
            None => {
                let retry = SimTime::from_millis(t.as_millis() + DEFER_INTERVAL.as_millis());
                self.record(
                    t,
                    job as u64,
                    TraceData::FleetDefer {
                        job: job as u64,
                        attempt: attempt as u64 + 1,
                        retry_at_ms: retry.as_millis(),
                    },
                );
                queue.insert(
                    (retry.as_millis(), CLASS_PLACE, job as u64),
                    Event::Place {
                        job,
                        attempt: attempt + 1,
                    },
                );
            }
        }
    }

    fn on_rebalance(&mut self, check: u32, t: SimTime) {
        // Round-robin refresh: check k covers range k-1 of `SHARD_SIZE`
        // nodes, wrapping around the fleet.
        let ranges = self.nodes.len().div_ceil(SHARD_SIZE);
        let lo = (check as usize - 1) % ranges * SHARD_SIZE;
        let mut due_nodes: Vec<usize> = (lo..(lo + SHARD_SIZE).min(self.nodes.len())).collect();
        // Dead nodes are past probing; quarantined ones stay in the sweep —
        // the rebalance cadence is exactly the health-check cadence their
        // re-admission streak builds on.
        due_nodes.retain(|&n| self.nodes[n].dead.is_none());
        let mut views: HashMap<usize, NodeView> = HashMap::new();
        for &node in &due_nodes {
            let v = self.probe(node, t);
            views.insert(node, v);
        }
        let grace = GRACE.as_millis();
        let t_ms = t.as_millis();
        for &node in &due_nodes {
            let Some(since) = self.nodes[node].red_since else {
                continue;
            };
            if t_ms.saturating_sub(since) < grace {
                continue;
            }
            let red_for = t_ms.saturating_sub(since);
            // Victim: the most expendable job alive on this node at `t`
            // with migration budget left — Batch moves before Standard,
            // Standard before LatencyCritical — and within a class the
            // lowest-priority (latest-arriving) one. Unclassified
            // scenarios collapse to the pure latest-arriving rule.
            let victim = self
                .residents(node, t_ms)
                .into_iter()
                .filter(|&(_, job, _)| self.migrations[job] < MAX_MIGRATIONS)
                .max_by_key(|&(_, job, _)| (self.scenario.class_of(job).crit.expendability(), job));
            let Some((slot, job, kind)) = victim else {
                continue;
            };
            // Target: least-pressured feasible node other than the source,
            // found by the same bounded scan placement uses (views probed
            // this check are reused, not re-recorded).
            let demand = demand_estimate(kind);
            let mut best = None;
            let (mut scanned, mut feasible) = (0, 0);
            let (head, len) = self.candidate_order();
            for &cand in &head[..len] {
                if cand == node || !self.available(cand) {
                    continue;
                }
                let v = match views.get(&cand) {
                    Some(v) => *v,
                    None => {
                        let v = self.probe(cand, t);
                        views.insert(cand, v);
                        v
                    }
                };
                if self.nodes[cand].quarantined {
                    continue; // the probe itself quarantined the candidate
                }
                scanned += 1;
                if Self::admits(&v, demand) {
                    feasible += 1;
                    keep_least(&mut best, v);
                }
                if feasible >= PLACE_CANDIDATES || scanned >= PROBE_BUDGET {
                    break;
                }
            }
            let Some(NodeView { node: target, .. }) = best else {
                continue; // nowhere better to go: migrating would not help
            };
            self.crash(node, slot, t);
            let est = self.nodes[node].index_effective.saturating_sub(demand);
            self.update_index(node, est);
            self.migrations[job] += 1;
            self.record(
                t,
                job as u64,
                TraceData::FleetMigrate {
                    job: job as u64,
                    from: node as u64,
                    to: target as u64,
                    red_for_ms: red_for,
                },
            );
            self.assign(job, kind, target, t);
        }
    }

    /// Crashes the job in `slot` of `node`'s app list at `t`, the
    /// scheduler's current time, and clears the node's probe.
    fn crash(&mut self, node: usize, slot: usize, t: SimTime) {
        let at = t.saturating_since(SimTime::ZERO);
        let faults = std::mem::take(&mut self.nodes[node].faults);
        self.nodes[node].faults = faults.with_crash(at, slot);
        self.nodes[node].key.push_crash(at, slot);
        self.nodes[node].probe = None;
    }

    /// Re-enters `job`, just lost from node `from`, into the arrival queue
    /// after its node-loss backoff, with a fresh admission attempt count
    /// (its defer budget is per placement attempt), and records the
    /// `fleet.reschedule` event.
    fn requeue(&mut self, job: usize, from: usize, t: SimTime, queue: &mut EventQueue) {
        let retries = self.reschedules[job];
        let retry_at = t.as_millis() + self.backoff_ms(job, retries);
        self.record(
            t,
            job as u64,
            TraceData::FleetReschedule {
                job: job as u64,
                from: from as u64,
                retries: retries as u64,
                retry_at_ms: retry_at,
                requeued: true,
            },
        );
        queue.insert(
            (retry_at, CLASS_PLACE, job as u64),
            Event::Place { job, attempt: 0 },
        );
    }

    /// The deterministic retry backoff for a job's `retries`-th node-loss
    /// requeue, ms: exponential in the retry count with jitter in
    /// `[0, base)` drawn from a counter-keyed [`SimRng`] — pure in
    /// `(BACKOFF_SEED, job, retries)`, so replays are byte-identical and
    /// co-lost jobs do not thunder back in lockstep.
    fn backoff_ms(&self, job: usize, retries: u32) -> u64 {
        let base = BACKOFF_BASE.as_millis();
        let exp = base.saturating_mul(1 << (retries.saturating_sub(1)).min(5));
        let seed = BACKOFF_SEED
            ^ (job as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (u64::from(retries) << 32);
        exp + SimRng::new(seed).gen_range(base)
    }

    /// Node `node` dies at `t`: every job alive on it is killed mid-run
    /// (a crash fault at the death instant, exactly like a migration
    /// source) and either re-enters the arrival queue after a backoff or,
    /// once its retry budget is spent, is given up on as orphaned.
    fn on_node_crash(&mut self, node: usize, t: SimTime, queue: &mut EventQueue) {
        if self.nodes[node].dead.is_some() {
            self.degradation.faults_unapplied += 1;
            return;
        }
        let t_ms = t.as_millis();
        // Which residents are alive is read from the pre-crash probe
        // simulation — before the crash faults below invalidate it.
        let lost = self.residents(node, t_ms);
        self.nodes[node].dead = Some(t_ms);
        self.nodes[node].red_since = None;
        self.set_indexed(node, false);
        self.degradation.nodes_lost += 1;
        self.record(
            t,
            node as u64,
            TraceData::FleetNodeLost {
                node: node as u64,
                jobs_lost: lost.len() as u64,
            },
        );
        for (slot, job, kind) in lost {
            self.crash(node, slot, t);
            self.assignment[job] = None;
            self.degradation.jobs_lost += 1;
            self.reschedules[job] += 1;
            let retries = self.reschedules[job];
            if retries > RETRY_BUDGET {
                self.orphaned[job] = true;
                self.degradation.jobs_orphaned += 1;
                self.record(
                    t,
                    job as u64,
                    TraceData::FleetReschedule {
                        job: job as u64,
                        from: node as u64,
                        retries: retries as u64,
                        retry_at_ms: 0,
                        requeued: false,
                    },
                );
                self.record(
                    t,
                    job as u64,
                    TraceData::FleetGiveUp {
                        job: job as u64,
                        attempts: self.deferrals[job] as u64 + 1,
                        demand: demand_estimate(kind),
                    },
                );
                continue;
            }
            self.degradation.jobs_rescheduled += 1;
            self.requeue(job, node, t, queue);
        }
    }

    /// Mid-horizon scheduler restart: every advisory structure — the
    /// candidate index, the red-streak clocks, the refresh stamp — dies
    /// with the old process and is rebuilt from authoritative node reads.
    /// Death and quarantine survive (they are node state, not scheduler
    /// state); an unreachable endpoint re-enters pessimistically at the
    /// maximal key until a real probe heals it.
    fn on_restart(&mut self, t: SimTime) {
        self.degradation.scheduler_restarts += 1;
        for node in 0..self.nodes.len() {
            self.nodes[node].red_since = None;
            if self.available(node) {
                self.degradation.index_rebuild_nodes += 1;
            }
        }
        // The sweep rebuilds the index from its reads.
        self.refresh(t, 0);
        // The stamp dies with the old process too, so the next placement
        // still sweeps, and counts that sweep's stale and failed reads.
        self.index_fresh_ms = None;
    }

    /// Builds the event queue (arrivals + fault injections + rebalance
    /// checks) and drains it.
    fn run_events(&mut self) {
        let njobs = self.scenario.len();
        let mut delay_ms = vec![0u64; njobs];
        for d in &self.fleet.faults.placement_delays {
            if d.job < njobs {
                delay_ms[d.job] += d.delay.as_millis();
            } else {
                self.degradation.faults_unapplied += 1;
            }
        }
        let mut arrivals = Vec::with_capacity(njobs);
        for (job, &(_, start)) in self.scenario.apps.iter().enumerate() {
            let at = start.as_millis() + delay_ms[job];
            if delay_ms[job] > 0 {
                self.degradation.placements_delayed += 1;
                self.degradation.placement_delay_ms += delay_ms[job];
            }
            if self.scenario.is_classified() {
                // Declare the job's class and SLO at submission: the
                // anchor the oracle checks every later class event
                // (preempt, SLO report) for consistency against.
                let class = self.scenario.class_of(job);
                self.record(
                    SimTime::from_millis(at),
                    job as u64,
                    TraceData::SchedClassAssign {
                        job: job as u64,
                        crit: class.crit,
                        slo_ms: class.slo_ms,
                    },
                );
            }
            arrivals.push((at, job));
        }
        let mut queue = EventQueue::new(arrivals);
        for (i, c) in self.fleet.faults.node_crashes.iter().enumerate() {
            if c.node < self.nodes.len() {
                queue.insert(
                    (c.at.as_millis(), CLASS_CRASH, i as u64),
                    Event::NodeCrash { node: c.node },
                );
            } else {
                self.degradation.faults_unapplied += 1;
            }
        }
        for (i, at) in self.fleet.faults.scheduler_restarts.iter().enumerate() {
            queue.insert((at.as_millis(), CLASS_RESTART, i as u64), Event::Restart);
        }
        for k in 1..=self.fleet.rebalance_checks {
            queue.insert(
                (
                    REBALANCE_PERIOD.as_millis() * k as u64,
                    CLASS_REBALANCE,
                    k as u64,
                ),
                Event::Rebalance { check: k },
            );
        }
        while let Some(((at_ms, _, _), event)) = queue.pop_first() {
            let t = SimTime::from_millis(at_ms);
            match event {
                Event::NodeCrash { node } => self.on_node_crash(node, t, &mut queue),
                Event::Restart => self.on_restart(t),
                Event::Place { job, attempt } => self.on_place(job, attempt, t, &mut queue),
                Event::Rebalance { check } => self.on_rebalance(check, t),
            }
            #[cfg(test)]
            self.check_index();
        }
    }
}

/// Where an event sorts: `(time_ms, class, index)`, the index being the
/// job of a placement, the check number of a rebalance check and the
/// position in the fault plan of a crash or restart. No two pending
/// events share a key: a job has at most one placement pending.
type EventKey = (u64, u8, u64);

/// The scheduler's event queue: pops events in [`EventKey`] order. The
/// arrivals are known before the run starts, so they are sorted once into
/// a list; a binary heap holds the rest — the fault and rebalance events
/// and every event made during the run (defers, requeues).
struct EventQueue {
    /// `(time_ms, job)` of every arrival, ascending.
    arrivals: Vec<(u64, usize)>,
    /// The first arrival not yet popped.
    next: usize,
    later: BinaryHeap<Reverse<(EventKey, Event)>>,
}

impl EventQueue {
    /// A queue of the arrivals `(time_ms, job)`, in any order.
    fn new(mut arrivals: Vec<(u64, usize)>) -> Self {
        arrivals.sort_unstable();
        EventQueue {
            arrivals,
            next: 0,
            later: BinaryHeap::new(),
        }
    }

    fn insert(&mut self, key: EventKey, event: Event) {
        self.later.push(Reverse((key, event)));
    }

    /// Removes and returns the event with the least key.
    fn pop_first(&mut self) -> Option<(EventKey, Event)> {
        let arrival = (self.arrivals.get(self.next))
            .map(|&(at, job)| (at, CLASS_PLACE, job as u64))
            .filter(|&key| self.later.peek().is_none_or(|Reverse((k, _))| key < *k));
        match arrival {
            Some(key) => {
                self.next += 1;
                let job = key.2 as usize;
                Some((key, Event::Place { job, attempt: 0 }))
            }
            None => self.later.pop().map(|Reverse(first)| first),
        }
    }
}

/// Runs `scenario` on the fleet described by `fleet`, under the fleet's
/// fault plan ([`FleetConfig::faults`]).
///
/// Requires an M3 `setting` — placement reacts to monitor pressure. Each
/// job is admitted onto one node, and [`FleetResult::jobs`] holds each
/// job's outcome on its final node, its runtime measured from its
/// *arrival*. Every node run takes `machine_cfg` at the node's size, with
/// no profile; its node trace is captured and checked when `machine_cfg`
/// captures one. Injected faults
/// — node crashes, flapping probe endpoints, delayed placements, scheduler
/// restarts — are accounted in [`FleetResult::degradation`], and
/// [`FleetOracle`]'s recovery invariants run on every trace. The run is
/// serial: it reads no worker count and spawns no thread.
pub fn run_fleet(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
    fleet: &FleetConfig,
) -> FleetResult {
    assert!(!fleet.nodes.is_empty(), "need at least one node");
    assert!(
        setting.is_m3(),
        "the fleet scheduler places by monitor pressure; run static \
         baselines on replicated workers with `run_cluster`"
    );
    let mut state = Fleet::new(scenario, machine_cfg, fleet);
    state.run_events();
    finish(state)
}

/// Folds a scheduled fleet into its result. Each non-empty node's final
/// run is the probe of its final schedule, per-job outcomes come from
/// those runs, and the violations are what the fleet checker found as the
/// placement log was recorded, then what each final run's checker found.
fn finish(mut state: Fleet) -> FleetResult {
    let scenario = state.scenario;
    let njobs = scenario.len();

    // Each non-empty node's final run, simulated here when no probe has
    // read its final schedule yet, then per-job outcomes out of each job's
    // final node.
    let finals: Vec<Option<Arc<ScenarioOutcome>>> = (0..state.nodes.len())
        .map(|node| {
            (!state.nodes[node].apps.is_empty()).then(|| Arc::clone(&state.probe_of(node).out))
        })
        .collect();

    let mut jobs = Vec::with_capacity(njobs);
    for job in 0..njobs {
        let arrival = SimTime::ZERO + scenario.apps[job].1;
        let class = scenario.class_of(job);
        let (node, runtime_ms, stall_ms, failure) = match state.assignment[job] {
            Some((node, slot)) => {
                let app = &finals[node].as_ref().expect("assigned node ran").run.apps[slot];
                let failure = app.failure();
                let rt = app
                    .finished
                    .filter(|_| failure.is_none())
                    .map(|f| f.saturating_since(arrival).as_millis());
                (Some(node), rt, app.stall.as_millis(), failure)
            }
            None if state.orphaned[job] => (None, None, 0, Some(JobFailure::NodeLost)),
            None => {
                debug_assert!(state.gave_up[job], "unassigned job must be resolved");
                (None, None, 0, Some(JobFailure::GaveUp))
            }
        };
        let runtime_s = runtime_ms.map(|ms| ms as f64 / 1000.0);
        let slo_met = runtime_ms.map(|ms| class.slo_ms == 0 || ms <= class.slo_ms);
        if scenario.is_classified() {
            if let (Some(ms), Some(met)) = (runtime_ms, slo_met) {
                // The job's SLO report, stamped at its completion instant;
                // the oracle re-derives `met` and the stall bound from it.
                state.record(
                    arrival + SimDuration::from_millis(ms),
                    job as u64,
                    TraceData::SchedClassSlo {
                        job: job as u64,
                        crit: class.crit,
                        slo_ms: class.slo_ms,
                        runtime_ms: ms,
                        stall_ms,
                        met,
                    },
                );
            }
        }
        jobs.push(JobOutcome {
            job,
            node,
            deferrals: state.deferrals[job],
            migrations: state.migrations[job],
            reschedules: state.reschedules[job],
            failure,
            runtime_s,
            crit: class.crit,
            slo_ms: class.slo_ms,
            stall_ms,
            slo_met,
        });
    }

    #[cfg(test)]
    assert_eq!(
        state.checker.observed(),
        state.trace.len(),
        "a fleet event was recorded past the checker"
    );
    let mut violations = state.checker.finish();
    for out in finals.iter().flatten() {
        violations.extend(out.run.violations.iter().cloned());
    }
    FleetResult {
        jobs,
        trace: state.trace,
        violations,
        degradation: state.degradation,
    }
}

static FLEET_CACHE: MemoCache<FleetResult> = MemoCache::new();

/// Current totals of the fleet-level memoization cache (the node runs a
/// fleet performs are additionally memoized by the node cache,
/// [`crate::parallel::cache_stats`]).
pub fn fleet_cache_stats() -> CacheStats {
    FLEET_CACHE.stats()
}

/// Content-addressed [`run_fleet`]: the fingerprint of the `(scenario,
/// setting, machine_cfg, fleet_cfg)` quadruple keys a process-wide cache
/// ([`MemoCache`]), and an identical earlier fleet run is returned as a
/// shared [`Arc`] without re-running the scheduler. The machine config is
/// normalized through [`MachineConfig::with_setting`] before keying, like
/// the node cache. The fleet config carries the fault plan, so chaos runs
/// never collide with clean cached results.
pub fn run_fleet_cached(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
    fleet: &FleetConfig,
) -> Arc<FleetResult> {
    let cfg = machine_cfg.with_setting(setting);
    FLEET_CACHE.get_or_compute(&(scenario, setting, &cfg, fleet), || {
        run_fleet(scenario, setting, machine_cfg, fleet)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{fleet_canonical, fleet_scale_scenario};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn quick_cfg() -> MachineConfig {
        let mut cfg = MachineConfig::stock_64gb();
        cfg.sample_period = None;
        cfg.max_time = SimDuration::from_secs(40_000);
        cfg
    }

    fn small_fleet() -> FleetConfig {
        let mut f = FleetConfig::homogeneous(3, 64 * GIB);
        f.rebalance_checks = 10;
        f
    }

    /// The node config of the rebalance tests: the paper's monitor with
    /// static thresholds. Adaptive ones chase a co-located pair's usage
    /// and leave the red zone within seconds, well inside [`GRACE`].
    fn static_cfg() -> MachineConfig {
        let mut cfg = quick_cfg();
        cfg.monitor = Some(MonitorConfig {
            adaptive: false,
            ..MonitorConfig::paper_64gb()
        });
        cfg
    }

    /// `scenario` scheduled on the rebalance tests' two nodes under
    /// [`static_cfg`], every arrival placed on node 0 with admission
    /// control skipped (the [`Fleet::pin`] seam). Returns the fleet after
    /// its last event.
    fn pinned<'a>(scenario: &'a Scenario, fleet: &'a FleetConfig) -> Fleet<'a> {
        let mut state = Fleet::new(scenario, static_cfg(), fleet);
        state.pin = Some(0);
        state.run_events();
        state
    }

    /// The cluster oracle's verdict on `trace`, as `run_fleet` checks it.
    fn fleet_violations(trace: &TraceLog) -> Vec<Violation> {
        FleetOracle::new(GRACE.as_millis(), DEFER_INTERVAL.as_millis()).check(trace)
    }

    /// `trace` with only the events `keep` maps to `Some`.
    fn rewritten(trace: &TraceLog, keep: impl Fn(&TraceData) -> Option<TraceData>) -> TraceLog {
        let mut out = TraceLog::new();
        for e in trace.events() {
            if let Some(data) = keep(&e.data) {
                out.record(e.t, e.pid, data);
            }
        }
        out
    }

    #[test]
    fn demand_estimates_follow_the_job_specs() {
        assert_eq!(
            demand_estimate(AppKind::KMeans),
            hibench::kmeans().working_set + hibench::kmeans().exec_demand
        );
        assert_eq!(
            demand_estimate(AppKind::GoCache),
            hibench::gocache_workload().full_bytes()
        );
        assert!(demand_estimate(AppKind::NWeight) > demand_estimate(AppKind::KMeans));
    }

    #[test]
    fn arrivals_spread_across_empty_nodes() {
        // Three staggered k-means jobs on three empty nodes: each placement
        // reserves its demand on the chosen node, so the next arrival
        // prefers a still-empty node and the jobs spread out 0, 1, 2.
        let scenario = Scenario::uniform("MMM", 120);
        let res = run_fleet(&scenario, &Setting::m3(3), quick_cfg(), &small_fleet());
        let nodes: Vec<Option<usize>> = res.jobs.iter().map(|j| j.node).collect();
        assert_eq!(nodes, vec![Some(0), Some(1), Some(2)]);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert!(res.class_mean().all_completed());
    }

    #[test]
    fn admission_defers_when_no_node_fits() {
        // Two n-weight jobs (47 GiB demand) on ONE 64-GiB node: the second
        // must defer until the first finishes, then run.
        let scenario = Scenario::uniform("WW", 0);
        let mut fleet = FleetConfig::homogeneous(1, 64 * GIB);
        fleet.rebalance_checks = 0;
        fleet.max_defers = 200; // keep retrying until the first W finishes
        let res = run_fleet(&scenario, &Setting::m3(2), quick_cfg(), &fleet);
        assert_eq!(res.jobs[0].deferrals, 0);
        assert!(res.jobs[1].deferrals > 0, "second W must wait");
        assert_ne!(res.jobs[1].failure, Some(JobFailure::GaveUp));
        assert!(res.violations.is_empty(), "{:?}", res.violations);
    }

    #[test]
    fn give_up_is_reported_not_silent() {
        // One node, zero retries allowed: the second W is given up on and
        // says so, and the first still completes.
        let scenario = Scenario::uniform("WW", 0);
        let mut fleet = FleetConfig::homogeneous(1, 64 * GIB);
        fleet.max_defers = 0;
        fleet.rebalance_checks = 0;
        let res = run_fleet(&scenario, &Setting::m3(2), quick_cfg(), &fleet);
        assert_eq!(res.jobs[1].failure, Some(JobFailure::GaveUp));
        assert_eq!(res.jobs[1].node, None);
        assert_eq!(res.jobs[1].runtime_s, None);
        let mean = res.class_mean();
        assert_eq!(mean.completed_apps, 1);
        assert_eq!(mean.failed_apps, 1);
        assert_eq!(mean.gave_up_apps, 1, "the failure reason is typed");
        assert!(
            res.trace
                .events()
                .iter()
                .any(|e| matches!(e.data, TraceData::FleetGiveUp { job: 1, .. })),
            "give-up must be in the placement log"
        );
        assert!(res.violations.is_empty(), "{:?}", res.violations);
    }

    #[test]
    fn heterogeneous_nodes_respect_their_own_tops() {
        // A small and a big node: n-weight (47 GiB) cannot fit on the 32-GiB
        // node (top ≈ 31 GiB), so it must land on the big one even though
        // both are empty and the small one has the lower index.
        let scenario = Scenario::uniform("W", 0);
        let mut fleet = FleetConfig::homogeneous(2, 32 * GIB);
        fleet.nodes[1] = NodeSpec {
            phys_total: 64 * GIB,
        };
        fleet.rebalance_checks = 0;
        let res = run_fleet(&scenario, &Setting::m3(1), quick_cfg(), &fleet);
        assert_eq!(res.jobs[0].node, Some(1));
        assert!(res.violations.is_empty(), "{:?}", res.violations);
    }

    #[test]
    fn idle_node_probes_never_simulate() {
        // An idle node's probe answers from the precomputed per-size
        // summary: no probe simulation is cached (or run) for it, and the
        // view is the idle state with nothing reserved.
        let scenario = Scenario::uniform("MM", 0);
        let fleet = small_fleet();
        let cfg = quick_cfg();
        let mut state = Fleet::new(&scenario, cfg, &fleet);
        let v = state.probe(2, SimTime::from_millis(1_000));
        assert!(
            state.nodes[2].probe.is_none(),
            "idle probe must not allocate a scenario run"
        );
        assert_eq!(v.summary, state.nodes[2].idle);
        assert_eq!(v.reserved, 0);
        assert_eq!(v.summary.used, 0);
        assert!(matches!(v.summary.zone, Zone::Green));
    }

    #[test]
    fn incremental_probes_match_whole_fleet_reprobing() {
        // Fleet `a` keeps whatever probe caches the scheduler run left
        // behind; fleet `b` ran identically but is then forced to
        // re-simulate every node from scratch. If dirty tracking ever
        // missed an invalidation, a cached view in `a` would diverge from
        // `b`'s fresh one.
        let scenario = fleet_canonical();
        let fleet = small_fleet();
        let cfg = quick_cfg();
        let mut a = Fleet::new(&scenario, cfg, &fleet);
        a.run_events();
        let mut b = Fleet::new(&scenario, cfg, &fleet);
        b.run_events();
        for node in 0..b.nodes.len() {
            b.nodes[node].probe = None; // whole-fleet re-probe
        }
        for node in 0..a.nodes.len() {
            for t_s in [0u64, 60, 600, 3_600, 20_000] {
                let t = SimTime::from_millis(t_s * 1000);
                assert_eq!(
                    a.view(node, t),
                    b.view(node, t),
                    "node {node} at {t_s}s: incremental view must equal re-probed view"
                );
            }
        }
    }

    /// One 64-GiB node given `apps` (k-means jobs at the given seconds)
    /// under `cfg`, run to its final schedule's run. Returns the clock of
    /// each checkpoint world a run resumed from and the final outcome.
    fn resumes(
        name: &str,
        apps: &[u64],
        cfg: MachineConfig,
    ) -> (Vec<SimTime>, Arc<ScenarioOutcome>) {
        let scenario = Scenario {
            name: name.to_string(),
            apps: apps
                .iter()
                .map(|&s| (AppKind::KMeans, SimDuration::from_secs(s)))
                .collect(),
            classes: Vec::new(),
        };
        let mut fleet = FleetConfig::homogeneous(1, 64 * GIB);
        fleet.rebalance_checks = 0;
        let mut state = Fleet::new(&scenario, cfg, &fleet);
        state.run_events();
        assert_eq!(state.nodes[0].apps.len(), apps.len(), "every job is placed");
        let out = state.simulate(0);
        (state.resumed_from, out)
    }

    #[test]
    fn a_run_resumes_from_where_the_earlier_run_ended() {
        // The second job arrives after the first has finished, so the
        // second schedule's run resumes from the world paused where the
        // first run ended, not from t = 0. The third arrives while the
        // second runs, so the last run resumes from the second job's
        // arrival. Names unique to this test keep every run a miss in the
        // shared cache.
        let (resumed, out) = resumes("end resume", &[0, 3_000, 3_001], quick_cfg());
        let first_ended = out.run.apps[0].ended.expect("the first job ends");
        assert_eq!(resumed, vec![first_ended, SimTime::from_secs(3_000)]);
        // A run the time cap ended keeps no end world: the next run
        // resumes from the earlier change instant.
        let mut capped = quick_cfg();
        capped.max_time = SimDuration::from_secs(30);
        let (resumed, out) = resumes("capped resume", &[0, 60], capped);
        assert_eq!(out.run.apps[0].ended, None, "the cap stops the first job");
        assert_eq!(resumed, vec![SimTime::ZERO]);
    }

    #[test]
    fn a_wave_fleet_stores_each_pressure_change_once() {
        // The timeline samples a small wave fleet's node runs store
        // themselves: each run keeps only the polls whose summary changed,
        // and a resumed run shares the samples before its resume instant
        // with the run it resumed from. With a sample at every poll and
        // every resumed run copying its prefix, this fleet stored 772,120
        // samples. Its scenario is unique to this test, so every node run
        // is a miss in the shared cache.
        let scenario = fleet_scale_scenario(64);
        let mut fleet = FleetConfig::homogeneous(64, 64 * GIB);
        for node in fleet.nodes.iter_mut().skip(3).step_by(4) {
            node.phys_total = 32 * GIB;
        }
        let mut cfg = quick_cfg();
        cfg.capture_trace = false;
        let mut state = Fleet::new(&scenario, cfg, &fleet);
        state.run_events();
        for node in 0..state.nodes.len() {
            if !state.nodes[node].apps.is_empty() {
                state.probe_of(node);
            }
        }
        assert_eq!(state.stored_samples, 36_406);
    }

    #[test]
    fn fleet_cache_returns_shared_result() {
        let scenario = fleet_canonical();
        let cfg = quick_cfg();
        let fleet = small_fleet();
        let setting = Setting::m3(scenario.len());
        let before = fleet_cache_stats();
        let a = run_fleet_cached(&scenario, &setting, cfg, &fleet);
        let b = run_fleet_cached(&scenario, &setting, cfg, &fleet);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        let delta = fleet_cache_stats().since(&before);
        assert!(delta.hits >= 1);
        assert!(delta.misses >= 1);
    }

    #[test]
    fn fleet_config_is_part_of_the_cache_key() {
        let scenario = Scenario::uniform("M", 0);
        let cfg = quick_cfg();
        let setting = Setting::m3(1);
        let a = run_fleet_cached(&scenario, &setting, cfg, &small_fleet());
        let mut other = small_fleet();
        other.max_defers += 1;
        let b = run_fleet_cached(&scenario, &setting, cfg, &other);
        assert!(
            !Arc::ptr_eq(&a, &b),
            "different fleet configs must not share a cache entry"
        );
    }

    #[test]
    #[should_panic(expected = "`run_cluster`")]
    fn scheduler_mode_rejects_static_settings() {
        let scenario = Scenario::uniform("M", 0);
        run_fleet(
            &scenario,
            &Setting::default_for(1),
            quick_cfg(),
            &small_fleet(),
        );
    }

    #[test]
    fn probe_less_placements_are_caught_by_the_oracle() {
        // A placer that never probes leaves no pressure snapshot behind its
        // placements. Stripping the snapshots from a real two-job run makes
        // that log; the cluster oracle must flag every placement in it.
        let scenario = Scenario::uniform("MM", 120);
        let mut fleet = FleetConfig::homogeneous(2, 64 * GIB);
        fleet.rebalance_checks = 0;
        let res = run_fleet(&scenario, &Setting::m3(2), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        let stripped = rewritten(&res.trace, |d| {
            (!matches!(d, TraceData::FleetPressure { .. })).then(|| d.clone())
        });
        let violations = fleet_violations(&stripped);
        let flagged = violations
            .iter()
            .filter(|v| v.invariant == "fleet.place.red")
            .count();
        assert_eq!(
            flagged, 2,
            "every probe-less placement must be flagged, got {violations:?}"
        );
    }

    #[test]
    fn red_node_triggers_migration_onto_the_idle_one() {
        // Pinning co-locates both n-weight jobs on node 0, which pushes it
        // into the red zone. Under static thresholds it stays red past the
        // grace window, and the rebalancer must migrate the newest job to
        // the idle node.
        let scenario = Scenario::uniform("WW", 60);
        let fleet = FleetConfig::homogeneous(2, 64 * GIB);
        let res = finish(pinned(&scenario, &fleet));
        assert_eq!(res.jobs[1].migrations, 1, "newest job is the victim");
        assert_eq!(res.jobs[1].node, Some(1), "it restarts on the idle node");
        assert_eq!(res.jobs[0].migrations, 0, "the older job stays put");
        let red_for = res.trace.events().iter().find_map(|e| match e.data {
            TraceData::FleetMigrate { red_for_ms, .. } => Some(red_for_ms),
            _ => None,
        });
        assert!(
            red_for.is_some_and(|ms| ms >= GRACE.as_millis()),
            "the migration waits out the grace window: {red_for:?}"
        );
        assert!(res.violations.is_empty(), "{:?}", res.violations);
    }

    // ---- mixed criticality --------------------------------------------

    use crate::scenario::JobClass;

    #[test]
    fn latency_critical_preempts_batch_instead_of_starving() {
        // One 64-GiB node fully reserved by a Batch n-weight; a
        // latency-critical k-means arrives a minute later. Without
        // preemption the k-means would defer until the n-weight finishes;
        // with it, the batch job is evicted, re-queued, and the critical
        // job takes the node.
        let scenario = Scenario::uniform("WM", 60).with_classes(vec![
            JobClass::new(Criticality::Batch, 0),
            JobClass::new(Criticality::LatencyCritical, 0),
        ]);
        let mut fleet = FleetConfig::homogeneous(1, 64 * GIB);
        fleet.rebalance_checks = 0;
        fleet.max_defers = 200;
        let res = run_fleet(&scenario, &Setting::m3(2), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        let preempts = res
            .trace
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.data,
                    TraceData::SchedClassPreempt {
                        job: 1,
                        victim: 0,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(preempts, 1, "the critical job must preempt the batch one");
        assert_eq!(res.jobs[1].failure, None, "the critical job completes");
        assert_eq!(res.jobs[1].crit, Criticality::LatencyCritical);
        assert_eq!(
            res.jobs[0].reschedules, 1,
            "the batch victim re-enters the queue"
        );
        assert!(
            res.trace
                .events()
                .iter()
                .any(|e| matches!(e.data, TraceData::SchedClassAssign { job: 1, .. })),
            "classified jobs declare their class at submission"
        );
    }

    #[test]
    fn wrong_direction_preemption_is_caught_by_the_oracle() {
        // The real scheduler never lets a Standard job evict a resident
        // latency-critical one: the Standard job simply waits its turn.
        let scenario = Scenario::uniform("WW", 60).with_classes(vec![
            JobClass::new(Criticality::LatencyCritical, 0),
            JobClass::new(Criticality::Standard, 0),
        ]);
        let mut fleet = FleetConfig::homogeneous(1, 64 * GIB);
        fleet.rebalance_checks = 0;
        fleet.max_defers = 200;
        let res = run_fleet(&scenario, &Setting::m3(2), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert!(
            !res.trace
                .events()
                .iter()
                .any(|e| matches!(e.data, TraceData::SchedClassPreempt { .. })),
            "a Standard job must not preempt a critical resident"
        );
        // A class-blind scheduler would. Relabel a real preemption that way
        // (the critical preemptor as Standard, its Batch victim as
        // critical) and the cluster oracle must flag the eviction, and
        // nothing else.
        let scenario = Scenario::uniform("WM", 60).with_classes(vec![
            JobClass::new(Criticality::Batch, 0),
            JobClass::new(Criticality::LatencyCritical, 0),
        ]);
        let res = run_fleet(&scenario, &Setting::m3(2), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        let class = |job: u64| match job {
            0 => Criticality::LatencyCritical,
            _ => Criticality::Standard,
        };
        let relabelled = rewritten(&res.trace, |d| {
            let mut d = d.clone();
            match &mut d {
                TraceData::SchedClassAssign { job, crit, .. }
                | TraceData::SchedClassSlo { job, crit, .. } => *crit = class(*job),
                TraceData::SchedClassPreempt {
                    job,
                    crit,
                    victim,
                    victim_crit,
                    ..
                } => {
                    *crit = class(*job);
                    *victim_crit = class(*victim);
                }
                _ => {}
            }
            Some(d)
        });
        let violations = fleet_violations(&relabelled);
        assert!(
            !violations.is_empty()
                && violations
                    .iter()
                    .all(|v| v.invariant == "sched.class.preempt"),
            "a wrong-direction eviction must be flagged, got {violations:?}"
        );
    }

    #[test]
    fn migration_victim_is_the_most_expendable_resident() {
        // The co-location scenario of `red_node_triggers_migration`, with
        // classes and the second job 30 s after the first: the *older* job
        // is Standard, the newer one critical. The class-aware rebalancer
        // must invert the legacy latest-arriving choice and move the
        // more-expendable older job.
        let scenario = Scenario::uniform("WW", 30).with_classes(vec![
            JobClass::new(Criticality::Standard, 0),
            JobClass::new(Criticality::LatencyCritical, 0),
        ]);
        let fleet = FleetConfig::homogeneous(2, 64 * GIB);
        let res = finish(pinned(&scenario, &fleet));
        assert_eq!(res.jobs[0].migrations, 1, "the standard job is the victim");
        assert_eq!(res.jobs[1].migrations, 0, "the critical job stays put");
        assert!(res.violations.is_empty(), "{:?}", res.violations);
    }

    #[test]
    fn class_mean_slices_the_fleet_by_criticality() {
        // Three staggered k-means on three nodes: one critical with a
        // generous SLO, one standard, one batch. Every class completes,
        // and the per-class report accounts each slice separately.
        let scenario = Scenario::uniform("MMM", 120).with_classes(vec![
            JobClass::new(Criticality::LatencyCritical, 40_000_000),
            JobClass::new(Criticality::Standard, 0),
            JobClass::new(Criticality::Batch, 0),
        ]);
        let res = run_fleet(&scenario, &Setting::m3(3), quick_cfg(), &small_fleet());
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        let mean = res.class_mean();
        assert_eq!(mean.classes.len(), 3, "one slice per populated class");
        let lc = mean.class(Criticality::LatencyCritical).expect("lc slice");
        assert_eq!((lc.jobs, lc.completed, lc.failed), (1, 1, 0));
        assert_eq!(lc.slo_jobs, 1);
        assert_eq!(lc.slo_met, 1, "a 40,000-second SLO holds trivially");
        let batch = mean.class(Criticality::Batch).expect("batch slice");
        assert_eq!(batch.slo_jobs, 0);
        assert_eq!(batch.slo_met, 1, "no SLO counts as met");
        assert!(res.trace.events().iter().any(|e| matches!(
            e.data,
            TraceData::SchedClassSlo {
                job: 0,
                met: true,
                ..
            }
        )));
    }

    // ---- fleet chaos --------------------------------------------------

    #[test]
    fn node_crash_reschedules_resident_jobs() {
        // One k-means job lands on node 0; the node dies a minute in. The
        // job must re-enter the queue, land elsewhere, and complete — with
        // the loss fully accounted in the degradation report.
        let scenario = Scenario::uniform("M", 0);
        let mut fleet = small_fleet();
        fleet.faults = FleetFaultPlan::none().with_node_crash(SimDuration::from_secs(60), 0);
        let res = run_fleet(&scenario, &Setting::m3(1), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert_eq!(res.degradation.nodes_lost, 1);
        assert_eq!(res.degradation.jobs_lost, 1);
        assert_eq!(res.degradation.jobs_rescheduled, 1);
        assert_eq!(res.degradation.jobs_orphaned, 0);
        assert_eq!(res.jobs[0].reschedules, 1);
        assert_ne!(res.jobs[0].node, Some(0), "the dead node cannot host it");
        assert_eq!(res.jobs[0].failure, None, "the job completes elsewhere");
        assert!(res.jobs[0].runtime_s.is_some());
        assert!(res.trace.events().iter().any(|e| matches!(
            e.data,
            TraceData::FleetNodeLost {
                node: 0,
                jobs_lost: 1
            }
        )));
        assert!(res.trace.events().iter().any(|e| matches!(
            e.data,
            TraceData::FleetReschedule {
                job: 0,
                from: 0,
                requeued: true,
                ..
            }
        )));
    }

    #[test]
    fn online_checks_equal_replays_of_the_stored_logs() {
        // A capturing fleet whose nodes die: the violations its checkers
        // found as the events were recorded must be what replaying the
        // stored logs finds, the fleet log first, then each final node
        // run's trace in node order.
        let scenario = fleet_canonical();
        let mut fleet = small_fleet();
        fleet.faults = FleetFaultPlan::none()
            .with_node_crash(SimDuration::from_secs(120), 1)
            .with_node_crash(SimDuration::from_secs(600), 0);
        let cfg = quick_cfg();
        assert!(cfg.capture_trace);
        let mut state = Fleet::new(&scenario, cfg, &fleet);
        state.run_events();
        let mut finals: Vec<(u64, Arc<ScenarioOutcome>)> = Vec::new();
        for node in 0..state.nodes.len() {
            if !state.nodes[node].apps.is_empty() {
                let out = Arc::clone(&state.probe_of(node).out);
                finals.push((state.nodes[node].phys_total, out));
            }
        }
        let res = finish(state);
        assert_eq!(res.degradation.nodes_lost, 2);
        let mut replayed = fleet_violations(&res.trace);
        for (phys_total, out) in &finals {
            assert!(!out.run.trace.is_empty(), "a node run captures its trace");
            let monitor = sched_node_cfg(cfg, *phys_total)
                .with_setting(&Setting::m3(1))
                .monitor;
            replayed.extend(m3_oracle::Oracle::paper(monitor).check(&out.run.trace));
        }
        assert_eq!(res.violations, replayed);
    }

    #[test]
    fn spent_retry_budget_orphans_lost_jobs() {
        // Nodes 0-3 die one after another while the job runs on each: the
        // first `RETRY_BUDGET` (3) losses requeue it, and the fourth
        // orphans it.
        let scenario = Scenario::uniform("M", 0);
        let mut fleet = FleetConfig::homogeneous(5, 64 * GIB);
        fleet.rebalance_checks = 10;
        for (node, at) in [60, 300, 600, 1_000].into_iter().enumerate() {
            fleet.faults = fleet
                .faults
                .with_node_crash(SimDuration::from_secs(at), node);
        }
        let res = run_fleet(&scenario, &Setting::m3(1), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert_eq!(res.degradation.jobs_lost, u64::from(RETRY_BUDGET) + 1);
        assert_eq!(res.degradation.jobs_orphaned, 1);
        assert_eq!(res.degradation.jobs_rescheduled, u64::from(RETRY_BUDGET));
        assert_eq!(res.jobs[0].node, None);
        assert_eq!(res.jobs[0].failure, Some(JobFailure::NodeLost));
        let mean = res.class_mean();
        assert_eq!(mean.node_lost_apps, 1);
        assert!(res.trace.events().iter().any(|e| matches!(
            e.data,
            TraceData::FleetReschedule {
                job: 0,
                requeued: false,
                ..
            }
        )));
        assert!(res
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.data, TraceData::FleetGiveUp { job: 0, .. })));
    }

    #[test]
    fn flapping_node_is_quarantined_and_readmitted() {
        // Node 1's endpoint flaps from 30 s to 1,030 s. Once its summary
        // is older than the stale window, the rebalance sweep's forced
        // re-reads quarantine it, and after the flap ends its healthy
        // probes re-admit it. The single job placed at t=0 is unaffected.
        let scenario = Scenario::uniform("M", 0);
        let mut fleet = FleetConfig::homogeneous(2, 64 * GIB);
        fleet.rebalance_checks = 30;
        fleet.faults = FleetFaultPlan::none().with_flap(
            1,
            SimDuration::from_secs(30),
            SimDuration::from_secs(1_000),
        );
        let res = run_fleet(&scenario, &Setting::m3(1), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert_eq!(res.degradation.quarantine_episodes, 1);
        assert!(res.degradation.probe_failures > 0);
        let at = |entered: bool| {
            res.trace.events().iter().find_map(|e| match e.data {
                TraceData::FleetQuarantine {
                    node: 1,
                    entered: x,
                    ..
                } if x == entered => Some(e.t.as_secs()),
                _ => None,
            })
        };
        // The summary turns stale at 150 s, so the checks at 180 and 240 s
        // fail their reads; three healthy checks follow the flap.
        assert_eq!(at(true), Some(240), "the flapping node must be quarantined");
        assert_eq!(at(false), Some(1_200), "healthy probes must re-admit it");
        assert_eq!(res.jobs[0].failure, None);
    }

    #[test]
    fn stale_probes_are_tolerated_inside_the_window() {
        // Both nodes flap from t=0 for exactly the stale window: every
        // read is served from the flap-start summary, nothing fails, and
        // nothing is quarantined.
        let scenario = Scenario::uniform("M", 0);
        let mut fleet = FleetConfig::homogeneous(2, 64 * GIB);
        fleet.rebalance_checks = 5;
        fleet.faults = FleetFaultPlan::none()
            .with_flap(0, SimDuration::ZERO, STALE_WINDOW)
            .with_flap(1, SimDuration::ZERO, STALE_WINDOW);
        let res = run_fleet(&scenario, &Setting::m3(1), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert!(res.degradation.stale_probe_decisions > 0);
        assert_eq!(res.degradation.probe_failures, 0);
        assert_eq!(res.degradation.quarantine_episodes, 0);
        assert_eq!(res.jobs[0].failure, None);
    }

    #[test]
    fn unreachable_node_is_scanned_after_its_healthy_peers() {
        // Node 0's endpoint flaps from t = 0, so the sweep at the only
        // arrival, 180 s in, finds its summary past the stale window and
        // gives the idle node the pessimal index key. The bounded scan
        // then collects its `PLACE_CANDIDATES` from nodes 1-4 and stops
        // before it reaches node 0.
        let scenario = Scenario {
            name: "M at 180".into(),
            apps: vec![(AppKind::KMeans, SimDuration::from_secs(180))],
            classes: Vec::new(),
        };
        let mut fleet = FleetConfig::homogeneous(PLACE_CANDIDATES + 1, 64 * GIB);
        fleet.rebalance_checks = 0;
        fleet.faults =
            FleetFaultPlan::none().with_flap(0, SimDuration::ZERO, SimDuration::from_secs(1_000));
        let mut state = Fleet::new(&scenario, quick_cfg(), &fleet);
        state.run_events();
        let probed: Vec<u64> = (state.trace.events().iter())
            .filter_map(|e| match e.data {
                TraceData::FleetPressure { node, .. } => Some(node),
                _ => None,
            })
            .collect();
        assert_eq!(
            probed,
            [1, 2, 3, 4],
            "the scan probes the healthy peers only"
        );
        assert_eq!(state.nodes[0].fail_streak, 0, "no probe read node 0");
        assert_eq!(state.degradation.probe_failures, 1, "the sweep's read");
        assert_eq!(state.assignment[0], Some((1, 0)));
    }

    #[test]
    fn scheduler_restart_rebuilds_the_index() {
        let scenario = fleet_canonical();
        let mut fleet = small_fleet();
        fleet.faults = FleetFaultPlan::none().with_scheduler_restart(SimDuration::from_secs(300));
        let setting = Setting::m3(scenario.len());
        let res = run_fleet(&scenario, &setting, quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert_eq!(res.degradation.scheduler_restarts, 1);
        assert_eq!(
            res.degradation.index_rebuild_nodes, 3,
            "every live node re-enters the rebuilt index"
        );
        assert!(res.jobs.iter().all(|j| j.failure.is_none()));
    }

    #[test]
    fn delayed_placement_shifts_the_arrival() {
        let scenario = Scenario::uniform("M", 0);
        let mut fleet = small_fleet();
        let setting = Setting::m3(1);
        let clean = run_fleet(&scenario, &setting, quick_cfg(), &fleet);
        fleet.faults = FleetFaultPlan::none().with_placement_delay(0, SimDuration::from_secs(60));
        let res = run_fleet(&scenario, &setting, quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert_eq!(res.degradation.placements_delayed, 1);
        assert_eq!(res.degradation.placement_delay_ms, 60_000);
        let (clean_rt, delayed_rt) = (
            clean.jobs[0].runtime_s.expect("clean run completes"),
            res.jobs[0].runtime_s.expect("delayed run completes"),
        );
        assert!(
            delayed_rt > clean_rt,
            "runtime counts from arrival, so the delay shows: {clean_rt} vs {delayed_rt}"
        );
    }

    #[test]
    fn fault_plan_is_part_of_the_fleet_cache_key() {
        let scenario = Scenario::uniform("M", 0);
        let cfg = quick_cfg();
        let setting = Setting::m3(1);
        let mut fleet = small_fleet();
        let clean = run_fleet_cached(&scenario, &setting, cfg, &fleet);
        fleet.faults = FleetFaultPlan::none().with_node_crash(SimDuration::from_secs(60), 0);
        let chaotic = run_fleet_cached(&scenario, &setting, cfg, &fleet);
        assert!(
            !Arc::ptr_eq(&clean, &chaotic),
            "a chaos run must never collide with a clean cached result"
        );
        assert_eq!(clean.degradation.nodes_lost, 0);
        assert_eq!(chaotic.degradation.nodes_lost, 1);
        let again = run_fleet_cached(&scenario, &setting, cfg, &fleet);
        assert!(
            Arc::ptr_eq(&chaotic, &again),
            "the same fault plan must hit its own cache entry"
        );
    }

    #[test]
    fn unknown_fault_targets_are_counted_not_applied() {
        let scenario = Scenario::uniform("M", 0);
        let mut fleet = small_fleet();
        let setting = Setting::m3(1);
        let clean = run_fleet(&scenario, &setting, quick_cfg(), &fleet);
        fleet.faults = FleetFaultPlan::none()
            .with_node_crash(SimDuration::from_secs(60), 99)
            .with_flap(99, SimDuration::ZERO, SimDuration::from_secs(60))
            .with_placement_delay(99, SimDuration::from_secs(60));
        let res = run_fleet(&scenario, &setting, quick_cfg(), &fleet);
        assert_eq!(res.degradation.faults_unapplied, 3);
        assert_eq!(
            serde_json::to_string(&res.jobs).expect("serialize"),
            serde_json::to_string(&clean.jobs).expect("serialize"),
            "out-of-range faults must not perturb the schedule"
        );
    }

    #[test]
    fn migration_fault_plans_round_trip_through_serde() {
        // The migration test's co-location scenario leaves a crash fault
        // on the source node; the accumulated per-node `FaultPlan`s must
        // survive serde round trips (they feed the content-addressed node
        // cache key).
        let scenario = Scenario::uniform("WW", 60);
        let fleet = FleetConfig::homogeneous(2, 64 * GIB);
        let state = pinned(&scenario, &fleet);
        let with_faults: Vec<&FaultPlan> = state
            .nodes
            .iter()
            .map(|n| &n.faults)
            .filter(|f| !f.is_empty())
            .collect();
        assert!(
            !with_faults.is_empty(),
            "the migration must leave a crash fault on the source node"
        );
        for plan in with_faults {
            let back = FaultPlan::deserialize(&plan.serialize()).expect("round trip");
            assert_eq!(*plan, back);
        }
    }

    #[test]
    fn chaos_runs_are_deterministic() {
        let scenario = fleet_canonical();
        let mut fleet = small_fleet();
        let setting = Setting::m3(scenario.len());
        fleet.faults = FleetFaultPlan::none()
            .with_node_crash(SimDuration::from_secs(120), 1)
            .with_flap(0, SimDuration::from_secs(60), SimDuration::from_secs(600))
            .with_placement_delay(2, SimDuration::from_secs(30))
            .with_scheduler_restart(SimDuration::from_secs(240));
        // The repeat's node runs are all run-cache hits, so it replays the
        // scheduler's decisions alone.
        let a = run_fleet(&scenario, &setting, quick_cfg(), &fleet);
        let b = run_fleet(&scenario, &setting, quick_cfg(), &fleet);
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
            "a chaos run and its repeat must be bit-identical"
        );
        assert!(a.violations.is_empty(), "{:?}", a.violations);
        assert_eq!(
            a.degradation.jobs_lost,
            a.degradation.jobs_rescheduled + a.degradation.jobs_orphaned,
            "every lost job is accounted"
        );
    }

    /// A node index for the index property: half the draws fall on the
    /// four lowest nodes, where the placer puts the first jobs.
    fn target_node() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..4, 0usize..256]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// On fleets of 65 to 256 nodes (two to four rebalance ranges),
        /// under random node crashes, probe flaps and scheduler restarts,
        /// the candidate index keeps its invariants: `run_events` checks
        /// them after every event.
        #[test]
        fn candidate_index_keeps_its_invariants_under_chaos(
            (nodes, gap_s) in (65usize..257, 0u64..300),
            jobs in proptest::collection::vec(0usize..4, 1..5),
            crashes in proptest::collection::vec((0u64..1_500, target_node()), 0..3),
            flaps in proptest::collection::vec((target_node(), 0u64..900, 30u64..1_200), 0..6),
            restarts in proptest::collection::vec(0u64..1_500, 0..3),
        ) {
            let codes: String = jobs.iter().map(|&k| ['M', 'P', 'W', 'C'][k]).collect();
            let scenario = Scenario::uniform(&codes, gap_s);
            let mut fleet = FleetConfig::homogeneous(nodes, 64 * GIB);
            fleet.rebalance_checks = 25;
            let mut faults = FleetFaultPlan::none();
            for &(at, node) in &crashes {
                faults = faults.with_node_crash(SimDuration::from_secs(at), node % nodes);
            }
            for &(node, start, len) in &flaps {
                faults = faults.with_flap(
                    node % nodes,
                    SimDuration::from_secs(start),
                    SimDuration::from_secs(len),
                );
            }
            for &at in &restarts {
                faults = faults.with_scheduler_restart(SimDuration::from_secs(at));
            }
            fleet.faults = faults;
            let res = run_fleet(&scenario, &Setting::m3(scenario.len()), quick_cfg(), &fleet);
            prop_assert_eq!(
                res.degradation.jobs_lost,
                res.degradation.jobs_rescheduled + res.degradation.jobs_orphaned
            );
        }
    }

    // ---- event queue --------------------------------------------------

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The event queue pops what a `BTreeMap` keyed `(time, class,
        /// index)` pops, for arrivals listed out of time order and events
        /// pushed while it drains, as the scheduler pushes them: a popped
        /// placement defers to a later instant or is placed, and a crash
        /// requeues a placed job. Every instant is on a 60-s grid, so
        /// retries and requeues land on arrivals' instants, and crashes,
        /// restarts and rebalance checks share instants with placements
        /// and with each other.
        #[test]
        fn event_queue_pops_in_key_order(
            arrivals in proptest::collection::vec(0u64..6, 0..16),
            faults in proptest::collection::vec((0u64..6, proptest::bool::ANY, 0usize..4), 0..6),
            checks in 0u32..6,
            pushes in proptest::collection::vec((0u64..4, any::<u8>()), 0..48),
        ) {
            const STEP: u64 = 60_000;
            let mut queue = EventQueue::new(
                (arrivals.iter().enumerate())
                    .map(|(job, &at)| (at * STEP, job))
                    .collect(),
            );
            let mut reference: BTreeMap<EventKey, Event> = BTreeMap::new();
            for (job, &at) in arrivals.iter().enumerate() {
                reference.insert((at * STEP, CLASS_PLACE, job as u64), Event::Place { job, attempt: 0 });
            }
            let mut both = |key: EventKey, event: Event| {
                queue.insert(key, event);
                reference.insert(key, event);
            };
            for (i, &(at, crash, node)) in faults.iter().enumerate() {
                match crash {
                    true => both((at * STEP, CLASS_CRASH, i as u64), Event::NodeCrash { node }),
                    false => both((at * STEP, CLASS_RESTART, i as u64), Event::Restart),
                }
            }
            for check in 1..=checks {
                let at = u64::from(check) * STEP;
                both((at, CLASS_REBALANCE, u64::from(check)), Event::Rebalance { check });
            }
            // Jobs popped and placed: a crash may requeue one.
            let mut placed: Vec<usize> = Vec::new();
            let mut pushes = pushes.into_iter();
            loop {
                let want = reference.pop_first();
                prop_assert_eq!(queue.pop_first(), want);
                let Some(((at, _, _), event)) = want else {
                    break;
                };
                let Some((later, draw)) = pushes.next() else {
                    continue;
                };
                let job = match event {
                    Event::Place { job, .. } if draw % 2 == 0 => Some(job),
                    Event::Place { job, .. } => {
                        placed.push(job);
                        None
                    }
                    Event::NodeCrash { .. } if !placed.is_empty() => {
                        Some(placed.swap_remove(draw as usize % placed.len()))
                    }
                    _ => None,
                };
                if let Some(job) = job {
                    let key = (at + (later + 1) * STEP, CLASS_PLACE, job as u64);
                    queue.insert(key, Event::Place { job, attempt: 1 });
                    reference.insert(key, Event::Place { job, attempt: 1 });
                }
            }
        }
    }

    // ---- node keys ----------------------------------------------------

    #[test]
    fn node_key_absorbs_each_stream_then_its_count() {
        // DESIGN.md §9: after the header, a node key absorbs the app
        // stream's state, the tagged app count, the crash stream's state
        // and the tagged crash count; each stream starts at zero and each
        // step with its tag.
        let scenario =
            Scenario::uniform("W", 0).with_classes(vec![JobClass::new(Criticality::Batch, 7)]);
        let fleet = FleetConfig::homogeneous(1, 64 * GIB);
        let mut state = Fleet::new(&scenario, quick_cfg(), &fleet);
        let t = SimTime::from_millis(60_500);
        state.assign(0, AppKind::NWeight, 0, t);
        state.crash(0, 0, t);
        let mut apps = Fingerprint(0);
        apps.halves(TAG_APP, AppKind::NWeight as u64);
        apps.halves(0, 60_500);
        apps.halves(Criticality::Batch as u64, 7);
        let mut crashes = Fingerprint(0);
        crashes.halves(TAG_CRASH, 0);
        crashes.halves(0, 60_500);
        let mut key = Fingerprint(state.nodes[0].key.header);
        key.word(apps.0);
        key.halves(TAG_APPS, 1);
        key.word(crashes.0);
        key.halves(TAG_CRASHES, 1);
        assert_eq!(state.nodes[0].key.run(), key.0);
        let mut empty = Fingerprint(state.nodes[0].key.header);
        empty.word(0);
        empty.halves(TAG_APPS, 0);
        empty.word(0);
        empty.halves(TAG_CRASHES, 0);
        assert_eq!(
            state.nodes[0].key.resume(),
            empty.0,
            "it resumes from nothing"
        );
    }

    /// The jobs of the key-partition proptest: jobs `2i` and `2i + 1` are
    /// one kind, and only the odd one declares a class.
    fn classed_pairs() -> Scenario {
        let kinds = [AppKind::KMeans, AppKind::NWeight, AppKind::GoCache];
        let classes = [
            JobClass::new(Criticality::Batch, 0),
            JobClass::new(Criticality::LatencyCritical, 60_000),
            JobClass::new(Criticality::Standard, 5_000),
        ];
        Scenario {
            name: "keys".into(),
            apps: kinds
                .iter()
                .flat_map(|&k| [(k, SimDuration::ZERO); 2])
                .collect(),
            classes: Vec::new(),
        }
        .with_classes(
            classes
                .iter()
                .flat_map(|&c| [JobClass::default(), c])
                .collect(),
        )
    }

    /// The change instants of the key-partition proptest, ms: three on
    /// the 100-ms tick grid and one off it.
    const KEY_INSTANTS_MS: [u64; 4] = [0, 60_000, 60_050, 120_000];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random append sequences on six nodes, three of 64 GiB and three
        /// of 32 GiB, with nothing simulated. Each step lands at one of
        /// four shared instants on every node its mask picks (or on all of
        /// them): a job of one of three kinds, of the default or of a
        /// declared class per node, a crash of a resident, or both at one
        /// instant, in either order per node. After every step, each
        /// touched node's schedule and the earlier schedule its run would
        /// resume from are keyed both ways, the earlier one's content key
        /// from its entries due before the latest instant. For every two
        /// schedules, the node keys are equal exactly when the content keys
        /// are.
        #[test]
        fn node_keys_partition_schedules_as_content_keys_do(
            steps in proptest::collection::vec(
                (
                    (0usize..4, 0u8..3, 0usize..3, 0usize..4),
                    (proptest::bool::ANY, any::<u8>(), any::<u8>(), any::<u8>()),
                ),
                1..10,
            ),
        ) {
            let scenario = classed_pairs();
            let mut fleet = FleetConfig::homogeneous(6, 64 * GIB);
            for spec in &mut fleet.nodes[3..] {
                spec.phys_total = 32 * GIB;
            }
            let mut state = Fleet::new(&scenario, quick_cfg(), &fleet);
            let mut steps = steps;
            steps.sort_by_key(|&((at, ..), _)| at); // stable: an instant keeps its draw order
            let mut keys: Vec<(u128, u128)> = Vec::new();
            for ((at, op, kind, slot), (all, mask, classed, crash_first)) in steps {
                let t = SimTime::from_millis(KEY_INSTANTS_MS[at]);
                for node in (0..6).filter(|&n| all || mask >> n & 1 == 1) {
                    let residents = state.nodes[node].apps.len();
                    let crash = op != 0 && residents > 0;
                    let app = op != 1;
                    if !crash && !app {
                        continue;
                    }
                    let first = crash_first >> node & 1 == 1;
                    if crash && first {
                        state.crash(node, slot % residents, t);
                    }
                    if app {
                        let job = 2 * kind + usize::from(classed >> node & 1 == 1);
                        state.assign(job, scenario.apps[job].0, node, t);
                    }
                    if crash && !first {
                        state.crash(node, slot % residents, t);
                    }
                    let n = &state.nodes[node];
                    keys.push((n.key.run(), state.content_key(n.phys_total, &n.apps, &n.faults)));
                    let before = n.key.changed_at;
                    let k = n.apps.partition_point(|a| a.2 < before);
                    let earlier = FaultPlan {
                        events: n.faults.events.iter().filter(|e| e.at < before).cloned().collect(),
                        ..FaultPlan::none()
                    };
                    keys.push((n.key.resume(), state.content_key(n.phys_total, &n.apps[..k], &earlier)));
                }
            }
            for (i, a) in keys.iter().enumerate() {
                for (j, b) in keys.iter().enumerate().skip(i + 1) {
                    prop_assert_eq!(
                        a.0 == b.0,
                        a.1 == b.1,
                        "schedules {} and {}: node keys equal {}, content keys equal {}",
                        i,
                        j,
                        a.0 == b.0,
                        a.1 == b.1
                    );
                }
            }
        }
    }
}
