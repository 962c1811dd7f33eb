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
//! # Scaling model (DESIGN.md §13)
//!
//! The scheduler targets O(10k) nodes and O(100k) jobs on one machine, so
//! every per-decision cost must be bounded and every node simulation must
//! be shared when it can be:
//!
//! - **Incremental probes.** A node's probe simulation runs once over the
//!   full horizon with a pressure timeline sampled at every monitor poll,
//!   and is cached on the node until the node's assignment set or fault
//!   plan changes (the *dirty* rule: any mutation clears the cache). Reading the node's state at time `t` is then a
//!   timeline lookup, not a re-simulation. Idle nodes never simulate at
//!   all: a per-size summary precomputed at fleet construction answers
//!   their probes.
//! - **Content-addressed node runs.** The per-node machine config carries
//!   no node salt and the sub-scenario name carries no node index, so two
//!   nodes with identical (size, schedule, faults) share one entry in the
//!   process-wide run cache. Wave-shaped arrivals
//!   over homogeneous nodes collapse thousands of node simulations into a
//!   handful of distinct ones.
//! - **Sharded placement.** Nodes are partitioned into shards of
//!   `SHARD_SIZE` (64); each shard keeps a `BTreeSet` candidate index
//!   ordered by an *advisory* effective-load key. Placement k-way merges
//!   the shard indexes into the globally least-estimated `PROBE_BUDGET`
//!   (16) nodes and probes those (stopping early once `PLACE_CANDIDATES`
//!   (4) feasible candidates are in hand) instead of probing all N. The
//!   index only orders the scan — admission is always decided by
//!   authoritative probes — and a job's *final* admission attempt scans
//!   every node, so a job is never given up on while a feasible node
//!   exists anywhere in the fleet.
//! - **Batched pressure refresh.** Each rebalance check refreshes
//!   `REFRESH_SHARDS` (1) shard round-robin rather than the whole fleet,
//!   and pre-warms the dirty nodes' simulations on the worker pool
//!   ([`crate::parallel::parallel_map`]) before reading them serially in
//!   node order.
//!
//! # Determinism
//!
//! The scheduler is a pure function of `(scenario, setting, machine_cfg,
//! fleet_cfg)`. There is no randomness and no wall clock anywhere:
//!
//! - Scheduler events live in a `BTreeMap` keyed `(time_ms, class, index)`,
//!   so they pop in a total order.
//! - A node's pressure at time `t` is a pure function of its assignment
//!   set and fault plan: the cached probe simulation is deterministic, and
//!   the timeline read picks the last sample at or before `t`.
//! - Parallel pre-warm only *populates* caches with values that are pure
//!   functions of their keys; every decision reads them in index order, so
//!   the result is bit-identical for any worker count (`M3_JOBS`).
//! - Ties in the placement order are broken by node index; admission is an
//!   exact integer comparison (no float ordering).
//!
//! Migration is modelled as a crash fault on the source node (the elastic
//! job restarts from scratch on the target, as §7.1's restartable jobs do).
//! The crash instant always equals the scheduler's current time, so probes
//! cached for earlier times stay valid.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;

use m3_core::config::MonitorConfig;
use m3_core::monitor::{Monitor, PressureSummary, Zone};
use m3_oracle::{FleetOracle, Violation};
use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::trace::{Criticality, TraceData, TraceLog, TraceZone};
use m3_sim::units::GIB;
use m3_sim::SimRng;
use serde::{Deserialize, Serialize};

use crate::cluster::{ClusterResult, JobFailure};
use crate::faults::{FaultPlan, FleetDegradationReport, FleetFaultPlan, ProbeFlap};
use crate::hibench;
use crate::machine::MachineConfig;
use crate::parallel::{run_scenario_cached_faulted, worker_threads, CacheStats, MemoCache};
use crate::runner::ScenarioOutcome;
use crate::scenario::{AppKind, Scenario};
use crate::settings::Setting;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// The worker nodes (heterogeneous sizes allowed).
    pub nodes: Vec<NodeSpec>,
    /// What goes wrong around the scheduler: node crashes, flapping probe
    /// endpoints, delayed placements, scheduler restarts. The plan indexes
    /// [`FleetConfig::nodes`]; empty for a clean run.
    pub faults: FleetFaultPlan,
    /// How long a node must stay red before the rebalancer may migrate a
    /// job off it.
    pub grace: SimDuration,
    /// How long a deferred job waits before retrying admission.
    pub defer_interval: SimDuration,
    /// Admission retries before the scheduler gives up on a job.
    pub max_defers: u32,
    /// Cadence of the red-zone rebalance checks.
    pub rebalance_period: SimDuration,
    /// Number of rebalance checks scheduled (bounds the event horizon).
    pub rebalance_checks: u32,
    /// Times a job lost to node death may re-enter the arrival queue
    /// before the scheduler abandons it as orphaned.
    pub retry_budget: u32,
    /// Base delay of the node-loss retry backoff; retry `k` waits
    /// `base * 2^(k-1)` plus deterministic jitter in `[0, base)`.
    pub backoff_base: SimDuration,
    /// How old a flapping endpoint's stale summary may be before the
    /// scheduler refuses it and forces an authoritative re-read.
    pub stale_window: SimDuration,
    /// Consecutive forced re-reads before a flapping node is quarantined.
    pub quarantine_after: u32,
    /// Consecutive healthy probes a quarantined node must answer before
    /// it is re-admitted as a placement target.
    pub quarantine_healthy: u32,
}

impl FleetConfig {
    /// A scheduling fleet of `n` homogeneous nodes of `phys_total` bytes.
    pub fn homogeneous(n: usize, phys_total: u64) -> Self {
        FleetConfig {
            nodes: vec![NodeSpec { phys_total }; n],
            faults: FleetFaultPlan::none(),
            grace: SimDuration::from_secs(60),
            defer_interval: SimDuration::from_secs(120),
            max_defers: 30,
            rebalance_period: SimDuration::from_secs(60),
            rebalance_checks: 40,
            retry_budget: 3,
            backoff_base: SimDuration::from_secs(30),
            stale_window: SimDuration::from_secs(120),
            quarantine_after: 2,
            quarantine_healthy: 3,
        }
    }

    /// The paper's eight 64-GB workers.
    pub fn paper() -> Self {
        FleetConfig::homogeneous(crate::cluster::PAPER_NODES, 64 * GIB)
    }
}

/// Migrations allowed per job (a migration restarts the job).
const MAX_MIGRATIONS: u32 = 1;
/// Nodes per placement shard. Each shard keeps a pressure-ordered candidate
/// index; fleets of at most one shard behave exactly like the exhaustive
/// scheduler.
const SHARD_SIZE: usize = 64;
/// Feasible candidates a bounded placement scan collects before picking
/// (the scan's early-stop).
const PLACE_CANDIDATES: usize = 4;
/// Upper bound on authoritative probes per bounded placement scan (at least
/// [`PLACE_CANDIDATES`]): the scan order is the globally least-estimated
/// `PROBE_BUDGET` nodes by the shard indexes.
const PROBE_BUDGET: usize = 16;
/// Shards whose nodes get a fresh pressure probe per rebalance check
/// (round-robin across checks).
const REFRESH_SHARDS: usize = 1;
/// Seed of the deterministic node-loss backoff jitter.
const BACKOFF_SEED: u64 = 0xF1EE7;

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
    /// Cluster-level aggregation: final-node runtimes measured from each
    /// job's arrival. The quadratic `per_node_s`/`spread_s` tables stay
    /// empty — at 10k nodes × 100k jobs they would dwarf everything else.
    pub cluster: ClusterResult,
    /// Per-job scheduler outcomes.
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
    /// [`ClusterResult::mean_runtime_secs`] with the per-class slices
    /// filled from the per-job outcomes: the mixed-criticality report —
    /// SLO attainment and stall per criticality class.
    pub fn class_mean(&self) -> crate::cluster::ClusterMean {
        self.cluster.mean_runtime_secs().with_classes(&self.jobs)
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

/// The per-node machine configuration: the base config at this node's
/// size. A node whose size differs from the base keeps no stale monitor —
/// [`MachineConfig::with_setting`] re-scales one to the node. No node
/// salt: two nodes of the same size running the same schedule under the
/// same faults are byte-identical simulations, so dropping the salt lets
/// them share one content-addressed run-cache entry — the reason a 10k-node
/// fleet only simulates its few hundred distinct nodes. The scheduler's own
/// placement provides the per-node heterogeneity a salt used to fake.
fn sched_node_cfg(base: MachineConfig, phys_total: u64) -> MachineConfig {
    let mut cfg = base;
    cfg.node_salt = 0;
    if cfg.phys_total != phys_total {
        cfg.phys_total = phys_total;
        cfg.monitor = None;
    }
    cfg
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

#[derive(Debug, Clone, Copy)]
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
    /// Rebalance check number `check` (1-based): refresh the due shards
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
    /// When the node's probes turned contiguously red, ms.
    red_since: Option<u64>,
    /// Memoized full-horizon probe simulation; `None` = dirty (the
    /// assignment set or fault plan changed since it was computed). Every
    /// mutation of `apps` or `faults` must clear this.
    probe: Option<Arc<ScenarioOutcome>>,
    /// The node's top of memory (from its scaled monitor config).
    top: u64,
    /// Advisory effective-load estimate backing the shard index; healed to
    /// the authoritative value on every probe.
    index_effective: u64,
    /// The node's current key in its shard's candidate index.
    index_key: u64,
    /// When the node died, ms since the epoch (`None` = alive).
    dead: Option<u64>,
    /// True while the node is quarantined for flapping probes: deindexed
    /// and ineligible as a placement or migration target.
    quarantined: bool,
    /// Consecutive forced authoritative re-reads (endpoint too stale).
    fail_streak: u32,
    /// Consecutive healthy probes while quarantined.
    healthy_streak: u32,
    /// Whether the node currently sits in its shard's candidate index
    /// (dead and quarantined nodes do not).
    indexed: bool,
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
    /// start) is inside [`FleetConfig::stale_window`] — tolerated.
    Stale(NodeView),
    /// The endpoint is flapping and its summary is too old to act on.
    Unreachable,
}

/// The shard-index key for a node at estimated load `effective`: the
/// `effective / top` ratio in 2^20 fixed point. Advisory ordering only —
/// admission never reads it.
fn index_key(effective: u64, top: u64) -> u64 {
    ((effective as u128 * (1u128 << 20)) / top.max(1) as u128).min(u64::MAX as u128) as u64
}

struct Fleet<'a> {
    scenario: &'a Scenario,
    base_cfg: MachineConfig,
    fleet: &'a FleetConfig,
    nodes: Vec<NodeState>,
    trace: TraceLog,
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
    /// Per-shard candidate index: `(index_key, node)`, ascending = least
    /// estimated pressure first, ties to the lower node index.
    shards: Vec<BTreeSet<(u64, u32)>>,
    /// Precomputed idle summary per distinct node size: what a probe of a
    /// node with nothing assigned answers, without ever simulating.
    idle: HashMap<u64, PressureSummary>,
    /// The placement time the candidate index was last bulk-refreshed at
    /// (the index decays as simulated time passes — see [`Fleet::refresh`]).
    index_fresh_ms: Option<u64>,
    /// Worker threads for pre-warming and final runs.
    workers: usize,
    /// Test seam: places every arrival on this node without admission
    /// control, so the rebalance tests can co-locate jobs.
    #[cfg(test)]
    pin: Option<usize>,
}

impl<'a> Fleet<'a> {
    fn new(
        scenario: &'a Scenario,
        base_cfg: MachineConfig,
        fleet: &'a FleetConfig,
        workers: usize,
    ) -> Fleet<'a> {
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
        let mut idle: HashMap<u64, PressureSummary> = HashMap::new();
        let mut nodes = Vec::with_capacity(fleet.nodes.len());
        for spec in &fleet.nodes {
            let summary = *idle.entry(spec.phys_total).or_insert_with(|| {
                let cfg = sched_node_cfg(base_cfg, spec.phys_total).with_setting(&Setting::m3(0));
                let monitor = cfg
                    .monitor
                    .unwrap_or_else(|| MonitorConfig::scaled(cfg.phys_total));
                Monitor::new(monitor).pressure_summary(0)
            });
            nodes.push(NodeState {
                phys_total: spec.phys_total,
                apps: Vec::new(),
                faults: FaultPlan::none(),
                red_since: None,
                probe: None,
                top: summary.top,
                index_effective: 0,
                index_key: 0,
                dead: None,
                quarantined: false,
                fail_streak: 0,
                healthy_streak: 0,
                indexed: true,
            });
        }
        let nshards = nodes.len().div_ceil(SHARD_SIZE).max(1);
        let mut shards = vec![BTreeSet::new(); nshards];
        for n in 0..nodes.len() {
            shards[n / SHARD_SIZE].insert((0u64, n as u32));
        }
        Fleet {
            scenario,
            base_cfg,
            fleet,
            nodes,
            trace: TraceLog::new(),
            assignment: vec![None; njobs],
            deferrals: vec![0; njobs],
            migrations: vec![0; njobs],
            gave_up: vec![false; njobs],
            reschedules: vec![0; njobs],
            orphaned: vec![false; njobs],
            flaps,
            degradation,
            shards,
            idle,
            index_fresh_ms: None,
            workers: workers.max(1),
            #[cfg(test)]
            pin: None,
        }
    }

    /// True if the node may be probed for placement and targeted: alive
    /// and not quarantined.
    fn available(&self, node: usize) -> bool {
        self.nodes[node].dead.is_none() && !self.nodes[node].quarantined
    }

    /// The sub-scenario a node's assigned jobs form. Deliberately *not*
    /// salted with the node index: the name is part of the run-cache key,
    /// and nodes with identical schedules must share one entry.
    fn node_scenario(&self, node: usize) -> Scenario {
        let st = &self.nodes[node];
        let classes = st
            .apps
            .iter()
            .map(|&(job, _, _)| self.scenario.class_of(job))
            .collect();
        Scenario {
            name: format!("{}::sched", self.scenario.name),
            apps: st
                .apps
                .iter()
                .map(|&(_, kind, start)| (kind, start))
                .collect(),
            classes: Vec::new(),
        }
        .with_classes(classes)
    }

    fn node_cfg(&self, node: usize) -> MachineConfig {
        sched_node_cfg(self.base_cfg, self.nodes[node].phys_total)
    }

    /// Simulates node `node` over the full horizon (content-addressed
    /// cache) and returns the outcome. `capture` keeps the node trace and
    /// profile (the final full runs); probes instead run stripped with a
    /// pressure timeline sampled at every monitor poll, so one simulation
    /// answers probes at *every* time.
    fn simulate(&self, node: usize, capture: bool) -> Arc<ScenarioOutcome> {
        let scenario = self.node_scenario(node);
        let setting = Setting::m3(scenario.len());
        let mut cfg = self.node_cfg(node);
        if !capture {
            cfg.sample_period = None;
            cfg.capture_trace = false;
            cfg.pressure_timeline = true;
        }
        run_scenario_cached_faulted(&scenario, &setting, cfg, &self.nodes[node].faults)
    }

    /// The node's probe simulation, computed only if the node is dirty.
    fn probe_outcome(&mut self, node: usize) -> Arc<ScenarioOutcome> {
        if let Some(out) = &self.nodes[node].probe {
            return Arc::clone(out);
        }
        let out = self.simulate(node, false);
        self.nodes[node].probe = Some(Arc::clone(&out));
        out
    }

    /// Reads node `node`'s state at time `t` — the incremental-probe read.
    /// Idle nodes answer from the precomputed per-size summary; loaded
    /// nodes answer from the cached probe simulation's pressure timeline
    /// (last sample at or before `t`).
    ///
    /// Besides the monitor's summary, the view carries the node's *reserved*
    /// demand: the summed demand estimates of jobs assigned to it that are
    /// alive at `t`. A freshly placed job has committed nothing yet, so
    /// admission must rank against `max(used, reserved)` or simultaneous
    /// arrivals would all pile onto the same empty node.
    fn view(&mut self, node: usize, t: SimTime) -> NodeView {
        let (summary, reserved) = if self.nodes[node].apps.is_empty() {
            (self.idle[&self.nodes[node].phys_total], 0)
        } else {
            let t_ms = t.as_millis();
            let out = self.probe_outcome(node);
            let timeline = &out.run.pressure_timeline;
            let summary = match timeline.partition_point(|&(at, _)| at <= t_ms) {
                0 => self.idle[&self.nodes[node].phys_total],
                i => timeline[i - 1].1,
            };
            let mut reserved = 0u64;
            for (slot, &(job, kind, _)) in self.nodes[node].apps.iter().enumerate() {
                let here = self.assignment[job] == Some((node, slot));
                let alive = out.run.apps.get(slot).is_none_or(|a| {
                    a.started.as_millis() <= t_ms && a.ended.is_none_or(|e| e.as_millis() > t_ms)
                });
                if here && alive {
                    reserved = reserved.saturating_add(demand_estimate(kind));
                }
            }
            (summary, reserved)
        };
        NodeView {
            node,
            summary,
            reserved,
        }
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
    /// while younger than [`FleetConfig::stale_window`], refused after.
    /// Every stale acceptance and every refusal is counted in the
    /// degradation report.
    fn endpoint(&mut self, node: usize, t: SimTime) -> ProbeRead {
        match self.flap_at(node, t) {
            None => ProbeRead::Fresh(self.view(node, t)),
            Some(f) => {
                let age = t.as_millis().saturating_sub(f.start.as_millis());
                if age <= self.fleet.stale_window.as_millis() {
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
            if streak < self.fleet.quarantine_healthy.max(1) {
                return;
            }
            self.nodes[node].quarantined = false;
            self.nodes[node].healthy_streak = 0;
            self.trace.record(
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
            if self.nodes[node].quarantined || streak < self.fleet.quarantine_after.max(1) {
                return;
            }
            self.nodes[node].quarantined = true;
            self.degradation.quarantine_episodes += 1;
            self.trace.record(
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
    /// `fleet.pressure` event, heals the shard index with the
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
        self.trace.record(
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

    /// Moves `node` to its new position in the shard index. Deindexed
    /// nodes (dead or quarantined) keep their key current without ever
    /// re-entering the index — only [`Fleet::set_indexed`] re-admits.
    fn update_index(&mut self, node: usize, effective: u64) {
        let key = index_key(effective, self.nodes[node].top);
        let old = self.nodes[node].index_key;
        if key != old {
            if self.nodes[node].indexed {
                let shard = node / SHARD_SIZE;
                self.shards[shard].remove(&(old, node as u32));
                self.shards[shard].insert((key, node as u32));
            }
            self.nodes[node].index_key = key;
        }
        self.nodes[node].index_effective = effective;
    }

    /// Inserts or removes `node` from its shard's candidate index.
    fn set_indexed(&mut self, node: usize, on: bool) {
        if self.nodes[node].indexed == on {
            return;
        }
        let shard = node / SHARD_SIZE;
        let entry = (self.nodes[node].index_key, node as u32);
        if on {
            self.shards[shard].insert(entry);
        } else {
            self.shards[shard].remove(&entry);
        }
        self.nodes[node].indexed = on;
    }

    /// Asserts the shard index's invariants: each shard holds exactly
    /// `(index_key, node)` for its own indexed nodes, a node is indexed
    /// exactly when it is alive and not quarantined, and each node's key is
    /// the key of its current load estimate.
    #[cfg(test)]
    fn check_index(&self) {
        for (s, shard) in self.shards.iter().enumerate() {
            let want: BTreeSet<(u64, u32)> = self
                .nodes
                .iter()
                .enumerate()
                .skip(s * SHARD_SIZE)
                .take(SHARD_SIZE)
                .filter(|(_, st)| st.indexed)
                .map(|(n, st)| (st.index_key, n as u32))
                .collect();
            assert_eq!(*shard, want, "shard {s} disagrees with its nodes");
        }
        for (n, st) in self.nodes.iter().enumerate() {
            assert_eq!(
                st.indexed,
                st.dead.is_none() && !st.quarantined,
                "node {n}: indexed must mean alive and not quarantined"
            );
            assert_eq!(
                st.index_key,
                index_key(st.index_effective, st.top),
                "node {n}: stale index key"
            );
        }
    }

    /// The bounded placement scan order: the globally least-estimated
    /// [`PROBE_BUDGET`] nodes, k-way-merged from the sorted per-shard
    /// indexes (`O(shards + budget * log(shards))` per scan — never a walk
    /// over all N nodes).
    fn candidate_order(&self) -> Vec<usize> {
        let mut iters: Vec<_> = self.shards.iter().map(|s| s.iter().copied()).collect();
        let mut heap: BinaryHeap<Reverse<((u64, u32), usize)>> =
            BinaryHeap::with_capacity(iters.len());
        for (i, it) in iters.iter_mut().enumerate() {
            if let Some(e) = it.next() {
                heap.push(Reverse((e, i)));
            }
        }
        let mut out = Vec::with_capacity(PROBE_BUDGET);
        while out.len() < PROBE_BUDGET {
            let Some(Reverse((entry, shard))) = heap.pop() else {
                break;
            };
            out.push(entry.1 as usize);
            if let Some(e) = iters[shard].next() {
                heap.push(Reverse((e, shard)));
            }
        }
        out
    }

    /// Heals the whole candidate index with silent cached view reads at
    /// time `t` (no trace events; clean nodes answer from their cached
    /// probe timeline, idle nodes from the per-size summary). Returns the
    /// views that would admit `demand` more bytes — so the defer fallback
    /// gets its feasible set from the same sweep. Records the refresh
    /// instant so at most one sweep runs per placement time.
    fn refresh(&mut self, t: SimTime, demand: u64) -> Vec<NodeView> {
        self.index_fresh_ms = Some(t.as_millis());
        let mut feasible: Vec<NodeView> = Vec::new();
        for node in 0..self.nodes.len() {
            if !self.available(node) {
                continue;
            }
            match self.endpoint(node, t) {
                ProbeRead::Fresh(v) | ProbeRead::Stale(v) => {
                    self.update_index(node, v.effective());
                    if Self::admits(&v, demand) {
                        feasible.push(v);
                    }
                }
                // Bulk sweeps are health-neutral (they must not quarantine
                // half the fleet in one pass); an unreachable node just
                // takes the pessimal key until a real probe heals it.
                ProbeRead::Unreachable => self.update_index(node, u64::MAX),
            }
        }
        feasible
    }

    /// True if `demand` more bytes fit on this node without crossing its
    /// top of memory (and the node is not already red).
    fn admits(view: &NodeView, demand: u64) -> bool {
        matches!(view.summary.zone, Zone::Green | Zone::Yellow)
            && view.effective().saturating_add(demand) <= view.summary.top
    }

    /// Picks the least-pressured node among `candidates`: exact integer
    /// comparison of `effective/top` ratios (`eff_a * top_b` vs
    /// `eff_b * top_a`), ties to the lower node index.
    fn pick(&self, candidates: &[NodeView]) -> Option<usize> {
        let mut best: Option<&NodeView> = None;
        for v in candidates {
            let better = best.is_none_or(|b| {
                v.effective() as u128 * (b.summary.top as u128)
                    < b.effective() as u128 * (v.summary.top as u128)
            });
            if better {
                best = Some(v);
            }
        }
        best.map(|v| v.node)
    }

    /// Assigns job `job` to `node` starting at `t` and records the
    /// bookkeeping shared by placement and migration. The node's probe
    /// cache is invalidated (its schedule changed) and its advisory index
    /// estimate grows by the job's demand.
    fn assign(&mut self, job: usize, kind: AppKind, node: usize, t: SimTime) {
        let slot = self.nodes[node].apps.len();
        self.nodes[node]
            .apps
            .push((job, kind, t.saturating_since(SimTime::ZERO)));
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
            if !self.available(node) || self.nodes[node].apps.is_empty() {
                continue;
            }
            let out = self.probe_outcome(node);
            let mut evictable: Vec<(usize, usize, AppKind)> = self.nodes[node]
                .apps
                .iter()
                .enumerate()
                .filter(|&(slot, &(res, _, _))| {
                    self.assignment[res] == Some((node, slot))
                        && self.scenario.class_of(res).crit == Criticality::Batch
                        && out.run.apps.get(slot).is_none_or(|a| {
                            a.started.as_millis() <= t_ms
                                && a.ended.is_none_or(|e| e.as_millis() > t_ms)
                        })
                })
                .map(|(slot, &(res, kind, _))| (slot, res, kind))
                .collect();
            drop(out);
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
            self.nodes[node].faults = std::mem::take(&mut self.nodes[node].faults)
                .with_crash(t.saturating_since(SimTime::ZERO), slot);
            self.assignment[victim] = None;
            self.reschedules[victim] += 1;
            freed = freed.saturating_add(demand_estimate(kind));
            let retry_at = t_ms + self.backoff_ms(victim, self.reschedules[victim]);
            self.trace.record(
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
            self.trace.record(
                t,
                victim as u64,
                TraceData::FleetReschedule {
                    job: victim as u64,
                    from: node as u64,
                    retries: self.reschedules[victim] as u64,
                    retry_at_ms: retry_at,
                    requeued: true,
                },
            );
            queue.insert(
                (retry_at, CLASS_PLACE, victim as u64),
                Event::Place {
                    job: victim,
                    attempt: 0,
                },
            );
        }
        self.nodes[node].probe = None;
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
        self.trace.record(
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
        let order: Vec<usize> = if exhaustive {
            (0..self.nodes.len())
                .filter(|&n| self.available(n))
                .collect()
        } else {
            self.candidate_order()
        };
        let mut probed: Vec<NodeView> = Vec::new();
        let mut candidates: Vec<NodeView> = Vec::new();
        for node in order {
            if !self.available(node) {
                continue;
            }
            let v = self.probe(node, t);
            if self.nodes[node].quarantined {
                // The probe itself tipped the node into quarantine (its
                // endpoint was unreachable): not a candidate.
                continue;
            }
            probed.push(v);
            if Self::admits(&v, demand) {
                candidates.push(v);
            }
            if !exhaustive && (candidates.len() >= PLACE_CANDIDATES || probed.len() >= PROBE_BUDGET)
            {
                break;
            }
        }
        // The index is advisory and decays: before deferring, heal it with
        // a full silent sweep and retry the pick. Only a genuinely full
        // fleet defers, and the next scan's index is fresh.
        let mut choice = self.pick(&candidates);
        if choice.is_none() && !exhaustive {
            let feasible = self.refresh(t, demand);
            if let Some(node) = self.pick(&feasible) {
                // Re-read through `probe` so the placement is backed by a
                // traced pressure snapshot like every other admission.
                let v = self.probe(node, t);
                probed.push(v);
                choice = Some(node);
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
                probed.push(v);
                if Self::admits(&v, demand) {
                    choice = Some(node);
                }
            }
        }
        match choice {
            Some(node) => {
                // Most recent probe of the node: a preemption re-probe
                // supersedes any earlier read this same placement took.
                let summary = probed
                    .iter()
                    .rev()
                    .find(|v| v.node == node)
                    .expect("picked node was probed")
                    .summary;
                self.place(job, node, summary, demand, attempt, t);
            }
            None if attempt >= self.fleet.max_defers => {
                self.deferrals[job] = attempt;
                self.gave_up[job] = true;
                self.trace.record(
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
                let retry =
                    SimTime::from_millis(t.as_millis() + self.fleet.defer_interval.as_millis());
                self.trace.record(
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
        let nshards = self.shards.len();
        if nshards == 0 {
            return;
        }
        // Round-robin refresh: check k covers `REFRESH_SHARDS` shards
        // starting where check k-1 left off.
        let refresh = REFRESH_SHARDS.min(nshards);
        let start = (check as usize - 1).wrapping_mul(refresh) % nshards;
        let mut due_nodes: Vec<usize> = Vec::new();
        for i in 0..refresh {
            let shard = (start + i) % nshards;
            let lo = shard * SHARD_SIZE;
            due_nodes.extend(lo..(lo + SHARD_SIZE).min(self.nodes.len()));
        }
        due_nodes.sort_unstable();
        due_nodes.dedup();
        // Dead nodes are past probing; quarantined ones stay in the sweep —
        // the rebalance cadence is exactly the health-check cadence their
        // re-admission streak builds on.
        due_nodes.retain(|&n| self.nodes[n].dead.is_none());
        // Pre-warm the dirty nodes' probe simulations on the worker pool.
        // Sound under any worker count: each outcome is a pure function of
        // that node's own state, and everything below reads the warmed
        // caches serially in node order.
        let dirty: Vec<usize> = due_nodes
            .iter()
            .copied()
            .filter(|&n| !self.nodes[n].apps.is_empty() && self.nodes[n].probe.is_none())
            .collect();
        if self.workers > 1 && dirty.len() > 1 {
            let this: &Fleet = self;
            let outs = crate::parallel::parallel_map(dirty.clone(), self.workers, |n| {
                this.simulate(n, false)
            });
            for (&n, out) in dirty.iter().zip(outs) {
                self.nodes[n].probe = Some(out);
            }
        }
        let mut views: HashMap<usize, NodeView> = HashMap::new();
        for &node in &due_nodes {
            let v = self.probe(node, t);
            views.insert(node, v);
        }
        let grace = self.fleet.grace.as_millis();
        let t_ms = t.as_millis();
        for &node in &due_nodes {
            let Some(since) = self.nodes[node].red_since else {
                continue;
            };
            if t_ms.saturating_sub(since) < grace || self.nodes[node].apps.is_empty() {
                continue;
            }
            let red_for = t_ms.saturating_sub(since);
            // Victim: the most expendable job alive on this node at `t`
            // with migration budget left — Batch moves before Standard,
            // Standard before LatencyCritical — and within a class the
            // lowest-priority (latest-arriving) one. Unclassified
            // scenarios collapse to the pure latest-arriving rule.
            let out = self.probe_outcome(node);
            let victim = self.nodes[node]
                .apps
                .iter()
                .enumerate()
                .filter(|&(slot, &(job, _, _))| {
                    self.assignment[job] == Some((node, slot))
                        && self.migrations[job] < MAX_MIGRATIONS
                        && out.run.apps.get(slot).is_some_and(|a| {
                            a.started.as_millis() <= t_ms
                                && a.ended.is_none_or(|e| e.as_millis() > t_ms)
                        })
                })
                .max_by_key(|&(_, &(job, _, _))| {
                    (self.scenario.class_of(job).crit.expendability(), job)
                })
                .map(|(slot, &(job, kind, _))| (slot, job, kind));
            let Some((slot, job, kind)) = victim else {
                continue;
            };
            drop(out);
            // Target: least-pressured feasible node other than the source,
            // found by the same bounded scan placement uses (views probed
            // this check are reused, not re-recorded).
            let demand = demand_estimate(kind);
            let mut candidates: Vec<NodeView> = Vec::new();
            let mut scanned = 0usize;
            for cand in self.candidate_order() {
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
                    candidates.push(v);
                }
                if candidates.len() >= PLACE_CANDIDATES || scanned >= PROBE_BUDGET {
                    break;
                }
            }
            let Some(target) = self.pick(&candidates) else {
                continue; // nowhere better to go: migrating would not help
            };
            self.nodes[node].faults = std::mem::take(&mut self.nodes[node].faults)
                .with_crash(t.saturating_since(SimTime::ZERO), slot);
            self.nodes[node].probe = None;
            let est = self.nodes[node].index_effective.saturating_sub(demand);
            self.update_index(node, est);
            self.migrations[job] += 1;
            self.trace.record(
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

    /// The deterministic retry backoff for a job's `retries`-th node-loss
    /// requeue, ms: exponential in the retry count with jitter in
    /// `[0, base)` drawn from a counter-keyed [`SimRng`] — pure in
    /// `(BACKOFF_SEED, job, retries)`, so replays are byte-identical and
    /// co-lost jobs do not thunder back in lockstep.
    fn backoff_ms(&self, job: usize, retries: u32) -> u64 {
        let base = self.fleet.backoff_base.as_millis().max(1);
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
        let mut lost: Vec<(usize, usize, AppKind)> = Vec::new();
        if !self.nodes[node].apps.is_empty() {
            let out = self.probe_outcome(node);
            for (slot, &(job, kind, _)) in self.nodes[node].apps.iter().enumerate() {
                if self.assignment[job] != Some((node, slot)) {
                    continue;
                }
                let alive = out.run.apps.get(slot).is_none_or(|a| {
                    a.started.as_millis() <= t_ms && a.ended.is_none_or(|e| e.as_millis() > t_ms)
                });
                if alive {
                    lost.push((slot, job, kind));
                }
            }
        }
        self.nodes[node].dead = Some(t_ms);
        self.nodes[node].red_since = None;
        self.set_indexed(node, false);
        self.degradation.nodes_lost += 1;
        self.trace.record(
            t,
            node as u64,
            TraceData::FleetNodeLost {
                node: node as u64,
                jobs_lost: lost.len() as u64,
            },
        );
        for &(slot, _, _) in &lost {
            self.nodes[node].faults = std::mem::take(&mut self.nodes[node].faults)
                .with_crash(t.saturating_since(SimTime::ZERO), slot);
        }
        self.nodes[node].probe = None;
        for (_, job, kind) in lost {
            self.assignment[job] = None;
            self.degradation.jobs_lost += 1;
            self.reschedules[job] += 1;
            let retries = self.reschedules[job];
            if retries > self.fleet.retry_budget {
                self.orphaned[job] = true;
                self.degradation.jobs_orphaned += 1;
                self.trace.record(
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
                self.trace.record(
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
            let retry_at = t_ms + self.backoff_ms(job, retries);
            self.degradation.jobs_rescheduled += 1;
            self.trace.record(
                t,
                job as u64,
                TraceData::FleetReschedule {
                    job: job as u64,
                    from: node as u64,
                    retries: retries as u64,
                    retry_at_ms: retry_at,
                    requeued: true,
                },
            );
            // The job re-enters the arrival queue with a fresh admission
            // attempt count (its defer budget is per-placement-attempt).
            queue.insert(
                (retry_at, CLASS_PLACE, job as u64),
                Event::Place { job, attempt: 0 },
            );
        }
    }

    /// Mid-horizon scheduler restart: every advisory structure — the
    /// shard indexes, the red-streak clocks, the refresh stamp — dies
    /// with the old process and is rebuilt from authoritative node reads.
    /// Death and quarantine survive (they are node state, not scheduler
    /// state); an unreachable endpoint re-enters pessimistically at the
    /// maximal key until a real probe heals it.
    fn on_restart(&mut self, t: SimTime) {
        self.degradation.scheduler_restarts += 1;
        for shard in &mut self.shards {
            shard.clear();
        }
        self.index_fresh_ms = None;
        for node in 0..self.nodes.len() {
            self.nodes[node].red_since = None;
            self.nodes[node].indexed = false;
        }
        for node in 0..self.nodes.len() {
            if !self.available(node) {
                continue;
            }
            let effective = match self.endpoint(node, t) {
                ProbeRead::Fresh(v) | ProbeRead::Stale(v) => v.effective(),
                ProbeRead::Unreachable => u64::MAX,
            };
            let key = index_key(effective, self.nodes[node].top);
            self.nodes[node].index_key = key;
            self.nodes[node].index_effective = effective;
            self.nodes[node].indexed = true;
            let shard = node / SHARD_SIZE;
            self.shards[shard].insert((key, node as u32));
            self.degradation.index_rebuild_nodes += 1;
        }
    }

    /// Builds the event queue (arrivals + fault injections + rebalance
    /// checks) and drains it.
    fn run_events(&mut self) {
        let mut queue: EventQueue = BTreeMap::new();
        let njobs = self.scenario.len();
        let mut delay_ms = vec![0u64; njobs];
        for d in &self.fleet.faults.placement_delays {
            if d.job < njobs {
                delay_ms[d.job] += d.delay.as_millis();
            } else {
                self.degradation.faults_unapplied += 1;
            }
        }
        for (job, &(_, start)) in self.scenario.apps.iter().enumerate() {
            if delay_ms[job] > 0 {
                self.degradation.placements_delayed += 1;
                self.degradation.placement_delay_ms += delay_ms[job];
            }
            if self.scenario.is_classified() {
                // Declare the job's class and SLO at submission: the
                // anchor the oracle checks every later class event
                // (preempt, SLO report) for consistency against.
                let class = self.scenario.class_of(job);
                self.trace.record(
                    SimTime::from_millis(start.as_millis() + delay_ms[job]),
                    job as u64,
                    TraceData::SchedClassAssign {
                        job: job as u64,
                        crit: class.crit,
                        slo_ms: class.slo_ms,
                    },
                );
            }
            queue.insert(
                (start.as_millis() + delay_ms[job], CLASS_PLACE, job as u64),
                Event::Place { job, attempt: 0 },
            );
        }
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
                    self.fleet.rebalance_period.as_millis() * k as u64,
                    CLASS_REBALANCE,
                    k as u64,
                ),
                Event::Rebalance { check: k },
            );
        }
        while let Some((&key, _)) = queue.iter().next() {
            let event = queue.remove(&key).expect("key just observed");
            let t = SimTime::from_millis(key.0);
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

type EventQueue = BTreeMap<(u64, u8, u64), Event>;

/// Runs `scenario` on the fleet described by `fleet`, under the fleet's
/// fault plan ([`FleetConfig::faults`]).
///
/// Requires an M3 `setting` — placement reacts to monitor pressure. Each
/// job is admitted onto one node, and the returned [`ClusterResult`] holds
/// final-node runtimes measured from each job's *arrival*. Injected faults
/// — node crashes, flapping probe endpoints, delayed placements, scheduler
/// restarts — are accounted in [`FleetResult::degradation`], and
/// [`FleetOracle`]'s recovery invariants run on every trace.
pub fn run_fleet(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
    fleet: &FleetConfig,
) -> FleetResult {
    run_fleet_with_workers(scenario, setting, machine_cfg, fleet, worker_threads())
}

/// [`run_fleet`] with an explicit worker count. The result is bit-identical
/// for every `workers` value (the worker-count proptest pins this down);
/// the count only decides how many threads pre-warm node simulations and
/// run the final full-length node runs.
pub fn run_fleet_with_workers(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
    fleet: &FleetConfig,
    workers: usize,
) -> FleetResult {
    assert!(!fleet.nodes.is_empty(), "need at least one node");
    assert!(
        setting.is_m3(),
        "the fleet scheduler places by monitor pressure; run static \
         baselines on replicated workers with `run_cluster`"
    );
    let mut state = Fleet::new(scenario, machine_cfg, fleet, workers);
    state.run_events();
    finish(state)
}

/// Folds a scheduled fleet into its result. Each non-empty node makes one
/// final full-length run, per-job outcomes come from those runs, and the
/// fleet oracle checks the placement log.
fn finish(mut state: Fleet) -> FleetResult {
    let (scenario, fleet) = (state.scenario, state.fleet);
    let njobs = scenario.len();

    // Final full-length run per non-empty node, in parallel via the node
    // cache; then fold per-job outcomes out of each job's final node.
    let finals: Vec<Option<Arc<ScenarioOutcome>>> =
        crate::parallel::parallel_map((0..state.nodes.len()).collect(), state.workers, |node| {
            (!state.nodes[node].apps.is_empty()).then(|| state.simulate(node, true))
        });

    let mut jobs = Vec::with_capacity(njobs);
    let mut app_runtimes_s = Vec::with_capacity(njobs);
    let mut failures = Vec::with_capacity(njobs);
    for job in 0..njobs {
        let arrival = SimTime::ZERO + scenario.apps[job].1;
        let class = scenario.class_of(job);
        let (node, runtime_ms, stall_ms, failure) = match state.assignment[job] {
            Some((node, slot)) => {
                let app = &finals[node].as_ref().expect("assigned node ran").run.apps[slot];
                let rt = (!app.killed && !app.failed)
                    .then_some(app.finished)
                    .flatten()
                    .map(|f| f.saturating_since(arrival).as_millis());
                let failure = if app.killed {
                    Some(JobFailure::Killed)
                } else if app.failed {
                    Some(JobFailure::Crashed)
                } else {
                    None
                };
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
                state.trace.record(
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
        app_runtimes_s.push(runtime_s);
        failures.push(failure);
    }
    // No per-node runtime matrix in scheduler mode: it is O(jobs × nodes)
    // and the per-job outcomes above carry the same information.
    let cluster = ClusterResult {
        app_runtimes_s,
        per_node_s: Vec::new(),
        spread_s: Vec::new(),
        failures,
    };

    let mut violations = FleetOracle::new(fleet.grace.as_millis())
        .with_defer_interval(fleet.defer_interval.as_millis())
        .check(&state.trace);
    for out in finals.iter().flatten() {
        violations.extend(out.run.violations.iter().cloned());
    }
    FleetResult {
        cluster,
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
    use crate::scenario::fleet_canonical;
    use proptest::prelude::*;

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

    /// Runs `scenario` with every arrival placed on `node`, admission
    /// control skipped (the [`Fleet::pin`] seam).
    fn run_pinned(scenario: &Scenario, fleet: &FleetConfig, node: usize) -> FleetResult {
        let mut state = Fleet::new(scenario, quick_cfg(), fleet, 1);
        state.pin = Some(node);
        state.run_events();
        finish(state)
    }

    /// The two-node fleet on which the rebalance tests pin both jobs to
    /// node 0: an eager grace window and frequent checks.
    fn eager_rebalance_fleet() -> FleetConfig {
        let mut fleet = FleetConfig::homogeneous(2, 64 * GIB);
        fleet.grace = SimDuration::ZERO;
        fleet.rebalance_period = SimDuration::from_secs(1);
        fleet.rebalance_checks = 150;
        fleet
    }

    /// The cluster oracle's verdict on `trace`, as `run_fleet` checks it.
    fn fleet_violations(fleet: &FleetConfig, trace: &TraceLog) -> Vec<Violation> {
        FleetOracle::new(fleet.grace.as_millis())
            .with_defer_interval(fleet.defer_interval.as_millis())
            .check(trace)
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
        assert!(res.cluster.mean_runtime_secs().all_completed());
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
        assert_eq!(res.cluster.app_runtimes_s[1], None);
        let mean = res.cluster.mean_runtime_secs();
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
        let mut state = Fleet::new(&scenario, cfg, &fleet, 1);
        let v = state.probe(2, SimTime::from_millis(1_000));
        assert!(
            state.nodes[2].probe.is_none(),
            "idle probe must not allocate a scenario run"
        );
        assert_eq!(v.summary, state.idle[&(64 * GIB)]);
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
        let mut a = Fleet::new(&scenario, cfg, &fleet, 1);
        a.run_events();
        let mut b = Fleet::new(&scenario, cfg, &fleet, 1);
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
        other.defer_interval = SimDuration::from_secs(99);
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
        let violations = fleet_violations(&fleet, &stripped);
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
        // Pinning co-locates both n-weight jobs on node 0, which
        // pushes it into the red zone; with an eager grace window the
        // rebalancer must migrate the newest job to the idle node. (The
        // adaptive thresholds chase usage within seconds, so red streaks
        // are transient — a zero grace window is what makes the check
        // deterministic; grace *enforcement* is covered by the oracle's
        // unit tests.)
        let scenario = Scenario::uniform("WW", 60);
        let res = run_pinned(&scenario, &eager_rebalance_fleet(), 0);
        assert_eq!(res.jobs[1].migrations, 1, "newest job is the victim");
        assert_eq!(res.jobs[1].node, Some(1), "it restarts on the idle node");
        assert_eq!(res.jobs[0].migrations, 0, "the older job stays put");
        assert!(res
            .trace
            .events()
            .iter()
            .any(|e| matches!(e.data, TraceData::FleetMigrate { .. })));
        assert!(
            res.violations.is_empty(),
            "an eager-grace migration is still conformant: {:?}",
            res.violations
        );
    }

    #[test]
    fn worker_count_does_not_change_the_result() {
        let scenario = fleet_canonical();
        let fleet = small_fleet();
        let cfg = quick_cfg();
        let setting = Setting::m3(scenario.len());
        let a = run_fleet_with_workers(&scenario, &setting, cfg, &fleet, 1);
        let b = run_fleet_with_workers(&scenario, &setting, cfg, &fleet, 4);
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
            "fleet results must be bit-identical for any worker count"
        );
    }

    // ---- mixed criticality --------------------------------------------

    use crate::scenario::JobClass;

    #[test]
    fn latency_critical_preempts_batch_instead_of_starving() {
        // One 64-GiB node fully reserved by a Batch n-weight; a
        // latency-critical k-means arrives a minute later. Without
        // preemption the k-means would defer until the n-weight finishes;
        // with it, the batch job is evicted, re-queued, and the critical
        // job takes the node. Long victim backoff keeps the evicted batch
        // job from racing back onto the node before the critical one.
        let scenario = Scenario::uniform("WM", 60).with_classes(vec![
            JobClass::new(Criticality::Batch, 0),
            JobClass::new(Criticality::LatencyCritical, 0),
        ]);
        let mut fleet = FleetConfig::homogeneous(1, 64 * GIB);
        fleet.rebalance_checks = 0;
        fleet.max_defers = 200;
        fleet.backoff_base = SimDuration::from_secs(600);
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
        assert!(preempts >= 1, "the critical job must preempt the batch one");
        assert_eq!(res.jobs[1].failure, None, "the critical job completes");
        assert_eq!(res.jobs[1].crit, Criticality::LatencyCritical);
        assert!(
            res.jobs[0].reschedules >= 1,
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
        fleet.backoff_base = SimDuration::from_secs(600);
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
        let violations = fleet_violations(&fleet, &relabelled);
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
        // classes: the *older* job is Standard, the newer one critical.
        // The class-aware rebalancer must invert the legacy
        // latest-arriving choice and move the more-expendable older job.
        let scenario = Scenario::uniform("WW", 60).with_classes(vec![
            JobClass::new(Criticality::Standard, 0),
            JobClass::new(Criticality::LatencyCritical, 0),
        ]);
        let res = run_pinned(&scenario, &eager_rebalance_fleet(), 0);
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
    fn zero_retry_budget_orphans_lost_jobs() {
        let scenario = Scenario::uniform("M", 0);
        let mut fleet = small_fleet();
        fleet.retry_budget = 0;
        fleet.faults = FleetFaultPlan::none().with_node_crash(SimDuration::from_secs(60), 0);
        let res = run_fleet(&scenario, &Setting::m3(1), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert_eq!(res.degradation.jobs_orphaned, 1);
        assert_eq!(res.degradation.jobs_rescheduled, 0);
        assert_eq!(res.jobs[0].node, None);
        assert_eq!(res.jobs[0].failure, Some(JobFailure::NodeLost));
        let mean = res.cluster.mean_runtime_secs();
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
        // Node 1's endpoint flaps for 1000 s with a 10 s stale window: the
        // rebalance sweep's forced re-reads quarantine it, and after the
        // flap ends its healthy probes re-admit it. The single job placed
        // at t=0 is unaffected.
        let scenario = Scenario::uniform("M", 0);
        let mut fleet = FleetConfig::homogeneous(2, 64 * GIB);
        fleet.stale_window = SimDuration::from_secs(10);
        fleet.quarantine_after = 1;
        fleet.quarantine_healthy = 3;
        fleet.rebalance_period = SimDuration::from_secs(60);
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
        let entered = res.trace.events().iter().any(|e| {
            matches!(
                e.data,
                TraceData::FleetQuarantine {
                    node: 1,
                    entered: true,
                    ..
                }
            )
        });
        let exited = res.trace.events().iter().any(|e| {
            matches!(
                e.data,
                TraceData::FleetQuarantine {
                    node: 1,
                    entered: false,
                    ..
                }
            )
        });
        assert!(entered, "the flapping node must be quarantined");
        assert!(exited, "healthy probes after the flap must re-admit it");
        assert_eq!(res.jobs[0].failure, None);
    }

    #[test]
    fn stale_probes_are_tolerated_inside_the_window() {
        // Both nodes flap from t=0, but the stale window is generous: every
        // read is served from the flap-start summary, nothing fails, and
        // nothing is quarantined.
        let scenario = Scenario::uniform("M", 0);
        let mut fleet = FleetConfig::homogeneous(2, 64 * GIB);
        fleet.stale_window = SimDuration::from_secs(10_000);
        fleet.rebalance_checks = 5;
        fleet.faults = FleetFaultPlan::none()
            .with_flap(0, SimDuration::ZERO, SimDuration::from_secs(1_000))
            .with_flap(1, SimDuration::ZERO, SimDuration::from_secs(1_000));
        let res = run_fleet(&scenario, &Setting::m3(1), quick_cfg(), &fleet);
        assert!(res.violations.is_empty(), "{:?}", res.violations);
        assert!(res.degradation.stale_probe_decisions > 0);
        assert_eq!(res.degradation.probe_failures, 0);
        assert_eq!(res.degradation.quarantine_episodes, 0);
        assert_eq!(res.jobs[0].failure, None);
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
        let fleet = eager_rebalance_fleet();
        let mut state = Fleet::new(&scenario, quick_cfg(), &fleet, 1);
        state.pin = Some(0);
        state.run_events();
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
        let a = run_fleet_with_workers(&scenario, &setting, quick_cfg(), &fleet, 1);
        let b = run_fleet_with_workers(&scenario, &setting, quick_cfg(), &fleet, 4);
        assert_eq!(
            serde_json::to_string(&a).expect("serialize"),
            serde_json::to_string(&b).expect("serialize"),
            "chaos results must be bit-identical for any worker count"
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

        /// On fleets of two to four shards, under random node crashes,
        /// probe flaps and scheduler restarts, the shard index keeps its
        /// invariants: `run_events` checks them after every event.
        #[test]
        fn shard_index_keeps_its_invariants_under_chaos(
            (nodes, gap_s) in (65usize..257, 0u64..300),
            jobs in proptest::collection::vec(0usize..4, 1..5),
            crashes in proptest::collection::vec((0u64..1_500, target_node()), 0..3),
            flaps in proptest::collection::vec((target_node(), 0u64..900, 30u64..1_200), 0..6),
            restarts in proptest::collection::vec(0u64..1_500, 0..3),
            (stale_s, quarantine_after, quarantine_healthy) in (0u64..60, 1u32..3, 1u32..4),
        ) {
            let codes: String = jobs.iter().map(|&k| ['M', 'P', 'W', 'C'][k]).collect();
            let scenario = Scenario::uniform(&codes, gap_s);
            let mut fleet = FleetConfig::homogeneous(nodes, 64 * GIB);
            fleet.stale_window = SimDuration::from_secs(stale_s);
            fleet.quarantine_after = quarantine_after;
            fleet.quarantine_healthy = quarantine_healthy;
            fleet.rebalance_period = SimDuration::from_secs(60);
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
}
