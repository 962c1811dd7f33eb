//! The simulated node: world loop tying kernel, disk, monitor and apps.
//!
//! One [`Machine::run`] is one experiment on one worker node (all of the
//! paper's per-node profiles — Figs. 2, 6, 7, 10 — are exactly this view).
//! The loop is time-stepped on one 100-ms grid: each tick it starts due
//! applications, lets the monitor poll (once per second of simulated time),
//! delivers threshold signals, advances every application by a time budget
//! scaled by the kernel's swap-thrash multiplier, runs the OOM check, and
//! samples the memory profile. With nothing running it skips straight to
//! the next instant at which anything can happen; a private tick-by-tick
//! loop in this module's tests is the skip's reference.
//!
//! The loop's state is one crate-private `World`, and a run is
//! `World::new(..).finish()`. A world can also stop before an instant and
//! be cloned, and a clone can take schedule entries and faults due at or
//! after that instant and run on: the fleet scheduler resumes node runs
//! from their latest change this way, byte-identical to a run from t = 0
//! (DESIGN.md §9).

use std::any::Any;
use std::sync::Arc;

use m3_core::{Monitor, MonitorConfig, Registry, ThresholdSignal, Zone, POLL_PERIOD};
use m3_oracle::{Checker, Oracle, Violation};
use m3_os::cgroup::{Cgroup, CgroupSet};
use m3_os::{DiskModel, Kernel, KernelConfig, Pid, Signal};
use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::metrics::Profile;
use m3_sim::trace::{Criticality, SigKind, TraceData, TraceLog};
use m3_sim::units::{bytes_to_gib, GIB};
use serde::{Deserialize, Serialize};

use crate::apps::{AnyApp, AppBlueprint};
use crate::faults::{
    DegradationReport, FaultEvent, FaultKind, FaultPlan, FaultRecovery, UnappliedFault,
    UnappliedReason,
};
use crate::scenario::JobClass;
use crate::settings::Setting;
use crate::timeline::PressureTimeline;

/// One schedule entry: display name, start delay, and the blueprint built at
/// start time. Names are `Arc<str>` so interned names are shared across the
/// many runs of a sweep instead of being reallocated per run.
pub type ScheduleEntry = (Arc<str>, SimDuration, AppBlueprint);

/// World tick length: the grid every loop iteration runs on.
const TICK: SimDuration = SimDuration::from_millis(100);

/// World parameters.
///
/// Serializable so a `(scenario, setting, machine_cfg)` triple can be
/// content-addressed by the run memoization cache (see
/// [`crate::parallel`]).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Physical memory of the node (the paper: 64 GB by cgroup).
    pub phys_total: u64,
    /// The M3 monitor configuration; `None` runs a stock system.
    pub monitor: Option<MonitorConfig>,
    /// Profile sampling period (`None` disables capture, for benches).
    pub sample_period: Option<SimDuration>,
    /// Hard wall-clock cap on the simulation.
    pub max_time: SimDuration,
    /// Node salt: perturbs application-internal orderings so cluster nodes
    /// are not bit-identical (0 for single-node runs).
    pub node_salt: u64,
    /// Captures a typed end-to-end event trace and checks each event
    /// against the paper's invariants as it is recorded (see
    /// [`RunResult::trace`] and [`RunResult::violations`]). Off, the
    /// kernel's trace log is disabled and records nothing, and nothing is
    /// checked. Part of the memoization cache key.
    pub capture_trace: bool,
    /// Records the monitor's pressure summary into
    /// [`RunResult::pressure_timeline`] at every poll where it differs from
    /// the last one recorded. The fleet scheduler sets this on its probe
    /// runs so one full-horizon simulation answers pressure queries at
    /// every instant. Part of the memoization cache key.
    pub pressure_timeline: bool,
}

impl MachineConfig {
    /// A stock 64-GB node (no monitor).
    pub fn stock_64gb() -> Self {
        MachineConfig {
            phys_total: 64 * GIB,
            monitor: None,
            sample_period: Some(SimDuration::from_secs(2)),
            max_time: SimDuration::from_secs(30_000),
            node_salt: 0,
            capture_trace: true,
            pressure_timeline: false,
        }
    }

    /// The paper's M3 node: 64 GB with the §6 monitor parameters.
    pub fn m3_64gb() -> Self {
        MachineConfig {
            monitor: Some(MonitorConfig::paper_64gb()),
            ..MachineConfig::stock_64gb()
        }
    }

    /// A scaled node (e.g. the 8-GB Memcached node of Fig. 9).
    pub fn scaled(phys_total: u64, m3: bool) -> Self {
        MachineConfig {
            phys_total,
            monitor: m3.then(|| MonitorConfig::scaled(phys_total)),
            ..MachineConfig::stock_64gb()
        }
    }

    /// Resolves the monitor field against a setting: M3 settings get a
    /// monitor scaled to the node (keeping an explicit one if present),
    /// every other regime runs stock. This is the single place the
    /// setting→monitor rule lives; the runner, comparison, and search
    /// paths all go through it.
    pub fn with_setting(mut self, setting: &Setting) -> Self {
        if setting.is_m3() {
            if self.monitor.is_none() {
                self.monitor = Some(MonitorConfig::scaled(self.phys_total));
            }
        } else {
            self.monitor = None;
        }
        self
    }
}

/// Why a job produced no runtime. A typed reason instead of killed/failed
/// booleans: fleet-level chaos adds ways to lose a job (node death, retry
/// budget exhaustion) that are not monitor kills or crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobFailure {
    /// The M3 monitor killed the job to relieve memory pressure.
    Killed,
    /// The job itself failed (allocation failure, kernel OOM).
    Crashed,
    /// The job's node died mid-run and its retry budget ran out.
    NodeLost,
    /// The scheduler gave up placing the job after exhausting deferrals.
    GaveUp,
}

/// Outcome for one scheduled application.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppResult {
    /// Display name (unique within the run, e.g. `"k-means 0"`).
    pub name: String,
    /// Scheduled start time.
    pub started: SimTime,
    /// Completion time, if the app finished.
    pub finished: Option<SimTime>,
    /// When the app stopped occupying memory, whatever the reason: equals
    /// `finished` for completed apps, the kill instant for killed apps, the
    /// spawn instant for failed ones. `None` only if the run's time cap hit
    /// while the app was still live.
    pub ended: Option<SimTime>,
    /// True if the app was killed (OOM or M3 escalation).
    pub killed: bool,
    /// True if the app failed to run (static heap below the job's floor).
    pub failed: bool,
    /// Total GC pause in the app's runtime layer.
    pub gc_pause: SimDuration,
    /// Framework memory-management time (Spark capacity misses).
    pub mm_time: SimDuration,
    /// Time spent inside reclamation signal handlers — the memory-pressure
    /// stall the scheduler charges against a job's latency SLO.
    pub stall: SimDuration,
    /// Peak resident set size observed.
    pub peak_rss: u64,
}

impl AppResult {
    /// A scheduled app that has not started yet.
    fn scheduled(name: &str, start: SimDuration) -> AppResult {
        AppResult {
            name: name.to_string(),
            started: SimTime::ZERO + start,
            finished: None,
            ended: None,
            killed: false,
            failed: false,
            gc_pause: SimDuration::ZERO,
            mm_time: SimDuration::ZERO,
            stall: SimDuration::ZERO,
            peak_rss: 0,
        }
    }

    /// The app's runtime, if it completed.
    pub fn runtime(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.saturating_since(self.started))
    }

    /// Why the app has no runtime: a kill outranks its own failure, and
    /// `None` means it was neither killed nor failed.
    pub fn failure(&self) -> Option<JobFailure> {
        if self.killed {
            Some(JobFailure::Killed)
        } else if self.failed {
            Some(JobFailure::Crashed)
        } else {
            None
        }
    }

    /// True if the app holds its place on the node at `t_ms`: started at
    /// or before it and not yet ended.
    pub(crate) fn alive_at(&self, t_ms: u64) -> bool {
        self.started.as_millis() <= t_ms && self.ended.is_none_or(|e| e.as_millis() > t_ms)
    }
}

/// Outcome of one experiment run.
///
/// Serializable end to end: the determinism regression test compares runs
/// by their serialized bytes, and the memoization cache hands out shared
/// results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// Per-application outcomes, in schedule order.
    pub apps: Vec<AppResult>,
    /// The sampled memory profile (empty when sampling is disabled).
    pub profile: Profile,
    /// Monitor statistics, when a monitor ran.
    pub monitor_stats: Option<m3_core::monitor::MonitorStats>,
    /// The monitor's pressure summary at every poll and at the end of the
    /// run, when [`MachineConfig::pressure_timeline`] is set (empty when it
    /// is not or no monitor ran), kept only where it changes. The fleet
    /// scheduler reads a node's pressure at time `t` as the last sample at
    /// or before `t`, which a dropped repeat does not change. A run resumed
    /// from another run's world shares that run's samples up to the resume
    /// point instead of copying them.
    pub pressure_timeline: PressureTimeline,
    /// When the last application terminated (or the cap was hit).
    pub end: SimTime,
    /// Time-weighted mean of total committed bytes (§7.3's effective
    /// utilization measure).
    pub mean_rss: f64,
    /// Fault-injection accounting (all-zero for fault-free runs). How the
    /// monitor degraded under the faults is in [`RunResult::monitor_stats`].
    pub degradation: DegradationReport,
    /// The typed end-to-end event trace (empty when capture is disabled).
    pub trace: TraceLog,
    /// Conformance-oracle findings: divergences between the recorded trace
    /// and the paper's invariants. Empty for a conformant (or untraced) run.
    pub violations: Vec<Violation>,
}

impl RunResult {
    /// True if every application finished (none failed, none killed).
    pub fn all_finished(&self) -> bool {
        self.apps
            .iter()
            .all(|a| a.finished.is_some() && !a.killed && !a.failed)
    }
}

#[derive(Clone)]
struct Slot {
    idx: usize,
    app: AnyApp,
    peak_rss: u64,
    /// The job's criticality class (drives per-class signal handling).
    class: JobClass,
    /// Accumulated reclamation-handler time.
    stall: SimDuration,
    /// Injected non-cooperation: when set, the app's signal handler still
    /// runs but only this fraction of freed bytes is returned to the OS.
    unresponsive: Option<f64>,
    /// Injected leak rate in bytes per simulated second (0 = none).
    leak_rate: u64,
    /// Sub-second leak remainder carried between ticks (exact integer
    /// accounting, so results stay bit-deterministic).
    leak_carry: u64,
}

/// Internal event type of the fault queue.
#[derive(Clone)]
enum FaultAction {
    /// Apply `FaultPlan::events[i]`.
    App(usize),
    /// Run `FaultPlan::churn[i]`: ghost registers, dies, pid is reused.
    ChurnSpawn(usize),
    /// Retire churn `i`'s bystander.
    ChurnRetire(usize),
}

/// A simulated node.
#[derive(Debug, Clone, Copy)]
pub struct Machine {
    cfg: MachineConfig,
}

impl Machine {
    /// Creates a node.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine { cfg }
    }

    /// The node configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Runs a schedule of `(name, start, blueprint)` to completion (or the
    /// time cap) and returns per-app results plus the memory profile.
    pub fn run(&self, schedule: Vec<ScheduleEntry>) -> RunResult {
        self.run_with(schedule, &FaultPlan::none(), &[], None)
    }

    /// [`Machine::run`] with everything a run can vary beyond its schedule:
    ///
    /// - `faults` are executed against the schedule — crashes,
    ///   non-cooperation, leaks, signal loss/delay, meminfo outages,
    ///   registration churn — and [`RunResult::degradation`] accounts for
    ///   every injected item;
    /// - `classes` gives each schedule entry a criticality class (missing
    ///   entries default to `Standard`). Batch jobs treat the advisory low
    ///   signal as a high one (earlier, larger reclamation),
    ///   latency-critical jobs ignore the low signal and only reclaim on
    ///   high, and the class is written into the job's PID file so the
    ///   monitor's kill ordering sees it;
    /// - `container_limits`, one per schedule entry, places each
    ///   application in its own container with a static limit
    ///   (`memory.high` semantics: members of an over-limit container
    ///   receive reclaim pressure once per second) — the per-container
    ///   static baseline for the paper's §9 container question.
    pub fn run_with(
        &self,
        schedule: Vec<ScheduleEntry>,
        faults: &FaultPlan,
        classes: &[JobClass],
        container_limits: Option<Vec<u64>>,
    ) -> RunResult {
        World::new(
            self.cfg,
            schedule,
            faults.clone(),
            classes,
            container_limits,
        )
        .finish()
    }
}

/// One node run's whole state: the world loop's clock, kernel, monitor,
/// applications, queues and accumulators.
///
/// [`Machine::run_with`] is `World::new(..).finish()`. The fleet scheduler
/// also stops a world before an instant ([`World::advance_to`]) or where
/// its run ends ([`World::run_to_end`]) and clones it; a clone takes
/// schedule entries and faults due at or after its clock
/// ([`World::push_app`], [`World::push_fault`]) and runs on. The result is
/// byte-identical to a run that had the entries from t = 0 (DESIGN.md §9,
/// "Determinism argument: resumable worlds").
#[derive(Clone)]
pub(crate) struct World {
    cfg: MachineConfig,
    schedule: Vec<ScheduleEntry>,
    faults: FaultPlan,
    /// One class per schedule entry.
    classes: Vec<JobClass>,
    kernel: Kernel,
    disk: DiskModel,
    monitor: Option<Monitor>,
    /// Schedule indices, due at their start times.
    queue: m3_sim::EventQueue<usize>,
    results: Vec<AppResult>,
    running: Vec<Slot>,
    registry: Registry,
    profile: Profile,
    /// The instant of the next loop iteration (always on the tick grid).
    now: SimTime,
    cgroups: Option<CgroupSet>,
    next_enforce: SimTime,
    faultq: m3_sim::EventQueue<FaultAction>,
    degradation: DegradationReport,
    /// Applied app faults awaiting recovery: (event index, monitor polls
    /// at application time, armed). An entry arms once the system enters
    /// Red/AboveTop after the fault; it closes at the next Green/Yellow
    /// poll — so the recorded time measures an actual excursion-and-
    /// return, not an incidental calm poll right after injection.
    pending_recoveries: Vec<(usize, u64, bool)>,
    churn_bystanders: Vec<Pid>,
    next_poll: SimTime,
    next_sample: SimTime,
    /// The pressure summary at every poll so far where it changed, when
    /// the config records them. The fleet keeps checkpoints without it and
    /// gives a resumed world a prefix of the memoized outcome's timeline,
    /// which shares that outcome's samples.
    pub(crate) pressure_timeline: PressureTimeline,
    /// Mean-RSS integral as exact integers (`committed` summed per tick):
    /// integer addition is associative, so the idle skip accounts a whole
    /// gap of idle ticks in one multiplication, bit-identical to summing
    /// them tick by tick.
    rss_area: u128,
    ticks: u64,
    /// Set after an iteration, until the end test and the idle skip of
    /// the instant after it have run.
    boundary: bool,
    /// Set once the time cap is reached: no further iteration runs.
    over: bool,
}

impl World {
    /// A world at t = 0 with `schedule` and `faults` queued and nothing
    /// run yet. `classes` and `container_limits` are as in
    /// [`Machine::run_with`].
    pub(crate) fn new(
        cfg: MachineConfig,
        schedule: Vec<ScheduleEntry>,
        faults: FaultPlan,
        classes: &[JobClass],
        container_limits: Option<Vec<u64>>,
    ) -> World {
        let mut kernel = Kernel::new(KernelConfig::with_total(cfg.phys_total));
        if cfg.capture_trace {
            kernel.observe_with(Box::new(Oracle::paper(cfg.monitor).checker()));
        } else {
            kernel.trace = TraceLog::disabled();
        }
        let mut queue = m3_sim::EventQueue::new();
        let mut results = Vec::with_capacity(schedule.len());
        for (i, (name, start, _)) in schedule.iter().enumerate() {
            results.push(AppResult::scheduled(name, *start));
            queue.schedule(SimTime::ZERO + *start, i);
        }
        let cgroups = container_limits.map(|limits| {
            assert_eq!(
                limits.len(),
                schedule.len(),
                "one container limit per scheduled app"
            );
            let mut set = CgroupSet::new();
            for (i, (name, _, _)) in schedule.iter().enumerate() {
                set.add(Cgroup::new(name.as_ref(), limits[i]));
            }
            set
        });
        let mut faultq = m3_sim::EventQueue::new();
        for (i, ev) in faults.events.iter().enumerate() {
            faultq.schedule(SimTime::ZERO + ev.at, FaultAction::App(i));
        }
        for (i, ch) in faults.churn.iter().enumerate() {
            faultq.schedule(SimTime::ZERO + ch.at, FaultAction::ChurnSpawn(i));
        }
        kernel.set_signal_faults(faults.signal_faults);
        let degradation = DegradationReport {
            faults_injected: faults.injected_count(),
            ..DegradationReport::default()
        };
        let mut profile = Profile::new();
        if cfg.sample_period.is_some() {
            // The always-present series come first. They grow as they
            // sample: reserving the whole horizon up front (15,001 samples,
            // 240 KB, at the paper node's 2-s period) left the heap holding
            // reservations a run barely touched, and more than tripled a
            // 16-scenario sweep's peak RSS.
            profile.series_mut("total");
            if cfg.monitor.is_some() {
                profile.series_mut("low-threshold");
                profile.series_mut("high-threshold");
                profile.series_mut("top");
            }
        }
        World {
            classes: (0..schedule.len())
                .map(|i| classes.get(i).copied().unwrap_or_default())
                .collect(),
            churn_bystanders: vec![0; faults.churn.len()],
            monitor: cfg.monitor.map(Monitor::new),
            cfg,
            schedule,
            faults,
            kernel,
            disk: DiskModel::hdd_7200rpm(),
            queue,
            results,
            running: Vec::new(),
            registry: Registry::new(),
            profile,
            now: SimTime::ZERO,
            cgroups,
            next_enforce: SimTime::ZERO + POLL_PERIOD,
            faultq,
            degradation,
            pending_recoveries: Vec::new(),
            next_poll: SimTime::ZERO + POLL_PERIOD,
            next_sample: SimTime::ZERO,
            pressure_timeline: PressureTimeline::default(),
            rss_area: 0,
            ticks: 0,
            boundary: false,
            over: false,
        }
    }

    /// The node trace recorded so far. The fleet keeps checkpoints without
    /// it and puts the prefix back from the memoized outcome when it
    /// resumes one; the kernel keeps the checker's state beside the trace,
    /// so a copy of the world carries it.
    pub(crate) fn trace_mut(&mut self) -> &mut TraceLog {
        &mut self.kernel.trace
    }

    /// Runs every loop iteration before `t` and stops the clock at the
    /// first iteration instant at or after it, or earlier where the run
    /// stops: at the time cap, or once everything has started and nothing
    /// is running. The latter only pauses a world: a [`World::push_app`]
    /// before the next call lets it run on from there. Entries due at `t`
    /// are pushed before the call, so the idle skip stops for them.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        self.run(Some(t));
    }

    /// Appends a schedule entry with its class. It must not be due in a
    /// tick before the world's next iteration instant.
    pub(crate) fn push_app(&mut self, entry: ScheduleEntry, class: JobClass) {
        assert!(
            self.cgroups.is_none(),
            "containerized runs take their whole schedule up front"
        );
        let (name, start, _) = &entry;
        debug_assert!(self.grid_ceil(start.as_millis()) >= self.now.as_millis());
        self.results.push(AppResult::scheduled(name, *start));
        self.queue
            .schedule(SimTime::ZERO + *start, self.schedule.len());
        self.schedule.push(entry);
        self.classes.push(class);
    }

    /// Appends an app-targeted fault event against an app already
    /// scheduled, due no earlier than a pushed app could be. The plan must
    /// have no churn (a churn event queues its own retirement mid-run).
    pub(crate) fn push_fault(&mut self, ev: FaultEvent) {
        assert!(
            self.faults.churn.is_empty(),
            "plans with churn are not resumable"
        );
        debug_assert!(self.grid_ceil(ev.at.as_millis()) >= self.now.as_millis());
        self.faultq.schedule(
            SimTime::ZERO + ev.at,
            FaultAction::App(self.faults.events.len()),
        );
        self.faults.events.push(ev);
        self.degradation.faults_injected += 1;
    }

    /// Runs the world to its end without folding it: to the time cap, or
    /// to where everything has started and nothing is running. Like
    /// [`World::advance_to`], the latter only pauses the world.
    pub(crate) fn run_to_end(&mut self) {
        self.run(None);
    }

    /// The instant of the world's next loop iteration.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// True once the time cap has stopped the world for good.
    pub(crate) fn is_over(&self) -> bool {
        self.over
    }

    /// Runs the world to its end and folds it into a [`RunResult`].
    pub(crate) fn finish(mut self) -> RunResult {
        self.run_to_end();
        self.result()
    }

    /// The least tick-grid instant at or after `t_ms`.
    fn grid_ceil(&self, t_ms: u64) -> u64 {
        let tick_ms = TICK.as_millis();
        t_ms.div_ceil(tick_ms) * tick_ms
    }

    /// The world loop: an iteration, then at the instant after it the end
    /// test and the idle skip, until the time cap, until everything has
    /// started and nothing is running, or until the next iteration would
    /// run at or after `until`.
    fn run(&mut self, until: Option<SimTime>) {
        while !self.over {
            if self.boundary {
                if self.queue.is_empty() && self.running.is_empty() {
                    return;
                }
                self.boundary = false;
                self.skip_idle();
            } else if until.is_some_and(|t| self.now >= t) {
                return;
            } else {
                self.iterate();
                self.now += TICK;
                self.boundary = true;
                self.over = self.now.saturating_since(SimTime::ZERO) >= self.cfg.max_time;
            }
        }
    }

    /// Idle skip: with no live process the world is inert between
    /// scheduled instants — nothing allocates, the OOM check stays
    /// quiescent, and `committed` is constant — so jump the clock to the
    /// next instant at which anything can happen (app start, chaos kill,
    /// monitor poll, cgroup enforcement, profile sample), accounting the
    /// skipped ticks into the mean-RSS integral.
    fn skip_idle(&mut self) {
        if !self.running.is_empty() {
            return;
        }
        // The loop ends at the first grid instant at or past the time cap,
        // so no iteration can run later than this.
        let mut target_ms = self.grid_ceil(self.cfg.max_time.as_millis());
        let candidates = [
            self.queue.next_due().map(|t| t.as_millis()),
            self.faultq.next_due().map(|t| t.as_millis()),
            self.monitor.is_some().then(|| self.next_poll.as_millis()),
            self.cgroups
                .is_some()
                .then(|| self.next_enforce.as_millis()),
            self.cfg.sample_period.map(|_| self.next_sample.as_millis()),
        ];
        for t in candidates.into_iter().flatten() {
            target_ms = target_ms.min(self.grid_ceil(t));
        }
        let now_ms = self.now.as_millis();
        if target_ms > now_ms {
            let skipped = (target_ms - now_ms) / TICK.as_millis();
            self.rss_area += self.kernel.committed() as u128 * u128::from(skipped);
            self.ticks += skipped;
            self.now = SimTime::from_millis(target_ms);
            self.over = self.now.saturating_since(SimTime::ZERO) >= self.cfg.max_time;
        }
    }

    /// The body of one loop iteration at `now`.
    fn iterate(&mut self) {
        let now = self.now;
        let kernel = &mut self.kernel;
        kernel.set_time(now);

        // 1. Start applications whose delay has elapsed.
        for idx in self.queue.pop_due(now) {
            let (name, _, bp) = &self.schedule[idx];
            let pid = kernel.spawn(name.as_ref());
            let app = bp.build_salted(pid, self.cfg.node_salt);
            self.results[idx].started = now;
            if app.failed() {
                self.results[idx].failed = true;
                self.results[idx].ended = Some(now);
                kernel.exit(pid);
                continue;
            }
            let class = self.classes[idx];
            if bp.is_m3() {
                // §6: participants drop a PID file in the registration
                // directory; the monitor picks it up on its next poll.
                // The file also declares the job's criticality class.
                self.registry
                    .register_with_class(kernel, pid, name.as_ref(), class.crit);
            }
            if let Some(set) = self.cgroups.as_mut() {
                set.group_mut(idx).add(pid);
            }
            self.running.push(Slot {
                idx,
                app,
                peak_rss: 0,
                class,
                stall: SimDuration::ZERO,
                unresponsive: None,
                leak_rate: 0,
                leak_carry: 0,
            });
        }

        // 1b. Fault injection: apply due fault events. Events whose
        //     victim is not running are recorded as unapplied, never
        //     silently dropped.
        for action in self.faultq.pop_due(now) {
            match action {
                FaultAction::App(i) => {
                    let ev = &self.faults.events[i];
                    if ev.target >= self.schedule.len() {
                        self.degradation.faults_unapplied.push(UnappliedFault {
                            event: ev.clone(),
                            reason: UnappliedReason::NoSuchApp,
                        });
                        continue;
                    }
                    match self.running.iter_mut().find(|s| s.idx == ev.target) {
                        Some(slot) => {
                            match ev.kind {
                                FaultKind::Crash => kernel.kill(slot.app.pid()),
                                FaultKind::Unresponsive { reclaim_fraction } => {
                                    slot.unresponsive = Some(reclaim_fraction.clamp(0.0, 1.0));
                                }
                                FaultKind::Leak { bytes_per_sec } => {
                                    slot.leak_rate = bytes_per_sec;
                                }
                            }
                            self.degradation.faults_applied += 1;
                            // Recovery is measured in monitor polls, so
                            // it is only tracked when a monitor runs.
                            if let Some(m) = self.monitor.as_ref() {
                                self.pending_recoveries.push((i, m.stats.polls, false));
                            }
                        }
                        None => {
                            let r = &self.results[ev.target];
                            let reason = if r.finished.is_some() || r.killed || r.failed {
                                UnappliedReason::AlreadyDone
                            } else {
                                UnappliedReason::NotStarted
                            };
                            self.degradation.faults_unapplied.push(UnappliedFault {
                                event: ev.clone(),
                                reason,
                            });
                        }
                    }
                }
                FaultAction::ChurnSpawn(i) => {
                    let ch = &self.faults.churn[i];
                    // A ghost participant registers and crashes without
                    // deregistering; its stale PID file lingers.
                    let ghost = kernel.spawn(format!("ghost-{i}"));
                    self.registry.register(kernel, ghost, format!("ghost-{i}"));
                    kernel.kill(ghost);
                    // An unrelated bystander immediately reuses the pid.
                    // The sweep must not let it inherit the ghost's
                    // registration (incarnation mismatch).
                    let bystander = kernel.spawn_reusing(ghost, format!("bystander-{i}"));
                    let _ = kernel.grow(bystander, ch.bystander_rss);
                    self.churn_bystanders[i] = bystander;
                    self.faultq
                        .schedule(now + ch.bystander_lifetime, FaultAction::ChurnRetire(i));
                    self.degradation.faults_applied += 1;
                }
                FaultAction::ChurnRetire(i) => {
                    kernel.exit(self.churn_bystanders[i]);
                }
            }
        }

        // 2a. Container limit enforcement (once per second):
        //     `memory.high` semantics — members of an over-limit group
        //     receive reclaim pressure.
        if let Some(set) = self.cgroups.as_ref() {
            if now >= self.next_enforce {
                self.next_enforce += POLL_PERIOD;
                for idx in set.over_limit(kernel) {
                    for pid in set.groups()[idx].members() {
                        kernel.send_signal(pid, Signal::HighMemory);
                    }
                }
            }
        }

        // 2. Monitor poll (once per second of simulated time). The
        //    monitor first re-reads the PID-file directory. Injected
        //    outage windows make the meminfo read fail; the monitor
        //    then polls in degraded mode instead of skipping.
        if let Some(m) = self.monitor.as_mut() {
            if now >= self.next_poll {
                kernel.set_meminfo_outage(self.faults.poll_outages.iter().any(|w| w.contains(now)));
                self.registry.sync_monitor(m, kernel);
                let report = m.poll(kernel, now);
                self.next_poll += POLL_PERIOD;
                if self.cfg.pressure_timeline {
                    self.pressure_timeline
                        .record(now.as_millis(), m.pressure_summary(kernel.committed()));
                }
                match report.zone {
                    Zone::AboveTop => {
                        // Usage crossed top: arm every pending fault so
                        // its eventual return to comfort is measured as
                        // a real excursion-and-recovery. (Red alone does
                        // not arm — threshold-riding through the red
                        // zone is normal M3 operation, not damage.)
                        for entry in &mut self.pending_recoveries {
                            entry.2 = true;
                        }
                    }
                    Zone::Red => {}
                    Zone::Green | Zone::Yellow => {
                        // Comfortably below the high threshold again:
                        // every armed fault has recovered.
                        let polls_now = m.stats.polls;
                        let recoveries = &mut self.degradation.recoveries;
                        self.pending_recoveries.retain(|&(i, at, armed)| {
                            if armed {
                                recoveries.push(FaultRecovery {
                                    event_index: i,
                                    recovered_after_polls: Some(polls_now.saturating_sub(at)),
                                });
                            }
                            !armed
                        });
                    }
                }
            }
        }

        // 3. Deliver signals (upper layers reclaim before lower ones,
        //    inside each app's handler).
        for slot in &mut self.running {
            let pid = slot.app.pid();
            for sig in kernel.take_signals(pid) {
                match sig {
                    Signal::Kill => {
                        self.results[slot.idx].killed = true;
                    }
                    other => {
                        // A pressure signal can share the batch with (or
                        // be deferred by the lossy bus past) the kill
                        // that terminated this process; the dead cannot
                        // run handlers.
                        if !kernel.is_alive(pid) {
                            continue;
                        }
                        let Some(t) = ThresholdSignal::from_os_signal(other) else {
                            continue;
                        };
                        // Per-class reclamation aggressiveness: a batch
                        // job answers the advisory low signal with its
                        // high handler (earlier, larger reclamation); a
                        // latency-critical job ignores low entirely and
                        // only reclaims on high. Standard is unchanged.
                        let t = match (slot.class.crit, t) {
                            (Criticality::Batch, ThresholdSignal::Low) => ThresholdSignal::High,
                            (Criticality::LatencyCritical, ThresholdSignal::Low) => continue,
                            _ => t,
                        };
                        let sig_kind = match t {
                            ThresholdSignal::Low => SigKind::Low,
                            ThresholdSignal::High => SigKind::High,
                        };
                        kernel.record_trace(pid, TraceData::HandlerStart { sig: sig_kind });
                        let out = slot.app.handle_signal(t, kernel, now);
                        slot.app.add_debt(out.duration);
                        slot.stall += out.duration;
                        // Injected non-cooperation: the handler ran and
                        // freed pages internally, but only a fraction
                        // actually reaches the OS — the rest is re-grown
                        // into the kernel ledger (pages never madvised).
                        let returned = match slot.unresponsive {
                            Some(f) => {
                                let kept = (out.returned_to_os as f64 * f) as u64;
                                let _ = kernel.grow(pid, out.returned_to_os - kept);
                                kept
                            }
                            None => out.returned_to_os,
                        };
                        kernel.record_trace_with(pid, || TraceData::HandlerEnd {
                            sig: sig_kind,
                            duration_ms: out.duration.as_millis(),
                            returned,
                        });
                        if t == ThresholdSignal::High {
                            if let Some(m) = self.monitor.as_mut() {
                                m.note_reclamation(pid, returned);
                            }
                        }
                    }
                }
            }
        }
        let (results, monitor) = (&mut self.results, &mut self.monitor);
        self.running.retain(|s| {
            if results[s.idx].killed {
                results[s.idx].peak_rss = s.peak_rss;
                results[s.idx].stall = s.stall;
                results[s.idx].ended = Some(now);
                // Killed processes leave a stale PID file; the sweep on
                // the next sync removes it and unregisters the process.
                if let Some(m) = monitor.as_mut() {
                    m.unregister(s.app.pid());
                }
                false
            } else {
                true
            }
        });

        // 4. Advance applications, slowed by any swap thrashing. Without
        // swap the multiplier is exactly 1.0, and scaling by it returns
        // the tick unchanged (a tick's milliseconds are exact in f64),
        // so the float round trip is skipped.
        let thrash = kernel.thrash_multiplier();
        let budget = if thrash == 1.0 {
            TICK
        } else {
            TICK.mul_f64(thrash)
        };
        let readers = self.running.iter().filter(|s| s.app.uses_disk()).count();
        let mut finished_idx = Vec::new();
        for slot in &mut self.running {
            // Injected leak: steady growth the app itself never frees.
            // Exact integer carry keeps sub-second rates deterministic.
            if slot.leak_rate > 0 {
                slot.leak_carry += slot.leak_rate * TICK.as_millis();
                let bytes = slot.leak_carry / 1000;
                slot.leak_carry %= 1000;
                if bytes > 0 {
                    let _ = kernel.grow(slot.app.pid(), bytes);
                }
            }
            let done = slot.app.tick(kernel, &self.disk, now, budget, readers);
            slot.peak_rss = slot.peak_rss.max(kernel.rss(slot.app.pid()));
            if done {
                finished_idx.push(slot.idx);
            }
        }
        let registry = &mut self.registry;
        self.running.retain_mut(|s| {
            if finished_idx.contains(&s.idx) {
                let r = &mut results[s.idx];
                r.finished = Some(now + TICK);
                r.ended = r.finished;
                r.failed = s.app.failed();
                r.gc_pause = s.app.gc_pause();
                r.mm_time = s.app.mm_time();
                r.stall = s.stall;
                r.peak_rss = s.peak_rss;
                let pid = s.app.pid();
                kernel.exit(pid);
                // Clean shutdown removes the PID file and unregisters.
                registry.deregister(pid);
                if let Some(m) = monitor.as_mut() {
                    m.unregister(pid);
                }
                false
            } else {
                true
            }
        });

        // 5. OOM killer (swap exhaustion).
        while kernel.check_oom().is_some() {}

        // 6. Sample the profile.
        let committed = kernel.committed();
        self.rss_area += committed as u128;
        self.ticks += 1;
        if let Some(period) = self.cfg.sample_period {
            if now >= self.next_sample {
                let profile = &mut self.profile;
                profile
                    .series_mut("total")
                    .push(now, bytes_to_gib(committed));
                for slot in &self.running {
                    let rss = kernel.rss(slot.app.pid());
                    let name = &results[slot.idx].name;
                    profile.series_mut(name).push(now, bytes_to_gib(rss));
                }
                if let Some(m) = monitor.as_ref() {
                    let (low, high) = m.thresholds();
                    profile
                        .series_mut("low-threshold")
                        .push(now, bytes_to_gib(low));
                    profile
                        .series_mut("high-threshold")
                        .push(now, bytes_to_gib(high));
                    profile
                        .series_mut("top")
                        .push(now, bytes_to_gib(m.config().top));
                }
                self.next_sample += period;
            }
        }
    }

    /// Folds the ended world into its [`RunResult`].
    fn result(mut self) -> RunResult {
        let now = self.now;
        // Fault events the loop never reached (the run ended first) are
        // still accounted, not lost.
        for action in self
            .faultq
            .pop_due(SimTime::ZERO + SimDuration::from_millis(u64::MAX / 2))
        {
            if let FaultAction::App(i) = action {
                self.degradation.faults_unapplied.push(UnappliedFault {
                    event: self.faults.events[i].clone(),
                    reason: UnappliedReason::RunEnded,
                });
            }
        }
        // Faults still pending recovery: if the run ended with committed
        // memory at or below the high threshold, termination itself was the
        // recovery (faults that never armed never caused an excursion at
        // all); otherwise the system never got back down.
        if let Some(m) = self.monitor.as_ref() {
            let recovered_by_end = self.kernel.committed() <= m.thresholds().1;
            let polls_now = m.stats.polls;
            for (i, at, _) in self.pending_recoveries.drain(..) {
                self.degradation.recoveries.push(FaultRecovery {
                    event_index: i,
                    recovered_after_polls: recovered_by_end.then(|| polls_now.saturating_sub(at)),
                });
            }
        }
        let fault_stats = self.kernel.signal_fault_stats();
        self.degradation.signals_dropped = fault_stats.dropped;
        self.degradation.signals_delayed = fault_stats.delayed;

        // Every traced run was checked against the paper's invariants as it
        // recorded; callers find divergences in `violations`.
        let trace = std::mem::take(&mut self.kernel.trace);
        let violations = match self.kernel.take_observer() {
            Some(observer) => {
                let any: Box<dyn Any> = observer;
                let checker =
                    (any.downcast::<Checker>()).expect("a world observes with its checker");
                #[cfg(test)]
                assert_eq!(
                    checker.observed(),
                    trace.len(),
                    "an event was recorded past the checker"
                );
                checker.finish()
            }
            None => Vec::new(),
        };

        // Close the timeline with the end-of-run state: reads at any
        // `t >= end` must see the node as it finished (typically drained
        // back to zero committed), not frozen at the last in-flight poll.
        if self.cfg.pressure_timeline {
            if let Some(m) = &self.monitor {
                let closing = m.pressure_summary(self.kernel.committed());
                self.pressure_timeline.record(now.as_millis(), closing);
            }
        }
        self.pressure_timeline.shrink_to_fit();
        RunResult {
            apps: self.results,
            profile: self.profile,
            monitor_stats: self.monitor.map(|m| m.stats),
            pressure_timeline: self.pressure_timeline,
            end: now,
            mean_rss: if self.ticks > 0 {
                self.rss_area as f64 / self.ticks as f64
            } else {
                0.0
            },
            degradation: self.degradation,
            trace,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hibench;
    use crate::runner::schedule_entry;
    use crate::scenario::{AppKind, Scenario};
    use crate::settings::{blueprint_for, AppConfig};
    use m3_framework::{JobKind, JobSpec, SparkConfig};
    use m3_os::SignalFaultConfig;
    use m3_runtime::JvmConfig;
    use m3_sim::units::MIB;
    use proptest::prelude::*;

    fn tiny_job(ws_gib: u64) -> JobSpec {
        JobSpec {
            kind: JobKind::KMeans,
            name: "tiny".into(),
            input_bytes: ws_gib * GIB / 2,
            working_set: ws_gib * GIB,
            iterations: 2,
            compute_ms_per_block: 50,
            churn_per_block: 64 * MIB,
            min_heap: 0,
            churn_survival: 0.08,
            exec_demand: 0,
        }
    }

    fn spark_entry_ws(
        name: &str,
        start_s: u64,
        heap_gib: u64,
        m3: bool,
        ws_gib: u64,
    ) -> ScheduleEntry {
        let bp = if m3 {
            AppBlueprint::Spark {
                jvm: JvmConfig::m3(crate::settings::M3_HEAP_CEILING),
                spark: SparkConfig::m3(),
                job: tiny_job(ws_gib),
            }
        } else {
            AppBlueprint::Spark {
                jvm: JvmConfig::stock(heap_gib * GIB),
                spark: SparkConfig::default(),
                job: tiny_job(ws_gib),
            }
        };
        (name.into(), SimDuration::from_secs(start_s), bp)
    }

    fn spark_entry(name: &str, start_s: u64, heap_gib: u64, m3: bool) -> ScheduleEntry {
        spark_entry_ws(name, start_s, heap_gib, m3, 4)
    }

    #[test]
    fn single_app_runs_to_completion() {
        let m = Machine::new(MachineConfig::stock_64gb());
        let res = m.run(vec![spark_entry("job0", 0, 8, false)]);
        assert!(res.all_finished());
        let r = &res.apps[0];
        assert!(r.runtime().unwrap() > SimDuration::ZERO);
        assert!(r.peak_rss > 0);
        assert!(res.end > SimTime::ZERO);
    }

    #[test]
    fn delayed_starts_are_honoured() {
        let m = Machine::new(MachineConfig::stock_64gb());
        let res = m.run(vec![
            spark_entry("a", 0, 8, false),
            spark_entry("b", 30, 8, false),
        ]);
        assert_eq!(res.apps[1].started.as_secs(), 30);
        assert!(res.apps[1].finished.unwrap() > res.apps[0].finished.unwrap());
    }

    #[test]
    fn profile_is_sampled_with_thresholds_under_m3() {
        let m = Machine::new(MachineConfig::m3_64gb());
        let res = m.run(vec![spark_entry("a", 0, 8, true)]);
        assert!(res.all_finished());
        assert!(res.profile.series("total").is_some());
        assert!(res.profile.series("low-threshold").is_some());
        assert!(res.profile.series("high-threshold").is_some());
        assert!(res.profile.series("a").is_some());
        assert!(res.monitor_stats.is_some());
    }

    #[test]
    fn stock_run_has_no_thresholds() {
        let m = Machine::new(MachineConfig::stock_64gb());
        let res = m.run(vec![spark_entry("a", 0, 8, false)]);
        assert!(res.profile.series("low-threshold").is_none());
        assert!(res.monitor_stats.is_none());
    }

    #[test]
    fn sampling_can_be_disabled() {
        let mut cfg = MachineConfig::stock_64gb();
        cfg.sample_period = None;
        let res = Machine::new(cfg).run(vec![spark_entry("a", 0, 8, false)]);
        assert!(res.profile.series.is_empty());
        assert!(res.mean_rss > 0.0, "mean rss is tracked regardless");
    }

    #[test]
    fn failed_app_is_reported_not_run() {
        // Stock n-weight under a too-small heap fails immediately.
        let bp = blueprint_for(AppKind::NWeight, &AppConfig::stock_default(), false);
        let m = Machine::new(MachineConfig::stock_64gb());
        let res = m.run(vec![("w".into(), SimDuration::ZERO, bp)]);
        assert!(res.apps[0].failed);
        assert!(res.apps[0].finished.is_none());
        assert!(!res.all_finished());
    }

    #[test]
    fn m3_signals_fire_under_pressure() {
        // Two big working sets on a small machine: the monitor must signal.
        let mut cfg = MachineConfig::scaled(8 * GIB, true);
        cfg.max_time = SimDuration::from_secs(8000);
        let m = Machine::new(cfg);
        let entries = vec![
            spark_entry_ws("a", 0, 8, true, 6),
            spark_entry_ws("b", 2, 8, true, 6),
        ];
        let res = m.run(entries);
        let stats = res.monitor_stats.unwrap();
        assert!(stats.polls > 0);
        assert!(
            stats.low_signals + stats.high_signals > 0,
            "pressure on an 8 GiB node with two 4 GiB working sets must signal"
        );
    }

    #[test]
    fn mean_rss_is_reasonable() {
        let m = Machine::new(MachineConfig::stock_64gb());
        let res = m.run(vec![spark_entry("a", 0, 8, false)]);
        assert!(res.mean_rss > 0.0);
        assert!(res.mean_rss < 64.0 * GIB as f64);
    }

    /// Two identical M3 jobs on a small pressured node, one per class under
    /// test — returns each run's per-signal handler counts from the trace.
    fn classed_pressure_run(crit: Criticality) -> (u64, u64, RunResult) {
        let mut cfg = MachineConfig::scaled(8 * GIB, true);
        cfg.max_time = SimDuration::from_secs(8000);
        let entries = vec![
            spark_entry_ws("a", 0, 8, true, 6),
            spark_entry_ws("b", 2, 8, true, 6),
        ];
        let classes = vec![crate::scenario::JobClass::new(crit, 0); 2];
        let res = Machine::new(cfg).run_with(entries, &FaultPlan::none(), &classes, None);
        let mut low = 0;
        let mut high = 0;
        for e in res.trace.events() {
            if let TraceData::HandlerStart { sig } = e.data {
                match sig {
                    SigKind::Low => low += 1,
                    SigKind::High => high += 1,
                    SigKind::Kill => {}
                }
            }
        }
        (low, high, res)
    }

    #[test]
    fn batch_class_escalates_low_signals_to_high_handlers() {
        let (std_low, _, std_res) = classed_pressure_run(Criticality::Standard);
        let (batch_low, batch_high, batch_res) = classed_pressure_run(Criticality::Batch);
        assert!(std_low > 0, "standard jobs under pressure run low handlers");
        assert_eq!(
            batch_low, 0,
            "batch jobs answer every low signal with the high handler"
        );
        assert!(batch_high > 0);
        assert_eq!(std_res.violations, Vec::new());
        assert_eq!(batch_res.violations, Vec::new(), "class mapping conforms");
    }

    #[test]
    fn latency_critical_class_ignores_low_signals() {
        let (low, _, res) = classed_pressure_run(Criticality::LatencyCritical);
        assert_eq!(low, 0, "latency-critical jobs never run the low handler");
        let sent_low = res.trace.count("signal.low");
        assert!(
            sent_low > 0,
            "the monitor still sends low signals as before"
        );
        assert_eq!(res.violations, Vec::new());
    }

    #[test]
    fn stall_accounts_reclamation_handler_time() {
        let (_, high, res) = classed_pressure_run(Criticality::Standard);
        assert!(high > 0, "pressure must trigger reclamation");
        let stalled: Vec<_> = res
            .apps
            .iter()
            .filter(|a| a.stall > SimDuration::ZERO)
            .collect();
        assert!(!stalled.is_empty(), "handler time is charged as stall");
        for a in &res.apps {
            if let Some(rt) = a.runtime() {
                assert!(a.stall <= rt, "stall is part of the runtime");
            }
        }
    }

    /// The reference loop: [`World::run`] without the idle skip, one
    /// iteration per tick until the time cap or until everything has
    /// started and nothing is running.
    fn ticking(mut world: World) -> RunResult {
        while world.now.saturating_since(SimTime::ZERO) < world.cfg.max_time {
            world.iterate();
            world.now += TICK;
            if world.queue.is_empty() && world.running.is_empty() {
                break;
            }
        }
        world.result()
    }

    fn json(res: &RunResult) -> String {
        serde_json::to_string(res).expect("serialize run")
    }

    /// A fault plan touching every injection channel: app faults, a lossy
    /// and laggy signal bus, and a monitor poll outage.
    fn chaos_plan() -> FaultPlan {
        FaultPlan::none()
            .with_unresponsive(SimDuration::from_secs(90), 0, 0.25)
            .with_leak(SimDuration::from_secs(60), 1, 8 * MIB)
            .with_signal_faults(SignalFaultConfig {
                drop_prob: 0.2,
                delay_prob: 0.3,
                delay: SimDuration::from_secs(2),
                seed: 77,
            })
            .with_poll_outage(SimDuration::from_secs(120), SimDuration::from_secs(30))
    }

    #[test]
    fn idle_skip_is_bit_identical_to_ticking() {
        let mut worlds = Vec::new();
        // Stock and M3 regimes, solo and staggered schedules, analytics
        // and cache kinds, with profile sampling on, each with and
        // without chaos: the skip must wake for fault events exactly when
        // ticking applies them.
        for (scenario, setting) in [
            (Scenario::uniform("M", 0), Setting::default_for(1)),
            (Scenario::uniform("M", 0), Setting::m3(1)),
            (Scenario::uniform("MM", 60), Setting::m3(2)),
            (Scenario::uniform("CM", 120), Setting::m3(2)),
        ] {
            let cfg = MachineConfig::stock_64gb().with_setting(&setting);
            let schedule: Vec<ScheduleEntry> = scenario
                .apps
                .iter()
                .enumerate()
                .map(|(i, &(kind, start))| schedule_entry(&setting, i, kind, start))
                .collect();
            for plan in [FaultPlan::none(), chaos_plan()] {
                worlds.push(World::new(cfg, schedule.clone(), plan, &[], None));
            }
        }
        // A lone M3 k-means, starting after an idle window.
        let kmeans = |start_s| -> Vec<ScheduleEntry> {
            let bp = AppBlueprint::Spark {
                jvm: JvmConfig::m3(crate::settings::M3_HEAP_CEILING),
                spark: SparkConfig::m3(),
                job: hibench::kmeans_small(),
            };
            vec![("k-means".into(), SimDuration::from_secs(start_s), bp)]
        };
        // On an M3 node, polls and samples bound the skip before it starts.
        let mut cfg = MachineConfig::m3_64gb();
        cfg.max_time = SimDuration::from_secs(40_000);
        worlds.push(World::new(cfg, kmeans(90), FaultPlan::none(), &[], None));
        // No monitor and no sampling, so nothing else bounds a skip: a
        // churn bystander holds memory across idle windows, a crash is due
        // before its victim starts, and a container is enforced before its
        // member arrives.
        let mut bare = MachineConfig::stock_64gb();
        bare.sample_period = None;
        let plan = FaultPlan::none()
            .with_churn(SimDuration::from_secs(10), GIB, SimDuration::from_secs(60))
            .with_crash(SimDuration::from_secs(50), 0);
        worlds.push(World::new(bare, kmeans(100), plan, &[], None));
        let contained = World::new(bare, kmeans(100), FaultPlan::none(), &[], Some(vec![GIB]));
        worlds.push(contained);
        for (i, world) in worlds.into_iter().enumerate() {
            let skipped = world.clone().finish();
            assert!(
                json(&skipped) == json(&ticking(world)),
                "world {i}: the idle skip diverged from ticking"
            );
            assert!(skipped.all_finished() && skipped.violations.is_empty());
        }
    }

    /// One change to a node's schedule: an app arrives, or a crash fault
    /// hits an app scheduled before it.
    #[derive(Debug, Clone, Copy)]
    enum Change {
        App(AppKind, Criticality),
        Crash(usize),
    }

    fn change() -> impl Strategy<Value = Change> {
        let kinds = [AppKind::KMeans, AppKind::PageRank, AppKind::GoCache];
        let crits = [
            Criticality::Standard,
            Criticality::Batch,
            Criticality::LatencyCritical,
        ];
        prop_oneof![
            (0usize..3, 0usize..3).prop_map(move |(k, c)| Change::App(kinds[k], crits[c])),
            (0usize..3, 0usize..3).prop_map(move |(k, c)| Change::App(kinds[k], crits[c])),
            (0usize..5).prop_map(Change::Crash),
        ]
    }

    /// The gap before a change: none (two changes at one instant), a whole
    /// number of 100-ms ticks, any number of milliseconds, or a long idle
    /// gap that can carry the schedule past the time cap.
    fn gap_ms() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0u64),
            (1u64..3_000).prop_map(|n| n * 100),
            1u64..300_000,
            (1u64..30).prop_map(|n| n * 100_000 + 37)
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A world given the entries due at each change instant of a
        /// schedule, advanced to it, and finished runs exactly like a
        /// world that had the schedule so far from t = 0, and the whole
        /// schedule's run exactly like the ticking reference: under M3 and
        /// stock, with capture and the pressure timeline each on and off.
        /// So does the previous instant's world run to its end, given the
        /// same entries, whenever its clock is at most the instant.
        #[test]
        fn resuming_at_every_change_equals_the_run_from_zero(
            changes in proptest::collection::vec((gap_ms(), change()), 1..9),
            (m3, capture, timeline) in (proptest::bool::ANY, proptest::bool::ANY, proptest::bool::ANY),
        ) {
            let mut cfg = if m3 { MachineConfig::m3_64gb() } else { MachineConfig::stock_64gb() };
            cfg.max_time = SimDuration::from_secs(3_000);
            if !capture {
                cfg.sample_period = None;
                cfg.capture_trace = false;
            }
            cfg.pressure_timeline = timeline;
            let mut apps: Vec<(ScheduleEntry, JobClass)> = Vec::new();
            let mut faults: Vec<FaultEvent> = Vec::new();
            // (instant, apps, faults): the schedule's length after each
            // change instant's entries.
            let mut instants: Vec<(SimDuration, usize, usize)> = Vec::new();
            let mut t_ms = 0;
            for (gap, change) in changes {
                t_ms += gap;
                let at = SimDuration::from_millis(t_ms);
                match change {
                    Change::App(kind, crit) if apps.len() < 5 => {
                        let bp = blueprint_for(kind, &AppConfig::stock_default(), m3);
                        let name = format!("{} {}", kind.code(), apps.len()).into();
                        apps.push(((name, at, bp), JobClass::new(crit, 0)));
                    }
                    Change::Crash(victim) if !apps.is_empty() => faults.push(FaultEvent {
                        at,
                        target: victim % apps.len(),
                        kind: FaultKind::Crash,
                    }),
                    _ => continue,
                }
                match instants.last_mut() {
                    Some(last) if last.0 == at => *last = (at, apps.len(), faults.len()),
                    _ => instants.push((at, apps.len(), faults.len())),
                }
            }
            let from_zero = |n: usize, m: usize| {
                let schedule = apps[..n].iter().map(|(e, _)| e.clone()).collect();
                let classes: Vec<JobClass> = apps[..n].iter().map(|&(_, c)| c).collect();
                let plan = FaultPlan { events: faults[..m].to_vec(), ..FaultPlan::none() };
                World::new(cfg, schedule, plan, &classes, None)
            };
            let mut world = from_zero(0, 0);
            let (mut n, mut m) = (0, 0);
            let mut ended = world.clone();
            ended.run_to_end();
            let mut fresh = json(&ended.clone().finish());
            for (at, napps, nfaults) in instants {
                let t = SimTime::ZERO + at;
                let extend = |w: &mut World| {
                    for (entry, class) in &apps[n..napps] {
                        w.push_app(entry.clone(), *class);
                    }
                    for ev in &faults[m..nfaults] {
                        w.push_fault(ev.clone());
                    }
                    w.advance_to(t);
                };
                extend(&mut world);
                let from_end = (ended.now() <= t).then(|| {
                    extend(&mut ended);
                    ended.finish()
                });
                (n, m) = (napps, nfaults);
                fresh = json(&from_zero(n, m).finish());
                ended = world.clone();
                ended.run_to_end();
                prop_assert_eq!(
                    &json(&ended.clone().finish()),
                    &fresh,
                    "resumed at {:?} with {} apps and {} faults",
                    at,
                    n,
                    m
                );
                if let Some(res) = from_end {
                    prop_assert_eq!(
                        &json(&res),
                        &fresh,
                        "resumed from the end before {:?} with {} apps and {} faults",
                        at,
                        n,
                        m
                    );
                }
            }
            prop_assert_eq!(fresh, json(&ticking(from_zero(n, m))), "skip against ticking");
        }
    }
}
