//! The simulated node: world loop tying kernel, disk, monitor and apps.
//!
//! One [`Machine::run`] is one experiment on one worker node (all of the
//! paper's per-node profiles — Figs. 2, 6, 7, 10 — are exactly this view).
//! The loop is time-stepped: each tick it starts due applications, lets the
//! monitor poll (once per second of simulated time), delivers threshold
//! signals, advances every application by a time budget scaled by the
//! kernel's swap-thrash multiplier, runs the OOM check, and samples the
//! memory profile.

use std::sync::Arc;

use m3_core::{Monitor, MonitorConfig, Registry, ThresholdSignal, Zone};
use m3_oracle::{Oracle, Violation};
use m3_os::cgroup::{Cgroup, CgroupSet};
use m3_os::{DiskModel, Kernel, KernelConfig, Pid, Signal};
use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::metrics::Profile;
use m3_sim::trace::{Criticality, SigKind, TraceData, TraceLog};
use m3_sim::units::{bytes_to_gib, GIB};
use serde::{Deserialize, Serialize};

use crate::apps::{AnyApp, AppBlueprint};
use crate::faults::{
    DegradationReport, FaultKind, FaultPlan, FaultRecovery, UnappliedFault, UnappliedReason,
};
use crate::scenario::JobClass;
use crate::settings::Setting;

/// One schedule entry: display name, start delay, and the blueprint built at
/// start time. Names are `Arc<str>` so interned names are shared across the
/// many runs of a sweep instead of being reallocated per run.
pub type ScheduleEntry = (Arc<str>, SimDuration, AppBlueprint);

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
    /// World tick length.
    pub tick: SimDuration,
    /// Profile sampling period (`None` disables capture, for benches).
    pub sample_period: Option<SimDuration>,
    /// Hard wall-clock cap on the simulation.
    pub max_time: SimDuration,
    /// Node salt: perturbs application-internal orderings so cluster nodes
    /// are not bit-identical (0 for single-node runs).
    pub node_salt: u64,
    /// Enables the world-loop fast path: when no application process is
    /// live, the clock jumps to the next scheduled instant (app start,
    /// chaos kill, monitor poll, cgroup enforcement, profile sample)
    /// instead of idling tick by tick. Results are bit-identical either
    /// way; the flag exists so the determinism test can compare both
    /// paths. Part of the memoization cache key.
    pub fast_path: bool,
    /// Captures a typed end-to-end event trace and runs the conformance
    /// oracle over it after the run (see [`RunResult::trace`] and
    /// [`RunResult::violations`]). Off, the kernel's trace log is disabled
    /// and records nothing. Part of the memoization cache key.
    pub capture_trace: bool,
    /// Records the monitor's pressure summary at every poll into
    /// [`RunResult::pressure_timeline`]. The fleet scheduler sets this on
    /// its probe runs so one full-horizon simulation answers pressure
    /// queries at every instant. Part of the memoization cache key.
    pub pressure_timeline: bool,
}

impl MachineConfig {
    /// A stock 64-GB node (no monitor).
    pub fn stock_64gb() -> Self {
        MachineConfig {
            phys_total: 64 * GIB,
            monitor: None,
            tick: SimDuration::from_millis(100),
            sample_period: Some(SimDuration::from_secs(2)),
            max_time: SimDuration::from_secs(30_000),
            node_salt: 0,
            fast_path: true,
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
    /// The app's runtime, if it completed.
    pub fn runtime(&self) -> Option<SimDuration> {
        self.finished.map(|f| f.saturating_since(self.started))
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
    /// The node's pressure state at the end of the run, when a monitor ran
    /// (what a fleet scheduler ranks this node by).
    pub pressure: Option<m3_core::monitor::PressureSummary>,
    /// `(time ms, summary)` samples taken at every monitor poll, plus one at
    /// the end of the run, when [`MachineConfig::pressure_timeline`] is set
    /// (empty when it is not or no monitor ran). The fleet scheduler reads
    /// a node's pressure at time `t` as the last sample at or before `t`.
    pub pressure_timeline: Vec<(u64, m3_core::monitor::PressureSummary)>,
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
        let mut kernel = Kernel::new(KernelConfig::with_total(self.cfg.phys_total));
        if !self.cfg.capture_trace {
            kernel.trace = TraceLog::disabled();
        }
        let disk = DiskModel::hdd_7200rpm();
        let mut monitor = self.cfg.monitor.map(Monitor::new);
        let mut queue: m3_sim::EventQueue<usize> = m3_sim::EventQueue::new();
        let mut results: Vec<AppResult> = Vec::with_capacity(schedule.len());
        for (i, (name, start, _)) in schedule.iter().enumerate() {
            results.push(AppResult {
                name: name.to_string(),
                started: SimTime::ZERO + *start,
                finished: None,
                ended: None,
                killed: false,
                failed: false,
                gc_pause: SimDuration::ZERO,
                mm_time: SimDuration::ZERO,
                stall: SimDuration::ZERO,
                peak_rss: 0,
            });
            queue.schedule(SimTime::ZERO + *start, i);
        }

        let mut running: Vec<Slot> = Vec::new();
        let mut registry = Registry::new();
        let mut profile = Profile::new();
        let mut now = SimTime::ZERO;
        let poll_period = self
            .cfg
            .monitor
            .map(|m| m.poll_period)
            .unwrap_or(SimDuration::from_secs(1));
        let mut cgroups: Option<CgroupSet> = container_limits.as_ref().map(|limits| {
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
        let mut next_enforce = SimTime::ZERO + poll_period;
        let mut faultq: m3_sim::EventQueue<FaultAction> = m3_sim::EventQueue::new();
        for (i, ev) in faults.events.iter().enumerate() {
            faultq.schedule(SimTime::ZERO + ev.at, FaultAction::App(i));
        }
        for (i, ch) in faults.churn.iter().enumerate() {
            faultq.schedule(SimTime::ZERO + ch.at, FaultAction::ChurnSpawn(i));
        }
        kernel.set_signal_faults(faults.signal_faults);
        let mut degradation = DegradationReport {
            faults_injected: faults.injected_count(),
            ..DegradationReport::default()
        };
        // Applied app faults awaiting recovery: (event index, monitor polls
        // at application time, armed). An entry arms once the system enters
        // Red/AboveTop after the fault; it closes at the next Green/Yellow
        // poll — so the recorded time measures an actual excursion-and-
        // return, not an incidental calm poll right after injection.
        let mut pending_recoveries: Vec<(usize, u64, bool)> = Vec::new();
        let mut churn_bystanders: Vec<Pid> = vec![0; faults.churn.len()];
        let mut next_poll = SimTime::ZERO + poll_period;
        let mut next_sample = SimTime::ZERO;
        let mut pressure_timeline: Vec<(u64, m3_core::monitor::PressureSummary)> = Vec::new();
        // Mean-RSS integral as exact integers (`committed` summed per tick):
        // integer addition is associative, so the fast path below can account
        // a whole gap of idle ticks in one multiplication and stay
        // bit-identical to the tick-by-tick loop.
        let mut rss_area: u128 = 0;
        let mut ticks: u64 = 0;
        if let Some(period) = self.cfg.sample_period {
            // The sample count over the horizon is known up front; pre-size
            // the always-present series so the hot loop never regrows them.
            let cap = (self.cfg.max_time.as_millis() / period.as_millis() + 1) as usize;
            profile.reserve_series("total", cap);
            if self.cfg.monitor.is_some() {
                profile.reserve_series("low-threshold", cap);
                profile.reserve_series("high-threshold", cap);
                profile.reserve_series("top", cap);
            }
        }

        loop {
            kernel.set_time(now);

            // 1. Start applications whose delay has elapsed.
            for idx in queue.pop_due(now) {
                let (name, _, bp) = &schedule[idx];
                let pid = kernel.spawn(name.as_ref());
                let app = bp.build_salted(pid, self.cfg.node_salt);
                results[idx].started = now;
                if app.failed() {
                    results[idx].failed = true;
                    results[idx].ended = Some(now);
                    kernel.exit(pid);
                    continue;
                }
                let class = classes.get(idx).copied().unwrap_or_default();
                if bp.is_m3() {
                    // §6: participants drop a PID file in the registration
                    // directory; the monitor picks it up on its next poll.
                    // The file also declares the job's criticality class.
                    registry.register_with_class(&kernel, pid, name.as_ref(), class.crit);
                }
                if let Some(set) = cgroups.as_mut() {
                    set.group_mut(idx).add(pid);
                }
                running.push(Slot {
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
            for action in faultq.pop_due(now) {
                match action {
                    FaultAction::App(i) => {
                        let ev = &faults.events[i];
                        if ev.target >= schedule.len() {
                            degradation.faults_unapplied.push(UnappliedFault {
                                event: ev.clone(),
                                reason: UnappliedReason::NoSuchApp,
                            });
                            continue;
                        }
                        match running.iter_mut().find(|s| s.idx == ev.target) {
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
                                degradation.faults_applied += 1;
                                // Recovery is measured in monitor polls, so
                                // it is only tracked when a monitor runs.
                                if let Some(m) = monitor.as_ref() {
                                    pending_recoveries.push((i, m.stats.polls, false));
                                }
                            }
                            None => {
                                let r = &results[ev.target];
                                let reason = if r.finished.is_some() || r.killed || r.failed {
                                    UnappliedReason::AlreadyDone
                                } else {
                                    UnappliedReason::NotStarted
                                };
                                degradation.faults_unapplied.push(UnappliedFault {
                                    event: ev.clone(),
                                    reason,
                                });
                            }
                        }
                    }
                    FaultAction::ChurnSpawn(i) => {
                        let ch = &faults.churn[i];
                        // A ghost participant registers and crashes without
                        // deregistering; its stale PID file lingers.
                        let ghost = kernel.spawn(format!("ghost-{i}"));
                        registry.register(&kernel, ghost, format!("ghost-{i}"));
                        kernel.kill(ghost);
                        // An unrelated bystander immediately reuses the pid.
                        // The sweep must not let it inherit the ghost's
                        // registration (incarnation mismatch).
                        let bystander = kernel.spawn_reusing(ghost, format!("bystander-{i}"));
                        let _ = kernel.grow(bystander, ch.bystander_rss);
                        churn_bystanders[i] = bystander;
                        faultq.schedule(now + ch.bystander_lifetime, FaultAction::ChurnRetire(i));
                        degradation.faults_applied += 1;
                    }
                    FaultAction::ChurnRetire(i) => {
                        kernel.exit(churn_bystanders[i]);
                    }
                }
            }

            // 2a. Container limit enforcement (once per second):
            //     `memory.high` semantics — members of an over-limit group
            //     receive reclaim pressure.
            if let Some(set) = cgroups.as_ref() {
                if now >= next_enforce {
                    next_enforce += poll_period;
                    for idx in set.over_limit(&kernel) {
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
            if let Some(m) = monitor.as_mut() {
                if now >= next_poll {
                    kernel.set_meminfo_outage(faults.poll_outages.iter().any(|w| w.contains(now)));
                    registry.sync_monitor(m, &kernel);
                    let report = m.poll(&mut kernel, now);
                    next_poll += poll_period;
                    if self.cfg.pressure_timeline {
                        pressure_timeline
                            .push((now.as_millis(), m.pressure_summary(kernel.committed())));
                    }
                    match report.zone {
                        Zone::AboveTop => {
                            // Usage crossed top: arm every pending fault so
                            // its eventual return to comfort is measured as
                            // a real excursion-and-recovery. (Red alone does
                            // not arm — threshold-riding through the red
                            // zone is normal M3 operation, not damage.)
                            for entry in &mut pending_recoveries {
                                entry.2 = true;
                            }
                        }
                        Zone::Red => {}
                        Zone::Green | Zone::Yellow => {
                            // Comfortably below the high threshold again:
                            // every armed fault has recovered.
                            let polls_now = m.stats.polls;
                            pending_recoveries.retain(|&(i, at, armed)| {
                                if armed {
                                    degradation.recoveries.push(FaultRecovery {
                                        event_index: i,
                                        recovered_after_polls: Some(polls_now.saturating_sub(at)),
                                    });
                                }
                                !armed
                            });
                        }
                    }
                    if self.cfg.sample_period.is_some() {
                        for _ in &report.low_signalled {
                            profile.mark(now, "signal.low");
                        }
                        for _ in &report.high_signalled {
                            profile.mark(now, "signal.high");
                        }
                        for _ in &report.killed {
                            profile.mark(now, "kill");
                        }
                    }
                }
            }

            // 3. Deliver signals (upper layers reclaim before lower ones,
            //    inside each app's handler).
            for slot in &mut running {
                let pid = slot.app.pid();
                for sig in kernel.take_signals(pid) {
                    match sig {
                        Signal::Kill => {
                            results[slot.idx].killed = true;
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
                            let out = slot.app.handle_signal(t, &mut kernel, now);
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
                                if let Some(m) = monitor.as_mut() {
                                    m.note_reclamation(pid, returned);
                                }
                            }
                        }
                    }
                }
            }
            running.retain(|s| {
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
                self.cfg.tick
            } else {
                self.cfg.tick.mul_f64(thrash)
            };
            let readers = running.iter().filter(|s| s.app.uses_disk()).count();
            let mut finished_idx = Vec::new();
            for slot in &mut running {
                // Injected leak: steady growth the app itself never frees.
                // Exact integer carry keeps sub-second rates deterministic.
                if slot.leak_rate > 0 {
                    slot.leak_carry += slot.leak_rate * self.cfg.tick.as_millis();
                    let bytes = slot.leak_carry / 1000;
                    slot.leak_carry %= 1000;
                    if bytes > 0 {
                        let _ = kernel.grow(slot.app.pid(), bytes);
                    }
                }
                let done = slot.app.tick(&mut kernel, &disk, now, budget, readers);
                slot.peak_rss = slot.peak_rss.max(kernel.rss(slot.app.pid()));
                if done {
                    finished_idx.push(slot.idx);
                }
            }
            running.retain_mut(|s| {
                if finished_idx.contains(&s.idx) {
                    let r = &mut results[s.idx];
                    r.finished = Some(now + self.cfg.tick);
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
            rss_area += committed as u128;
            ticks += 1;
            if let Some(period) = self.cfg.sample_period {
                if now >= next_sample {
                    profile
                        .series_mut("total")
                        .push(now, bytes_to_gib(committed));
                    let remaining = (self
                        .cfg
                        .max_time
                        .as_millis()
                        .saturating_sub(now.as_millis())
                        / period.as_millis()
                        + 1) as usize;
                    for slot in &running {
                        let rss = kernel.rss(slot.app.pid());
                        let name = &results[slot.idx].name;
                        profile
                            .reserve_series(name, remaining)
                            .push(now, bytes_to_gib(rss));
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
                    next_sample += period;
                }
            }

            now += self.cfg.tick;
            let all_started = queue.is_empty();
            if (all_started && running.is_empty())
                || now.saturating_since(SimTime::ZERO) >= self.cfg.max_time
            {
                break;
            }

            // Fast path: with no live process the world is inert between
            // scheduled instants — nothing allocates, the OOM check stays
            // quiescent, and `committed` is constant — so jump the clock to
            // the next instant at which anything can happen (app start,
            // chaos kill, monitor poll, cgroup enforcement, profile sample),
            // accounting the skipped ticks into the mean-RSS integral.
            if self.cfg.fast_path && running.is_empty() {
                let tick_ms = self.cfg.tick.as_millis();
                let grid_ceil = |t: u64| t.div_ceil(tick_ms) * tick_ms;
                // The break above fires at the first grid instant at or past
                // the time cap, so no loop iteration can run later than this.
                let mut target_ms = grid_ceil(self.cfg.max_time.as_millis());
                let candidates = [
                    queue.next_due().map(|t| t.as_millis()),
                    faultq.next_due().map(|t| t.as_millis()),
                    monitor.is_some().then(|| next_poll.as_millis()),
                    cgroups.is_some().then(|| next_enforce.as_millis()),
                    self.cfg.sample_period.map(|_| next_sample.as_millis()),
                ];
                for t in candidates.into_iter().flatten() {
                    target_ms = target_ms.min(grid_ceil(t));
                }
                let now_ms = now.as_millis();
                if target_ms > now_ms {
                    let skipped = (target_ms - now_ms) / tick_ms;
                    rss_area += kernel.committed() as u128 * u128::from(skipped);
                    ticks += skipped;
                    now = SimTime::from_millis(target_ms);
                    if now.saturating_since(SimTime::ZERO) >= self.cfg.max_time {
                        break;
                    }
                }
            }
        }

        // Fault events the loop never reached (the run ended first) are
        // still accounted, not lost.
        for action in faultq.pop_due(SimTime::ZERO + SimDuration::from_millis(u64::MAX / 2)) {
            if let FaultAction::App(i) = action {
                degradation.faults_unapplied.push(UnappliedFault {
                    event: faults.events[i].clone(),
                    reason: UnappliedReason::RunEnded,
                });
            }
        }
        // Faults still pending recovery: if the run ended with committed
        // memory at or below the high threshold, termination itself was the
        // recovery (faults that never armed never caused an excursion at
        // all); otherwise the system never got back down.
        if let Some(m) = monitor.as_ref() {
            let recovered_by_end = kernel.committed() <= m.thresholds().1;
            let polls_now = m.stats.polls;
            for (i, at, _) in pending_recoveries.drain(..) {
                degradation.recoveries.push(FaultRecovery {
                    event_index: i,
                    recovered_after_polls: recovered_by_end.then(|| polls_now.saturating_sub(at)),
                });
            }
        }
        let fault_stats = kernel.signal_fault_stats();
        degradation.signals_dropped = fault_stats.dropped;
        degradation.signals_delayed = fault_stats.delayed;

        // Every traced run is checked against the paper's invariants on the
        // way out; callers find divergences in `violations`.
        let trace = std::mem::take(&mut kernel.trace);
        let violations = if trace.is_empty() {
            Vec::new()
        } else {
            Oracle::paper(self.cfg.monitor).check(&trace)
        };

        // Finalize GC/MM stats for apps killed mid-flight (already recorded
        // for finished apps).
        let pressure = monitor
            .as_ref()
            .map(|m| m.pressure_summary(kernel.committed()));
        // Close the timeline with the end-of-run state: reads at any
        // `t >= end` must see the node as it finished (typically drained
        // back to zero committed), not frozen at the last in-flight poll.
        if self.cfg.pressure_timeline {
            if let Some(p) = pressure {
                pressure_timeline.push((now.as_millis(), p));
            }
        }
        RunResult {
            apps: results,
            profile,
            monitor_stats: monitor.map(|m| m.stats),
            pressure,
            pressure_timeline,
            end: now,
            mean_rss: if ticks > 0 {
                rss_area as f64 / ticks as f64
            } else {
                0.0
            },
            degradation,
            trace,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::AppKind;
    use crate::settings::{blueprint_for, AppConfig};
    use m3_framework::{JobKind, JobSpec, SparkConfig};
    use m3_runtime::JvmConfig;
    use m3_sim::units::MIB;

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
}
