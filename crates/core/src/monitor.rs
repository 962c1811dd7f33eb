//! The M3 monitor (§5, §6).
//!
//! A user-space process that polls system memory once per period and alerts
//! registered processes of scarcity. Usage below the low threshold is the
//! *green* zone (no action); between the thresholds, *yellow* (early-warning
//! low signals); above the high threshold, *red* (Algorithm 1 selects which
//! processes receive the high signal). If usage exceeds the configured *top
//! of memory*, every registered process is signalled, and after a grace
//! period the monitor starts killing processes — selected by the same
//! Algorithm 1 ordering — until usage drops below top.

use m3_os::{Kernel, Pid, Signal};
use m3_sim::clock::SimTime;
use m3_sim::trace::{Criticality, ThresholdSide, TraceData, TraceZone};
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use crate::config::{MonitorConfig, KILL_TIMEOUT, WATCHDOG_BACKOFF_MAX, WATCHDOG_POLLS};
use crate::reclaim::ReclaimTracker;
use crate::selection::{select_processes, sort_candidates, Candidate};
use crate::thresholds::AdaptiveThresholds;

/// The memory zone a poll observed (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Zone {
    /// Below the low threshold.
    Green,
    /// Between the thresholds.
    Yellow,
    /// Above the high threshold.
    Red,
    /// Above the top of memory.
    AboveTop,
}

impl From<Zone> for TraceZone {
    fn from(z: Zone) -> Self {
        match z {
            Zone::Green => TraceZone::Green,
            Zone::Yellow => TraceZone::Yellow,
            Zone::Red => TraceZone::Red,
            Zone::AboveTop => TraceZone::AboveTop,
        }
    }
}

/// The pid trace events use for the monitor itself (real pids start at 1).
pub const MONITOR_PID: Pid = 0;

/// What one monitor poll did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PollReport {
    /// The observed zone.
    pub zone: Zone,
    /// Committed memory at poll time (the quantity compared to thresholds).
    pub used: u64,
    /// Processes sent the low signal.
    pub low_signalled: Vec<Pid>,
    /// Processes sent the high signal.
    pub high_signalled: Vec<Pid>,
    /// Processes killed by the escalation path.
    pub killed: Vec<Pid>,
    /// The low threshold after this poll's adjustment.
    pub low: u64,
    /// The high threshold after this poll's adjustment.
    pub high: u64,
    /// True if the meminfo read failed and the poll enforced against the
    /// last known observation with a widened margin.
    pub degraded: bool,
}

/// Cumulative monitor statistics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MonitorStats {
    /// Polls performed.
    pub polls: u64,
    /// Low signals sent (process-signals, not polls).
    pub low_signals: u64,
    /// High signals sent.
    pub high_signals: u64,
    /// Processes killed.
    pub kills: u64,
    /// Polls that ran in degraded mode (meminfo read failed).
    pub degraded_polls: u64,
    /// Polls that observed usage above the top of memory.
    pub polls_above_top: u64,
    /// Participants escalated by the reclamation watchdog (high-signalled
    /// [`WATCHDOG_POLLS`] consecutive polls with zero reclaim).
    pub watchdog_escalations: u64,
    /// Backed-off re-signals sent to already-escalated participants.
    pub watchdog_resignals: u64,
}

/// A point-in-time snapshot of a node's memory pressure, exported for
/// cluster-level schedulers. Pure data: everything a fleet placer needs to
/// rank nodes without reaching into the monitor's internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PressureSummary {
    /// The zone `used` falls in against the current thresholds.
    pub zone: Zone,
    /// Committed memory the summary was taken at.
    pub used: u64,
    /// The current low threshold.
    pub low: u64,
    /// The current high threshold.
    pub high: u64,
    /// The fixed top of memory.
    pub top: u64,
    /// Participants escalated by the reclamation watchdog so far.
    pub watchdog_escalations: u64,
}

/// Per-participant reclamation-watchdog state.
#[derive(Debug, Clone, Copy, Default)]
struct WatchdogEntry {
    /// Consecutive high signals with no observed reclamation.
    strikes: u32,
    /// Escalated: re-signal with backoff, deprioritize in kill ordering.
    escalated: bool,
    /// Current backoff width, in polls.
    backoff: u32,
    /// Polls to skip before the next re-signal.
    cooldown: u32,
}

/// Degraded-mode polling: each consecutive failed meminfo read widens the
/// red-zone margin by this fraction of `top` (thresholds are pulled down),
/// so enforcement turns conservative instead of stopping (public so the
/// conformance oracle can replay degraded-mode zoning).
pub const DEGRADED_MARGIN_FRACTION: f64 = 0.02;

/// How many failed reads the degraded-mode margin keeps widening for
/// (public so the conformance oracle can replay degraded-mode zoning).
pub const MAX_DEGRADED_WIDENING: u32 = 5;

/// The M3 monitor.
#[derive(Debug, Clone)]
pub struct Monitor {
    cfg: MonitorConfig,
    thresholds: AdaptiveThresholds,
    registered: BTreeSet<Pid>,
    /// Criticality class per registered pid; absent means `Standard`.
    classes: BTreeMap<Pid, Criticality>,
    tracker: ReclaimTracker,
    above_top_since: Option<SimTime>,
    /// Whether the previous poll saw usage above the low threshold (the low
    /// signal fires on the upward *crossing*, not on every in-zone poll —
    /// Fig. 6 shows sparse early warnings, not one per second).
    was_above_low: bool,
    /// Last successfully observed usage, reused during meminfo outages.
    last_used: Option<u64>,
    /// Consecutive failed meminfo reads (degraded-margin widening factor).
    failed_reads: u32,
    /// Reclamation-watchdog state per high-signalled participant.
    watchdog: BTreeMap<Pid, WatchdogEntry>,
    /// Zone seen by the previous poll, for zone-transition trace events.
    last_zone: Option<Zone>,
    /// Cumulative statistics.
    pub stats: MonitorStats,
}

impl Monitor {
    /// Creates a monitor with the given configuration.
    pub fn new(cfg: MonitorConfig) -> Self {
        cfg.validate();
        Monitor {
            thresholds: AdaptiveThresholds::new(&cfg),
            cfg,
            registered: BTreeSet::new(),
            classes: BTreeMap::new(),
            tracker: ReclaimTracker::new(),
            above_top_since: None,
            was_above_low: false,
            last_used: None,
            failed_reads: 0,
            watchdog: BTreeMap::new(),
            last_zone: None,
            stats: MonitorStats::default(),
        }
    }

    /// The monitor configuration.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Registers a process (the paper's PID-file directory) as `Standard`
    /// criticality.
    pub fn register(&mut self, pid: Pid) {
        self.register_with_class(pid, Criticality::Standard);
    }

    /// Registers a process with an explicit criticality class.
    pub fn register_with_class(&mut self, pid: Pid, crit: Criticality) {
        self.registered.insert(pid);
        if crit == Criticality::Standard {
            self.classes.remove(&pid);
        } else {
            self.classes.insert(pid, crit);
        }
    }

    /// The criticality class `pid` was registered with (`Standard` if it
    /// never declared one).
    pub fn criticality_of(&self, pid: Pid) -> Criticality {
        self.classes.get(&pid).copied().unwrap_or_default()
    }

    /// Unregisters a process and forgets its reclamation history, class and
    /// watchdog state.
    pub fn unregister(&mut self, pid: Pid) {
        self.registered.remove(&pid);
        self.classes.remove(&pid);
        self.tracker.forget(pid);
        self.watchdog.remove(&pid);
    }

    /// True if `pid` is registered.
    pub fn is_registered(&self, pid: Pid) -> bool {
        self.registered.contains(&pid)
    }

    /// Records how much a process reclaimed in response to a signal,
    /// feeding the expected-reclamation estimator. Any positive reclamation
    /// clears the process's watchdog record: a participant that resumes
    /// cooperating is forgiven (and de-escalated).
    pub fn note_reclamation(&mut self, pid: Pid, bytes: u64) {
        self.tracker.record(pid, bytes);
        if bytes > 0 {
            self.watchdog.remove(&pid);
        }
    }

    /// True if the reclamation watchdog has escalated `pid` (it will be
    /// preferred by the kill ordering and re-signalled with backoff).
    pub fn is_deprioritized(&self, pid: Pid) -> bool {
        self.watchdog.get(&pid).is_some_and(|e| e.escalated)
    }

    /// The current (low, high) thresholds.
    pub fn thresholds(&self) -> (u64, u64) {
        (self.thresholds.low(), self.thresholds.high())
    }

    /// Classifies a usage level against the current thresholds.
    pub fn zone_of(&self, used: u64) -> Zone {
        self.zone_with_margin(used, 0)
    }

    /// Snapshots the node's pressure state at usage `used` — the export a
    /// cluster scheduler ranks nodes by.
    pub fn pressure_summary(&self, used: u64) -> PressureSummary {
        let (low, high) = self.thresholds();
        PressureSummary {
            zone: self.zone_of(used),
            used,
            low,
            high,
            top: self.cfg.top,
            watchdog_escalations: self.stats.watchdog_escalations,
        }
    }

    /// [`Monitor::zone_of`] with the thresholds (not top) pulled down by a
    /// safety margin — degraded-mode polling enforces conservatively when
    /// it cannot see fresh memory state.
    fn zone_with_margin(&self, used: u64, margin: u64) -> Zone {
        if used > self.cfg.top {
            Zone::AboveTop
        } else if used > self.thresholds.high().saturating_sub(margin) {
            Zone::Red
        } else if used > self.thresholds.low().saturating_sub(margin) {
            Zone::Yellow
        } else {
            Zone::Green
        }
    }

    /// Builds Algorithm 1 candidates from the registered, running processes.
    fn candidates(&self, os: &Kernel) -> Vec<Candidate> {
        self.registered
            .iter()
            .filter_map(|&pid| {
                let p = os.process(pid).filter(|p| p.is_alive())?;
                Some(Candidate {
                    pid,
                    spawned_at: p.spawned_at,
                    rss: p.committed,
                    expected_reclaim: self.tracker.expected(pid, p.committed),
                    crit: self.criticality_of(pid),
                })
            })
            .collect()
    }

    /// Performs one poll: reads memory, adjusts thresholds, sends signals,
    /// escalates to kills if the system lingers above top.
    ///
    /// A failed meminfo read does not stop enforcement: the poll runs in
    /// degraded mode against the last observation, with the thresholds
    /// pulled down by a margin that widens with each consecutive failure
    /// (stale data earns less trust, so the monitor turns conservative).
    pub fn poll(&mut self, os: &mut Kernel, now: SimTime) -> PollReport {
        self.stats.polls += 1;
        let (used, degraded) = match os.try_meminfo() {
            Ok(mi) => {
                // The monitor-relevant quantity is committed memory: what
                // applications hold, resident or swapped.
                let used = mi.used + mi.swapped;
                self.failed_reads = 0;
                self.last_used = Some(used);
                (used, false)
            }
            Err(_) => {
                self.failed_reads = self.failed_reads.saturating_add(1);
                self.stats.degraded_polls += 1;
                (self.last_used.unwrap_or(0), true)
            }
        };
        if !degraded {
            // Stale observations must not feed the adaptive estimator.
            let update = self.thresholds.observe(used);
            if let Some((old, new)) = update.low {
                os.record_trace(
                    MONITOR_PID,
                    TraceData::ThresholdAdjust {
                        side: ThresholdSide::Low,
                        old,
                        new,
                    },
                );
            }
            if let Some((old, new)) = update.high {
                os.record_trace(
                    MONITOR_PID,
                    TraceData::ThresholdAdjust {
                        side: ThresholdSide::High,
                        old,
                        new,
                    },
                );
            }
        }
        let margin = if degraded {
            let step = (self.cfg.top as f64 * DEGRADED_MARGIN_FRACTION) as u64;
            step * u64::from(self.failed_reads.min(MAX_DEGRADED_WIDENING))
        } else {
            0
        };
        let zone = self.zone_with_margin(used, margin);
        if zone == Zone::AboveTop {
            self.stats.polls_above_top += 1;
        }
        let prev_zone = self.last_zone.unwrap_or(Zone::Green);
        if prev_zone != zone {
            os.record_trace(
                MONITOR_PID,
                TraceData::ZoneChange {
                    from: prev_zone.into(),
                    to: zone.into(),
                },
            );
        }
        self.last_zone = Some(zone);

        let mut report = PollReport {
            zone,
            used,
            low_signalled: Vec::new(),
            high_signalled: Vec::new(),
            killed: Vec::new(),
            low: self.thresholds.low(),
            high: self.thresholds.high(),
            degraded,
        };

        // The early warning fires when usage *grows past* the low threshold
        // (§5: an upward crossing), independent of the high-signal logic.
        let above_low = used > self.thresholds.low().saturating_sub(margin);
        if above_low && !self.was_above_low && zone != Zone::AboveTop {
            for c in self.candidates(os) {
                os.send_signal(c.pid, Signal::LowMemory);
                report.low_signalled.push(c.pid);
            }
        }
        self.was_above_low = above_low;

        match zone {
            Zone::Green | Zone::Yellow => {
                self.above_top_since = None;
            }
            Zone::Red => {
                self.above_top_since = None;
                // Only the processes Algorithm 1 selects are disturbed —
                // the whole point of selective notification is to minimise
                // handling overhead for everyone else (§5.1).
                let cands = self.candidates(os);
                let target = used - self.thresholds.high().saturating_sub(margin);
                let selected = if self.cfg.signal_all {
                    // Ablation: skip Algorithm 1 and disturb everyone.
                    cands.iter().map(|c| c.pid).collect()
                } else {
                    select_processes(&cands, self.cfg.sort_order, target)
                };
                os.record_trace_with(MONITOR_PID, || TraceData::Selection {
                    order: self.cfg.sort_order.name().to_string(),
                    target,
                    all: self.cfg.signal_all,
                    candidates: cands.iter().map(Candidate::info).collect(),
                    selected: selected.clone(),
                });
                report.high_signalled = self.send_high_watchdogged(os, selected);
            }
            Zone::AboveTop => {
                // Above top: all registered processes get the high signal in
                // hopes of reclaiming everything possible (§5.1).
                let cands = self.candidates(os);
                let all: Vec<Pid> = cands.iter().map(|c| c.pid).collect();
                os.record_trace_with(MONITOR_PID, || TraceData::Selection {
                    order: self.cfg.sort_order.name().to_string(),
                    target: used.saturating_sub(self.cfg.top),
                    all: true,
                    candidates: cands.iter().map(Candidate::info).collect(),
                    selected: all.clone(),
                });
                report.high_signalled = self.send_high_watchdogged(os, all);
                let since = *self.above_top_since.get_or_insert(now);
                if now.saturating_since(since) >= KILL_TIMEOUT {
                    report.killed = self.kill_down_to_top(os, used);
                    self.above_top_since = None;
                }
            }
        }

        self.stats.low_signals += report.low_signalled.len() as u64;
        self.stats.high_signals += report.high_signalled.len() as u64;
        self.stats.kills += report.killed.len() as u64;
        os.record_trace_with(MONITOR_PID, || TraceData::MonitorPoll {
            zone: zone.into(),
            used,
            low: report.low,
            high: report.high,
            degraded,
            low_signalled: report.low_signalled.clone(),
            high_signalled: report.high_signalled.clone(),
            killed: report.killed.clone(),
        });
        report
    }

    /// Sends the high signal through the reclamation watchdog.
    ///
    /// Every signalled participant earns a strike; `note_reclamation` with
    /// positive bytes clears them. At [`WATCHDOG_POLLS`] consecutive strikes
    /// the participant is escalated: further signals are spaced by an
    /// exponential backoff capped at [`WATCHDOG_BACKOFF_MAX`] polls (there is
    /// no point hammering a non-responder every second), and the kill
    /// ordering prefers it. Returns the pids actually signalled.
    fn send_high_watchdogged(&mut self, os: &mut Kernel, targets: Vec<Pid>) -> Vec<Pid> {
        let mut sent = Vec::new();
        for pid in targets {
            let e = self.watchdog.entry(pid).or_default();
            if e.escalated {
                if e.cooldown > 0 {
                    e.cooldown -= 1;
                    os.record_trace(pid, TraceData::WatchdogSkip);
                    continue;
                }
                e.backoff = e.backoff.saturating_mul(2).clamp(1, WATCHDOG_BACKOFF_MAX);
                e.cooldown = e.backoff;
                self.stats.watchdog_resignals += 1;
                os.record_trace(
                    pid,
                    TraceData::WatchdogResignal {
                        backoff: u64::from(e.backoff),
                    },
                );
            } else {
                e.strikes += 1;
                if e.strikes >= WATCHDOG_POLLS {
                    e.escalated = true;
                    e.backoff = 1;
                    e.cooldown = 0;
                    self.stats.watchdog_escalations += 1;
                    os.record_trace(
                        pid,
                        TraceData::WatchdogEscalate {
                            backoff: u64::from(e.backoff),
                        },
                    );
                }
            }
            os.send_signal(pid, Signal::HighMemory);
            sent.push(pid);
        }
        sent
    }

    /// Kills processes (Algorithm 1 ordering) until usage is at or below
    /// top. Killing releases memory immediately in the simulated kernel.
    ///
    /// Criticality is the outermost key: every batch job dies before any
    /// standard job, which dies before any latency-critical job. *Within* a
    /// class, watchdog-escalated participants are deprioritized to the
    /// front — a non-cooperator dies before any cooperating peer — and the
    /// Algorithm 1 posture order decides the rest. Each kill also records a
    /// `kill.class` event carrying the victim's class and the alive
    /// candidate set it was chosen from, which is what the oracle's
    /// kill-ordering invariant replays.
    fn kill_down_to_top(&mut self, os: &mut Kernel, used: u64) -> Vec<Pid> {
        let mut sorted = self.candidates(os);
        sort_candidates(&mut sorted, self.cfg.sort_order);
        // Stable: expendable classes first; escalated participants lead
        // within their class but never jump a class boundary (an
        // uncooperative latency-critical job still outlives batch).
        sorted.sort_by_key(|c| {
            (
                Reverse(c.crit.expendability()),
                !self.is_deprioritized(c.pid),
            )
        });
        let mut killed = Vec::new();
        let mut remaining = used;
        for (i, c) in sorted.iter().enumerate() {
            if remaining <= self.cfg.top {
                break;
            }
            os.record_trace_with(c.pid, || TraceData::KillClass {
                crit: c.crit,
                candidates: sorted[i..].iter().map(Candidate::info).collect(),
            });
            os.record_trace(c.pid, TraceData::MonitorKill { rss: c.rss });
            os.kill(c.pid);
            remaining = remaining.saturating_sub(c.rss);
            killed.push(c.pid);
        }
        for &pid in &killed {
            self.unregister(pid);
        }
        killed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;
    use m3_sim::units::GIB;

    fn setup() -> (Kernel, Monitor) {
        let os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let mon = Monitor::new(MonitorConfig::paper_64gb());
        (os, mon)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn green_zone_sends_nothing() {
        let (mut os, mut mon) = setup();
        let p = os.spawn("a");
        mon.register(p);
        os.grow(p, 10 * GIB).unwrap();
        let r = mon.poll(&mut os, t(0));
        assert_eq!(r.zone, Zone::Green);
        assert!(r.low_signalled.is_empty());
        assert!(r.high_signalled.is_empty());
        assert!(os.take_signals(p).is_empty());
    }

    #[test]
    fn pressure_summary_reports_zone_and_thresholds() {
        let (_os, mon) = setup();
        let (low, high) = mon.thresholds();
        let top = mon.config().top;

        let s = mon.pressure_summary(low / 2);
        assert_eq!(s.zone, Zone::Green);
        assert_eq!(s.used, low / 2);
        assert_eq!(s.low, low);
        assert_eq!(s.high, high);
        assert_eq!(s.top, top);
        assert_eq!(s.watchdog_escalations, 0);

        let s = mon.pressure_summary(high + GIB);
        assert_eq!(s.zone, Zone::Red);
        assert_eq!(s.used, high + GIB);

        let s = mon.pressure_summary(top + GIB);
        assert_eq!(s.zone, Zone::AboveTop);
        assert_eq!(s.used, top + GIB);
    }

    #[test]
    fn pressure_summary_tracks_watchdog_escalations() {
        let (mut os, mut mon) = setup();
        let p = os.spawn("hoarder");
        mon.register(p);
        os.grow(p, 58 * GIB).unwrap(); // red: high-signalled, never reclaims
        for i in 0..=u64::from(WATCHDOG_POLLS) {
            mon.poll(&mut os, t(i));
        }
        assert!(mon.stats.watchdog_escalations > 0);
        let s = mon.pressure_summary(58 * GIB);
        assert_eq!(s.watchdog_escalations, mon.stats.watchdog_escalations);
    }

    #[test]
    fn yellow_zone_sends_low_to_all_registered() {
        let (mut os, mut mon) = setup();
        let a = os.spawn("a");
        let b = os.spawn("b");
        let unregistered = os.spawn("c");
        mon.register(a);
        mon.register(b);
        os.grow(a, 52 * GIB).unwrap(); // between 50 and 55
        let r = mon.poll(&mut os, t(0));
        assert_eq!(r.zone, Zone::Yellow);
        assert_eq!(r.low_signalled, vec![a, b]);
        assert_eq!(os.take_signals(a), vec![Signal::LowMemory]);
        assert_eq!(os.take_signals(b), vec![Signal::LowMemory]);
        assert!(os.take_signals(unregistered).is_empty());
    }

    #[test]
    fn red_zone_selects_by_algorithm_1() {
        let (mut os, mut mon) = setup();
        os.set_time(t(0));
        let old = os.spawn("old");
        os.set_time(t(100));
        let new = os.spawn("new");
        mon.register(old);
        mon.register(new);
        os.grow(old, 28 * GIB).unwrap();
        os.grow(new, 28 * GIB).unwrap(); // 56 GiB > high (55)
        let r = mon.poll(&mut os, t(101));
        assert_eq!(r.zone, Zone::Red);
        // Target = 1 GiB; newest-first picks `new`, whose default expected
        // reclamation (10% of 28 GiB) covers it alone.
        assert_eq!(r.high_signalled, vec![new]);
        // Both processes get the early warning for the upward crossing of
        // the low threshold; only `new` is disturbed with the high signal.
        assert_eq!(r.low_signalled, vec![old, new]);
        assert_eq!(
            os.take_signals(new),
            vec![Signal::LowMemory, Signal::HighMemory]
        );
        assert_eq!(os.take_signals(old), vec![Signal::LowMemory]);
        // A second poll at the same level is not a crossing: the spared
        // process stays undisturbed (selective notification).
        let r2 = mon.poll(&mut os, t(102));
        assert!(r2.low_signalled.is_empty());
        assert_eq!(r2.high_signalled, vec![new]);
    }

    #[test]
    fn red_zone_uses_recorded_reclamation_history() {
        let (mut os, mut mon) = setup();
        os.set_time(t(0));
        let a = os.spawn("a");
        os.set_time(t(10));
        let b = os.spawn("b");
        mon.register(a);
        mon.register(b);
        os.grow(a, 28 * GIB).unwrap();
        os.grow(b, 30 * GIB).unwrap(); // 58 GiB, target = 3 GiB
                                       // b historically reclaims very little: selection must go past it.
        mon.note_reclamation(b, GIB / 10);
        let r = mon.poll(&mut os, t(11));
        assert_eq!(
            r.high_signalled,
            vec![b, a],
            "b alone cannot cover the target"
        );
    }

    #[test]
    fn above_top_signals_everyone_then_kills_after_timeout() {
        let (mut os, mut mon) = setup();
        os.set_time(t(0));
        let a = os.spawn("a");
        os.set_time(t(5));
        let b = os.spawn("b");
        mon.register(a);
        mon.register(b);
        os.grow(a, 33 * GIB).unwrap();
        os.grow(b, 30 * GIB).unwrap(); // 63 GiB > top (62)
        let r = mon.poll(&mut os, t(10));
        assert_eq!(r.zone, Zone::AboveTop);
        assert_eq!(r.high_signalled, vec![a, b]);
        assert!(r.killed.is_empty(), "grace period first");
        // Still above top after the kill timeout: newest-first kills b.
        let r2 = mon.poll(&mut os, t(10) + KILL_TIMEOUT);
        assert_eq!(r2.killed, vec![b]);
        assert!(!os.is_alive(b));
        assert!(os.is_alive(a));
        assert!(!mon.is_registered(b), "killed processes are unregistered");
    }

    #[test]
    fn dropping_below_top_resets_kill_clock() {
        let (mut os, mut mon) = setup();
        let a = os.spawn("a");
        mon.register(a);
        os.grow(a, 63 * GIB).unwrap();
        mon.poll(&mut os, t(0));
        os.release(a, 10 * GIB).unwrap(); // pressure relieved
        mon.poll(&mut os, t(15));
        os.grow(a, 10 * GIB).unwrap(); // above top again
        let r = mon.poll(&mut os, t(31));
        assert!(r.killed.is_empty(), "clock must restart after relief");
        assert!(os.is_alive(a));
    }

    #[test]
    fn dead_processes_are_not_candidates() {
        let (mut os, mut mon) = setup();
        let a = os.spawn("a");
        let b = os.spawn("b");
        mon.register(a);
        mon.register(b);
        os.grow(a, 56 * GIB).unwrap();
        os.exit(b);
        let r = mon.poll(&mut os, t(0));
        assert!(!r.high_signalled.contains(&b));
        assert!(!r.low_signalled.contains(&b));
        assert!(!r.high_signalled.is_empty());
    }

    #[test]
    fn stats_accumulate() {
        let (mut os, mut mon) = setup();
        let a = os.spawn("a");
        mon.register(a);
        os.grow(a, 52 * GIB).unwrap();
        mon.poll(&mut os, t(0));
        mon.poll(&mut os, t(1));
        assert_eq!(mon.stats.polls, 2);
        assert_eq!(mon.stats.low_signals, 1, "one crossing, one early warning");
        assert_eq!(mon.stats.high_signals, 0);
        // Dropping below and re-crossing warns again.
        os.release(a, 10 * GIB).unwrap();
        mon.poll(&mut os, t(2));
        os.grow(a, 10 * GIB).unwrap();
        mon.poll(&mut os, t(3));
        assert_eq!(mon.stats.low_signals, 2);
    }

    #[test]
    fn degraded_poll_reuses_last_observation_and_keeps_enforcing() {
        let (mut os, mut mon) = setup();
        let a = os.spawn("a");
        mon.register(a);
        os.grow(a, 56 * GIB).unwrap(); // red zone
        let r0 = mon.poll(&mut os, t(0));
        assert_eq!(r0.zone, Zone::Red);
        assert!(!r0.degraded);
        // The meminfo read starts failing; enforcement must continue from
        // the last observation instead of going quiet.
        os.set_meminfo_outage(true);
        let r1 = mon.poll(&mut os, t(1));
        assert!(r1.degraded);
        assert_eq!(r1.used, 56 * GIB, "last observation reused");
        assert_eq!(r1.zone, Zone::Red);
        assert!(!r1.high_signalled.is_empty(), "still enforcing");
        assert_eq!(mon.stats.degraded_polls, 1);
    }

    #[test]
    fn degraded_margin_widens_with_consecutive_failures() {
        let (mut os, mut mon) = setup();
        let a = os.spawn("a");
        mon.register(a);
        // Just below the high threshold (55 GiB): a healthy poll sees
        // Yellow, but degraded polls must turn conservative.
        os.grow(a, 54 * GIB).unwrap();
        assert_eq!(mon.poll(&mut os, t(0)).zone, Zone::Yellow);
        os.set_meminfo_outage(true);
        // One failure widens by 2% of top (~1.24 GiB): 54 > 55 - 1.24.
        let r = mon.poll(&mut os, t(1));
        assert_eq!(r.zone, Zone::Red, "stale data is trusted less");
        os.set_meminfo_outage(false);
        let r2 = mon.poll(&mut os, t(2));
        assert!(!r2.degraded);
        assert_eq!(r2.zone, Zone::Yellow, "fresh read restores full trust");
    }

    #[test]
    fn watchdog_escalates_after_k_silent_polls_and_backs_off() {
        let (mut os, _) = setup();
        // Static thresholds keep 56 GiB red for the whole run (adaptive
        // ones would raise the high threshold past it once the window
        // fills).
        let mut cfg = MonitorConfig::paper_64gb();
        cfg.adaptive = false;
        let mut mon = Monitor::new(cfg);
        let a = os.spawn("a");
        mon.register(a);
        os.grow(a, 56 * GIB).unwrap(); // red zone, a is always selected
        let k = u64::from(WATCHDOG_POLLS);
        for i in 0..k {
            let r = mon.poll(&mut os, t(i));
            assert_eq!(r.high_signalled, vec![a], "strike {i} still signals");
            os.take_signals(a);
        }
        assert!(mon.is_deprioritized(a), "k silent polls escalate");
        assert_eq!(mon.stats.watchdog_escalations, 1);
        // Escalated: the next poll re-signals, then cooldowns space the
        // re-signals out, doubling up to the cap.
        let signalled: Vec<u64> = (k..k + 64)
            .filter(|&i| !mon.poll(&mut os, t(i)).high_signalled.is_empty())
            .collect();
        assert_eq!(signalled[0], k, "first backed-off re-signal");
        let skipped: Vec<u64> = signalled.windows(2).map(|w| w[1] - w[0] - 1).collect();
        assert!(skipped[0] > 0, "backoff must skip polls");
        assert!(skipped.windows(2).all(|w| w[0] <= w[1]), "{skipped:?}");
        assert_eq!(
            skipped.last().copied(),
            Some(u64::from(WATCHDOG_BACKOFF_MAX)),
            "the backoff stops growing at its cap"
        );
        assert!(mon.stats.watchdog_resignals >= 1);
    }

    #[test]
    fn reclamation_forgives_the_watchdog() {
        let (mut os, mut mon) = setup();
        let a = os.spawn("a");
        mon.register(a);
        os.grow(a, 56 * GIB).unwrap();
        for i in 0..u64::from(WATCHDOG_POLLS) {
            mon.poll(&mut os, t(i));
        }
        assert!(mon.is_deprioritized(a));
        mon.note_reclamation(a, GIB);
        assert!(!mon.is_deprioritized(a), "cooperation de-escalates");
    }

    #[test]
    fn escalated_participant_dies_first_despite_sort_order() {
        let (mut os, mut mon) = setup();
        os.set_time(t(0));
        let uncoop = os.spawn("uncooperative");
        os.set_time(t(100));
        let coop = os.spawn("cooperative");
        mon.register(uncoop);
        mon.register(coop);
        os.grow(uncoop, 33 * GIB).unwrap();
        os.grow(coop, 30 * GIB).unwrap(); // 63 GiB > top (62)

        // Above top: both signalled; only `coop` ever reclaims.
        for i in 0..u64::from(WATCHDOG_POLLS) - 1 {
            mon.poll(&mut os, t(101 + i));
            mon.note_reclamation(coop, GIB / 2);
        }
        assert!(
            !mon.is_deprioritized(uncoop),
            "k - 1 strikes are not enough"
        );
        // The next silent poll escalates `uncoop` (coop's record was
        // cleared by its reclamation) and the kill timeout fires in the
        // same poll. NewestFirst alone would kill `coop` (newest); the
        // watchdog must redirect the escalation to the non-cooperator.
        let r = mon.poll(&mut os, t(101) + KILL_TIMEOUT);
        assert!(mon.stats.watchdog_escalations >= 1);
        assert_eq!(r.killed, vec![uncoop]);
        assert!(os.is_alive(coop));
        assert!(!os.is_alive(uncoop));
    }

    #[test]
    fn batch_dies_before_latency_critical_despite_newest_first() {
        let (mut os, mut mon) = setup();
        os.set_time(t(0));
        let batch = os.spawn("spark-batch");
        os.set_time(t(100));
        let critical = os.spawn("memcached-tier");
        mon.register_with_class(batch, Criticality::Batch);
        mon.register_with_class(critical, Criticality::LatencyCritical);
        os.grow(batch, 31 * GIB).unwrap();
        os.grow(critical, 32 * GIB).unwrap(); // 63 GiB > top (62)
        mon.poll(&mut os, t(101));
        // Newest-first posture alone would kill `critical` (spawned last);
        // criticality must redirect the kill onto the batch job.
        let r = mon.poll(&mut os, t(101) + KILL_TIMEOUT);
        assert_eq!(r.killed, vec![batch]);
        assert!(os.is_alive(critical));
    }

    #[test]
    fn one_class_kill_follows_the_posture_order() {
        // The hogs of `batch_dies_before_latency_critical_despite_newest_first`,
        // both registered in one class: no class key decides, so
        // newest-first kills the later hog.
        let (mut os, mut mon) = setup();
        os.set_time(t(0));
        let older = os.spawn("spark-batch");
        os.set_time(t(100));
        let newer = os.spawn("memcached-tier");
        mon.register(older);
        mon.register(newer);
        os.grow(older, 31 * GIB).unwrap();
        os.grow(newer, 32 * GIB).unwrap();
        mon.poll(&mut os, t(101));
        let r = mon.poll(&mut os, t(101) + KILL_TIMEOUT);
        assert_eq!(r.killed, vec![newer], "one class kills the newest");
    }

    #[test]
    fn escalation_never_jumps_a_class_boundary() {
        let (mut os, mut mon) = setup();
        os.set_time(t(0));
        let uncoop = os.spawn("uncooperative-critical");
        os.set_time(t(100));
        let batch = os.spawn("cooperative-batch");
        mon.register_with_class(uncoop, Criticality::LatencyCritical);
        mon.register_with_class(batch, Criticality::Batch);
        os.grow(uncoop, 33 * GIB).unwrap();
        os.grow(batch, 30 * GIB).unwrap(); // 63 GiB > top (62)
        for i in 0..u64::from(WATCHDOG_POLLS) - 1 {
            mon.poll(&mut os, t(101 + i));
            mon.note_reclamation(batch, GIB / 2);
        }
        let r = mon.poll(&mut os, t(101) + KILL_TIMEOUT);
        assert!(mon.is_deprioritized(uncoop));
        // Even escalated, a latency-critical job outlives batch residents.
        assert_eq!(r.killed, vec![batch]);
        assert!(os.is_alive(uncoop));
    }

    #[test]
    fn registration_tracks_classes() {
        let (mut os, mut mon) = setup();
        let a = os.spawn("a");
        let b = os.spawn("b");
        mon.register(a);
        mon.register_with_class(b, Criticality::Batch);
        assert_eq!(mon.criticality_of(a), Criticality::Standard);
        assert_eq!(mon.criticality_of(b), Criticality::Batch);
        mon.unregister(b);
        assert_eq!(mon.criticality_of(b), Criticality::Standard);
    }

    #[test]
    fn kill_waits_out_the_kill_timeout() {
        let (mut os, mut mon) = setup();
        let a = os.spawn("a");
        mon.register(a);
        os.grow(a, 63 * GIB).unwrap();
        mon.poll(&mut os, t(0));
        let timeout = t(0) + KILL_TIMEOUT;
        let just_before = SimTime::from_millis(timeout.as_millis() - 1);
        assert!(mon.poll(&mut os, just_before).killed.is_empty());
        assert_eq!(mon.poll(&mut os, timeout).killed, vec![a]);
    }
}
