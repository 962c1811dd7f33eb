//! Fault injection for world-loop experiments.
//!
//! A [`FaultPlan`] is a serializable description of everything that goes
//! wrong during a run: scheduled crash-kills, seeded signal loss/delay on
//! the bus, participants that handle signals but never return pages,
//! `/proc/meminfo` outages, per-app leaks, and stale-registration churn
//! with pid reuse. Being serializable, the plan participates in the
//! content-addressed memoization key (see [`crate::parallel`]), so a cached
//! result can never be returned for a different fault schedule.
//!
//! What the run *did* about the plan comes back in a
//! [`DegradationReport`] inside [`crate::machine::RunResult`]: which events
//! applied, which could not (and why), how many signals the bus lost, and
//! how long recovery took. How the monitor coped — degraded polls,
//! watchdog escalations, polls above top — is counted once, in the run's
//! [`crate::machine::RunResult::monitor_stats`].

use m3_os::SignalFaultConfig;
use m3_sim::clock::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

m3_sim::tagged_enum! {
    /// What an app-targeted fault does to its victim. Serialized as a map
    /// tagged by `"kind"`, so plans stay readable as JSON.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub enum FaultKind {
        /// Kill the process outright (a crash).
        Crash = "crash",
        /// The participant keeps handling signals but returns only
        /// `reclaim_fraction` of what its handler frees to the OS — 0.0 models
        /// full non-cooperation, the problem the reclamation watchdog exists
        /// for.
        Unresponsive {
            /// Fraction of handler-freed bytes actually returned, in `[0, 1]`.
            reclaim_fraction: f64,
        } = "unresponsive",
        /// The app leaks memory at a steady rate for the rest of its life.
        Leak {
            /// Leak rate in bytes per simulated second.
            bytes_per_sec: u64,
        } = "leak",
    }
}

/// One scheduled fault against a scheduled application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimDuration,
    /// Schedule index of the victim.
    pub target: usize,
    /// What happens to it.
    pub kind: FaultKind,
}

/// A window during which the monitor's meminfo reads fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// Outage start.
    pub start: SimDuration,
    /// Outage length.
    pub duration: SimDuration,
}

impl OutageWindow {
    /// True if `now` falls inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        let t = now.saturating_since(SimTime::ZERO);
        t >= self.start && t < self.start + self.duration
    }
}

/// Stale-registration churn: at `at`, a ghost process registers with the
/// monitor and immediately crashes without deregistering; an unrelated
/// bystander then spawns *reusing the ghost's pid* and holds
/// `bystander_rss` bytes for `bystander_lifetime`. The registry's sweep
/// must not let the bystander inherit the ghost's M3 participation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the ghost registers and dies.
    pub at: SimDuration,
    /// Memory the pid-reusing bystander holds.
    pub bystander_rss: u64,
    /// How long the bystander lives before exiting cleanly.
    pub bystander_lifetime: SimDuration,
}

/// A serializable schedule of everything that goes wrong during a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// App-targeted faults (crash / unresponsive / leak).
    pub events: Vec<FaultEvent>,
    /// Seeded signal loss/delay installed on the kernel's bus.
    pub signal_faults: Option<SignalFaultConfig>,
    /// Meminfo outage windows (degraded-mode polling).
    pub poll_outages: Vec<OutageWindow>,
    /// Stale-registration churn events (pid reuse).
    pub churn: Vec<ChurnEvent>,
}

impl FaultPlan {
    /// The empty plan: nothing goes wrong. This is what every plain
    /// [`crate::machine::Machine::run`] uses.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
            && self.signal_faults.is_none()
            && self.poll_outages.is_empty()
            && self.churn.is_empty()
    }

    /// Adds a crash-kill of schedule index `target` at `at`.
    pub fn with_crash(mut self, at: SimDuration, target: usize) -> Self {
        self.events.push(FaultEvent {
            at,
            target,
            kind: FaultKind::Crash,
        });
        self
    }

    /// Makes schedule index `target` unresponsive from `at` on: its handler
    /// runs but only `reclaim_fraction` of freed bytes reach the OS.
    pub fn with_unresponsive(
        mut self,
        at: SimDuration,
        target: usize,
        reclaim_fraction: f64,
    ) -> Self {
        self.events.push(FaultEvent {
            at,
            target,
            kind: FaultKind::Unresponsive { reclaim_fraction },
        });
        self
    }

    /// Makes schedule index `target` leak `bytes_per_sec` from `at` on.
    pub fn with_leak(mut self, at: SimDuration, target: usize, bytes_per_sec: u64) -> Self {
        self.events.push(FaultEvent {
            at,
            target,
            kind: FaultKind::Leak { bytes_per_sec },
        });
        self
    }

    /// Installs seeded signal loss/delay on the bus.
    pub fn with_signal_faults(mut self, cfg: SignalFaultConfig) -> Self {
        self.signal_faults = Some(cfg);
        self
    }

    /// Adds a meminfo outage window.
    pub fn with_poll_outage(mut self, start: SimDuration, duration: SimDuration) -> Self {
        self.poll_outages.push(OutageWindow { start, duration });
        self
    }

    /// Adds a stale-registration churn event at `at`.
    pub fn with_churn(
        mut self,
        at: SimDuration,
        bystander_rss: u64,
        lifetime: SimDuration,
    ) -> Self {
        self.churn.push(ChurnEvent {
            at,
            bystander_rss,
            bystander_lifetime: lifetime,
        });
        self
    }

    /// Number of injectable items in the plan (app events + churn).
    pub fn injected_count(&self) -> u64 {
        (self.events.len() + self.churn.len()) as u64
    }
}

/// Why an app-targeted fault event could not be applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UnappliedReason {
    /// The victim had not started when the fault fired.
    NotStarted,
    /// The victim had already finished, failed or been killed.
    AlreadyDone,
    /// The target index names no scheduled app.
    NoSuchApp,
    /// The run ended before the fault's scheduled time.
    RunEnded,
}

/// An app-targeted fault that could not be applied, and why: unapplied
/// chaos is accounted, never silently dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnappliedFault {
    /// The event that could not be applied.
    pub event: FaultEvent,
    /// Why it could not be applied.
    pub reason: UnappliedReason,
}

/// Recovery bookkeeping for one applied fault event: how many monitor polls
/// passed between the fault's application and the system returning to a
/// comfortable zone (Green/Yellow) *after* an actual Red/AboveTop
/// excursion. A fault that never pushes the system into trouble counts as
/// recovered when the run ends below the high threshold. Only tracked when
/// a monitor runs (the unit of measure is its poll).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultRecovery {
    /// Index into [`FaultPlan::events`].
    pub event_index: usize,
    /// Polls from application to recovery; `None` if the system never
    /// returned below the high threshold while the run lasted.
    pub recovered_after_polls: Option<u64>,
}

/// What a run did about its fault plan. The monitor's own degradation
/// counters live in [`m3_core::monitor::MonitorStats`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Injectable items in the plan (app events + churn).
    pub faults_injected: u64,
    /// Items actually applied to a live target.
    pub faults_applied: u64,
    /// App-targeted events that could not be applied, with reasons.
    pub faults_unapplied: Vec<UnappliedFault>,
    /// Pressure signals lost to injected signal faults.
    pub signals_dropped: u64,
    /// Pressure signals deferred by injected signal faults.
    pub signals_delayed: u64,
    /// Per-applied-fault recovery times, in polls.
    pub recoveries: Vec<FaultRecovery>,
}

/// A whole worker node crashing mid-horizon: every job resident on the
/// node at `at` dies with it, and the node admits nothing afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCrash {
    /// When the node dies.
    pub at: SimDuration,
    /// Index of the dying node in [`crate::fleet::FleetConfig::nodes`].
    pub node: usize,
}

/// A window during which a node's probe endpoint stops answering: reads
/// inside the window return the summary frozen at `start` (a *stale*
/// probe) while the staleness is tolerable, and fail outright afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeFlap {
    /// The flapping node.
    pub node: usize,
    /// When the endpoint stops answering fresh reads.
    pub start: SimDuration,
    /// How long the endpoint stays unresponsive.
    pub duration: SimDuration,
}

impl ProbeFlap {
    /// True if `now` falls inside the flap window.
    pub fn contains(&self, now: SimTime) -> bool {
        let t = now.saturating_since(SimTime::ZERO);
        t >= self.start && t < self.start + self.duration
    }
}

/// A delayed placement decision: the scheduler only gets to the job's
/// arrival `delay` after it was submitted (a decision-pipeline backlog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementDelay {
    /// The delayed job (scenario schedule index).
    pub job: usize,
    /// How long the decision is delayed.
    pub delay: SimDuration,
}

/// A serializable schedule of everything that goes wrong *around* the
/// fleet scheduler: whole-node crashes, flapping probe endpoints, delayed
/// placement decisions, and mid-horizon scheduler restarts that wipe the
/// advisory candidate index. The cluster-level analogue of [`FaultPlan`].
/// A fleet carries its plan in [`crate::fleet::FleetConfig::faults`], since
/// the plan indexes that fleet's nodes; it is therefore part of the fleet
/// memoization key, and chaos runs never collide with clean cached results.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FleetFaultPlan {
    /// Whole-node crashes.
    pub node_crashes: Vec<NodeCrash>,
    /// Probe-endpoint flap windows.
    pub flaps: Vec<ProbeFlap>,
    /// Delayed placement decisions.
    pub placement_delays: Vec<PlacementDelay>,
    /// Instants at which the scheduler restarts and must rebuild its
    /// candidate index from authoritative node state.
    pub scheduler_restarts: Vec<SimDuration>,
}

impl FleetFaultPlan {
    /// The empty plan: the whole fleet survives the horizon.
    pub fn none() -> Self {
        FleetFaultPlan::default()
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.node_crashes.is_empty()
            && self.flaps.is_empty()
            && self.placement_delays.is_empty()
            && self.scheduler_restarts.is_empty()
    }

    /// Adds a whole-node crash of `node` at `at`.
    pub fn with_node_crash(mut self, at: SimDuration, node: usize) -> Self {
        self.node_crashes.push(NodeCrash { at, node });
        self
    }

    /// Adds a probe-endpoint flap on `node` from `start` for `duration`.
    pub fn with_flap(mut self, node: usize, start: SimDuration, duration: SimDuration) -> Self {
        self.flaps.push(ProbeFlap {
            node,
            start,
            duration,
        });
        self
    }

    /// Delays job `job`'s arrival placement decision by `delay`.
    pub fn with_placement_delay(mut self, job: usize, delay: SimDuration) -> Self {
        self.placement_delays.push(PlacementDelay { job, delay });
        self
    }

    /// Adds a scheduler restart at `at`.
    pub fn with_scheduler_restart(mut self, at: SimDuration) -> Self {
        self.scheduler_restarts.push(at);
        self
    }

    /// Number of injectable items in the plan.
    pub fn injected_count(&self) -> u64 {
        (self.node_crashes.len()
            + self.flaps.len()
            + self.placement_delays.len()
            + self.scheduler_restarts.len()) as u64
    }
}

/// What a fleet run did about its [`FleetFaultPlan`]: the per-incident
/// accounting fleet operators reason with. Every [`crate::fleet::FleetResult`]
/// carries one (all-zero for clean runs).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetDegradationReport {
    /// Nodes that crashed during the horizon.
    pub nodes_lost: u64,
    /// Job-loss incidents: jobs resident on a node when it died (a job
    /// rescheduled onto a second dying node counts twice). Always equals
    /// `jobs_rescheduled + jobs_orphaned`.
    pub jobs_lost: u64,
    /// Loss incidents resolved by re-entering the arrival queue.
    pub jobs_rescheduled: u64,
    /// Loss incidents that exhausted the retry budget: the job is given
    /// up on with `NodeLost` recorded as its failure reason.
    pub jobs_orphaned: u64,
    /// Times a flapping node was quarantined.
    pub quarantine_episodes: u64,
    /// Endpoint reads that failed outright (flap beyond the stale window).
    pub probe_failures: u64,
    /// Scheduling decisions taken on a tolerated stale probe.
    pub stale_probe_decisions: u64,
    /// Arrival decisions delayed by the fault plan.
    pub placements_delayed: u64,
    /// Total injected decision delay, ms.
    pub placement_delay_ms: u64,
    /// Mid-horizon scheduler restarts.
    pub scheduler_restarts: u64,
    /// Authoritative node reads performed rebuilding the candidate index
    /// after restarts — the index-rebuild cost.
    pub index_rebuild_nodes: u64,
    /// Plan items that named a nonexistent or already-dead target.
    pub faults_unapplied: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_and_serialize() {
        let plan = FaultPlan::none()
            .with_crash(SimDuration::from_secs(10), 0)
            .with_unresponsive(SimDuration::from_secs(20), 1, 0.5)
            .with_leak(SimDuration::from_secs(30), 2, 1024)
            .with_signal_faults(SignalFaultConfig::lossy(7, 0.2))
            .with_poll_outage(SimDuration::from_secs(5), SimDuration::from_secs(3))
            .with_churn(SimDuration::from_secs(40), 4096, SimDuration::from_secs(60));
        assert!(!plan.is_empty());
        assert_eq!(plan.injected_count(), 4);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back, "plans round-trip byte-exactly");
    }

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().injected_count(), 0);
        assert_eq!(FaultPlan::none(), FaultPlan::default());
    }

    #[test]
    fn fleet_plan_builders_accumulate_and_serialize() {
        let plan = FleetFaultPlan::none()
            .with_node_crash(SimDuration::from_secs(300), 2)
            .with_flap(1, SimDuration::from_secs(60), SimDuration::from_secs(120))
            .with_placement_delay(0, SimDuration::from_secs(30))
            .with_scheduler_restart(SimDuration::from_secs(600));
        assert!(!plan.is_empty());
        assert_eq!(plan.injected_count(), 4);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FleetFaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back, "fleet plans round-trip byte-exactly");
        assert!(FleetFaultPlan::none().is_empty());
        assert_eq!(FleetFaultPlan::none(), FleetFaultPlan::default());
    }

    #[test]
    fn probe_flap_window_is_half_open() {
        let flap = ProbeFlap {
            node: 3,
            start: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(5),
        };
        assert!(!flap.contains(SimTime::from_secs(9)));
        assert!(flap.contains(SimTime::from_secs(10)));
        assert!(flap.contains(SimTime::from_secs(14)));
        assert!(!flap.contains(SimTime::from_secs(15)));
    }

    #[test]
    fn fleet_degradation_report_defaults_to_zero() {
        let report = FleetDegradationReport::default();
        assert_eq!(report.nodes_lost, 0);
        assert_eq!(report.jobs_lost, 0);
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetDegradationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn outage_window_contains_is_half_open() {
        let w = OutageWindow {
            start: SimDuration::from_secs(10),
            duration: SimDuration::from_secs(5),
        };
        assert!(!w.contains(SimTime::from_secs(9)));
        assert!(w.contains(SimTime::from_secs(10)));
        assert!(w.contains(SimTime::from_secs(14)));
        assert!(!w.contains(SimTime::from_secs(15)));
    }
}
