//! Alternating-load JVM servers (paper Fig. 2).
//!
//! Figure 2 runs a Cassandra server and an Elasticsearch server — both
//! *unmodified* applications on the (M3-modified or stock) JVM — with
//! alternating load peaks. A stock JVM climbs to its peak heap and never
//! returns it, so 30 GB must be provisioned; under M3 the modified JVM
//! returns collected regions and 15 GB suffices.
//!
//! The model: a long-running server whose *live* data oscillates between a
//! baseline and a peak on a fixed period, continuously churning transient
//! allocation. Under M3 it handles signals at the JVM layer only (young GC
//! on low, mixed on high) — the application itself is unmodified.

use m3_core::{
    M3Participant, PacketKind, PacketOutcome, ReclaimScheduler, SignalOutcome, ThresholdSignal,
};
use m3_os::{Kernel, Pid};
use m3_runtime::{Jvm, JvmConfig};
use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::units::MIB;
use serde::{Deserialize, Serialize};

/// Load profile of an alternating server.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AlternatingProfile {
    /// Live bytes during quiet phases.
    pub baseline: u64,
    /// Live bytes during load peaks.
    pub peak: u64,
    /// Length of one quiet-or-peak phase.
    pub phase: SimDuration,
    /// Phase offset (Elasticsearch peaks while Cassandra is quiet).
    pub offset: SimDuration,
    /// Transient churn per second of serving.
    pub churn_per_sec: u64,
    /// Total server lifetime.
    pub lifetime: SimDuration,
}

/// An unmodified JVM server with alternating load.
#[derive(Debug, Clone)]
pub struct AlternatingApp {
    profile: AlternatingProfile,
    jvm: Jvm,
    started: Option<SimTime>,
    debt: SimDuration,
    finished: bool,
}

impl AlternatingApp {
    /// Creates the server.
    pub fn new(pid: Pid, jvm_cfg: JvmConfig, profile: AlternatingProfile) -> Self {
        AlternatingApp {
            profile,
            jvm: Jvm::new(pid, jvm_cfg),
            started: None,
            debt: SimDuration::ZERO,
            finished: false,
        }
    }

    /// The underlying JVM.
    pub fn jvm(&self) -> &Jvm {
        &self.jvm
    }

    /// True once the lifetime has elapsed.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Adds signal-handling time to the debt.
    pub fn add_debt(&mut self, d: SimDuration) {
        self.debt += d;
    }

    /// Target live bytes at time `now`.
    fn target_live(&self, now: SimTime) -> u64 {
        let started = self.started.unwrap_or(now);
        let since = now.saturating_since(started) + self.profile.offset;
        let phase_idx = since.as_millis() / self.profile.phase.as_millis().max(1);
        if phase_idx % 2 == 1 {
            self.profile.peak
        } else {
            self.profile.baseline
        }
    }

    /// Runs the server for one tick. The server is latency-oriented, not
    /// throughput-oriented: it always "finishes" its per-tick work, with GC
    /// pauses absorbed as debt (request latency, invisible to this study).
    pub fn tick(&mut self, os: &mut Kernel, now: SimTime, budget: SimDuration) -> bool {
        if self.finished {
            return true;
        }
        let started = *self.started.get_or_insert(now);
        if now.saturating_since(started) >= self.profile.lifetime {
            self.finished = true;
            self.jvm.shutdown(os);
            return true;
        }
        // Pay debt (slows the ramp, not correctness).
        let pay = self.debt.min(budget);
        self.debt = self.debt - pay;

        // Move live data toward the target (ramp at ~256 MiB per second).
        let target = self.target_live(now);
        let live = self.jvm.pinned();
        let max_step = (256 * MIB) as f64 * budget.as_secs_f64();
        if live < target {
            let grow = (target - live).min(max_step as u64);
            if let Ok(c) = self.jvm.alloc_pinned(os, grow) {
                self.debt += c.pause;
            }
        } else if live > target {
            let shrink = (live - target).min(max_step as u64);
            self.jvm.free_pinned(shrink);
        }

        // Background churn (request serving).
        let churn = (self.profile.churn_per_sec as f64 * budget.as_secs_f64()) as u64;
        if churn > 0 {
            if let Ok(c) = self.jvm.alloc_transient(os, churn) {
                self.debt += c.pause;
            }
        }
        false
    }
}

impl M3Participant for AlternatingApp {
    fn pid(&self) -> Pid {
        self.jvm.pid()
    }

    /// The application is unmodified: only the JVM layer participates
    /// (young collection on low, mixed on high — Table 1's JVM row).
    fn handle_signal(
        &mut self,
        sig: ThresholdSignal,
        os: &mut Kernel,
        _now: SimTime,
    ) -> SignalOutcome {
        if self.finished {
            return SignalOutcome::default();
        }
        let mut sched = ReclaimScheduler::new(self.jvm.pid());
        let young = sched.add(
            PacketKind::GcYoung,
            &[],
            |app: &mut AlternatingApp, os: &mut Kernel| {
                let gc = app.jvm.young_collect(os);
                PacketOutcome::freed(gc.reclaimed, gc.pause)
            },
        );
        let mut last = young;
        if sig == ThresholdSignal::High {
            last = sched.add(
                PacketKind::GcOld,
                &[young],
                |app: &mut AlternatingApp, os: &mut Kernel| {
                    let gc = app.jvm.old_collect(os);
                    PacketOutcome::freed(gc.reclaimed, gc.pause)
                },
            );
        }
        sched.add(
            PacketKind::Madvise,
            &[last],
            |app: &mut AlternatingApp, os: &mut Kernel| {
                PacketOutcome::released(app.jvm.release_to_os(os))
            },
        );
        sched.drain(self, os)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;
    use m3_sim::units::GIB;

    fn profile() -> AlternatingProfile {
        AlternatingProfile {
            baseline: GIB,
            peak: 8 * GIB,
            phase: SimDuration::from_secs(100),
            offset: SimDuration::ZERO,
            churn_per_sec: 32 * MIB,
            lifetime: SimDuration::from_secs(500),
        }
    }

    fn run(
        cfg: JvmConfig,
    ) -> (
        Kernel,
        AlternatingApp,
        u64, /* peak rss */
        u64, /* final rss */
    ) {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("server");
        let mut app = AlternatingApp::new(pid, cfg, profile());
        let tick = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        let mut peak = 0;
        let mut last = 0;
        while !app.tick(&mut os, now, tick) {
            now += tick;
            last = os.rss(pid);
            peak = peak.max(last);
        }
        (os, app, peak, last)
    }

    #[test]
    fn stock_jvm_holds_peak() {
        let (_, _, peak, _) = run(JvmConfig::stock(16 * GIB));
        assert!(peak >= 8 * GIB, "peak rss {peak} must reach the load peak");
        // Sample rss during a later quiet phase by re-running with probes.
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("server");
        let mut app = AlternatingApp::new(pid, JvmConfig::stock(16 * GIB), profile());
        let tick = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        // Run through one peak (t in [100,200)) into the next quiet phase.
        while now < SimTime::from_secs(290) {
            app.tick(&mut os, now, tick);
            now += tick;
        }
        assert!(
            os.rss(pid) >= 8 * GIB,
            "stock JVM must hold the peak through quiet phases, rss = {}",
            os.rss(pid)
        );
    }

    #[test]
    fn m3_jvm_returns_after_peak() {
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid = os.spawn("server");
        let mut app = AlternatingApp::new(pid, JvmConfig::m3(62 * GIB), profile());
        let tick = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        while now < SimTime::from_secs(290) {
            app.tick(&mut os, now, tick);
            now += tick;
            // The quiet phase frees pinned data; GC + madvise shrink rss.
            if now.as_secs() == 250 {
                app.handle_signal(ThresholdSignal::High, &mut os, now);
            }
        }
        assert!(
            os.rss(pid) < 4 * GIB,
            "M3 JVM must return the peak, rss = {}",
            os.rss(pid)
        );
    }

    #[test]
    fn lifetime_ends_and_releases() {
        let (os, app, _, _) = run(JvmConfig::stock(16 * GIB));
        assert!(app.finished());
        assert_eq!(os.rss(app.pid()), 0);
    }

    #[test]
    fn offset_staggers_peaks() {
        let p = profile();
        let shifted = AlternatingProfile {
            offset: p.phase,
            ..p
        };
        let mut os = Kernel::new(KernelConfig::with_total(64 * GIB));
        let pid_a = os.spawn("a");
        let pid_b = os.spawn("b");
        let mut app_a = AlternatingApp::new(pid_a, JvmConfig::stock(16 * GIB), p);
        let mut app_b = AlternatingApp::new(pid_b, JvmConfig::stock(16 * GIB), shifted);
        app_a.started = Some(SimTime::ZERO);
        app_b.started = Some(SimTime::ZERO);
        let t = SimTime::from_secs(150); // a peaks, b is quiet
        assert_eq!(app_a.target_live(t), p.peak);
        assert_eq!(app_b.target_live(t), p.baseline);
    }
}
