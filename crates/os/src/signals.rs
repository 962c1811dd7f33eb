//! Application-defined real-time signals.
//!
//! The paper's monitor uses two Linux real-time signal numbers for the low
//! and high memory-pressure notifications (§6). We model them as an enum plus
//! a `SIGKILL` analogue used by the kill-escalation path. Delivery is a
//! per-process FIFO queue that the process drains at its next scheduling
//! point, mirroring asynchronous signal delivery without needing actual
//! interrupt semantics.

use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::rng::SimRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::process::Pid;

/// A signal deliverable to a simulated process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Signal {
    /// Early warning: system memory is becoming scarce (low threshold).
    LowMemory,
    /// Memory pressure is severe (high threshold); reclaim aggressively and
    /// run the adaptive allocation protocol.
    HighMemory,
    /// Unconditional termination (OOM killer / M3 kill escalation).
    Kill,
}

/// Fault injection for signal delivery: a deterministic, seeded lossy bus.
///
/// Each memory-pressure send rolls one uniform variate: below `drop_prob`
/// the signal is lost outright; in the next `delay_prob`-wide band it is
/// deferred by `delay` before entering the queue. `Kill` is immune — the
/// kernel's termination path is not a user-space notification.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SignalFaultConfig {
    /// Probability a pressure signal is silently lost.
    pub drop_prob: f64,
    /// Probability a (non-dropped) pressure signal is deferred.
    pub delay_prob: f64,
    /// Deferral applied to delayed signals.
    pub delay: SimDuration,
    /// RNG seed; the fault sequence is a pure function of it.
    pub seed: u64,
}

impl SignalFaultConfig {
    /// Drops each pressure signal with probability `drop_prob`.
    pub fn lossy(seed: u64, drop_prob: f64) -> Self {
        SignalFaultConfig {
            drop_prob,
            delay_prob: 0.0,
            delay: SimDuration::ZERO,
            seed,
        }
    }

    /// Delays each pressure signal with probability `delay_prob`.
    pub fn laggy(seed: u64, delay_prob: f64, delay: SimDuration) -> Self {
        SignalFaultConfig {
            drop_prob: 0.0,
            delay_prob,
            delay,
            seed,
        }
    }
}

/// Counters of what the fault injection did to the bus.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalFaultStats {
    /// Pressure signals silently lost.
    pub dropped: u64,
    /// Pressure signals deferred (they were delivered later).
    pub delayed: u64,
}

/// What happened to one send on a (possibly faulted) bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendOutcome {
    /// Queued for the target immediately.
    Delivered,
    /// Lost to injected signal loss.
    Dropped,
    /// Deferred; it will queue once the delay elapses.
    Delayed,
}

/// Per-process FIFO signal queues.
///
/// Duplicate *pending* memory-pressure signals are coalesced, matching the
/// semantics of POSIX real-time signal queues under M3's once-per-poll
/// sending discipline (a process that has not yet handled a pending high
/// signal gains nothing from a second copy).
#[derive(Debug, Clone, Default)]
pub struct SignalBus {
    queues: BTreeMap<Pid, Vec<Signal>>,
    fault: Option<(SignalFaultConfig, SimRng)>,
    /// Deferred `(due, pid, sig)` sends, in send order. The fixed per-bus
    /// delay keeps this chronologically sorted.
    deferred: Vec<(SimTime, Pid, Signal)>,
    stats: SignalFaultStats,
}

impl SignalBus {
    /// Creates an empty bus.
    pub fn new() -> Self {
        SignalBus::default()
    }

    /// Installs (or clears) signal fault injection. The RNG restarts from
    /// the configured seed, so installing the same config twice replays the
    /// same drop/delay sequence.
    pub fn set_fault(&mut self, cfg: Option<SignalFaultConfig>) {
        self.fault = cfg.map(|c| (c, SimRng::new(c.seed)));
    }

    /// Fault-injection counters so far.
    pub fn fault_stats(&self) -> SignalFaultStats {
        self.stats
    }

    /// Queues `sig` for `pid`. Memory-pressure signals already pending for
    /// the process are not duplicated; `Kill` always queues.
    pub fn send(&mut self, pid: Pid, sig: Signal) {
        let q = self.queues.entry(pid).or_default();
        if sig == Signal::Kill || !q.contains(&sig) {
            q.push(sig);
        }
    }

    /// Like [`SignalBus::send`], but subject to the installed fault
    /// injection; `now` timestamps deferred deliveries.
    pub fn send_at(&mut self, pid: Pid, sig: Signal, now: SimTime) -> SendOutcome {
        if sig != Signal::Kill {
            if let Some((cfg, rng)) = self.fault.as_mut() {
                let roll = rng.gen_f64();
                if roll < cfg.drop_prob {
                    self.stats.dropped += 1;
                    return SendOutcome::Dropped;
                }
                if roll < cfg.drop_prob + cfg.delay_prob {
                    self.stats.delayed += 1;
                    self.deferred.push((now + cfg.delay, pid, sig));
                    return SendOutcome::Delayed;
                }
            }
        }
        self.send(pid, sig);
        SendOutcome::Delivered
    }

    /// Moves deferred sends whose delay has elapsed into the queues (with
    /// the usual coalescing). The kernel calls this when its clock advances.
    pub fn deliver_due(&mut self, now: SimTime) {
        if self.deferred.is_empty() {
            return;
        }
        let mut due = Vec::new();
        self.deferred.retain(|&(t, pid, sig)| {
            if t <= now {
                due.push((pid, sig));
                false
            } else {
                true
            }
        });
        for (pid, sig) in due {
            self.send(pid, sig);
        }
    }

    /// Drains and returns all pending signals for `pid`, in delivery order.
    pub fn take(&mut self, pid: Pid) -> Vec<Signal> {
        self.queues.remove(&pid).unwrap_or_default()
    }

    /// Discards all state for an exited process — including deferred
    /// in-flight sends, so a later process reusing the pid cannot inherit
    /// the dead one's signals.
    pub fn forget(&mut self, pid: Pid) {
        self.queues.remove(&pid);
        self.deferred.retain(|&(_, p, _)| p != pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_is_fifo() {
        let mut bus = SignalBus::new();
        bus.send(1, Signal::LowMemory);
        bus.send(1, Signal::HighMemory);
        assert_eq!(bus.take(1), vec![Signal::LowMemory, Signal::HighMemory]);
        assert!(bus.take(1).is_empty());
    }

    #[test]
    fn pressure_signals_coalesce() {
        let mut bus = SignalBus::new();
        bus.send(1, Signal::HighMemory);
        bus.send(1, Signal::HighMemory);
        bus.send(1, Signal::HighMemory);
        assert_eq!(bus.take(1), vec![Signal::HighMemory]);
    }

    #[test]
    fn kill_does_not_coalesce() {
        let mut bus = SignalBus::new();
        bus.send(1, Signal::Kill);
        bus.send(1, Signal::Kill);
        assert_eq!(bus.take(1), vec![Signal::Kill, Signal::Kill]);
    }

    #[test]
    fn queues_are_per_process() {
        let mut bus = SignalBus::new();
        bus.send(1, Signal::LowMemory);
        bus.send(2, Signal::HighMemory);
        assert_eq!(bus.take(2), vec![Signal::HighMemory]);
        assert_eq!(bus.take(1), vec![Signal::LowMemory]);
    }

    #[test]
    fn coalescing_resets_after_drain() {
        let mut bus = SignalBus::new();
        bus.send(1, Signal::HighMemory);
        let _ = bus.take(1);
        bus.send(1, Signal::HighMemory);
        assert_eq!(
            bus.take(1),
            vec![Signal::HighMemory],
            "a new signal after drain must queue"
        );
    }

    #[test]
    fn forget_clears_state() {
        let mut bus = SignalBus::new();
        bus.send(9, Signal::LowMemory);
        bus.forget(9);
        assert!(bus.take(9).is_empty());
    }

    #[test]
    fn lossy_bus_drops_deterministically() {
        let run = || {
            let mut bus = SignalBus::new();
            bus.set_fault(Some(SignalFaultConfig::lossy(7, 0.5)));
            (0..64)
                .map(|i| bus.send_at(i, Signal::HighMemory, SimTime::ZERO))
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same fault sequence");
        assert!(a.contains(&SendOutcome::Dropped));
        assert!(a.contains(&SendOutcome::Delivered));
    }

    #[test]
    fn kill_is_immune_to_fault_injection() {
        let mut bus = SignalBus::new();
        bus.set_fault(Some(SignalFaultConfig::lossy(1, 1.0)));
        assert_eq!(
            bus.send_at(3, Signal::Kill, SimTime::ZERO),
            SendOutcome::Delivered
        );
        assert_eq!(
            bus.send_at(3, Signal::HighMemory, SimTime::ZERO),
            SendOutcome::Dropped
        );
        assert_eq!(bus.take(3), vec![Signal::Kill]);
        assert_eq!(bus.fault_stats().dropped, 1);
    }

    #[test]
    fn delayed_signals_arrive_after_the_delay() {
        let mut bus = SignalBus::new();
        bus.set_fault(Some(SignalFaultConfig::laggy(
            2,
            1.0,
            SimDuration::from_secs(5),
        )));
        let t0 = SimTime::ZERO;
        assert_eq!(bus.send_at(1, Signal::HighMemory, t0), SendOutcome::Delayed);
        bus.deliver_due(t0 + SimDuration::from_secs(4));
        assert!(bus.take(1).is_empty(), "still in flight");
        bus.deliver_due(t0 + SimDuration::from_secs(5));
        assert_eq!(bus.take(1), vec![Signal::HighMemory]);
        assert_eq!(bus.fault_stats().delayed, 1);
    }

    #[test]
    fn forget_purges_deferred_sends() {
        let mut bus = SignalBus::new();
        bus.set_fault(Some(SignalFaultConfig::laggy(
            2,
            1.0,
            SimDuration::from_secs(1),
        )));
        bus.send_at(4, Signal::HighMemory, SimTime::ZERO);
        bus.forget(4); // process died; a pid-reuser must not inherit this
        bus.deliver_due(SimTime::from_secs(10));
        assert!(bus.take(4).is_empty());
    }
}
