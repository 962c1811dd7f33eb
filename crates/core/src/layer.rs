//! The vocabulary shared between the monitor and participating applications.
//!
//! M3 keeps the kernel/monitor side deliberately ignorant of application
//! internals (the end-to-end principle): all it knows is that a registered
//! process can be sent a low or high threshold signal and will eventually
//! reclaim some memory. Applications implement [`M3Participant`]; the
//! layering *inside* an application (e.g. Spark evicting blocks before
//! calling down into the JVM) is each application's own policy, encoded in
//! its `handle_signal` implementation.

use m3_os::{Kernel, Pid};
use m3_sim::clock::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The two memory-pressure notifications of M3 (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ThresholdSignal {
    /// Early warning: prioritize reclamation *speed* over quantity.
    Low,
    /// Severe pressure: prioritize reclamation *quantity*, and run the
    /// adaptive allocation protocol afterwards.
    High,
}

impl ThresholdSignal {
    /// Converts an OS signal back, if it is one of the two thresholds.
    pub fn from_os_signal(sig: m3_os::Signal) -> Option<Self> {
        match sig {
            m3_os::Signal::LowMemory => Some(ThresholdSignal::Low),
            m3_os::Signal::HighMemory => Some(ThresholdSignal::High),
            m3_os::Signal::Kill => None,
        }
    }
}

/// What a signal handler accomplished, reported back so the monitor can
/// track expected reclamation and the allocator can size its epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SignalOutcome {
    /// Wall time the handler spent (the *epoch length* of §4.2: from signal
    /// receipt to memory returned).
    pub duration: SimDuration,
    /// Bytes returned to the OS by the whole stack, top layer first.
    pub returned_to_os: u64,
}

impl SignalOutcome {
    /// Merges a nested layer's outcome into this one (durations add, bytes
    /// add).
    pub fn merge(&mut self, other: SignalOutcome) {
        self.duration += other.duration;
        self.returned_to_os += other.returned_to_os;
    }
}

/// An application stack participating in M3.
///
/// Implementations encode the paper's Table 1 policies: which reclamation
/// mechanism each signal maps to, and in which order the stack's layers
/// reclaim (upper layers first, each notifying the layer below when done).
pub trait M3Participant {
    /// The OS process this stack runs in.
    fn pid(&self) -> Pid;

    /// Handles a threshold signal, reclaiming memory according to the
    /// stack's policy. Returns what was accomplished.
    fn handle_signal(
        &mut self,
        sig: ThresholdSignal,
        os: &mut Kernel,
        now: SimTime,
    ) -> SignalOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_signals_map_to_thresholds() {
        for (os, sig) in [
            (m3_os::Signal::LowMemory, ThresholdSignal::Low),
            (m3_os::Signal::HighMemory, ThresholdSignal::High),
        ] {
            assert_eq!(ThresholdSignal::from_os_signal(os), Some(sig));
        }
        assert_eq!(ThresholdSignal::from_os_signal(m3_os::Signal::Kill), None);
    }

    #[test]
    fn outcomes_merge() {
        let mut a = SignalOutcome {
            duration: SimDuration::from_millis(100),
            returned_to_os: 10,
        };
        a.merge(SignalOutcome {
            duration: SimDuration::from_millis(50),
            returned_to_os: 5,
        });
        assert_eq!(a.duration.as_millis(), 150);
        assert_eq!(a.returned_to_os, 15);
    }
}
