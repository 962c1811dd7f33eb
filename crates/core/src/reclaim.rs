//! Expected-reclamation estimation (§5.1).
//!
//! Algorithm 1 needs, for every registered process, an estimate of how much
//! memory a high-threshold signal will recover: "the average reclamation of
//! this process over the last five signals". Before any history exists we
//! use an optimistic fraction of the process's RSS, so a fresh process is
//! still eligible for selection.

use m3_os::Pid;
use m3_sim::units::MIB;
use std::collections::{BTreeMap, VecDeque};

/// Number of past signal responses averaged (the paper uses five).
pub const HISTORY_LEN: usize = 5;

/// Fraction of RSS assumed reclaimable for a process with no history yet
/// (public so the conformance oracle can replay fresh-process estimates).
pub const DEFAULT_RSS_FRACTION: f64 = 0.10;

/// Floor on the default estimate, so tiny processes still get selected.
pub const DEFAULT_FLOOR: u64 = 64 * MIB;

/// Tracks per-process reclamation history.
#[derive(Debug, Clone, Default)]
pub struct ReclaimTracker {
    history: BTreeMap<Pid, VecDeque<u64>>,
}

impl ReclaimTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ReclaimTracker::default()
    }

    /// Records the bytes a process reclaimed in response to a signal.
    pub fn record(&mut self, pid: Pid, bytes: u64) {
        let h = self.history.entry(pid).or_default();
        if h.len() == HISTORY_LEN {
            h.pop_front();
        }
        h.push_back(bytes);
    }

    /// The expected reclamation for `pid`: the mean of its last
    /// [`HISTORY_LEN`] responses, or a default based on `rss` when no
    /// history exists.
    pub fn expected(&self, pid: Pid, rss: u64) -> u64 {
        match self.history.get(&pid) {
            Some(h) if !h.is_empty() => (h.iter().sum::<u64>() as f64 / h.len() as f64) as u64,
            _ => ((rss as f64 * DEFAULT_RSS_FRACTION) as u64).max(DEFAULT_FLOOR),
        }
    }

    /// Discards history for an exited process.
    pub fn forget(&mut self, pid: Pid) {
        self.history.remove(&pid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::units::GIB;

    #[test]
    fn default_estimate_uses_rss_with_floor() {
        let t = ReclaimTracker::new();
        assert_eq!(t.expected(1, 10 * GIB), GIB, "10% of RSS");
        assert_eq!(t.expected(1, 0), DEFAULT_FLOOR, "floor for tiny processes");
    }

    #[test]
    fn average_of_history() {
        let mut t = ReclaimTracker::new();
        t.record(1, 100);
        t.record(1, 300);
        assert_eq!(t.expected(1, 0), 200);
    }

    #[test]
    fn history_is_bounded_to_last_five() {
        let mut t = ReclaimTracker::new();
        for v in [1000, 10, 10, 10, 10, 10] {
            t.record(1, v);
        }
        assert_eq!(t.expected(1, 0), 10, "oldest (1000) must have aged out");
    }

    #[test]
    fn processes_are_independent() {
        let mut t = ReclaimTracker::new();
        t.record(1, 500);
        assert_eq!(t.expected(2, 10 * GIB), GIB, "pid 2 has no history");
        assert_eq!(t.expected(1, 10 * GIB), 500);
    }

    #[test]
    fn forget_resets_to_default() {
        let mut t = ReclaimTracker::new();
        t.record(1, 500);
        t.forget(1);
        assert_eq!(t.expected(1, 0), DEFAULT_FLOOR);
    }
}
