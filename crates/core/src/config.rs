//! Monitor configuration with the paper's §6 defaults.

use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use serde::{Deserialize, Serialize};

use crate::selection::SortOrder;

/// Monitor polling period: `MemAvailable` is read once per second (§6). The
/// world loop polls the monitor and enforces container limits on this grid.
pub const POLL_PERIOD: SimDuration = SimDuration::from_secs(1);

/// Sliding window length, in polls, over which the threshold algorithm
/// computes its above/below ratios (§5.2).
pub const WINDOW: usize = 32;

/// Target ratio of time above : below the high threshold (resp. the top),
/// as the "above" share: 1:32 (§5.2).
pub const RATIO_TARGET: f64 = 1.0 / 32.0;

/// How long the system may stay above top, with everyone signalled, before
/// the monitor starts killing processes (§6).
pub const KILL_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// Reclamation watchdog: a participant high-signalled this many consecutive
/// polls with zero reclaimed bytes is escalated — re-signalled with bounded
/// backoff and deprioritized into the kill ordering.
pub const WATCHDOG_POLLS: u32 = 5;

/// Upper bound, in polls, of the watchdog's exponential re-signal backoff
/// for escalated participants.
pub const WATCHDOG_BACKOFF_MAX: u32 = 8;

/// The settable parameters of the M3 monitor.
///
/// The defaults mirror the paper's evaluation machine (§6): top of memory at
/// 62 GB of 64 GB, thresholds initialised to 50/55 GB and 2 % adjustment
/// steps. What the paper fixes once is a constant, not a field: the monitor
/// polls every [`POLL_PERIOD`], both ratio targets are [`RATIO_TARGET`]
/// (1:32) over a [`WINDOW`]-poll sliding window, it kills after
/// [`KILL_TIMEOUT`] above top, and its watchdog escalates after
/// [`WATCHDOG_POLLS`] silent polls with backoff capped at
/// [`WATCHDOG_BACKOFF_MAX`].
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MonitorConfig {
    /// Top of memory: the acceptable application memory ceiling, at or just
    /// below physical memory.
    pub top: u64,
    /// Initial low threshold (adjusted dynamically unless `adaptive` is
    /// off).
    pub initial_low: u64,
    /// Initial high threshold.
    pub initial_high: u64,
    /// Threshold adjustment step as a fraction of `top`.
    pub step_fraction: f64,
    /// Algorithm 1 sort order (the paper's evaluation uses newest-first).
    pub sort_order: SortOrder,
    /// If false, thresholds stay at their initial values (paper Fig. 10's
    /// "static thresholds" baseline).
    pub adaptive: bool,
    /// Ablation switch: if true, the red zone signals *every* registered
    /// process instead of running Algorithm 1's selective notification.
    pub signal_all: bool,
}

impl MonitorConfig {
    /// The paper's configuration for a 64-GB node.
    pub fn paper_64gb() -> Self {
        MonitorConfig {
            top: 62 * GIB,
            initial_low: 50 * GIB,
            initial_high: 55 * GIB,
            ..MonitorConfig::scaled(64 * GIB)
        }
    }

    /// A configuration scaled to an arbitrary physical memory size, keeping
    /// the paper's proportions (top ≈ 97 %, low ≈ 78 %, high ≈ 86 %).
    pub fn scaled(phys_total: u64) -> Self {
        MonitorConfig {
            top: phys_total / 32 * 31,
            initial_low: phys_total / 32 * 25,
            initial_high: phys_total / 32 * 27,
            step_fraction: 0.02,
            sort_order: SortOrder::NewestFirst,
            adaptive: true,
            signal_all: false,
        }
    }

    /// The adjustment step in bytes.
    pub fn step(&self) -> u64 {
        (self.top as f64 * self.step_fraction) as u64
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if thresholds are not ordered `low <= high <= top`. Call once
    /// at construction sites.
    pub fn validate(&self) {
        assert!(
            self.initial_low <= self.initial_high,
            "low must not exceed high"
        );
        assert!(self.initial_high <= self.top, "high must not exceed top");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_6() {
        let c = MonitorConfig::paper_64gb();
        assert_eq!(c.top, 62 * GIB);
        assert_eq!(c.initial_low, 50 * GIB);
        assert_eq!(c.initial_high, 55 * GIB);
        assert_eq!(WINDOW, 32);
        assert!((RATIO_TARGET - 1.0 / 32.0).abs() < 1e-12);
        assert_eq!(POLL_PERIOD, SimDuration::from_secs(1));
        assert_eq!(KILL_TIMEOUT, SimDuration::from_secs(30));
        assert!((c.step_fraction - 0.02).abs() < 1e-12);
        assert_eq!(c.sort_order, SortOrder::NewestFirst);
        assert!(c.adaptive);
        c.validate();
    }

    #[test]
    fn scaled_keeps_ordering() {
        for gib in [1u64, 4, 8, 64, 256] {
            let c = MonitorConfig::scaled(gib * GIB);
            c.validate();
            assert!(c.initial_low < c.initial_high);
            assert!(c.initial_high < c.top);
            assert!(c.top <= gib * GIB);
        }
    }

    #[test]
    fn step_is_two_percent_of_top() {
        let c = MonitorConfig::paper_64gb();
        assert_eq!(c.step(), (62.0 * GIB as f64 * 0.02) as u64);
    }

    #[test]
    #[should_panic(expected = "low must not exceed high")]
    fn validate_rejects_inverted_thresholds() {
        let mut c = MonitorConfig::paper_64gb();
        c.initial_low = c.initial_high + 1;
        c.validate();
    }
}
