//! Monitor configuration with the paper's §6 defaults.

use m3_sim::clock::SimDuration;
use m3_sim::units::GIB;
use serde::{Deserialize, Serialize};

use crate::selection::SortOrder;

/// Monitor polling period: `MemAvailable` is read once per second (§6). The
/// world loop polls the monitor and enforces container limits on this grid.
pub const POLL_PERIOD: SimDuration = SimDuration::from_secs(1);

/// All tunables of the M3 monitor.
///
/// The defaults mirror the paper's evaluation machine (§6): top of memory at
/// 62 GB of 64 GB, thresholds initialised to 50/55 GB, both ratio targets
/// 1:32 over a 32-poll sliding window and 2 % adjustment steps. The monitor
/// polls every [`POLL_PERIOD`].
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
    /// Sliding window length, in polls, over which the above/below ratios
    /// are computed.
    pub window: usize,
    /// Target ratio of time above : below the high threshold (resp. the
    /// top), expressed as the "above" share, e.g. `1.0 / 32.0`.
    pub ratio_target: f64,
    /// Threshold adjustment step as a fraction of `top`.
    pub step_fraction: f64,
    /// Algorithm 1 sort order (the paper's evaluation uses newest-first).
    pub sort_order: SortOrder,
    /// How long the system may stay above top (with everyone signalled)
    /// before the monitor starts killing processes.
    pub kill_timeout: SimDuration,
    /// If false, thresholds stay at their initial values (paper Fig. 10's
    /// "static thresholds" baseline).
    pub adaptive: bool,
    /// Ablation switch: if true, the red zone signals *every* registered
    /// process instead of running Algorithm 1's selective notification.
    pub signal_all: bool,
    /// Reclamation watchdog: a participant high-signalled this many
    /// consecutive polls with zero reclaimed bytes is escalated — re-signalled
    /// with bounded backoff and deprioritized into the kill ordering.
    pub watchdog_polls: u32,
    /// Upper bound, in polls, of the watchdog's exponential re-signal
    /// backoff for escalated participants.
    pub watchdog_backoff_max: u32,
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
            window: 32,
            ratio_target: 1.0 / 32.0,
            step_fraction: 0.02,
            sort_order: SortOrder::NewestFirst,
            kill_timeout: SimDuration::from_secs(30),
            adaptive: true,
            signal_all: false,
            watchdog_polls: 5,
            watchdog_backoff_max: 8,
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
    /// Panics if thresholds are not ordered `low <= high <= top` or the
    /// window/ratio are degenerate. Call once at construction sites.
    pub fn validate(&self) {
        assert!(
            self.initial_low <= self.initial_high,
            "low must not exceed high"
        );
        assert!(self.initial_high <= self.top, "high must not exceed top");
        assert!(self.window > 0, "window must be non-empty");
        assert!(
            self.ratio_target > 0.0 && self.ratio_target < 1.0,
            "ratio target must be in (0, 1)"
        );
        assert!(self.watchdog_polls > 0, "watchdog needs at least one poll");
        assert!(
            self.watchdog_backoff_max >= 1,
            "backoff cap must allow re-signalling"
        );
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
        assert_eq!(c.window, 32);
        assert!((c.ratio_target - 1.0 / 32.0).abs() < 1e-12);
        assert_eq!(POLL_PERIOD, SimDuration::from_secs(1));
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
