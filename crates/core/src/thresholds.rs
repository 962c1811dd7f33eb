//! Adaptive threshold adjustment (§5.2).
//!
//! Static thresholds cannot fit applications that reclaim at different
//! speeds, so the monitor moves both thresholds dynamically:
//!
//! - the **low** threshold tempers how often usage reaches the *high*
//!   threshold: over a sliding window of polls, if the fraction of time
//!   spent above the high threshold exceeds the target (1:32), the low
//!   threshold drops (earlier warnings); if it is below the target, the low
//!   threshold rises (fewer unnecessary signals);
//! - the **high** threshold applies the same rule against the *top of
//!   memory*.
//!
//! Guards prevent over-fitting: a threshold is lowered only while the
//! pressure that justifies it is still present (usage above high, resp.
//! above top), raised only while usage is at least at that threshold (below
//! it no signals are sent, so there is nothing to learn), and the ordering
//! `low <= high <= top` is always preserved.

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

use crate::config::{MonitorConfig, RATIO_TARGET, WINDOW};

/// One poll's classification, as remembered by the sliding window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct PollRecord {
    above_high: bool,
    above_top: bool,
}

/// What one [`AdaptiveThresholds::observe`] call changed: `(old, new)` per
/// threshold, `None` where the threshold did not move. The monitor turns
/// these into `threshold.adjust.*` trace events; the conformance oracle
/// replays the same algorithm and checks the recorded moves match.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThresholdUpdate {
    /// Low-threshold move, bytes.
    pub low: Option<(u64, u64)>,
    /// High-threshold move, bytes.
    pub high: Option<(u64, u64)>,
}

/// The dynamically adjusted low/high thresholds.
#[derive(Debug, Clone)]
pub struct AdaptiveThresholds {
    low: u64,
    high: u64,
    top: u64,
    step: u64,
    adaptive: bool,
    records: VecDeque<PollRecord>,
    /// Records in the window with `above_high` set.
    above_high: usize,
    /// Records in the window with `above_top` set.
    above_top: usize,
}

impl AdaptiveThresholds {
    /// Creates thresholds from a monitor configuration.
    pub fn new(cfg: &MonitorConfig) -> Self {
        cfg.validate();
        AdaptiveThresholds {
            low: cfg.initial_low,
            high: cfg.initial_high,
            top: cfg.top,
            step: cfg.step(),
            adaptive: cfg.adaptive,
            records: VecDeque::with_capacity(WINDOW),
            above_high: 0,
            above_top: 0,
        }
    }

    /// The current low threshold, bytes.
    pub fn low(&self) -> u64 {
        self.low
    }

    /// The current high threshold, bytes.
    pub fn high(&self) -> u64 {
        self.high
    }

    /// The top of memory, bytes.
    pub fn top(&self) -> u64 {
        self.top
    }

    /// Fraction of windowed polls above the high threshold. Only read once
    /// the window is full, so the denominator is never zero.
    fn red_fraction(&self) -> f64 {
        self.above_high as f64 / self.records.len() as f64
    }

    /// Fraction of windowed polls above the top.
    fn above_top_fraction(&self) -> f64 {
        self.above_top as f64 / self.records.len() as f64
    }

    /// Feeds one poll's memory usage and adjusts the thresholds, reporting
    /// which thresholds moved.
    ///
    /// Adjustments only happen once the window is full, so early polls do
    /// not whipsaw the thresholds.
    pub fn observe(&mut self, used: u64) -> ThresholdUpdate {
        // Keep the flagged-record counts in step with the window, so each
        // fraction below is O(1).
        if self.records.len() == WINDOW {
            let old = self.records.pop_front().expect("window is full");
            self.above_high -= usize::from(old.above_high);
            self.above_top -= usize::from(old.above_top);
        }
        let record = PollRecord {
            above_high: used > self.high,
            above_top: used > self.top,
        };
        self.above_high += usize::from(record.above_high);
        self.above_top += usize::from(record.above_top);
        self.records.push_back(record);
        if !self.adaptive || self.records.len() < WINDOW {
            return ThresholdUpdate::default();
        }
        let (low0, high0) = (self.low, self.high);

        // Low threshold: temper how often the high threshold is reached.
        let red = self.red_fraction();
        if red > RATIO_TARGET && used > self.high {
            // Reached high too often and pressure persists: warn earlier.
            self.low = self.low.saturating_sub(self.step);
        } else if red < RATIO_TARGET && used >= self.low {
            // High rarely reached and the low threshold is actually in play:
            // relax it to avoid unnecessary signals.
            self.low = (self.low + self.step).min(self.high);
        }

        // High threshold: same rule against the top of memory. Fig. 6 shows
        // both thresholds rising while the system operates in the yellow
        // zone, so the raise guard is "usage at least at the low threshold"
        // (in green nothing adjusts: memory is simply not in demand).
        let over_top = self.above_top_fraction();
        if over_top > RATIO_TARGET && used > self.top {
            // Operating above top too often: signal sooner. (This does not
            // change how much is reclaimed, only when reclamation starts.)
            self.high = self.high.saturating_sub(self.step).max(self.low);
        } else if over_top < RATIO_TARGET && used >= self.low {
            // Never reaching top: utilization headroom exists, raise high —
            // but keep one step of red band below top, so Algorithm 1's
            // selective notification still has room to act before the
            // signal-everyone above-top escalation.
            self.high = (self.high + self.step).min(self.top.saturating_sub(self.step));
        }

        debug_assert!(self.low <= self.high && self.high <= self.top);
        ThresholdUpdate {
            low: (self.low != low0).then_some((low0, self.low)),
            high: (self.high != high0).then_some((high0, self.high)),
        }
    }

    /// Debug invariant: the running counts equal a recount of the window,
    /// which never outgrows [`WINDOW`].
    #[cfg(test)]
    fn check_invariants(&self) {
        assert!(self.records.len() <= WINDOW);
        let high = self.records.iter().filter(|r| r.above_high).count();
        let top = self.records.iter().filter(|r| r.above_top).count();
        assert_eq!(self.above_high, high, "above-high count drifted");
        assert_eq!(self.above_top, top, "above-top count drifted");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::units::GIB;
    use proptest::prelude::*;

    /// The adjustment rule as it was before the counted window: both
    /// fractions are recounted from the window on every poll. Kept as the
    /// reference the counted window must match.
    struct RecountThresholds {
        low: u64,
        high: u64,
        top: u64,
        step: u64,
        adaptive: bool,
        records: VecDeque<PollRecord>,
    }

    impl RecountThresholds {
        fn new(cfg: &MonitorConfig) -> Self {
            RecountThresholds {
                low: cfg.initial_low,
                high: cfg.initial_high,
                top: cfg.top,
                step: cfg.step(),
                adaptive: cfg.adaptive,
                records: VecDeque::new(),
            }
        }

        fn fraction(&self, flag: fn(&PollRecord) -> bool) -> f64 {
            if self.records.is_empty() {
                return 0.0;
            }
            self.records.iter().filter(|r| flag(r)).count() as f64 / self.records.len() as f64
        }

        fn observe(&mut self, used: u64) -> ThresholdUpdate {
            if self.records.len() == WINDOW {
                self.records.pop_front();
            }
            self.records.push_back(PollRecord {
                above_high: used > self.high,
                above_top: used > self.top,
            });
            if !self.adaptive || self.records.len() < WINDOW {
                return ThresholdUpdate::default();
            }
            let (low0, high0) = (self.low, self.high);
            let red = self.fraction(|r| r.above_high);
            if red > RATIO_TARGET && used > self.high {
                self.low = self.low.saturating_sub(self.step);
            } else if red < RATIO_TARGET && used >= self.low {
                self.low = (self.low + self.step).min(self.high);
            }
            let over_top = self.fraction(|r| r.above_top);
            if over_top > RATIO_TARGET && used > self.top {
                self.high = self.high.saturating_sub(self.step).max(self.low);
            } else if over_top < RATIO_TARGET && used >= self.low {
                self.high = (self.high + self.step).min(self.top.saturating_sub(self.step));
            }
            ThresholdUpdate {
                low: (self.low != low0).then_some((low0, self.low)),
                high: (self.high != high0).then_some((high0, self.high)),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn counted_window_matches_a_recount(
            usage in proptest::collection::vec(0u64..72, 1..400),
            adaptive in proptest::bool::ANY,
        ) {
            let mut c = cfg();
            c.adaptive = adaptive;
            let mut counted = AdaptiveThresholds::new(&c);
            let mut recount = RecountThresholds::new(&c);
            // Usage in GiB around the 50/55/62-GiB thresholds, so every
            // zone and both guards are exercised.
            for (i, gib) in usage.into_iter().enumerate() {
                let used = gib * GIB;
                prop_assert_eq!(counted.observe(used), recount.observe(used), "poll {}", i);
                counted.check_invariants();
                prop_assert_eq!(
                    (counted.low(), counted.high()),
                    (recount.low, recount.high),
                    "poll {}",
                    i
                );
            }
        }
    }

    fn cfg() -> MonitorConfig {
        MonitorConfig::paper_64gb()
    }

    fn fill_window(t: &mut AdaptiveThresholds, used: u64) {
        for _ in 0..WINDOW {
            t.observe(used);
        }
    }

    #[test]
    fn initial_values_from_config() {
        let t = AdaptiveThresholds::new(&cfg());
        assert_eq!(t.low(), 50 * GIB);
        assert_eq!(t.high(), 55 * GIB);
        assert_eq!(t.top(), 62 * GIB);
    }

    #[test]
    fn no_adjustment_until_window_full() {
        let mut t = AdaptiveThresholds::new(&cfg());
        for _ in 0..31 {
            t.observe(61 * GIB); // above high
        }
        assert_eq!(t.low(), 50 * GIB, "window not yet full");
    }

    #[test]
    fn sustained_red_lowers_low_threshold() {
        let mut t = AdaptiveThresholds::new(&cfg());
        let low0 = t.low();
        fill_window(&mut t, 58 * GIB); // above high (55), below top (62)
        assert!(t.low() < low0, "low should drop under sustained pressure");
    }

    #[test]
    fn sustained_red_below_top_raises_high_threshold() {
        // §7.2.1/Fig. 6: "the high threshold keeps increasing, as the system
        // still operates underneath the top of memory."
        let mut t = AdaptiveThresholds::new(&cfg());
        let high0 = t.high();
        fill_window(&mut t, 58 * GIB);
        assert!(t.high() > high0);
        assert!(t.high() <= t.top());
    }

    #[test]
    fn quiet_yellow_zone_raises_low_threshold() {
        // Usage sits between low and high: high is never reached, so low
        // creeps up to reduce unnecessary signals.
        let mut t = AdaptiveThresholds::new(&cfg());
        let low0 = t.low();
        fill_window(&mut t, 52 * GIB);
        assert!(t.low() > low0);
        assert!(t.low() <= t.high());
    }

    #[test]
    fn green_zone_changes_nothing() {
        // "M3 does not adjust thresholds when the system is operating in the
        // green or yellow zone" — in green, neither guard passes.
        let mut t = AdaptiveThresholds::new(&cfg());
        fill_window(&mut t, 10 * GIB);
        assert_eq!(t.low(), 50 * GIB);
        assert_eq!(t.high(), 55 * GIB);
    }

    #[test]
    fn above_top_lowers_high_threshold() {
        let mut t = AdaptiveThresholds::new(&cfg());
        let high0 = t.high();
        fill_window(&mut t, 63 * GIB); // above top
        assert!(t.high() < high0, "persistent above-top must signal sooner");
        assert!(t.high() >= t.low());
    }

    #[test]
    fn thresholds_self_limit_near_operating_point() {
        let mut t = AdaptiveThresholds::new(&cfg());
        // Long quiet-yellow phase: the raise guards stop firing once the low
        // threshold climbs past the operating point, so neither threshold
        // runs away.
        for _ in 0..500 {
            t.observe(54 * GIB);
        }
        assert!(t.low() <= t.high());
        assert!(t.low() >= 54 * GIB, "low climbed past the operating point");
        assert!(
            t.low() <= 54 * GIB + 2 * t.step,
            "low self-limits just above the operating point (got {})",
            t.low()
        );
    }

    #[test]
    fn high_never_exceeds_top() {
        let mut t = AdaptiveThresholds::new(&cfg());
        for _ in 0..500 {
            t.observe(61 * GIB); // red but under top
        }
        assert!(t.high() <= t.top());
    }

    #[test]
    fn static_mode_never_moves() {
        let mut c = cfg();
        c.adaptive = false;
        let mut t = AdaptiveThresholds::new(&c);
        for _ in 0..200 {
            t.observe(61 * GIB);
        }
        assert_eq!(t.low(), 50 * GIB);
        assert_eq!(t.high(), 55 * GIB);
    }

    #[test]
    fn figure_6_narrative_yellow_zone_raises_both() {
        // "Both the low and high thresholds gradually increase at the
        // beginning, as the system operates under the high threshold."
        let mut t = AdaptiveThresholds::new(&cfg());
        let (low0, high0) = (t.low(), t.high());
        fill_window(&mut t, 52 * GIB); // yellow: above low (50), below high (55)
        assert!(t.low() > low0);
        assert!(t.high() > high0);
    }

    #[test]
    fn figure_6_narrative_red_drops_low_but_high_keeps_rising() {
        // "usage repeatedly reaches the high threshold, causing the low
        // threshold to drop. However, the high threshold keeps increasing,
        // as the system still operates underneath the top of memory."
        let mut t = AdaptiveThresholds::new(&cfg());
        fill_window(&mut t, 52 * GIB);
        let (low1, high1) = (t.low(), t.high());
        // A workload that keeps growing: usage tracks just above the high
        // threshold (but stays under top) poll after poll.
        for _ in 0..32 {
            let used = (t.high() + GIB).min(t.top());
            t.observe(used);
        }
        assert!(t.low() < low1, "low must drop in sustained red");
        assert!(t.high() > high1, "high keeps rising while under top");
    }

    #[test]
    fn observe_reports_moves_with_old_and_new() {
        let mut t = AdaptiveThresholds::new(&cfg());
        for _ in 0..31 {
            assert_eq!(t.observe(58 * GIB), ThresholdUpdate::default());
        }
        // 32nd poll fills the window: low drops, high rises, both reported.
        let up = t.observe(58 * GIB);
        assert_eq!(up.low, Some((50 * GIB, 50 * GIB - t.step)));
        assert_eq!(up.high, Some((55 * GIB, 55 * GIB + t.step)));
        // A green-zone poll moves nothing and reports nothing.
        let red_gone: Vec<ThresholdUpdate> = (0..32).map(|_| t.observe(GIB)).collect();
        assert_eq!(*red_gone.last().unwrap(), ThresholdUpdate::default());
    }

    #[test]
    #[should_panic(expected = "high must not exceed top")]
    fn top_below_initial_thresholds_fails_construction() {
        // A top of memory smaller than the initial low/high gap cannot hold
        // the initial thresholds; construction must fail cleanly instead of
        // producing an inverted ordering.
        let mut c = cfg();
        c.top = 40 * GIB; // below initial_high (55 GiB)
        AdaptiveThresholds::new(&c);
    }

    #[test]
    fn degenerate_zero_gap_config_stays_ordered() {
        // low == high == top is valid (zero-width yellow and red zones);
        // the ordering must survive sustained pressure from both sides.
        let mut c = cfg();
        c.initial_low = c.top;
        c.initial_high = c.top;
        let mut t = AdaptiveThresholds::new(&c);
        for used in [c.top + GIB, c.top - GIB, c.top + GIB] {
            for _ in 0..64 {
                t.observe(used);
                assert!(t.low() <= t.high());
                assert!(t.high() <= t.top());
            }
        }
    }

    #[test]
    fn degenerate_tiny_top_with_zero_step_stays_ordered() {
        // A top so small the 2% step truncates to zero bytes: adjustments
        // become no-ops but must never invert the ordering.
        let mut c = cfg();
        c.top = 40;
        c.initial_low = 10;
        c.initial_high = 20;
        let mut t = AdaptiveThresholds::new(&c);
        assert_eq!(t.step, 0);
        for used in [25u64, 45, 5, 45, 15] {
            for _ in 0..40 {
                t.observe(used);
                assert!(t.low() <= t.high());
                assert!(t.high() <= t.top());
            }
        }
    }

    #[test]
    fn window_slides() {
        let mut t = AdaptiveThresholds::new(&cfg());
        fill_window(&mut t, 58 * GIB);
        let low_after_pressure = t.low();
        // 32 quiet polls age the red records out; low stops moving down and
        // starts recovering once usage is yellow.
        fill_window(&mut t, 52 * GIB);
        assert!(t.low() >= low_after_pressure);
        t.check_invariants();
        assert_eq!((t.above_high, t.above_top), (0, 0), "red records aged out");
    }
}
