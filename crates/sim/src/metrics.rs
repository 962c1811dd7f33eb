//! Time series and memory profiles.
//!
//! The paper's figures are memory profiles: physical memory per process
//! and thresholds, sampled over time. [`TimeSeries`] captures exactly that.
//! The signal arrows the figures overlay are the run trace's `signal.*`
//! and `monitor.kill` events.

use std::fmt::Write as _;

use crate::clock::SimTime;
use serde::{Deserialize, Serialize};

/// One sample of a time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// When the sample was taken.
    pub t: SimTime,
    /// The sampled value.
    pub v: f64,
}

/// A named sequence of `(time, value)` samples.
///
/// # Examples
///
/// ```
/// use m3_sim::{SimTime, TimeSeries};
///
/// let mut s = TimeSeries::new("rss");
/// s.push(SimTime::from_secs(1), 10.0);
/// s.push(SimTime::from_secs(2), 20.0);
/// assert_eq!(s.mean(), Some(15.0));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    /// Human-readable series name (used as the figure legend label).
    pub name: String,
    /// The samples, in non-decreasing time order.
    pub samples: Vec<Sample>,
}

impl TimeSeries {
    /// Creates an empty series with the given legend name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `t` precedes the last sample's time.
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|s| s.t <= t),
            "samples must be pushed in time order"
        );
        self.samples.push(Sample { t, v });
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean of the values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|s| s.v).sum::<f64>() / self.samples.len() as f64)
    }

    /// Maximum value, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|s| s.v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// The latest value, or `None` if empty.
    pub fn last(&self) -> Option<f64> {
        self.samples.last().map(|s| s.v)
    }

    /// Fraction of samples strictly above `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| s.v > threshold).count() as f64 / self.samples.len() as f64
    }
}

/// A bundle of series constituting one figure panel.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Profile {
    /// All series, keyed by insertion order.
    pub series: Vec<TimeSeries>,
}

impl Profile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Profile::default()
    }

    /// Returns the series with the given name, creating it if absent.
    pub fn series_mut(&mut self, name: &str) -> &mut TimeSeries {
        if let Some(i) = self.series.iter().position(|s| s.name == name) {
            return &mut self.series[i];
        }
        self.series.push(TimeSeries::new(name));
        self.series.last_mut().expect("just pushed")
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|s| s.name == name)
    }

    /// Draws the profile as an ASCII strip chart, so a figure's shape is
    /// visible without plotting: one row per series, `cols` columns on one
    /// time axis that ends at the profile's last sample, and each value a
    /// glyph scaled against `max`. A series that ends early ends in blanks.
    pub fn ascii(&self, cols: usize, max: f64) -> String {
        const GLYPHS: &[u8] = b" .:-=+*#%@";
        let t_end = self
            .series
            .iter()
            .filter_map(|s| s.samples.last())
            .map(|p| p.t.as_secs_f64())
            .fold(1.0, f64::max);
        let mut out = String::new();
        for s in self.series.iter().filter(|s| !s.is_empty()) {
            let mut row = vec![b' '; cols];
            for p in &s.samples {
                let col = ((p.t.as_secs_f64() / t_end) * (cols - 1) as f64) as usize;
                let level = ((p.v / max).clamp(0.0, 1.0) * (GLYPHS.len() - 1) as f64) as usize;
                row[col] = GLYPHS[level].max(row[col]);
            }
            let row = String::from_utf8(row).expect("ascii");
            let _ = writeln!(out, "{:>16} |{row}|", s.name);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_stats() {
        let mut s = TimeSeries::new("x");
        assert!(s.is_empty());
        assert_eq!(s.mean(), None);
        assert_eq!(s.max(), None);
        for (i, v) in [1.0, 3.0, 2.0].iter().enumerate() {
            s.push(SimTime::from_secs(i as u64), *v);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(s.max(), Some(3.0));
        assert_eq!(s.last(), Some(2.0));
        assert!((s.fraction_above(1.5) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn profile_series_by_name() {
        let mut p = Profile::new();
        p.series_mut("a").push(SimTime::ZERO, 1.0);
        p.series_mut("a").push(SimTime::from_secs(1), 2.0);
        p.series_mut("b").push(SimTime::ZERO, 9.0);
        assert_eq!(p.series.len(), 2);
        assert_eq!(p.series("a").unwrap().len(), 2);
        assert!(p.series("missing").is_none());
    }

    #[test]
    fn ascii_profile_is_bounded() {
        let mut p = Profile::new();
        for i in 0..100 {
            p.series_mut("total").push(SimTime::from_secs(i), i as f64);
        }
        let art = p.ascii(40, 100.0);
        assert!(art.contains("total"));
        let line = art.lines().next().unwrap();
        assert!(line.len() < 70);
    }
}
