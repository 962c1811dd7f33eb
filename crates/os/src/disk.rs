//! Disk cost model.
//!
//! The paper's nodes each have one 7,200 RPM hard drive that serves HDFS
//! re-reads when Spark's block cache misses, and suffers contention when
//! concurrent jobs overlap ("in an unmodified system ... jobs overlap and
//! additionally suffer from disk contention", §7.2.1). The model charges a
//! seek plus sequential transfer per request, scaled by the number of
//! concurrent readers.

use m3_sim::clock::SimDuration;
use serde::{Deserialize, Serialize};

/// A simple seek + streaming-bandwidth disk model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DiskModel {
    /// Sustained sequential bandwidth in bytes per second.
    pub bandwidth: u64,
    /// Average positioning cost per request, in milliseconds.
    pub seek_ms: u64,
    /// Extra fractional cost per additional concurrent reader (head
    /// contention on a spinning disk).
    pub contention: f64,
}

impl DiskModel {
    /// A 7,200 RPM hard drive, matching the paper's testbed
    /// (~160 MB/s streaming, ~8 ms positioning).
    pub fn hdd_7200rpm() -> Self {
        DiskModel {
            bandwidth: 160 * 1024 * 1024,
            seek_ms: 8,
            // Concurrent jobs interleave compute with I/O, so an extra
            // *running* reader costs well under a full head-contention
            // factor on average.
            contention: 0.35,
        }
    }

    /// Time to read `bytes` with `readers` concurrent streams
    /// (`readers >= 1`; `0` is treated as `1`).
    pub fn read_time(&self, bytes: u64, readers: usize) -> SimDuration {
        let readers = readers.max(1);
        let transfer_ms = bytes as f64 * 1000.0 / self.bandwidth as f64;
        let factor = 1.0 + self.contention * (readers - 1) as f64;
        SimDuration::from_millis(((self.seek_ms as f64 + transfer_ms) * factor).round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::units::MIB;

    #[test]
    fn read_time_scales_with_size() {
        let d = DiskModel::hdd_7200rpm();
        let small = d.read_time(MIB, 1);
        let large = d.read_time(100 * MIB, 1);
        assert!(large > small);
        // 100 MiB at 160 MiB/s is 625 ms plus one seek.
        assert!((large.as_millis() as i64 - 633).abs() < 10, "got {large}");
    }

    #[test]
    fn contention_slows_reads() {
        let d = DiskModel::hdd_7200rpm();
        let alone = d.read_time(10 * MIB, 1);
        let contended = d.read_time(10 * MIB, 3);
        assert!(contended > alone);
        let expect = alone.as_millis() as f64 * (1.0 + 0.35 * 2.0);
        assert!((contended.as_millis() as f64 - expect).abs() < 3.0);
    }

    #[test]
    fn zero_readers_treated_as_one() {
        let d = DiskModel::hdd_7200rpm();
        assert_eq!(d.read_time(MIB, 0), d.read_time(MIB, 1));
    }
}
