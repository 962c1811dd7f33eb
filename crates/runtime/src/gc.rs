//! Garbage-collection kinds, cost model and statistics.
//!
//! The two M3 threshold signals pick points on a speed-versus-yield curve
//! (§3): a *young* collection is fast but reclaims only newly allocated
//! garbage; a *mixed* collection also evacuates old regions; a *full*
//! collection scans the entire heap. The cost model is affine in the bytes
//! scanned and copied, which is the first-order behaviour of real
//! stop-the-world collectors.

use m3_sim::clock::SimDuration;
use m3_sim::units::MIB;
use serde::{Deserialize, Serialize};

/// The kind of collection performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GcKind {
    /// Young-generation-only evacuation (fast, small yield).
    Young,
    /// Young + a slice of old regions ("mixed" in G1 terms).
    Mixed,
    /// Whole-heap stop-the-world collection.
    Full,
}

/// Pause-time cost model for stop-the-world collections.
///
/// All rates are milliseconds per MiB; `base_ms` covers root scanning and
/// safepoint overhead that every pause pays regardless of heap size.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GcCostModel {
    /// Fixed per-pause overhead (roots, safepoint), in ms.
    pub base_ms: u64,
    /// Cost of copying surviving bytes, ms per MiB.
    pub copy_ms_per_mib: f64,
    /// Cost of scanning live bytes (marking/remembered sets), ms per MiB.
    pub scan_ms_per_mib: f64,
    /// Cost of sweeping garbage bytes, ms per MiB (cheap).
    pub sweep_ms_per_mib: f64,
}

impl Default for GcCostModel {
    fn default() -> Self {
        // Calibrated against HotSpot G1 on server-class hardware: copying a
        // GiB of survivors costs on the order of a few hundred ms; a full GC
        // of a ~30 GiB mostly-live heap costs tens of seconds.
        GcCostModel {
            base_ms: 15,
            copy_ms_per_mib: 0.35,
            // Marking is concurrent in G1; pauses only pay remembered-set
            // and root-region work proportional to the live set.
            scan_ms_per_mib: 0.02,
            sweep_ms_per_mib: 0.01,
        }
    }
}

impl GcCostModel {
    /// Pause time for a collection that scans `scanned` live bytes, copies
    /// `copied` surviving bytes and sweeps `swept` garbage bytes.
    pub fn pause(&self, scanned: u64, copied: u64, swept: u64) -> SimDuration {
        let ms = self.base_ms as f64
            + self.scan_ms_per_mib * (scanned as f64 / MIB as f64)
            + self.copy_ms_per_mib * (copied as f64 / MIB as f64)
            + self.sweep_ms_per_mib * (swept as f64 / MIB as f64);
        SimDuration::from_millis(ms.round() as u64)
    }
}

/// Accumulated collection statistics for one runtime instance.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GcStats {
    /// Number of young collections.
    pub young_count: u64,
    /// Number of mixed collections.
    pub mixed_count: u64,
    /// Number of full collections.
    pub full_count: u64,
    /// Collections that actually freed bytes inside the heap. A collection
    /// with zero yield still pays its pause (and still counts in the
    /// per-kind counters above); tracking the effective subset separately
    /// exposes how much of the GC effort under pressure was wasted motion.
    pub effective_collections: u64,
    /// Total stop-the-world pause time.
    pub total_pause: SimDuration,
    /// Total bytes reclaimed (freed inside the heap).
    pub reclaimed_bytes: u64,
    /// Total bytes returned to the OS via `madvise`.
    pub returned_to_os: u64,
}

impl GcStats {
    /// Records one collection.
    pub fn record(&mut self, kind: GcKind, pause: SimDuration, reclaimed: u64) {
        match kind {
            GcKind::Young => self.young_count += 1,
            GcKind::Mixed => self.mixed_count += 1,
            GcKind::Full => self.full_count += 1,
        }
        if reclaimed > 0 {
            self.effective_collections += 1;
        }
        self.total_pause += pause;
        self.reclaimed_bytes += reclaimed;
    }

    /// Total number of collections of any kind, effective or not.
    pub fn total_count(&self) -> u64 {
        self.young_count + self.mixed_count + self.full_count
    }

    /// Collections that paid a pause without freeing anything.
    pub fn wasted_collections(&self) -> u64 {
        self.total_count() - self.effective_collections
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::units::GIB;

    #[test]
    fn pause_grows_with_work() {
        let m = GcCostModel::default();
        let small = m.pause(100 * MIB, 10 * MIB, 100 * MIB);
        let big = m.pause(10 * GIB, GIB, 10 * GIB);
        assert!(big > small);
        assert!(small.as_millis() >= m.base_ms);
    }

    #[test]
    fn empty_pause_is_base_cost() {
        let m = GcCostModel::default();
        assert_eq!(m.pause(0, 0, 0).as_millis(), m.base_ms);
    }

    #[test]
    fn copy_dominates_sweep() {
        let m = GcCostModel::default();
        let copy_heavy = m.pause(0, GIB, 0);
        let sweep_heavy = m.pause(0, 0, GIB);
        assert!(copy_heavy.as_millis() > 10 * sweep_heavy.as_millis());
    }

    #[test]
    fn full_gc_of_large_live_heap_costs_tens_of_seconds() {
        let m = GcCostModel::default();
        // 30 GiB live heap scanned and half copied: should be 10s-60s class.
        let pause = m.pause(30 * GIB, 15 * GIB, 5 * GIB);
        assert!(pause.as_secs() >= 5, "got {pause}");
        assert!(pause.as_secs() <= 120, "got {pause}");
    }

    #[test]
    fn stats_accumulate() {
        let mut s = GcStats::default();
        s.record(GcKind::Young, SimDuration::from_millis(10), 100);
        s.record(GcKind::Mixed, SimDuration::from_millis(50), 400);
        s.record(GcKind::Full, SimDuration::from_millis(500), 900);
        assert_eq!(s.young_count, 1);
        assert_eq!(s.mixed_count, 1);
        assert_eq!(s.full_count, 1);
        assert_eq!(s.total_count(), 3);
        assert_eq!(s.effective_collections, 3);
        assert_eq!(s.wasted_collections(), 0);
        assert_eq!(s.total_pause.as_millis(), 560);
        assert_eq!(s.reclaimed_bytes, 1400);
    }

    #[test]
    fn zero_yield_collections_count_but_are_not_effective() {
        let mut s = GcStats::default();
        s.record(GcKind::Young, SimDuration::from_millis(10), 0);
        s.record(GcKind::Young, SimDuration::from_millis(10), 64);
        s.record(GcKind::Mixed, SimDuration::from_millis(40), 0);
        assert_eq!(s.total_count(), 3, "zero-yield collections still count");
        assert_eq!(s.effective_collections, 1);
        assert_eq!(s.wasted_collections(), 2);
        assert_eq!(
            s.total_pause.as_millis(),
            60,
            "wasted collections still pay their pause"
        );
        assert_eq!(s.reclaimed_bytes, 64);
    }
}
