//! Statistical slab-store model.
//!
//! Items are fixed-size and live in fixed-size slabs. Under the uniform
//! access of the paper's benchmark, the cache hit ratio equals the resident
//! fraction of the key space, and evicting the LRU slab removes (on
//! average) one slab's worth of uniformly random items — so the store can
//! be modelled exactly with counters, with no per-key state.

use serde::{Deserialize, Serialize};

/// Table 1's slab count for evicting `fraction` of `total` slabs (1 % on a
/// low signal, 4 % on a high one), shared by both cache stores: rounds up,
/// at least one slab when any exist and the fraction is positive, at most
/// `total`. An empty store, a fraction ≤ 0 and NaN give 0.
pub fn slabs_for_fraction(total: u64, fraction: f64) -> u64 {
    if total == 0 || fraction.is_nan() || fraction <= 0.0 {
        return 0;
    }
    ((total as f64 * fraction).ceil() as u64).clamp(1, total)
}

/// A slab-granular item store over a fixed key space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SlabCache {
    /// Number of distinct keys the workload draws from.
    key_space: u64,
    /// Bytes per item (key + value + metadata).
    item_bytes: u64,
    /// Bytes per slab (a contiguous page run).
    slab_bytes: u64,
    /// Maximum resident bytes (stock configuration) — effectively unbounded
    /// under M3.
    max_bytes: u64,
    /// Items currently resident.
    resident: u64,
    /// Items evicted over the cache's lifetime.
    pub evicted_items: u64,
    /// Slabs evicted over the cache's lifetime.
    pub evicted_slabs: u64,
}

impl SlabCache {
    /// Creates an empty store.
    ///
    /// # Panics
    ///
    /// Panics if sizes are zero or a slab cannot hold at least one item.
    pub fn new(key_space: u64, item_bytes: u64, slab_bytes: u64, max_bytes: u64) -> Self {
        assert!(key_space > 0, "key space must be positive");
        assert!(item_bytes > 0, "item size must be positive");
        assert!(
            slab_bytes >= item_bytes,
            "a slab must hold at least one item"
        );
        SlabCache {
            key_space,
            item_bytes,
            slab_bytes,
            max_bytes,
            resident: 0,
            evicted_items: 0,
            evicted_slabs: 0,
        }
    }

    /// Items per slab.
    pub fn items_per_slab(&self) -> u64 {
        self.slab_bytes / self.item_bytes
    }

    /// Items currently resident.
    pub fn resident_items(&self) -> u64 {
        self.resident
    }

    /// Bytes currently resident (whole slabs).
    pub fn resident_bytes(&self) -> u64 {
        self.slab_count() * self.slab_bytes
    }

    /// Number of (possibly partially filled) slabs in use.
    pub fn slab_count(&self) -> u64 {
        self.resident.div_ceil(self.items_per_slab())
    }

    /// Expected hit ratio for a uniform-random get, in `[0, 1]`.
    pub fn hit_ratio(&self) -> f64 {
        self.resident as f64 / self.key_space as f64
    }

    /// Inserts `n` new items (missed keys being filled), evicting LRU slabs
    /// first if the static capacity would be exceeded. Returns the number
    /// of items evicted to make room.
    pub fn insert(&mut self, n: u64) -> u64 {
        let n = n.min(self.key_space - self.resident);
        let mut evicted = 0;
        let needed_bytes = (self.resident + n).div_ceil(self.items_per_slab()) * self.slab_bytes;
        if needed_bytes > self.max_bytes {
            let over_slabs = (needed_bytes - self.max_bytes).div_ceil(self.slab_bytes);
            evicted = self.evict_slabs(over_slabs);
        }
        self.resident = (self.resident + n).min(self.key_space);
        evicted
    }

    /// Evicts up to `n` slabs (LRU ≈ arbitrary under uniform access),
    /// returning the number of items removed.
    pub fn evict_slabs(&mut self, n: u64) -> u64 {
        let n = n.min(self.slab_count());
        let items = (n * self.items_per_slab()).min(self.resident);
        self.resident -= items;
        self.evicted_items += items;
        self.evicted_slabs += n;
        items
    }

    /// Evicts [`slabs_for_fraction`] of the slabs (the Table 1 policy).
    /// Returns `(slabs, items)` evicted.
    pub fn evict_fraction(&mut self, fraction: f64) -> (u64, u64) {
        let n = slabs_for_fraction(self.slab_count(), fraction);
        (n, self.evict_slabs(n))
    }

    /// Bytes of `n` items.
    pub fn items_to_bytes(&self, n: u64) -> u64 {
        n * self.item_bytes
    }

    /// Removes everything (shutdown).
    pub fn clear(&mut self) {
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::units::{GIB, KIB, MIB};

    fn cache(max: u64) -> SlabCache {
        // 1 MiB slabs of 4 KiB items: 256 items per slab.
        SlabCache::new(12_000_000, 4 * KIB, MIB, max)
    }

    #[test]
    fn geometry() {
        let c = cache(16 * GIB);
        assert_eq!(c.items_per_slab(), 256);
        assert_eq!(c.resident_items(), 0);
        assert_eq!(c.slab_count(), 0);
        assert_eq!(c.hit_ratio(), 0.0);
    }

    #[test]
    fn insert_fills_and_hit_ratio_tracks() {
        let mut c = cache(16 * GIB);
        assert_eq!(c.insert(6_000_000), 0);
        assert_eq!(c.resident_items(), 6_000_000);
        assert!((c.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn resident_never_exceeds_key_space() {
        let mut c = cache(u64::MAX / 2);
        c.insert(20_000_000);
        assert_eq!(c.resident_items(), 12_000_000);
    }

    #[test]
    fn capacity_forces_slab_eviction() {
        // 1 MiB capacity = one slab = 256 items.
        let mut c = cache(MIB);
        assert_eq!(c.insert(256), 0);
        let evicted = c.insert(10);
        assert!(evicted > 0, "full cache must evict a slab");
        assert!(
            c.resident_bytes() <= MIB + MIB,
            "at most transiently one slab over"
        );
        assert_eq!(c.evicted_slabs, 1);
    }

    #[test]
    fn slabs_for_fraction_is_table1_rounding() {
        // ceil(n · f) with a floor of one slab and a ceiling of all of
        // them: the exact Table 1 maths the oracle replays.
        assert_eq!(slabs_for_fraction(1000, 0.04), 40);
        assert_eq!(slabs_for_fraction(1000, 0.0101), 11, "ceil(10.1) = 11");
        assert_eq!(slabs_for_fraction(1000, 0.001), 1, "ceil(1.0) = 1");
        assert_eq!(slabs_for_fraction(1000, 0.0001), 1, "floor of one slab");
        assert_eq!(slabs_for_fraction(10, 0.01), 1, "1% of 10 rounds up to 1");
        assert_eq!(slabs_for_fraction(10, 7.5), 10, "never more than all");
        assert_eq!(slabs_for_fraction(0, 0.04), 0, "an empty store");
        for f in [0.0, -0.04, f64::NAN] {
            assert_eq!(slabs_for_fraction(10, f), 0, "fraction {f} evicts nothing");
        }
    }

    #[test]
    fn evict_fraction_edge_cases() {
        let mut c = cache(16 * GIB);
        assert_eq!(c.evict_fraction(0.04), (0, 0), "empty");
        c.insert(256 * 10); // 10 slabs
        for f in [0.0, -0.04, f64::NAN] {
            assert_eq!(c.evict_fraction(f), (0, 0), "fraction {f} is a no-op");
        }
        assert_eq!(c.resident_items(), 256 * 10, "nothing left the cache");
        assert_eq!(c.evict_fraction(0.01), (1, 256), "rounds up to one slab");
    }

    #[test]
    fn evict_fraction_of_everything() {
        let mut c = cache(16 * GIB);
        c.insert(256 * 10);
        assert_eq!(c.evict_fraction(1.0), (10, 2560), "1.0 empties the cache");
        assert_eq!(c.resident_items(), 0);
        c.insert(256 * 10);
        assert_eq!(c.evict_fraction(7.5), (10, 2560), "so does any excess");
    }

    #[test]
    fn evict_fraction_scales() {
        let mut c = cache(u64::MAX / 2);
        c.insert(256 * 1000); // 1000 slabs
        let (slabs, items) = c.evict_fraction(0.04);
        assert_eq!(slabs, 40);
        assert_eq!(items, 40 * 256);
        assert_eq!(c.resident_items(), 256 * 960);
        assert_eq!(c.evict_fraction(0.0105).0, 11, "ceil(10.08) = 11");
    }

    #[test]
    fn byte_conversions() {
        let c = cache(GIB);
        assert_eq!(c.items_to_bytes(10), 40 * KIB);
    }

    #[test]
    fn clear_empties() {
        let mut c = cache(GIB);
        c.insert(1000);
        c.clear();
        assert_eq!(c.resident_items(), 0);
        assert_eq!(c.resident_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "slab must hold")]
    fn tiny_slab_rejected() {
        SlabCache::new(100, MIB, KIB, GIB);
    }
}
