//! Spark's in-memory block cache (the "block manager" storage region).
//!
//! An LRU set of block ids with a byte capacity. On a capacity miss, stock
//! Spark evicts existing blocks until the new block fits. Under M3 the
//! capacity is effectively unbounded and eviction happens only in response
//! to signals or delayed allocations.

use serde::{Deserialize, Serialize};

/// Sentinel for "no block" in the LRU links.
const NONE: u32 = u32::MAX;

/// Cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that found the block resident.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Blocks evicted (for any reason).
    pub evicted: u64,
    /// High-water mark of cached bytes.
    pub peak_bytes: u64,
}

/// One block id's slot. While resident, `prev`/`next` link it into the LRU
/// list (towards the head = more recently used).
#[derive(Debug, Clone, Copy)]
struct Slot {
    bytes: u64,
    prev: u32,
    next: u32,
    resident: bool,
}

impl Slot {
    const VACANT: Slot = Slot {
        bytes: 0,
        prev: NONE,
        next: NONE,
        resident: false,
    };
}

/// An LRU block cache.
///
/// Blocks are identified by a dense `u32` id (the input partition index),
/// so the slots live in a `Vec` indexed by id. Resident slots form an
/// intrusive doubly linked list, most recently used at the head: a hit
/// moves its block to the head, an insert pushes there, and eviction pops
/// the tail. Every operation is O(1), which matters because the world loop
/// evicts hundreds of thousands of blocks per scenario sweep.
#[derive(Debug, Clone)]
pub struct BlockCache {
    capacity: u64,
    used: u64,
    len: usize,
    /// Most recently used resident block, or `NONE`.
    head: u32,
    /// Least recently used resident block, or `NONE`.
    tail: u32,
    /// Indexed by block id; grows to the largest id inserted.
    slots: Vec<Slot>,
    /// Statistics.
    pub stats: CacheStats,
}

impl BlockCache {
    /// Creates a cache with the given byte capacity.
    pub fn new(capacity: u64) -> Self {
        BlockCache {
            capacity,
            used: 0,
            len: 0,
            head: NONE,
            tail: NONE,
            slots: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// The byte capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently cached.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks a block up, updating LRU order and hit/miss statistics.
    pub fn access(&mut self, id: u32) -> bool {
        if self.contains(id) {
            if self.head != id {
                self.unlink(id);
                self.push_front(id);
            }
            self.stats.hits += 1;
            true
        } else {
            self.stats.misses += 1;
            false
        }
    }

    /// True if the block is resident (no LRU/stat side effects).
    pub fn contains(&self, id: u32) -> bool {
        self.slots.get(id as usize).is_some_and(|s| s.resident)
    }

    /// Bytes that must be evicted before a block of `bytes` fits.
    pub fn needed_for(&self, bytes: u64) -> u64 {
        (self.used + bytes).saturating_sub(self.capacity)
    }

    /// Inserts a block, assuming capacity has been made available.
    ///
    /// # Panics
    ///
    /// Panics if the block would exceed capacity (callers must evict first —
    /// the eviction *cost* is theirs to account) or is already resident.
    pub fn insert(&mut self, id: u32, bytes: u64) {
        assert!(self.used + bytes <= self.capacity, "evict before inserting");
        assert!(!self.contains(id), "block {id} already cached");
        let i = id as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, Slot::VACANT);
        }
        self.slots[i].bytes = bytes;
        self.slots[i].resident = true;
        self.push_front(id);
        self.len += 1;
        self.used += bytes;
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.used);
    }

    /// Evicts the least-recently-used block, returning `(id, bytes)`.
    pub fn evict_lru(&mut self) -> Option<(u32, u64)> {
        let id = self.tail;
        if id == NONE {
            return None;
        }
        self.unlink(id);
        let slot = &mut self.slots[id as usize];
        slot.resident = false;
        let bytes = slot.bytes;
        self.len -= 1;
        self.used -= bytes;
        self.stats.evicted += 1;
        Some((id, bytes))
    }

    /// Evicts LRU blocks until at least `bytes` have been freed (or the
    /// cache is empty). Returns the bytes actually freed.
    pub fn evict_bytes(&mut self, bytes: u64) -> u64 {
        let mut freed = 0;
        while freed < bytes {
            match self.evict_lru() {
                Some((_, b)) => freed += b,
                None => break,
            }
        }
        freed
    }

    /// Evicts the given fraction of resident blocks (LRU first), the M3
    /// high-signal policy (⅛ for Spark). Returns the bytes freed.
    pub fn evict_fraction(&mut self, fraction: f64) -> u64 {
        let count = ((self.len as f64 * fraction).ceil() as usize).min(self.len);
        let mut freed = 0;
        for _ in 0..count {
            if let Some((_, b)) = self.evict_lru() {
                freed += b;
            }
        }
        freed
    }

    /// Removes every block (job teardown).
    pub fn clear(&mut self) {
        self.slots.clear();
        self.head = NONE;
        self.tail = NONE;
        self.len = 0;
        self.used = 0;
    }

    /// The hit ratio so far, or `None` before any access.
    pub fn hit_ratio(&self) -> Option<f64> {
        let total = self.stats.hits + self.stats.misses;
        if total == 0 {
            None
        } else {
            Some(self.stats.hits as f64 / total as f64)
        }
    }

    /// Unlinks a resident block from the LRU list.
    fn unlink(&mut self, id: u32) {
        let Slot { prev, next, .. } = self.slots[id as usize];
        if prev == NONE {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NONE {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Links a block at the head (most recently used end) of the list.
    fn push_front(&mut self, id: u32) {
        let head = self.head;
        let slot = &mut self.slots[id as usize];
        slot.prev = NONE;
        slot.next = head;
        if head == NONE {
            self.tail = id;
        } else {
            self.slots[head as usize].prev = id;
        }
        self.head = id;
    }

    /// Debug invariant: the links are symmetric, the list holds exactly the
    /// resident slots, and `len`/`used` agree with it.
    #[cfg(test)]
    fn check_invariants(&self) {
        let (mut len, mut used, mut prev, mut at) = (0usize, 0u64, NONE, self.head);
        while at != NONE {
            let s = self.slots[at as usize];
            assert!(s.resident, "block {at} is linked but not resident");
            assert_eq!(s.prev, prev, "block {at}'s back link is broken");
            len += 1;
            used += s.bytes;
            assert!(len <= self.slots.len(), "LRU list has a cycle");
            prev = at;
            at = s.next;
        }
        assert_eq!(self.tail, prev, "tail is not the last linked block");
        let resident = self.slots.iter().filter(|s| s.resident).count();
        assert_eq!(resident, len, "a resident block is off the list");
        assert_eq!(self.len, len);
        assert_eq!(self.used, used);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::units::MIB;
    use proptest::prelude::*;
    use std::collections::HashMap;

    const B: u64 = 128 * MIB;

    /// The cache as it was before the LRU list: a map of
    /// `id → (bytes, last-use stamp)` whose eviction scans for the
    /// smallest stamp. Kept as the reference the list must match.
    struct StampCache {
        capacity: u64,
        used: u64,
        stamp: u64,
        blocks: HashMap<u32, (u64, u64)>,
        stats: CacheStats,
    }

    impl StampCache {
        fn new(capacity: u64) -> Self {
            StampCache {
                capacity,
                used: 0,
                stamp: 0,
                blocks: HashMap::new(),
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, id: u32) -> bool {
            self.stamp += 1;
            match self.blocks.get_mut(&id) {
                Some(e) => {
                    e.1 = self.stamp;
                    self.stats.hits += 1;
                    true
                }
                None => {
                    self.stats.misses += 1;
                    false
                }
            }
        }

        fn insert(&mut self, id: u32, bytes: u64) {
            assert!(self.used + bytes <= self.capacity);
            assert!(!self.blocks.contains_key(&id));
            self.stamp += 1;
            self.blocks.insert(id, (bytes, self.stamp));
            self.used += bytes;
            self.stats.peak_bytes = self.stats.peak_bytes.max(self.used);
        }

        fn evict_lru(&mut self) -> Option<(u32, u64)> {
            let (&id, _) = self
                .blocks
                .iter()
                .min_by_key(|(&id, &(_, stamp))| (stamp, id))?;
            let (bytes, _) = self.blocks.remove(&id).expect("id just found");
            self.used -= bytes;
            self.stats.evicted += 1;
            Some((id, bytes))
        }

        fn evict_bytes(&mut self, bytes: u64) -> u64 {
            let mut freed = 0;
            while freed < bytes {
                match self.evict_lru() {
                    Some((_, b)) => freed += b,
                    None => break,
                }
            }
            freed
        }

        fn evict_fraction(&mut self, fraction: f64) -> u64 {
            let n = self.blocks.len();
            let count = ((n as f64 * fraction).ceil() as usize).min(n);
            let mut freed = 0;
            for _ in 0..count {
                if let Some((_, b)) = self.evict_lru() {
                    freed += b;
                }
            }
            freed
        }

        fn clear(&mut self) {
            self.blocks.clear();
            self.used = 0;
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Access(u32),
        /// Spark's miss path: evict what the block needs, then insert it.
        Insert(u32, u64),
        EvictLru,
        EvictBytes(u64),
        EvictFraction(f64),
        Clear,
    }

    /// Accesses and inserts each outnumber evictions four to one, so the
    /// cache fills up, hits, and evicts at capacity as well as on demand.
    fn op_strategy() -> impl Strategy<Value = Op> {
        let access = || (0u32..24).prop_map(Op::Access);
        let insert = || (0u32..24, 1u64..5).prop_map(|(id, mb)| Op::Insert(id, mb * MIB));
        let evict = (0u32..40, 0u64..6, 0.0f64..0.3).prop_map(|(c, mb, f)| match c {
            0 => Op::Clear,
            1..=13 => Op::EvictLru,
            14..=26 => Op::EvictBytes(mb * MIB),
            _ => Op::EvictFraction(f),
        });
        prop_oneof![
            access(),
            access(),
            access(),
            access(),
            insert(),
            insert(),
            insert(),
            insert(),
            evict,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn lru_list_matches_the_stamp_scan(
            ops in proptest::collection::vec(op_strategy(), 1..400),
            capacity_mb in 8u64..48,
        ) {
            let mut list = BlockCache::new(capacity_mb * MIB);
            let mut scan = StampCache::new(capacity_mb * MIB);
            for op in ops {
                match op {
                    Op::Access(id) => prop_assert_eq!(list.access(id), scan.access(id)),
                    Op::Insert(id, bytes) => {
                        prop_assert_eq!(list.contains(id), scan.blocks.contains_key(&id));
                        if !list.contains(id) && bytes <= list.capacity() {
                            let need = list.needed_for(bytes);
                            prop_assert_eq!(list.evict_bytes(need), scan.evict_bytes(need));
                            list.insert(id, bytes);
                            scan.insert(id, bytes);
                        }
                    }
                    Op::EvictLru => prop_assert_eq!(list.evict_lru(), scan.evict_lru()),
                    Op::EvictBytes(b) => {
                        prop_assert_eq!(list.evict_bytes(b), scan.evict_bytes(b))
                    }
                    Op::EvictFraction(f) => {
                        prop_assert_eq!(list.evict_fraction(f), scan.evict_fraction(f))
                    }
                    Op::Clear => {
                        list.clear();
                        scan.clear();
                    }
                }
                list.check_invariants();
                prop_assert_eq!(list.len(), scan.blocks.len());
                prop_assert_eq!(list.used(), scan.used);
                prop_assert_eq!(list.stats, scan.stats);
            }
            // Drain both: the full remaining eviction order must agree.
            loop {
                let (a, b) = (list.evict_lru(), scan.evict_lru());
                prop_assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }

    fn full_cache(n: u32) -> BlockCache {
        let mut c = BlockCache::new(u64::from(n) * B);
        for i in 0..n {
            c.insert(i, B);
        }
        c
    }

    #[test]
    fn hits_and_misses_tracked() {
        let mut c = BlockCache::new(4 * B);
        assert!(!c.access(0));
        c.insert(0, B);
        assert!(c.access(0));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.hit_ratio(), Some(0.5));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = full_cache(3);
        c.access(0); // 0 is now most recent; 1 is LRU
        assert_eq!(c.evict_lru(), Some((1, B)));
        assert_eq!(c.evict_lru(), Some((2, B)));
        assert_eq!(c.evict_lru(), Some((0, B)));
        assert_eq!(c.evict_lru(), None);
        c.check_invariants();
    }

    #[test]
    fn reinserted_block_goes_to_the_head() {
        let mut c = full_cache(3);
        assert_eq!(c.evict_lru(), Some((0, B)));
        c.insert(0, B); // 0 is now the most recent; 1 is LRU
        c.check_invariants();
        assert_eq!(c.evict_lru(), Some((1, B)));
        assert!(!c.access(1), "evicted blocks miss");
        assert!(c.access(2));
        assert_eq!(c.evict_lru(), Some((0, B)));
        c.check_invariants();
    }

    #[test]
    fn needed_for_and_insert_guard() {
        let mut c = BlockCache::new(2 * B);
        c.insert(0, B);
        assert_eq!(c.needed_for(B), 0);
        c.insert(1, B);
        assert_eq!(c.needed_for(B), B);
    }

    #[test]
    #[should_panic(expected = "evict before inserting")]
    fn overfull_insert_panics() {
        let mut c = BlockCache::new(B);
        c.insert(0, B);
        c.insert(1, B);
    }

    #[test]
    fn evict_bytes_frees_enough() {
        let mut c = full_cache(8);
        let freed = c.evict_bytes(3 * B - 1);
        assert_eq!(freed, 3 * B, "whole blocks only");
        assert_eq!(c.len(), 5);
        assert_eq!(c.used(), 5 * B);
    }

    #[test]
    fn evict_fraction_rounds_up() {
        let mut c = full_cache(8);
        let freed = c.evict_fraction(1.0 / 8.0);
        assert_eq!(freed, B);
        assert_eq!(c.len(), 7);
        // 1/8 of 7 blocks rounds up to 1.
        c.evict_fraction(1.0 / 8.0);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn evict_fraction_of_empty_is_zero() {
        let mut c = BlockCache::new(4 * B);
        assert_eq!(c.evict_fraction(0.5), 0);
    }

    #[test]
    fn peak_bytes_high_water_mark() {
        let mut c = BlockCache::new(4 * B);
        c.insert(0, B);
        c.insert(1, B);
        c.evict_lru();
        assert_eq!(c.stats.peak_bytes, 2 * B);
        assert_eq!(c.used(), B);
    }

    #[test]
    fn clear_empties() {
        let mut c = full_cache(4);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
        assert_eq!(c.evict_lru(), None);
        assert!(!c.contains(2));
        c.insert(2, B);
        c.check_invariants();
    }
}
