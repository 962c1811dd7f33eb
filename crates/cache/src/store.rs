//! Key-granular slab store (memcached-style slab classes).
//!
//! Where [`crate::slab::SlabCache`] models the uniform-access benchmark
//! analytically, this store tracks every resident key so skewed (Zipf)
//! traffic and tiered value sizes behave like a real slab allocator:
//!
//! - **Slab classes**: chunk sizes double from 64 B up to the slab size
//!   (1 MiB by default); an item occupies one chunk of the smallest class
//!   that fits `value + overhead`.
//! - **Sharded fingerprint index**: 64 open-addressing shards keyed by the
//!   top bits of a 64-bit key fingerprint — no string keys anywhere on the
//!   hot path. A slot is 8 bytes: the fingerprint's low 32 bits, which
//!   name its home slot and tag it, and the arena index; a tag match is
//!   confirmed against the arena entry. Linear probing with backward-shift
//!   deletion keeps probes short without tombstones.
//! - **Intrusive per-class LRU**: entries live in one arena and link by
//!   `u32` index, so a get/insert/delete does zero heap allocation.
//! - **Slab-granular eviction**: when M3 demands bytes back, whole slabs
//!   are reclaimed per class — dead chunks evaporate first, then the
//!   class's LRU tail is sampled, which is how memcached's slab
//!   rebalancer approximates LRU at slab granularity.
//!
//! Everything is integer arithmetic over a deterministic layout: the same
//! operation sequence yields bit-identical state on every run.

use serde::{Deserialize, Serialize};

/// Sentinel index for "no entry" in intrusive links and index slots.
const NONE: u32 = u32::MAX;

/// Number of index shards (fixed; selected by the fingerprint's top bits).
const SHARDS: usize = 64;

/// Initial slot count per shard (power of two).
const SHARD_MIN_CAP: usize = 64;

/// Per-item metadata bytes (key, header, links) added to the value when
/// choosing a chunk class — memcached's `item` header plus a short key.
pub const ITEM_OVERHEAD: u64 = 56;

/// Smallest chunk class, bytes.
pub const MIN_CHUNK: u64 = 64;

/// Slab size of [`KeyedSlabCache::new`], bytes.
pub const SLAB_BYTES: u64 = 1 << 20;

/// The chunk an item of `value_bytes` occupies in a store of `slab_bytes`
/// slabs: the smallest power of two that fits the value and its
/// [`ITEM_OVERHEAD`], at least [`MIN_CHUNK`] and at most one slab.
#[inline]
pub fn chunk_bytes(value_bytes: u64, slab_bytes: u64) -> u64 {
    (value_bytes + ITEM_OVERHEAD)
        .next_power_of_two()
        .clamp(MIN_CHUNK, slab_bytes)
}

/// One resident item. `prev`/`next` link the class LRU (head = most
/// recently used); freed entries chain through `next` on the free list.
#[derive(Debug, Clone, Copy)]
struct Entry {
    fp: u64,
    prev: u32,
    next: u32,
    class: u8,
}

/// One index slot: the low 32 bits of a key's fingerprint, which name its
/// home slot and tag it, and its arena index (`NONE` when empty).
#[derive(Debug, Clone, Copy)]
struct Slot {
    lo: u32,
    idx: u32,
}

const EMPTY: Slot = Slot { lo: 0, idx: NONE };

/// One open-addressing index shard mapping fingerprint → arena index. A
/// slot holds only the fingerprint's low 32 bits; a tag match is confirmed
/// against the arena entry's full fingerprint.
#[derive(Debug, Clone)]
struct Shard {
    slots: Vec<Slot>,
    live: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            slots: vec![EMPTY; SHARD_MIN_CAP],
            live: 0,
        }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The home slot of a fingerprint (a shard never exceeds 2^32 slots).
    #[inline]
    fn home(&self, fp: u64) -> usize {
        fp as u32 as usize & self.mask()
    }

    /// Finds the slot holding `fp`, or `None`.
    #[inline]
    fn find_slot(&self, fp: u64, entries: &[Entry]) -> Option<usize> {
        let mask = self.mask();
        let lo = fp as u32;
        let mut i = lo as usize & mask;
        loop {
            let s = self.slots[i];
            if s.idx == NONE {
                return None;
            }
            if s.lo == lo && entries[s.idx as usize].fp == fp {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn get(&self, fp: u64, entries: &[Entry]) -> Option<u32> {
        self.find_slot(fp, entries).map(|i| self.slots[i].idx)
    }

    /// Indexes arena entry `idx`, whose fingerprint is `fp`.
    fn insert(&mut self, fp: u64, idx: u32, entries: &[Entry]) {
        if (self.live + 1) * 4 > self.slots.len() * 3 {
            self.resize(self.slots.len() * 2);
        }
        let mask = self.mask();
        let lo = fp as u32;
        let mut i = lo as usize & mask;
        while self.slots[i].idx != NONE {
            debug_assert_ne!(
                entries[self.slots[i].idx as usize].fp, fp,
                "duplicate fingerprint insert"
            );
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot { lo, idx };
        self.live += 1;
    }

    /// Removes `fp`, backward-shifting the probe run so lookups never need
    /// tombstones. Returns the arena index that was stored.
    fn remove(&mut self, fp: u64, entries: &[Entry]) -> Option<u32> {
        let mut i = self.find_slot(fp, entries)?;
        let out = self.slots[i].idx;
        let mask = self.mask();
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.idx == NONE {
                break;
            }
            let ideal = s.lo as usize & mask;
            // Slot j may shift into the hole at i only if i lies within
            // j's probe run (cyclically between its ideal slot and j).
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = s;
                i = j;
            }
        }
        self.slots[i] = EMPTY;
        self.live -= 1;
        Some(out)
    }

    /// Grows the shard once so it holds `items` at no more than 3/4 load.
    fn reserve(&mut self, items: usize) {
        let cap = (items * 4).div_ceil(3).next_power_of_two();
        if cap > self.slots.len() {
            self.resize(cap);
        }
    }

    /// Rehashes into `new_cap` slots, placing each slot by its home.
    fn resize(&mut self, new_cap: usize) {
        assert!(
            new_cap as u64 <= 1 << 32,
            "a shard's home slot is the fingerprint's low 32 bits"
        );
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_cap]);
        let mask = new_cap - 1;
        for s in old {
            if s.idx == NONE {
                continue;
            }
            let mut i = s.lo as usize & mask;
            while self.slots[i].idx != NONE {
                i = (i + 1) & mask;
            }
            self.slots[i] = s;
        }
    }
}

/// One slab class: all chunks of a given size.
#[derive(Debug, Clone, Copy)]
struct SlabClass {
    /// Chunk size, bytes (power of two).
    chunk: u64,
    /// Chunks per slab.
    per_slab: u64,
    /// Slabs assigned to this class.
    slabs: u64,
    /// Live items (= used chunks).
    live: u64,
    /// Previously used chunks now free for reuse.
    free_chunks: u64,
    /// LRU list head (most recently used) and tail.
    head: u32,
    tail: u32,
}

impl SlabClass {
    fn capacity(&self) -> u64 {
        self.slabs * self.per_slab
    }
}

/// Read-only view of one slab class, for inspection and tests.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct ClassView {
    /// Chunk size, bytes.
    pub chunk: u64,
    /// Slabs held by the class.
    pub slabs: u64,
    /// Live items.
    pub live: u64,
    /// Freed, reusable chunks.
    pub free_chunks: u64,
}

/// Per-class detail of one slab-granular eviction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq, Eq)]
pub struct ClassEvict {
    /// Chunk size of the class, bytes.
    pub chunk: u64,
    /// Slabs the class held before.
    pub before: u64,
    /// Slabs evicted from the class.
    pub slabs: u64,
    /// Live items removed with them.
    pub items: u64,
    /// Bytes released (whole slabs).
    pub bytes: u64,
}

/// Aggregate result of a slab-granular eviction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictOutcome {
    /// Total slabs evicted.
    pub slabs: u64,
    /// Total live items removed.
    pub items: u64,
    /// Total bytes released.
    pub bytes: u64,
}

impl EvictOutcome {
    /// Adds one class's share of an eviction to the totals.
    pub fn add(&mut self, d: &ClassEvict) {
        self.slabs += d.slabs;
        self.items += d.items;
        self.bytes += d.bytes;
    }
}

/// What one insert did to the slab layout (the caller settles backend
/// allocation at batch granularity from these deltas).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Slabs newly committed.
    pub new_slabs: u64,
    /// Slabs released (stolen from another class at capacity).
    pub freed_slabs: u64,
    /// Live items evicted to make room (capacity pressure).
    pub evicted_items: u64,
    /// Chunk bytes consumed by this item, 0 for a same-class overwrite.
    pub chunk_bytes: u64,
}

/// A key-granular, slab-class item store.
#[derive(Debug, Clone)]
pub struct KeyedSlabCache {
    slab_bytes: u64,
    max_bytes: u64,
    classes: Vec<SlabClass>,
    entries: Vec<Entry>,
    free_head: u32,
    shards: Vec<Shard>,
    total_slabs: u64,
    live: u64,
    /// Live items evicted over the store's lifetime (all causes).
    pub evicted_items: u64,
    /// Slabs evicted over the store's lifetime.
    pub evicted_slabs: u64,
    /// Live items evicted specifically by capacity pressure.
    pub capacity_evictions: u64,
}

impl KeyedSlabCache {
    /// Creates an empty store with 1 MiB ([`SLAB_BYTES`]) slabs.
    ///
    /// # Panics
    ///
    /// Panics unless `max_bytes` holds at least one slab.
    pub fn new(max_bytes: u64) -> Self {
        Self::with_slab_bytes(max_bytes, SLAB_BYTES)
    }

    /// Creates an empty store with the given power-of-two slab size.
    pub fn with_slab_bytes(max_bytes: u64, slab_bytes: u64) -> Self {
        assert!(
            slab_bytes.is_power_of_two() && slab_bytes >= MIN_CHUNK,
            "slab size must be a power of two holding at least one chunk"
        );
        assert!(max_bytes >= slab_bytes, "capacity must hold one slab");
        let mut classes = Vec::new();
        let mut chunk = MIN_CHUNK;
        while chunk <= slab_bytes {
            classes.push(SlabClass {
                chunk,
                per_slab: slab_bytes / chunk,
                slabs: 0,
                live: 0,
                free_chunks: 0,
                head: NONE,
                tail: NONE,
            });
            chunk *= 2;
        }
        KeyedSlabCache {
            slab_bytes,
            max_bytes,
            classes,
            entries: Vec::new(),
            free_head: NONE,
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            total_slabs: 0,
            live: 0,
            evicted_items: 0,
            evicted_slabs: 0,
            capacity_evictions: 0,
        }
    }

    /// The slab size, bytes.
    pub fn slab_bytes(&self) -> u64 {
        self.slab_bytes
    }

    /// The configured maximum resident bytes.
    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    /// Slabs currently committed.
    pub fn slab_count(&self) -> u64 {
        self.total_slabs
    }

    /// Bytes currently resident (whole slabs).
    pub fn resident_bytes(&self) -> u64 {
        self.total_slabs * self.slab_bytes
    }

    /// Live items.
    pub fn live_items(&self) -> u64 {
        self.live
    }

    /// The slab class index for a value of `value_bytes`.
    #[inline]
    pub fn class_for(&self, value_bytes: u64) -> usize {
        let chunk = chunk_bytes(value_bytes, self.slab_bytes);
        (chunk.trailing_zeros() - MIN_CHUNK.trailing_zeros()) as usize
    }

    /// Per-class occupancy views (all classes, ascending chunk size).
    pub fn class_views(&self) -> Vec<ClassView> {
        self.classes
            .iter()
            .map(|c| ClassView {
                chunk: c.chunk,
                slabs: c.slabs,
                live: c.live,
                free_chunks: c.free_chunks,
            })
            .collect()
    }

    #[inline]
    fn shard_of(fp: u64) -> usize {
        (fp >> 58) as usize & (SHARDS - 1)
    }

    /// Sizes the store for `items` keys: every shard grows once to hold
    /// its share at no more than 3/4 load, and the arena takes `items`
    /// entries, so filling that many keys neither rehashes nor regrows.
    pub(crate) fn reserve(&mut self, items: u64) {
        let per_shard = (items as usize).div_ceil(SHARDS);
        for shard in &mut self.shards {
            shard.reserve(per_shard);
        }
        self.entries.reserve(items as usize);
    }

    /// Hints the CPU to fetch the home index slot of `fp`, so a later
    /// lookup or insert of `fp` finds it in cache. Changes nothing.
    #[inline]
    pub(crate) fn prefetch(&self, fp: u64) {
        let shard = &self.shards[Self::shard_of(fp)];
        let slot: *const Slot = &shard.slots[shard.home(fp)];
        #[cfg(target_arch = "x86_64")]
        // SAFETY: a prefetch is a hint: it never faults, whatever the
        // address, and changes no program state. The pointer comes from a
        // bounds-checked slot reference besides.
        unsafe {
            use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch::<_MM_HINT_T0>(slot.cast::<i8>());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = slot;
    }

    /// True if the key is resident (does not touch the LRU).
    pub fn contains(&self, fp: u64) -> bool {
        self.shards[Self::shard_of(fp)]
            .get(fp, &self.entries)
            .is_some()
    }

    /// Looks up a key; on a hit, moves it to the front of its class LRU.
    pub fn get(&mut self, fp: u64) -> bool {
        match self.shards[Self::shard_of(fp)].get(fp, &self.entries) {
            Some(idx) => {
                self.touch(idx);
                true
            }
            None => false,
        }
    }

    /// Removes a key. Its chunk returns to the class free list.
    pub fn delete(&mut self, fp: u64) -> bool {
        match self.shards[Self::shard_of(fp)].remove(fp, &self.entries) {
            Some(idx) => {
                let class = self.entries[idx as usize].class as usize;
                self.unlink(idx);
                self.release_entry(idx);
                self.classes[class].live -= 1;
                self.classes[class].free_chunks += 1;
                self.live -= 1;
                true
            }
            None => false,
        }
    }

    /// Inserts or overwrites a key. Chooses the slab class from
    /// `value_bytes`, growing the footprint one slab at a time; at the
    /// byte cap it first recycles the class's own LRU tail, then steals a
    /// slab from the most slab-heavy class.
    pub fn insert(&mut self, fp: u64, value_bytes: u64) -> InsertOutcome {
        let mut out = InsertOutcome::default();
        let class = self.class_for(value_bytes);
        if let Some(idx) = self.shards[Self::shard_of(fp)].get(fp, &self.entries) {
            let old = self.entries[idx as usize].class as usize;
            if old == class {
                // Same-class overwrite reuses the chunk in place.
                self.touch(idx);
                return out;
            }
            // The value moved across classes: free the old chunk first.
            self.shards[Self::shard_of(fp)].remove(fp, &self.entries);
            self.unlink(idx);
            self.release_entry(idx);
            self.classes[old].live -= 1;
            self.classes[old].free_chunks += 1;
            self.live -= 1;
        }

        // Acquire a chunk in the target class.
        if self.classes[class].free_chunks > 0 {
            self.classes[class].free_chunks -= 1;
        } else if self.classes[class].live + self.classes[class].free_chunks
            < self.classes[class].capacity()
        {
            // A virgin chunk in an already-committed slab.
        } else if (self.total_slabs + 1) * self.slab_bytes <= self.max_bytes {
            self.classes[class].slabs += 1;
            self.total_slabs += 1;
            out.new_slabs += 1;
        } else if self.classes[class].live > 0 {
            // At capacity: recycle this class's own LRU tail.
            let tail = self.classes[class].tail;
            let victim_fp = self.entries[tail as usize].fp;
            self.shards[Self::shard_of(victim_fp)].remove(victim_fp, &self.entries);
            self.unlink(tail);
            self.release_entry(tail);
            self.classes[class].live -= 1;
            self.live -= 1;
            self.evicted_items += 1;
            self.capacity_evictions += 1;
            out.evicted_items += 1;
        } else {
            // The class owns nothing: steal a slab from the largest class.
            let victim = self
                .classes
                .iter()
                .enumerate()
                .max_by_key(|(i, c)| (c.slabs, usize::MAX - i))
                .map(|(i, _)| i)
                .expect("classes exist");
            debug_assert!(self.classes[victim].slabs > 0, "cap holds >= 1 slab");
            let freed = self.evict_class_slabs(victim, 1);
            out.freed_slabs += freed.slabs;
            out.evicted_items += freed.items;
            self.classes[class].slabs += 1;
            self.total_slabs += 1;
            out.new_slabs += 1;
        }

        let idx = self.acquire_entry(fp, class as u8);
        self.shards[Self::shard_of(fp)].insert(fp, idx, &self.entries);
        self.push_front(class, idx);
        self.classes[class].live += 1;
        self.live += 1;
        out.chunk_bytes = self.classes[class].chunk;
        out
    }

    /// Plans an eviction of `n` slabs: apportions them across classes
    /// proportionally to their slab counts (largest-remainder rounding,
    /// deterministic tie-break on smaller chunk first). Pure — returns
    /// `(class index, slab quota)` pairs with positive quotas, ascending
    /// class index; each pair is one `evict_class` work packet.
    pub fn class_quotas(&self, n: u64) -> Vec<(usize, u64)> {
        let n = n.min(self.total_slabs);
        if n == 0 {
            return Vec::new();
        }
        let total = self.total_slabs;
        let mut quotas: Vec<u64> = Vec::with_capacity(self.classes.len());
        let mut rems: Vec<(u64, usize)> = Vec::with_capacity(self.classes.len());
        let mut assigned = 0;
        for (i, c) in self.classes.iter().enumerate() {
            let q = n * c.slabs / total;
            let r = n * c.slabs % total;
            quotas.push(q);
            assigned += q;
            rems.push((r, i));
        }
        rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, i) in rems.iter().take((n - assigned) as usize) {
            quotas[i] += 1;
        }
        quotas
            .into_iter()
            .enumerate()
            .filter(|&(_, q)| q > 0)
            .collect()
    }

    /// Evicts `n` slabs from one class (a planned quota from
    /// [`KeyedSlabCache::class_quotas`]): dead chunks evaporate first,
    /// then live items leave from the LRU tail.
    pub fn evict_class(&mut self, class: usize, n: u64) -> ClassEvict {
        self.evict_class_slabs(class, n)
    }

    /// Evicts `n` slabs, apportioned across classes per
    /// [`KeyedSlabCache::class_quotas`]. Returns the totals.
    pub fn evict_slabs(&mut self, n: u64) -> EvictOutcome {
        let mut out = EvictOutcome::default();
        for (i, q) in self.class_quotas(n) {
            out.add(&self.evict_class_slabs(i, q));
        }
        out
    }

    /// Evicts `n` slabs from class `class`: dead chunks (free or never
    /// used) evaporate first, then live items leave from the LRU tail.
    fn evict_class_slabs(&mut self, class: usize, n: u64) -> ClassEvict {
        let before = self.classes[class].slabs;
        let n = n.min(before);
        let cap_after = (before - n) * self.classes[class].per_slab;
        let mut items = 0;
        while self.classes[class].live > cap_after {
            let tail = self.classes[class].tail;
            debug_assert_ne!(tail, NONE);
            let fp = self.entries[tail as usize].fp;
            self.shards[Self::shard_of(fp)].remove(fp, &self.entries);
            self.unlink(tail);
            self.release_entry(tail);
            self.classes[class].live -= 1;
            self.live -= 1;
            items += 1;
        }
        // Freed chunks beyond the surviving slabs vanish with them.
        let c = &mut self.classes[class];
        c.free_chunks = c.free_chunks.min(cap_after - c.live);
        c.slabs -= n;
        self.total_slabs -= n;
        self.evicted_items += items;
        self.evicted_slabs += n;
        ClassEvict {
            chunk: self.classes[class].chunk,
            before,
            slabs: n,
            items,
            bytes: n * self.slab_bytes,
        }
    }

    /// Removes everything (shutdown). Returns the bytes released.
    pub fn clear(&mut self) -> u64 {
        let bytes = self.resident_bytes();
        for c in &mut self.classes {
            c.slabs = 0;
            c.live = 0;
            c.free_chunks = 0;
            c.head = NONE;
            c.tail = NONE;
        }
        self.entries.clear();
        self.free_head = NONE;
        self.shards = (0..SHARDS).map(|_| Shard::new()).collect();
        self.total_slabs = 0;
        self.live = 0;
        bytes
    }

    #[inline]
    fn acquire_entry(&mut self, fp: u64, class: u8) -> u32 {
        if self.free_head != NONE {
            let idx = self.free_head;
            self.free_head = self.entries[idx as usize].next;
            self.entries[idx as usize] = Entry {
                fp,
                prev: NONE,
                next: NONE,
                class,
            };
            idx
        } else {
            let idx = self.entries.len() as u32;
            self.entries.push(Entry {
                fp,
                prev: NONE,
                next: NONE,
                class,
            });
            idx
        }
    }

    #[inline]
    fn release_entry(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.fp = 0;
        e.prev = NONE;
        e.next = self.free_head;
        self.free_head = idx;
    }

    /// Unlinks an entry from its class LRU list.
    #[inline]
    fn unlink(&mut self, idx: u32) {
        let Entry {
            prev, next, class, ..
        } = self.entries[idx as usize];
        let c = &mut self.classes[class as usize];
        if prev == NONE {
            c.head = next;
        } else {
            self.entries[prev as usize].next = next;
        }
        if next == NONE {
            self.classes[class as usize].tail = prev;
        } else {
            self.entries[next as usize].prev = prev;
        }
    }

    /// Links an entry at the front (MRU end) of a class LRU list.
    #[inline]
    fn push_front(&mut self, class: usize, idx: u32) {
        let head = self.classes[class].head;
        self.entries[idx as usize].prev = NONE;
        self.entries[idx as usize].next = head;
        if head != NONE {
            self.entries[head as usize].prev = idx;
        } else {
            self.classes[class].tail = idx;
        }
        self.classes[class].head = idx;
    }

    /// Moves an entry to the front of its class LRU.
    #[inline]
    fn touch(&mut self, idx: u32) {
        let class = self.entries[idx as usize].class as usize;
        if self.classes[class].head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(class, idx);
    }

    /// Debug invariant: per-class occupancy is consistent with the slab
    /// layout and the global counters; each class LRU is a well-formed
    /// doubly linked list holding exactly its live items; the fingerprint
    /// index, the LRU lists and the free list partition the arena; and a
    /// lookup from its home slot finds every indexed key.
    #[cfg(test)]
    fn check_invariants(&self) {
        let mut live = 0;
        let mut slabs = 0;
        let mut class_bytes = 0;
        for (class, c) in self.classes.iter().enumerate() {
            assert!(
                c.live + c.free_chunks <= c.capacity(),
                "class {} overcommitted",
                c.chunk
            );
            assert_eq!(c.chunk * c.per_slab, self.slab_bytes, "chunks tile a slab");
            assert!((c.live + c.free_chunks) * c.chunk <= c.slabs * self.slab_bytes);
            class_bytes += c.slabs * self.slab_bytes;
            // Head to tail: every back link mirrors its forward link.
            let (mut prev, mut at, mut linked) = (NONE, c.head, 0);
            while at != NONE {
                let e = self.entries[at as usize];
                assert_eq!(e.prev, prev, "class {} back link broken", c.chunk);
                assert_eq!(e.class as usize, class, "entry linked into a foreign class");
                linked += 1;
                assert!(linked <= c.live, "class {} list longer than live", c.chunk);
                (prev, at) = (at, e.next);
            }
            assert_eq!(prev, c.tail, "class {} tail is not the last entry", c.chunk);
            assert_eq!(linked, c.live, "class {} list shorter than live", c.chunk);
            live += linked;
            slabs += c.slabs;
        }
        assert_eq!(live, self.live);
        assert_eq!(slabs, self.total_slabs);
        assert_eq!(
            class_bytes,
            self.resident_bytes(),
            "class bytes sum to resident"
        );
        assert!(self.resident_bytes() <= self.max_bytes.max(self.slab_bytes));
        let mut indexed = 0;
        for (s, shard) in self.shards.iter().enumerate() {
            let mut occupied = 0;
            for (i, slot) in shard.slots.iter().enumerate() {
                if slot.idx == NONE {
                    continue;
                }
                occupied += 1;
                let fp = self.entries[slot.idx as usize].fp;
                assert_eq!(Self::shard_of(fp), s, "fingerprint in the wrong shard");
                assert_eq!(slot.lo, fp as u32, "index and arena disagree");
                assert_eq!(
                    shard.find_slot(fp, &self.entries),
                    Some(i),
                    "a lookup from the home slot misses an indexed key"
                );
            }
            assert_eq!(occupied, shard.live, "shard count is stale");
            indexed += occupied as u64;
        }
        assert_eq!(indexed, live, "indexed count differs from linked count");
        let mut free = 0;
        let mut at = self.free_head;
        while at != NONE {
            free += 1;
            assert!(free <= self.entries.len(), "free list cycles");
            at = self.entries[at as usize].next;
        }
        assert_eq!(free as u64 + self.live, self.entries.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slab::slabs_for_fraction;
    use m3_sim::rng::SimRng;
    use m3_sim::units::{GIB, KIB, MIB};
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// Mixes a counter into a well-spread fingerprint.
    fn fp(i: u64) -> u64 {
        let mut x = i.wrapping_add(0x9e3779b97f4a7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    #[test]
    fn class_geometry() {
        let c = KeyedSlabCache::new(64 * MIB);
        let chunk = |v| chunk_bytes(v, c.slab_bytes());
        assert_eq!(chunk(0), 64);
        assert_eq!(chunk(8), 64);
        assert_eq!(chunk(9), 128);
        assert_eq!(chunk(72), 128);
        assert_eq!(chunk(968), 1024, "968 + 56 overhead = 1 KiB");
        assert_eq!(chunk(1000), 2048, "overhead tips the class");
        assert_eq!(chunk(MIB), MIB);
        assert_eq!(chunk(8 * MIB), MIB, "oversize caps at slab");
        let views = c.class_views();
        assert_eq!(views.len(), 15);
        for v in [0, 9, 968, 1000, 40_000, MIB, 8 * MIB] {
            assert_eq!(views[c.class_for(v)].chunk, chunk(v), "value {v}");
        }
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let mut c = KeyedSlabCache::new(64 * MIB);
        for i in 0..1000 {
            let out = c.insert(fp(i), 100 + i);
            assert!(out.chunk_bytes > 0);
        }
        assert_eq!(c.live_items(), 1000);
        for i in 0..1000 {
            assert!(c.get(fp(i)), "key {i} resident");
        }
        assert!(!c.get(fp(5000)));
        for i in 0..500 {
            assert!(c.delete(fp(i)));
        }
        assert!(!c.delete(fp(0)), "double delete misses");
        assert_eq!(c.live_items(), 500);
        c.check_invariants();
    }

    #[test]
    fn overwrite_same_class_reuses_chunk() {
        let mut c = KeyedSlabCache::new(64 * MIB);
        let a = c.insert(fp(1), 100);
        assert_eq!(a.new_slabs, 1);
        let b = c.insert(fp(1), 101);
        assert_eq!(b, InsertOutcome::default(), "no allocation on overwrite");
        assert_eq!(c.live_items(), 1);
    }

    #[test]
    fn overwrite_across_classes_moves_the_item() {
        let mut c = KeyedSlabCache::new(64 * MIB);
        c.insert(fp(1), 100);
        let out = c.insert(fp(1), 10_000);
        assert_eq!(out.new_slabs, 1, "new class commits a slab");
        assert_eq!(c.live_items(), 1);
        let views = c.class_views();
        let small = views.iter().find(|v| v.chunk == 256).unwrap();
        assert_eq!(small.live, 0);
        assert_eq!(small.free_chunks, 1, "old chunk back on the free list");
        c.check_invariants();
    }

    #[test]
    fn deleted_chunks_are_reused_before_growth() {
        let mut c = KeyedSlabCache::new(64 * MIB);
        for i in 0..100 {
            c.insert(fp(i), 100);
        }
        let slabs = c.slab_count();
        for i in 0..50 {
            c.delete(fp(i));
        }
        for i in 1000..1050 {
            let out = c.insert(fp(i), 100);
            assert_eq!(out.new_slabs, 0, "free chunks absorb new items");
        }
        assert_eq!(c.slab_count(), slabs);
        c.check_invariants();
    }

    #[test]
    fn capacity_recycles_own_lru_tail() {
        // One slab of 4 KiB holds 16 × 256 B chunks.
        let mut c = KeyedSlabCache::with_slab_bytes(4 * KIB, 4 * KIB);
        for i in 0..16 {
            c.insert(fp(i), 150);
        }
        assert_eq!(c.slab_count(), 1);
        // Touch key 0 so key 1 is the LRU tail.
        assert!(c.get(fp(0)));
        let out = c.insert(fp(100), 150);
        assert_eq!(out.evicted_items, 1);
        assert_eq!(out.new_slabs, 0);
        assert!(c.contains(fp(0)), "recently used survives");
        assert!(!c.contains(fp(1)), "LRU tail evicted");
        assert_eq!(c.capacity_evictions, 1);
        c.check_invariants();
    }

    #[test]
    fn capacity_steals_a_slab_for_an_empty_class() {
        let mut c = KeyedSlabCache::with_slab_bytes(4 * KIB, 4 * KIB);
        for i in 0..16 {
            c.insert(fp(i), 150);
        }
        // A different class at full capacity: steal the 256 B class's slab.
        let out = c.insert(fp(100), 1000);
        assert_eq!(out.freed_slabs, 1);
        assert_eq!(out.new_slabs, 1);
        assert_eq!(out.evicted_items, 16, "stolen slab drops all residents");
        assert!(c.contains(fp(100)));
        assert_eq!(c.slab_count(), 1);
        c.check_invariants();
    }

    #[test]
    fn evict_slabs_apportions_by_class_weight() {
        let mut c = KeyedSlabCache::new(100 * MIB);
        // ~60 slabs of 1 KiB chunks, ~30 of 16 KiB ones.
        for i in 0..(60 * 1024) {
            c.insert(fp(i), 900);
        }
        for i in 100_000..(100_000 + 30 * 64) {
            c.insert(fp(i), 15_000);
        }
        let before = c.slab_count();
        let views = c.class_views();
        let out = c.evict_slabs(9);
        assert_eq!(out.slabs, 9);
        assert_eq!(out.bytes, 9 * c.slab_bytes());
        assert_eq!(c.slab_count(), before - 9);
        let cut: Vec<u64> = views
            .iter()
            .zip(c.class_views())
            .map(|(b, a)| b.slabs.checked_sub(a.slabs).expect("classes only shrink"))
            .collect();
        assert_eq!(
            cut.iter().sum::<u64>(),
            9,
            "class cuts sum to the aggregate"
        );
        // Proportionality: the 2:1 class gets roughly 2:1 of the cut.
        assert!(cut[c.class_for(900)] > cut[c.class_for(15_000)]);
        c.check_invariants();
    }

    #[test]
    fn class_quotas_plan_matches_evict_slabs() {
        let mut c = KeyedSlabCache::new(100 * MIB);
        for i in 0..(60 * 1024) {
            c.insert(fp(i), 900);
        }
        for i in 100_000..(100_000 + 30 * 64) {
            c.insert(fp(i), 15_000);
        }
        let plan = c.class_quotas(9);
        assert_eq!(plan.iter().map(|&(_, q)| q).sum::<u64>(), 9);
        // Executing the plan class by class equals the monolithic eviction.
        let mut split = c.clone();
        let mono = c.evict_slabs(9);
        let mut got = EvictOutcome::default();
        for &(i, q) in &plan {
            got.add(&split.evict_class(i, q));
        }
        assert_eq!(got, mono);
        assert_eq!(split.class_views(), c.class_views());
        assert_eq!(split.live_items(), c.live_items());
        assert!(c.class_quotas(0).is_empty());
    }

    /// Table 1's eviction of `fraction` of the store's slabs.
    fn evict_fraction(c: &mut KeyedSlabCache, fraction: f64) -> EvictOutcome {
        c.evict_slabs(slabs_for_fraction(c.slab_count(), fraction))
    }

    #[test]
    fn evict_fraction_edge_cases() {
        let mut c = KeyedSlabCache::new(100 * MIB);
        assert_eq!(
            evict_fraction(&mut c, 0.04),
            EvictOutcome::default(),
            "empty"
        );
        for i in 0..1024 {
            c.insert(fp(i), 900);
        }
        let slabs = c.slab_count();
        assert_eq!(
            evict_fraction(&mut c, 0.0).slabs,
            0,
            "zero fraction is a no-op"
        );
        assert_eq!(evict_fraction(&mut c, -0.5).slabs, 0, "negative is a no-op");
        assert_eq!(evict_fraction(&mut c, f64::NAN).slabs, 0, "NaN is a no-op");
        assert_eq!(c.slab_count(), slabs);
        assert_eq!(
            evict_fraction(&mut c, 0.01).slabs,
            1,
            "rounds up to one slab"
        );
        let rest = c.slab_count();
        assert_eq!(
            evict_fraction(&mut c, 2.0).slabs,
            rest,
            "≥1 evicts everything"
        );
        assert_eq!(c.slab_count(), 0);
        assert_eq!(c.live_items(), 0);
    }

    #[test]
    fn evict_fraction_matches_table1_rounding() {
        let mut c = KeyedSlabCache::new(2048 * MIB);
        // 1000 slabs of 1 MiB chunks (one item each).
        for i in 0..1000 {
            c.insert(fp(i), 900_000);
        }
        assert_eq!(c.slab_count(), 1000);
        assert_eq!(evict_fraction(&mut c, 0.04).slabs, 40, "4% of 1000");
        assert_eq!(evict_fraction(&mut c, 0.01).slabs, 10, "1% of 960");
    }

    #[test]
    fn eviction_prefers_dead_chunks() {
        let mut c = KeyedSlabCache::new(100 * MIB);
        for i in 0..2048 {
            c.insert(fp(i), 900);
        }
        // Kill half the items: plenty of free chunks.
        for i in 0..1024 {
            c.delete(fp(i));
        }
        let live_before = c.live_items();
        let out = c.evict_slabs(1);
        assert_eq!(out.slabs, 1);
        assert_eq!(out.items, 0, "dead chunks evaporate before live items");
        assert_eq!(c.live_items(), live_before);
        c.check_invariants();
    }

    #[test]
    fn lru_order_drives_slab_eviction() {
        // 4 KiB slabs, 256 B chunks: 16 per slab, two slabs committed.
        let mut c = KeyedSlabCache::with_slab_bytes(64 * KIB, 4 * KIB);
        for i in 0..32 {
            c.insert(fp(i), 150);
        }
        // Refresh the first 16 keys so keys 16..32 hold the tail.
        for i in 0..16 {
            c.get(fp(i));
        }
        let out = c.evict_slabs(1);
        assert_eq!(out.items, 16);
        for i in 0..16 {
            assert!(c.contains(fp(i)), "refreshed keys survive");
        }
        for i in 16..32 {
            assert!(!c.contains(fp(i)), "stale keys evicted");
        }
        c.check_invariants();
    }

    #[test]
    fn clear_releases_everything() {
        let mut c = KeyedSlabCache::new(100 * MIB);
        for i in 0..5000 {
            c.insert(fp(i), 2000);
        }
        let resident = c.resident_bytes();
        assert!(resident > 0);
        assert_eq!(c.clear(), resident);
        assert_eq!(c.live_items(), 0);
        assert_eq!(c.slab_count(), 0);
        assert!(!c.contains(fp(1)));
        c.check_invariants();
    }

    #[test]
    fn random_op_soak_holds_invariants() {
        let mut rng = SimRng::new(0xC0FFEE);
        let mut c = KeyedSlabCache::with_slab_bytes(2 * MIB, 64 * KIB);
        let mut resident: std::collections::HashSet<u64> = Default::default();
        for step in 0..20_000 {
            let k = rng.gen_range(512);
            let key = fp(k);
            match rng.gen_range(10) {
                0..=5 => {
                    c.insert(key, rng.gen_range(40_000) + 1);
                    resident.insert(key);
                }
                6..=7 => {
                    let hit = c.get(key);
                    // Capacity pressure may have evicted it, but a hit
                    // implies we inserted it at some point.
                    if hit {
                        assert!(resident.contains(&key));
                    }
                }
                8 => {
                    if c.delete(key) {
                        resident.remove(&key);
                    }
                }
                _ => {
                    let n = rng.gen_range(3);
                    c.evict_slabs(n);
                }
            }
            if step % 1000 == 0 {
                c.check_invariants();
            }
        }
        c.check_invariants();
    }

    #[derive(Debug, Clone)]
    enum Op {
        Get(u64),
        Insert(u64, u64),
        Delete(u64),
        EvictSlabs(u64),
        EvictFraction(f64),
        Clear,
    }

    /// The fingerprint of model key `k`. Keys below 64 fall in four shards,
    /// two to each of the last eight home slots of a 64-slot table, so
    /// their probe runs wrap the table and mix homes, and deletes exercise
    /// every case of the backward shift. Keys `k` and `k + 32` share their
    /// low 32 bits, the index's tag. The rest spread out.
    fn key(k: u64) -> u64 {
        if k < 64 {
            ((k % 4) << 58) | ((k / 32) << 40) | ((k % 32) << 16) | (56 + (k / 4) % 8)
        } else {
            fp(k)
        }
    }

    /// Keys come from a universe of 96, so gets hit, inserts overwrite
    /// (within and across classes) and deletes find their key. Values span
    /// 1 B to 40 KB, every class of the 64-KiB slabs below. Inserts
    /// outnumber evictions, so the store reaches its byte cap and recycles.
    fn op_strategy() -> impl Strategy<Value = Op> {
        let get = || (0u64..96).prop_map(Op::Get);
        let insert = || (0u64..96, 1u64..40_000).prop_map(|(k, v)| Op::Insert(k, v));
        let delete = (0u64..96).prop_map(Op::Delete);
        let evict = (0u32..20, 0u64..4, 0.0f64..0.3).prop_map(|(c, n, f)| match c {
            0 => Op::Clear,
            1..=9 => Op::EvictSlabs(n),
            _ => Op::EvictFraction(f),
        });
        prop_oneof![get(), get(), insert(), insert(), insert(), delete, evict]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any operation sequence keeps every structural invariant, and the
        /// store never holds a key the model rules out: one never inserted,
        /// or deleted or cleared since. Evictions may drop keys the model
        /// still allows, so the model bounds the store from above.
        #[test]
        fn random_ops_keep_the_store_consistent(
            ops in proptest::collection::vec(op_strategy(), 1..400),
            cap_slabs in 2u64..40,
        ) {
            let mut c = KeyedSlabCache::with_slab_bytes(cap_slabs * 64 * KIB, 64 * KIB);
            let mut allowed: HashSet<u64> = HashSet::new();
            for op in ops {
                match op {
                    Op::Get(k) => {
                        let hit = c.get(key(k));
                        prop_assert!(!hit || allowed.contains(&k), "get hit a dead key {}", k);
                    }
                    Op::Insert(k, v) => {
                        c.insert(key(k), v);
                        allowed.insert(k);
                        prop_assert!(c.contains(key(k)), "an insert must stay resident");
                    }
                    Op::Delete(k) => {
                        let found = c.delete(key(k));
                        prop_assert!(!found || allowed.contains(&k), "deleted a dead key {}", k);
                        allowed.remove(&k);
                        prop_assert!(!c.contains(key(k)));
                    }
                    Op::EvictSlabs(n) => {
                        c.evict_slabs(n);
                    }
                    Op::EvictFraction(f) => {
                        evict_fraction(&mut c, f);
                    }
                    Op::Clear => {
                        c.clear();
                        allowed.clear();
                    }
                }
                c.check_invariants();
                for k in 0..96 {
                    prop_assert!(!c.contains(key(k)) || allowed.contains(&k), "dead key {} resident", k);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Sizing the index and prefetching its slots change nothing a
        /// caller sees: a reserved store that is prefetched before every
        /// op returns what a plain store returns, op for op.
        #[test]
        fn reserve_and_prefetch_are_unobservable(
            ops in proptest::collection::vec(op_strategy(), 1..300),
            reserved in 0u64..20_000,
            cap_slabs in 2u64..40,
        ) {
            let new = || KeyedSlabCache::with_slab_bytes(cap_slabs * 64 * KIB, 64 * KIB);
            let (mut plain, mut sized) = (new(), new());
            sized.reserve(reserved);
            for op in ops {
                match op {
                    Op::Get(k) => {
                        sized.prefetch(key(k));
                        prop_assert_eq!(plain.get(key(k)), sized.get(key(k)));
                    }
                    Op::Insert(k, v) => {
                        sized.prefetch(key(k));
                        prop_assert_eq!(plain.insert(key(k), v), sized.insert(key(k), v));
                    }
                    Op::Delete(k) => {
                        prop_assert_eq!(plain.delete(key(k)), sized.delete(key(k)));
                    }
                    Op::EvictSlabs(n) => {
                        prop_assert_eq!(plain.evict_slabs(n), sized.evict_slabs(n));
                    }
                    Op::EvictFraction(f) => {
                        prop_assert_eq!(evict_fraction(&mut plain, f), evict_fraction(&mut sized, f));
                    }
                    Op::Clear => {
                        prop_assert_eq!(plain.clear(), sized.clear());
                    }
                }
                prop_assert_eq!(plain.class_views(), sized.class_views());
                sized.check_invariants();
            }
            for k in 0..96 {
                prop_assert_eq!(plain.contains(key(k)), sized.contains(key(k)));
            }
        }
    }

    #[test]
    fn reserve_sizes_the_index_and_arena_for_a_fill() {
        let items = 36_000;
        let mut c = KeyedSlabCache::new(GIB);
        c.reserve(items);
        let slots: Vec<usize> = c.shards.iter().map(|s| s.slots.len()).collect();
        let arena = c.entries.capacity();
        assert!(arena >= items as usize);
        for i in 0..items {
            c.insert(fp(i), 100 + i % 2_000);
        }
        let after: Vec<usize> = c.shards.iter().map(|s| s.slots.len()).collect();
        assert_eq!(after, slots, "no shard rehashed during the fill");
        assert_eq!(c.entries.capacity(), arena, "the arena never regrew");
        assert!(slots.iter().all(|&n| n == 1024), "{slots:?}");
        c.check_invariants();
    }

    #[test]
    fn backward_shift_delete_keeps_probe_runs_intact() {
        // Force heavy collisions: fingerprints sharing low bits land in
        // long probe runs within one shard.
        let mut c = KeyedSlabCache::new(100 * MIB);
        let colliding: Vec<u64> = (0..200u64).map(|i| (i << 32) | 0xAB).collect();
        for &k in &colliding {
            c.insert(k, 100);
        }
        for &k in colliding.iter().step_by(2) {
            assert!(c.delete(k));
        }
        for (i, &k) in colliding.iter().enumerate() {
            assert_eq!(c.contains(k), i % 2 == 1, "probe run survives deletes");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must hold one slab")]
    fn tiny_capacity_rejected() {
        KeyedSlabCache::new(1024);
    }
}
