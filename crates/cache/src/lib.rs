//! Slab-allocated key-value cache substrates.
//!
//! The paper evaluates M3 with two memory caches: **Go-Cache**, a ~300-line
//! cache library the authors built on the Go runtime (imported by a
//! benchmark process, as industry caches like LevelDB and CacheLib are),
//! and **Memcached** v1.6.7, a native application whose `malloc` was
//! replaced with `jemalloc` so freed memory actually returns to the OS
//! (§4.1, §6).
//!
//! Both caches store fixed-size items in *slabs*: eviction happens a whole
//! slab at a time, because memory can only be returned to the OS at page
//! granularity and a slab is a contiguous page run (§4.1, "we evict an
//! entire slab of key-value pairs to ensure we have contiguous memory to
//! return to the OS"). The M3 policies (Table 1) evict 1 % of slabs on a
//! low signal and 4 % on a high signal, calling into the Go runtime's GC
//! where one exists.
//!
//! The workload model matches §7.1.1's Go-Cache benchmark: a key space of
//! 12 million keys preloaded to 85 %, then uniform-random gets; a miss
//! simulates a 1 ms backend lookup and inserts the value. Because accesses
//! are uniform, the hit ratio equals the resident fraction of the key
//! space, which lets the driver advance in deterministic batches instead of
//! simulating 6.5 million individual requests.
//!
//! Two richer substrates extend that analytic model to production-shaped
//! traffic (DESIGN.md §15): [`store`] is a key-granular slab-class store
//! (sharded fingerprint index, intrusive per-class LRU, slab-granular
//! eviction) and [`trace`] generates deterministic Zipf traces with tiered
//! value sizes, op mixes, negative lookups, and burst / diurnal /
//! hot-key-shift phase schedules. [`KvApp`] drives either engine through
//! the same tick, signal, and adaptive-allocation plumbing.

pub mod kv;
pub mod slab;
pub mod store;
pub mod trace;
pub mod workload;

pub use kv::{KvApp, KvBackend, KvStats};
pub use slab::{slabs_for_fraction, SlabCache};
pub use store::{ClassEvict, ClassView, EvictOutcome, InsertOutcome, KeyedSlabCache};
pub use trace::{TraceGen, TraceOp, TraceOpKind, TraceWorkload, TrafficPattern, ZipfSampler};
pub use workload::KvWorkload;
