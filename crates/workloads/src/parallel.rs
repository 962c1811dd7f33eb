//! Parallel deterministic experiment harness.
//!
//! The paper's evaluation is hundreds of independent simulated runs (12
//! workloads × several settings, grid searches, multi-node clusters). Each
//! run is a pure function of `(scenario, setting, machine_cfg)`, so two
//! orthogonal optimizations apply:
//!
//! - **Fan-out**: independent runs execute on a shared pool of worker
//!   threads ([`parallel_map`]), with results returned in submission order
//!   so callers observe exactly the serial behaviour, only sooner.
//! - **Memoization**: a process-wide content-addressed cache
//!   ([`run_scenario_cached`]) keyed on a 128-bit fingerprint of the
//!   inputs' value tree hands back a shared [`Arc`] of a previous identical
//!   run. Grid searches revisit the same configuration many times across
//!   coordinate-descent passes, and the fleet re-probes the same node
//!   schedules; those revisits are free. The fleet keys its node runs by a
//!   running fingerprint of each node's schedule instead, which partitions
//!   them as the content key does (DESIGN.md §9).
//!
//! Both are sound because the simulator is deterministic: a run's output is
//! bit-identical no matter which thread computes it, or whether it is
//! replayed from the cache (the determinism regression test in
//! `tests/determinism.rs` pins this down).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::Content;

use crate::faults::FaultPlan;
use crate::machine::MachineConfig;
use crate::runner::{run_scenario_with_faults, ScenarioOutcome};
use crate::scenario::Scenario;
use crate::settings::Setting;

/// Number of worker threads the harness fans out to: the `M3_JOBS`
/// environment variable when set to a positive integer, otherwise the
/// host's available parallelism (1 if that cannot be determined).
pub fn worker_threads() -> usize {
    if let Ok(v) = std::env::var("M3_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Applies `f` to every item on a pool of `workers` threads and returns the
/// results **in submission order**. Workers pull jobs from a shared queue
/// (so long and short runs balance), and a `workers <= 1` or single-item
/// call degrades to a plain serial map with no threads spawned.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let (tx, rx) = std::sync::mpsc::channel::<(usize, R)>();
    let (queue, f) = (&queue, &f);
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            let tx = tx.clone();
            s.spawn(move || loop {
                // Take the lock only long enough to pull the next job.
                let job = queue.lock().expect("job queue poisoned").next();
                let Some((idx, item)) = job else { break };
                if tx.send((idx, f(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (idx, r) in rx {
            out[idx] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every submitted job produces a result"))
            .collect()
    })
}

/// Hit/miss counters of the run memoization cache (process-wide totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the run.
    pub misses: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise difference against an earlier snapshot, for reporting
    /// the hit rate of one bounded piece of work (e.g. one grid search).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

/// A process-wide content-addressed memo cache: a 128-bit fingerprint of a
/// key's value tree maps to a shared [`Arc`] value, with hit/miss counters
/// alongside. One generic home for the pattern the run, fleet and kv-trace
/// caches share; all are `static` instances (the constructor is `const`).
///
/// Lookups never hold the lock across the compute closure: two threads
/// racing on the same key both compute it, which is benign for
/// deterministic values (the results are identical) and far cheaper than
/// serializing every computation behind one lock.
pub struct MemoCache<V> {
    map: OnceLock<Mutex<HashMap<u128, Arc<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> MemoCache<V> {
    /// An empty cache. `const`, so instances can live in `static`s.
    pub const fn new() -> Self {
        MemoCache {
            map: OnceLock::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn map(&self) -> &Mutex<HashMap<u128, Arc<V>>> {
        self.map.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Current hit/miss totals.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Returns the cached value for `key`, keyed by the fingerprint of its
    /// serialized value tree, computing and inserting it via `compute` on a
    /// miss. Keys of one shape that differ in any value never share an
    /// entry. The first inserted value wins a race; later computes of the
    /// same key are dropped.
    pub fn get_or_compute<K: serde::Serialize + ?Sized>(
        &self,
        key: &K,
        compute: impl FnOnce() -> V,
    ) -> Arc<V> {
        self.get_or_compute_by_key(fingerprint(&key.serialize()), compute)
    }

    /// [`MemoCache::get_or_compute`] under a key the caller has already
    /// computed (the fleet keeps its node runs' keys incrementally).
    pub(crate) fn get_or_compute_by_key(&self, key: u128, compute: impl FnOnce() -> V) -> Arc<V> {
        if let Some(hit) = self.map().lock().expect("memo cache poisoned").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(compute());
        Arc::clone(
            self.map()
                .lock()
                .expect("memo cache poisoned")
                .entry(key)
                .or_insert(value),
        )
    }
}

/// The memo key of a value tree: a 128-bit fingerprint of a canonical word
/// encoding of `c`.
///
/// The tree is written as a stream of 128-bit words. Each value starts with
/// one word holding a tag per variant in its high half and, in its low
/// half, the value itself (integers as they are, floats by
/// [`f64::to_bits`]) or the length of a sequence or map. A string, and
/// every map key, is its length beside its first eight bytes, then the
/// rest sixteen bytes to a word, the last word zero-padded. Tags and
/// lengths make the encoding decodable, so two different trees give two
/// different streams, and neither is a prefix of the other. Each word is
/// absorbed by `s ← g((s ⊕ w) · M)`, with `M` odd and `g(x) = x ⊕ (x ≫
/// 64)`: every part is a bijection of the 128-bit state. Two trees of the
/// same shape that differ in any values give streams of equal length whose
/// states part at the first differing word and, each later step being a
/// bijection, never meet again — such keys cannot collide. Trees of
/// different shapes part at a tag or length word; from there the keys
/// agree only by chance.
fn fingerprint(c: &Content) -> u128 {
    let mut fp = Fingerprint(0);
    fp.content(c);
    fp.0
}

/// ⌊2¹²⁸/φ⌋ + 1: odd, so multiplying by it permutes `u128`.
const MIX: u128 = 0x9e37_79b9_7f4a_7c15_f39c_c060_5ced_c835;

/// The running state of a fingerprint: [`fingerprint`]'s absorption step,
/// open to the fleet's incremental node keys (DESIGN.md §9), whose first
/// word carries a tag past the value tags 1–8 of [`Fingerprint::content`].
pub(crate) struct Fingerprint(pub(crate) u128);

impl Fingerprint {
    /// Absorbs one word: `s ← g((s ⊕ w) · M)`, a bijection of the state.
    pub(crate) fn word(&mut self, w: u128) {
        let s = (self.0 ^ w).wrapping_mul(MIX);
        self.0 = s ^ (s >> 64);
    }

    /// Absorbs the word with `high` in its high half and `low` in its low.
    pub(crate) fn halves(&mut self, high: u64, low: u64) {
        self.word(u128::from(high) << 64 | u128::from(low));
    }

    fn str(&mut self, s: &str) {
        let (head, tail) = s.as_bytes().split_at(s.len().min(8));
        self.halves(s.len() as u64, le_bytes(head) as u64);
        for w in tail.chunks(16) {
            self.word(le_bytes(w));
        }
    }

    /// Absorbs the canonical word stream of the value tree `c`.
    pub(crate) fn content(&mut self, c: &Content) {
        match c {
            Content::Null => self.halves(1, 0),
            Content::Bool(b) => self.halves(2, u64::from(*b)),
            Content::U64(v) => self.halves(3, *v),
            Content::I64(v) => self.halves(4, *v as u64),
            Content::F64(v) => self.halves(5, v.to_bits()),
            Content::Str(s) => {
                self.halves(6, 0);
                self.str(s);
            }
            Content::Seq(items) => {
                self.halves(7, items.len() as u64);
                for item in items {
                    self.content(item);
                }
            }
            Content::Map(entries) => {
                self.halves(8, entries.len() as u64);
                for (k, v) in entries {
                    self.str(k);
                    self.content(v);
                }
            }
        }
    }
}

/// Up to sixteen bytes as a little-endian integer, zero-padded.
fn le_bytes(bytes: &[u8]) -> u128 {
    bytes.iter().rev().fold(0, |w, &b| w << 8 | u128::from(b))
}

impl<V> Default for MemoCache<V> {
    fn default() -> Self {
        MemoCache::new()
    }
}

/// The run cache: [`run_scenario_cached_faulted`]'s, and the fleet's for
/// its node runs.
pub(crate) static RUN_CACHE: MemoCache<ScenarioOutcome> = MemoCache::new();

/// Current totals of the run memoization cache.
pub fn cache_stats() -> CacheStats {
    RUN_CACHE.stats()
}

/// Like [`run_scenario`](crate::runner::run_scenario), but content-addressed: the fingerprint of the
/// `(scenario, setting, machine_cfg)` triple keys a process-wide cache, and
/// an identical earlier run is returned as a shared [`Arc`] without
/// re-simulating. The config is normalized through
/// [`MachineConfig::with_setting`] *before* keying, so configs that differ
/// only in fields the runner overrides anyway share an entry.
pub fn run_scenario_cached(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
) -> Arc<ScenarioOutcome> {
    run_scenario_cached_faulted(scenario, setting, machine_cfg, &FaultPlan::none())
}

/// [`run_scenario_cached`] under a [`FaultPlan`]. The plan is part of the
/// content-addressed key, so a faulted run can never be answered from (or
/// pollute) the cache entry of the same run with a different plan — in
/// particular the fault-free one.
pub fn run_scenario_cached_faulted(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
    faults: &FaultPlan,
) -> Arc<ScenarioOutcome> {
    let cfg = machine_cfg.with_setting(setting);
    RUN_CACHE.get_or_compute(&(scenario, setting, &cfg, faults), || {
        run_scenario_with_faults(scenario, setting, cfg, faults)
    })
}

/// The run cache's key for a run, as [`run_scenario_cached_faulted`]
/// derives it: the reference the fleet's incremental node keys are
/// checked against.
#[cfg(test)]
pub(crate) fn run_key(
    scenario: &Scenario,
    setting: &Setting,
    machine_cfg: MachineConfig,
    faults: &FaultPlan,
) -> u128 {
    let cfg = machine_cfg.with_setting(setting);
    fingerprint(&serde::Serialize::serialize(&(
        scenario, setting, &cfg, faults,
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    use crate::faults::FleetFaultPlan;
    use crate::fleet::FleetConfig;
    use crate::kvtrace::CachePolicy;
    use crate::scenario::{AppKind, JobClass};
    use crate::settings::{AppConfig, SettingKind};
    use m3_cache::{TraceWorkload, TrafficPattern};
    use m3_sim::clock::SimDuration;
    use m3_sim::trace::Criticality;
    use m3_sim::units::GIB;
    use proptest::prelude::*;
    use serde::Serialize;

    #[test]
    fn parallel_map_preserves_submission_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 8] {
            assert_eq!(parallel_map(items.clone(), workers, |x| x * 3 + 1), expect);
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let out: Vec<u64> = parallel_map(Vec::<u64>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    /// The memo key of `k`, as [`MemoCache::get_or_compute`] derives it.
    fn key<K: Serialize + ?Sized>(k: &K) -> u128 {
        fingerprint(&k.serialize())
    }

    /// Asserts that every labelled key differs from every other.
    fn assert_all_distinct(keys: &[(&str, u128)]) {
        for (i, (a, ka)) in keys.iter().enumerate() {
            for (b, kb) in &keys[i + 1..] {
                assert_ne!(ka, kb, "`{a}` and `{b}` share a memo key");
            }
        }
    }

    /// The float one unit in the last place above `v`: the smallest change
    /// a value can take.
    fn next_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    fn scenario() -> Scenario {
        Scenario {
            name: "fingerprint".into(),
            apps: vec![
                (AppKind::KMeans, SimDuration::ZERO),
                (AppKind::GoCache, SimDuration::from_secs(30)),
            ],
            classes: vec![JobClass::default(); 2],
        }
    }

    fn setting() -> Setting {
        Setting::uniform(SettingKind::Default, AppConfig::stock_default(), 2)
    }

    fn faults() -> FaultPlan {
        FaultPlan::none().with_crash(SimDuration::from_secs(40), 0)
    }

    /// The run cache's key, shaped as [`run_scenario_cached_faulted`]
    /// builds it.
    fn run_key(sc: &Scenario, st: &Setting, cfg: &MachineConfig, f: &FaultPlan) -> u128 {
        key(&(sc, st, cfg, f))
    }

    #[test]
    fn run_key_changes_with_any_one_field() {
        let cfg = MachineConfig::m3_64gb();
        let base = run_key(&scenario(), &setting(), &cfg, &faults());
        assert_eq!(base, run_key(&scenario(), &setting(), &cfg, &faults()));

        let mut salted = cfg;
        salted.node_salt += 1;
        let mut stepped = cfg;
        let monitor = stepped.monitor.as_mut().expect("m3 config has a monitor");
        monitor.step_fraction = next_up(monitor.step_fraction);
        let mut spark = setting();
        spark.per_app[1].spark.memory_fraction = next_up(spark.per_app[1].spark.memory_fraction);
        let mut renamed = scenario();
        renamed.name.push('!');
        let mut later = scenario();
        later.apps[1].1 = SimDuration::from_millis(30_001);
        let mut batch = scenario();
        batch.classes[1].crit = Criticality::Batch;
        let mut crash = faults();
        crash.events[0].target = 1;

        assert_all_distinct(&[
            ("base", base),
            (
                "node_salt",
                run_key(&scenario(), &setting(), &salted, &faults()),
            ),
            (
                "monitor.step_fraction",
                run_key(&scenario(), &setting(), &stepped, &faults()),
            ),
            (
                "spark.memory_fraction",
                run_key(&scenario(), &spark, &cfg, &faults()),
            ),
            ("name", run_key(&renamed, &setting(), &cfg, &faults())),
            ("start", run_key(&later, &setting(), &cfg, &faults())),
            ("class", run_key(&batch, &setting(), &cfg, &faults())),
            (
                "fault event",
                run_key(&scenario(), &setting(), &cfg, &crash),
            ),
        ]);
    }

    #[test]
    fn fleet_key_changes_with_one_node_or_one_flap() {
        let cfg = MachineConfig::m3_64gb();
        // The fault plan rides inside the fleet config.
        let fleet = || FleetConfig {
            faults: FleetFaultPlan::none().with_flap(
                1,
                SimDuration::from_secs(60),
                SimDuration::from_secs(120),
            ),
            ..FleetConfig::homogeneous(4, 64 * GIB)
        };
        // Shaped as `run_fleet_cached` builds it.
        let fleet_key = |fleet: &FleetConfig| key(&(&scenario(), &setting(), &cfg, fleet));
        let base = fleet_key(&fleet());
        assert_eq!(base, fleet_key(&fleet()));

        let mut small_node = fleet();
        small_node.nodes[2].phys_total = 32 * GIB;
        let mut longer_flap = fleet();
        longer_flap.faults.flaps[0].duration = SimDuration::from_secs(121);
        assert_all_distinct(&[
            ("base", base),
            ("node", fleet_key(&small_node)),
            ("flap", fleet_key(&longer_flap)),
        ]);
    }

    #[test]
    fn kvtrace_key_changes_with_the_workload_or_the_policy() {
        let twl = TraceWorkload::smoke(TrafficPattern::Steady);
        // Shaped as `run_cache_trace_cached` builds it.
        let kv_key = |twl: &TraceWorkload, policy: CachePolicy| key(&(twl, policy));
        let base = kv_key(&twl, CachePolicy::M3);
        assert_eq!(
            base,
            kv_key(
                &TraceWorkload::smoke(TrafficPattern::Steady),
                CachePolicy::M3
            )
        );

        let mut alpha = twl;
        alpha.zipf_alpha = next_up(alpha.zipf_alpha);
        let mut seed = twl;
        seed.seed += 1;
        let mut pattern = twl;
        pattern.pattern = TrafficPattern::HotKeyShift;
        assert_all_distinct(&[
            ("base", base),
            ("zipf_alpha", kv_key(&alpha, CachePolicy::M3)),
            ("seed", kv_key(&seed, CachePolicy::M3)),
            ("pattern", kv_key(&pattern, CachePolicy::M3)),
            ("policy", kv_key(&twl, CachePolicy::StaticLimit)),
        ]);
    }

    #[test]
    fn special_floats_and_none_have_distinct_keys() {
        // A JSON key wrote every non-finite float as `null`, the text of
        // `None` too; the fingerprint keys floats by their bits.
        let values = [
            ("NaN", Some(f64::NAN)),
            ("+inf", Some(f64::INFINITY)),
            ("-inf", Some(f64::NEG_INFINITY)),
            ("0.0", Some(0.0)),
            ("-0.0", Some(-0.0)),
            ("None", None),
        ];
        let keys: Vec<(&str, u128)> = values.iter().map(|(l, v)| (*l, key(v))).collect();
        assert_all_distinct(&keys);
    }

    #[test]
    fn encoding_is_tagged_and_length_delimited() {
        assert_all_distinct(&[
            ("(a, bc)", key(&("a", "bc"))),
            ("(ab, c)", key(&("ab", "c"))),
            ("empty", key("")),
            ("NUL", key("\0")),
            ("a", key("a")),
            ("a NUL", key("a\0")),
            ("[[], []]", key(&vec![Vec::<u8>::new(), Vec::new()])),
            ("[[[]]]", key(&vec![vec![Vec::<u8>::new()]])),
            ("5u64", key(&5u64)),
            ("5i64", key(&5i64)),
            ("5.0", key(&5.0f64)),
            ("false", key(&false)),
            ("0u64", key(&0u64)),
        ]);
    }

    #[test]
    fn absorbing_a_word_is_invertible() {
        // MIX⁻¹ mod 2¹²⁸ by Newton's iteration, which doubles the correct
        // low bits each round: an odd MIX is its own inverse mod 8.
        let mut inv = MIX;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u128.wrapping_sub(MIX.wrapping_mul(inv)));
        }
        assert_eq!(MIX.wrapping_mul(inv), 1);
        // x ⊕ (x ≫ 64) is its own inverse.
        let unabsorb = |s: u128, w: u128| (s ^ (s >> 64)).wrapping_mul(inv) ^ w;
        let samples = [
            0,
            1,
            u128::MAX,
            MIX,
            1 << 127,
            6 << 64,
            u128::from(u64::MAX),
        ];
        for s in samples {
            for w in samples {
                let mut fp = Fingerprint(s);
                fp.word(w);
                assert_eq!(unabsorb(fp.0, w), s, "state {s:#x}, word {w:#x}");
            }
        }
    }

    #[test]
    fn borrowed_and_owned_names_key_alike() {
        let tree = |name: Cow<'static, str>, text: Cow<'static, str>| {
            Content::Map(vec![(name, Content::Str(text))])
        };
        assert_eq!(
            fingerprint(&tree("field".into(), "value".into())),
            fingerprint(&tree(
                String::from("field").into(),
                String::from("value").into()
            )),
        );
    }

    #[test]
    fn cache_returns_shared_result_on_identical_inputs() {
        let scenario = Scenario {
            name: "parallel-cache-test".into(),
            apps: vec![(AppKind::KMeans, SimDuration::ZERO)],
            classes: Vec::new(),
        };
        let setting = Setting::uniform(SettingKind::Default, AppConfig::stock_default(), 1);
        let cfg = MachineConfig::stock_64gb();
        let before = cache_stats();
        let a = run_scenario_cached(&scenario, &setting, cfg);
        let b = run_scenario_cached(&scenario, &setting, cfg);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must be a cache hit");
        let delta = cache_stats().since(&before);
        assert!(delta.hits >= 1);
        assert!(delta.misses >= 1);
        assert!(delta.hit_rate() > 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A local cache (no other test shares its counters) against a
        /// model of first-stored values, under random lookups. A lookup
        /// with `reenter` set looks its own key up again inside its compute
        /// and stores first: the race of two computes of one key, where the
        /// first store wins. Every lookup returns the model's value, every
        /// hit the very `Arc` the key's first lookup returned, and the
        /// counters count each hit and miss.
        #[test]
        fn memo_cache_keeps_the_first_stored_value(
            ops in proptest::collection::vec((0u8..8, any::<u64>(), proptest::bool::ANY), 1..64),
        ) {
            let cache: MemoCache<u64> = MemoCache::new();
            let mut model: HashMap<u8, Arc<u64>> = HashMap::new();
            let mut want = CacheStats::default();
            for (key, value, reenter) in ops {
                let got = cache.get_or_compute(&key, || {
                    if reenter {
                        cache.get_or_compute(&key, || value ^ 1);
                    }
                    value
                });
                match model.get(&key) {
                    Some(first) => {
                        want.hits += 1;
                        prop_assert!(Arc::ptr_eq(&got, first), "key {}", key);
                    }
                    None => {
                        want.misses += if reenter { 2 } else { 1 };
                        let stored = if reenter { value ^ 1 } else { value };
                        prop_assert_eq!(*got, stored);
                        model.insert(key, got);
                    }
                }
                prop_assert_eq!(cache.stats(), want);
            }
        }
    }
}
