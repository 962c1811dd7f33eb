//! Production-shaped KV trace generation (Twitter Twemcache / Meta KV).
//!
//! Generates the cache traffic described by SNIPPETS.md Snippet 3 and
//! DESIGN.md §15: Zipf(α≈1.2) key popularity over millions of keys, a
//! 90/7/3 GET/SET/DELETE mix, four value-size tiers from 16 B metadata
//! blobs to 1 MB media objects, and ~5 % negative lookups — plus burst /
//! diurnal / hot-key-shift phase schedules layered on top.
//!
//! Everything is deterministic and seedable, and an op costs O(1) time
//! and memory whatever the key space. (A run still makes one pass over
//! the key space: the node sizing of DESIGN.md §15 walks every key's
//! value size once.)
//!
//! - **Zipf sampling** uses rejection inversion (Hörmann & Derflinger's
//!   ZRI scheme, the same algorithm behind Apache Commons'
//!   `RejectionInversionZipfSampler`): O(1) per draw with no harmonic
//!   table. A precomputed head table covers the first 1024 ranks — where
//!   the overwhelming share of a skewed distribution's mass lives — so
//!   the hot path replaces two `powf` calls with a guide-table lookup
//!   of the cached bin boundaries (a walk of about one step from the
//!   bin its bucket names) and an exact table-driven acceptance test.
//! - **Keys are 64-bit fingerprints**, derived from the rank by a
//!   SplitMix64-style mixer; negative lookups draw from a disjoint
//!   salted namespace so they can never hit.
//! - **Value sizes are a pure function of the fingerprint**, so a key
//!   keeps its size tier across fills and overwrites.
//! - **Phase schedules are integer rationals on the op index**: a pace
//!   `(num, den)` scales per-op service cost, so burst windows and
//!   diurnal cycles need no floating-point clocks.

use m3_sim::rng::SimRng;
use serde::{Deserialize, Serialize};

/// Ranks covered by the Zipf sampler's precomputed head table.
const ZIPF_HEAD_RANKS: u64 = 1024;

/// Buckets of the guide table that starts the head search, spread evenly
/// over the head's `u` range.
const ZIPF_GUIDE_BUCKETS: usize = 4096;

/// Salt separating the negative-lookup fingerprint namespace.
const NEGATIVE_SALT: u64 = 0xDEAD_BEEF_CAFE_F00D;

/// Salt for the per-key value-size hash.
const TIER_SALT: u64 = 0x5151_5151_A5A5_A5A5;

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Traffic phase schedule applied on top of the stationary mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficPattern {
    /// Stationary load at the base service rate.
    Steady,
    /// Calm traffic with a 4× arrival surge in the last quarter of each
    /// window — flash-crowd behaviour.
    Burst,
    /// A smooth 16-step day/night cycle between 0.5× and 2× the base
    /// arrival rate.
    Diurnal,
    /// The popularity ranking rotates by an eighth of the key space each
    /// window: yesterday's cold keys become today's hot set.
    HotKeyShift,
}

/// A production-trace cache workload description.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TraceWorkload {
    /// Distinct (positive) keys the trace draws from.
    pub key_space: u64,
    /// Total operations in the measured phase.
    pub total_ops: u64,
    /// Zipf skew (Snippet 3: ~1.2 for Twitter cache traces).
    pub zipf_alpha: f64,
    /// GETs per 1000 ops (Snippet 3: 900).
    pub get_per_mille: u16,
    /// SETs per 1000 ops (Snippet 3: 70); the rest are DELETEs.
    pub set_per_mille: u16,
    /// Negative lookups per 1000 GETs (Snippet 3: ~50).
    pub negative_per_mille: u16,
    /// Fraction of the key space preloaded (most popular ranks first).
    pub preload_fraction: f64,
    /// Trace seed: same seed, same ops, bit for bit.
    pub seed: u64,
    /// Phase schedule.
    pub pattern: TrafficPattern,
    /// Ops per schedule window (surge period, diurnal day, shift epoch).
    pub phase_ops: u64,
    /// Service cost of a GET hit, microseconds.
    pub hit_us: u64,
    /// Extra cost of a miss (backend fetch + fill), microseconds.
    pub miss_extra_us: u64,
    /// Service cost of a SET, microseconds.
    pub set_us: u64,
    /// Service cost of a DELETE, microseconds.
    pub delete_us: u64,
    /// Preload fill rate, bytes per second.
    pub preload_bytes_per_sec: u64,
}

impl TraceWorkload {
    /// The full-scale sweep configuration: ≥1M distinct keys, 10M ops.
    pub fn production(pattern: TrafficPattern) -> Self {
        TraceWorkload {
            key_space: 1_200_000,
            total_ops: 10_000_000,
            zipf_alpha: 1.2,
            get_per_mille: 900,
            set_per_mille: 70,
            negative_per_mille: 50,
            preload_fraction: 0.30,
            seed: 0x7261_6365, // "race"
            pattern,
            phase_ops: 2_500_000,
            hit_us: 40,
            miss_extra_us: 330,
            set_us: 60,
            delete_us: 25,
            preload_bytes_per_sec: m3_sim::units::GIB,
        }
    }

    /// A scaled-down configuration for CI smoke and unit tests.
    pub fn smoke(pattern: TrafficPattern) -> Self {
        TraceWorkload {
            key_space: 120_000,
            total_ops: 1_000_000,
            phase_ops: 250_000,
            ..TraceWorkload::production(pattern)
        }
    }

    /// Panics on degenerate parameters.
    pub fn validate(&self) {
        assert!(self.key_space > 0, "key space must be positive");
        assert!(self.total_ops > 0, "trace must contain ops");
        assert!(
            self.zipf_alpha.is_finite() && self.zipf_alpha > 0.0,
            "zipf alpha must be positive and finite"
        );
        assert!(
            self.get_per_mille as u32 + self.set_per_mille as u32 <= 1000,
            "op mix exceeds 1000 per mille"
        );
        assert!(self.negative_per_mille <= 1000, "negative share per mille");
        assert!(
            (0.0..=1.0).contains(&self.preload_fraction),
            "preload fraction in [0,1]"
        );
        assert!(self.phase_ops > 0, "phase window must be positive");
        assert!(self.hit_us > 0, "hit cost must be positive");
        assert!(self.preload_bytes_per_sec > 0, "preload rate positive");
    }

    /// Items preloaded before the measured phase (most popular first).
    pub fn preload_items(&self) -> u64 {
        ((self.key_space as f64 * self.preload_fraction) as u64).min(self.key_space)
    }

    /// The fingerprint of key id `key` (0-based).
    #[inline]
    pub fn fp_of(&self, key: u64) -> u64 {
        mix64(key.wrapping_add(mix64(self.seed)))
    }

    /// A fingerprint in the negative namespace: drawn like a key but
    /// never inserted, so lookups on it always miss.
    #[inline]
    pub fn negative_fp(&self, draw: u64) -> u64 {
        mix64(draw.wrapping_add(mix64(self.seed ^ NEGATIVE_SALT)))
    }

    /// The value size of a key, bytes — a pure function of the
    /// fingerprint implementing Snippet 3's four tiers: 40 % tiny
    /// metadata (16–100 B), 50 % typical objects (512 B–2 KiB), 9 %
    /// medium blobs (10–50 KiB), 1 % large media (500 KiB–1 MiB).
    ///
    /// The tier is drawn at those odds, so a branch on it would be
    /// mispredicted about half the time. Instead every tier's size is
    /// drawn, each modulo a constant, and masks select the drawn tier's.
    #[inline]
    pub fn value_bytes(&self, fp: u64) -> u64 {
        let h = mix64(fp ^ TIER_SALT);
        let pct = h % 100;
        let m = mix64(h);
        // All ones when `cond` holds, else zero.
        let mask = |cond: bool| (cond as u64).wrapping_neg();
        let tiny = 16 + m % (100 - 16 + 1);
        let typical = 512 + m % (2_048 - 512 + 1);
        let medium = 10_240 + m % (51_200 - 10_240 + 1);
        let large = 512_000 + m % (1_048_576 - 512_000 + 1);
        let mut v = tiny;
        v ^= (v ^ typical) & mask(pct >= 40);
        v ^= (v ^ medium) & mask(pct >= 90);
        v ^= (v ^ large) & mask(pct >= 99);
        v
    }

    /// The pace `(num, den)` for op `i`: per-op service cost is scaled by
    /// `num/den`, so a smaller ratio means faster arrivals.
    #[inline]
    pub fn pace(&self, i: u64) -> (u32, u32) {
        match self.pattern {
            TrafficPattern::Steady | TrafficPattern::HotKeyShift => (1, 1),
            TrafficPattern::Burst => {
                // Last quarter of each window surges to 4× arrivals.
                if (i % self.phase_ops) * 4 / self.phase_ops == 3 {
                    (1, 4)
                } else {
                    (1, 1)
                }
            }
            TrafficPattern::Diurnal => {
                // 16-step cycle: trough at 2× cost, peak at 0.5×.
                const CYCLE: [u32; 16] =
                    [20, 18, 16, 14, 12, 10, 9, 8, 7, 8, 9, 10, 12, 14, 16, 18];
                let slot = ((i % self.phase_ops) * 16 / self.phase_ops) as usize;
                (CYCLE[slot], 10)
            }
        }
    }

    /// Maps a Zipf rank (1-based) to a key id for op `i`, applying the
    /// hot-key-shift rotation.
    #[inline]
    pub fn key_of_rank(&self, rank: u64, i: u64) -> u64 {
        let key = rank - 1;
        match self.pattern {
            TrafficPattern::HotKeyShift => {
                let epoch = i / self.phase_ops;
                let shift = epoch.wrapping_mul(self.key_space / 8);
                (key + shift) % self.key_space
            }
            _ => key,
        }
    }
}

/// Rejection-inversion Zipf sampler (Hörmann & Derflinger ZRI).
///
/// Draws ranks in `1..=n` with P(k) ∝ k^(-α) in O(1) expected time and
/// O(1) memory beyond a fixed 1024-entry head table. The head table
/// caches the bin boundaries `H(k ± ½)` and densities `h(k)` for the
/// hottest ranks, replacing the `powf`-heavy inversion with a table
/// lookup wherever the sample lands in the head — at α = 1.2 over a
/// million keys that is ~85 % of all draws. A 4096-bucket guide table
/// over the head's range names the bin at each bucket's lower edge, so
/// finding a draw's bin is a walk of about one step.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    alpha: f64,
    one_minus: f64,
    /// `H(1.5) - h(1)`: the exclusive lower edge of the `u` range.
    h_x1: f64,
    /// `H(n + 0.5)`: the inclusive upper edge of the `u` range.
    h_n: f64,
    /// Quick-acceptance threshold `2 - H⁻¹(H(2.5) - h(2))`.
    s: f64,
    /// Head ranks covered by the tables.
    r: usize,
    /// `head_h[k] = H(k + 0.5)` for `k = 0..=r`.
    head_h: Vec<f64>,
    /// `head_hk[k] = h(k) = k^-α` for `k = 0..=r` (index 0 unused).
    head_hk: Vec<f64>,
    /// `guide[b]`: the bin holding the lower edge of bucket `b`, clamped
    /// to `1..=r`.
    guide: Vec<u16>,
    /// Buckets per unit of `u`: `ZIPF_GUIDE_BUCKETS / (head_h[r] - head_h[0])`.
    guide_scale: f64,
}

impl ZipfSampler {
    /// Builds a sampler over ranks `1..=n` with skew `alpha`.
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n >= 1, "rank space must be non-empty");
        assert!(
            alpha.is_finite() && alpha > 0.0,
            "alpha must be positive and finite"
        );
        let one_minus = 1.0 - alpha;
        let h = |x: f64| -> f64 {
            if alpha == 1.0 {
                x.ln()
            } else {
                ((x.powf(one_minus)) - 1.0) / one_minus
            }
        };
        let h_inv = |y: f64| -> f64 {
            if alpha == 1.0 {
                y.exp()
            } else {
                (1.0 + one_minus * y).max(0.0).powf(1.0 / one_minus)
            }
        };
        let r = ZIPF_HEAD_RANKS.min(n) as usize;
        let head_h: Vec<f64> = (0..=r).map(|k| h(k as f64 + 0.5)).collect();
        let head_hk: Vec<f64> = (0..=r)
            .map(|k| if k == 0 { 0.0 } else { (k as f64).powf(-alpha) })
            .collect();
        let width = (head_h[r] - head_h[0]) / ZIPF_GUIDE_BUCKETS as f64;
        let guide = (0..ZIPF_GUIDE_BUCKETS)
            .map(|b| {
                let edge = head_h[0] + b as f64 * width;
                head_h.partition_point(|&e| e <= edge).clamp(1, r) as u16
            })
            .collect();
        ZipfSampler {
            n,
            alpha,
            one_minus,
            h_x1: h(1.5) - 1.0,
            h_n: h(n as f64 + 0.5),
            s: 2.0 - h_inv(h(2.5) - (2.0f64).powf(-alpha)),
            r,
            guide_scale: 1.0 / width,
            head_h,
            head_hk,
            guide,
        }
    }

    /// The head bin of `u < head_h[r]`: the number of bin edges at or
    /// below it, as `head_h.partition_point(|&b| b <= u)` counts them.
    ///
    /// The guide names the bin at the lower edge of `u`'s bucket. The walk
    /// steps down while the edge below the bin exceeds `u` (when rounding
    /// put `u` in the bucket above its own) and up while the bin's own
    /// edge is at or below `u`. `head_h` is increasing, so it stops at the
    /// one bin with `head_h[k - 1] <= u < head_h[k]`, wherever it starts.
    #[inline]
    fn head_bin(&self, u: f64) -> usize {
        let bucket = ((u - self.head_h[0]) * self.guide_scale) as usize;
        let mut k = self.guide[bucket.min(ZIPF_GUIDE_BUCKETS - 1)] as usize;
        while k > 0 && self.head_h[k - 1] > u {
            k -= 1;
        }
        while self.head_h[k] <= u {
            k += 1;
        }
        k
    }

    #[inline]
    fn h_integral(&self, x: f64) -> f64 {
        if self.alpha == 1.0 {
            x.ln()
        } else {
            (x.powf(self.one_minus) - 1.0) / self.one_minus
        }
    }

    #[inline]
    fn h_integral_inv(&self, y: f64) -> f64 {
        if self.alpha == 1.0 {
            y.exp()
        } else {
            (1.0 + self.one_minus * y)
                .max(0.0)
                .powf(1.0 / self.one_minus)
        }
    }

    /// Draws one rank in `1..=n`.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        loop {
            // u spans (H(1.5) - h(1), H(n + 0.5)], covering all bins.
            let u = self.h_n + rng.gen_f64() * (self.h_x1 - self.h_n);
            if u < self.head_h[self.r] {
                // Head: look the bin up in the cached boundaries, then
                // run the exact acceptance test from the cached density.
                let k = self.head_bin(u);
                debug_assert!((1..=self.r).contains(&k));
                if u >= self.head_h[k] - self.head_hk[k] {
                    return k as u64;
                }
            } else {
                let x = self.h_integral_inv(u);
                let k64 = ((x + 0.5) as u64).clamp(1, self.n);
                let k = k64 as f64;
                // Quick accept when x lands well inside the bin; exact
                // test otherwise.
                if k - x <= self.s || u >= self.h_integral(k + 0.5) - k.powf(-self.alpha) {
                    return k64;
                }
            }
        }
    }
}

/// One generated trace operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceOp {
    /// What the client asked for.
    pub kind: TraceOpKind,
    /// The key fingerprint.
    pub fp: u64,
    /// Service-cost pace `(num, den)` for this op's schedule position.
    pub pace: (u32, u32),
}

/// The operation kind of a trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOpKind {
    /// A lookup; `negative` marks keys that were never stored.
    Get {
        /// Drawn from the never-inserted namespace.
        negative: bool,
    },
    /// An upsert.
    Set,
    /// A removal.
    Delete,
}

/// The deterministic trace-op stream for one workload.
#[derive(Debug, Clone)]
pub struct TraceGen {
    wl: TraceWorkload,
    zipf: ZipfSampler,
    rng: SimRng,
    next_op: u64,
}

impl TraceGen {
    /// Builds the generator for a validated workload.
    pub fn new(wl: TraceWorkload) -> Self {
        wl.validate();
        TraceGen {
            zipf: ZipfSampler::new(wl.key_space, wl.zipf_alpha),
            rng: SimRng::new(wl.seed ^ 0x74726163), // "trac"
            wl,
            next_op: 0,
        }
    }

    /// The workload description.
    pub fn workload(&self) -> &TraceWorkload {
        &self.wl
    }

    /// Ops generated so far.
    pub fn generated(&self) -> u64 {
        self.next_op
    }

    /// True once the full trace has been generated.
    pub fn exhausted(&self) -> bool {
        self.next_op >= self.wl.total_ops
    }
}

/// Op generation is the iterator protocol: `None` at end of trace.
impl Iterator for TraceGen {
    type Item = TraceOp;

    #[inline]
    fn next(&mut self) -> Option<TraceOp> {
        if self.next_op >= self.wl.total_ops {
            return None;
        }
        let i = self.next_op;
        self.next_op += 1;
        let pace = self.wl.pace(i);
        let mix = self.rng.gen_range(1000) as u16;
        let (kind, fp) = if mix < self.wl.get_per_mille {
            let negative = (self.rng.gen_range(1000) as u16) < self.wl.negative_per_mille;
            let rank = self.zipf.sample(&mut self.rng);
            let fp = if negative {
                self.wl.negative_fp(rank)
            } else {
                self.wl.fp_of(self.wl.key_of_rank(rank, i))
            };
            (TraceOpKind::Get { negative }, fp)
        } else {
            let rank = self.zipf.sample(&mut self.rng);
            let fp = self.wl.fp_of(self.wl.key_of_rank(rank, i));
            if mix < self.wl.get_per_mille + self.wl.set_per_mille {
                (TraceOpKind::Set, fp)
            } else {
                (TraceOpKind::Delete, fp)
            }
        };
        Some(TraceOp { kind, fp, pace })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `value_bytes` as first written: branch on the drawn tier, then draw
    /// modulo that tier's span.
    fn tiered_value_bytes(fp: u64) -> u64 {
        let h = mix64(fp ^ TIER_SALT);
        let (lo, hi) = match h % 100 {
            0..=39 => (16, 100),
            40..=89 => (512, 2_048),
            90..=98 => (10_240, 51_200),
            _ => (512_000, 1_048_576),
        };
        lo + mix64(h) % (hi - lo + 1)
    }

    #[test]
    fn value_bytes_equals_the_tiered_formula_on_every_production_key() {
        for seed in [
            TraceWorkload::production(TrafficPattern::Steady).seed,
            1,
            71,
        ] {
            let wl = TraceWorkload {
                seed,
                ..TraceWorkload::production(TrafficPattern::Steady)
            };
            for key in 0..wl.key_space {
                let fp = wl.fp_of(key);
                assert_eq!(wl.value_bytes(fp), tiered_value_bytes(fp), "key {key}");
            }
        }
    }

    /// The skews and rank spaces the head search is checked on: one rank,
    /// two, a head smaller than, equal to and just past the table, and the
    /// production scale.
    const HEAD_CASES_N: [u64; 6] = [1, 2, 1000, 1024, 1025, 2_000_000];
    const HEAD_CASES_ALPHA: [f64; 4] = [0.5, 1.0, 1.2, 3.0];

    /// Checks the guided head search against the binary search it replaced.
    fn assert_head_bin(z: &ZipfSampler, u: f64) {
        assert_eq!(
            z.head_bin(u),
            z.head_h.partition_point(|&b| b <= u),
            "n {} alpha {} u {u:e}",
            z.n,
            z.alpha
        );
    }

    #[test]
    fn head_search_equals_partition_point_at_every_edge() {
        for n in HEAD_CASES_N {
            for alpha in HEAD_CASES_ALPHA {
                let z = ZipfSampler::new(n, alpha);
                let top = z.head_h[z.r];
                assert_head_bin(&z, z.head_h[0] - 1.0);
                for &edge in &z.head_h {
                    for u in [edge.next_down(), edge, edge.next_up()] {
                        if u < top {
                            assert_head_bin(&z, u);
                        }
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]

        #[test]
        fn value_bytes_equals_the_tiered_formula(fp in any::<u64>()) {
            let wl = TraceWorkload::smoke(TrafficPattern::Steady);
            prop_assert_eq!(wl.value_bytes(fp), tiered_value_bytes(fp));
        }
    }

    proptest! {
        // Ten cases per (n, alpha) pair on average; the fixed case seeds
        // reach all 24.
        #![proptest_config(ProptestConfig::with_cases(240))]

        /// Random `u` across the head's range, and the draws the sampler
        /// itself makes, land in `partition_point`'s bin.
        #[test]
        fn head_search_equals_partition_point(
            pair in 0usize..HEAD_CASES_N.len() * HEAD_CASES_ALPHA.len(),
            fractions in proptest::collection::vec(0.0f64..1.0, 64..65),
            seed in any::<u64>(),
        ) {
            let n = HEAD_CASES_N[pair / HEAD_CASES_ALPHA.len()];
            let alpha = HEAD_CASES_ALPHA[pair % HEAD_CASES_ALPHA.len()];
            let z = ZipfSampler::new(n, alpha);
            let (bottom, top) = (z.head_h[0], z.head_h[z.r]);
            for f in fractions {
                let u = bottom + f * (top - bottom);
                if u < top {
                    assert_head_bin(&z, u);
                }
            }
            let mut rng = SimRng::new(seed);
            for _ in 0..64 {
                let u = z.h_n + rng.gen_f64() * (z.h_x1 - z.h_n);
                if u < top {
                    assert_head_bin(&z, u);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "zipf alpha must be positive and finite")]
    fn infinite_zipf_alpha_is_rejected() {
        TraceGen::new(TraceWorkload {
            zipf_alpha: f64::INFINITY,
            ..TraceWorkload::smoke(TrafficPattern::Steady)
        });
    }

    #[test]
    #[should_panic(expected = "zipf alpha must be positive and finite")]
    fn nan_zipf_alpha_is_rejected() {
        TraceGen::new(TraceWorkload {
            zipf_alpha: f64::NAN,
            ..TraceWorkload::smoke(TrafficPattern::Steady)
        });
    }

    #[test]
    #[should_panic(expected = "alpha must be positive and finite")]
    fn zipf_sampler_rejects_an_infinite_alpha() {
        ZipfSampler::new(10, f64::INFINITY);
    }

    #[test]
    fn zipf_is_deterministic() {
        let z = ZipfSampler::new(1_000_000, 1.2);
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..10_000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn zipf_stays_in_range() {
        for n in [1u64, 2, 5, 1000, 2_000_000] {
            let z = ZipfSampler::new(n, 1.2);
            let mut rng = SimRng::new(n);
            for _ in 0..2000 {
                let k = z.sample(&mut rng);
                assert!((1..=n).contains(&k), "rank {k} outside 1..={n}");
            }
        }
    }

    #[test]
    fn zipf_matches_harmonic_mass() {
        // P(1) = 1/H(n, α); empirical frequency must agree closely.
        let n = 100_000u64;
        let alpha = 1.2;
        let z = ZipfSampler::new(n, alpha);
        let mut rng = SimRng::new(42);
        let draws = 400_000;
        let mut top = [0u64; 8];
        for _ in 0..draws {
            let k = z.sample(&mut rng);
            if k <= 8 {
                top[(k - 1) as usize] += 1;
            }
        }
        let hn: f64 = (1..=n).map(|k| (k as f64).powf(-alpha)).sum();
        for (i, &c) in top.iter().enumerate() {
            let want = ((i + 1) as f64).powf(-alpha) / hn;
            let got = c as f64 / draws as f64;
            assert!(
                (got - want).abs() < want * 0.1 + 0.001,
                "rank {}: got {got:.4}, want {want:.4}",
                i + 1
            );
        }
        assert!(top[0] > top[3] && top[3] > top[7], "mass decreases in rank");
    }

    #[test]
    fn zipf_head_covers_most_draws_and_tail_is_reached() {
        let z = ZipfSampler::new(1_000_000, 1.2);
        let mut rng = SimRng::new(9);
        let (mut head, mut tail) = (0u64, 0u64);
        for _ in 0..100_000 {
            if z.sample(&mut rng) <= ZIPF_HEAD_RANKS {
                head += 1;
            } else {
                tail += 1;
            }
        }
        assert!(head > 70_000, "head table absorbs most draws: {head}");
        assert!(tail > 1_000, "tail ranks still drawn: {tail}");
    }

    #[test]
    fn zipf_alpha_one_uses_log_branch() {
        let z = ZipfSampler::new(10_000, 1.0);
        let mut rng = SimRng::new(3);
        let mut first = 0u64;
        for _ in 0..50_000 {
            if z.sample(&mut rng) == 1 {
                first += 1;
            }
        }
        // P(1) = 1/H(10000) ≈ 1/9.79 ≈ 0.102.
        let got = first as f64 / 50_000.0;
        assert!((got - 0.102).abs() < 0.01, "alpha=1 P(1): {got}");
    }

    #[test]
    fn value_tiers_match_snippet3_shares() {
        let wl = TraceWorkload::smoke(TrafficPattern::Steady);
        let mut shares = [0u64; 4];
        let keys = 200_000u64;
        for k in 0..keys {
            let v = wl.value_bytes(wl.fp_of(k));
            let tier = match v {
                16..=100 => 0,
                512..=2048 => 1,
                10_240..=51_200 => 2,
                512_000..=1_048_576 => 3,
                other => panic!("value {other} outside every tier"),
            };
            shares[tier] += 1;
        }
        let pct = |s: u64| s as f64 * 100.0 / keys as f64;
        assert!(
            (pct(shares[0]) - 40.0).abs() < 1.5,
            "tiny {}",
            pct(shares[0])
        );
        assert!((pct(shares[1]) - 50.0).abs() < 1.5, "typical tier");
        assert!((pct(shares[2]) - 9.0).abs() < 1.0, "medium tier");
        assert!((pct(shares[3]) - 1.0).abs() < 0.5, "large tier");
    }

    #[test]
    fn value_bytes_is_stable_per_key() {
        let wl = TraceWorkload::smoke(TrafficPattern::Steady);
        let fp = wl.fp_of(123);
        assert_eq!(wl.value_bytes(fp), wl.value_bytes(fp));
    }

    #[test]
    fn op_mix_and_negative_share() {
        let gen = TraceGen::new(TraceWorkload {
            total_ops: 300_000,
            ..TraceWorkload::smoke(TrafficPattern::Steady)
        });
        let (mut gets, mut sets, mut dels, mut negs) = (0u64, 0u64, 0u64, 0u64);
        for op in gen {
            match op.kind {
                TraceOpKind::Get { negative } => {
                    gets += 1;
                    negs += negative as u64;
                }
                TraceOpKind::Set => sets += 1,
                TraceOpKind::Delete => dels += 1,
            }
        }
        let total = (gets + sets + dels) as f64;
        assert!((gets as f64 / total - 0.90).abs() < 0.01, "GET share");
        assert!((sets as f64 / total - 0.07).abs() < 0.01, "SET share");
        assert!((dels as f64 / total - 0.03).abs() < 0.01, "DELETE share");
        assert!(
            (negs as f64 / gets as f64 - 0.05).abs() < 0.01,
            "negative share of GETs"
        );
    }

    #[test]
    fn negative_namespace_is_disjoint() {
        let wl = TraceWorkload::smoke(TrafficPattern::Steady);
        let positives: std::collections::HashSet<u64> =
            (0..wl.key_space).map(|k| wl.fp_of(k)).collect();
        for rank in 1..=10_000 {
            assert!(
                !positives.contains(&wl.negative_fp(rank)),
                "negative fp for rank {rank} collides with a real key"
            );
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let wl = TraceWorkload::smoke(TrafficPattern::Burst);
        let mut a = TraceGen::new(wl);
        let mut b = TraceGen::new(wl);
        for _ in 0..20_000 {
            assert_eq!(a.next(), b.next());
        }
    }

    #[test]
    fn burst_pace_surges_last_quarter() {
        let wl = TraceWorkload {
            phase_ops: 1000,
            ..TraceWorkload::smoke(TrafficPattern::Burst)
        };
        assert_eq!(wl.pace(0), (1, 1));
        assert_eq!(wl.pace(749), (1, 1));
        assert_eq!(wl.pace(750), (1, 4));
        assert_eq!(wl.pace(999), (1, 4));
        assert_eq!(wl.pace(1000), (1, 1), "next window starts calm");
        let surged = (0..1000).filter(|&i| wl.pace(i) == (1, 4)).count();
        assert_eq!(surged, 250, "exactly a quarter of the window surges");
    }

    #[test]
    fn diurnal_pace_cycles_through_the_table() {
        let wl = TraceWorkload {
            phase_ops: 1600,
            ..TraceWorkload::smoke(TrafficPattern::Diurnal)
        };
        assert_eq!(wl.pace(0), (20, 10), "midnight trough is 2× cost");
        assert_eq!(wl.pace(800), (7, 10), "midday peak is 0.7× cost");
        assert_eq!(wl.pace(1600), (20, 10), "cycle repeats");
        let distinct: std::collections::HashSet<(u32, u32)> =
            (0..1600).map(|i| wl.pace(i)).collect();
        assert_eq!(distinct.len(), 9, "cycle visits every pace level");
    }

    #[test]
    fn hot_key_shift_rotates_the_ranking() {
        let wl = TraceWorkload {
            phase_ops: 1000,
            ..TraceWorkload::smoke(TrafficPattern::HotKeyShift)
        };
        let hot_before = wl.key_of_rank(1, 0);
        let hot_after = wl.key_of_rank(1, 1000);
        assert_ne!(hot_before, hot_after, "rank 1 maps to a new key");
        assert_eq!(
            (hot_after + wl.key_space - hot_before) % wl.key_space,
            wl.key_space / 8,
            "rotation step is an eighth of the key space"
        );
        // The old hot key is still reachable, at a shifted rank.
        assert_eq!(
            wl.key_of_rank(1, 0),
            wl.key_of_rank(1 + 7 * wl.key_space / 8, 1000)
        );
    }

    #[test]
    fn trace_throughput_is_fast_enough_to_sweep() {
        // The tentpole's hot-path requirement: generating ops must be
        // O(1) each. 500k ops in well under a second even in debug CI.
        let gen = TraceGen::new(TraceWorkload {
            total_ops: 500_000,
            ..TraceWorkload::smoke(TrafficPattern::Diurnal)
        });
        let start = std::time::Instant::now();
        let mut acc = 0u64;
        for op in gen {
            acc ^= op.fp;
        }
        assert_ne!(acc, 0);
        assert!(
            start.elapsed().as_secs_f64() < 20.0,
            "trace generation unexpectedly slow"
        );
    }
}
