//! Deterministic pseudo-random number generation.
//!
//! The reproduction must be bit-for-bit repeatable across runs and platforms,
//! so the simulation core uses its own small xoshiro256++ implementation
//! seeded through SplitMix64 instead of depending on `rand`'s default
//! thread-local entropy. (`rand` is still used by the benchmark harness for
//! convenience APIs; it is always seeded from a [`SimRng`].)

/// A seedable, splittable PRNG (xoshiro256++ seeded via SplitMix64).
///
/// # Examples
///
/// ```
/// use m3_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent child generator.
    ///
    /// Used to give each simulated process its own stream so that adding a
    /// process never perturbs the random sequence of another.
    pub fn split(&mut self, label: u64) -> SimRng {
        let seed = self.next_u64() ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::new(seed)
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so results are unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's nearly-divisionless unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn gen_range_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.gen_range(hi - lo)
    }

    /// A uniform float in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams should be effectively independent");
    }

    #[test]
    fn split_streams_are_independent_of_later_parent_use() {
        let mut parent1 = SimRng::new(99);
        let mut child1 = parent1.split(1);
        let mut parent2 = SimRng::new(99);
        let mut child2 = parent2.split(1);
        // Consuming the parent after the split must not affect the child.
        let _ = parent2.next_u64();
        for _ in 0..32 {
            assert_eq!(child1.next_u64(), child2.next_u64());
        }
    }

    #[test]
    fn gen_range_respects_bound() {
        let mut r = SimRng::new(5);
        for _ in 0..10_000 {
            assert!(r.gen_range(13) < 13);
        }
        for _ in 0..10_000 {
            let v = r.gen_range_in(100, 110);
            assert!((100..110).contains(&v));
        }
    }

    #[test]
    fn gen_range_is_roughly_uniform() {
        let mut r = SimRng::new(11);
        let mut counts = [0u64; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[r.gen_range(8) as usize] += 1;
        }
        let expected = n / 8;
        for c in counts {
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < expected / 10,
                "bucket count {c} too far from expected {expected}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn zero_bound_panics() {
        SimRng::new(0).gen_range(0);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} should be near 0.5");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(31);
        let mut xs: Vec<u32> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
