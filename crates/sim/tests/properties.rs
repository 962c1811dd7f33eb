//! Property-based tests for the simulation substrate.

use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::metrics::TimeSeries;
use m3_sim::{EventQueue, SimRng};
use proptest::prelude::*;

proptest! {
    /// The event queue pops every scheduled event exactly once, in
    /// non-decreasing due order, with FIFO tie-breaking.
    #[test]
    fn queue_pops_all_in_order(times in proptest::collection::vec(0u64..1000, 0..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, i));
        }
        let popped = q.pop_due(SimTime::from_millis(1000));
        prop_assert_eq!(popped.len(), times.len());
        prop_assert!(q.is_empty());
        for w in popped.windows(2) {
            let ((t0, i0), (t1, i1)) = (w[0], w[1]);
            prop_assert!(t0 < t1 || (t0 == t1 && i0 < i1), "order violated");
        }
    }

    /// Incremental draining sees exactly the due events, never early.
    #[test]
    fn queue_drains_incrementally(times in proptest::collection::vec(0u64..100, 1..100)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_millis(t), t);
        }
        let mut seen = Vec::new();
        for now in 0..100u64 {
            for t in q.pop_due(SimTime::from_millis(now)) {
                prop_assert!(t <= now, "event popped before due");
                seen.push(t);
            }
        }
        let mut expect = times.clone();
        expect.sort_unstable();
        seen.sort_unstable();
        prop_assert_eq!(seen, expect);
    }

    /// Bounded generation is in range and deterministic per seed.
    #[test]
    fn rng_bounded_and_deterministic(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            let x = a.gen_range(bound);
            prop_assert!(x < bound);
            prop_assert_eq!(x, b.gen_range(bound));
        }
    }

    /// Shuffle is always a permutation.
    #[test]
    fn shuffle_permutes(seed in any::<u64>(), n in 0usize..200) {
        let mut rng = SimRng::new(seed);
        let mut xs: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// Time-series statistics agree with direct computation.
    #[test]
    fn series_stats_match_reference(vals in proptest::collection::vec(0.0f64..1e9, 1..100)) {
        let mut s = TimeSeries::new("x");
        for (i, &v) in vals.iter().enumerate() {
            s.push(SimTime::from_secs(i as u64), v);
        }
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        prop_assert!((s.mean().unwrap() - mean).abs() < 1e-6 * mean.max(1.0));
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(s.max().unwrap(), max);
        prop_assert_eq!(s.last().unwrap(), *vals.last().unwrap());
    }

    /// Duration arithmetic: scaling commutes with conversion within
    /// rounding error.
    #[test]
    fn duration_scaling(ms in 0u64..1_000_000, f in 0.0f64..100.0) {
        let d = SimDuration::from_millis(ms);
        let scaled = d.mul_f64(f);
        let expect = ms as f64 * f;
        prop_assert!((scaled.as_millis() as f64 - expect).abs() <= 0.5 + 1e-9 * expect);
    }
}
