//! The adaptive allocation protocol (§4.2).
//!
//! After a high-threshold signal, the *top-most* memory-managing layer of
//! each application (Spark, Go-Cache, Memcached — the place allocations
//! originate and the layer with the best domain knowledge) throttles its own
//! growth:
//!
//! ```text
//! allow_rate = min(time_since_last_high_signal / (epoch_len × NUM_epochs), 100 %)
//! ```
//!
//! where the *epoch length* is the time the application spent handling the
//! last high signal (from receipt until memory was returned). Only every
//! ⌊1/allow_rate⌋-th allocation proceeds as normal; a delayed allocation
//! first evicts enough of the application's own data to satisfy itself, so
//! it never fails — it merely takes longer. This rewards fast reclaimers
//! (small epoch → rate recovers quickly) and lets the application with the
//! higher demand grow more (more `alloc()` calls → more allowed calls).

use m3_os::{Kernel, Pid};
use m3_sim::clock::{SimDuration, SimTime};
use m3_sim::trace::TraceData;
use serde::{Deserialize, Serialize};

/// How the allow rate recovers after a high signal.
///
/// The paper evaluated alternatives and kept the linear ramp: "We
/// experimented with other strategies, such as exponential growth instead
/// of linear, and found that this protocol is the most effective"
/// (§4.2, footnote 4). The alternatives are retained for the ablation
/// harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum RateCurve {
    /// `r = t / T` — the paper's protocol.
    #[default]
    Linear,
    /// `r = 2^(t/T) − 1` (slow start, fast finish).
    Exponential,
    /// `r = 0` until `T`, then `1` (all-or-nothing backoff).
    Step,
}

impl RateCurve {
    /// Stable name used in trace events.
    pub fn name(self) -> &'static str {
        match self {
            RateCurve::Linear => "linear",
            RateCurve::Exponential => "exponential",
            RateCurve::Step => "step",
        }
    }

    /// Maps normalized elapsed time `x = t / T` (clamped to `[0, 1]`) to an
    /// allow rate in `[0, 1]`.
    pub fn rate(self, x: f64) -> f64 {
        let x = x.clamp(0.0, 1.0);
        match self {
            RateCurve::Linear => x,
            RateCurve::Exponential => (2f64.powf(x) - 1.0).clamp(0.0, 1.0),
            RateCurve::Step => {
                if x >= 1.0 {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Protocol state for one application's top-most layer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveAllocator {
    /// `NUM_epochs`: how many epoch lengths until the rate returns to 100 %
    /// (the paper uses 1 for Spark, 5 for the caches).
    num_epochs: u32,
    /// When the last high signal was received (`None` once fully recovered
    /// or before any signal).
    last_signal: Option<SimTime>,
    /// Duration of handling the last high signal.
    epoch_len: SimDuration,
    /// Signal-receipt time of an epoch currently being measured.
    epoch_started: Option<SimTime>,
    /// The recovery curve (the paper's protocol is linear).
    curve: RateCurve,
    /// Rolling allocation counter implementing the ⌊1/r⌋ gate.
    counter: u64,
    /// Fractional carry for batched gating, in allocations.
    batch_carry: f64,
}

impl AdaptiveAllocator {
    /// Creates protocol state with the given `NUM_epochs`.
    ///
    /// # Panics
    ///
    /// Panics if `num_epochs` is zero.
    pub fn new(num_epochs: u32) -> Self {
        assert!(num_epochs > 0, "NUM_epochs must be positive");
        AdaptiveAllocator {
            num_epochs,
            last_signal: None,
            epoch_len: SimDuration::from_secs(1),
            epoch_started: None,
            curve: RateCurve::Linear,
            counter: 0,
            batch_carry: 0.0,
        }
    }

    /// Creates protocol state with an alternative recovery curve (footnote
    /// 4 ablations).
    ///
    /// # Panics
    ///
    /// Panics if `num_epochs` is zero.
    pub fn with_curve(num_epochs: u32, curve: RateCurve) -> Self {
        AdaptiveAllocator {
            curve,
            ..AdaptiveAllocator::new(num_epochs)
        }
    }

    /// Records receipt of a high-threshold signal: the allow rate resets to
    /// (nearly) zero and a new epoch measurement begins.
    pub fn on_high_signal(&mut self, now: SimTime) {
        self.last_signal = Some(now);
        self.epoch_started = Some(now);
    }

    /// Records that the reclamation for the in-flight signal finished,
    /// fixing the epoch length.
    pub fn on_reclaim_done(&mut self, now: SimTime) {
        if let Some(t0) = self.epoch_started.take() {
            // An epoch is never zero-length: even an instantaneous handler
            // occupies one scheduling quantum.
            self.epoch_len = now.saturating_since(t0).max(SimDuration::from_millis(1));
        }
    }

    /// The allow rate in `[0, 1]` at time `now`.
    pub fn allow_rate(&self, now: SimTime) -> f64 {
        let Some(t0) = self.last_signal else {
            return 1.0;
        };
        let elapsed = now.saturating_since(t0).as_millis() as f64;
        let denom = (self.epoch_len.as_millis() * self.num_epochs as u64).max(1) as f64;
        self.curve.rate(elapsed / denom)
    }

    /// Per-allocation gate: returns `true` if this `alloc()` call must be
    /// *delayed* (evict first), `false` if it proceeds as normal.
    ///
    /// With rate `r`, every ⌊1/r⌋-th call proceeds; at `r = 0` everything is
    /// delayed; at `r = 1` nothing is.
    pub fn should_delay(&mut self, now: SimTime) -> bool {
        let r = self.allow_rate(now);
        if r >= 1.0 {
            return false;
        }
        self.counter += 1;
        if r <= 0.0 {
            return true;
        }
        let stride = (1.0 / r).floor().max(1.0) as u64;
        !self.counter.is_multiple_of(stride)
    }

    /// Batched gate for drivers that simulate many allocations per tick:
    /// of `n` allocation attempts at time `now`, returns how many are
    /// *delayed*. Fractional remainders carry across calls so long-run
    /// proportions are exact.
    pub fn delayed_of(&mut self, n: u64, now: SimTime) -> u64 {
        let r = self.allow_rate(now);
        if r >= 1.0 || n == 0 {
            return 0;
        }
        let exact = n as f64 * (1.0 - r) + self.batch_carry;
        let delayed = (exact.floor() as u64).min(n);
        self.batch_carry = exact - delayed as f64;
        delayed
    }

    /// The traced per-allocation gate: [`AdaptiveAllocator::should_delay`]
    /// for one `alloc()` call of process `pid`, recording the decision
    /// (`alloc.admit` or `alloc.delay`) while the throttle is engaged, so
    /// the oracle can replay the ⌊1/r⌋ pattern against the §4.2 formula.
    /// Returns `true` if the call is delayed.
    pub fn admit(&mut self, os: &mut Kernel, pid: Pid, now: SimTime) -> bool {
        let rate = self.allow_rate(now);
        let delayed = self.should_delay(now);
        if rate < 1.0 {
            os.record_trace_with(pid, || TraceData::AllocGate {
                delayed,
                rate,
                elapsed_ms: self.elapsed_ms(now),
                epoch_ms: self.epoch_len.as_millis(),
                num_epochs: self.num_epochs,
                curve: self.curve.name().to_string(),
            });
        }
        delayed
    }

    /// The traced batched gate: [`AdaptiveAllocator::delayed_of`] for `n`
    /// allocation attempts of process `pid`, recording one `alloc.batch`
    /// event while the throttle is engaged. Returns how many are delayed.
    pub fn admit_batch(&mut self, os: &mut Kernel, pid: Pid, n: u64, now: SimTime) -> u64 {
        let rate = self.allow_rate(now);
        let delayed = self.delayed_of(n, now);
        if rate < 1.0 {
            os.record_trace_with(pid, || TraceData::AllocBatch {
                n,
                delayed,
                rate,
                elapsed_ms: self.elapsed_ms(now),
                epoch_ms: self.epoch_len.as_millis(),
                num_epochs: self.num_epochs,
                curve: self.curve.name().to_string(),
            });
        }
        delayed
    }

    /// Milliseconds since the last high signal (zero if none).
    fn elapsed_ms(&self, now: SimTime) -> u64 {
        self.last_signal
            .map_or(0, |t0| now.saturating_since(t0).as_millis())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_os::KernelConfig;
    use m3_sim::units::GIB;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn rate_is_full_without_signal() {
        let a = AdaptiveAllocator::new(1);
        assert_eq!(a.allow_rate(t(0)), 1.0);
    }

    #[test]
    fn rate_resets_to_zero_on_signal_then_grows_linearly() {
        let mut a = AdaptiveAllocator::new(1);
        a.on_high_signal(t(1000));
        a.on_reclaim_done(t(3000)); // epoch = 2 s
        assert_eq!(a.allow_rate(t(1000)), 0.0);
        assert!((a.allow_rate(t(2000)) - 0.5).abs() < 1e-9);
        assert!((a.allow_rate(t(3000)) - 1.0).abs() < 1e-9);
        assert_eq!(a.allow_rate(t(9000)), 1.0);
    }

    #[test]
    fn num_epochs_stretches_recovery() {
        let mut a = AdaptiveAllocator::new(5);
        a.on_high_signal(t(0));
        a.on_reclaim_done(t(1000)); // epoch = 1 s, recovery = 5 s
        assert!((a.allow_rate(t(1000)) - 0.2).abs() < 1e-9);
        assert!(a.allow_rate(t(4000)) < 1.0);
        assert_eq!(a.allow_rate(t(5000)), 1.0);
    }

    #[test]
    fn new_signal_resets_rate() {
        let mut a = AdaptiveAllocator::new(1);
        a.on_high_signal(t(0));
        a.on_reclaim_done(t(1000));
        assert_eq!(a.allow_rate(t(1000)), 1.0);
        a.on_high_signal(t(5000));
        assert_eq!(a.allow_rate(t(5000)), 0.0);
    }

    #[test]
    fn fast_reclaimers_recover_faster() {
        // §4.2: "the faster an application can reclaim memory, the faster it
        // is allowed to grow."
        let mut fast = AdaptiveAllocator::new(1);
        let mut slow = AdaptiveAllocator::new(1);
        fast.on_high_signal(t(0));
        fast.on_reclaim_done(t(100)); // 100 ms epoch
        slow.on_high_signal(t(0));
        slow.on_reclaim_done(t(4000)); // 4 s epoch
        assert!(fast.allow_rate(t(500)) > slow.allow_rate(t(500)));
        assert_eq!(fast.allow_rate(t(500)), 1.0);
        assert!(slow.allow_rate(t(500)) < 1.0);
    }

    #[test]
    fn gate_passes_one_in_stride() {
        let mut a = AdaptiveAllocator::new(1);
        a.on_high_signal(t(0));
        a.on_reclaim_done(t(10_000)); // epoch = 10 s
                                      // At t = 1 s the rate is 10 %; every 10th alloc proceeds.
        let now = t(1000);
        let allowed = (0..100).filter(|_| !a.should_delay(now)).count();
        assert_eq!(allowed, 10);
    }

    #[test]
    fn gate_blocks_everything_at_zero_rate() {
        let mut a = AdaptiveAllocator::new(1);
        a.on_high_signal(t(500));
        assert!((0..50).all(|_| a.should_delay(t(500))));
    }

    #[test]
    fn gate_open_at_full_rate() {
        let mut a = AdaptiveAllocator::new(1);
        assert!((0..50).all(|_| !a.should_delay(t(0))));
    }

    #[test]
    fn batched_gate_matches_rate() {
        let mut a = AdaptiveAllocator::new(1);
        a.on_high_signal(t(0));
        a.on_reclaim_done(t(10_000));
        // Rate 25% at t = 2.5 s: of 1000 allocs, 750 delayed.
        assert_eq!(a.delayed_of(1000, t(2500)), 750);
        // Carry keeps proportions exact across odd batch sizes.
        let mut total = 0;
        for _ in 0..100 {
            total += a.delayed_of(7, t(2500));
        }
        assert!((total as i64 - 525).abs() <= 1, "got {total}");
    }

    #[test]
    fn batched_gate_idle_when_recovered() {
        let mut a = AdaptiveAllocator::new(1);
        assert_eq!(a.delayed_of(1000, t(0)), 0);
        assert_eq!(a.delayed_of(0, t(0)), 0);
    }

    #[test]
    fn epoch_has_floor() {
        // An instantaneous handler still makes a 1-ms epoch: the gate is
        // shut at 0 ms, records that epoch, and is open again 1 ms later.
        let mut os = Kernel::new(KernelConfig::with_total(GIB));
        let pid = os.spawn("app");
        let mut a = AdaptiveAllocator::new(1);
        a.on_high_signal(t(100));
        a.on_reclaim_done(t(100)); // instantaneous handler
        assert_eq!(a.allow_rate(t(100)), 0.0);
        assert!(a.admit(&mut os, pid, t(100)), "a shut gate delays");
        let epochs: Vec<u64> = os
            .trace
            .events()
            .iter()
            .filter_map(|e| match e.data {
                TraceData::AllocGate { epoch_ms, .. } => Some(epoch_ms),
                _ => None,
            })
            .collect();
        assert_eq!(epochs, vec![1]);
        assert_eq!(a.allow_rate(t(101)), 1.0);
    }

    #[test]
    #[should_panic(expected = "NUM_epochs must be positive")]
    fn zero_epochs_rejected() {
        AdaptiveAllocator::new(0);
    }

    #[test]
    fn curve_shapes() {
        assert_eq!(RateCurve::Linear.rate(0.5), 0.5);
        assert!(RateCurve::Exponential.rate(0.5) < 0.5, "slow start");
        assert_eq!(RateCurve::Exponential.rate(1.0), 1.0);
        assert_eq!(RateCurve::Step.rate(0.99), 0.0);
        assert_eq!(RateCurve::Step.rate(1.0), 1.0);
        for c in [RateCurve::Linear, RateCurve::Exponential, RateCurve::Step] {
            assert_eq!(c.rate(-1.0), 0.0);
            assert_eq!(c.rate(2.0), 1.0);
        }
    }

    #[test]
    fn alternative_curves_throttle_harder_early() {
        let mut lin = AdaptiveAllocator::new(1);
        let mut exp = AdaptiveAllocator::with_curve(1, RateCurve::Exponential);
        let mut step = AdaptiveAllocator::with_curve(1, RateCurve::Step);
        for a in [&mut lin, &mut exp, &mut step] {
            a.on_high_signal(t(0));
            a.on_reclaim_done(t(10_000));
        }
        let probe = t(3000); // 30% through recovery
        assert!(exp.allow_rate(probe) < lin.allow_rate(probe));
        assert_eq!(step.allow_rate(probe), 0.0);
        assert_eq!(
            step.allow_rate(t(9_999)),
            0.0,
            "a step stays shut to the end"
        );
        assert_eq!(step.allow_rate(t(10_000)), 1.0);
    }
}
