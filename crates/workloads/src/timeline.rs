//! A node run's pressure timeline: the monitor's pressure summary over the
//! run, kept only where it changes and shared between a run and the runs
//! resumed from it (DESIGN.md §12–§13).

use std::fmt;
use std::sync::Arc;

use m3_core::monitor::PressureSummary;
use serde::{Content, DeError, Deserialize, Serialize};

/// One sample: the instant in ms and the summary polled then.
type Sample = (u64, PressureSummary);

/// `(time ms, summary)` samples in time order, read as a step function:
/// the summary at `t` is the one of the last sample at or before `t`.
///
/// A sample is kept only where the summary differs from the sample before
/// it. A dropped repeat lies after a sample with the same summary, so it
/// changes no read; the first sample is always kept, so no read before it
/// changes either. A run resumed from another run's world starts with
/// that run's samples up to where the world was kept, and shares them
/// instead of copying: it holds them as `(Arc, length)` pairs, each a
/// prefix of the samples an earlier run recorded itself, oldest first. A
/// prefix of a prefix points at those earlier runs' samples again, so a
/// timeline never reaches its samples through another timeline's pairs.
/// It serializes as the flat list of its samples, and an empty timeline
/// allocates nothing.
#[derive(Clone, Default)]
pub struct PressureTimeline {
    /// Prefixes of the samples earlier runs recorded, oldest first, each
    /// with how many of them belong to this timeline (never 0).
    shared: Vec<(Arc<Vec<Sample>>, usize)>,
    /// The samples this timeline recorded itself, after the shared ones.
    own: Option<Arc<Vec<Sample>>>,
}

/// The summary of the last of `samples` at or before `t_ms`.
fn last_at(samples: &[Sample], t_ms: u64) -> Option<PressureSummary> {
    match samples.partition_point(|&(at, _)| at <= t_ms) {
        0 => None,
        i => Some(samples[i - 1].1),
    }
}

impl PressureTimeline {
    /// The summary at `t_ms`: the last sample's at or before it, `None`
    /// before the first sample.
    pub fn at(&self, t_ms: u64) -> Option<PressureSummary> {
        if let Some(summary) = last_at(self.own(), t_ms) {
            return Some(summary);
        }
        let i = self.shared.partition_point(|(part, _)| part[0].0 <= t_ms);
        let (part, len) = &self.shared[i.checked_sub(1)?];
        last_at(&part[..*len], t_ms)
    }

    /// The number of samples.
    pub(crate) fn len(&self) -> usize {
        self.shared.iter().map(|&(_, len)| len).sum::<usize>() + self.own().len()
    }

    /// Every sample, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, PressureSummary)> {
        (self.shared.iter())
            .flat_map(|(part, len)| &part[..*len])
            .chain(self.own())
    }

    /// Appends the summary polled at `t_ms`, no earlier than the last
    /// sample, unless it equals the last sample's summary.
    pub(crate) fn record(&mut self, t_ms: u64, summary: PressureSummary) {
        let shared_last = self.shared.last().map(|(part, len)| &part[len - 1]);
        let last = self.own().last().or(shared_last);
        debug_assert!(last.is_none_or(|&(at, _)| at <= t_ms));
        if last.is_none_or(|&(_, s)| s != summary) {
            Arc::make_mut(self.own.get_or_insert_default()).push((t_ms, summary));
        }
    }

    /// Drops the spare capacity of the samples recorded here; for a run
    /// that has recorded its last sample.
    pub(crate) fn shrink_to_fit(&mut self) {
        if let Some(own) = self.own.as_mut().and_then(Arc::get_mut) {
            own.shrink_to_fit();
        }
    }

    /// The first `n` samples, sharing this timeline's storage.
    pub(crate) fn prefix(&self, n: usize) -> PressureTimeline {
        assert!(n <= self.len(), "a prefix of {n} samples of {}", self.len());
        let parts = (self.shared.iter().map(|(part, len)| (part, *len)))
            .chain(self.own.iter().map(|own| (own, own.len())));
        let mut shared = Vec::new();
        let mut left = n;
        for (part, len) in parts {
            if left == 0 {
                break;
            }
            let take = left.min(len);
            shared.push((Arc::clone(part), take));
            left -= take;
        }
        PressureTimeline { shared, own: None }
    }

    /// The samples this timeline recorded itself.
    pub(crate) fn own(&self) -> &[Sample] {
        self.own.as_deref().map_or(&[], Vec::as_slice)
    }
}

impl fmt::Debug for PressureTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl Serialize for PressureTimeline {
    fn serialize(&self) -> Content {
        Content::Seq(self.iter().map(Serialize::serialize).collect())
    }
}

impl Deserialize for PressureTimeline {
    fn deserialize(c: &Content) -> Result<Self, DeError> {
        let samples = Vec::<Sample>::deserialize(c)?;
        Ok(PressureTimeline {
            shared: Vec::new(),
            own: (!samples.is_empty()).then(|| Arc::new(samples)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_core::monitor::Zone;
    use proptest::prelude::*;

    /// One of a few summaries, so that consecutive polls often repeat.
    fn summary(v: u8) -> PressureSummary {
        PressureSummary {
            zone: [Zone::Green, Zone::Red][usize::from(v % 2)],
            used: u64::from(v),
            low: 10,
            high: 20,
            top: 30,
            watchdog_escalations: 0,
        }
    }

    /// The reference read: the last of every polled sample at or before
    /// `t_ms`.
    fn polled_at(polls: &[Sample], t_ms: u64) -> Option<PressureSummary> {
        match polls.partition_point(|&(at, _)| at <= t_ms) {
            0 => None,
            i => Some(polls[i - 1].1),
        }
    }

    /// `polls` without the samples that repeat the summary before them.
    fn changes(polls: &[Sample]) -> Vec<Sample> {
        let mut out: Vec<Sample> = Vec::new();
        for &(t, s) in polls {
            if out.last().is_none_or(|&(_, last)| last != s) {
                out.push((t, s));
            }
        }
        out
    }

    /// A run's polls after its resume point: gaps of 0–3 ms (0 = two
    /// samples at one instant, as a closing sample can be) and summaries
    /// from four values.
    fn polls() -> impl Strategy<Value = Vec<(u64, u8)>> {
        proptest::collection::vec((0u64..4, 0u8..4), 0..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A chain of runs, each resumed from the one before at a random
        /// poll (before its closing sample; a cut at 0 starts afresh),
        /// each recording its own polls and then a closing sample
        /// change-only. Every read of every run, from before its first
        /// sample to past its last, equals the read over all its polls,
        /// and it serializes as the change-only list of them.
        #[test]
        fn change_only_shared_reads_equal_reads_of_every_poll(
            runs in proptest::collection::vec((0usize..32, polls(), 0u64..3, 0u8..4), 1..7),
        ) {
            // Every poll of the previous run, before its closing sample,
            // and that run's timeline.
            let mut prev: Option<(Vec<Sample>, PressureTimeline)> = None;
            for (cut, tail, closing_gap, closing) in runs {
                let (mut all, mut timeline) = match &prev {
                    Some((polls, timeline)) => {
                        let cut = cut % (polls.len() + 1);
                        let kept = changes(&polls[..cut]).len();
                        (polls[..cut].to_vec(), timeline.prefix(kept))
                    }
                    None => (Vec::new(), PressureTimeline::default()),
                };
                prop_assert!(timeline.own().is_empty(), "a resumed timeline records nothing yet");
                let mut t = all.last().map_or(1, |&(t, _)| t);
                for (gap, v) in tail {
                    t += gap;
                    all.push((t, summary(v)));
                    timeline.record(t, summary(v));
                }
                let polls = all.clone();
                // The closing sample, as `World::result` records it.
                t += closing_gap;
                all.push((t, summary(closing)));
                let mut closed = timeline.clone();
                closed.record(t, summary(closing));
                closed.shrink_to_fit();
                for t_ms in 0..=t + 2 {
                    prop_assert_eq!(closed.at(t_ms), polled_at(&all, t_ms), "read at {} ms", t_ms);
                }
                let flat = changes(&all);
                prop_assert_eq!(closed.len(), flat.len());
                prop_assert_eq!(
                    serde_json::to_string(&closed).expect("serialize"),
                    serde_json::to_string(&flat).expect("serialize")
                );
                let back: PressureTimeline =
                    serde_json::from_str(&serde_json::to_string(&closed).expect("serialize"))
                        .expect("deserialize");
                prop_assert_eq!(back.iter().copied().collect::<Vec<_>>(), flat);
                prev = Some((polls, closed));
            }
        }
    }

    #[test]
    fn an_empty_timeline_allocates_nothing() {
        let timeline = PressureTimeline::default();
        assert!(timeline.shared.capacity() == 0 && timeline.own.is_none());
        assert_eq!(timeline.at(u64::MAX), None);
        assert_eq!(serde_json::to_string(&timeline).expect("serialize"), "[]");
    }

    #[test]
    fn a_prefix_of_a_prefix_shares_the_recording_run() {
        let mut first = PressureTimeline::default();
        for (t, v) in [(1, 0), (2, 1), (3, 2)] {
            first.record(t, summary(v));
        }
        let mut second = first.prefix(2);
        second.record(4, summary(3));
        let third = second.prefix(1);
        assert_eq!(third.shared.len(), 1);
        assert!(Arc::ptr_eq(
            &third.shared[0].0,
            first.own.as_ref().expect("recorded")
        ));
        let fourth = second.prefix(3);
        assert_eq!(fourth.shared.len(), 2, "one pair per recording run");
    }
}
