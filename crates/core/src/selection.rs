//! Algorithm 1: selective notification (§5.1).
//!
//! When the system is above the high threshold, only *selected* processes
//! are signalled, to minimise handling overhead. The processes are sorted by
//! a configurable order and signalled one by one until the sum of their
//! expected reclamation amounts covers the target (current usage minus the
//! high threshold). The same routine, with the same ordering, also selects
//! kill victims when the system stays above the top of memory.

use m3_os::Pid;
use m3_sim::clock::SimTime;
use m3_sim::trace::{CandidateInfo, Criticality};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The configurable sort order of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortOrder {
    /// Newest process first (favours batch jobs; the paper's default).
    NewestFirst,
    /// Oldest process first (favours interactive jobs).
    OldestFirst,
    /// Largest memory usage first.
    LargestRss,
    /// Largest expected reclamation first.
    LargestExpectedReclaim,
}

impl SortOrder {
    /// Stable name recorded in trace events.
    pub fn name(self) -> &'static str {
        match self {
            SortOrder::NewestFirst => "newest_first",
            SortOrder::OldestFirst => "oldest_first",
            SortOrder::LargestRss => "largest_rss",
            SortOrder::LargestExpectedReclaim => "largest_expected_reclaim",
        }
    }

    /// Parses a [`SortOrder::name`] string back (used by the trace oracle).
    pub fn from_name(s: &str) -> Option<SortOrder> {
        match s {
            "newest_first" => Some(SortOrder::NewestFirst),
            "oldest_first" => Some(SortOrder::OldestFirst),
            "largest_rss" => Some(SortOrder::LargestRss),
            "largest_expected_reclaim" => Some(SortOrder::LargestExpectedReclaim),
            _ => None,
        }
    }
}

/// A candidate process as Algorithm 1 sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The process id.
    pub pid: Pid,
    /// When the process was spawned.
    pub spawned_at: SimTime,
    /// Current resident set size, bytes.
    pub rss: u64,
    /// Expected reclamation on a high signal, bytes.
    pub expected_reclaim: u64,
    /// The process's criticality class (primary sort key).
    pub crit: Criticality,
}

impl Candidate {
    /// The candidate as recorded in [`m3_sim::trace`] selection events.
    pub fn info(&self) -> CandidateInfo {
        CandidateInfo {
            pid: self.pid,
            spawned_at_ms: self.spawned_at.as_millis(),
            rss: self.rss,
            expected_reclaim: self.expected_reclaim,
            crit: self.crit,
        }
    }

    /// Rebuilds a candidate from its trace record (used by the oracle to
    /// replay Algorithm 1).
    pub fn from_info(i: &CandidateInfo) -> Candidate {
        Candidate {
            pid: i.pid,
            spawned_at: SimTime::from_millis(i.spawned_at_ms),
            rss: i.rss,
            expected_reclaim: i.expected_reclaim,
            crit: i.crit,
        }
    }
}

/// The paper's posture-only comparison: the configured order, ties broken
/// by pid for determinism.
fn posture_cmp(a: &Candidate, b: &Candidate, order: SortOrder) -> Ordering {
    let by_posture = match order {
        SortOrder::NewestFirst => b.spawned_at.cmp(&a.spawned_at),
        SortOrder::OldestFirst => a.spawned_at.cmp(&b.spawned_at),
        SortOrder::LargestRss => b.rss.cmp(&a.rss),
        SortOrder::LargestExpectedReclaim => b.expected_reclaim.cmp(&a.expected_reclaim),
    };
    by_posture.then(a.pid.cmp(&b.pid))
}

/// Sorts candidates in signalling priority order (highest priority first).
///
/// Criticality is the primary key — more-expendable classes (batch before
/// standard before latency-critical) sort ahead — and the paper's configured
/// posture order breaks ties *within* a class. A fleet where every job is
/// `Standard` (the default) therefore sorts exactly as the paper's
/// Algorithm 1 did. Final ties break by pid so results are deterministic.
pub fn sort_candidates(candidates: &mut [Candidate], order: SortOrder) {
    candidates.sort_by(|a, b| {
        b.crit
            .expendability()
            .cmp(&a.crit.expendability())
            .then_with(|| posture_cmp(a, b, order))
    });
}

/// Algorithm 1: returns the pids to signal, in order, so that the sum of
/// their expected reclamation amounts reaches `target` (usage minus the high
/// threshold). Returns an empty vector when `target` is zero.
///
/// # Examples
///
/// ```
/// use m3_core::selection::{select_processes, Candidate, SortOrder};
/// use m3_sim::trace::Criticality;
/// use m3_sim::SimTime;
///
/// let candidates = vec![
///     Candidate { pid: 1, spawned_at: SimTime::from_secs(0), rss: 100, expected_reclaim: 40,
///                 crit: Criticality::Standard },
///     Candidate { pid: 2, spawned_at: SimTime::from_secs(9), rss: 100, expected_reclaim: 40,
///                 crit: Criticality::Standard },
/// ];
/// // Newest first: pid 2 alone covers a target of 30.
/// assert_eq!(select_processes(&candidates, SortOrder::NewestFirst, 30), vec![2]);
/// // A target of 50 needs both.
/// assert_eq!(select_processes(&candidates, SortOrder::NewestFirst, 50), vec![2, 1]);
/// ```
pub fn select_processes(candidates: &[Candidate], order: SortOrder, target: u64) -> Vec<Pid> {
    if target == 0 {
        return Vec::new();
    }
    let mut sorted = candidates.to_vec();
    sort_candidates(&mut sorted, order);
    take_until_target(&sorted, target)
}

fn take_until_target(sorted: &[Candidate], target: u64) -> Vec<Pid> {
    let mut selected = Vec::new();
    let mut expected: u64 = 0;
    for c in sorted {
        if expected >= target {
            break;
        }
        selected.push(c.pid);
        expected += c.expected_reclaim;
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cand(pid: Pid, spawn_s: u64, rss: u64, expect: u64) -> Candidate {
        Candidate {
            pid,
            spawned_at: SimTime::from_secs(spawn_s),
            rss,
            expected_reclaim: expect,
            crit: Criticality::Standard,
        }
    }

    fn classed(pid: Pid, spawn_s: u64, crit: Criticality) -> Candidate {
        Candidate {
            crit,
            ..cand(pid, spawn_s, 100, 30)
        }
    }

    #[test]
    fn zero_target_selects_nobody() {
        let cs = vec![cand(1, 0, 100, 50)];
        assert!(select_processes(&cs, SortOrder::NewestFirst, 0).is_empty());
    }

    #[test]
    fn selection_stops_once_target_covered() {
        let cs = vec![cand(1, 0, 0, 30), cand(2, 1, 0, 30), cand(3, 2, 0, 30)];
        // Newest first: 3, then 2; 60 >= 50, so 1 is spared.
        assert_eq!(
            select_processes(&cs, SortOrder::NewestFirst, 50),
            vec![3, 2]
        );
    }

    #[test]
    fn all_selected_when_target_exceeds_total() {
        let cs = vec![cand(1, 0, 0, 10), cand(2, 1, 0, 10)];
        assert_eq!(
            select_processes(&cs, SortOrder::NewestFirst, 1000),
            vec![2, 1]
        );
    }

    #[test]
    fn oldest_first_reverses_priority() {
        let cs = vec![cand(1, 0, 0, 30), cand(2, 5, 0, 30)];
        assert_eq!(select_processes(&cs, SortOrder::OldestFirst, 10), vec![1]);
    }

    #[test]
    fn largest_rss_order() {
        let cs = vec![
            cand(1, 0, 500, 10),
            cand(2, 9, 100, 10),
            cand(3, 5, 900, 10),
        ];
        assert_eq!(
            select_processes(&cs, SortOrder::LargestRss, 25),
            vec![3, 1, 2]
        );
    }

    #[test]
    fn largest_expected_reclaim_order() {
        let cs = vec![cand(1, 0, 0, 10), cand(2, 0, 0, 90), cand(3, 0, 0, 40)];
        assert_eq!(
            select_processes(&cs, SortOrder::LargestExpectedReclaim, 100),
            vec![2, 3]
        );
    }

    #[test]
    fn ties_break_by_pid_for_determinism() {
        let cs = vec![cand(7, 3, 50, 20), cand(4, 3, 50, 20), cand(9, 3, 50, 20)];
        assert_eq!(
            select_processes(&cs, SortOrder::NewestFirst, 1000),
            vec![4, 7, 9]
        );
    }

    #[test]
    fn empty_candidates_is_fine() {
        assert!(select_processes(&[], SortOrder::LargestRss, 100).is_empty());
    }

    #[test]
    fn criticality_dominates_the_posture_order() {
        // Newest-first would pick the latency-critical pid 3 (spawned last);
        // criticality must redirect pressure onto batch, then standard.
        let cs = vec![
            classed(1, 0, Criticality::Batch),
            classed(2, 5, Criticality::Standard),
            classed(3, 9, Criticality::LatencyCritical),
        ];
        assert_eq!(
            select_processes(&cs, SortOrder::NewestFirst, 1000),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn posture_breaks_ties_within_a_class() {
        let cs = vec![
            classed(1, 0, Criticality::Batch),
            classed(2, 9, Criticality::Batch),
            classed(3, 5, Criticality::LatencyCritical),
        ];
        // Within Batch, newest-first puts pid 2 ahead of pid 1.
        assert_eq!(
            select_processes(&cs, SortOrder::NewestFirst, 1000),
            vec![2, 1, 3]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// With every candidate in one class, the class key never decides,
        /// so Algorithm 1 sorts by the paper's posture order alone. Small
        /// value ranges force ties, which the pid must break.
        #[test]
        fn one_class_sort_is_the_posture_order(
            raw in proptest::collection::vec((0u64..8, 0u64..6, 0u64..6, 0u64..6), 0..24),
            class in 0usize..3,
        ) {
            let crit = Criticality::ALL[class];
            let cs: Vec<Candidate> = raw
                .iter()
                .enumerate()
                .map(|(i, &(pid, spawn_s, rss, expect))| Candidate {
                    crit,
                    ..cand(pid * 100 + i as Pid, spawn_s, rss, expect)
                })
                .collect();
            for order in [
                SortOrder::NewestFirst,
                SortOrder::OldestFirst,
                SortOrder::LargestRss,
                SortOrder::LargestExpectedReclaim,
            ] {
                let mut sorted = cs.clone();
                sort_candidates(&mut sorted, order);
                let mut posture = cs.clone();
                posture.sort_by(|a, b| posture_cmp(a, b, order));
                prop_assert_eq!(sorted, posture);
            }
        }
    }

    #[test]
    fn candidate_info_round_trips_criticality() {
        let c = classed(7, 3, Criticality::Batch);
        assert_eq!(Candidate::from_info(&c.info()), c);
    }
}
