//! Control-group (container) accounting.
//!
//! The paper's testbed caps each node at 64 GB with a Linux control group
//! (§7.1), and its future work asks whether M3 extends to containers (§9).
//! This module provides the accounting half: named groups of processes with
//! a byte limit, usage aggregation, and an over-limit query. *Policy* —
//! what to do when a container exceeds its limit (throttle, signal, kill) —
//! stays outside the kernel, exactly as M3's end-to-end principle demands;
//! the workloads crate uses this to build a per-container static-limit
//! baseline in the spirit of `memory.high` (and of MemOpLight's container
//! world, §8).

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::kernel::Kernel;
use crate::process::Pid;

/// A named group of processes with a memory limit.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cgroup {
    /// Human-readable name.
    pub name: String,
    /// Byte limit (`memory.high` semantics: exceeding triggers reclaim
    /// pressure, not an immediate kill).
    pub limit: u64,
    /// Member processes.
    members: BTreeSet<Pid>,
}

impl Cgroup {
    /// Creates an empty group.
    pub fn new(name: impl Into<String>, limit: u64) -> Self {
        Cgroup {
            name: name.into(),
            limit,
            members: BTreeSet::new(),
        }
    }

    /// Adds a process to the group.
    pub fn add(&mut self, pid: Pid) {
        self.members.insert(pid);
    }

    /// Removes a process (exit or migration).
    pub fn remove(&mut self, pid: Pid) {
        self.members.remove(&pid);
    }

    /// True if `pid` is a member.
    pub fn contains(&self, pid: Pid) -> bool {
        self.members.contains(&pid)
    }

    /// The member processes.
    pub fn members(&self) -> impl Iterator<Item = Pid> + '_ {
        self.members.iter().copied()
    }

    /// Combined committed bytes of all (living) members.
    pub fn usage(&self, os: &Kernel) -> u64 {
        self.members.iter().map(|&p| os.rss(p)).sum()
    }

    /// Bytes over the limit (zero when within it).
    pub fn over_limit(&self, os: &Kernel) -> u64 {
        self.usage(os).saturating_sub(self.limit)
    }
}

/// A set of disjoint control groups.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CgroupSet {
    groups: Vec<Cgroup>,
}

impl CgroupSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        CgroupSet::default()
    }

    /// Adds a group and returns its index.
    ///
    /// # Panics
    ///
    /// Panics if any member already belongs to another group.
    pub fn add(&mut self, group: Cgroup) -> usize {
        for existing in &self.groups {
            for pid in group.members() {
                assert!(
                    !existing.contains(pid),
                    "pid {pid} already in cgroup {}",
                    existing.name
                );
            }
        }
        self.groups.push(group);
        self.groups.len() - 1
    }

    /// The groups.
    pub fn groups(&self) -> &[Cgroup] {
        &self.groups
    }

    /// Mutable access to a group by index.
    pub fn group_mut(&mut self, idx: usize) -> &mut Cgroup {
        &mut self.groups[idx]
    }

    /// Indices of groups currently over their limit.
    pub fn over_limit(&self, os: &Kernel) -> Vec<usize> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| g.over_limit(os) > 0)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelConfig;
    use m3_sim::units::GIB;

    fn setup() -> (Kernel, CgroupSet) {
        (
            Kernel::new(KernelConfig::with_total(64 * GIB)),
            CgroupSet::new(),
        )
    }

    #[test]
    fn usage_aggregates_members() {
        let (mut os, mut set) = setup();
        let a = os.spawn("a");
        let b = os.spawn("b");
        let mut g = Cgroup::new("tenant", 8 * GIB);
        g.add(a);
        g.add(b);
        let idx = set.add(g);
        os.grow(a, 3 * GIB).unwrap();
        os.grow(b, 2 * GIB).unwrap();
        assert_eq!(set.groups()[idx].usage(&os), 5 * GIB);
        assert_eq!(set.groups()[idx].over_limit(&os), 0);
        os.grow(b, 4 * GIB).unwrap();
        assert_eq!(set.groups()[idx].over_limit(&os), GIB);
        assert_eq!(set.over_limit(&os), vec![idx]);
    }

    #[test]
    fn exited_members_stop_counting() {
        let (mut os, mut set) = setup();
        let a = os.spawn("a");
        let mut g = Cgroup::new("t", GIB);
        g.add(a);
        set.add(g);
        os.grow(a, 2 * GIB).unwrap();
        os.exit(a);
        assert_eq!(set.groups()[0].usage(&os), 0);
        assert!(set.over_limit(&os).is_empty());
    }

    #[test]
    #[should_panic(expected = "already in cgroup")]
    fn disjointness_enforced() {
        let (mut os, mut set) = setup();
        let a = os.spawn("a");
        let mut g1 = Cgroup::new("one", GIB);
        g1.add(a);
        set.add(g1);
        let mut g2 = Cgroup::new("two", GIB);
        g2.add(a);
        set.add(g2);
    }

    #[test]
    fn membership_changes() {
        let (mut os, mut set) = setup();
        let a = os.spawn("a");
        let idx = set.add(Cgroup::new("t", GIB));
        set.group_mut(idx).add(a);
        assert!(set.groups()[idx].contains(a));
        set.group_mut(idx).remove(a);
        assert!(!set.groups()[idx].contains(a));
        assert_eq!(set.groups()[idx].limit, GIB);
    }
}
