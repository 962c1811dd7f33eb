//! A `/proc/meminfo` analogue.
//!
//! The paper's monitor polls `MemAvailable` once per second (§6). We expose
//! the same quantity: the bytes an application could allocate without pushing
//! the system into swap.

use serde::{Deserialize, Serialize};

/// Snapshot of system memory state, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemInfo {
    /// Total physical memory visible to applications (the cgroup limit in
    /// the paper's testbed: 64 GB).
    pub total: u64,
    /// Physical memory currently resident.
    pub used: u64,
    /// `MemAvailable`: bytes allocatable without swapping.
    pub available: u64,
    /// Bytes currently swapped out (zero unless the system is overcommitted).
    pub swapped: u64,
}
