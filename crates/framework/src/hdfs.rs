//! HDFS-like input storage model.
//!
//! The paper stores job input on an HDFS cluster (v2.8.5) co-located with
//! the Spark workers, one 7,200 RPM disk per node. For the reproduction,
//! input is a set of fixed-size blocks whose reads are charged to the
//! shared [`m3_os::DiskModel`].

use serde::{Deserialize, Serialize};

/// A partitioned input dataset resident on the simulated disk.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HdfsInput {
    /// Total dataset bytes on this node.
    pub bytes: u64,
    /// Partition (block) size.
    pub block_size: u64,
}

impl HdfsInput {
    /// Creates a dataset description.
    ///
    /// # Panics
    ///
    /// Panics if the block size is zero.
    pub fn new(bytes: u64, block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        HdfsInput { bytes, block_size }
    }
}
