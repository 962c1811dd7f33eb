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

    /// Number of blocks (rounding up; the tail block is short).
    pub fn num_blocks(&self) -> u32 {
        self.bytes.div_ceil(self.block_size) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3_sim::units::{GIB, MIB};

    #[test]
    fn block_count_rounds_up() {
        let h = HdfsInput::new(GIB + MIB, 128 * MIB);
        assert_eq!(h.num_blocks(), 9);
    }

    #[test]
    fn exact_multiple_has_no_tail() {
        let h = HdfsInput::new(GIB, 128 * MIB);
        assert_eq!(h.num_blocks(), 8);
    }
}
