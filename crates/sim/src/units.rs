//! Byte-size units.
//!
//! Sizes throughout the workspace are plain `u64` byte counts; this module
//! provides the constants the paper speaks in (GB of heap, 4 KiB pages) plus
//! a GiB conversion.

/// One kibibyte.
pub const KIB: u64 = 1024;
/// One mebibyte.
pub const MIB: u64 = 1024 * KIB;
/// One gibibyte.
pub const GIB: u64 = 1024 * MIB;
/// The simulated page size (4 KiB, matching Linux on x86-64).
pub const PAGE_SIZE: u64 = 4 * KIB;

/// Converts a byte count to fractional GiB for plotting.
pub fn bytes_to_gib(bytes: u64) -> f64 {
    bytes as f64 / GIB as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_relate() {
        assert_eq!(MIB, 1024 * KIB);
        assert_eq!(GIB, 1024 * MIB);
        assert_eq!(PAGE_SIZE, 4096);
    }

    #[test]
    fn gib_conversion() {
        assert!((bytes_to_gib(3 * GIB) - 3.0).abs() < 1e-12);
        assert!((bytes_to_gib(5 * GIB / 4) - 1.25).abs() < 1e-12);
    }
}
