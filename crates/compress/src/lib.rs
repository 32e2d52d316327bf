//! Register value compression for the G-Scalar architecture (HPCA 2017).
//!
//! The paper's Section 3 proposes a byte-wise register value compression
//! scheme: all 4-byte lane values of a vector register are compared byte
//! plane by byte plane, and the *prefix* of most-significant byte planes
//! that are identical across lanes is stored once (in a base value
//! register, BVR) instead of per lane. Four encoding bits (`enc[3:0]`,
//! stored in an encoding bit register, EBR) record which prefix applies.
//! Byte-plane reordering in the SRAM arrays then lets a read activate
//! only the arrays holding differing byte planes.
//!
//! This crate implements:
//!
//! * [`Encoding`] — the five `enc[3:0]` states and their storage /
//!   array-activation costs.
//! * [`bytewise`] — the compression and decompression functions,
//!   including the active-mask-aware comparison chain that masks
//!   inactive lanes out of the comparison so *divergent* writes can
//!   still be classified (Section 4.2, Figure 7).
//! * [`regmeta`] — architectural per-register state (EBR + BVR + `D`/`FS`
//!   bits), with the exact read/write semantics of Sections 3.3–4.3:
//!   divergent writes are not compressed but still classified, the BVR
//!   then holds the active mask, and half-register compression tracks a
//!   per-16-lane-chunk encoding.
//! * [`bdi`] — a Base-Delta-Immediate compressor, the scheme used by the
//!   Warped-Compression baseline the paper compares against.
//! * [`stats`] — encoding histograms backing the paper's Figure 8.
//!
//! # Examples
//!
//! ```
//! use gscalar_compress::{bytewise, Encoding, full_mask};
//!
//! // 32 lanes holding addresses that differ only in the low byte.
//! let values: Vec<u32> = (0..32).map(|i| 0xC040_3900 + i * 8).collect();
//! assert_eq!(bytewise::encode(&values, full_mask(32)), Encoding::B321);
//!
//! // A warp-uniform value compresses to a scalar.
//! let uniform = vec![42u32; 32];
//! assert_eq!(bytewise::encode(&uniform, full_mask(32)), Encoding::Scalar);
//! ```

pub mod bdi;
pub mod bytewise;
pub mod encoding;
pub mod regmeta;
pub mod stats;

pub use bytewise::{compress, decompress, Compressed};
pub use encoding::Encoding;
pub use regmeta::{ChunkFlags, ReadClass, ReadInfo, RegFileMeta, RegMeta, WriteInfo};
pub use stats::EncodingHistogram;

/// Number of lanes in a half-register compression chunk (Section 3.2:
/// two independently-activated arrays per byte plane each hold 16
/// lanes' worth of a byte plane).
pub const CHUNK_LANES: usize = 16;

/// A full mask of the `n` lowest lanes.
///
/// # Panics
///
/// Panics if `n > 64`.
#[must_use]
pub fn full_mask(n: usize) -> u64 {
    assert!(n <= 64, "at most 64 lanes supported");
    if n == 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mask_extremes() {
        assert_eq!(full_mask(0), 0);
        assert_eq!(full_mask(1), 1);
        assert_eq!(full_mask(32), 0xFFFF_FFFF);
        assert_eq!(full_mask(64), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "64 lanes")]
    fn full_mask_too_wide() {
        let _ = full_mask(65);
    }
}
