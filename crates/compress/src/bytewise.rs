//! The byte-wise compressor/decompressor (paper Sections 3.1, 4.2).
//!
//! The comparison core runs branchlessly over `u64` lane-mask words
//! (SIMD-within-a-register): lanes are packed two per word, XORed
//! against the broadcast base value, and masked difference bits are
//! OR-accumulated so a single fold yields the hardware's `eq[3:0]`
//! signals. The original per-lane, per-byte formulation survives in
//! [`mod@reference`] as the executable specification the differential
//! proptests and the microbenchmark baseline run against.

use std::fmt;

use crate::encoding::Encoding;

/// Largest register width (in lanes) [`compress`] accepts; sized for
/// the 64-wide warp ablation (Figure 10), not just the default 32.
pub const MAX_LANES: usize = 64;

/// Inline delta capacity: `Encoding::None` stores all four byte planes,
/// so the worst case is `4 * MAX_LANES` delta bytes.
const MAX_DELTA_BYTES: usize = 4 * MAX_LANES;

/// Per-byte-plane equality across active lanes, as the hardware's
/// `eq[3:0]` signals: bit `i` is set when `byte[i]` of every active lane
/// matches.
///
/// Inactive lanes are *skipped*: each lane's XOR against the first
/// active lane's value is ANDed with an all-ones-or-all-zeros word
/// derived from its mask bit, so inactive lanes contribute no
/// difference bits. (Observably equivalent to broadcasting the first
/// active value over inactive lanes before the Figure 7(a) comparison
/// chain — see the `divergent_mask_matches_broadcast_formulation`
/// test — but the mechanism is masking, not broadcasting.) When
/// `mask` covers every lane of `values` (bits past the register are
/// ignored) nothing needs masking, and the comparison is a plain
/// OR-fold of `v ^ first`.
///
/// # Panics
///
/// Panics if `mask` selects no lane or a lane outside `values`.
#[must_use]
pub fn eq_planes(values: &[u32], mask: u64) -> u8 {
    let first = first_active(values, mask);
    let full = crate::full_mask(values.len().min(MAX_LANES));
    if values.len() <= MAX_LANES && mask & full == full {
        return eq_bits(values.iter().fold(0, |acc, &v| acc | (v ^ first)));
    }
    let broadcast = (u64::from(first) << 32) | u64::from(first);
    // OR-accumulated masked difference bits, two lanes per word.
    let mut acc = 0u64;
    let mut lane = 0u32;
    let mut pairs = values.chunks_exact(2);
    for pair in &mut pairs {
        let w = (u64::from(pair[1]) << 32) | u64::from(pair[0]);
        let lane_mask = (((mask >> lane) & 1) * 0xFFFF_FFFF)
            | ((((mask >> (lane + 1)) & 1) * 0xFFFF_FFFF) << 32);
        acc |= (w ^ broadcast) & lane_mask;
        lane += 2;
    }
    if let [v] = *pairs.remainder() {
        let lane_mask = ((mask >> lane) & 1) * 0xFFFF_FFFF;
        acc |= (u64::from(v) ^ u64::from(first)) & lane_mask;
    }
    // Fold the two packed lanes.
    eq_bits((acc as u32) | ((acc >> 32) as u32))
}

/// The `eq[3:0]` signals of OR-accumulated difference bits: one eq bit
/// per byte plane with no difference.
fn eq_bits(diff: u32) -> u8 {
    u8::from(diff & 0x0000_00FF == 0)
        | (u8::from(diff & 0x0000_FF00 == 0) << 1)
        | (u8::from(diff & 0x00FF_0000 == 0) << 2)
        | (u8::from(diff & 0xFF00_0000 == 0) << 3)
}

/// Encodes the `eq[3:0]` signals into the prefix-form `enc[3:0]`
/// encoding: only a run of uniform byte planes starting at `byte\[3\]`
/// counts (Section 3.2).
#[must_use]
pub fn prefix_encoding(eq: u8) -> Encoding {
    if eq & 0b1000 == 0 {
        Encoding::None
    } else if eq & 0b0100 == 0 {
        Encoding::B3
    } else if eq & 0b0010 == 0 {
        Encoding::B32
    } else if eq & 0b0001 == 0 {
        Encoding::B321
    } else {
        Encoding::Scalar
    }
}

/// Classifies a write-back value vector under an active mask.
///
/// Equivalent to `prefix_encoding(eq_planes(..))` — the compressor's
/// one-cycle comparison logic.
///
/// # Panics
///
/// Panics if `mask` selects no lane or a lane outside `values`.
#[must_use]
pub fn encode(values: &[u32], mask: u64) -> Encoding {
    prefix_encoding(eq_planes(values, mask))
}

/// The first active lane's value — the base value `op[0]` the paper
/// always takes from the lowest lane (Section 3.1), generalized to the
/// lowest *active* lane for divergent comparisons.
///
/// # Panics
///
/// Panics if `mask` selects no lane or a lane outside `values`.
#[must_use]
pub fn first_active(values: &[u32], mask: u64) -> u32 {
    // The empty-mask check must precede the trailing_zeros-derived lane
    // bound check, so an empty mask reports itself rather than a bogus
    // "lane 64 beyond N" bound failure.
    assert!(mask != 0, "active mask must select at least one lane");
    let lane = mask.trailing_zeros() as usize;
    assert!(
        lane < values.len(),
        "active mask selects lane {lane} beyond {}",
        values.len()
    );
    values[lane]
}

/// A compressed vector register value: base + per-lane delta bytes.
///
/// Delta bytes are stored in byte-plane order (all lanes' `byte[0]`
/// first, then `byte[1]`, …) matching the reordered SRAM layout of
/// Figure 3. The delta region lives in a fixed inline buffer — the
/// write-back hot path constructs one of these per register write, and
/// must not touch the heap.
#[derive(Clone)]
pub struct Compressed {
    /// The encoding state.
    pub enc: Encoding,
    /// The base value (bytes above the delta region are significant).
    pub base: u32,
    /// Stored delta byte count (`delta_bytes_per_lane * lanes`).
    len: u16,
    /// Inline delta storage; only `buf[..len]` is meaningful.
    buf: [u8; MAX_DELTA_BYTES],
}

impl Compressed {
    /// Per-lane delta bytes, grouped by byte plane (lowest plane first).
    #[must_use]
    pub fn deltas(&self) -> &[u8] {
        &self.buf[..usize::from(self.len)]
    }

    /// Total compressed size in bytes (base bytes + stored deltas).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.enc.base_bytes() + usize::from(self.len)
    }
}

impl PartialEq for Compressed {
    fn eq(&self, other: &Self) -> bool {
        self.enc == other.enc && self.base == other.base && self.deltas() == other.deltas()
    }
}

impl Eq for Compressed {}

impl fmt::Debug for Compressed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Compressed")
            .field("enc", &self.enc)
            .field("base", &self.base)
            .field("deltas", &self.deltas())
            .finish()
    }
}

/// Compresses a full (non-divergent) vector register value.
///
/// # Panics
///
/// Panics if `values` is empty or wider than [`MAX_LANES`] lanes.
#[must_use]
pub fn compress(values: &[u32]) -> Compressed {
    assert!(!values.is_empty(), "cannot compress an empty register");
    assert!(
        values.len() <= MAX_LANES,
        "register of {} lanes exceeds MAX_LANES {MAX_LANES}",
        values.len()
    );
    let mask = crate::full_mask(values.len());
    let enc = encode(values, mask);
    let base = values[0];
    let dpl = enc.delta_bytes_per_lane();
    let lanes = values.len();
    let mut buf = [0u8; MAX_DELTA_BYTES];
    for plane in 0..dpl {
        let row = &mut buf[plane * lanes..(plane + 1) * lanes];
        for (d, &v) in row.iter_mut().zip(values) {
            *d = (v >> (plane * 8)) as u8;
        }
    }
    Compressed {
        enc,
        base,
        len: (dpl * lanes) as u16,
        buf,
    }
}

/// Decompresses back to `lanes` 4-byte values.
///
/// # Panics
///
/// Panics if `c` does not hold exactly
/// `c.enc.delta_bytes_per_lane() * lanes` delta bytes.
#[must_use]
pub fn decompress(c: &Compressed, lanes: usize) -> Vec<u32> {
    let dpl = c.enc.delta_bytes_per_lane();
    let deltas = c.deltas();
    assert_eq!(
        deltas.len(),
        dpl * lanes,
        "delta byte count does not match lane count"
    );
    let base_mask: u32 = match dpl {
        0 => u32::MAX,
        4 => 0,
        n => !((1u32 << (n * 8)) - 1),
    };
    (0..lanes)
        .map(|lane| {
            let mut v = c.base & base_mask;
            for plane in 0..dpl {
                v |= u32::from(deltas[plane * lanes + lane]) << (plane * 8);
            }
            v
        })
        .collect()
}

/// Number of uniform most-significant byte planes across active lanes
/// of 64-bit values — the Section 5.3 extension study: with 64-bit
/// address computation, warp addresses share even more high bytes, so
/// the compression opportunity grows.
///
/// Returns a value in `0..=8`.
///
/// # Panics
///
/// Panics if `mask` selects no lane or a lane outside `values`.
#[must_use]
pub fn uniform_prefix_bytes_u64(values: &[u64], mask: u64) -> usize {
    assert!(mask != 0, "active mask must select at least one lane");
    let lane = mask.trailing_zeros() as usize;
    assert!(lane < values.len(), "mask selects lane beyond values");
    let first = values[lane];
    // OR-accumulate masked differences; the highest set byte bounds the
    // uniform prefix in one leading_zeros at the end.
    let mut acc = 0u64;
    for (l, &v) in values.iter().enumerate() {
        let lane_mask = ((mask >> l) & 1).wrapping_neg();
        acc |= (v ^ first) & lane_mask;
    }
    (acc.leading_zeros() / 8) as usize
}

/// Classifies each 16-lane chunk of a register independently
/// (half-register compression, Section 3.2/4.3).
///
/// Yields one `(Encoding, base)` per chunk, computed lazily so the
/// register-write path allocates nothing. Only meaningful for
/// non-divergent writes, matching the paper's design choice.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn encode_chunks(values: &[u32]) -> impl ExactSizeIterator<Item = (Encoding, u32)> + '_ {
    assert!(!values.is_empty(), "cannot encode an empty register");
    values.chunks(crate::CHUNK_LANES).map(|chunk| {
        let mask = crate::full_mask(chunk.len());
        (encode(chunk, mask), chunk[0])
    })
}

/// The original per-lane, per-byte implementation, kept verbatim as
/// the executable specification for the differential proptests
/// (`tests/properties.rs`) and as the baseline the compressor
/// microbenchmark measures the word-level rewrite against. Not part of
/// the public API.
#[doc(hidden)]
pub mod reference {
    use crate::encoding::Encoding;

    /// Per-lane `eq[3:0]` computation: iterate active lanes, clear eq
    /// bits per differing byte.
    #[must_use]
    pub fn eq_planes(values: &[u32], mask: u64) -> u8 {
        let first = super::first_active(values, mask);
        let mut eq = 0b1111u8;
        for (lane, &v) in values.iter().enumerate() {
            if mask & (1 << lane) == 0 {
                continue;
            }
            let diff = v ^ first;
            for byte in 0..4 {
                if (diff >> (byte * 8)) & 0xFF != 0 {
                    eq &= !(1 << byte);
                }
            }
        }
        eq
    }

    /// Per-lane classification (reference formulation).
    #[must_use]
    pub fn encode(values: &[u32], mask: u64) -> Encoding {
        super::prefix_encoding(eq_planes(values, mask))
    }

    /// Reference compressed form with heap-allocated deltas, as the
    /// pre-rewrite `Compressed` stored them.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Compressed {
        /// The encoding state.
        pub enc: Encoding,
        /// The base value.
        pub base: u32,
        /// Per-lane delta bytes in byte-plane order.
        pub deltas: Vec<u8>,
    }

    impl Compressed {
        /// Total compressed size in bytes.
        #[must_use]
        pub fn size_bytes(&self) -> usize {
            self.enc.base_bytes() + self.deltas.len()
        }
    }

    /// Reference compression: allocates a delta `Vec` per call.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn compress(values: &[u32]) -> Compressed {
        assert!(!values.is_empty(), "cannot compress an empty register");
        let mask = crate::full_mask(values.len());
        let enc = encode(values, mask);
        let base = values[0];
        let dpl = enc.delta_bytes_per_lane();
        let mut deltas = Vec::with_capacity(dpl * values.len());
        for plane in 0..dpl {
            for &v in values {
                deltas.push((v >> (plane * 8)) as u8);
            }
        }
        Compressed { enc, base, deltas }
    }

    /// Reference decompression.
    ///
    /// # Panics
    ///
    /// Panics if `c.deltas` does not hold exactly
    /// `c.enc.delta_bytes_per_lane() * lanes` bytes.
    #[must_use]
    pub fn decompress(c: &Compressed, lanes: usize) -> Vec<u32> {
        let dpl = c.enc.delta_bytes_per_lane();
        assert_eq!(
            c.deltas.len(),
            dpl * lanes,
            "delta byte count does not match lane count"
        );
        let base_mask: u32 = match dpl {
            0 => u32::MAX,
            4 => 0,
            n => !((1u32 << (n * 8)) - 1),
        };
        (0..lanes)
            .map(|lane| {
                let mut v = c.base & base_mask;
                for plane in 0..dpl {
                    v |= u32::from(c.deltas[plane * lanes + lane]) << (plane * 8);
                }
                v
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_mask;

    #[test]
    fn paper_running_example() {
        // Section 2.2/3.1: C04039C0, C04039C8, ..., C04039F8.
        let values: Vec<u32> = (0..8).map(|i| 0xC040_39C0 + i * 8).collect();
        let eq = eq_planes(&values, full_mask(8));
        assert_eq!(eq, 0b1110);
        assert_eq!(encode(&values, full_mask(8)), Encoding::B321);
        let c = compress(&values);
        assert_eq!(c.base & 0xFFFF_FF00, 0xC040_3900);
        assert_eq!(c.size_bytes(), 3 + 8); // 3-byte base + 8 delta bytes
        assert_eq!(decompress(&c, 8), values);
    }

    #[test]
    fn scalar_register() {
        let values = vec![0xDEAD_BEEF; 32];
        assert_eq!(encode(&values, full_mask(32)), Encoding::Scalar);
        let c = compress(&values);
        assert_eq!(c.size_bytes(), 4);
        assert_eq!(decompress(&c, 32), values);
    }

    #[test]
    fn incompressible_when_msb_differs() {
        // byte[3] differs even though the low bytes agree: prefix rule
        // forbids compression (Section 3.2).
        let values = vec![0x0100_0055, 0x0200_0055];
        assert_eq!(encode(&values, full_mask(2)), Encoding::None);
        let c = compress(&values);
        assert_eq!(c.size_bytes(), 8);
        assert_eq!(decompress(&c, 2), values);
    }

    #[test]
    fn each_prefix_level_reachable() {
        let mk = |hi: u32, lo: u32| vec![hi, hi ^ lo];
        assert_eq!(encode(&mk(0x11223344, 0x0000_0001), 3), Encoding::B321);
        assert_eq!(encode(&mk(0x11223344, 0x0000_0100), 3), Encoding::B32);
        assert_eq!(encode(&mk(0x11223344, 0x0001_0000), 3), Encoding::B3);
        assert_eq!(encode(&mk(0x11223344, 0x0100_0000), 3), Encoding::None);
    }

    #[test]
    fn divergent_mask_ignores_inactive_lanes() {
        // Section 4.2 example: values AAABABC with mask 10101100 ⇒
        // active lanes all hold A.
        let a = 7u32;
        let b = 9u32;
        let c = 11u32;
        let values = vec![a, a, a, b, a, b, c, a];
        // Active lanes: 0, 1, 2, 4 (LSB-first mask 0b0001_0111).
        let mask = 0b0001_0111u64;
        assert_eq!(encode(&values, mask), Encoding::Scalar);
        assert_eq!(first_active(&values, mask), a);
        // A mask touching lane 3 (value B) breaks the scalar.
        assert_ne!(encode(&values, 0b0000_1111), Encoding::Scalar);
    }

    #[test]
    fn divergent_mask_matches_broadcast_formulation() {
        // The doc contract: masking inactive lanes out of the
        // comparison equals broadcasting the first active value over
        // them first (the Figure 7(a) adaptation). Pin both on an
        // odd-length, divergent example exercising every byte plane.
        let values = vec![
            0xC040_39C0u32,
            0x1122_3344,
            0xC040_39C8,
            0xFFFF_FFFF,
            0xC040_39D0,
            0x0000_0001,
            0xC040_39D8,
        ];
        let mask = 0b101_0101u64; // lanes 0, 2, 4, 6
        let first = first_active(&values, mask);
        let broadcast: Vec<u32> = values
            .iter()
            .enumerate()
            .map(|(lane, &v)| if mask & (1 << lane) != 0 { v } else { first })
            .collect();
        assert_eq!(
            eq_planes(&values, mask),
            eq_planes(&broadcast, full_mask(values.len()))
        );
        assert_eq!(
            encode(&values, mask),
            encode(&broadcast, full_mask(values.len()))
        );
        assert_eq!(encode(&values, mask), Encoding::B321);
    }

    #[test]
    fn single_active_lane_is_scalar() {
        let values = vec![1, 2, 3, 4];
        assert_eq!(encode(&values, 0b0100), Encoding::Scalar);
        assert_eq!(first_active(&values, 0b0100), 3);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn empty_mask_panics() {
        let _ = encode(&[1, 2], 0);
    }

    #[test]
    #[should_panic(expected = "active mask must select at least one lane")]
    fn first_active_empty_mask_names_the_mask_not_the_bound() {
        // Regression: trailing_zeros(0) == 64, so computing the lane
        // before checking the mask used to trip the "selects lane 64
        // beyond N" bound assert with a misleading message. The mask
        // check must fire first, with its own message.
        let _ = first_active(&[1, 2], 0);
    }

    #[test]
    fn chunk_encoding_is_independent() {
        // First 16 lanes scalar, second 16 lanes address-like.
        let mut values = vec![5u32; 16];
        values.extend((0..16).map(|i| 0x1000_0000 + i * 4));
        let chunks: Vec<_> = encode_chunks(&values).collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].0, Encoding::Scalar);
        assert_eq!(chunks[0].1, 5);
        assert_eq!(chunks[1].0, Encoding::B321);
        assert_eq!(chunks[1].1, 0x1000_0000);
    }

    #[test]
    fn u64_prefix_counts_high_bytes() {
        // 64-bit addresses: high 6 bytes identical, low 2 vary.
        let addrs: Vec<u64> = (0..32)
            .map(|i| 0x0000_7F00_1234_0000u64 + i * 0x777)
            .collect();
        assert_eq!(uniform_prefix_bytes_u64(&addrs, crate::full_mask(32)), 6);
        // Uniform 64-bit value.
        assert_eq!(uniform_prefix_bytes_u64(&[9u64; 4], 0xF), 8);
        // Section 5.3's argument: the *fraction* of bytes saved grows
        // when the same addresses are computed at 64-bit width.
        let addrs32: Vec<u32> = addrs.iter().map(|&a| a as u32).collect();
        let enc32 = encode(&addrs32, crate::full_mask(32));
        let saved32 = enc32.base_bytes() as f64 / 4.0;
        let saved64 = 6.0 / 8.0;
        assert!(saved64 > saved32, "64-bit {saved64} vs 32-bit {saved32}");
        // Masked comparison ignores inactive lanes.
        assert_eq!(uniform_prefix_bytes_u64(&addrs, 0b1), 8);
    }

    #[test]
    fn deltas_are_byte_plane_ordered() {
        let values = vec![0x1122_3301, 0x1122_3302];
        let c = compress(&values);
        assert_eq!(c.enc, Encoding::B321);
        assert_eq!(c.deltas(), [0x01, 0x02]);
    }

    #[test]
    fn sixty_four_lane_registers_fit_inline() {
        // Figure 10 ablation runs warp size 64; the inline buffer must
        // hold the worst case (Encoding::None, 4 planes × 64 lanes).
        let values: Vec<u32> = (0..64).map(|i| i * 0x0101_0101).collect();
        let c = compress(&values);
        assert_eq!(c.enc, Encoding::None);
        assert_eq!(c.deltas().len(), 4 * 64);
        assert_eq!(decompress(&c, 64), values);
    }
}
