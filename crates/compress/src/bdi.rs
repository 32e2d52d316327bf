//! Base-Delta-Immediate (BDI) compression baseline.
//!
//! Warped-Compression (Lee et al., ISCA 2015 — the paper's "W-C"
//! baseline, reference \[4\]) compresses vector register values with BDI
//! (Pekhimenko et al., PACT 2012): one 4-byte base plus small signed
//! per-lane deltas. This module implements it at 4-byte word granularity
//! so Figure 12's register-file power comparison and the Section 5.3
//! compression-ratio comparison (ours 2.17 vs BDI 2.13) can be
//! regenerated.

use std::fmt;

/// The BDI compression mode selected for one vector register value.
///
/// The full mode set of Pekhimenko et al.: 8-, 4- and 2-byte bases with
/// narrower signed deltas, plus the zero and repeated-value special
/// cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BdiMode {
    /// Every lane is zero (stored as a tag only).
    Zeros,
    /// Every lane holds the same value (4-byte base only).
    Repeated,
    /// 8-byte base + 1-byte signed delta per 8-byte chunk.
    Base8Delta1,
    /// 8-byte base + 2-byte signed delta per 8-byte chunk.
    Base8Delta2,
    /// 8-byte base + 4-byte signed delta per 8-byte chunk.
    Base8Delta4,
    /// 4-byte base + 1-byte signed delta per lane.
    Base4Delta1,
    /// 4-byte base + 2-byte signed delta per lane.
    Base4Delta2,
    /// 2-byte base + 1-byte signed delta per 2-byte half-word.
    Base2Delta1,
    /// Incompressible; stored raw.
    Uncompressed,
}

impl BdiMode {
    /// All modes in the selection order (smallest resulting size wins;
    /// ties go to the earlier mode).
    pub const ALL: [BdiMode; 9] = [
        BdiMode::Zeros,
        BdiMode::Repeated,
        BdiMode::Base8Delta1,
        BdiMode::Base8Delta2,
        BdiMode::Base8Delta4,
        BdiMode::Base4Delta1,
        BdiMode::Base4Delta2,
        BdiMode::Base2Delta1,
        BdiMode::Uncompressed,
    ];
}

impl fmt::Display for BdiMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BdiMode::Zeros => "zeros",
            BdiMode::Repeated => "repeated",
            BdiMode::Base8Delta1 => "b8d1",
            BdiMode::Base8Delta2 => "b8d2",
            BdiMode::Base8Delta4 => "b8d4",
            BdiMode::Base4Delta1 => "b4d1",
            BdiMode::Base4Delta2 => "b4d2",
            BdiMode::Base2Delta1 => "b2d1",
            BdiMode::Uncompressed => "raw",
        };
        f.write_str(s)
    }
}

/// The result of BDI-compressing one vector register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BdiResult {
    /// Selected mode.
    pub mode: BdiMode,
    /// Compressed size in bytes (excluding the mode tag).
    pub bytes: usize,
    /// Lanes covered.
    pub lanes: usize,
}

impl BdiResult {
    /// Uncompressed size in bytes.
    #[must_use]
    pub fn raw_bytes(&self) -> usize {
        self.lanes * 4
    }

    /// Compression ratio (raw / compressed; `>= 1`).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.raw_bytes() as f64 / self.bytes.max(1) as f64
    }

    /// SRAM arrays a W-C style register file activates for this access,
    /// with `array_bytes`-wide arrays holding the packed compressed
    /// value contiguously.
    #[must_use]
    pub fn arrays_active(&self, array_bytes: usize) -> usize {
        self.bytes.div_ceil(array_bytes).max(1)
    }
}

/// Smallest and largest chunk of one base width.
#[derive(Clone, Copy)]
struct Range {
    min: u64,
    max: u64,
}

impl Range {
    /// Whether every chunk differs from `base`, itself one of the
    /// chunks (so `min <= base <= max`), by a signed delta that fits
    /// `delta_bytes`: the extremes decide for all chunks.
    fn fits(self, base: u64, delta_bytes: usize) -> bool {
        let lim = 1u64 << (8 * delta_bytes - 1);
        base - self.min <= lim && self.max - base < lim
    }
}

/// Compressed size for a `(chunk_bytes, delta_bytes)` mode over a
/// register of `total_bytes`.
fn mode_size(total_bytes: usize, chunk_bytes: usize, delta_bytes: usize) -> usize {
    chunk_bytes + (total_bytes / chunk_bytes) * delta_bytes
}

/// The BDI result for `lanes` lanes that all hold `value`: the zero or
/// repeated-value special case, decided without looking at the lanes.
#[must_use]
pub fn uniform(value: u32, lanes: usize) -> BdiResult {
    let (mode, bytes) = if value == 0 {
        (BdiMode::Zeros, 1)
    } else {
        (BdiMode::Repeated, 4)
    };
    BdiResult { mode, bytes, lanes }
}

/// Compresses `values` with BDI and returns the best applicable mode.
///
/// The base is the first chunk, matching the original BDI formulation;
/// among applicable modes the smallest output wins, ties going to the
/// earlier mode of [`BdiMode::ALL`]. The smallest and largest chunk of
/// each base width (8-, 4- and 2-byte chunks of the little-endian
/// register, found in two sweeps) decide every mode of that width: a
/// delta mode applies iff both extremes lie within its signed range of
/// the base. The register-file
/// read/write hot path runs this, so it must not allocate.
///
/// # Panics
///
/// Panics if `values` is empty.
#[must_use]
pub fn compress(values: &[u32]) -> BdiResult {
    assert!(!values.is_empty(), "cannot compress an empty register");
    let lanes = values.len();
    let total = lanes * 4;
    // One sweep for the 4-byte chunks (lanes) and the 2-byte chunks
    // (half-words; a min/max sweep may visit them in any order).
    let (mut words, mut halves) = ((u32::MAX, 0), (u32::MAX, 0));
    for &v in values {
        words = (words.0.min(v), words.1.max(v));
        let (lo, hi) = (v & 0xFFFF, v >> 16);
        halves = (halves.0.min(lo).min(hi), halves.1.max(lo).max(hi));
    }
    // Zeros and Repeated fall out of the 4-byte extremes.
    if words.0 == words.1 {
        return uniform(values[0], lanes);
    }
    let range = |(min, max): (u32, u32)| Range {
        min: min.into(),
        max: max.into(),
    };
    let words = Some((range(words), u64::from(values[0])));
    let halves = Some((range(halves), u64::from(values[0] & 0xFFFF)));
    // Lane pairs form the 8-byte chunks (even lane low); an odd lane
    // count has none.
    let pairs = lanes.is_multiple_of(2).then(|| {
        let pair = |p: &[u32]| u64::from(p[0]) | (u64::from(p[1]) << 32);
        let base = pair(values);
        let (min, max) = values
            .chunks_exact(2)
            .map(pair)
            .fold((base, base), |(lo, hi), c| (lo.min(c), hi.max(c)));
        (Range { min, max }, base)
    });
    // (mode, chunk bytes, delta bytes, chunk range and base) in
    // canonical order.
    let modes = [
        (BdiMode::Base8Delta1, 8, 1, pairs),
        (BdiMode::Base8Delta2, 8, 2, pairs),
        (BdiMode::Base8Delta4, 8, 4, pairs),
        (BdiMode::Base4Delta1, 4, 1, words),
        (BdiMode::Base4Delta2, 4, 2, words),
        (BdiMode::Base2Delta1, 2, 1, halves),
    ];
    let mut best = BdiResult {
        mode: BdiMode::Uncompressed,
        bytes: total,
        lanes,
    };
    for (mode, cb, db, chunks) in modes {
        let Some((range, base)) = chunks else {
            continue;
        };
        let size = mode_size(total, cb, db);
        if size < best.bytes && range.fits(base, db) {
            best = BdiResult {
                mode,
                bytes: size,
                lanes,
            };
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_repeated() {
        let r = compress(&[0; 32]);
        assert_eq!(r.mode, BdiMode::Zeros);
        assert_eq!(r.bytes, 1);
        let r = compress(&[7; 32]);
        assert_eq!(r.mode, BdiMode::Repeated);
        assert_eq!(r.bytes, 4);
        assert!(r.ratio() > 30.0);
    }

    #[test]
    fn paper_example_compresses_to_delta1() {
        // Section 2.2's BDI example: deltas 0, 8, ..., 0x38 fit 1 byte;
        // 8 lanes ⇒ 32-bit base + 8×8-bit deltas = 12 bytes ("96-bit").
        let values: Vec<u32> = (0..8).map(|i| 0xC040_39C0 + i * 8).collect();
        let r = compress(&values);
        assert_eq!(r.mode, BdiMode::Base4Delta1);
        assert_eq!(r.bytes, 12);
    }

    #[test]
    fn delta_sign_handling() {
        // Negative deltas within i8 (8 lanes so compression pays off).
        let r = compress(&[100, 50, 20, 100, 99, 98, 30, 100]);
        assert_eq!(r.mode, BdiMode::Base4Delta1);
        // Delta of exactly -128 fits i8; -129 needs 2-byte deltas.
        // (Values vary pairwise so no 8-byte-base mode applies.)
        let ok = [200u32, 72, 73, 74, 75, 76, 77, 78];
        assert_eq!(compress(&ok).mode, BdiMode::Base4Delta1);
        let wide = [200u32, 71, 73, 74, 75, 76, 77, 78];
        assert_eq!(compress(&wide).mode, BdiMode::Base4Delta2);
    }

    #[test]
    fn eight_byte_base_captures_pairwise_patterns() {
        // Alternating pair pattern: identical 8-byte chunks → b8d1.
        let values: Vec<u32> = (0..32)
            .map(|i| if i % 2 == 0 { 0x10 } else { 0x7FFF_0000 })
            .collect();
        let r = compress(&values);
        assert_eq!(r.mode, BdiMode::Base8Delta1);
        assert_eq!(r.bytes, 8 + 16);
    }

    #[test]
    fn two_byte_base_captures_halfword_patterns() {
        // Registers full of small 16-bit fields (packed shorts).
        let values: Vec<u32> = (0..32).map(|i| (i % 3) * 0x0001_0001).collect();
        let r = compress(&values);
        // All half-words in 0..=2 → 2-byte base + 64 one-byte deltas.
        assert_eq!(r.mode, BdiMode::Base2Delta1);
        assert_eq!(r.bytes, 2 + 64);
    }

    #[test]
    fn wide_values_uncompressed() {
        let r = compress(&[0, 0x7FFF_FFFF, 3, 9]);
        assert_eq!(r.mode, BdiMode::Uncompressed);
        assert_eq!(r.bytes, 16);
        assert!((r.ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bdi_beats_bytewise_on_wide_hex_difference() {
        // Section 3.1 note: BDI can beat the byte-wise scheme when the
        // hex representations of similar values differ widely, e.g.
        // 0x100 vs 0xFF (delta 1, but no shared byte prefix beyond
        // byte[3:2]).
        let values: Vec<u32> = (0..32)
            .map(|i| if i % 2 == 0 { 0x0000_0100 } else { 0x0000_00FF })
            .collect();
        let bdi = compress(&values);
        // The alternating pair even collapses to an 8-byte-base mode.
        assert_eq!(bdi.mode, BdiMode::Base8Delta1);
        let bw = crate::bytewise::encode(&values, crate::full_mask(32));
        assert_eq!(bw, crate::Encoding::B32);
        let bw_bytes = bw.compressed_bytes(32);
        assert!(bdi.bytes < bw_bytes);
    }

    #[test]
    fn arrays_active_rounds_up() {
        let r = BdiResult {
            mode: BdiMode::Base4Delta1,
            bytes: 36,
            lanes: 32,
        };
        assert_eq!(r.arrays_active(16), 3);
        let s = BdiResult {
            mode: BdiMode::Repeated,
            bytes: 4,
            lanes: 32,
        };
        assert_eq!(s.arrays_active(16), 1);
    }
}
