//! Architectural per-register compression metadata: EBR, BVR, `D` and
//! `FS` bits, with the read/write semantics of paper Sections 3.3–4.3.

use crate::bytewise::{self, MAX_LANES};
use crate::encoding::Encoding;
use crate::{full_mask, CHUNK_LANES};

/// Most 16-lane chunks a register can have (at [`MAX_LANES`] lanes).
const MAX_CHUNKS: usize = MAX_LANES / CHUNK_LANES;

/// Number of lanes each SRAM array covers per byte plane in the
/// reordered layout (and per word group in the baseline layout).
const LANES_PER_ARRAY_GROUP: usize = 4;

/// Configuration for a [`RegFileMeta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaConfig {
    /// Lanes per warp (32 for the GTX 480 baseline, 64 for Figure 10).
    pub warp_size: usize,
    /// Whether compressed storage is enabled (byte-wise scheme). When
    /// false every write is stored raw, but classification still runs
    /// (used by the characterization figures).
    pub compression: bool,
    /// Whether half-register (16-lane chunk) compression is enabled.
    pub half: bool,
    /// Whether divergent writes record their encoding + active mask
    /// (the G-Scalar extension of Section 4.2). When false a divergent
    /// write simply invalidates the register's encoding.
    pub track_divergent: bool,
}

impl MetaConfig {
    /// Full G-Scalar configuration for a given warp size.
    #[must_use]
    pub fn g_scalar(warp_size: usize) -> Self {
        MetaConfig {
            warp_size,
            compression: true,
            half: true,
            track_divergent: true,
        }
    }

    /// Compression-only configuration (no divergent tracking, no halves).
    #[must_use]
    pub fn compression_only(warp_size: usize) -> Self {
        MetaConfig {
            warp_size,
            compression: true,
            half: false,
            track_divergent: false,
        }
    }

    /// Baseline: raw storage, classification only.
    #[must_use]
    pub fn baseline(warp_size: usize) -> Self {
        MetaConfig {
            warp_size,
            compression: false,
            half: false,
            track_divergent: false,
        }
    }

    /// Total SRAM arrays per vector register in the modeled bank
    /// (one array per byte plane per 16-lane chunk; 8 for 32 lanes).
    #[must_use]
    pub fn total_arrays(self) -> usize {
        4 * self.warp_size.div_ceil(crate::CHUNK_LANES)
    }
}

/// Per-16-lane-chunk metadata (half-register compression).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// The chunk's encoding.
    pub enc: Encoding,
    /// The chunk's base value.
    pub bvr: u32,
}

impl ChunkMeta {
    /// Filler for unused chunk slots.
    const EMPTY: ChunkMeta = ChunkMeta {
        enc: Encoding::None,
        bvr: 0,
    };
}

/// Per-chunk scalar flags of a read, one bit per 16-lane chunk, held
/// inline (a register read happens per source operand per issue).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChunkFlags {
    bits: u8,
    len: u8,
}

impl ChunkFlags {
    /// Number of chunks (0 when the read carries no per-chunk view).
    #[must_use]
    pub fn len(self) -> usize {
        usize::from(self.len)
    }

    /// Whether the read carries no per-chunk view.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    /// Whether every chunk is scalar (vacuously true when empty).
    #[must_use]
    pub fn all(self) -> bool {
        u32::from(self.bits) == (1u32 << self.len) - 1
    }

    /// The flags in chunk order.
    pub fn iter(self) -> impl Iterator<Item = bool> {
        (0..self.len).map(move |i| self.bits & (1 << i) != 0)
    }
}

/// Architectural metadata for one vector register.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegMeta {
    /// The `D` bit: last write was divergent (register stored raw; the
    /// BVR holds the writing instruction's active mask).
    pub d: bool,
    /// The whole-register encoding generated at the last write. For a
    /// divergent write this classifies only the active lanes.
    pub enc: Encoding,
    /// BVR contents: base value when `d == 0`, active mask when `d == 1`.
    pub bvr: u64,
    /// Per-chunk metadata, inline; the first `num_chunks` are live
    /// (none unless half-register compression is on and the last write
    /// was non-divergent). Read them through [`RegMeta::chunks`].
    chunks: [ChunkMeta; MAX_CHUNKS],
    num_chunks: u8,
    /// The `FS` ("full scalar") bit: every chunk scalar with one value.
    pub fs: bool,
    /// Physical storage layout: which prefix of byte planes was dropped
    /// from the arrays. `Encoding::None` means stored raw.
    pub stored: Encoding,
}

impl RegMeta {
    fn raw() -> Self {
        RegMeta {
            d: false,
            enc: Encoding::None,
            bvr: 0,
            chunks: [ChunkMeta::EMPTY; MAX_CHUNKS],
            num_chunks: 0,
            fs: false,
            stored: Encoding::None,
        }
    }

    /// Per-chunk metadata (empty unless half-register compression is
    /// on and the last write was non-divergent).
    #[must_use]
    pub fn chunks(&self) -> &[ChunkMeta] {
        &self.chunks[..usize::from(self.num_chunks)]
    }

    fn clear_chunks(&mut self) {
        self.chunks = [ChunkMeta::EMPTY; MAX_CHUNKS];
        self.num_chunks = 0;
    }
}

/// Outcome of a register write, for power accounting and statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteInfo {
    /// The write was divergent (partial mask).
    pub divergent: bool,
    /// Classification of the written (active-lane) values.
    pub enc: Encoding,
    /// Physical layout after the write (`None` = raw).
    pub stored: Encoding,
    /// Data SRAM arrays activated by this write.
    pub arrays_written: usize,
    /// Whether the small BVR/EBR array was written.
    pub bvr_written: bool,
    /// A compressed destination had to be decompressed and re-stored
    /// raw before this divergent partial write (the special
    /// register-to-register move of Section 3.3).
    pub decompress_move: bool,
}

/// Classification of a register read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadClass {
    /// Only the BVR is accessed: the register stores a scalar.
    Scalar,
    /// A compressed register: some arrays plus the BVR.
    Compressed(Encoding),
    /// Raw storage, all arrays.
    Raw,
    /// Raw storage written by a divergent instruction.
    DivergentRaw,
}

/// Outcome of a register read, for power accounting and scalar-execution
/// eligibility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadInfo {
    /// Storage classification.
    pub class: ReadClass,
    /// Data SRAM arrays activated.
    pub arrays_read: usize,
    /// Whether the BVR/EBR array was read.
    pub bvr_read: bool,
    /// The operand is a single scalar value for every lane in the
    /// reading instruction's active mask (Sections 4.1/4.2): either the
    /// register stores a non-divergent scalar, or it stores a divergent
    /// scalar whose recorded mask equals the reading mask.
    pub scalar: bool,
    /// Per-chunk scalar flags (half-register compression, non-divergent
    /// registers only; empty otherwise).
    pub chunk_scalar: ChunkFlags,
    /// The `FS` bit (all chunks hold one common scalar).
    pub fs: bool,
}

/// The compression metadata for a register file: one [`RegMeta`] per
/// vector register plus the configuration flags.
///
/// # Examples
///
/// ```
/// use gscalar_compress::{RegFileMeta, regmeta::MetaConfig, Encoding, full_mask};
///
/// let mut rf = RegFileMeta::new(4, MetaConfig::g_scalar(32));
/// let uniform = vec![7u32; 32];
/// let w = rf.write(0, &uniform, full_mask(32));
/// assert_eq!(w.stored, Encoding::Scalar);
/// let r = rf.read(0, full_mask(32));
/// assert!(r.scalar);
/// assert_eq!(r.arrays_read, 0); // only the BVR is touched
/// ```
#[derive(Debug, Clone)]
pub struct RegFileMeta {
    cfg: MetaConfig,
    metas: Vec<RegMeta>,
}

impl RegFileMeta {
    /// Creates metadata for `num_regs` vector registers, all raw.
    #[must_use]
    pub fn new(num_regs: usize, cfg: MetaConfig) -> Self {
        RegFileMeta {
            cfg,
            metas: vec![RegMeta::raw(); num_regs],
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> MetaConfig {
        self.cfg
    }

    /// The metadata for register `reg`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range.
    #[must_use]
    pub fn meta(&self, reg: usize) -> &RegMeta {
        &self.metas[reg]
    }

    /// Records a write of `values` under `mask` to register `reg` and
    /// returns the hardware activity it caused.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range, `values.len()` differs from the
    /// configured warp size, or `mask` is empty.
    pub fn write(&mut self, reg: usize, values: &[u32], mask: u64) -> WriteInfo {
        assert_eq!(
            values.len(),
            self.cfg.warp_size,
            "value vector must match warp size"
        );
        let full = full_mask(self.cfg.warp_size);
        assert!(mask != 0, "write with empty active mask");
        let divergent = mask != full;
        let enc = bytewise::encode(values, mask);
        let total_arrays = self.cfg.total_arrays();
        let meta = &mut self.metas[reg];

        if divergent {
            // Section 3.3: divergent destinations are stored raw. If the
            // register was compressed, a decompress-move re-stores it
            // raw first; the partial update then touches all arrays.
            let decompress_move = meta.stored != Encoding::None;
            if self.cfg.track_divergent {
                meta.d = true;
                meta.enc = enc;
                meta.bvr = mask;
            } else {
                meta.d = false;
                meta.enc = Encoding::None;
                meta.bvr = 0;
            }
            meta.fs = false;
            meta.clear_chunks();
            meta.stored = Encoding::None;
            return WriteInfo {
                divergent: true,
                enc,
                stored: Encoding::None,
                arrays_written: total_arrays,
                bvr_written: self.cfg.track_divergent,
                decompress_move,
            };
        }

        // Non-divergent write.
        meta.d = false;
        meta.enc = enc;
        meta.bvr = u64::from(values[0]);
        meta.fs = false;
        meta.clear_chunks();
        if !self.cfg.compression {
            meta.stored = Encoding::None;
            return WriteInfo {
                divergent: false,
                enc,
                stored: Encoding::None,
                arrays_written: total_arrays,
                bvr_written: false,
                decompress_move: false,
            };
        }
        let (stored, arrays) = if self.cfg.half && enc == Encoding::Scalar {
            // A uniform register: every chunk is scalar with the one
            // value as its base, with no lanes to scan.
            let chunks = self.cfg.warp_size.div_ceil(CHUNK_LANES);
            meta.chunks[..chunks].fill(ChunkMeta {
                enc,
                bvr: values[0],
            });
            meta.num_chunks = chunks as u8;
            meta.fs = true;
            (enc, 0)
        } else if self.cfg.half {
            let mut arrays = 0;
            let mut fs = true;
            for (i, (enc, bvr)) in bytewise::encode_chunks(values).enumerate() {
                arrays += enc.delta_bytes_per_lane();
                fs &= enc.is_scalar() && bvr == values[0];
                meta.chunks[i] = ChunkMeta { enc, bvr };
                meta.num_chunks += 1;
            }
            meta.fs = fs;
            // The whole-register layout is the weakest chunk encoding
            // only if uniform; physically each chunk is stored at its
            // own compression level, so record the classification here
            // and use the summed array count for power.
            (enc, arrays)
        } else {
            (enc, enc.arrays_active(self.cfg.warp_size))
        };
        meta.stored = stored;
        WriteInfo {
            divergent: false,
            enc,
            stored,
            arrays_written: arrays,
            bvr_written: true,
            decompress_move: false,
        }
    }

    /// Computes the hardware activity and scalar eligibility of reading
    /// register `reg` under the reading instruction's `mask`.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range or `mask` is empty.
    #[must_use]
    pub fn read(&self, reg: usize, mask: u64) -> ReadInfo {
        assert!(mask != 0, "read with empty active mask");
        let meta = &self.metas[reg];
        let total_arrays = self.cfg.total_arrays();

        if meta.d {
            // Stored raw; Section 4.2: even a divergent-scalar read must
            // bring all values from the register file.
            let scalar = meta.enc.is_scalar() && meta.bvr == mask;
            return ReadInfo {
                class: ReadClass::DivergentRaw,
                arrays_read: total_arrays,
                bvr_read: true,
                scalar,
                chunk_scalar: ChunkFlags::default(),
                fs: false,
            };
        }

        // Non-divergent storage. Scalar reads are mask-insensitive: the
        // value is uniform across all lanes, so any subset sees it.
        if self.cfg.half && meta.num_chunks > 0 {
            let mut arrays = 0;
            let mut chunk_scalar = ChunkFlags {
                bits: 0,
                len: meta.num_chunks,
            };
            for (i, c) in meta.chunks().iter().enumerate() {
                arrays += c.enc.delta_bytes_per_lane();
                chunk_scalar.bits |= u8::from(c.enc.is_scalar()) << i;
            }
            let scalar = meta.fs;
            let class = if meta.fs {
                ReadClass::Scalar
            } else if arrays < total_arrays {
                ReadClass::Compressed(meta.enc)
            } else {
                ReadClass::Raw
            };
            return ReadInfo {
                class,
                arrays_read: arrays,
                bvr_read: true,
                scalar,
                chunk_scalar,
                fs: meta.fs,
            };
        }

        // Scalar detection works off the classification even when
        // compressed storage is disabled (prior-work scalar
        // architectures detect scalars without storing compressed).
        let scalar = meta.enc.is_scalar();
        let (class, arrays, bvr) = if self.cfg.compression {
            match meta.stored {
                Encoding::Scalar => (ReadClass::Scalar, 0, true),
                Encoding::None => (ReadClass::Raw, total_arrays, true),
                e => (
                    ReadClass::Compressed(e),
                    e.arrays_active(self.cfg.warp_size),
                    true,
                ),
            }
        } else {
            (ReadClass::Raw, total_arrays, false)
        };
        ReadInfo {
            class,
            arrays_read: arrays,
            bvr_read: bvr,
            scalar,
            chunk_scalar: ChunkFlags::default(),
            fs: false,
        }
    }

    /// Data SRAM arrays a *baseline* (word-interleaved, uncompressed)
    /// register file activates for a partial write under `mask`: only
    /// the arrays covering active lanes (Section 3.3).
    ///
    /// # Panics
    ///
    /// Panics if `mask` is empty.
    #[must_use]
    pub fn baseline_arrays_for_mask(&self, mask: u64) -> usize {
        assert!(mask != 0, "empty active mask");
        let groups = self.cfg.warp_size.div_ceil(LANES_PER_ARRAY_GROUP);
        (0..groups)
            .filter(|g| {
                let lo = g * LANES_PER_ARRAY_GROUP;
                let group_mask = ((1u64 << LANES_PER_ARRAY_GROUP) - 1) << lo;
                mask & group_mask != 0
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: usize = 32;

    fn rf(cfg: MetaConfig) -> RegFileMeta {
        RegFileMeta::new(8, cfg)
    }

    fn uniform(v: u32) -> Vec<u32> {
        vec![v; W]
    }

    fn addresses(base: u32) -> Vec<u32> {
        (0..W as u32).map(|i| base + i * 4).collect()
    }

    #[test]
    fn scalar_write_then_read() {
        let mut m = rf(MetaConfig::compression_only(W));
        let w = m.write(0, &uniform(0x42), full_mask(W));
        assert_eq!(w.stored, Encoding::Scalar);
        assert_eq!(w.arrays_written, 0);
        assert!(w.bvr_written);
        let r = m.read(0, full_mask(W));
        assert!(r.scalar);
        assert_eq!(r.class, ReadClass::Scalar);
        assert_eq!(r.arrays_read, 0);
    }

    #[test]
    fn compressed_write_activates_delta_arrays() {
        let mut m = rf(MetaConfig::compression_only(W));
        let w = m.write(1, &addresses(0x1000_0000), full_mask(W));
        assert_eq!(w.stored, Encoding::B321);
        assert_eq!(w.arrays_written, 2); // byte[0] planes of two chunks
        let r = m.read(1, full_mask(W));
        assert_eq!(r.class, ReadClass::Compressed(Encoding::B321));
        assert_eq!(r.arrays_read, 2);
        assert!(!r.scalar);
    }

    #[test]
    fn incompressible_write_is_raw() {
        let mut m = rf(MetaConfig::compression_only(W));
        let mut v = addresses(0);
        v[7] = 0xFF00_0000;
        let w = m.write(0, &v, full_mask(W));
        assert_eq!(w.stored, Encoding::None);
        assert_eq!(w.arrays_written, 8);
        let r = m.read(0, full_mask(W));
        assert_eq!(r.class, ReadClass::Raw);
        assert_eq!(r.arrays_read, 8);
    }

    #[test]
    fn divergent_write_stores_mask_in_bvr() {
        let mut m = rf(MetaConfig::g_scalar(W));
        let mask = 0x0000_F0F0u64;
        let w = m.write(2, &uniform(9), mask);
        assert!(w.divergent);
        assert_eq!(w.enc, Encoding::Scalar);
        assert_eq!(w.stored, Encoding::None);
        assert!(w.bvr_written);
        assert_eq!(m.meta(2).bvr, mask);
        assert!(m.meta(2).d);
    }

    #[test]
    fn divergent_scalar_read_requires_matching_mask() {
        // Section 4.2 / Figure 7(b): the encoding is only valid with
        // respect to the mask that produced it.
        let mut m = rf(MetaConfig::g_scalar(W));
        let mask = 0x0000_00FFu64;
        m.write(0, &uniform(5), mask);
        let same = m.read(0, mask);
        assert!(same.scalar);
        assert_eq!(same.class, ReadClass::DivergentRaw);
        // All values still come from the register file.
        assert_eq!(same.arrays_read, 8);
        let other = m.read(0, 0x0000_FF00);
        assert!(!other.scalar);
    }

    #[test]
    fn nondivergent_scalar_read_is_mask_insensitive() {
        // A register written scalar by a non-divergent instruction is
        // scalar for any subsequent divergent reader.
        let mut m = rf(MetaConfig::g_scalar(W));
        m.write(0, &uniform(1), full_mask(W));
        let r = m.read(0, 0x0000_0003);
        assert!(r.scalar);
    }

    #[test]
    fn divergent_write_to_compressed_needs_move() {
        let mut m = rf(MetaConfig::g_scalar(W));
        m.write(0, &addresses(0x2000_0000), full_mask(W));
        let w = m.write(0, &uniform(3), 0x0F);
        assert!(w.decompress_move);
        // Now raw: a second divergent write needs no move.
        let w2 = m.write(0, &uniform(4), 0x0F);
        assert!(!w2.decompress_move);
    }

    #[test]
    fn divergent_write_to_raw_needs_no_move() {
        let mut m = rf(MetaConfig::g_scalar(W));
        let mut v = addresses(0);
        v[7] = 0xFF00_0000; // incompressible → stored raw
        m.write(0, &v, full_mask(W));
        let w = m.write(0, &uniform(3), 0x0F);
        assert!(!w.decompress_move);
    }

    #[test]
    fn half_compression_tracks_chunks() {
        let mut m = rf(MetaConfig::g_scalar(W));
        let mut v = vec![7u32; 16];
        v.extend(addresses(0x3000_0000).into_iter().take(16));
        let w = m.write(0, &v, full_mask(W));
        // low chunk scalar (0 arrays) + high chunk B321 (1 array).
        assert_eq!(w.arrays_written, 1);
        let r = m.read(0, full_mask(W));
        assert_eq!(r.chunk_scalar.iter().collect::<Vec<_>>(), vec![true, false]);
        assert!(!r.scalar);
        assert!(!r.fs);
    }

    #[test]
    fn fs_set_when_both_halves_share_scalar() {
        let mut m = rf(MetaConfig::g_scalar(W));
        m.write(0, &uniform(11), full_mask(W));
        let r = m.read(0, full_mask(W));
        assert!(r.fs);
        assert!(r.scalar);
        assert_eq!(r.class, ReadClass::Scalar);
        // Two different per-half scalars: chunk-scalar but not FS.
        let mut v = vec![1u32; 16];
        v.extend(vec![2u32; 16]);
        m.write(1, &v, full_mask(W));
        let r = m.read(1, full_mask(W));
        assert_eq!(r.chunk_scalar.iter().collect::<Vec<_>>(), vec![true, true]);
        assert!(!r.fs);
        assert!(!r.scalar);
    }

    #[test]
    fn no_tracking_invalidates_on_divergent_write() {
        let mut m = rf(MetaConfig::compression_only(W));
        m.write(0, &uniform(5), full_mask(W));
        m.write(0, &uniform(5), 0x0F);
        let r = m.read(0, 0x0F);
        assert!(!r.scalar);
        assert!(!m.meta(0).d);
    }

    #[test]
    fn baseline_partial_write_activates_covering_arrays() {
        let m = rf(MetaConfig::baseline(W));
        // Lanes 0..4 live in one 4-lane array group.
        assert_eq!(m.baseline_arrays_for_mask(0x0000_000F), 1);
        assert_eq!(m.baseline_arrays_for_mask(0x0000_00FF), 2);
        assert_eq!(m.baseline_arrays_for_mask(full_mask(W)), 8);
        // One lane per group.
        assert_eq!(m.baseline_arrays_for_mask(0x1111_1111), 8);
    }

    #[test]
    fn baseline_config_reads_all_arrays_without_bvr() {
        let mut m = rf(MetaConfig::baseline(W));
        let w = m.write(0, &uniform(5), full_mask(W));
        assert_eq!(w.arrays_written, 8);
        assert!(!w.bvr_written);
        let r = m.read(0, full_mask(W));
        assert_eq!(r.arrays_read, 8);
        assert!(!r.bvr_read);
        // Classification still detects the scalar (used by stats and
        // by prior-work scalar architectures).
        assert!(r.scalar);
    }

    #[test]
    fn warp64_uses_16_arrays() {
        let cfg = MetaConfig::g_scalar(64);
        assert_eq!(cfg.total_arrays(), 16);
        let mut m = RegFileMeta::new(2, cfg);
        let v: Vec<u32> = vec![3; 64];
        let w = m.write(0, &v, full_mask(64));
        assert_eq!(w.stored, Encoding::Scalar);
        let r = m.read(0, full_mask(64));
        assert_eq!(r.chunk_scalar.len(), 4);
        assert!(r.fs);
    }
}
