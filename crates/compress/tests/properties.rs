//! Property-based tests for the compression schemes and register
//! metadata invariants.

use gscalar_compress::regmeta::{ChunkMeta, MetaConfig};
use gscalar_compress::{bdi, bytewise, full_mask, Encoding, RegFileMeta};
use proptest::prelude::*;

fn lanes32() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(any::<u32>(), 32)
}

/// Values with realistic GPU structure: uniform, address-like, or noisy.
fn structured32() -> impl Strategy<Value = Vec<u32>> {
    prop_oneof![
        any::<u32>().prop_map(|v| vec![v; 32]),
        (any::<u32>(), 1u32..64)
            .prop_map(|(base, step)| { (0..32u32).map(|i| base.wrapping_add(i * step)).collect() }),
        lanes32(),
    ]
}

/// Variable-width registers (1..=64 lanes, odd widths included) whose
/// lane noise is bounded per branch so every `enc[3:0]` state — Scalar,
/// B321, B32, B3, and None — is reachable. The per-branch XOR bound
/// keeps byte planes above the noise uniform; planes inside it vary
/// freely, so the differential tests see all four encodings plus the
/// incompressible case.
fn differential_register() -> impl Strategy<Value = Vec<u32>> {
    let sized = |noise_bits: u32| {
        (any::<u32>(), 1usize..=64).prop_flat_map(move |(base, lanes)| {
            let bound = if noise_bits == 0 {
                1u64
            } else {
                1u64 << noise_bits
            };
            proptest::collection::vec(0..bound, lanes)
                .prop_map(move |noise| noise.iter().map(|&n| base ^ (n as u32)).collect())
        })
    };
    prop_oneof![
        sized(0),  // uniform → Scalar
        sized(8),  // low byte varies → B321 (or stronger)
        sized(16), // two low bytes vary → B32 …
        sized(24), // three low bytes vary → B3 …
        sized(32), // anything, including None
    ]
}

proptest! {
    #[test]
    fn compress_roundtrips(values in structured32()) {
        let c = bytewise::compress(&values);
        prop_assert_eq!(bytewise::decompress(&c, 32), values);
    }

    #[test]
    fn compressed_never_larger_than_raw(values in structured32()) {
        let c = bytewise::compress(&values);
        prop_assert!(c.size_bytes() <= 32 * 4);
    }

    #[test]
    fn encoding_is_mask_monotone(values in lanes32(), mask in 1u64..u32::MAX as u64) {
        // Restricting the active mask can only strengthen (or keep) the
        // encoding: fewer lanes can't disagree more.
        let full = full_mask(32);
        let full_enc = bytewise::encode(&values, full);
        let sub_enc = bytewise::encode(&values, mask & full);
        prop_assert!(sub_enc >= full_enc, "subset {sub_enc:?} < full {full_enc:?}");
    }

    #[test]
    fn single_lane_is_always_scalar(values in lanes32(), lane in 0usize..32) {
        prop_assert_eq!(
            bytewise::encode(&values, 1u64 << lane),
            Encoding::Scalar
        );
    }

    #[test]
    fn base_value_agrees_with_first_active(values in lanes32(), mask in 1u64..u32::MAX as u64) {
        let mask = mask & full_mask(32);
        prop_assume!(mask != 0);
        let lane = mask.trailing_zeros() as usize;
        prop_assert_eq!(bytewise::first_active(&values, mask), values[lane]);
    }

    #[test]
    fn eq_planes_matches_direct_comparison(values in structured32()) {
        let eq = bytewise::eq_planes(&values, full_mask(32));
        for byte in 0..4 {
            let all_same = values
                .iter()
                .all(|v| (v >> (byte * 8)) & 0xFF == (values[0] >> (byte * 8)) & 0xFF);
            prop_assert_eq!(eq & (1 << byte) != 0, all_same, "byte plane {}", byte);
        }
    }

    #[test]
    fn chunk_encodings_are_at_least_the_full_encoding(values in structured32()) {
        let full_enc = bytewise::encode(&values, full_mask(32));
        for (enc, _) in bytewise::encode_chunks(&values) {
            prop_assert!(enc >= full_enc);
        }
    }

    #[test]
    fn bdi_size_bounded_and_consistent(values in structured32()) {
        let r = bdi::compress(&values);
        prop_assert!(r.bytes <= r.raw_bytes());
        prop_assert!(r.ratio() >= 1.0);
        // Deterministic.
        prop_assert_eq!(bdi::compress(&values), r);
    }

    #[test]
    fn bdi_repeated_iff_uniform_nonzero(v in 1u32..) {
        let r = bdi::compress(&[v; 32]);
        prop_assert_eq!(r.mode, bdi::BdiMode::Repeated);
    }

    #[test]
    fn regmeta_write_read_scalar_consistency(values in structured32()) {
        let mut m = RegFileMeta::new(1, MetaConfig::g_scalar(32));
        let w = m.write(0, &values, full_mask(32));
        let r = m.read(0, full_mask(32));
        let uniform = values.iter().all(|&v| v == values[0]);
        prop_assert_eq!(w.enc.is_scalar(), uniform);
        prop_assert_eq!(r.scalar, uniform);
        // Arrays touched on read never exceed the bank's arrays.
        prop_assert!(r.arrays_read <= 8);
    }

    #[test]
    fn regmeta_divergent_roundtrip(values in structured32(), mask in 1u64..u32::MAX as u64) {
        let mask = mask & full_mask(32);
        prop_assume!(mask != 0 && mask != full_mask(32));
        let mut m = RegFileMeta::new(1, MetaConfig::g_scalar(32));
        m.write(0, &values, mask);
        // Same-mask read reports scalar exactly when active lanes agree.
        let active_uniform = {
            let first = values[mask.trailing_zeros() as usize];
            (0..32).filter(|l| mask & (1 << l) != 0).all(|l| values[l] == first)
        };
        let r = m.read(0, mask);
        prop_assert_eq!(r.scalar, active_uniform);
        // A different mask must never report a divergent scalar.
        let other = mask ^ full_mask(32);
        if other != 0 {
            prop_assert!(!m.read(0, other).scalar);
        }
    }

    #[test]
    fn arrays_written_match_encoding(values in structured32()) {
        let mut m = RegFileMeta::new(1, MetaConfig::compression_only(32));
        let w = m.write(0, &values, full_mask(32));
        prop_assert_eq!(w.arrays_written, w.stored.arrays_active(32));
    }

    // ── Differential: word-level rewrite vs the per-lane reference ──
    // `bytewise::reference` is the original per-lane, per-byte
    // implementation kept verbatim; the branchless word-level rewrite
    // must agree with it bit-for-bit on every input.

    #[test]
    fn differential_eq_planes_and_encode(
        values in differential_register(),
        mask_bits in any::<u64>(),
    ) {
        let mask = mask_bits & full_mask(values.len());
        prop_assume!(mask != 0);
        prop_assert_eq!(
            bytewise::eq_planes(&values, mask),
            bytewise::reference::eq_planes(&values, mask)
        );
        prop_assert_eq!(
            bytewise::encode(&values, mask),
            bytewise::reference::encode(&values, mask)
        );
    }

    #[test]
    fn differential_compress_roundtrip_and_size(values in differential_register()) {
        let new = bytewise::compress(&values);
        let old = bytewise::reference::compress(&values);
        prop_assert_eq!(new.enc, old.enc);
        prop_assert_eq!(new.base, old.base);
        prop_assert_eq!(new.deltas(), old.deltas.as_slice());
        prop_assert_eq!(new.size_bytes(), old.size_bytes());
        let lanes = values.len();
        prop_assert_eq!(
            bytewise::decompress(&new, lanes),
            bytewise::reference::decompress(&old, lanes)
        );
        prop_assert_eq!(bytewise::decompress(&new, lanes), values);
    }

    #[test]
    fn differential_divergent_matches_broadcast(
        values in differential_register(),
        mask_bits in any::<u64>(),
    ) {
        // The skip-inactive-lanes mechanism must equal the paper's
        // broadcast formulation (Figure 7a) under every divergent mask.
        let mask = mask_bits & full_mask(values.len());
        prop_assume!(mask != 0);
        let first = bytewise::first_active(&values, mask);
        let broadcast: Vec<u32> = values
            .iter()
            .enumerate()
            .map(|(lane, &v)| if mask & (1 << lane) != 0 { v } else { first })
            .collect();
        prop_assert_eq!(
            bytewise::eq_planes(&values, mask),
            bytewise::eq_planes(&broadcast, full_mask(values.len()))
        );
    }
}

// ── BDI: one min/max sweep per base width vs the per-mode scan ──
// The model is the compressor the sweep replaced: for each of the six
// delta modes it re-read every chunk of the register and checked its
// delta against the first chunk.

fn model_chunk_at(values: &[u32], idx: usize, chunk_bytes: usize) -> i128 {
    match chunk_bytes {
        2 => i128::from((values[idx / 2] >> (16 * (idx % 2))) & 0xFFFF),
        4 => i128::from(values[idx]),
        8 => {
            let lo = u64::from(values[idx * 2]);
            let hi = u64::from(values[idx * 2 + 1]);
            i128::from(lo | (hi << 32))
        }
        _ => unreachable!(),
    }
}

fn model_fits(values: &[u32], chunk_bytes: usize, delta_bytes: usize) -> bool {
    let base = model_chunk_at(values, 0, chunk_bytes);
    let lim = 1i128 << (8 * delta_bytes - 1);
    let chunks = values.len() * 4 / chunk_bytes;
    (0..chunks).all(|i| {
        let d = model_chunk_at(values, i, chunk_bytes) - base;
        (-lim..lim).contains(&d)
    })
}

fn model_bdi(values: &[u32]) -> bdi::BdiResult {
    use bdi::{BdiMode, BdiResult};
    let lanes = values.len();
    let total = lanes * 4;
    if values.iter().all(|&v| v == 0) {
        return BdiResult {
            mode: BdiMode::Zeros,
            bytes: 1,
            lanes,
        };
    }
    if values.iter().all(|&v| v == values[0]) {
        return BdiResult {
            mode: BdiMode::Repeated,
            bytes: 4,
            lanes,
        };
    }
    const MODES: [(BdiMode, usize, usize); 6] = [
        (BdiMode::Base8Delta1, 8, 1),
        (BdiMode::Base8Delta2, 8, 2),
        (BdiMode::Base8Delta4, 8, 4),
        (BdiMode::Base4Delta1, 4, 1),
        (BdiMode::Base4Delta2, 4, 2),
        (BdiMode::Base2Delta1, 2, 1),
    ];
    let mut best = BdiResult {
        mode: BdiMode::Uncompressed,
        bytes: total,
        lanes,
    };
    for (mode, cb, db) in MODES {
        if !total.is_multiple_of(cb) {
            continue;
        }
        let size = cb + (total / cb) * db;
        if size < best.bytes && model_fits(values, cb, db) {
            best = BdiResult {
                mode,
                bytes: size,
                lanes,
            };
        }
    }
    best
}

/// Registers of 1..=64 lanes (odd counts included) shaped to reach
/// every BDI mode and each delta width's boundary.
fn bdi_register() -> impl Strategy<Value = Vec<u32>> {
    let lanes = || 1usize..=64;
    // Signed deltas at and around every mode's limits.
    let edges: Vec<i64> = [0i64, 1, 127, 128, 129, 32_767, 32_768, 32_769, 1 << 31]
        .iter()
        .flat_map(|&d| [d, -d, d - 1, -d + 1])
        .collect();
    prop_oneof![
        proptest::collection::vec(any::<u32>(), lanes()),
        lanes().prop_map(|n| vec![0u32; n]),
        (any::<u32>(), lanes()).prop_map(|(v, n)| vec![v; n]),
        (any::<u32>(), any::<u32>(), lanes()).prop_map(|(base, step, n)| (0..n as u32)
            .map(|i| base.wrapping_add(i.wrapping_mul(step)))
            .collect()),
        (any::<u32>(), lanes()).prop_flat_map(move |(base, n)| {
            proptest::collection::vec(proptest::sample::select(edges.clone()), n)
                .prop_map(move |ds| ds.iter().map(|&d| base.wrapping_add(d as u32)).collect())
        }),
        (any::<u16>(), lanes()).prop_flat_map(|(base, n)| {
            proptest::collection::vec((0u16..300, 0u16..300), n).prop_map(move |hs| {
                hs.iter()
                    .map(|&(lo, hi)| {
                        u32::from(base.wrapping_add(lo)) | (u32::from(base.wrapping_add(hi)) << 16)
                    })
                    .collect()
            })
        }),
        // Lane pairs near one 8-byte base: the 8-byte modes' territory.
        (any::<u32>(), any::<u32>(), lanes(), 0u32..3, 8u32..32).prop_flat_map(
            |(lo, hi, n, hs, ls)| {
                let (hi_span, lo_span) = (1u32 << hs >> 1, 1u32 << ls);
                proptest::collection::vec((0..hi_span.max(1), 0..lo_span), n).prop_map(move |ds| {
                    ds.iter()
                        .enumerate()
                        .map(|(i, &(dh, dl))| {
                            if i % 2 == 0 {
                                lo.wrapping_add(dl)
                            } else {
                                hi.wrapping_add(dh)
                            }
                        })
                        .collect()
                })
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn bdi_sweep_matches_per_mode_scan(values in bdi_register()) {
        prop_assert_eq!(bdi::compress(&values), model_bdi(&values));
    }

    #[test]
    fn full_mask_fold_matches_reference(values in differential_register()) {
        // The full-mask fold; mask bits past the register are ignored.
        for mask in [full_mask(values.len()), u64::MAX] {
            prop_assert_eq!(
                bytewise::eq_planes(&values, mask),
                bytewise::reference::eq_planes(&values, mask)
            );
        }
    }
}

proptest! {
    #[test]
    fn full_mask_write_metadata_matches_chunk_scan(values in differential_register()) {
        // A uniform write sets its chunk metadata without scanning; every
        // write must leave what the per-chunk scan derives.
        let lanes = values.len();
        let mut m = RegFileMeta::new(1, MetaConfig::g_scalar(lanes));
        let w = m.write(0, &values, full_mask(lanes));
        let scan: Vec<ChunkMeta> = bytewise::encode_chunks(&values)
            .map(|(enc, bvr)| ChunkMeta { enc, bvr })
            .collect();
        let meta = m.meta(0);
        prop_assert_eq!(meta.chunks(), scan.as_slice());
        prop_assert_eq!(
            meta.fs,
            scan.iter().all(|c| c.enc.is_scalar() && c.bvr == values[0])
        );
        prop_assert_eq!(
            w.arrays_written,
            scan.iter().map(|c| c.enc.delta_bytes_per_lane()).sum::<usize>()
        );
    }
}

#[test]
fn bdi_uniform_matches_the_scan() {
    for lanes in [1, 2, 31, 32, 64] {
        for v in [0, 1, 0xFFFF_FFFF] {
            assert_eq!(bdi::uniform(v, lanes), model_bdi(&vec![v; lanes]));
        }
    }
}

#[test]
fn every_bdi_mode_is_reached() {
    let mut rng = proptest::rng::TestRng::seed(7);
    let strategy = bdi_register();
    let mut seen = std::collections::BTreeSet::new();
    for _ in 0..4096 {
        seen.insert(format!(
            "{}",
            bdi::compress(&strategy.generate(&mut rng)).mode
        ));
    }
    let all: std::collections::BTreeSet<_> =
        bdi::BdiMode::ALL.iter().map(|m| m.to_string()).collect();
    assert_eq!(seen, all);
}
