//! `GlobalMemory` against a byte-map model: random interleavings of
//! byte, word, float, slice and per-lane accesses at aligned, unaligned,
//! page-straddling and top-of-address-space addresses, plus a kernel
//! whose store wraps past `u64::MAX` in the engine and the reference
//! interpreter alike.

use std::collections::{BTreeMap, BTreeSet};

use gscalar_isa::{KernelBuilder, LaunchConfig, Operand, Reg};
use gscalar_sim::memory::GlobalMemory;
use gscalar_sim::reference::run_reference;
use gscalar_sim::{ArchConfig, Gpu, GpuConfig};
use proptest::prelude::*;

const PAGE: u64 = 4096;

/// The specification: every written byte by address; absent reads zero.
#[derive(Debug, Clone, Default)]
struct Model(BTreeMap<u64, u8>);

impl Model {
    fn read_u8(&self, a: u64) -> u8 {
        self.0.get(&a).copied().unwrap_or(0)
    }

    fn read_u32(&self, a: u64) -> u32 {
        u32::from_le_bytes([0u64, 1, 2, 3].map(|i| self.read_u8(a.wrapping_add(i))))
    }

    fn write_u32(&mut self, a: u64, v: u32) {
        for (i, b) in (0u64..).zip(v.to_le_bytes()) {
            self.0.insert(a.wrapping_add(i), b);
        }
    }

    fn write_slice(&mut self, a: u64, vs: &[u32]) {
        for (i, &v) in (0u64..).zip(vs) {
            self.write_u32(a.wrapping_add(4 * i), v);
        }
    }

    fn resident_pages(&self) -> usize {
        self.0
            .keys()
            .map(|a| a / PAGE)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// The lowest address where the two models' bytes differ.
    fn first_difference(&self, other: &Model) -> Option<u64> {
        let addrs: BTreeSet<u64> = self.0.keys().chain(other.0.keys()).copied().collect();
        addrs
            .into_iter()
            .find(|&a| self.read_u8(a) != other.read_u8(a))
    }
}

#[derive(Debug, Clone)]
enum Op {
    W8(u64, u8),
    W32(u64, u32),
    WF32(u64, u32),
    WSlice(u64, Vec<u32>),
    WFSlice(u64, Vec<u32>),
    R8(u64),
    R32(u64),
    RF32(u64),
    RSlice(u64, usize),
    /// Per-lane words: addresses, lane mask, values.
    WLanes(Vec<u64>, u64, Vec<u32>),
    RLanes(Vec<u64>, u64),
}

/// Addresses that collide often: two page boundaries low in memory
/// (aligned and unaligned), the top of the address space, and rarely
/// anywhere at all.
fn addr() -> impl Strategy<Value = u64> {
    prop_oneof![
        3 => 0u64..3 * PAGE,
        2 => (0u64..3 * PAGE).prop_map(|a| a & !3),
        2 => 0x7F_FF00u64..0x80_0100,
        2 => u64::MAX - 64..=u64::MAX,
        1 => any::<u64>(),
    ]
}

/// Mostly zero or small values, so writes of zero touch pages.
fn value() -> impl Strategy<Value = u32> {
    prop_oneof![2 => Just(0u32), 1 => 0u32..256, 3 => any::<u32>()]
}

/// Slice lengths: mostly short, sometimes over a whole page.
fn len() -> impl Strategy<Value = usize> {
    prop_oneof![6 => 0usize..8, 1 => 1000usize..1100]
}

/// A warp's lane addresses: strided from one base (runs within a
/// page, overlapping and straddling words, one shared word) or each
/// lane anywhere.
fn lane_addrs() -> impl Strategy<Value = Vec<u64>> {
    let stride = proptest::sample::select(vec![0u64, 1, 2, 3, 4, 8, 128, 4096]);
    prop_oneof![
        3 => (addr(), stride, 1usize..=64).prop_map(|(base, stride, n)| {
            (0..n as u64).map(|i| base.wrapping_add(i * stride)).collect()
        }),
        1 => proptest::collection::vec(addr(), 1..=64),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (addr(), any::<u8>()).prop_map(|(a, v)| Op::W8(a, v)),
        (addr(), value()).prop_map(|(a, v)| Op::W32(a, v)),
        (addr(), value()).prop_map(|(a, v)| Op::WF32(a, v)),
        (addr(), len()).prop_flat_map(|(a, n)| {
            proptest::collection::vec(value(), n).prop_map(move |vs| Op::WSlice(a, vs))
        }),
        (addr(), len()).prop_flat_map(|(a, n)| {
            proptest::collection::vec(value(), n).prop_map(move |vs| Op::WFSlice(a, vs))
        }),
        addr().prop_map(Op::R8),
        addr().prop_map(Op::R32),
        addr().prop_map(Op::RF32),
        (addr(), len()).prop_map(|(a, n)| Op::RSlice(a, n)),
        (lane_addrs(), any::<u64>()).prop_flat_map(|(addrs, mask)| {
            let n = addrs.len();
            proptest::collection::vec(value(), n)
                .prop_map(move |vs| Op::WLanes(addrs.clone(), mask, vs))
        }),
        (lane_addrs(), any::<u64>()).prop_map(|(addrs, mask)| Op::RLanes(addrs, mask)),
    ]
}

/// `mask` restricted to the lanes `addrs` has (never empty: lane 0
/// stays in).
fn lane_mask(addrs: &[u64], mask: u64) -> u64 {
    let n = addrs.len();
    (mask | 1) & if n == 64 { u64::MAX } else { (1 << n) - 1 }
}

/// Applies `op` to both memories and checks every read against the
/// model.
fn apply(m: &mut GlobalMemory, model: &mut Model, op: &Op) -> Result<(), TestCaseError> {
    match op {
        Op::W8(a, v) => {
            m.write_u8(*a, *v);
            model.0.insert(*a, *v);
        }
        Op::W32(a, v) => {
            m.write_u32(*a, *v);
            model.write_u32(*a, *v);
        }
        Op::WF32(a, v) => {
            m.write_f32(*a, f32::from_bits(*v));
            model.write_u32(*a, *v);
        }
        Op::WSlice(a, vs) => {
            m.write_u32_slice(*a, vs);
            model.write_slice(*a, vs);
        }
        Op::WFSlice(a, vs) => {
            let fs: Vec<f32> = vs.iter().map(|&v| f32::from_bits(v)).collect();
            m.write_f32_slice(*a, &fs);
            model.write_slice(*a, vs);
        }
        Op::R8(a) => prop_assert_eq!(m.read_u8(*a), model.read_u8(*a), "u8 at {:#x}", a),
        Op::R32(a) => prop_assert_eq!(m.read_u32(*a), model.read_u32(*a), "u32 at {:#x}", a),
        Op::RF32(a) => prop_assert_eq!(
            m.read_f32(*a).to_bits(),
            model.read_u32(*a),
            "f32 at {:#x}",
            a
        ),
        Op::RSlice(a, n) => {
            let want: Vec<u32> = (0..*n as u64)
                .map(|i| model.read_u32(a.wrapping_add(4 * i)))
                .collect();
            prop_assert_eq!(m.read_u32_slice(*a, *n), want, "slice at {:#x}", a);
        }
        Op::WLanes(addrs, mask, vs) => {
            // Lane order: a later lane's bytes win where words overlap.
            let mask = lane_mask(addrs, *mask);
            m.write_lanes(addrs, mask, vs);
            for lane in (0..addrs.len()).filter(|l| mask >> l & 1 != 0) {
                model.write_u32(addrs[lane], vs[lane]);
            }
        }
        Op::RLanes(addrs, mask) => {
            let mask = lane_mask(addrs, *mask);
            let mut got = vec![0xDEAD_BEEF; addrs.len()];
            m.read_lanes(addrs, mask, &mut got);
            for (lane, &g) in got.iter().enumerate() {
                let want = if mask >> lane & 1 != 0 {
                    model.read_u32(addrs[lane])
                } else {
                    0xDEAD_BEEF
                };
                prop_assert_eq!(g, want, "lane {} at {:#x}", lane, addrs[lane]);
            }
        }
    }
    prop_assert_eq!(m.resident_pages(), model.resident_pages(), "after {:?}", op);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matches_byte_model(
        ops in proptest::collection::vec(op(), 1..40),
        more in proptest::collection::vec(op(), 0..6),
    ) {
        let mut m = GlobalMemory::new();
        let mut model = Model::default();
        for op in &ops {
            apply(&mut m, &mut model, op)?;
        }
        // A clone plus a few more accesses (often zero writes to fresh
        // pages, which must still compare equal to untouched ones).
        let mut m2 = m.clone();
        let mut model2 = model.clone();
        for op in &more {
            apply(&mut m2, &mut model2, op)?;
        }
        let want = model.first_difference(&model2);
        prop_assert_eq!(m.first_difference(&m2), want);
        prop_assert_eq!(m2.first_difference(&m), want);
        prop_assert_eq!(m.content_eq(&m2), want.is_none());
        prop_assert!(m.content_eq(&m.clone()));
    }
}

/// A load and a store with base RZ and offset -2 address the word at
/// `u64::MAX - 1`, whose last two bytes wrap to addresses 0 and 1.
#[test]
fn kernel_word_at_top_of_address_space_wraps() {
    let mut b = KernelBuilder::new("wrap");
    let v = b.mov(Operand::Imm(0xA1B2_C3D4));
    b.st_global(Reg::RZ, v, -2);
    let back = b.ld_global(Reg::RZ, -2);
    let out = b.mov(Operand::Imm(0x100));
    b.st_global(out, back, 0);
    b.exit();
    let kernel = b.build().expect("kernel is valid");
    let launch = LaunchConfig::linear(4, 32);

    let mut reference = GlobalMemory::new();
    run_reference(&kernel, launch, &mut reference);
    assert_eq!(reference.read_u32(u64::MAX - 1), 0xA1B2_C3D4);
    assert_eq!(reference.read_u8(u64::MAX), 0xC3);
    assert_eq!(reference.read_u32(0), 0xA1B2);
    assert_eq!(reference.read_u32(0x100), 0xA1B2_C3D4);

    let mut cfg = GpuConfig::test_small();
    cfg.num_sms = 4;
    let mut mem = GlobalMemory::new();
    Gpu::new(cfg, ArchConfig::baseline()).run(&kernel, launch, &mut mem);
    assert_eq!(mem.first_difference(&reference), None);
}
