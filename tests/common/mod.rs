//! The random-kernel generator the root integration tests share:
//! straight-line ALU work, loads, stores, divergence and loops over
//! tid-disjoint global words.

use gscalar::isa::{CmpOp, Kernel, KernelBuilder, Operand, SReg};
use gscalar::sim::memory::GlobalMemory;
use proptest::prelude::*;

/// Base address of the generated kernels' global words (4-byte
/// aligned, one word per thread).
const BASE: u32 = 0x10_0000;

/// One randomly chosen kernel body step.
#[derive(Debug, Clone)]
pub enum Step {
    AddImm(u32),
    XorTid,
    Load,
    Store,
    Diverge(u32),
    Loop(u32),
}

pub fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u32..1000).prop_map(Step::AddImm),
        Just(Step::XorTid),
        Just(Step::Load),
        Just(Step::Store),
        (1u32..31).prop_map(Step::Diverge),
        (2u32..5).prop_map(Step::Loop),
    ]
}

/// Builds a kernel whose global accesses are tid-disjoint (4-byte
/// aligned, one word per thread), mixing ALU work, loads, stores,
/// divergence, and loops according to `steps`.
pub fn build_kernel(steps: &[Step]) -> Kernel {
    let mut b = KernelBuilder::new("rand");
    let tid = b.s2r(SReg::TidX);
    let ctaid = b.s2r(SReg::CtaIdX);
    let ntid = b.s2r(SReg::NTidX);
    let gid = b.imad(ctaid.into(), ntid.into(), tid.into());
    let off = b.shl(gid.into(), Operand::Imm(2));
    let addr = b.iadd(off.into(), Operand::Imm(BASE));
    let acc = b.mov(Operand::Imm(1));
    for step in steps {
        match step {
            Step::AddImm(k) => {
                let t = b.iadd(acc.into(), Operand::Imm(*k));
                b.mov_to(acc, t.into());
            }
            Step::XorTid => {
                let t = b.xor(acc.into(), tid.into());
                b.mov_to(acc, t.into());
            }
            Step::Load => {
                let v = b.ld_global(addr, 0);
                let t = b.iadd(acc.into(), v.into());
                b.mov_to(acc, t.into());
            }
            Step::Store => {
                b.st_global(addr, acc, 0);
            }
            Step::Diverge(k) => {
                let p = b.isetp(CmpOp::Lt, tid.into(), Operand::Imm(*k));
                b.if_else(
                    p.into(),
                    |b| {
                        let t = b.iadd(acc.into(), Operand::Imm(7));
                        b.mov_to(acc, t.into());
                    },
                    |b| {
                        let t = b.xor(acc.into(), Operand::Imm(3));
                        b.mov_to(acc, t.into());
                    },
                );
            }
            Step::Loop(n) => {
                let i = b.mov(Operand::Imm(0));
                b.while_loop(
                    |b| b.isetp(CmpOp::Lt, i.into(), Operand::Imm(*n)).into(),
                    |b| {
                        let t = b.iadd(acc.into(), i.into());
                        b.mov_to(acc, t.into());
                        let t2 = b.iadd(i.into(), Operand::Imm(1));
                        b.mov_to(i, t2.into());
                    },
                );
            }
        }
    }
    b.st_global(addr, acc, 0);
    b.exit();
    b.build().unwrap()
}

/// The input memory of a generated kernel launched over `threads`
/// threads: one distinct word per thread.
pub fn initial_memory(threads: u32) -> GlobalMemory {
    let mut init = GlobalMemory::new();
    for t in 0..u64::from(threads) {
        init.write_u32(u64::from(BASE) + t * 4, (t * 17 + 3) as u32);
    }
    init
}
