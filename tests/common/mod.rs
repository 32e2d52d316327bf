//! The workspace's one structured-kernel generator, shared by every
//! reference and accounting property: a recursive statement tree over
//! an accumulator, the thread id and one global word per thread,
//! lowered by [`build_kernel`] and checked by [`matches_reference`].
//!
//! The tree mixes ALU work (immediate adds, IMAD by tid, xor-shifts),
//! an SFU round trip, per-thread and warp-uniform loads, stores,
//! divergence on the thread id and on the data, uniform and per-lane
//! loops, and the irregular shapes of real GPU control flow:
//! data-dependent breaks out of loops, guarded early exits of some
//! lanes, and divergence nested three deep.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use gscalar::core::Arch;
use gscalar::isa::builder::{Cond, Label};
use gscalar::isa::{
    AluOp, CmpOp, Kernel, KernelBuilder, LaunchConfig, Operand, Pred, Reg, SReg, SfuOp,
};
use gscalar::sim::memory::GlobalMemory;
use gscalar::sim::reference::run_reference;
use gscalar::sim::{ArchConfig, Gpu, GpuConfig};
use proptest::collection::vec;
use proptest::prelude::*;

/// Base address of the generated kernels' global words (4-byte
/// aligned, one word per thread, indexed by global thread id).
const BASE: u32 = 0x10_0000;

/// Address of a read-only word every thread may load.
const PARAM: u32 = BASE - 4;

/// The zero register as an unused operand.
const RZ: Operand = Operand::Reg(Reg::RZ);

/// A lane-varying condition.
#[derive(Debug, Clone, Copy)]
pub enum Split {
    /// `tid < n` (thread id within the CTA).
    TidLt(u32),
    /// The accumulator is even: a data-dependent split.
    AccEven,
}

/// One statement of a generated kernel; `acc` is the per-thread
/// accumulator and `word` the thread's global word.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// `acc += k`.
    AddImm(u32),
    /// `acc ^= tid`.
    XorTid,
    /// `acc = acc * 3 + tid` (one IMAD).
    MulTid,
    /// `acc ^= acc << n`.
    XorShift(u32),
    /// `acc += f2i(sqrt(i2f(acc & 0xFF)))`: exact, so the SFU result
    /// is integral on every path.
    SfuRound,
    /// `acc += word`.
    Load,
    /// `acc += param`: a load from one read-only address, the same for
    /// every lane.
    LoadParam,
    /// `word = acc`.
    Store,
    /// `word = acc; acc = word`: a load straight after its store.
    StoreLoad,
    /// `if (cond) { then } else { else }`; an empty `else` lowers to a
    /// bare `if`.
    If(Split, Vec<Stmt>, Vec<Stmt>),
    /// `Loop(n, per_lane, body)`: `for i in 0..trips { acc += i; body }`
    /// with `trips = n`, or `(tid & 3) + n` for a per-lane loop.
    Loop(u32, bool, Vec<Stmt>),
    /// Lanes whose condition holds leave the innermost enclosing loop
    /// (no code outside a loop).
    Break(Split),
    /// Lanes whose condition holds publish `acc` and exit (one guarded
    /// `EXIT`).
    Exit(Split),
}

fn split() -> impl Strategy<Value = Split> {
    prop_oneof![(1u32..64).prop_map(Split::TidLt), Just(Split::AccEven)]
}

/// The generator: one to nine statements, each a tree at most three
/// compound statements deep.
pub fn program() -> impl Strategy<Value = Vec<Stmt>> {
    let leaf = prop_oneof![
        (1u32..1000).prop_map(Stmt::AddImm),
        Just(Stmt::XorTid),
        Just(Stmt::MulTid),
        (1u32..31).prop_map(Stmt::XorShift),
        Just(Stmt::SfuRound),
        Just(Stmt::Load),
        Just(Stmt::LoadParam),
        Just(Stmt::Store),
        Just(Stmt::StoreLoad),
    ]
    .boxed();
    let stmt = leaf.clone().prop_recursive(3, 24, 3, move |inner| {
        prop_oneof![
            6 => leaf.clone(),
            2 => (split(), vec(inner.clone(), 1..3), vec(inner.clone(), 0..2))
                .prop_map(|(c, t, e)| Stmt::If(c, t, e)),
            2 => (1u32..5, any::<bool>(), vec(inner, 0..3))
                .prop_map(|(n, per_lane, body)| Stmt::Loop(n, per_lane, body)),
            1 => split().prop_map(Stmt::Break),
            1 => split().prop_map(Stmt::Exit),
        ]
    });
    vec(stmt, 1..10)
}

/// The registers every statement reads or writes.
struct Ctx {
    tid: Reg,
    addr: Reg,
    acc: Reg,
    scratch: Reg,
    p: Pred,
}

impl Ctx {
    /// Sets `p` to `c`.
    fn test(&self, b: &mut KernelBuilder, c: Split) {
        match c {
            Split::TidLt(n) => b.isetp_to(self.p, CmpOp::Lt, self.tid.into(), Operand::Imm(n)),
            Split::AccEven => {
                b.alu_to(
                    AluOp::And,
                    self.scratch,
                    self.acc.into(),
                    Operand::Imm(1),
                    RZ,
                );
                b.isetp_to(self.p, CmpOp::Eq, self.scratch.into(), Operand::Imm(0));
            }
        }
    }

    /// Emits `stmts`; `brk` is the end of the innermost enclosing loop.
    fn emit(&self, b: &mut KernelBuilder, stmts: &[Stmt], brk: Option<Label>) {
        let (acc, tid, t) = (self.acc, self.tid, self.scratch);
        for s in stmts {
            match s {
                Stmt::AddImm(k) => b.iadd_to(acc, acc.into(), Operand::Imm(*k)),
                Stmt::XorTid => b.alu_to(AluOp::Xor, acc, acc.into(), tid.into(), RZ),
                Stmt::MulTid => b.alu_to(AluOp::IMad, acc, acc.into(), Operand::Imm(3), tid.into()),
                Stmt::XorShift(n) => {
                    b.alu_to(AluOp::Shl, t, acc.into(), Operand::Imm(*n), RZ);
                    b.alu_to(AluOp::Xor, acc, acc.into(), t.into(), RZ);
                }
                Stmt::SfuRound => {
                    b.alu_to(AluOp::And, t, acc.into(), Operand::Imm(0xFF), RZ);
                    b.alu_to(AluOp::I2F, t, t.into(), RZ, RZ);
                    b.sfu_to(SfuOp::Sqrt, t, t.into());
                    b.alu_to(AluOp::F2I, t, t.into(), RZ, RZ);
                    b.iadd_to(acc, acc.into(), t.into());
                }
                Stmt::Load => {
                    let v = b.ld_global(self.addr, 0);
                    b.iadd_to(acc, acc.into(), v.into());
                }
                Stmt::LoadParam => {
                    let v = b.ld_global(Reg::RZ, PARAM as i32);
                    b.iadd_to(acc, acc.into(), v.into());
                }
                Stmt::Store => b.st_global(self.addr, acc, 0),
                Stmt::StoreLoad => {
                    b.st_global(self.addr, acc, 0);
                    b.ld_global_to(acc, self.addr, 0);
                }
                Stmt::If(c, then, els) => {
                    self.test(b, *c);
                    if els.is_empty() {
                        b.if_then(self.p.into(), |b| self.emit(b, then, brk));
                    } else {
                        b.if_else(
                            self.p.into(),
                            |b| self.emit(b, then, brk),
                            |b| self.emit(b, els, brk),
                        );
                    }
                }
                Stmt::Loop(n, per_lane, body) => {
                    let limit = if *per_lane {
                        let l = b.and(tid.into(), Operand::Imm(3));
                        b.iadd_to(l, l.into(), Operand::Imm(*n));
                        l
                    } else {
                        b.mov(Operand::Imm(*n))
                    };
                    let i = b.mov(Operand::Imm(0));
                    let (head, end) = (b.new_label(), b.new_label());
                    b.place(head);
                    b.isetp_to(self.p, CmpOp::Lt, i.into(), limit.into());
                    b.bra(Some(Cond::from(self.p).not()), end);
                    b.iadd_to(acc, acc.into(), i.into());
                    self.emit(b, body, Some(end));
                    b.iadd_to(i, i.into(), Operand::Imm(1));
                    b.bra(None, head);
                    b.place(end);
                }
                Stmt::Break(c) => {
                    if let Some(end) = brk {
                        self.test(b, *c);
                        b.bra(Some(self.p.into()), end);
                    }
                }
                Stmt::Exit(c) => {
                    b.st_global(self.addr, acc, 0);
                    self.test(b, *c);
                    b.exit();
                    b.guard_last(self.p.into());
                }
            }
        }
    }
}

/// Lowers `prog` to a kernel: each thread starts with `acc = 1`, runs
/// the statements and stores `acc` to its global word.
pub fn build_kernel(prog: &[Stmt]) -> Kernel {
    let mut b = KernelBuilder::new("rand");
    let tid = b.s2r(SReg::TidX);
    let ctaid = b.s2r(SReg::CtaIdX);
    let ntid = b.s2r(SReg::NTidX);
    let gid = b.imad(ctaid.into(), ntid.into(), tid.into());
    let off = b.shl(gid.into(), Operand::Imm(2));
    let addr = b.iadd(off.into(), Operand::Imm(BASE));
    let ctx = Ctx {
        tid,
        addr,
        acc: b.mov(Operand::Imm(1)),
        scratch: b.reg(),
        p: b.pred(),
    };
    ctx.emit(&mut b, prog, None);
    b.st_global(addr, ctx.acc, 0);
    b.exit();
    b.build().expect("generated kernel builds")
}

/// The input memory of a generated kernel launched over `threads`
/// threads: the parameter word and one distinct word per thread.
pub fn initial_memory(threads: u32) -> GlobalMemory {
    let mut init = GlobalMemory::new();
    init.write_u32(u64::from(PARAM), 0x9E37);
    for t in 0..u64::from(threads) {
        init.write_u32(u64::from(BASE) + t * 4, (t * 17 + 3) as u32);
    }
    init
}

/// The oracle: runs `kernel` on the cycle-level simulator and on the
/// per-thread reference interpreter from `init`, and describes the
/// first difference in their final memory.
pub fn matches_reference(
    kernel: &Kernel,
    launch: LaunchConfig,
    init: &GlobalMemory,
    cfg: &GpuConfig,
    arch: &ArchConfig,
) -> Result<(), String> {
    let mut expected = init.clone();
    run_reference(kernel, launch, &mut expected);
    let mut mem = init.clone();
    Gpu::new(cfg.clone(), arch.clone()).run(kernel, launch, &mut mem);
    if mem.content_eq(&expected) {
        Ok(())
    } else {
        Err(format!(
            "{} on {} SM(s): memory diverges from the reference at {:?} for kernel:\n{kernel}",
            arch.name,
            cfg.num_sms,
            mem.first_difference(&expected)
        ))
    }
}

/// A small multi-SM configuration: the 1-SM `test_small` widened to 4
/// SMs, so sleeping SMs, the driver's jumps over them and the per-SM
/// merge all participate.
pub fn multi_sm_config() -> GpuConfig {
    let mut cfg = GpuConfig::test_small();
    cfg.num_sms = 4;
    cfg
}

/// G-Scalar with every scalar path and compiler-assisted moves on: the
/// widest architecture the reference must agree with.
pub fn gscalar_arch_full() -> ArchConfig {
    ArchConfig {
        name: "gscalar-full".into(),
        compiler_assisted_moves: true,
        ..Arch::GScalar.config()
    }
}
