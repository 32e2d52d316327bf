//! A kernel decoded once per run: the register and predicate operands
//! and the functional unit of every instruction, in a dense per-PC
//! table the issue stage reads instead of re-decoding [`Instr`]s.

use gscalar_isa::{FuncUnit, Instr, Kernel, Pred, Reg, SrcRegs};

/// The issue-relevant decode of one instruction.
///
/// # Examples
///
/// ```
/// use gscalar_isa::{AluOp, FuncUnit, Guard, Instr, InstrKind, Pred, Reg};
/// use gscalar_sim::decode::DecodedInstr;
///
/// let add = Instr::new(
///     Guard::pos(Pred::new(1)),
///     InstrKind::Alu {
///         op: AluOp::IAdd,
///         dst: Reg::new(1),
///         a: Reg::new(2).into(),
///         b: Reg::new(2).into(),
///         c: Reg::RZ.into(),
///     },
/// );
/// let d = DecodedInstr::new(&add);
/// assert_eq!(&*d.srcs, &[Reg::new(2)]);
/// assert_eq!(d.dst, Some(Reg::new(1)));
/// assert_eq!(d.guard_pred, Some(Pred::new(1)));
/// assert_eq!(d.unit, FuncUnit::Alu);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedInstr {
    /// General-purpose registers read ([`Instr::src_regs`]).
    pub srcs: SrcRegs,
    /// General-purpose register written ([`Instr::dst_reg`]).
    pub dst: Option<Reg>,
    /// Predicate written ([`Instr::dst_pred`]).
    pub dst_pred: Option<Pred>,
    /// Predicate read by the guard ([`Instr::src_preds`]).
    pub guard_pred: Option<Pred>,
    /// Functional unit ([`Instr::func_unit`]).
    pub unit: FuncUnit,
}

impl DecodedInstr {
    /// Decodes `instr`.
    #[must_use]
    pub fn new(instr: &Instr) -> Self {
        DecodedInstr {
            srcs: instr.src_regs(),
            dst: instr.dst_reg(),
            dst_pred: instr.dst_pred(),
            guard_pred: instr.src_preds(),
            unit: instr.func_unit(),
        }
    }
}

/// Every instruction of one kernel, decoded, indexed by PC. A run
/// builds it once and shares it across the SMs.
#[derive(Debug, Clone)]
pub struct DecodeTable {
    instrs: Vec<DecodedInstr>,
}

impl DecodeTable {
    /// Decodes every instruction of `kernel`.
    #[must_use]
    pub fn new(kernel: &Kernel) -> Self {
        DecodeTable {
            instrs: kernel.instrs().iter().map(DecodedInstr::new).collect(),
        }
    }

    /// The decode of the instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[must_use]
    #[inline]
    pub fn get(&self, pc: usize) -> &DecodedInstr {
        &self.instrs[pc]
    }
}
