//! Instruction representation.

use std::fmt;

use crate::op::{AluOp, CmpOp, FuncUnit, SReg, SfuOp, Space};
use crate::reg::{Pred, Reg};

/// A source operand: a register or a 32-bit immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Read a general-purpose register.
    Reg(Reg),
    /// A literal 32-bit value (also used for `f32` immediates as raw bits).
    Imm(u32),
}

impl Operand {
    /// The register read by this operand, if any.
    #[must_use]
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Imm(_) => None,
        }
    }

    /// Constructs an immediate operand carrying the bits of an `f32`.
    #[must_use]
    pub fn imm_f32(v: f32) -> Self {
        Operand::Imm(v.to_bits())
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{:#x}", v),
        }
    }
}

/// A predicate guard, e.g. `@P0` or `@!P2`.
///
/// An instruction only takes effect in lanes where the guard evaluates
/// true. The default guard is `@PT` (always true) and is omitted when
/// printing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Guard {
    /// The predicate register consulted.
    pub pred: Pred,
    /// If true the guard passes where the predicate is *false*.
    pub negate: bool,
}

impl Guard {
    /// The always-true guard `@PT`.
    pub const ALWAYS: Guard = Guard {
        pred: Pred::PT,
        negate: false,
    };

    /// Creates a positive guard `@P`.
    #[must_use]
    pub fn pos(pred: Pred) -> Self {
        Guard {
            pred,
            negate: false,
        }
    }

    /// Creates a negated guard `@!P`.
    #[must_use]
    pub fn neg(pred: Pred) -> Self {
        Guard { pred, negate: true }
    }

    /// Whether the guard statically always passes.
    #[must_use]
    pub fn is_always(self) -> bool {
        self.pred.is_true() && !self.negate
    }
}

impl Default for Guard {
    fn default() -> Self {
        Guard::ALWAYS
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.negate {
            write!(f, "@!{}", self.pred)
        } else {
            write!(f, "@{}", self.pred)
        }
    }
}

/// The operation an [`Instr`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Arithmetic/logic operation. `c` is only read by 3-input opcodes
    /// ([`AluOp::IMad`], [`AluOp::FFma`]); 1-input opcodes read only `a`.
    Alu {
        /// Opcode.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source.
        a: Operand,
        /// Second source (ignored by 1-input opcodes).
        b: Operand,
        /// Third source (read only by 3-input opcodes).
        c: Operand,
    },
    /// Special-function operation (single source).
    Sfu {
        /// Opcode.
        op: SfuOp,
        /// Destination register.
        dst: Reg,
        /// Source operand.
        a: Operand,
    },
    /// Move a register or immediate into a register.
    Mov {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// Read a special register (`S2R dst, SR_TID.X`).
    S2R {
        /// Destination register.
        dst: Reg,
        /// The special register to read.
        sreg: SReg,
    },
    /// Integer or floating-point compare-and-set-predicate.
    SetP {
        /// Comparison kind.
        cmp: CmpOp,
        /// Compare as `f32` when true, signed integer otherwise.
        float: bool,
        /// Destination predicate.
        dst: Pred,
        /// Left-hand source.
        a: Operand,
        /// Right-hand source.
        b: Operand,
    },
    /// Load a 32-bit value: `dst = [addr + offset]`.
    Ld {
        /// Address space.
        space: Space,
        /// Destination register.
        dst: Reg,
        /// Base address register (byte address).
        addr: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// Store a 32-bit value: `[addr + offset] = src`.
    St {
        /// Address space.
        space: Space,
        /// Value register.
        src: Reg,
        /// Base address register (byte address).
        addr: Reg,
        /// Byte offset added to the base.
        offset: i32,
    },
    /// Branch to `target` in lanes where the guard passes.
    ///
    /// A guarded branch is potentially divergent; the simulator consults
    /// the kernel's reconvergence analysis to drive its SIMT stack.
    Bra {
        /// Target instruction index within the kernel.
        target: usize,
    },
    /// CTA-wide barrier (`BAR.SYNC`).
    Bar,
    /// Terminate the thread (all active lanes).
    Exit,
    /// No operation.
    Nop,
}

/// A single SIMT machine instruction: a guard plus an operation.
///
/// # Examples
///
/// ```
/// use gscalar_isa::{Instr, InstrKind, Guard, Operand, Reg, AluOp, Pred};
///
/// let i = Instr::new(
///     Guard::pos(Pred::new(0)),
///     InstrKind::Alu {
///         op: AluOp::IAdd,
///         dst: Reg::new(1),
///         a: Operand::Reg(Reg::new(2)),
///         b: Operand::Imm(4),
///         c: Operand::Reg(Reg::RZ),
///     },
/// );
/// assert_eq!(i.to_string(), "@P0 IADD R1, R2, 0x4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instr {
    /// The predicate guard.
    pub guard: Guard,
    /// The operation.
    pub kind: InstrKind,
}

impl Instr {
    /// Creates a guarded instruction.
    #[must_use]
    pub fn new(guard: Guard, kind: InstrKind) -> Self {
        Instr { guard, kind }
    }

    /// Creates an unguarded (`@PT`) instruction.
    #[must_use]
    pub fn always(kind: InstrKind) -> Self {
        Instr {
            guard: Guard::ALWAYS,
            kind,
        }
    }

    /// The functional unit this instruction dispatches to.
    #[must_use]
    pub fn func_unit(&self) -> FuncUnit {
        match self.kind {
            InstrKind::Alu { .. }
            | InstrKind::Mov { .. }
            | InstrKind::S2R { .. }
            | InstrKind::SetP { .. } => FuncUnit::Alu,
            InstrKind::Sfu { .. } => FuncUnit::Sfu,
            InstrKind::Ld { .. } | InstrKind::St { .. } => FuncUnit::Mem,
            InstrKind::Bra { .. } | InstrKind::Bar | InstrKind::Exit | InstrKind::Nop => {
                FuncUnit::Control
            }
        }
    }

    /// The general-purpose register written, if any.
    #[must_use]
    pub fn dst_reg(&self) -> Option<Reg> {
        let r = match self.kind {
            InstrKind::Alu { dst, .. }
            | InstrKind::Sfu { dst, .. }
            | InstrKind::Mov { dst, .. }
            | InstrKind::S2R { dst, .. }
            | InstrKind::Ld { dst, .. } => dst,
            _ => return None,
        };
        if r.is_zero() {
            None
        } else {
            Some(r)
        }
    }

    /// The predicate register written, if any.
    #[must_use]
    pub fn dst_pred(&self) -> Option<Pred> {
        match self.kind {
            InstrKind::SetP { dst, .. } if !dst.is_true() => Some(dst),
            _ => None,
        }
    }

    /// The general-purpose registers read, in operand order.
    ///
    /// Includes the guard's implied predicate only via [`Instr::src_preds`];
    /// this method reports GPR sources (deduplicated, `RZ` excluded).
    #[must_use]
    pub fn src_regs(&self) -> SrcRegs {
        let mut out = SrcRegs::default();
        let mut push = |o: Operand| {
            if let Operand::Reg(r) = o {
                out.push_unique(r);
            }
        };
        match self.kind {
            InstrKind::Alu { op, a, b, c, .. } => {
                push(a);
                if op.arity() >= 2 {
                    push(b);
                }
                if op.arity() >= 3 {
                    push(c);
                }
            }
            InstrKind::Sfu { a, .. } => push(a),
            InstrKind::Mov { src, .. } => push(src),
            InstrKind::SetP { a, b, .. } => {
                push(a);
                push(b);
            }
            InstrKind::Ld { addr, .. } => push(Operand::Reg(addr)),
            InstrKind::St { src, addr, .. } => {
                push(Operand::Reg(src));
                push(Operand::Reg(addr));
            }
            InstrKind::S2R { .. }
            | InstrKind::Bra { .. }
            | InstrKind::Bar
            | InstrKind::Exit
            | InstrKind::Nop => {}
        }
        out
    }

    /// The predicate register read: the guard's, unless it is the
    /// hard-wired true predicate.
    #[must_use]
    pub fn src_preds(&self) -> Option<Pred> {
        (!self.guard.pred.is_true()).then_some(self.guard.pred)
    }

    /// Whether this is a (potentially divergent) branch.
    #[must_use]
    pub fn is_branch(&self) -> bool {
        matches!(self.kind, InstrKind::Bra { .. })
    }

    /// Whether this instruction ends the thread.
    #[must_use]
    pub fn is_exit(&self) -> bool {
        matches!(self.kind, InstrKind::Exit)
    }

    /// Whether this is a load or store.
    #[must_use]
    pub fn is_mem(&self) -> bool {
        matches!(self.kind, InstrKind::Ld { .. } | InstrKind::St { .. })
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.guard.is_always() {
            write!(f, "{} ", self.guard)?;
        }
        match self.kind {
            InstrKind::Alu { op, dst, a, b, c } => match op.arity() {
                1 => write!(f, "{op} {dst}, {a}"),
                2 => write!(f, "{op} {dst}, {a}, {b}"),
                _ => write!(f, "{op} {dst}, {a}, {b}, {c}"),
            },
            InstrKind::Sfu { op, dst, a } => write!(f, "{op} {dst}, {a}"),
            InstrKind::Mov { dst, src } => write!(f, "MOV {dst}, {src}"),
            InstrKind::S2R { dst, sreg } => write!(f, "S2R {dst}, {sreg}"),
            InstrKind::SetP {
                cmp,
                float,
                dst,
                a,
                b,
            } => {
                let base = if float { "FSETP" } else { "ISETP" };
                write!(f, "{base}.{cmp} {dst}, {a}, {b}")
            }
            InstrKind::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                if offset == 0 {
                    write!(f, "LD.{space} {dst}, [{addr}]")
                } else {
                    write!(f, "LD.{space} {dst}, [{addr}{offset:+}]")
                }
            }
            InstrKind::St {
                space,
                src,
                addr,
                offset,
            } => {
                if offset == 0 {
                    write!(f, "ST.{space} [{addr}], {src}")
                } else {
                    write!(f, "ST.{space} [{addr}{offset:+}], {src}")
                }
            }
            InstrKind::Bra { target } => write!(f, "BRA {target}"),
            InstrKind::Bar => write!(f, "BAR.SYNC"),
            InstrKind::Exit => write!(f, "EXIT"),
            InstrKind::Nop => write!(f, "NOP"),
        }
    }
}

/// Most general-purpose registers one instruction reads
/// (`IMad d, a, b, c`).
pub const MAX_SRC_REGS: usize = 3;

/// The source registers of one instruction, in operand order: at most
/// [`MAX_SRC_REGS`], held inline so the simulator's per-issue readiness
/// checks never touch the heap. Derefs to a `[Reg]` slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcRegs {
    regs: [Reg; MAX_SRC_REGS],
    len: u8,
}

impl Default for SrcRegs {
    fn default() -> Self {
        SrcRegs {
            regs: [Reg::RZ; MAX_SRC_REGS],
            len: 0,
        }
    }
}

impl SrcRegs {
    /// Appends `r` unless it is `RZ` or already present.
    fn push_unique(&mut self, r: Reg) {
        if !r.is_zero() && !self.contains(&r) {
            self.regs[usize::from(self.len)] = r;
            self.len += 1;
        }
    }
}

impl std::ops::Deref for SrcRegs {
    type Target = [Reg];

    fn deref(&self) -> &[Reg] {
        &self.regs[..usize::from(self.len)]
    }
}

impl IntoIterator for SrcRegs {
    type Item = Reg;
    type IntoIter = std::iter::Take<std::array::IntoIter<Reg, MAX_SRC_REGS>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(usize::from(self.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn func_unit_classification() {
        let add = Instr::always(InstrKind::Alu {
            op: AluOp::IAdd,
            dst: r(0),
            a: r(1).into(),
            b: r(2).into(),
            c: Reg::RZ.into(),
        });
        assert_eq!(add.func_unit(), FuncUnit::Alu);
        let sin = Instr::always(InstrKind::Sfu {
            op: SfuOp::Sin,
            dst: r(0),
            a: r(1).into(),
        });
        assert_eq!(sin.func_unit(), FuncUnit::Sfu);
        let ld = Instr::always(InstrKind::Ld {
            space: Space::Global,
            dst: r(0),
            addr: r(1),
            offset: 0,
        });
        assert_eq!(ld.func_unit(), FuncUnit::Mem);
        assert_eq!(
            Instr::always(InstrKind::Exit).func_unit(),
            FuncUnit::Control
        );
    }

    #[test]
    fn dst_of_rz_write_is_none() {
        let i = Instr::always(InstrKind::Mov {
            dst: Reg::RZ,
            src: Operand::Imm(1),
        });
        assert_eq!(i.dst_reg(), None);
    }

    #[test]
    fn src_regs_respect_arity_and_dedup() {
        let mad = Instr::always(InstrKind::Alu {
            op: AluOp::IMad,
            dst: r(0),
            a: r(1).into(),
            b: r(1).into(),
            c: r(2).into(),
        });
        assert_eq!(mad.src_regs()[..], [r(1), r(2)]);
        // 2-operand op must not report c as a source.
        let add = Instr::always(InstrKind::Alu {
            op: AluOp::IAdd,
            dst: r(0),
            a: r(1).into(),
            b: Operand::Imm(3),
            c: r(9).into(),
        });
        assert_eq!(add.src_regs()[..], [r(1)]);
        // 1-operand op reads only a.
        let not = Instr::always(InstrKind::Alu {
            op: AluOp::Not,
            dst: r(0),
            a: r(4).into(),
            b: r(5).into(),
            c: r(6).into(),
        });
        assert_eq!(not.src_regs()[..], [r(4)]);
    }

    #[test]
    fn store_reads_value_and_address() {
        let st = Instr::always(InstrKind::St {
            space: Space::Global,
            src: r(3),
            addr: r(4),
            offset: 8,
        });
        assert_eq!(st.src_regs()[..], [r(3), r(4)]);
        assert_eq!(st.dst_reg(), None);
    }

    #[test]
    fn guard_pred_is_a_source() {
        let i = Instr::new(Guard::neg(Pred::new(2)), InstrKind::Nop);
        assert_eq!(i.src_preds(), Some(Pred::new(2)));
        assert_eq!(Instr::always(InstrKind::Nop).src_preds(), None);
    }

    #[test]
    fn display_formats() {
        let i = Instr::always(InstrKind::Ld {
            space: Space::Global,
            dst: r(2),
            addr: r(4),
            offset: 16,
        });
        assert_eq!(i.to_string(), "LD.GLOBAL R2, [R4+16]");
        let s = Instr::always(InstrKind::SetP {
            cmp: CmpOp::Lt,
            float: false,
            dst: Pred::new(0),
            a: r(1).into(),
            b: Operand::Imm(10),
        });
        assert_eq!(s.to_string(), "ISETP.LT P0, R1, 0xa");
    }

    #[test]
    fn operand_f32_roundtrip() {
        let o = Operand::imm_f32(2.5);
        assert_eq!(o, Operand::Imm(2.5f32.to_bits()));
    }
}
