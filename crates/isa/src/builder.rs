//! Structured kernel construction DSL.
//!
//! [`KernelBuilder`] hands out fresh registers and predicates, emits
//! instructions through small per-opcode helpers, and lowers structured
//! control flow (`if`, `if/else`, `while`, `do/while`) to predicated
//! branches whose reconvergence points the CFG analysis later recovers.

use crate::instr::{Guard, Instr, InstrKind, Operand};
use crate::kernel::{Kernel, KernelError};
use crate::op::{AluOp, CmpOp, SReg, SfuOp, Space};
use crate::reg::{Pred, Reg};

/// An unresolved branch-target label.
///
/// Created by [`KernelBuilder::new_label`], positioned with
/// [`KernelBuilder::place`], and referenced by
/// [`KernelBuilder::bra`]. All labels must be placed before
/// [`KernelBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incremental builder for [`Kernel`]s.
///
/// See the [crate-level example](crate) for typical usage. All emit
/// helpers allocate a fresh destination register and return it; the
/// `*_to` variants write a caller-chosen register (needed for loop
/// accumulators).
///
/// # Examples
///
/// Structured divergence — compute `|x|` via an `if`:
///
/// ```
/// use gscalar_isa::{KernelBuilder, Operand, CmpOp};
///
/// let mut b = KernelBuilder::new("abs");
/// let x = b.mov(Operand::Imm((-5i32) as u32));
/// let p = b.isetp(CmpOp::Lt, x.into(), Operand::Imm(0));
/// b.if_then(p.into(), |b| {
///     let neg = b.isub(Operand::Imm(0), x.into());
///     b.mov_to(x, neg.into());
/// });
/// b.exit();
/// let k = b.build().unwrap();
/// assert!(k.len() >= 5);
/// ```
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    instrs: Vec<Instr>,
    labels: Vec<Option<usize>>,
    next_reg: u16,
    next_pred: u8,
    shared_mem_bytes: u32,
}

/// A guard expression used by structured control flow: a predicate and
/// polarity, mirroring [`Guard`] but used as a *condition* rather than an
/// instruction annotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cond {
    /// The predicate holding the condition.
    pub pred: Pred,
    /// If true, the condition is the predicate's negation.
    pub negate: bool,
}

impl Cond {
    /// The logical negation of this condition.
    #[allow(clippy::should_implement_trait)] // DSL reads as `cond.not()`
    #[must_use]
    pub fn not(self) -> Cond {
        Cond {
            pred: self.pred,
            negate: !self.negate,
        }
    }

    fn guard(self) -> Guard {
        Guard {
            pred: self.pred,
            negate: self.negate,
        }
    }
}

impl From<Pred> for Cond {
    fn from(pred: Pred) -> Self {
        Cond {
            pred,
            negate: false,
        }
    }
}

impl KernelBuilder {
    /// Creates an empty builder for a kernel called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            instrs: Vec::new(),
            labels: Vec::new(),
            next_reg: 0,
            next_pred: 0,
            shared_mem_bytes: 0,
        }
    }

    /// Declares `bytes` of CTA shared memory.
    pub fn shared_mem(&mut self, bytes: u32) -> &mut Self {
        self.shared_mem_bytes = bytes;
        self
    }

    /// Allocates a fresh general-purpose register.
    ///
    /// # Panics
    ///
    /// Panics when more than 254 registers have been allocated.
    pub fn reg(&mut self) -> Reg {
        assert!(self.next_reg < 255, "register budget exhausted");
        let r = Reg::new(self.next_reg as u8);
        self.next_reg += 1;
        r
    }

    /// Allocates a fresh predicate register.
    ///
    /// # Panics
    ///
    /// Panics when more than 7 predicates have been allocated.
    pub fn pred(&mut self) -> Pred {
        assert!(self.next_pred < 7, "predicate budget exhausted");
        let p = Pred::new(self.next_pred);
        self.next_pred += 1;
        p
    }

    /// Number of instructions emitted so far (the next instruction's pc).
    #[must_use]
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, instr: Instr) -> &mut Self {
        self.instrs.push(instr);
        self
    }

    // ---- labels and raw branches -------------------------------------

    /// Creates a new, unplaced label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already placed.
    pub fn place(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label placed twice");
        self.labels[label.0] = Some(self.instrs.len());
    }

    /// Emits a branch to `label`, guarded by `cond` (pass
    /// `None` for an unconditional branch).
    pub fn bra(&mut self, cond: Option<Cond>, label: Label) {
        let guard = cond.map_or(Guard::ALWAYS, Cond::guard);
        // Targets are patched in `build`; stash the label id.
        self.instrs.push(Instr::new(
            guard,
            InstrKind::Bra {
                target: usize::MAX - label.0,
            },
        ));
    }

    // ---- structured control flow -------------------------------------

    /// Emits `if (cond) { body }`.
    ///
    /// Lowered as a guarded skip branch; the reconvergence analysis
    /// places the SIMT-stack join right after the body.
    pub fn if_then(&mut self, cond: Cond, body: impl FnOnce(&mut Self)) {
        let end = self.new_label();
        self.bra(Some(cond.not()), end);
        body(self);
        self.place(end);
    }

    /// Emits `if (cond) { then_body } else { else_body }`.
    pub fn if_else(
        &mut self,
        cond: Cond,
        then_body: impl FnOnce(&mut Self),
        else_body: impl FnOnce(&mut Self),
    ) {
        let else_l = self.new_label();
        let end = self.new_label();
        self.bra(Some(cond.not()), else_l);
        then_body(self);
        self.bra(None, end);
        self.place(else_l);
        else_body(self);
        self.place(end);
    }

    /// Emits `while (cond) { body }`; `cond` emits the test and returns
    /// the continue-condition.
    pub fn while_loop(
        &mut self,
        cond: impl FnOnce(&mut Self) -> Cond,
        body: impl FnOnce(&mut Self),
    ) {
        let head = self.new_label();
        let end = self.new_label();
        self.place(head);
        let c = cond(self);
        self.bra(Some(c.not()), end);
        body(self);
        self.bra(None, head);
        self.place(end);
    }

    /// Emits `do { body } while (cond)`; `cond` runs after the body and
    /// returns the repeat-condition.
    pub fn do_while(&mut self, body: impl FnOnce(&mut Self), cond: impl FnOnce(&mut Self) -> Cond) {
        let head = self.new_label();
        self.place(head);
        body(self);
        let c = cond(self);
        self.bra(Some(c), head);
    }

    /// Emits a counted loop running `n` times with a fresh counter
    /// register, passing the counter to the body.
    ///
    /// The counter starts at 0 and increments by 1 per iteration. When
    /// `n` is an immediate of 0 the body still executes once (do-while
    /// lowering); counted loops in the workloads always have `n ≥ 1`.
    pub fn repeat(&mut self, n: Operand, body: impl FnOnce(&mut Self, Reg)) {
        let counter = self.mov(Operand::Imm(0));
        self.do_while(
            |b| {
                body(b, counter);
                b.iadd_to(counter, counter.into(), Operand::Imm(1));
            },
            |b| b.isetp(CmpOp::Lt, counter.into(), n).into(),
        );
    }

    // ---- ALU helpers ---------------------------------------------------

    /// Emits a 3-input ALU op into an existing destination register.
    pub fn alu_to(&mut self, op: AluOp, dst: Reg, a: Operand, b: Operand, c: Operand) {
        self.instrs
            .push(Instr::always(InstrKind::Alu { op, dst, a, b, c }));
    }

    /// Emits an ALU op into a fresh register and returns it.
    pub fn alu(&mut self, op: AluOp, a: Operand, b: Operand, c: Operand) -> Reg {
        let dst = self.reg();
        self.alu_to(op, dst, a, b, c);
        dst
    }

    fn alu2(&mut self, op: AluOp, a: Operand, b: Operand) -> Reg {
        self.alu(op, a, b, Operand::Reg(Reg::RZ))
    }

    fn alu1(&mut self, op: AluOp, a: Operand) -> Reg {
        self.alu(op, a, Operand::Reg(Reg::RZ), Operand::Reg(Reg::RZ))
    }

    /// `dst = a + b` (fresh destination).
    pub fn iadd(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::IAdd, a, b)
    }

    /// `dst = a + b` into an existing register.
    pub fn iadd_to(&mut self, dst: Reg, a: Operand, b: Operand) {
        self.alu_to(AluOp::IAdd, dst, a, b, Operand::Reg(Reg::RZ));
    }

    /// `dst = a - b`.
    pub fn isub(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::ISub, a, b)
    }

    /// `dst = a * b` (integer).
    pub fn imul(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::IMul, a, b)
    }

    /// `dst = a * b + c` (integer multiply-add).
    pub fn imad(&mut self, a: Operand, b: Operand, c: Operand) -> Reg {
        self.alu(AluOp::IMad, a, b, c)
    }

    /// `dst = a / b` (signed; long-latency).
    pub fn idiv(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::IDiv, a, b)
    }

    /// `dst = min(a, b)` (signed).
    pub fn imin(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::IMin, a, b)
    }

    /// `dst = max(a, b)` (signed).
    pub fn imax(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::IMax, a, b)
    }

    /// `dst = |a|` (signed).
    pub fn iabs(&mut self, a: Operand) -> Reg {
        self.alu1(AluOp::IAbs, a)
    }

    /// `dst = a & b`.
    pub fn and(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::And, a, b)
    }

    /// `dst = a | b`.
    pub fn or(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::Or, a, b)
    }

    /// `dst = a ^ b`.
    pub fn xor(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::Xor, a, b)
    }

    /// `dst = a << (b & 31)`.
    pub fn shl(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::Shl, a, b)
    }

    /// `dst = a >> (b & 31)` (logical).
    pub fn shr(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::Shr, a, b)
    }

    /// `dst = a + b` in `f32`.
    pub fn fadd(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::FAdd, a, b)
    }

    /// `dst = a + b` in `f32`, into an existing register.
    pub fn fadd_to(&mut self, dst: Reg, a: Operand, b: Operand) {
        self.alu_to(AluOp::FAdd, dst, a, b, Operand::Reg(Reg::RZ));
    }

    /// `dst = a - b` in `f32`.
    pub fn fsub(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::FSub, a, b)
    }

    /// `dst = a * b` in `f32`.
    pub fn fmul(&mut self, a: Operand, b: Operand) -> Reg {
        self.alu2(AluOp::FMul, a, b)
    }

    /// `dst = a * b + c` fused multiply-add in `f32`.
    pub fn ffma(&mut self, a: Operand, b: Operand, c: Operand) -> Reg {
        self.alu(AluOp::FFma, a, b, c)
    }

    /// `dst = a * b + c` in `f32`, into an existing register.
    pub fn ffma_to(&mut self, dst: Reg, a: Operand, b: Operand, c: Operand) {
        self.alu_to(AluOp::FFma, dst, a, b, c);
    }

    /// Convert signed integer to `f32`.
    pub fn i2f(&mut self, a: Operand) -> Reg {
        self.alu1(AluOp::I2F, a)
    }

    /// Convert `f32` to signed integer.
    pub fn f2i(&mut self, a: Operand) -> Reg {
        self.alu1(AluOp::F2I, a)
    }

    // ---- SFU helpers ---------------------------------------------------

    /// Emits an SFU op into a fresh register.
    pub fn sfu(&mut self, op: SfuOp, a: Operand) -> Reg {
        let dst = self.reg();
        self.sfu_to(op, dst, a);
        dst
    }

    /// Emits an SFU op into an existing register.
    pub fn sfu_to(&mut self, op: SfuOp, dst: Reg, a: Operand) {
        self.instrs
            .push(Instr::always(InstrKind::Sfu { op, dst, a }));
    }

    /// `dst = sin(a)`.
    pub fn sin(&mut self, a: Operand) -> Reg {
        self.sfu(SfuOp::Sin, a)
    }

    /// `dst = cos(a)`.
    pub fn cos(&mut self, a: Operand) -> Reg {
        self.sfu(SfuOp::Cos, a)
    }

    /// `dst = 2^a`.
    pub fn ex2(&mut self, a: Operand) -> Reg {
        self.sfu(SfuOp::Ex2, a)
    }

    /// `dst = log2(a)`.
    pub fn lg2(&mut self, a: Operand) -> Reg {
        self.sfu(SfuOp::Lg2, a)
    }

    /// `dst = 1/a`.
    pub fn rcp(&mut self, a: Operand) -> Reg {
        self.sfu(SfuOp::Rcp, a)
    }

    /// `dst = 1/sqrt(a)`.
    pub fn rsqrt(&mut self, a: Operand) -> Reg {
        self.sfu(SfuOp::Rsqrt, a)
    }

    /// `dst = sqrt(a)`.
    pub fn sqrt(&mut self, a: Operand) -> Reg {
        self.sfu(SfuOp::Sqrt, a)
    }

    // ---- moves, predicates, memory, control ---------------------------

    /// Moves `src` into a fresh register.
    pub fn mov(&mut self, src: Operand) -> Reg {
        let dst = self.reg();
        self.mov_to(dst, src);
        dst
    }

    /// Moves `src` into an existing register.
    pub fn mov_to(&mut self, dst: Reg, src: Operand) {
        self.instrs.push(Instr::always(InstrKind::Mov { dst, src }));
    }

    /// Moves an `f32` immediate into a fresh register.
    pub fn mov_f32(&mut self, v: f32) -> Reg {
        self.mov(Operand::imm_f32(v))
    }

    /// Reads a special register into a fresh register.
    pub fn s2r(&mut self, sreg: SReg) -> Reg {
        let dst = self.reg();
        self.instrs
            .push(Instr::always(InstrKind::S2R { dst, sreg }));
        dst
    }

    /// Integer compare into a fresh predicate.
    pub fn isetp(&mut self, cmp: CmpOp, a: Operand, b: Operand) -> Pred {
        let dst = self.pred();
        self.isetp_to(dst, cmp, a, b);
        dst
    }

    /// Integer compare into an existing predicate.
    pub fn isetp_to(&mut self, dst: Pred, cmp: CmpOp, a: Operand, b: Operand) {
        self.instrs.push(Instr::always(InstrKind::SetP {
            cmp,
            float: false,
            dst,
            a,
            b,
        }));
    }

    /// Floating-point compare into a fresh predicate.
    pub fn fsetp(&mut self, cmp: CmpOp, a: Operand, b: Operand) -> Pred {
        let dst = self.pred();
        self.instrs.push(Instr::always(InstrKind::SetP {
            cmp,
            float: true,
            dst,
            a,
            b,
        }));
        dst
    }

    /// Loads a global 32-bit value into a fresh register.
    pub fn ld_global(&mut self, addr: Reg, offset: i32) -> Reg {
        let dst = self.reg();
        self.ld_global_to(dst, addr, offset);
        dst
    }

    /// Loads a global 32-bit value into an existing register.
    pub fn ld_global_to(&mut self, dst: Reg, addr: Reg, offset: i32) {
        self.instrs.push(Instr::always(InstrKind::Ld {
            space: Space::Global,
            dst,
            addr,
            offset,
        }));
    }

    /// Stores a 32-bit value to global memory.
    pub fn st_global(&mut self, addr: Reg, src: Reg, offset: i32) {
        self.instrs.push(Instr::always(InstrKind::St {
            space: Space::Global,
            src,
            addr,
            offset,
        }));
    }

    /// Loads a shared-memory 32-bit value into a fresh register.
    pub fn ld_shared(&mut self, addr: Reg, offset: i32) -> Reg {
        let dst = self.reg();
        self.instrs.push(Instr::always(InstrKind::Ld {
            space: Space::Shared,
            dst,
            addr,
            offset,
        }));
        dst
    }

    /// Stores a 32-bit value to shared memory.
    pub fn st_shared(&mut self, addr: Reg, src: Reg, offset: i32) {
        self.instrs.push(Instr::always(InstrKind::St {
            space: Space::Shared,
            src,
            addr,
            offset,
        }));
    }

    /// Emits a CTA-wide barrier.
    pub fn bar(&mut self) {
        self.instrs.push(Instr::always(InstrKind::Bar));
    }

    /// Emits an `EXIT`.
    pub fn exit(&mut self) {
        self.instrs.push(Instr::always(InstrKind::Exit));
    }

    /// Applies a guard to the most recently emitted instruction.
    ///
    /// Useful for hand-predicated (non-branching) divergent code.
    ///
    /// # Panics
    ///
    /// Panics if no instruction has been emitted.
    pub fn guard_last(&mut self, cond: Cond) {
        let last = self.instrs.last_mut().expect("no instruction to guard");
        last.guard = cond.guard();
    }

    /// Finalizes the kernel: patches label targets, appends a trailing
    /// `EXIT` if control could fall off the end of the stream, and
    /// validates.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] if a label was never placed (reported as
    /// an out-of-range branch) or validation fails.
    pub fn build(mut self) -> Result<Kernel, KernelError> {
        if self
            .instrs
            .last()
            .is_none_or(|i| !(i.guard.is_always() && (i.is_exit() || i.is_branch())))
        {
            self.exit();
        }
        // Patch label-encoded targets (stored as usize::MAX - label_id).
        let n = self.instrs.len();
        for (pc, i) in self.instrs.iter_mut().enumerate() {
            if let InstrKind::Bra { target } = &mut i.kind {
                if *target >= n {
                    let label_id = usize::MAX - *target;
                    match self.labels.get(label_id).copied().flatten() {
                        Some(t) => *target = t,
                        None => {
                            return Err(KernelError::BranchOutOfRange {
                                pc,
                                target: *target,
                            })
                        }
                    }
                }
            }
        }
        Kernel::new(self.name, self.instrs, self.next_reg.max(1)).map(|k| {
            if self.shared_mem_bytes > 0 {
                // Rebuild with shared memory (validation already passed).
                Kernel::with_shared_mem(
                    k.name().to_owned(),
                    k.instrs().to_vec(),
                    k.num_regs(),
                    self.shared_mem_bytes,
                )
                .expect("already validated")
            } else {
                k
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::FuncUnit;

    #[test]
    fn fresh_registers_are_distinct() {
        let mut b = KernelBuilder::new("k");
        let r0 = b.reg();
        let r1 = b.reg();
        assert_ne!(r0, r1);
        let p0 = b.pred();
        let p1 = b.pred();
        assert_ne!(p0, p1);
    }

    #[test]
    fn build_appends_exit() {
        let mut b = KernelBuilder::new("k");
        b.mov(Operand::Imm(1));
        let k = b.build().unwrap();
        assert!(k.instrs().last().unwrap().is_exit());
    }

    #[test]
    fn if_then_lowering_and_reconvergence() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Operand::Imm(1));
        let p = b.isetp(CmpOp::Gt, x.into(), Operand::Imm(0));
        b.if_then(p.into(), |b| {
            b.iadd(x.into(), Operand::Imm(1));
        });
        b.exit();
        let k = b.build().unwrap();
        // Find the guarded branch and check it reconverges at the
        // instruction right after the body.
        let (pc, i) = k
            .instrs()
            .iter()
            .enumerate()
            .find(|(_, i)| i.is_branch())
            .unwrap();
        assert!(!i.guard.is_always());
        assert!(i.guard.negate, "if_then skips when the condition fails");
        assert_eq!(k.reconvergence_pc(pc), Some(pc + 2));
    }

    #[test]
    fn if_else_produces_two_paths() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Operand::Imm(1));
        let p = b.isetp(CmpOp::Eq, x.into(), Operand::Imm(1));
        b.if_else(
            p.into(),
            |b| {
                b.iadd(x.into(), Operand::Imm(1));
            },
            |b| {
                b.isub(x.into(), Operand::Imm(1));
            },
        );
        b.exit();
        let k = b.build().unwrap();
        let branches: Vec<_> = k
            .instrs()
            .iter()
            .enumerate()
            .filter(|(_, i)| i.is_branch())
            .collect();
        assert_eq!(branches.len(), 2);
        // Conditional entry branch reconverges at the join after else.
        let (pc0, _) = branches[0];
        let reconv = k.reconvergence_pc(pc0).unwrap();
        assert!(k.instr(reconv).is_exit());
    }

    #[test]
    fn while_loop_lowering() {
        let mut b = KernelBuilder::new("k");
        let i = b.mov(Operand::Imm(0));
        b.while_loop(
            |b| b.isetp(CmpOp::Lt, i.into(), Operand::Imm(10)).into(),
            |b| {
                b.iadd_to(i, i.into(), Operand::Imm(1));
            },
        );
        b.exit();
        let k = b.build().unwrap();
        // Exit branch of the loop reconverges right after the loop.
        let (pc, _) = k
            .instrs()
            .iter()
            .enumerate()
            .find(|(_, i)| i.is_branch() && !i.guard.is_always())
            .unwrap();
        let r = k.reconvergence_pc(pc).unwrap();
        assert!(k.instr(r).is_exit());
    }

    #[test]
    fn repeat_runs_counter_loop() {
        let mut b = KernelBuilder::new("k");
        let acc = b.mov(Operand::Imm(0));
        b.repeat(Operand::Imm(4), |b, i| {
            b.iadd_to(acc, acc.into(), i.into());
        });
        let k = b.build().unwrap();
        assert!(k.instrs().iter().any(|i| i.is_branch()));
    }

    #[test]
    fn unplaced_label_is_an_error() {
        let mut b = KernelBuilder::new("k");
        let l = b.new_label();
        b.bra(None, l);
        assert!(matches!(
            b.build().unwrap_err(),
            KernelError::BranchOutOfRange { .. }
        ));
    }

    #[test]
    fn guard_last_predicates_previous_instruction() {
        let mut b = KernelBuilder::new("k");
        let p = b.pred();
        let x = b.mov(Operand::Imm(3));
        b.iadd_to(x, x.into(), Operand::Imm(1));
        b.guard_last(Cond::from(p).not());
        let k = b.build().unwrap();
        let g = k.instr(1).guard;
        assert_eq!(g.pred, p);
        assert!(g.negate);
    }

    #[test]
    fn helpers_classify_to_expected_units() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov_f32(1.0);
        b.sin(x.into());
        let a = b.mov(Operand::Imm(64));
        b.ld_global(a, 0);
        let k = b.build().unwrap();
        let units: Vec<_> = k.instrs().iter().map(Instr::func_unit).collect();
        assert!(units.contains(&FuncUnit::Sfu));
        assert!(units.contains(&FuncUnit::Mem));
        assert!(units.contains(&FuncUnit::Alu));
    }

    #[test]
    fn shared_mem_recorded() {
        let mut b = KernelBuilder::new("k");
        b.shared_mem(1024);
        b.exit();
        let k = b.build().unwrap();
        assert_eq!(k.shared_mem_bytes(), 1024);
    }
}
