//! Register liveness analysis.
//!
//! Backward may-liveness over the kernel CFG, used for the paper's
//! compiler-assisted optimization of Section 3.3: a divergent partial
//! write to a compressed register normally needs a decompress-move to
//! restore the raw layout first — but if the register's *previous*
//! value is dead (no path reads it before an unconditional full
//! overwrite), the move is unnecessary. The paper reports this brings
//! the ~2% dynamic-instruction overhead of the hardware-only scheme
//! down further.
//!
//! Kill rules are conservative for SIMT semantics: only an *unguarded*
//! register write fully overwrites all lanes and kills liveness; a
//! guarded (predicated) write merges with the old value and therefore
//! both reads and writes the register.

use crate::cfg::Cfg;
use crate::instr::{Instr, InstrKind};
use crate::reg::Reg;

/// Per-instruction liveness results for one kernel's register set.
///
/// # Examples
///
/// ```
/// use gscalar_isa::{KernelBuilder, Operand};
/// use gscalar_isa::liveness::Liveness;
///
/// let mut b = KernelBuilder::new("l");
/// let x = b.mov(Operand::Imm(1));      // pc 0: write x
/// let y = b.iadd(x.into(), Operand::Imm(2)); // pc 1: read x, write y
/// b.mov_to(x, Operand::Imm(3));        // pc 2: overwrite x
/// b.st_global(y, y, 0);                // pc 3: read y
/// b.exit();
/// let k = b.build().unwrap();
/// let live = Liveness::analyze(&k.instrs(), k.cfg(), k.num_regs());
/// assert!(live.live_out(0, x));  // x read at pc 1
/// assert!(!live.live_out(1, x)); // dead: overwritten at pc 2 before any read
/// ```
#[derive(Debug, Clone)]
pub struct Liveness {
    /// `live_out[pc]` = bitset of registers live after instruction `pc`.
    live_out: Vec<Vec<u64>>,
    words: usize,
}

impl Liveness {
    /// Runs the backward dataflow over `code` with `cfg`'s block
    /// structure, for registers `0..num_regs`.
    #[must_use]
    pub fn analyze(code: &[Instr], cfg: &Cfg, num_regs: u16) -> Self {
        let n = code.len();
        let words = (num_regs as usize).div_ceil(64).max(1);
        let mut live_in: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
        let mut live_out: Vec<Vec<u64>> = vec![vec![0u64; words]; n];
        let set = |s: &mut [u64], r: Reg| {
            if !r.is_zero() {
                s[(r.index() as usize) / 64] |= 1 << (r.index() % 64);
            }
        };
        let clear = |s: &mut [u64], r: Reg| {
            if !r.is_zero() {
                s[(r.index() as usize) / 64] &= !(1 << (r.index() % 64));
            }
        };
        // Successor PCs of each instruction.
        let succs: Vec<Vec<usize>> = code
            .iter()
            .enumerate()
            .map(|(pc, i)| match i.kind {
                // A guarded EXIT falls through for the lanes it spares.
                InstrKind::Exit if i.guard.is_always() => Vec::new(),
                InstrKind::Bra { target } => {
                    if i.guard.is_always() {
                        vec![target]
                    } else if pc + 1 < n {
                        vec![target, pc + 1]
                    } else {
                        vec![target]
                    }
                }
                _ => {
                    if pc + 1 < n {
                        vec![pc + 1]
                    } else {
                        Vec::new()
                    }
                }
            })
            .collect();
        let _ = cfg; // block structure is implicit in the succ edges
        let mut changed = true;
        while changed {
            changed = false;
            for pc in (0..n).rev() {
                let mut out = vec![0u64; words];
                for &s in &succs[pc] {
                    for w in 0..words {
                        out[w] |= live_in[s][w];
                    }
                }
                // in = gen ∪ (out \ kill)
                let mut inp = out.clone();
                let i = &code[pc];
                if i.guard.is_always() {
                    if let Some(d) = i.dst_reg() {
                        clear(&mut inp, Reg::new(d.index()));
                    }
                }
                for r in i.src_regs() {
                    set(&mut inp, r);
                }
                // A guarded write reads the old value (lane merge).
                if !i.guard.is_always() {
                    if let Some(d) = i.dst_reg() {
                        set(&mut inp, d);
                    }
                }
                if out != live_out[pc] || inp != live_in[pc] {
                    live_out[pc] = out;
                    live_in[pc] = inp;
                    changed = true;
                }
            }
        }
        Liveness { live_out, words }
    }

    /// Whether `reg`'s value may be read after instruction `pc`
    /// executes (before any full overwrite).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[must_use]
    pub fn live_out(&self, pc: usize, reg: Reg) -> bool {
        if reg.is_zero() {
            return false;
        }
        let idx = reg.index() as usize;
        if idx / 64 >= self.words {
            return false;
        }
        self.live_out[pc][idx / 64] & (1 << (idx % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::instr::Operand;
    use crate::op::CmpOp;

    fn analyze(k: &crate::kernel::Kernel) -> Liveness {
        Liveness::analyze(k.instrs(), k.cfg(), k.num_regs())
    }

    #[test]
    fn straight_line_kill() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Operand::Imm(1)); // 0
        b.iadd(x.into(), Operand::Imm(2)); // 1 reads x
        b.mov_to(x, Operand::Imm(3)); // 2 overwrites x
        b.exit(); // 3
        let k = b.build().unwrap();
        let l = analyze(&k);
        assert!(l.live_out(0, x));
        assert!(!l.live_out(1, x), "x is overwritten before any read");
        assert!(!l.live_out(2, x), "no further reads");
    }

    #[test]
    fn loop_keeps_carried_values_live() {
        let mut b = KernelBuilder::new("k");
        let acc = b.mov(Operand::Imm(0));
        let i = b.mov(Operand::Imm(0));
        b.while_loop(
            |b| b.isetp(CmpOp::Lt, i.into(), Operand::Imm(4)).into(),
            |b| {
                b.iadd_to(acc, acc.into(), i.into());
                b.iadd_to(i, i.into(), Operand::Imm(1));
            },
        );
        let out = b.mov(Operand::Imm(64));
        b.st_global(out, acc, 0);
        b.exit();
        let k = b.build().unwrap();
        let l = analyze(&k);
        // acc is live out of its accumulation (read next iteration or
        // at the final store).
        let acc_write = k
            .instrs()
            .iter()
            .position(|ins| ins.dst_reg() == Some(acc) && !ins.src_regs().is_empty())
            .expect("acc accumulation exists");
        assert!(l.live_out(acc_write, acc));
        // The loop counter is live at the back edge too.
        assert!(l.live_out(acc_write, i));
    }

    #[test]
    fn guarded_write_does_not_kill() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Operand::Imm(1)); // pc 0
        let p = b.isetp(CmpOp::Gt, x.into(), Operand::Imm(0)); // pc 1
                                                               // pc 2: guarded write merges lanes — old x stays live above it.
        b.mov_to(x, Operand::Imm(9));
        b.guard_last(p.into());
        let out = b.mov(Operand::Imm(64)); // pc 3
        b.st_global(out, x, 0); // pc 4 reads x
        b.exit();
        let k = b.build().unwrap();
        let l = analyze(&k);
        assert!(
            l.live_out(1, x),
            "old x must stay live across a predicated write"
        );
        assert!(l.live_out(2, x));
    }

    #[test]
    fn branch_paths_union() {
        let mut b = KernelBuilder::new("k");
        let x = b.mov(Operand::Imm(1));
        let y = b.mov(Operand::Imm(2));
        let p = b.isetp(CmpOp::Gt, x.into(), Operand::Imm(0));
        b.if_else(
            p.into(),
            |b| {
                b.iadd(x.into(), Operand::Imm(1)); // reads x
            },
            |b| {
                b.iadd(y.into(), Operand::Imm(1)); // reads y
            },
        );
        b.exit();
        let k = b.build().unwrap();
        let l = analyze(&k);
        // At the branch, both x and y may be read on some path.
        let bra = k
            .instrs()
            .iter()
            .position(|i| i.is_branch())
            .expect("branch exists");
        assert!(l.live_out(bra, x));
        assert!(l.live_out(bra, y));
    }

    #[test]
    fn rz_is_never_live() {
        let mut b = KernelBuilder::new("k");
        b.mov(Operand::Imm(1));
        b.exit();
        let k = b.build().unwrap();
        let l = analyze(&k);
        assert!(!l.live_out(0, crate::reg::Reg::RZ));
    }
}
