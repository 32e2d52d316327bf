//! Control-flow graph construction and post-dominator analysis.
//!
//! The simulator handles branch divergence with a SIMT reconvergence
//! stack (Section 2 of the paper, following GPGPU-Sim). The canonical
//! reconvergence point of a divergent branch is the *immediate
//! post-dominator* of the branch's basic block; this module computes it.

use crate::instr::{Instr, InstrKind};

/// A basic block: a maximal single-entry straight-line range of
/// instructions `[start, end)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Index of the first instruction.
    pub start: usize,
    /// One past the index of the last instruction.
    pub end: usize,
    /// Indices of successor blocks.
    pub succs: Vec<usize>,
}

/// A control-flow graph over a kernel's instruction stream.
///
/// # Examples
///
/// ```
/// use gscalar_isa::{Cfg, Instr, InstrKind, Guard, Pred};
///
/// // if (!p0) goto 2; nop; exit
/// let code = vec![
///     Instr::new(Guard::neg(Pred::new(0)), InstrKind::Bra { target: 2 }),
///     Instr::always(InstrKind::Nop),
///     Instr::always(InstrKind::Exit),
/// ];
/// let cfg = Cfg::build(&code);
/// assert_eq!(cfg.blocks().len(), 3);
/// // The branch reconverges at the exit block (pc 2).
/// assert_eq!(cfg.reconvergence_table(&code)[0], Some(2));
/// ```
#[derive(Debug, Clone)]
pub struct Cfg {
    blocks: Vec<Block>,
    /// Block index containing each instruction.
    block_of: Vec<usize>,
    /// Immediate post-dominator of each block (`None` = the virtual exit).
    ipostdom: Vec<Option<usize>>,
}

impl Cfg {
    /// Builds the CFG (blocks, edges, post-dominators) for a code stream.
    ///
    /// # Panics
    ///
    /// Panics if a branch target is out of range; call sites validate
    /// targets first (see [`crate::Kernel::new`]).
    #[must_use]
    pub fn build(code: &[Instr]) -> Self {
        let n = code.len();
        // 1. Find leaders.
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for (pc, i) in code.iter().enumerate() {
            if let InstrKind::Bra { target } = i.kind {
                assert!(target < n, "branch target {target} out of range");
                leader[target] = true;
                if pc + 1 < n {
                    leader[pc + 1] = true;
                }
            }
            if i.is_exit() && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }
        // 2. Form blocks.
        let mut blocks: Vec<Block> = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for (pc, &is_leader) in leader.iter().enumerate() {
            if pc > 0 && is_leader {
                blocks.push(Block {
                    start,
                    end: pc,
                    succs: Vec::new(),
                });
                start = pc;
            }
        }
        if n > 0 {
            blocks.push(Block {
                start,
                end: n,
                succs: Vec::new(),
            });
        }
        let mut block_at_pc = vec![usize::MAX; n + 1];
        for (bi, b) in blocks.iter().enumerate() {
            for pc in b.start..b.end {
                block_of[pc] = bi;
                block_at_pc[pc] = bi;
            }
        }
        // 3. Edges.
        for block in &mut blocks {
            let last_pc = block.end - 1;
            let last = &code[last_pc];
            let mut succs = Vec::new();
            match last.kind {
                InstrKind::Bra { target } => {
                    succs.push(block_at_pc[target]);
                    if !last.guard.is_always() && last_pc + 1 < n {
                        let ft = block_at_pc[last_pc + 1];
                        if !succs.contains(&ft) {
                            succs.push(ft);
                        }
                    }
                }
                // A guarded EXIT falls through for the lanes it spares.
                InstrKind::Exit if last.guard.is_always() => {}
                _ => {
                    if last_pc + 1 < n {
                        succs.push(block_at_pc[last_pc + 1]);
                    }
                }
            }
            block.succs = succs;
        }
        let ipostdom = compute_ipostdom(&blocks);
        Cfg {
            blocks,
            block_of,
            ipostdom,
        }
    }

    /// The basic blocks, in program order.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The block index containing instruction `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[must_use]
    pub fn block_of(&self, pc: usize) -> usize {
        self.block_of[pc]
    }

    /// For each instruction index, the reconvergence PC if the
    /// instruction is a branch (the start of the branch block's
    /// immediate post-dominator), `None` otherwise or when reconvergence
    /// only happens at thread exit.
    #[must_use]
    pub fn reconvergence_table(&self, code: &[Instr]) -> Vec<Option<usize>> {
        code.iter()
            .enumerate()
            .map(|(pc, i)| {
                if !i.is_branch() {
                    return None;
                }
                self.ipostdom[self.block_of[pc]].map(|b| self.blocks[b].start)
            })
            .collect()
    }
}

/// Iterative post-dominator computation over small graphs.
///
/// Uses set-based dataflow with `u64` word bitsets: `postdom(b) = {b} ∪
/// ⋂ postdom(s) for s ∈ succ(b)`, with exit-free blocks joining a
/// virtual exit. Kernels in this workload suite are tens of blocks, so
/// the O(n²·iters/64) cost is negligible.
fn compute_ipostdom(blocks: &[Block]) -> Vec<Option<usize>> {
    let n = blocks.len();
    if n == 0 {
        return Vec::new();
    }
    let words = n.div_ceil(64);
    let full = vec![u64::MAX; words];
    // postdom sets; virtual exit handled implicitly: blocks with no
    // successors start from just themselves.
    let mut sets: Vec<Vec<u64>> = (0..n)
        .map(|b| {
            if blocks[b].succs.is_empty() {
                let mut s = vec![0u64; words];
                s[b / 64] |= 1 << (b % 64);
                s
            } else {
                full.clone()
            }
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        // Reverse program order converges quickly for postdominators.
        for b in (0..n).rev() {
            if blocks[b].succs.is_empty() {
                continue;
            }
            let mut inter = full.clone();
            for &s in &blocks[b].succs {
                for w in 0..words {
                    inter[w] &= sets[s][w];
                }
            }
            inter[b / 64] |= 1 << (b % 64);
            if inter != sets[b] {
                sets[b] = inter;
                changed = true;
            }
        }
    }
    let contains = |s: &[u64], i: usize| s[i / 64] & (1 << (i % 64)) != 0;
    let count = |s: &[u64]| s.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    // ipostdom(b) = the p ∈ postdom(b)\{b} with |postdom(p)| = |postdom(b)|-1.
    (0..n)
        .map(|b| {
            let target = count(&sets[b]).wrapping_sub(1);
            (0..n).find(|&p| p != b && contains(&sets[b], p) && count(&sets[p]) == target)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Guard;
    use crate::reg::Pred;

    fn bra(target: usize) -> Instr {
        Instr::new(Guard::pos(Pred::new(0)), InstrKind::Bra { target })
    }

    fn jmp(target: usize) -> Instr {
        Instr::always(InstrKind::Bra { target })
    }

    fn nop() -> Instr {
        Instr::always(InstrKind::Nop)
    }

    fn exit() -> Instr {
        Instr::always(InstrKind::Exit)
    }

    #[test]
    fn straight_line_single_block() {
        let code = vec![nop(), nop(), exit()];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.blocks()[0].succs.is_empty());
        assert_eq!(cfg.reconvergence_table(&code), vec![None, None, None]);
    }

    #[test]
    fn if_then_reconverges_after_then() {
        // 0: @P0 BRA 3   (skip then-part when P0)
        // 1: nop          then
        // 2: nop
        // 3: exit         join
        let code = vec![bra(3), nop(), nop(), exit()];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.blocks().len(), 3);
        assert_eq!(cfg.reconvergence_table(&code)[0], Some(3));
    }

    #[test]
    fn if_else_reconverges_at_join() {
        // 0: @P0 BRA 3
        // 1: nop (else)
        // 2: BRA 4
        // 3: nop (then)
        // 4: exit (join)
        let code = vec![bra(3), nop(), jmp(4), nop(), exit()];
        let cfg = Cfg::build(&code);
        let t = cfg.reconvergence_table(&code);
        assert_eq!(t[0], Some(4));
        // The unconditional branch has a trivial reconvergence at its target.
        assert_eq!(t[2], Some(4));
    }

    #[test]
    fn loop_reconverges_at_exit_block() {
        // 0: nop           (header)
        // 1: @P0 BRA 0     (loop back while P0)
        // 2: exit
        let code = vec![nop(), bra(0), exit()];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.reconvergence_table(&code)[1], Some(2));
    }

    #[test]
    fn divergent_exit_branch_has_no_reconvergence() {
        // 0: @P0 BRA 2 (to exit)
        // 1: exit
        // 2: exit
        let code = vec![bra(2), exit(), exit()];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.reconvergence_table(&code)[0], None);
    }

    #[test]
    fn guarded_exit_falls_through_to_the_join() {
        // 0: @P0 BRA 3
        // 1: @P0 EXIT      some lanes leave, the rest go on
        // 2: nop
        // 3: exit          join
        let guarded_exit = Instr::new(Guard::pos(Pred::new(0)), InstrKind::Exit);
        let code = vec![bra(3), guarded_exit, nop(), exit()];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.blocks()[1].succs, vec![2]);
        assert_eq!(cfg.reconvergence_table(&code)[0], Some(3));
    }

    #[test]
    fn nested_if_reconverges_innermost_first() {
        // 0: @P0 BRA 5      outer skip
        // 1: @P0 BRA 3      inner skip (reuses P0 for simplicity)
        // 2: nop            inner then
        // 3: nop            inner join
        // 4: nop
        // 5: exit           outer join
        let code = vec![bra(5), bra(3), nop(), nop(), nop(), exit()];
        let cfg = Cfg::build(&code);
        let t = cfg.reconvergence_table(&code);
        assert_eq!(t[0], Some(5));
        assert_eq!(t[1], Some(3));
    }

    #[test]
    fn block_of_maps_each_pc() {
        let code = vec![bra(2), nop(), exit()];
        let cfg = Cfg::build(&code);
        assert_eq!(cfg.block_of(0), 0);
        assert_eq!(cfg.block_of(1), 1);
        assert_eq!(cfg.block_of(2), 2);
    }

    #[test]
    fn exit_blocks_have_no_succs() {
        let code = vec![nop(), exit(), nop(), exit()];
        let cfg = Cfg::build(&code);
        // exit at pc1 splits; second (unreachable) block still modeled.
        for b in cfg.blocks() {
            let last = b.end - 1;
            if code[last].is_exit() {
                assert!(b.succs.is_empty());
            }
        }
    }
}
