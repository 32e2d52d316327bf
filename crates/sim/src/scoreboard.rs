//! The SM's scoreboard: in-flight register and predicate writes, one
//! slot per (warp, register) and per (warp, predicate).

use gscalar_isa::{FuncUnit, Pred};

use crate::decode::DecodedInstr;

/// Release time meaning "in flight, completion not yet known".
const PENDING: u64 = u64::MAX;

/// Predicate slots per warp: every predicate but the hard-wired `PT`,
/// which is never written.
const PREDS: usize = Pred::COUNT - 1;

/// The latest write to one register in one word: the first cycle it no
/// longer blocks (0: never written; [`RegSlot::PENDING`] until
/// writeback) in the low 63 bits, and in the top bit whether a memory
/// instruction produced it — stall accounting separates memory-pending
/// stalls from plain data-dependency stalls by it. Simulated cycles
/// stay far below 2^63 - 1.
#[derive(Debug, Clone, Copy)]
struct RegSlot(u64);

impl RegSlot {
    const MEM: u64 = 1 << 63;
    /// The release of a write not yet written back: after every cycle.
    const PENDING: u64 = !Self::MEM;

    fn new(release: u64, is_mem: bool) -> Self {
        debug_assert!(
            release <= Self::PENDING,
            "release cycle {release} overflows"
        );
        RegSlot(release | if is_mem { Self::MEM } else { 0 })
    }

    #[inline]
    fn release(self) -> u64 {
        self.0 & Self::PENDING
    }

    #[inline]
    fn is_mem(self) -> bool {
        self.0 & Self::MEM != 0
    }
}

/// A scoreboard for every warp slot of an SM: registers and predicates
/// with writes in flight may not be read (RAW) or re-written (WAW) until
/// released.
///
/// Writes are reserved at issue with an unknown completion time and
/// given a concrete release cycle at writeback (which includes the
/// G-Scalar +3-cycle compression latency when enabled). A write blocks
/// exactly while `release > now`.
///
/// One slot per register is exact because WAW blocks issue: an
/// instruction reserves its destination only once the previous write to
/// it has passed, so a register never has two writes outstanding. Debug
/// builds assert that at [`Scoreboard::reserve`].
///
/// Slots are indexed like the SM's physical registers: register `r` of
/// warp slot `w` is slot `w * regs_per_warp + r`.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    regs_per_warp: usize,
    regs: Vec<RegSlot>,
    preds: Vec<u64>,
}

impl Scoreboard {
    /// An empty scoreboard for `warps` warp slots of `regs_per_warp`
    /// registers each.
    #[must_use]
    pub fn new(warps: usize, regs_per_warp: usize) -> Self {
        Scoreboard {
            regs_per_warp,
            regs: vec![RegSlot(0); warps * regs_per_warp],
            preds: vec![0; warps * PREDS],
        }
    }

    /// Forgets every write of warp slot `w` (a new warp moves in).
    pub fn clear_warp(&mut self, w: usize) {
        self.warp_regs_mut(w).fill(RegSlot(0));
        self.warp_preds_mut(w).fill(0);
    }

    fn warp_regs(&self, w: usize) -> &[RegSlot] {
        &self.regs[w * self.regs_per_warp..][..self.regs_per_warp]
    }

    fn warp_regs_mut(&mut self, w: usize) -> &mut [RegSlot] {
        &mut self.regs[w * self.regs_per_warp..][..self.regs_per_warp]
    }

    fn warp_preds(&self, w: usize) -> &[u64] {
        &self.preds[w * PREDS..][..PREDS]
    }

    fn warp_preds_mut(&mut self, w: usize) -> &mut [u64] {
        &mut self.preds[w * PREDS..][..PREDS]
    }

    /// If warp `w`'s instruction `instr` cannot issue at `now`, reports
    /// whether *any* blocking write is owned by a memory instruction
    /// (`Some(true)`) or all blockers are ALU/SFU data dependencies
    /// (`Some(false)`); `None` when `instr` is free to issue.
    ///
    /// The SM answers this question from a cached
    /// [`Scoreboard::hazard_window`]; this polled form is the oracle the
    /// cache is checked against.
    #[must_use]
    pub fn blocking_is_mem(&self, w: usize, instr: &DecodedInstr, now: u64) -> Option<bool> {
        let regs = self.warp_regs(w);
        let preds = self.warp_preds(w);
        let mut blocked = false;
        let mut mem = false;
        for r in instr.srcs.iter().chain(&instr.dst) {
            let e = regs[usize::from(r.index())];
            if e.release() > now {
                blocked = true;
                mem |= e.is_mem();
            }
        }
        for p in instr.guard_pred.iter().chain(&instr.dst_pred) {
            blocked |= preds[usize::from(p.index())] > now;
        }
        blocked.then_some(mem)
    }

    /// The hazard window of warp `w`'s instruction `instr`:
    /// `(clear_at, mem_until)`.
    ///
    /// `clear_at` is the latest release among the registers and
    /// predicates `instr` reads or writes (`u64::MAX` while any is still
    /// pending); `mem_until` is the same maximum over memory-produced
    /// registers only. For every `now` from the cycle the window is taken
    ///
    /// `blocking_is_mem(w, instr, now) == (clear_at > now).then_some(mem_until > now)`
    ///
    /// and the window stays exact until the warp's slots next change.
    #[must_use]
    pub fn hazard_window(&self, w: usize, instr: &DecodedInstr) -> (u64, u64) {
        let regs = self.warp_regs(w);
        let preds = self.warp_preds(w);
        let mut clear_at = 0;
        let mut mem_until = 0;
        for r in instr.srcs.iter().chain(&instr.dst) {
            let e = regs[usize::from(r.index())];
            clear_at = clear_at.max(e.release());
            if e.is_mem() {
                mem_until = mem_until.max(e.release());
            }
        }
        for p in instr.guard_pred.iter().chain(&instr.dst_pred) {
            clear_at = clear_at.max(preds[usize::from(p.index())]);
        }
        let widen = |t| if t == RegSlot::PENDING { PENDING } else { t };
        (widen(clear_at), widen(mem_until))
    }

    /// Reserves warp `w`'s destinations of `instr`, issued at `now`.
    ///
    /// # Panics
    ///
    /// Debug builds panic if a destination's previous write has not
    /// passed by `now`: issue must wait out WAW hazards.
    pub fn reserve(&mut self, w: usize, instr: &DecodedInstr, now: u64) {
        if let Some(r) = instr.dst {
            let slot = &mut self.warp_regs_mut(w)[usize::from(r.index())];
            debug_assert!(
                slot.release() <= now,
                "warp {w} reserves {r} at cycle {now} with a write still in flight"
            );
            *slot = RegSlot::new(RegSlot::PENDING, instr.unit == FuncUnit::Mem);
        }
        if let Some(p) = instr.dst_pred {
            let slot = &mut self.warp_preds_mut(w)[usize::from(p.index())];
            debug_assert!(
                *slot <= now,
                "warp {w} reserves {p} at cycle {now} with a write still in flight"
            );
            *slot = PENDING;
        }
    }

    /// Schedules the release of warp `w`'s destinations of `instr` at
    /// cycle `at` (writeback time plus any extra pipeline latency).
    ///
    /// Only a pending write is released. A warp can exit with writes
    /// still in flight; their writebacks then land on whatever warp has
    /// moved into slot `w` since, and release its pending write to the
    /// same register, if any.
    pub fn release_at(&mut self, w: usize, instr: &DecodedInstr, at: u64) {
        if let Some(r) = instr.dst {
            let slot = &mut self.warp_regs_mut(w)[usize::from(r.index())];
            if slot.release() == RegSlot::PENDING {
                *slot = RegSlot::new(at, slot.is_mem());
            }
        }
        if let Some(p) = instr.dst_pred {
            let slot = &mut self.warp_preds_mut(w)[usize::from(p.index())];
            if *slot == PENDING {
                *slot = at;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_isa::{AluOp, Guard, Instr, InstrKind, Operand, Reg};

    /// No RAW/WAW hazard blocks `instr` at `now`.
    fn free(sb: &Scoreboard, instr: &DecodedInstr, now: u64) -> bool {
        sb.blocking_is_mem(0, instr, now).is_none()
    }

    fn add(dst: u8, a: u8, b: u8) -> DecodedInstr {
        DecodedInstr::new(&Instr::always(InstrKind::Alu {
            op: AluOp::IAdd,
            dst: Reg::new(dst),
            a: Reg::new(a).into(),
            b: Reg::new(b).into(),
            c: Reg::RZ.into(),
        }))
    }

    fn sb() -> Scoreboard {
        Scoreboard::new(2, 16)
    }

    #[test]
    fn raw_hazard_blocks_then_releases() {
        let mut sb = sb();
        let producer = add(1, 2, 3);
        let consumer = add(4, 1, 5);
        assert!(free(&sb, &producer, 0));
        sb.reserve(0, &producer, 0);
        assert!(!free(&sb, &consumer, 0));
        sb.release_at(0, &producer, 10);
        assert!(!free(&sb, &consumer, 9));
        assert!(free(&sb, &consumer, 10));
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = sb();
        sb.reserve(0, &add(1, 2, 3), 0);
        assert!(!free(&sb, &add(1, 4, 5), 0));
    }

    #[test]
    fn independent_instruction_and_other_warp_pass() {
        let mut sb = sb();
        sb.reserve(0, &add(1, 2, 3), 0);
        assert!(free(&sb, &add(4, 5, 6), 0));
        assert_eq!(sb.blocking_is_mem(1, &add(4, 1, 5), 0), None);
        sb.clear_warp(0);
        assert!(free(&sb, &add(4, 1, 5), 0));
    }

    #[test]
    fn predicate_hazards() {
        let mut sb = sb();
        let setp = DecodedInstr::new(&Instr::always(InstrKind::SetP {
            cmp: gscalar_isa::CmpOp::Lt,
            float: false,
            dst: Pred::new(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        }));
        let guarded = DecodedInstr::new(&Instr::new(Guard::pos(Pred::new(0)), InstrKind::Nop));
        sb.reserve(0, &setp, 0);
        assert!(!free(&sb, &guarded, 0));
        sb.release_at(0, &setp, 5);
        assert!(free(&sb, &guarded, 5));
    }

    #[test]
    fn blocking_kind_distinguishes_memory_producers() {
        let mut sb = sb();
        let load = DecodedInstr::new(&Instr::always(InstrKind::Ld {
            space: gscalar_isa::Space::Global,
            dst: Reg::new(1),
            addr: Reg::new(2),
            offset: 0,
        }));
        sb.reserve(0, &load, 0);
        let consumer = add(4, 1, 5);
        assert_eq!(sb.blocking_is_mem(0, &consumer, 0), Some(true));
        assert_eq!(sb.hazard_window(0, &consumer), (PENDING, PENDING));
        // An ALU producer over a different register reports non-mem.
        sb.reserve(0, &add(6, 2, 3), 0);
        assert_eq!(sb.blocking_is_mem(0, &add(7, 6, 5), 0), Some(false));
        // Blocked by both: memory wins the classification.
        assert_eq!(sb.blocking_is_mem(0, &add(8, 1, 6), 0), Some(true));
        // Unblocked instruction reports None.
        assert_eq!(sb.blocking_is_mem(0, &add(9, 10, 11), 0), None);
    }
}
