//! Per-warp scoreboard tracking in-flight register writes.

use gscalar_isa::{FuncUnit, Instr, Pred, Reg};

/// Release time meaning "in flight, completion not yet known".
const PENDING: u64 = u64::MAX;

/// One outstanding register write: who owns it and when it releases.
#[derive(Debug, Clone, Copy)]
struct RegEntry {
    reg: Reg,
    release: u64,
    /// Whether the producing instruction is a load (memory latency) —
    /// used by stall accounting to separate memory-pending stalls from
    /// plain data-dependency stalls.
    is_mem: bool,
}

/// A scoreboard for one warp: registers and predicates with writes in
/// flight may not be read (RAW) or re-written (WAW) until released.
///
/// Writes are reserved at issue with an unknown completion time and
/// given a concrete release cycle at writeback (which includes the
/// G-Scalar +3-cycle compression latency when enabled).
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    regs: Vec<RegEntry>,
    preds: Vec<(Pred, u64)>,
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// If `instr` cannot issue at `now`, reports whether *any* blocking
    /// entry is owned by a memory instruction (`Some(true)`) or all
    /// blockers are ALU/SFU data dependencies (`Some(false)`); `None`
    /// when `instr` is free to issue.
    ///
    /// The SM answers this question from a cached
    /// [`Scoreboard::hazard_window`]; this polled form is the oracle the
    /// cache is checked against.
    #[must_use]
    pub fn blocking_is_mem(&self, instr: &Instr, now: u64) -> Option<bool> {
        let mut blocked = false;
        let mut mem = false;
        {
            let mut check_reg = |r: Reg| {
                for e in &self.regs {
                    if e.reg == r && e.release > now {
                        blocked = true;
                        mem |= e.is_mem;
                    }
                }
            };
            for &r in instr.src_regs().iter() {
                check_reg(r);
            }
            if let Some(r) = instr.dst_reg() {
                check_reg(r);
            }
        }
        let mut check_pred = |p: Pred| {
            if self.preds.iter().any(|&(bp, t)| bp == p && t > now) {
                blocked = true;
            }
        };
        for &p in instr.src_preds().iter() {
            check_pred(p);
        }
        if let Some(p) = instr.dst_pred() {
            check_pred(p);
        }
        if blocked {
            Some(mem)
        } else {
            None
        }
    }

    /// The hazard window of `instr`: `(clear_at, mem_until)`.
    ///
    /// `clear_at` is the latest release among the entries for the
    /// registers and predicates `instr` reads or writes (`u64::MAX`
    /// while any is still pending); `mem_until` is the same maximum over
    /// memory-produced register entries only, or 0 if there are none.
    /// An entry blocks exactly while `release > now`, so for every `now`
    ///
    /// `blocking_is_mem(instr, now) == (clear_at > now).then_some(mem_until > now)`
    ///
    /// and the window stays exact until the scoreboard next changes.
    #[must_use]
    pub fn hazard_window(&self, instr: &Instr) -> (u64, u64) {
        let mut clear_at = 0;
        let mut mem_until = 0;
        {
            let mut check_reg = |r: Reg| {
                for e in &self.regs {
                    if e.reg == r {
                        clear_at = clear_at.max(e.release);
                        if e.is_mem {
                            mem_until = mem_until.max(e.release);
                        }
                    }
                }
            };
            for &r in instr.src_regs().iter() {
                check_reg(r);
            }
            if let Some(r) = instr.dst_reg() {
                check_reg(r);
            }
        }
        let mut check_pred = |p: Pred| {
            for &(bp, t) in &self.preds {
                if bp == p {
                    clear_at = clear_at.max(t);
                }
            }
        };
        for &p in instr.src_preds().iter() {
            check_pred(p);
        }
        if let Some(p) = instr.dst_pred() {
            check_pred(p);
        }
        (clear_at, mem_until)
    }

    /// Reserves `instr`'s destinations at issue.
    pub fn reserve(&mut self, instr: &Instr) {
        if let Some(r) = instr.dst_reg() {
            self.regs.push(RegEntry {
                reg: r,
                release: PENDING,
                is_mem: instr.func_unit() == FuncUnit::Mem,
            });
        }
        if let Some(p) = instr.dst_pred() {
            self.preds.push((p, PENDING));
        }
    }

    /// Schedules the release of `instr`'s destinations at cycle `at`
    /// (writeback time plus any extra pipeline latency).
    pub fn release_at(&mut self, instr: &Instr, at: u64) {
        if let Some(r) = instr.dst_reg() {
            if let Some(e) = self
                .regs
                .iter_mut()
                .find(|e| e.reg == r && e.release == PENDING)
            {
                e.release = at;
            }
        }
        if let Some(p) = instr.dst_pred() {
            if let Some(e) = self
                .preds
                .iter_mut()
                .find(|(bp, t)| *bp == p && *t == PENDING)
            {
                e.1 = at;
            }
        }
    }

    /// Drops entries whose release time has passed. Exact at any point
    /// from `now` on: a passed entry never blocks again, and
    /// [`Scoreboard::release_at`] only matches pending entries.
    pub fn expire(&mut self, now: u64) {
        self.regs.retain(|e| e.release > now);
        self.preds.retain(|&(_, t)| t > now);
    }

    /// Number of outstanding reservations.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.regs.len() + self.preds.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_isa::{AluOp, Guard, InstrKind, Operand};

    /// No RAW/WAW hazard blocks `instr` at `now`.
    fn free(sb: &Scoreboard, instr: &Instr, now: u64) -> bool {
        sb.blocking_is_mem(instr, now).is_none()
    }

    fn add(dst: u8, a: u8, b: u8) -> Instr {
        Instr::always(InstrKind::Alu {
            op: AluOp::IAdd,
            dst: Reg::new(dst),
            a: Reg::new(a).into(),
            b: Reg::new(b).into(),
            c: Reg::RZ.into(),
        })
    }

    #[test]
    fn raw_hazard_blocks_then_releases() {
        let mut sb = Scoreboard::new();
        let producer = add(1, 2, 3);
        let consumer = add(4, 1, 5);
        assert!(free(&sb, &producer, 0));
        sb.reserve(&producer);
        assert!(!free(&sb, &consumer, 0));
        sb.release_at(&producer, 10);
        assert!(!free(&sb, &consumer, 9));
        assert!(free(&sb, &consumer, 10));
        sb.expire(10);
        assert_eq!(sb.outstanding(), 0);
    }

    #[test]
    fn waw_hazard_blocks() {
        let mut sb = Scoreboard::new();
        let w1 = add(1, 2, 3);
        let w2 = add(1, 4, 5);
        sb.reserve(&w1);
        assert!(!free(&sb, &w2, 0));
    }

    #[test]
    fn independent_instruction_passes() {
        let mut sb = Scoreboard::new();
        sb.reserve(&add(1, 2, 3));
        assert!(free(&sb, &add(4, 5, 6), 0));
    }

    #[test]
    fn predicate_hazards() {
        let mut sb = Scoreboard::new();
        let setp = Instr::always(InstrKind::SetP {
            cmp: gscalar_isa::CmpOp::Lt,
            float: false,
            dst: Pred::new(0),
            a: Operand::Imm(1),
            b: Operand::Imm(2),
        });
        let guarded = Instr::new(Guard::pos(Pred::new(0)), InstrKind::Nop);
        sb.reserve(&setp);
        assert!(!free(&sb, &guarded, 0));
        sb.release_at(&setp, 5);
        assert!(free(&sb, &guarded, 5));
    }

    #[test]
    fn blocking_kind_distinguishes_memory_producers() {
        let mut sb = Scoreboard::new();
        let load = Instr::always(InstrKind::Ld {
            space: gscalar_isa::Space::Global,
            dst: Reg::new(1),
            addr: Reg::new(2),
            offset: 0,
        });
        sb.reserve(&load);
        let consumer = add(4, 1, 5);
        assert_eq!(sb.blocking_is_mem(&consumer, 0), Some(true));
        assert!(!free(&sb, &consumer, 0));
        // An ALU producer over a different register reports non-mem.
        let alu = add(6, 2, 3);
        sb.reserve(&alu);
        let alu_consumer = add(7, 6, 5);
        assert_eq!(sb.blocking_is_mem(&alu_consumer, 0), Some(false));
        // Blocked by both: memory wins the classification.
        let both = add(8, 1, 6);
        assert_eq!(sb.blocking_is_mem(&both, 0), Some(true));
        // Unblocked instruction reports None.
        assert_eq!(sb.blocking_is_mem(&add(9, 10, 11), 0), None);
    }

    #[test]
    fn duplicate_writers_release_independently() {
        let mut sb = Scoreboard::new();
        let w = add(1, 2, 3);
        sb.reserve(&w);
        sb.reserve(&w); // second in-flight write to R1 (blocked in
                        // practice by WAW, but the structure must cope)
        sb.release_at(&w, 5);
        assert!(!free(&sb, &add(4, 1, 5), 6), "second write still pending");
        sb.release_at(&w, 7);
        assert!(free(&sb, &add(4, 1, 5), 7));
    }
}
