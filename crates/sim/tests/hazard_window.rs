//! The SM keeps one scoreboard slot per (warp, register) and caches each
//! warp's [`Scoreboard::hazard_window`] instead of polling
//! [`Scoreboard::blocking_is_mem`] every cycle. These properties check
//! both against a reference model, the list of in-flight writes the
//! scoreboard used to be, over random issue / writeback histories on a
//! few registers and predicates. A history only issues what the SM's
//! issue rule admits: an instruction the model reports unblocked at that
//! cycle. For every consumer at every cycle from the history's end on:
//!
//! - the polled answers agree with the model's;
//! - the hazard windows agree wherever an edge lies ahead;
//! - `blocking_is_mem(i, now) == (clear_at > now).then_some(mem_until > now)`.

use gscalar_isa::{AluOp, CmpOp, FuncUnit, Guard, Instr, InstrKind, Operand, Pred, Reg, Space};
use gscalar_sim::decode::DecodedInstr;
use gscalar_sim::scoreboard::Scoreboard;
use proptest::prelude::*;

/// Release time meaning "in flight, completion not yet known".
const PENDING: u64 = u64::MAX;

/// One outstanding register write of the reference model.
#[derive(Debug, Clone, Copy)]
struct RegEntry {
    reg: Reg,
    release: u64,
    is_mem: bool,
}

/// The reference model: every reserved write as a list entry, matched
/// by register on every query and dropped lazily by `expire`.
#[derive(Debug, Clone, Default)]
struct ListModel {
    regs: Vec<RegEntry>,
    preds: Vec<(Pred, u64)>,
}

impl ListModel {
    fn blocking_is_mem(&self, instr: &Instr, now: u64) -> Option<bool> {
        let mut blocked = false;
        let mut mem = false;
        for r in instr.src_regs().iter().chain(&instr.dst_reg()) {
            for e in self.regs.iter().filter(|e| e.reg == *r && e.release > now) {
                blocked = true;
                mem |= e.is_mem;
            }
        }
        for p in instr.src_preds().iter().chain(&instr.dst_pred()) {
            blocked |= self.preds.iter().any(|&(bp, t)| bp == *p && t > now);
        }
        blocked.then_some(mem)
    }

    fn hazard_window(&self, instr: &Instr) -> (u64, u64) {
        let mut clear_at = 0;
        let mut mem_until = 0;
        for r in instr.src_regs().iter().chain(&instr.dst_reg()) {
            for e in self.regs.iter().filter(|e| e.reg == *r) {
                clear_at = clear_at.max(e.release);
                if e.is_mem {
                    mem_until = mem_until.max(e.release);
                }
            }
        }
        for p in instr.src_preds().iter().chain(&instr.dst_pred()) {
            for &(_, t) in self.preds.iter().filter(|(bp, _)| bp == p) {
                clear_at = clear_at.max(t);
            }
        }
        (clear_at, mem_until)
    }

    fn reserve(&mut self, instr: &Instr) {
        if let Some(reg) = instr.dst_reg() {
            self.regs.push(RegEntry {
                reg,
                release: PENDING,
                is_mem: instr.func_unit() == FuncUnit::Mem,
            });
        }
        if let Some(p) = instr.dst_pred() {
            self.preds.push((p, PENDING));
        }
    }

    fn release_at(&mut self, instr: &Instr, at: u64) {
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

    fn expire(&mut self, now: u64) {
        self.regs.retain(|e| e.release > now);
        self.preds.retain(|&(_, t)| t > now);
    }
}

/// An instruction over R1–R3 and P0–P1: an ALU add (optionally
/// guarded), a load, a predicate set, or a store (no destination).
fn instr() -> impl Strategy<Value = Instr> {
    (0u8..4, 1u8..4, 1u8..4, 1u8..4, 0u8..3).prop_map(|(kind, d, a, b, g)| {
        let r = Reg::new;
        let guard = match g {
            0 => Guard::ALWAYS,
            _ => Guard::pos(Pred::new(g - 1)),
        };
        let kind = match kind {
            0 => InstrKind::Alu {
                op: AluOp::IAdd,
                dst: r(d),
                a: r(a).into(),
                b: r(b).into(),
                c: Reg::RZ.into(),
            },
            1 => InstrKind::Ld {
                space: Space::Global,
                dst: r(d),
                addr: r(a),
                offset: 0,
            },
            2 => InstrKind::SetP {
                cmp: CmpOp::Lt,
                float: false,
                dst: Pred::new(d % 2),
                a: Operand::Reg(r(a)),
                b: Operand::Reg(r(b)),
            },
            _ => InstrKind::St {
                space: Space::Global,
                src: r(a),
                addr: r(b),
                offset: 0,
            },
        };
        Instr::new(guard, kind)
    })
}

#[derive(Debug, Clone)]
enum Op {
    /// Issue the instruction if the model admits it this cycle.
    Issue(Instr),
    /// Write back the in-flight instruction with this index (modulo the
    /// count), releasing its destinations this many cycles from now.
    Writeback(usize, u64),
    /// Advance the clock, and optionally expire the model there.
    Advance(u64, bool),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => instr().prop_map(Op::Issue),
        3 => (0usize..8, 0u64..6).prop_map(|(k, delay)| Op::Writeback(k, delay)),
        2 => (0u64..4, any::<bool>()).prop_map(|(dt, expire)| Op::Advance(dt, expire)),
    ]
}

/// A window's edges that still lie ahead at `now` (0: passed).
fn ahead((clear_at, mem_until): (u64, u64), now: u64) -> (u64, u64) {
    let ahead = |t: u64| if t > now { t } else { 0 };
    (ahead(clear_at), ahead(mem_until))
}

/// Warp slot 1 of a two-slot board, so the slot arithmetic is exercised.
const W: usize = 1;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn per_register_scoreboard_matches_the_list_model(
        ops in proptest::collection::vec(op(), 0..32),
        consumers in proptest::collection::vec(instr(), 1..6),
    ) {
        let mut sb = Scoreboard::new(2, 4);
        let mut model = ListModel::default();
        let mut inflight: Vec<Instr> = Vec::new();
        let mut now = 0;
        let mut max_release = 0;
        for op in &ops {
            match *op {
                Op::Issue(i) => {
                    let d = DecodedInstr::new(&i);
                    let admitted = model.blocking_is_mem(&i, now).is_none();
                    prop_assert_eq!(admitted, sb.blocking_is_mem(W, &d, now).is_none());
                    if admitted {
                        model.reserve(&i);
                        sb.reserve(W, &d, now);
                        if d.dst.is_some() || d.dst_pred.is_some() {
                            inflight.push(i);
                        }
                    }
                }
                Op::Writeback(k, delay) if !inflight.is_empty() => {
                    let i = inflight.remove(k % inflight.len());
                    model.release_at(&i, now + delay);
                    sb.release_at(W, &DecodedInstr::new(&i), now + delay);
                    max_release = max_release.max(now + delay);
                }
                Op::Writeback(..) => {}
                Op::Advance(dt, expire) => {
                    now += dt;
                    if expire {
                        model.expire(now);
                    }
                }
            }
        }
        let horizon = max_release.max(now) + 2;
        for c in &consumers {
            let d = DecodedInstr::new(c);
            let window = sb.hazard_window(W, &d);
            for t in now..=horizon {
                let polled = sb.blocking_is_mem(W, &d, t);
                prop_assert_eq!(polled, model.blocking_is_mem(c, t), "consumer {} at cycle {}", c, t);
                prop_assert_eq!(
                    ahead(window, t),
                    ahead(model.hazard_window(c), t),
                    "window of consumer {} at cycle {}", c, t
                );
                prop_assert_eq!((window.0 > t).then_some(window.1 > t), polled);
            }
            // The other slot saw none of it.
            prop_assert_eq!(sb.blocking_is_mem(0, &d, 0), None);
        }
    }
}

/// Issue waits out WAW hazards, so a register never has two writes in
/// flight; reserving a second one is a bug the scoreboard catches.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "with a write still in flight")]
fn reserving_a_register_with_a_write_in_flight_panics() {
    let add = DecodedInstr::new(&Instr::always(InstrKind::Alu {
        op: AluOp::IAdd,
        dst: Reg::new(1),
        a: Reg::new(2).into(),
        b: Reg::new(3).into(),
        c: Reg::RZ.into(),
    }));
    let mut sb = Scoreboard::new(1, 4);
    sb.reserve(0, &add, 0);
    sb.release_at(0, &add, 5);
    sb.reserve(0, &add, 4);
}
