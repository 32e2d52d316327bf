//! The SM caches each warp's [`Scoreboard::hazard_window`] instead of
//! polling [`Scoreboard::blocking_is_mem`] every cycle. These properties
//! pin the identity that makes the cache exact, over random
//! reserve / release / expire histories on a few registers and
//! predicates:
//!
//! `blocking_is_mem(i, now) == (clear_at > now).then_some(mem_until > now)`
//!
//! and that lazily expiring at any `now` changes no answer from `now` on.

use gscalar_isa::{AluOp, CmpOp, Guard, Instr, InstrKind, Operand, Pred, Reg, Space};
use gscalar_sim::scoreboard::Scoreboard;
use proptest::prelude::*;

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
    Reserve(Instr),
    Release(Instr, u64),
    Expire(u64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => instr().prop_map(Op::Reserve),
        3 => (instr(), 0u64..24).prop_map(|(i, at)| Op::Release(i, at)),
        1 => (0u64..24).prop_map(Op::Expire),
    ]
}

/// The polled answer read off a hazard window.
fn from_window(sb: &Scoreboard, i: &Instr, now: u64) -> Option<bool> {
    let (clear_at, mem_until) = sb.hazard_window(i);
    (clear_at > now).then_some(mem_until > now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn hazard_window_matches_polled_scoreboard(
        ops in proptest::collection::vec(op(), 0..24),
        consumers in proptest::collection::vec(instr(), 1..6),
    ) {
        let mut sb = Scoreboard::new();
        let mut max_release = 0;
        for op in &ops {
            match op {
                Op::Reserve(i) => sb.reserve(i),
                Op::Release(i, at) => {
                    sb.release_at(i, *at);
                    max_release = max_release.max(*at);
                }
                Op::Expire(now) => sb.expire(*now),
            }
        }
        let horizon = max_release + 2;
        for c in &consumers {
            for now in 0..=horizon {
                prop_assert_eq!(
                    from_window(&sb, c, now),
                    sb.blocking_is_mem(c, now),
                    "consumer {} at cycle {}", c, now
                );
                // Expiring lazily at `now` is exact from `now` on.
                let mut expired = sb.clone();
                expired.expire(now);
                for later in now..=horizon {
                    prop_assert_eq!(
                        expired.blocking_is_mem(c, later),
                        sb.blocking_is_mem(c, later),
                        "expire({}) changed the answer at {}", now, later
                    );
                    prop_assert_eq!(
                        from_window(&expired, c, later),
                        expired.blocking_is_mem(c, later)
                    );
                }
            }
        }
    }
}
