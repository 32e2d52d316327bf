//! Functional (per-lane) instruction semantics.
//!
//! The simulator is functional-first: every instruction computes real
//! 32-bit lane values so the compression and scalar-detection hardware
//! models operate on genuine register contents.

use gscalar_isa::{AluOp, CmpOp, SfuOp};

/// The NaN an invalid operation on non-NaN operands produces (x86's
/// "real indefinite").
const DEFAULT_NAN: u32 = 0xFFC0_0000;

/// The quiet bit of an `f32` NaN.
const QUIET_BIT: u32 = 0x0040_0000;

/// The bits of float result `r` computed from `operands` (their bits,
/// in priority order): a NaN result is the first NaN operand, quieted,
/// or [`DEFAULT_NAN`] when no operand is NaN.
#[inline]
fn float_bits(r: f32, operands: &[u32]) -> u32 {
    if !r.is_nan() {
        return r.to_bits();
    }
    operands
        .iter()
        .find(|&&o| f32::from_bits(o).is_nan())
        .map_or(DEFAULT_NAN, |&o| o | QUIET_BIT)
}

/// The bits of min/max result `r`, which is NaN only when both
/// operands are: then `b`'s bits unchanged.
#[inline]
fn both_nan_gives_b(r: f32, b: u32) -> u32 {
    if r.is_nan() {
        b
    } else {
        r.to_bits()
    }
}

/// Evaluates an ALU opcode on one lane. `b`/`c` are ignored by opcodes
/// with smaller arity.
///
/// Float results that are NaN follow one fixed rule. Which of two NaN
/// operands an add or a multiply returns follows the machine operand
/// order, and the compiler may commute that wherever it inlines or
/// vectorizes the operation, so without the rule two call sites could
/// disagree. The rule is what x86 gives uncommuted: the first NaN
/// operand, quieted (for `FFma`, `b`, then `a`, then `c`); `FMin` and
/// `FMax` of two NaNs give `b` unchanged; an invalid operation on
/// non-NaN operands gives `0xFFC0_0000`.
#[must_use]
#[inline]
pub fn eval_alu(op: AluOp, a: u32, b: u32, c: u32) -> u32 {
    let fa = f32::from_bits(a);
    let fb = f32::from_bits(b);
    let fc = f32::from_bits(c);
    match op {
        AluOp::IAdd => a.wrapping_add(b),
        AluOp::ISub => a.wrapping_sub(b),
        AluOp::IMul => a.wrapping_mul(b),
        AluOp::IMad => a.wrapping_mul(b).wrapping_add(c),
        AluOp::IMin => (a as i32).min(b as i32) as u32,
        AluOp::IMax => (a as i32).max(b as i32) as u32,
        AluOp::IDiv => {
            let (ia, ib) = (a as i32, b as i32);
            if ib == 0 {
                0
            } else {
                ia.wrapping_div(ib) as u32
            }
        }
        AluOp::IAbs => (a as i32).wrapping_abs() as u32,
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Not => !a,
        AluOp::Shl => a << (b & 31),
        AluOp::Shr => a >> (b & 31),
        AluOp::Sra => ((a as i32) >> (b & 31)) as u32,
        AluOp::FAdd => float_bits(fa + fb, &[a, b]),
        AluOp::FSub => float_bits(fa - fb, &[a, b]),
        AluOp::FMul => float_bits(fa * fb, &[a, b]),
        AluOp::FFma => float_bits(fa.mul_add(fb, fc), &[b, a, c]),
        AluOp::FMin => both_nan_gives_b(fa.min(fb), b),
        AluOp::FMax => both_nan_gives_b(fa.max(fb), b),
        AluOp::FAbs => fa.abs().to_bits(),
        AluOp::FNeg => (-fa).to_bits(),
        AluOp::I2F => (a as i32 as f32).to_bits(),
        AluOp::F2I => (fa as i32) as u32, // saturating in Rust semantics
    }
}

/// Evaluates an ALU opcode over a warp: `dst[lane] = op(a, b, c)` at
/// each lane of `mask`, while inactive lanes keep `dst`'s old value.
/// Operand slices cover at least `dst.len()` lanes; `b`/`c` are
/// ignored by opcodes with smaller arity.
///
/// The opcode is matched once, outside the lane loop: each arm runs
/// [`eval_alu`] with a constant opcode, which inlines to that opcode's
/// one operation. Every opcode is a total function, so the loop
/// computes all lanes and keeps the active ones.
///
/// # Panics
///
/// Panics if an operand slice is shorter than `dst`.
pub fn eval_alu_lanes(op: AluOp, dst: &mut [u32], mask: u64, a: &[u32], b: &[u32], c: &[u32]) {
    macro_rules! hoist {
        ($($op:ident)*) => {
            match op {
                $(AluOp::$op => each_lane(dst, mask, a, b, c, |a, b, c| eval_alu(AluOp::$op, a, b, c)),)*
            }
        };
    }
    hoist!(
        IAdd ISub IMul IMad IMin IMax IDiv IAbs And Or Xor Not Shl Shr Sra
        FAdd FSub FMul FFma FMin FMax FAbs FNeg I2F F2I
    );
}

/// `dst[lane] = f(a, b, c)` at each lane of `mask`.
#[inline(always)]
fn each_lane(
    dst: &mut [u32],
    mask: u64,
    a: &[u32],
    b: &[u32],
    c: &[u32],
    f: impl Fn(u32, u32, u32) -> u32,
) {
    let n = dst.len();
    let (a, b, c) = (&a[..n], &b[..n], &c[..n]);
    if mask & crate::full_mask(n) == crate::full_mask(n) {
        for (lane, d) in dst.iter_mut().enumerate() {
            *d = f(a[lane], b[lane], c[lane]);
        }
    } else {
        for (lane, d) in dst.iter_mut().enumerate() {
            let v = f(a[lane], b[lane], c[lane]);
            if mask >> lane & 1 != 0 {
                *d = v;
            }
        }
    }
}

/// Evaluates an SFU opcode on one lane.
#[must_use]
pub fn eval_sfu(op: SfuOp, a: u32) -> u32 {
    let fa = f32::from_bits(a);
    let r = match op {
        SfuOp::Sin => fa.sin(),
        SfuOp::Cos => fa.cos(),
        SfuOp::Ex2 => fa.exp2(),
        SfuOp::Lg2 => fa.log2(),
        SfuOp::Rcp => 1.0 / fa,
        SfuOp::Rsqrt => 1.0 / fa.sqrt(),
        SfuOp::Sqrt => fa.sqrt(),
    };
    r.to_bits()
}

/// Evaluates a comparison on one lane.
#[must_use]
pub fn eval_cmp(cmp: CmpOp, float: bool, a: u32, b: u32) -> bool {
    if float {
        let (fa, fb) = (f32::from_bits(a), f32::from_bits(b));
        match cmp {
            CmpOp::Eq => fa == fb,
            CmpOp::Ne => fa != fb,
            CmpOp::Lt => fa < fb,
            CmpOp::Le => fa <= fb,
            CmpOp::Gt => fa > fb,
            CmpOp::Ge => fa >= fb,
        }
    } else {
        let (ia, ib) = (a as i32, b as i32);
        match cmp {
            CmpOp::Eq => ia == ib,
            CmpOp::Ne => ia != ib,
            CmpOp::Lt => ia < ib,
            CmpOp::Le => ia <= ib,
            CmpOp::Gt => ia > ib,
            CmpOp::Ge => ia >= ib,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_ops() {
        assert_eq!(eval_alu(AluOp::IAdd, 3, 4, 0), 7);
        assert_eq!(eval_alu(AluOp::IAdd, u32::MAX, 1, 0), 0); // wraps
        assert_eq!(eval_alu(AluOp::ISub, 3, 5, 0), (-2i32) as u32);
        assert_eq!(eval_alu(AluOp::IMad, 3, 4, 5,), 17);
        assert_eq!(eval_alu(AluOp::IMin, (-2i32) as u32, 1, 0), (-2i32) as u32);
        assert_eq!(eval_alu(AluOp::IMax, (-2i32) as u32, 1, 0), 1);
        assert_eq!(eval_alu(AluOp::IAbs, (-9i32) as u32, 0, 0), 9);
    }

    #[test]
    fn division_edge_cases() {
        assert_eq!(eval_alu(AluOp::IDiv, 10, 3, 0), 3);
        assert_eq!(eval_alu(AluOp::IDiv, 10, 0, 0), 0);
        assert_eq!(eval_alu(AluOp::IDiv, (-10i32) as u32, 3, 0), (-3i32) as u32);
        // i32::MIN / -1 must not trap.
        assert_eq!(
            eval_alu(AluOp::IDiv, i32::MIN as u32, (-1i32) as u32, 0),
            i32::MIN as u32
        );
    }

    #[test]
    fn shifts_mask_their_amount() {
        assert_eq!(eval_alu(AluOp::Shl, 1, 33, 0), 2);
        assert_eq!(eval_alu(AluOp::Shr, 0x8000_0000, 31, 0), 1);
        assert_eq!(eval_alu(AluOp::Sra, 0x8000_0000, 31, 0), 0xFFFF_FFFF);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        let a = 2.5f32.to_bits();
        let b = 0.5f32.to_bits();
        assert_eq!(f32::from_bits(eval_alu(AluOp::FAdd, a, b, 0)), 3.0);
        assert_eq!(f32::from_bits(eval_alu(AluOp::FMul, a, b, 0)), 1.25);
        let c = 1.0f32.to_bits();
        assert_eq!(f32::from_bits(eval_alu(AluOp::FFma, a, b, c)), 2.25);
        assert_eq!(f32::from_bits(eval_alu(AluOp::FNeg, a, 0, 0)), -2.5);
    }

    #[test]
    fn nan_results_follow_one_rule() {
        let (qa, sb) = (0x7FC0_1234, 0xFF80_0001);
        let one = 1.0f32.to_bits();
        let inf = f32::INFINITY.to_bits();
        // The first NaN operand, quieted, in either operand order.
        assert_eq!(eval_alu(AluOp::FAdd, qa, sb, 0), qa);
        assert_eq!(eval_alu(AluOp::FMul, sb, qa, 0), 0xFFC0_0001);
        assert_eq!(eval_alu(AluOp::FSub, one, sb, 0), 0xFFC0_0001);
        // Invalid operations on non-NaN operands give the default NaN.
        assert_eq!(eval_alu(AluOp::FSub, inf, inf, 0), DEFAULT_NAN);
        assert_eq!(eval_alu(AluOp::FMul, inf, 0, 0), DEFAULT_NAN);
        // FFma: the multiplicands' NaN (b first) before the addend's.
        assert_eq!(eval_alu(AluOp::FFma, qa, sb, 0x7FC0_0002), 0xFFC0_0001);
        assert_eq!(eval_alu(AluOp::FFma, one, one, sb), 0xFFC0_0001);
        // Min/max: one NaN operand yields the other; two yield `b`.
        assert_eq!(eval_alu(AluOp::FMin, qa, one, 0), one);
        assert_eq!(eval_alu(AluOp::FMax, qa, sb, 0), sb);
    }

    #[test]
    fn conversions() {
        assert_eq!(
            f32::from_bits(eval_alu(AluOp::I2F, (-3i32) as u32, 0, 0)),
            -3.0
        );
        assert_eq!(eval_alu(AluOp::F2I, 2.9f32.to_bits(), 0, 0), 2);
        assert_eq!(
            eval_alu(AluOp::F2I, (-2.9f32).to_bits(), 0, 0),
            (-2i32) as u32
        );
        // Saturation instead of UB on overflow.
        assert_eq!(
            eval_alu(AluOp::F2I, 1e20f32.to_bits(), 0, 0),
            i32::MAX as u32
        );
    }

    #[test]
    fn lane_evaluation_matches_per_lane_eval() {
        // Edge operands: zero, -1, i32::MIN/MAX, NaN, ±inf, -0.0,
        // shift counts at and past 32, and a few ordinary values.
        const EDGES: [u32; 17] = [
            0,
            1,
            u32::MAX, // also a negative NaN
            i32::MIN as u32,
            i32::MAX as u32, // also a NaN
            0x7FC0_0000,     // NaN
            0x7F80_0001,     // signaling NaN
            0xFFC0_0000,     // default NaN
            0xFF90_ABCD,     // negative signaling NaN
            0x7F80_0000,     // +inf
            0xFF80_0000,     // -inf
            0x8000_0000,     // -0.0 (also i32::MIN)
            31,
            32,
            33,
            0x3FC0_0000, // 1.5
            0xDEAD_BEEF,
        ];
        let mut rng = proptest::rng::TestRng::seed(25);
        let pick = |rng: &mut proptest::rng::TestRng| {
            if rng.below(2) == 0 {
                EDGES[rng.below(EDGES.len() as u128) as usize]
            } else {
                rng.next_u64() as u32
            }
        };
        for op in AluOp::ALL {
            for round in 0..200 {
                let lanes = [32, 1, 7, 64][round % 4];
                let mask = match round % 5 {
                    0 => crate::full_mask(lanes),
                    1 => u64::MAX,
                    _ => rng.next_u64() & crate::full_mask(lanes),
                };
                let operand = |rng: &mut proptest::rng::TestRng| {
                    (0..lanes).map(|_| pick(rng)).collect::<Vec<u32>>()
                };
                let (a, b, c, old) = (
                    operand(&mut rng),
                    operand(&mut rng),
                    operand(&mut rng),
                    operand(&mut rng),
                );
                let mut got = old.clone();
                eval_alu_lanes(op, &mut got, mask, &a, &b, &c);
                for lane in 0..lanes {
                    let want = if mask >> lane & 1 != 0 {
                        eval_alu(op, a[lane], b[lane], c[lane])
                    } else {
                        old[lane]
                    };
                    assert_eq!(got[lane], want, "{op:?} lane {lane} mask {mask:#x}");
                }
            }
        }
    }

    #[test]
    fn sfu_functions() {
        let x = 2.0f32.to_bits();
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Ex2, x)), 4.0);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Lg2, x)), 1.0);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Rcp, x)), 0.5);
        assert_eq!(f32::from_bits(eval_sfu(SfuOp::Sqrt, 4.0f32.to_bits())), 2.0);
        assert_eq!(
            f32::from_bits(eval_sfu(SfuOp::Rsqrt, 4.0f32.to_bits())),
            0.5
        );
        let s = f32::from_bits(eval_sfu(SfuOp::Sin, 0.0f32.to_bits()));
        assert_eq!(s, 0.0);
    }

    #[test]
    fn comparisons_int_and_float() {
        assert!(eval_cmp(CmpOp::Lt, false, (-1i32) as u32, 0));
        assert!(!eval_cmp(
            CmpOp::Lt,
            true,
            (-1.0f32).to_bits(),
            f32::NAN.to_bits()
        ));
        assert!(eval_cmp(
            CmpOp::Ne,
            true,
            1.0f32.to_bits(),
            2.0f32.to_bits()
        ));
        assert!(eval_cmp(CmpOp::Ge, false, 5, 5));
        // NaN compares false for everything except Ne.
        let nan = f32::NAN.to_bits();
        assert!(!eval_cmp(CmpOp::Eq, true, nan, nan));
        assert!(eval_cmp(CmpOp::Ne, true, nan, nan));
    }
}
