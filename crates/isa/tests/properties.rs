//! Property-based tests: assembler round-trips over random instructions
//! and instruction lists. Reconvergence over generated structured
//! kernels is checked at the workspace root (`tests/differential.rs`),
//! on the workspace's one kernel generator.

use gscalar_isa::{
    asm, AluOp, CmpOp, Guard, Instr, InstrKind, Operand, Pred, Reg, SReg, SfuOp, Space,
};
use proptest::prelude::*;

fn reg() -> impl Strategy<Value = Reg> {
    prop_oneof![4 => (0u8..32).prop_map(Reg::new), 1 => Just(Reg::RZ)]
}

fn operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        reg().prop_map(Operand::Reg),
        any::<u32>().prop_map(Operand::Imm),
    ]
}

fn guard() -> impl Strategy<Value = Guard> {
    prop_oneof![
        3 => Just(Guard::ALWAYS),
        1 => ((0u8..7), any::<bool>()).prop_map(|(p, n)| Guard {
            pred: Pred::new(p),
            negate: n
        }),
    ]
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    proptest::sample::select(AluOp::ALL.to_vec())
}

fn instr_kind() -> impl Strategy<Value = InstrKind> {
    prop_oneof![
        (alu_op(), reg(), operand(), operand(), operand()).prop_map(|(op, dst, a, b, c)| {
            // Unused trailing operands are canonically RZ (the printer
            // omits them, so the parser reconstructs RZ).
            let b = if op.arity() >= 2 {
                b
            } else {
                Operand::Reg(Reg::RZ)
            };
            let c = if op.arity() >= 3 {
                c
            } else {
                Operand::Reg(Reg::RZ)
            };
            InstrKind::Alu { op, dst, a, b, c }
        }),
        (
            proptest::sample::select(SfuOp::ALL.to_vec()),
            reg(),
            operand()
        )
            .prop_map(|(op, dst, a)| InstrKind::Sfu { op, dst, a }),
        (reg(), operand()).prop_map(|(dst, src)| InstrKind::Mov { dst, src }),
        (reg(), proptest::sample::select(SReg::ALL.to_vec()))
            .prop_map(|(dst, sreg)| InstrKind::S2R { dst, sreg }),
        (
            proptest::sample::select(CmpOp::ALL.to_vec()),
            any::<bool>(),
            (0u8..7).prop_map(Pred::new),
            operand(),
            operand()
        )
            .prop_map(|(cmp, float, dst, a, b)| InstrKind::SetP {
                cmp,
                float,
                dst,
                a,
                b
            }),
        (
            prop_oneof![Just(Space::Global), Just(Space::Shared)],
            reg(),
            reg(),
            -4096i32..4096
        )
            .prop_map(|(space, dst, addr, offset)| InstrKind::Ld {
                space,
                dst,
                addr,
                offset
            }),
        (
            prop_oneof![Just(Space::Global), Just(Space::Shared)],
            reg(),
            reg(),
            -4096i32..4096
        )
            .prop_map(|(space, src, addr, offset)| InstrKind::St {
                space,
                src,
                addr,
                offset
            }),
        Just(InstrKind::Bar),
        Just(InstrKind::Nop),
    ]
}

fn instr() -> impl Strategy<Value = Instr> {
    (guard(), instr_kind()).prop_map(|(guard, kind)| Instr { guard, kind })
}

proptest! {
    #[test]
    fn single_instruction_roundtrips(i in instr()) {
        let text = i.to_string();
        let parsed = asm::parse_instr(&text).expect("printer output must parse");
        prop_assert_eq!(parsed, i, "text was: {}", text);
    }

    #[test]
    fn kernels_roundtrip_through_asm(body in proptest::collection::vec(instr(), 1..40)) {
        let mut instrs = body;
        instrs.push(Instr::always(InstrKind::Exit));
        let kernel = gscalar_isa::Kernel::new("prop", instrs, 40).expect("valid kernel");
        let text = asm::print_kernel(&kernel);
        let back = asm::parse_kernel(&text).expect("printed kernel must parse");
        prop_assert_eq!(kernel.instrs(), back.instrs());
        prop_assert_eq!(kernel.num_regs(), back.num_regs());
    }
}
