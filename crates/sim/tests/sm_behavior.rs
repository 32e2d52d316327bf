//! Behavioral tests for the SM pipeline: eligibility classification,
//! scalar execution modes, decompress-moves, CTA management, and
//! operand-collector pressure — exercised through the public `Gpu` API.

use gscalar_isa::{CmpOp, KernelBuilder, LaunchConfig, Operand, SReg};
use gscalar_sim::memory::GlobalMemory;
use gscalar_sim::{ArchConfig, Gpu, GpuConfig, Instruments, Stats};
use gscalar_trace::{EventBuf, StallReason, TraceEvent, Tracer};

fn gscalar() -> ArchConfig {
    ArchConfig {
        name: "gscalar-test".into(),
        scalar_alu: true,
        scalar_sfu: true,
        scalar_mem: true,
        scalar_half: true,
        scalar_divergent: true,
        compression: true,
        dedicated_scalar_rf: false,
        extra_latency: 3,
        compiler_assisted_moves: false,
        scalar_fast_dispatch: false,
    }
}

fn run(kernel: &gscalar_isa::Kernel, launch: LaunchConfig, arch: ArchConfig) -> Stats {
    let mut gpu = Gpu::new(GpuConfig::test_small(), arch);
    let mut mem = GlobalMemory::new();
    gpu.run(kernel, launch, &mut mem)
}

#[test]
fn uniform_ops_classify_as_alu_scalar() {
    let mut b = KernelBuilder::new("k");
    let c = b.s2r(SReg::CtaIdX); // warp-uniform
    let x = b.iadd(c.into(), Operand::Imm(1));
    let y = b.imul(x.into(), Operand::Imm(3));
    b.xor(y.into(), x.into());
    b.exit();
    let k = b.build().unwrap();
    let s = run(&k, LaunchConfig::linear(1, 32), ArchConfig::baseline());
    // s2r(ctaid), add, mul, xor are all scalar-eligible.
    assert_eq!(s.instr.eligible_alu, 4);
    assert_eq!(s.instr.eligible_total(), 4);
}

#[test]
fn per_lane_ops_are_vector() {
    let mut b = KernelBuilder::new("k");
    let t = b.s2r(SReg::TidX); // per-lane
    let x = b.iadd(t.into(), Operand::Imm(1));
    b.imul(x.into(), t.into());
    b.exit();
    let k = b.build().unwrap();
    let s = run(&k, LaunchConfig::linear(1, 32), ArchConfig::baseline());
    assert_eq!(s.instr.eligible_total(), 0);
}

#[test]
fn scalar_store_requires_uniform_value_and_address() {
    let mut b = KernelBuilder::new("k");
    let addr = b.mov(Operand::Imm(0x1000)); // uniform address
    let uval = b.mov(Operand::Imm(7)); // uniform value
    b.st_global(addr, uval, 0); // scalar-eligible store
    let t = b.s2r(SReg::TidX);
    b.st_global(addr, t, 0); // per-lane value: not eligible
    b.exit();
    let k = b.build().unwrap();
    let s = run(&k, LaunchConfig::linear(1, 32), ArchConfig::baseline());
    assert_eq!(s.instr.eligible_mem, 1);
}

#[test]
fn half_scalar_detected_and_executed() {
    let mut b = KernelBuilder::new("k");
    let t = b.s2r(SReg::TidX);
    let half = b.shr(t.into(), Operand::Imm(4)); // uniform per 16 lanes
    let h1 = b.iadd(half.into(), Operand::Imm(5)); // half-scalar
    b.imul(h1.into(), half.into()); // half-scalar
    b.exit();
    let k = b.build().unwrap();
    let base = run(&k, LaunchConfig::linear(1, 32), ArchConfig::baseline());
    assert_eq!(base.instr.eligible_half, 2);
    let gs = run(&k, LaunchConfig::linear(1, 32), gscalar());
    assert_eq!(gs.instr.executed_half, 2);
    // Half execution drives warp_size/16 = 2 lanes instead of 32.
    assert!(gs.exec.int_lane_ops < base.exec.int_lane_ops);
}

#[test]
fn divergent_scalar_only_with_matching_mask() {
    let mut b = KernelBuilder::new("k");
    let t = b.s2r(SReg::TidX);
    let u = b.mov(Operand::Imm(9)); // uniform
    let p = b.isetp(CmpOp::Lt, t.into(), Operand::Imm(8));
    b.if_else(
        p.into(),
        |b| {
            // Path A: writes v under mask A, then reads it under mask A
            // → both divergent-scalar.
            let v = b.iadd(u.into(), Operand::Imm(1));
            b.imul(v.into(), Operand::Imm(2));
        },
        |b| {
            // Path B: per-lane work → vector.
            b.iadd(t.into(), Operand::Imm(1));
        },
    );
    b.exit();
    let k = b.build().unwrap();
    let s = run(&k, LaunchConfig::linear(1, 32), ArchConfig::baseline());
    assert_eq!(s.instr.eligible_divergent, 2, "both path-A ops qualify");
    let gs = run(&k, LaunchConfig::linear(1, 32), gscalar());
    assert_eq!(gs.instr.executed_scalar, 2 + gs.instr.eligible_alu);
}

#[test]
fn decompress_move_charged_once_per_compressed_destination() {
    let mut b = KernelBuilder::new("k");
    let t = b.s2r(SReg::TidX);
    // r is compressed (scalar) by a non-divergent write...
    let r = b.mov(Operand::Imm(5));
    let p = b.isetp(CmpOp::Lt, t.into(), Operand::Imm(4));
    // ...then partially overwritten under divergence: needs the special
    // move (Section 3.3). A second divergent write hits a raw register.
    b.if_then(p.into(), |b| {
        b.iadd_to(r, r.into(), Operand::Imm(1));
        b.iadd_to(r, r.into(), Operand::Imm(1));
    });
    // Keep r observable.
    let addr = b.mov(Operand::Imm(0x2000));
    b.st_global(addr, r, 0);
    b.exit();
    let k = b.build().unwrap();
    let s = run(&k, LaunchConfig::linear(1, 32), gscalar());
    assert_eq!(s.instr.decompress_moves, 1);
}

#[test]
fn compiler_assisted_elision_skips_dead_destinations() {
    let mut b = KernelBuilder::new("k");
    let t = b.s2r(SReg::TidX);
    let r = b.mov(Operand::Imm(5)); // compressed scalar
    let p = b.isetp(CmpOp::Lt, t.into(), Operand::Imm(4));
    b.if_then(p.into(), |b| {
        // Divergent write to r whose old value is then dead: r is
        // unconditionally overwritten before any further read.
        b.iadd_to(r, r.into(), Operand::Imm(1));
    });
    b.mov_to(r, Operand::Imm(0)); // full overwrite
    let addr = b.mov(Operand::Imm(0x2000));
    b.st_global(addr, r, 0);
    b.exit();
    let k = b.build().unwrap();
    let hw = run(&k, LaunchConfig::linear(1, 32), gscalar());
    // The guarded write reads r (merge semantics), so the old value is
    // live INTO it — but after it, r is dead. The move guards the
    // *write-back*, so liveness-after decides.
    let mut cc_arch = gscalar();
    cc_arch.compiler_assisted_moves = true;
    let cc = run(&k, LaunchConfig::linear(1, 32), cc_arch);
    assert_eq!(hw.instr.decompress_moves, 1);
    assert_eq!(cc.instr.decompress_moves, 0);
    assert_eq!(cc.instr.decompress_moves_elided, 1);
}

#[test]
fn multiple_ctas_refill_an_sm() {
    // test_small allows 4 CTAs resident; launch 12 so refills happen.
    let mut b = KernelBuilder::new("k");
    let c = b.s2r(SReg::CtaIdX);
    let a = b.shl(c.into(), Operand::Imm(2));
    let addr = b.iadd(a.into(), Operand::Imm(0x3000));
    b.st_global(addr, c, 0);
    b.exit();
    let k = b.build().unwrap();
    let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
    let mut mem = GlobalMemory::new();
    let s = gpu.run(&k, LaunchConfig::linear(12, 64), &mut mem);
    assert_eq!(s.instr.warp_instrs, 12 * 2 * 5);
    for cta in 0..12u32 {
        assert_eq!(mem.read_u32(0x3000 + u64::from(cta) * 4), cta);
    }
}

#[test]
fn predicated_off_instruction_is_a_no_op() {
    let mut b = KernelBuilder::new("k");
    let x = b.mov(Operand::Imm(1));
    let p = b.pred(); // never set: all lanes false
    b.iadd_to(x, x.into(), Operand::Imm(100));
    b.guard_last(p.into()); // @P — all lanes off
    let addr = b.mov(Operand::Imm(0x4000));
    b.st_global(addr, x, 0);
    b.exit();
    let k = b.build().unwrap();
    let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
    let mut mem = GlobalMemory::new();
    let s = gpu.run(&k, LaunchConfig::linear(1, 32), &mut mem);
    assert_eq!(mem.read_u32(0x4000), 1, "guarded add must not execute");
    // It still consumed an issue slot.
    assert!(s.instr.warp_instrs >= 5);
}

#[test]
fn rz_destination_discards_and_counts_nothing() {
    let mut b = KernelBuilder::new("k");
    b.alu_to(
        gscalar_isa::AluOp::IAdd,
        gscalar_isa::Reg::RZ,
        Operand::Imm(1),
        Operand::Imm(2),
        gscalar_isa::Reg::RZ.into(),
    );
    b.exit();
    let k = b.build().unwrap();
    let s = run(&k, LaunchConfig::linear(1, 32), gscalar());
    // No register write happened.
    assert_eq!(s.rf.writes, 0);
}

#[test]
fn coalesced_load_touches_one_line_scattered_many() {
    let mut b = KernelBuilder::new("k");
    let t = b.s2r(SReg::TidX);
    // Coalesced: consecutive words, one 128-byte line per warp.
    let o1 = b.shl(t.into(), Operand::Imm(2));
    let a1 = b.iadd(o1.into(), Operand::Imm(0x1_0000));
    b.ld_global(a1, 0);
    // Scattered: 128-byte stride → one line per lane.
    let o2 = b.shl(t.into(), Operand::Imm(7));
    let a2 = b.iadd(o2.into(), Operand::Imm(0x2_0000));
    b.ld_global(a2, 0);
    b.exit();
    let k = b.build().unwrap();
    let s = run(&k, LaunchConfig::linear(1, 32), ArchConfig::baseline());
    assert_eq!(s.mem.fully_coalesced, 1);
    // 1 (coalesced) + 32 (scattered) line accesses.
    assert_eq!(s.mem.global_accesses, 33);
}

#[test]
fn dedicated_scalar_rf_serializes_but_bvr_does_not() {
    // Many concurrent warps all reading scalar operands.
    let mut b = KernelBuilder::new("k");
    let c = b.s2r(SReg::CtaIdX);
    let mut x = b.iadd(c.into(), Operand::Imm(1));
    for i in 0..6 {
        let y = b.imul(x.into(), Operand::Imm(3 + i));
        x = b.iadd(y.into(), c.into());
    }
    b.exit();
    let k = b.build().unwrap();
    let mut prior = ArchConfig::baseline();
    prior.name = "alu-scalar".into();
    prior.scalar_alu = true;
    prior.dedicated_scalar_rf = true;
    let p = run(&k, LaunchConfig::linear(4, 128), prior);
    assert!(p.pipe.scalar_bank_serializations > 0);
    let g = run(&k, LaunchConfig::linear(4, 128), gscalar());
    assert_eq!(g.pipe.scalar_bank_serializations, 0);
}

#[test]
fn extra_latency_extends_runtime_on_dependent_chain() {
    let mut b = KernelBuilder::new("k");
    let t = b.s2r(SReg::TidX);
    let mut x = t;
    for _ in 0..16 {
        x = b.iadd(x.into(), Operand::Imm(1)); // serial dependence
    }
    let o = b.shl(t.into(), Operand::Imm(2));
    let addr = b.iadd(o.into(), Operand::Imm(0x5000));
    b.st_global(addr, x, 0);
    b.exit();
    let k = b.build().unwrap();
    // One warp: nothing hides latency.
    let base = run(&k, LaunchConfig::linear(1, 32), ArchConfig::baseline());
    let gs = run(&k, LaunchConfig::linear(1, 32), gscalar());
    assert!(
        gs.cycles >= base.cycles + 3 * 16,
        "each of 16 dependent adds should pay ~3 extra cycles ({} vs {})",
        gs.cycles,
        base.cycles
    );
}

#[test]
fn stall_reclassifies_when_the_load_releases_before_the_alu_producer() {
    // One warp; the consumer reads a shared load (short) and an integer
    // division (long). It stalls as memory-pending while the load is in
    // flight, then as a plain scoreboard stall until the division
    // releases: the cached hazard window's `mem_until < clear_at` case.
    let mut b = KernelBuilder::new("k");
    b.shared_mem(64);
    let base = b.mov(Operand::Imm(0));
    let loaded = b.ld_shared(base, 0);
    let quot = b.idiv(Operand::Imm(1000), Operand::Imm(7));
    b.iadd(loaded.into(), quot.into());
    b.exit();
    let k = b.build().unwrap();
    let consumer_pc = 3;
    for arch in [ArchConfig::baseline(), gscalar()] {
        let extra = arch.extra_latency;
        let mut gpu = Gpu::new(GpuConfig::test_small(), arch);
        let mut mem = GlobalMemory::new();
        let mut buf = EventBuf::new(1 << 16);
        gpu.run_with(
            &k,
            LaunchConfig::linear(1, 32),
            &mut mem,
            &mut Instruments {
                tracer: Tracer::new(&mut buf),
                ..Instruments::default()
            },
        )
        .unwrap();
        let records = buf.records();
        let end_of = |pc: u32| {
            records
                .iter()
                .find_map(|r| match r.ev {
                    TraceEvent::ExecSpan { pc: p, end, .. } if p == pc => Some(end),
                    _ => None,
                })
                .expect("producer executed")
        };
        // Writeback releases a destination `extra` cycles after the
        // producer's pipeline completes.
        let load_release = end_of(1) + extra;
        let div_release = end_of(2) + extra;
        assert!(load_release < div_release, "the load must release first");
        let issued_at = |pc: u32| {
            records
                .iter()
                .find_map(|r| match r.ev {
                    TraceEvent::Issue { pc: p, .. } if p == pc => Some(r.now),
                    _ => None,
                })
                .expect("instruction issued")
        };
        let producers_issued = issued_at(2);
        let stalls: Vec<(u64, StallReason)> = records
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::Stall {
                    warp: Some(0),
                    reason,
                    ..
                } if r.now > producers_issued => Some((r.now, reason)),
                _ => None,
            })
            .collect();
        assert!(stalls.iter().any(|&(_, r)| r == StallReason::MemPending));
        assert!(stalls.contains(&(load_release, StallReason::Scoreboard)));
        for &(now, reason) in &stalls {
            let want = if now < load_release {
                StallReason::MemPending
            } else {
                StallReason::Scoreboard
            };
            assert_eq!(reason, want, "stall at cycle {now} ({stalls:?})");
            assert!(now < div_release, "no stall once both released");
        }
        assert_eq!(issued_at(consumer_pc), div_release);
    }
}

#[test]
fn an_exited_warps_load_does_not_release_the_next_warps_register() {
    // One warp slot: the first CTA's warp exits with a load to R2 still
    // in flight, the second CTA's warp launches into the same slot and
    // loads R2 itself. The first load lands first; it must not release
    // the second warp's pending R2, so the consumer waits for its own
    // producer.
    let k = gscalar_isa::asm::parse_kernel(
        ".kernel stale_writeback regs=4
            S2R R0, SR_CTAID.X
            MOV R1, 0x1000
            ISETP.EQ P0, R0, 0
            @!P0 BRA second
            LD.GLOBAL R2, [R1]
            EXIT
        second:
            IADD R1, R1, 0x4000
            LD.GLOBAL R2, [R1]
            IADD R3, R2, 1
            ST.GLOBAL [R1], R3
            EXIT",
    )
    .unwrap();
    let (first_load, exit, second_load, consumer) = (4, 5, 7, 8);
    for arch in [ArchConfig::baseline(), gscalar()] {
        let extra = arch.extra_latency;
        let mut cfg = GpuConfig::test_small();
        cfg.ctas_per_sm = 1;
        let mut gpu = Gpu::new(cfg, arch);
        let mut mem = GlobalMemory::new();
        mem.write_u32(0x5000, 41);
        let mut buf = EventBuf::new(1 << 16);
        gpu.run_with(
            &k,
            LaunchConfig::linear(2, 32),
            &mut mem,
            &mut Instruments {
                tracer: Tracer::new(&mut buf),
                ..Instruments::default()
            },
        )
        .unwrap();
        assert_eq!(mem.read_u32(0x5000), 42);
        let records = buf.records();
        let issued_at = |pc: u32| {
            records
                .iter()
                .find_map(|r| match r.ev {
                    TraceEvent::Issue { warp: 0, pc: p, .. } if p == pc => Some(r.now),
                    _ => None,
                })
                .expect("instruction issued in slot 0")
        };
        let lands_at = |pc: u32| {
            records
                .iter()
                .find_map(|r| match r.ev {
                    TraceEvent::ExecSpan {
                        warp: 0,
                        pc: p,
                        end,
                        ..
                    } if p == pc => Some(end),
                    _ => None,
                })
                .expect("load executed in slot 0")
        };
        // The scenario: the first warp exits before its load lands, and
        // the load lands while the second warp's load is pending.
        assert!(issued_at(exit) < lands_at(first_load));
        assert!(issued_at(second_load) < lands_at(first_load));
        assert!(lands_at(first_load) < lands_at(second_load));
        assert_eq!(issued_at(consumer), lands_at(second_load) + extra);
    }
}

#[test]
fn fast_dispatch_knob_shortens_sfu_occupancy() {
    // Back-to-back independent SFU ops from several warps: vector SFU
    // dispatch (8 cycles each) bottlenecks; the optional fast-dispatch
    // mode (Section 6's one-cycle opportunity) relieves it.
    let mut b = KernelBuilder::new("k");
    let c = b.s2r(SReg::CtaIdX);
    let f = b.i2f(c.into());
    for _ in 0..4 {
        b.sin(f.into());
        b.cos(f.into());
    }
    b.exit();
    let k = b.build().unwrap();
    let base = run(&k, LaunchConfig::linear(2, 256), ArchConfig::baseline());
    let paper = run(&k, LaunchConfig::linear(2, 256), gscalar());
    // Paper-faithful mode gates lanes but keeps dispatch timing.
    assert!(paper.exec.sfu_lane_ops_saved > 0);
    let mut fast_arch = gscalar();
    fast_arch.scalar_fast_dispatch = true;
    let fast = run(&k, LaunchConfig::linear(2, 256), fast_arch);
    assert!(
        fast.cycles < base.cycles && fast.cycles < paper.cycles,
        "fast dispatch should win ({} vs base {} / paper {})",
        fast.cycles,
        base.cycles,
        paper.cycles
    );
}
