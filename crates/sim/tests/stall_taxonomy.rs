//! The stall-taxonomy invariant: every idle scheduler-cycle is charged
//! exactly one stall reason, so the breakdown sums to
//! `scheduler_idle_cycles` — across kernels, architectures, and traced
//! vs untraced runs.

use gscalar_isa::{CmpOp, Kernel, KernelBuilder, LaunchConfig, Operand, SReg};
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

fn dedicated_rf() -> ArchConfig {
    let mut a = gscalar();
    a.name = "dedicated-rf-test".into();
    a.dedicated_scalar_rf = true;
    a
}

fn run(kernel: &Kernel, launch: LaunchConfig, arch: ArchConfig) -> Stats {
    let mut gpu = Gpu::new(GpuConfig::test_small(), arch);
    let mut mem = GlobalMemory::new();
    gpu.run(kernel, launch, &mut mem)
}

fn assert_invariant(stats: &Stats, what: &str) {
    assert_eq!(
        stats.pipe.stalls.total(),
        stats.pipe.scheduler_idle_cycles,
        "{what}: stall reasons must sum to idle scheduler-cycles \
         (breakdown: {:?})",
        stats.pipe.stalls
    );
}

/// Memory-latency-bound: dependent loads force mem-pending stalls.
fn memory_bound_kernel() -> Kernel {
    let mut b = KernelBuilder::new("membound");
    let tid = b.s2r(SReg::TidX);
    let off = b.shl(tid.into(), Operand::Imm(2));
    let addr = b.iadd(off.into(), Operand::Imm(0x1_0000));
    let v = b.ld_global(addr, 0);
    let w = b.iadd(v.into(), Operand::Imm(1)); // RAW on the load
    b.st_global(addr, w, 0);
    b.exit();
    b.build().unwrap()
}

/// Divergent control flow plus a barrier.
fn divergent_barrier_kernel() -> Kernel {
    let mut b = KernelBuilder::new("divbar");
    b.shared_mem(256);
    let tid = b.s2r(SReg::TidX);
    let p = b.isetp(CmpOp::Lt, tid.into(), Operand::Imm(8));
    let r = b.mov(Operand::Imm(0));
    b.if_else(
        p.into(),
        |b| {
            let n = b.iadd(tid.into(), Operand::Imm(5));
            b.mov_to(r, n.into());
        },
        |b| {
            b.mov_to(r, tid.into());
        },
    );
    let soff = b.shl(tid.into(), Operand::Imm(2));
    b.st_shared(soff, r, 0);
    b.bar();
    b.ld_shared(soff, 0);
    b.exit();
    b.build().unwrap()
}

/// Long dependency chain: pure scoreboard (data) stalls.
fn chain_kernel() -> Kernel {
    let mut b = KernelBuilder::new("chain");
    let tid = b.s2r(SReg::TidX);
    let mut cur = tid;
    for _ in 0..16 {
        cur = b.imul(cur.into(), Operand::Imm(3));
    }
    b.exit();
    b.build().unwrap()
}

#[test]
fn stall_reasons_sum_to_idle_cycles_across_kernels_and_archs() {
    let kernels = [
        memory_bound_kernel(),
        divergent_barrier_kernel(),
        chain_kernel(),
    ];
    let archs = [ArchConfig::baseline(), gscalar(), dedicated_rf()];
    for kernel in &kernels {
        for arch in &archs {
            for warps in [1u32, 4] {
                let stats = run(kernel, LaunchConfig::linear(warps, 32), arch.clone());
                assert!(stats.pipe.scheduler_idle_cycles > 0);
                assert_invariant(
                    &stats,
                    &format!("{} on {} ({warps} CTAs)", kernel.name(), arch.name),
                );
            }
        }
    }
}

#[test]
fn memory_bound_kernel_charges_mem_pending() {
    let stats = run(
        &memory_bound_kernel(),
        LaunchConfig::linear(1, 32),
        ArchConfig::baseline(),
    );
    assert_invariant(&stats, "membound");
    assert!(
        stats.pipe.stalls.get(StallReason::MemPending) > 0,
        "a load-consumer kernel must report memory-pending stalls: {:?}",
        stats.pipe.stalls
    );
}

#[test]
fn barrier_kernel_charges_barrier_stalls() {
    // Two warps reach the barrier at different times; the early one
    // stalls with the barrier reason.
    let stats = run(
        &divergent_barrier_kernel(),
        LaunchConfig::linear(1, 64),
        ArchConfig::baseline(),
    );
    assert_invariant(&stats, "divbar");
    assert!(
        stats.pipe.stalls.get(StallReason::Barrier) > 0,
        "a two-warp barrier kernel must report barrier stalls: {:?}",
        stats.pipe.stalls
    );
}

#[test]
fn chain_kernel_charges_scoreboard_stalls() {
    let stats = run(
        &chain_kernel(),
        LaunchConfig::linear(1, 32),
        ArchConfig::baseline(),
    );
    assert_invariant(&stats, "chain");
    assert!(
        stats.pipe.stalls.get(StallReason::Scoreboard) > 0,
        "a dependency chain must report scoreboard stalls: {:?}",
        stats.pipe.stalls
    );
}

#[test]
fn traced_run_matches_untraced_and_emits_one_stall_event_per_idle_cycle() {
    let kernel = divergent_barrier_kernel();
    let launch = LaunchConfig::linear(2, 64);

    let untraced = run(&kernel, launch, gscalar());

    let mut gpu = Gpu::new(GpuConfig::test_small(), gscalar());
    let mut mem = GlobalMemory::new();
    let mut buf = EventBuf::new(1 << 20);
    let traced = gpu
        .run_with(
            &kernel,
            launch,
            &mut mem,
            &mut Instruments {
                tracer: Tracer::new(&mut buf),
                ..Instruments::default()
            },
        )
        .unwrap();

    // Tracing must not perturb timing or counters.
    assert_eq!(traced.cycles, untraced.cycles);
    assert_eq!(traced.instr.warp_instrs, untraced.instr.warp_instrs);
    assert_eq!(
        traced.pipe.scheduler_idle_cycles,
        untraced.pipe.scheduler_idle_cycles
    );
    assert_eq!(traced.pipe.stalls, untraced.pipe.stalls);
    assert_eq!(buf.dropped(), 0, "buffer sized to hold everything");

    // The event stream carries the same taxonomy: one Stall event per
    // idle scheduler-cycle, reason by reason.
    let mut from_events = gscalar_trace::StallBreakdown::default();
    for r in buf.records() {
        if let TraceEvent::Stall { reason, .. } = r.ev {
            from_events.add(reason);
        }
    }
    assert_eq!(from_events, traced.pipe.stalls);
    assert_eq!(from_events.total(), traced.pipe.scheduler_idle_cycles);
}
