//! Differential correctness: the cycle-level SIMT simulator must leave
//! exactly the same memory contents as a per-thread reference
//! interpreter — for every benchmark in the suite, for generated
//! kernels and for the regression kernels in `examples/kernels/`, and
//! under every architecture variant (scalar execution and compression
//! are microarchitectural and must never change architectural state).

mod common;

use common::{
    build_kernel, gscalar_arch_full, initial_memory, matches_reference, multi_sm_config, program,
};
use gscalar::core::{Arch, Runner};
use gscalar::isa::{asm, LaunchConfig};
use gscalar::sim::memory::GlobalMemory;
use gscalar::sim::{ArchConfig, Gpu, GpuConfig, Stats};
use gscalar::workloads::{suite, Scale};
use proptest::prelude::*;
use proptest::rng::TestRng;

#[test]
fn every_benchmark_matches_the_reference_interpreter() {
    let cfg = GpuConfig::test_small();
    for w in suite(Scale::Test) {
        let verdict = matches_reference(
            &w.kernel,
            w.launch,
            &w.memory,
            &cfg,
            &ArchConfig::baseline(),
        );
        assert!(verdict.is_ok(), "{}: {}", w.abbr, verdict.unwrap_err());
    }
}

#[test]
fn architecture_variants_never_change_results() {
    // Scalar execution, compression, and the +3-cycle latency are
    // performance/power features; architectural results must be
    // identical across all four evaluated designs.
    let simulated_memory = |w: &gscalar::core::Workload, arch: Arch| {
        let mut mem = w.memory.clone();
        Gpu::new(GpuConfig::test_small(), arch.config()).run(&w.kernel, w.launch, &mut mem);
        mem
    };
    for w in suite(Scale::Test) {
        let baseline = simulated_memory(&w, Arch::Baseline);
        for arch in [Arch::AluScalar, Arch::GScalarNoDivergent, Arch::GScalar] {
            let got = simulated_memory(&w, arch);
            assert!(
                got.content_eq(&baseline),
                "{}: {} changed architectural results at {:?}",
                w.abbr,
                arch,
                got.first_difference(&baseline)
            );
        }
    }
}

#[test]
fn simulation_is_deterministic() {
    let runner = Runner::new(GpuConfig::test_small());
    for w in suite(Scale::Test).into_iter().take(4) {
        let a = runner.run(&w, Arch::GScalar);
        let b = runner.run(&w, Arch::GScalar);
        assert_eq!(a.stats, b.stats, "{} is nondeterministic", w.abbr);
    }
}

#[test]
fn warp64_configuration_still_matches_reference() {
    let mut cfg = GpuConfig::test_small();
    cfg.warp_size = 64;
    for w in suite(Scale::Test) {
        let verdict = matches_reference(
            &w.kernel,
            w.launch,
            &w.memory,
            &cfg,
            &ArchConfig::baseline(),
        );
        assert!(
            verdict.is_ok(),
            "{}: warp-64: {}",
            w.abbr,
            verdict.unwrap_err()
        );
    }
}

#[test]
fn regression_kernels_match_the_reference_on_every_arch() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/kernels");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "asm"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no kernels in {}", dir.display());
    // `examples/run_asm.rs`'s default launch and input memory.
    let (grid, block) = (4, 128);
    let mut init = GlobalMemory::new();
    init.write_f32(0x100, 2.0);
    for i in 0..grid * block {
        init.write_f32(0x1_0000 + u64::from(i) * 4, i as f32);
        init.write_f32(0x2_0000 + u64::from(i) * 4, 1.0);
    }
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let kernel = asm::parse_kernel(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for arch in Arch::ALL {
            let launch = LaunchConfig::linear(grid, block);
            let verdict =
                matches_reference(&kernel, launch, &init, &GpuConfig::gtx480(), &arch.config());
            assert!(
                verdict.is_ok(),
                "{}: {}",
                path.display(),
                verdict.unwrap_err()
            );
        }
    }
}

#[test]
fn the_generator_reaches_divergent_scalar_sfu_and_memory_paths() {
    let mut rng = TestRng::seed(1);
    let launch = LaunchConfig::linear(2, 64);
    let mut sum = Stats::default();
    for _ in 0..16 {
        let kernel = build_kernel(&program().generate(&mut rng));
        let mut mem = initial_memory(128);
        let stats = Gpu::new(GpuConfig::test_small(), Arch::GScalar.config())
            .run(&kernel, launch, &mut mem);
        sum.merge(&stats);
    }
    for (what, n) in [
        ("divergent instructions", sum.instr.divergent_instrs),
        ("scalar executions", sum.instr.executed_scalar),
        ("scalar-eligible SFU ops", sum.instr.eligible_sfu),
        ("scalar-eligible memory ops", sum.instr.eligible_mem),
        ("global accesses", sum.mem.global_accesses),
    ] {
        assert!(n > 0, "the generated batch issued no {what}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_kernels_match_the_reference_on_every_arch(
        prog in program(),
        ctas in 1u32..7,
        warps in 1u32..3,
    ) {
        let kernel = build_kernel(&prog);
        let launch = LaunchConfig::linear(ctas, warps * 32);
        let init = initial_memory(ctas * warps * 32);
        let archs = Arch::ALL.map(Arch::config).into_iter().chain([gscalar_arch_full()]);
        for arch in archs {
            for cfg in [GpuConfig::test_small(), multi_sm_config()] {
                let verdict = matches_reference(&kernel, launch, &init, &cfg, &arch);
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn structured_programs_have_reconvergent_branches(prog in program()) {
        // The only unguarded EXIT is the last instruction, so every
        // conditional branch reconverges inside the kernel, at a PC
        // other than its own.
        let kernel = build_kernel(&prog);
        for (pc, i) in kernel.instrs().iter().enumerate() {
            if i.is_branch() && !i.guard.is_always() {
                let r = kernel.reconvergence_pc(pc);
                prop_assert!(
                    r.is_some_and(|r| r != pc && r < kernel.len()),
                    "branch at {} reconverges at {:?} in:\n{}",
                    pc,
                    r,
                    kernel
                );
            }
        }
    }
}
