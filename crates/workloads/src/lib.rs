//! The 17 synthetic benchmarks of the G-Scalar evaluation (Table 2).
//!
//! The paper evaluates on Parboil and Rodinia CUDA binaries, which
//! cannot be executed here; each workload in this crate is a kernel
//! written in the [`gscalar_isa`] builder DSL that reproduces the
//! *value structure* of the corresponding benchmark's dominant kernel —
//! warp-uniform parameters, byte-level value similarity, divergence
//! patterns, SFU usage and memory intensity — since those are precisely
//! the properties G-Scalar exploits. Input data comes from seeded
//! deterministic [generators](gen).
//!
//! # Examples
//!
//! ```
//! use gscalar_workloads::{suite, Scale};
//!
//! let all = suite(Scale::Test);
//! assert_eq!(all.len(), 17);
//! assert!(all.iter().any(|w| w.abbr == "BP"));
//! ```

pub mod gen;
pub mod parboil;
pub mod rodinia;
pub mod util;

pub use util::Scale;

use gscalar_core::Workload;
use gscalar_isa::{CmpOp, KernelBuilder, LaunchConfig, Operand, SReg};
use gscalar_sim::memory::GlobalMemory;

/// Generates one benchmark at a given scale.
type Builder = fn(Scale) -> Workload;

/// Every benchmark's Table 2 abbreviation and builder, in Table 2
/// order (Rodinia, then Parboil).
const TABLE: [(&str, Builder); 17] = [
    ("BT", rodinia::btree),
    ("BP", rodinia::backprop),
    ("HW", rodinia::heartwall),
    ("HS", rodinia::hotspot),
    ("LC", rodinia::leukocyte),
    ("PF", rodinia::pathfinder),
    ("SR1", rodinia::srad_1),
    ("SR2", rodinia::srad_2),
    ("CC", parboil::cutcp),
    ("LBM", parboil::lbm),
    ("MG", parboil::mri_grid),
    ("MQ", parboil::mri_q),
    ("SAD", parboil::sad),
    ("MM", parboil::sgemm),
    ("MV", parboil::spmv),
    ("ST", parboil::stencil),
    ("ACF", parboil::tpacf),
];

/// Benchmark abbreviations in Table 2 order, read off the builder
/// table.
pub const ABBRS: [&str; 17] = {
    let mut abbrs = [""; 17];
    let mut i = 0;
    while i < abbrs.len() {
        abbrs[i] = TABLE[i].0;
        i += 1;
    }
    abbrs
};

/// Builds the full benchmark suite in Table 2 order.
#[must_use]
pub fn suite(scale: Scale) -> Vec<Workload> {
    TABLE.iter().map(|(_, build)| build(scale)).collect()
}

/// Builds one benchmark by its Table 2 abbreviation (only that one).
#[must_use]
pub fn by_abbr(abbr: &str, scale: Scale) -> Option<Workload> {
    let (_, build) = TABLE.iter().find(|(a, _)| *a == abbr)?;
    Some(build(scale))
}

/// The divergent example kernel (paper Figure 7b), abbreviation `DIV`:
/// a branch on `tid < 8` whose taken path runs a scalar chain on a
/// warp-uniform value and whose other path does per-lane math, then a
/// store. Small and fixed-shape, it is the shared probe kernel of the
/// `trace` and `profile` tools and the profiler golden tests.
#[must_use]
pub fn divergent_example() -> Workload {
    let mut b = KernelBuilder::new("divergent");
    let tid = b.s2r(SReg::TidX);
    let omega = b.mov(Operand::imm_f32(1.85)); // uniform parameter
    let acc = b.mov_f32(0.0);
    let p = b.isetp(CmpOp::Lt, tid.into(), Operand::Imm(8));
    b.if_else(
        p.into(),
        |b| {
            // Path A: chain on the uniform omega → divergent-scalar.
            let c1 = b.fmul(omega.into(), Operand::imm_f32(0.5));
            let c2 = b.fadd(c1.into(), Operand::imm_f32(0.1));
            let c3 = b.fmul(c2.into(), c1.into());
            b.fadd_to(acc, acc.into(), c3.into());
        },
        |b| {
            // Path B: per-lane math → vector execution.
            let t = b.i2f(tid.into());
            let u = b.fmul(t.into(), Operand::imm_f32(0.25));
            b.fadd_to(acc, acc.into(), u.into());
        },
    );
    let off = b.shl(tid.into(), Operand::Imm(2));
    let addr = b.iadd(off.into(), Operand::Imm(0x1_0000));
    b.st_global(addr, acc, 0);
    b.exit();
    Workload::new(
        "divergent",
        "DIV",
        b.build().expect("kernel is valid"),
        LaunchConfig::linear(4, 64),
        GlobalMemory::new(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_table2() {
        let all = suite(Scale::Test);
        assert_eq!(all.len(), 17);
        let abbrs: Vec<&str> = all.iter().map(|w| w.abbr.as_str()).collect();
        assert_eq!(abbrs, ABBRS.to_vec());
        // Abbreviations are unique.
        let mut sorted = abbrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 17);
    }

    #[test]
    fn by_abbr_finds_and_misses() {
        for abbr in ABBRS {
            assert_eq!(
                by_abbr(abbr, Scale::Test).map(|w| w.abbr),
                Some(abbr.into())
            );
        }
        assert!(by_abbr("XXX", Scale::Test).is_none());
    }

    #[test]
    fn divergent_example_actually_diverges() {
        use gscalar_core::{Arch, Runner};
        use gscalar_sim::GpuConfig;
        let w = divergent_example();
        assert_eq!(w.abbr, "DIV");
        let report = Runner::new(GpuConfig::test_small()).run(&w, Arch::GScalar);
        assert!(report.stats.instr.divergent_instrs > 0);
        assert!(report.stats.instr.executed_scalar > 0);
    }

    #[test]
    fn kernels_fit_register_and_occupancy_budget() {
        for w in suite(Scale::Test) {
            // 56 registers still leaves ≥18 resident warps per SM
            // (1024 vector registers / SM); the real LBM kernel is the
            // suite's register hog too.
            assert!(
                w.kernel.num_regs() <= 56,
                "{} uses {} registers",
                w.abbr,
                w.kernel.num_regs()
            );
        }
    }
}
