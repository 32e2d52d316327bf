//! A cycle-level SIMT GPU simulator (Fermi/GTX 480-class) built for the
//! G-Scalar (HPCA 2017) reproduction.
//!
//! The simulator is *functional-first*: every instruction computes real
//! 32-bit lane values, so the byte-wise register compression and scalar
//! detection hardware (from [`gscalar_compress`]) observe genuine
//! register contents. Timing is modeled per SM cycle:
//!
//! * two GTO [schedulers](scheduler) issuing up to one instruction each,
//! * a per-register [scoreboard] (RAW/WAW) read through a kernel
//!   [decoded](decode) once per run,
//! * a [SIMT reconvergence stack](simt) driven by the kernel's
//!   post-dominator analysis,
//! * 16 [operand collectors](regfile) arbitrating over 16 single-ported
//!   register banks — with the per-bank BVR ports of the G-Scalar design
//!   and the single scalar-RF port of the prior-work design,
//! * two 16-lane ALU [pipelines](pipeline), a 4-lane SFU pipeline and a
//!   16-lane LSU,
//! * a [memory hierarchy](memsys) of per-SM L1s, a partitioned L2, and
//!   bandwidth-limited DRAM channels.
//!
//! Architecture variants (baseline, prior-work "ALU scalar", G-Scalar)
//! are expressed as [`ArchConfig`] flags; presets live in
//! `gscalar-core`.
//!
//! # Examples
//!
//! ```
//! use gscalar_isa::{KernelBuilder, LaunchConfig, Operand, SReg};
//! use gscalar_sim::{Gpu, GpuConfig, ArchConfig, memory::GlobalMemory};
//!
//! let mut b = KernelBuilder::new("inc");
//! let tid = b.s2r(SReg::TidX);
//! let off = b.shl(tid.into(), Operand::Imm(2));
//! let addr = b.iadd(off.into(), Operand::Imm(0x1000));
//! let v = b.ld_global(addr, 0);
//! let v2 = b.iadd(v.into(), Operand::Imm(1));
//! b.st_global(addr, v2, 0);
//! b.exit();
//! let kernel = b.build().unwrap();
//!
//! let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
//! let mut mem = GlobalMemory::new();
//! mem.write_u32(0x1000, 41);
//! let stats = gpu.run(&kernel, LaunchConfig::linear(1, 32), &mut mem);
//! assert_eq!(mem.read_u32(0x1000), 42);
//! assert!(stats.ipc() > 0.0);
//! ```

pub mod cache;
pub mod config;
pub mod decode;
pub mod exec;
pub mod gpu;
pub mod live;
pub mod memory;
pub mod memsys;
pub mod metrics;
pub mod pipeline;
pub mod reference;
pub mod regfile;
pub mod scheduler;
pub mod scoreboard;
pub mod simt;
pub mod sm;
pub mod stats;
pub mod warp;

pub use config::{ArchConfig, ConfigError, GpuConfig, IdealConfig, Latencies};
pub use gpu::{BudgetExceeded, Gpu, Instruments, RunObserver};
pub use live::LiveObserver;
pub use metrics::MetricsObserver;
pub use stats::{ScalarClass, SchedStats, Stats};

/// Re-export of the per-PC profiling handle (see [`gscalar_profile`]).
pub use gscalar_profile::{KernelProfile, Profiler};

/// Re-export of [`gscalar_compress::full_mask`] for convenience.
pub use gscalar_compress::full_mask;

/// Iterates the set bits of `mask`, lowest first: the lanes of a lane
/// mask, or the slots of a slot mask, in index order.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}
