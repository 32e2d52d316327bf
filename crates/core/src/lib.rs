//! The G-Scalar architecture layer (the paper's primary contribution),
//! tying the simulator, compression hardware, and power model together.
//!
//! * [`Arch`] — the evaluated architecture variants (baseline,
//!   prior-work "ALU scalar", "G-Scalar w/o divergent", full G-Scalar)
//!   as presets over [`gscalar_sim::ArchConfig`].
//! * [`Workload`] — a kernel + launch shape + input memory image.
//! * [`Runner`] — runs workloads per architecture and produces
//!   [`RunReport`]s with statistics and a chip power breakdown.
//!
//! # Examples
//!
//! ```
//! use gscalar_core::{Arch, Runner, Workload};
//! use gscalar_isa::{KernelBuilder, LaunchConfig, Operand, SReg};
//! use gscalar_sim::{memory::GlobalMemory, GpuConfig};
//!
//! // A warp-uniform SFU kernel: prime G-Scalar territory.
//! let mut b = KernelBuilder::new("uniform_sfu");
//! let c = b.s2r(SReg::CtaIdX);
//! let f = b.i2f(c.into());
//! b.ex2(f.into());
//! b.exit();
//! let w = Workload::new(
//!     "uniform_sfu", "US",
//!     b.build().unwrap(),
//!     LaunchConfig::linear(2, 64),
//!     GlobalMemory::new(),
//! );
//!
//! let runner = Runner::new(GpuConfig::test_small());
//! let baseline = runner.run(&w, Arch::Baseline);
//! let gscalar = runner.run(&w, Arch::GScalar);
//! assert!(gscalar.stats.instr.executed_scalar > 0);
//! // Scalar execution gates SFU lanes that the baseline drives.
//! assert!(gscalar.stats.exec.sfu_lane_ops < baseline.stats.exec.sfu_lane_ops);
//! ```

pub mod arch;
pub mod rng;
pub mod runner;

pub use arch::Arch;
pub use gscalar_sim::{BudgetExceeded, Instruments};
pub use runner::{MeteredRun, ProfiledRun, RunReport, Runner, Workload};
