//! SIMT instruction set architecture for the G-Scalar GPU simulator.
//!
//! This crate defines everything the simulator needs to describe a GPU
//! kernel, mirroring (a simplified form of) the NVIDIA Fermi SASS machine
//! ISA that the G-Scalar paper (HPCA 2017) evaluates on:
//!
//! * [`Reg`]/[`Pred`] — 32-bit vector registers and 1-bit predicate
//!   registers, including the hard-wired zero register [`Reg::RZ`] and
//!   true predicate [`Pred::PT`].
//! * [`Instr`] — a guarded SIMT instruction ([`InstrKind`] enumerates
//!   arithmetic, special-function, memory, predicate-set, and control
//!   operations).
//! * [`Kernel`] — a validated linear instruction stream plus resource
//!   requirements, with a [control-flow graph](cfg::Cfg) and
//!   immediate-post-dominator based reconvergence analysis used by the
//!   simulator's SIMT stack.
//! * [`KernelBuilder`] — a structured-control-flow DSL (`if`/`if-else`/
//!   counted and conditional loops) that lowers to predicated branches.
//! * [`asm`] — a round-trippable textual assembly format.
//!
//! # Examples
//!
//! Build a small SAXPY-like kernel with the DSL:
//!
//! ```
//! use gscalar_isa::{KernelBuilder, SReg, Operand};
//!
//! let mut b = KernelBuilder::new("saxpy");
//! let tid = b.s2r(SReg::TidX);
//! let x_base = b.mov(Operand::Imm(0x1000));
//! let off = b.shl(tid.into(), Operand::Imm(2));
//! let addr = b.iadd(x_base.into(), off.into());
//! let x = b.ld_global(addr, 0);
//! let y = b.fmul(x.into(), Operand::Imm(0x4000_0000)); // * 2.0f32
//! b.st_global(addr, y, 0);
//! b.exit();
//! let kernel = b.build().expect("valid kernel");
//! assert_eq!(kernel.name(), "saxpy");
//! ```

pub mod asm;
pub mod builder;
pub mod cfg;
pub mod instr;
pub mod kernel;
pub mod liveness;
pub mod op;
pub mod reg;

pub use builder::KernelBuilder;
pub use cfg::Cfg;
pub use instr::{Guard, Instr, InstrKind, Operand, SrcRegs};
pub use kernel::{Dim3, Kernel, KernelError, LaunchConfig};
pub use liveness::Liveness;
pub use op::{AluOp, CmpOp, FuncUnit, SReg, SfuOp, Space};
pub use reg::{Pred, Reg};
