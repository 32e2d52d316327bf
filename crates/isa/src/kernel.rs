//! Kernel container and launch configuration.

use std::fmt;

use crate::cfg::Cfg;
use crate::instr::{Instr, InstrKind};
use crate::liveness::Liveness;
use crate::reg::Reg;

/// A three-dimensional size, used for grid and CTA (thread-block) shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// Extent in x.
    pub x: u32,
    /// Extent in y.
    pub y: u32,
    /// Extent in z.
    pub z: u32,
}

impl Dim3 {
    /// A one-dimensional shape `(x, 1, 1)`.
    #[must_use]
    pub fn x(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A two-dimensional shape `(x, y, 1)`.
    #[must_use]
    pub fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// Total number of elements.
    #[must_use]
    pub fn count(self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// Grid and CTA dimensions for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Number of CTAs in the grid.
    pub grid: Dim3,
    /// Number of threads per CTA.
    pub block: Dim3,
}

impl LaunchConfig {
    /// A one-dimensional launch of `grid_x` CTAs of `block_x` threads.
    #[must_use]
    pub fn linear(grid_x: u32, block_x: u32) -> Self {
        LaunchConfig {
            grid: Dim3::x(grid_x),
            block: Dim3::x(block_x),
        }
    }

    /// Threads per CTA.
    #[must_use]
    pub fn threads_per_cta(&self) -> u32 {
        (self.block.count()).min(u64::from(u32::MAX)) as u32
    }

    /// Total threads in the launch.
    #[must_use]
    pub fn total_threads(&self) -> u64 {
        self.grid.count() * self.block.count()
    }
}

/// Errors produced by [`Kernel::new`] validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// The instruction stream is empty.
    Empty,
    /// A branch at `pc` targets the out-of-range index `target`.
    BranchOutOfRange {
        /// The branch's instruction index.
        pc: usize,
        /// The invalid target.
        target: usize,
    },
    /// Execution can fall off the end of the instruction stream.
    MissingExit,
    /// An instruction uses a register index at or above `num_regs`.
    RegisterOutOfRange {
        /// The instruction index.
        pc: usize,
        /// The offending register.
        reg: Reg,
        /// The kernel's declared register count.
        num_regs: u16,
    },
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Empty => write!(f, "kernel has no instructions"),
            KernelError::BranchOutOfRange { pc, target } => {
                write!(f, "branch at pc {pc} targets out-of-range index {target}")
            }
            KernelError::MissingExit => {
                write!(f, "control flow can fall off the end of the kernel")
            }
            KernelError::RegisterOutOfRange { pc, reg, num_regs } => write!(
                f,
                "instruction at pc {pc} uses {reg} but kernel declares {num_regs} registers"
            ),
        }
    }
}

impl std::error::Error for KernelError {}

/// A validated GPU kernel: a linear stream of [`Instr`]s plus the
/// resources it requires.
///
/// Branch targets are instruction indices into the stream. On
/// construction the kernel is validated (targets in range, stream ends in
/// control flow that cannot fall through, registers within the declared
/// count) and its control-flow graph and reconvergence points are
/// computed; the simulator queries [`Kernel::reconvergence_pc`] when it
/// pushes SIMT-stack entries for a divergent branch.
///
/// # Examples
///
/// ```
/// use gscalar_isa::{Instr, InstrKind, Kernel};
///
/// let k = Kernel::new("noop", vec![Instr::always(InstrKind::Exit)], 8).unwrap();
/// assert_eq!(k.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Kernel {
    name: String,
    instrs: Vec<Instr>,
    num_regs: u16,
    shared_mem_bytes: u32,
    cfg: Cfg,
    reconv: Vec<Option<usize>>,
    liveness: Liveness,
}

impl Kernel {
    /// Creates and validates a kernel.
    ///
    /// `num_regs` is the number of general-purpose registers each thread
    /// requires (drives occupancy in the simulator).
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] if the stream is empty, a branch target
    /// is out of range, execution can fall off the end, or an instruction
    /// names a register at or above `num_regs`.
    pub fn new(
        name: impl Into<String>,
        instrs: Vec<Instr>,
        num_regs: u16,
    ) -> Result<Self, KernelError> {
        Self::with_shared_mem(name, instrs, num_regs, 0)
    }

    /// Creates and validates a kernel that uses CTA shared memory.
    ///
    /// # Errors
    ///
    /// Same as [`Kernel::new`].
    pub fn with_shared_mem(
        name: impl Into<String>,
        instrs: Vec<Instr>,
        num_regs: u16,
        shared_mem_bytes: u32,
    ) -> Result<Self, KernelError> {
        if instrs.is_empty() {
            return Err(KernelError::Empty);
        }
        for (pc, i) in instrs.iter().enumerate() {
            if let InstrKind::Bra { target } = i.kind {
                if target >= instrs.len() {
                    return Err(KernelError::BranchOutOfRange { pc, target });
                }
            }
            let check = |reg: Reg| -> Result<(), KernelError> {
                if !reg.is_zero() && u16::from(reg.index()) >= num_regs {
                    Err(KernelError::RegisterOutOfRange { pc, reg, num_regs })
                } else {
                    Ok(())
                }
            };
            for r in i.src_regs() {
                check(r)?;
            }
            if let Some(d) = i.dst_reg() {
                check(d)?;
            }
        }
        // The last instruction must not fall through: it must be an
        // unconditional exit or branch.
        let last = instrs[instrs.len() - 1];
        let terminates = last.guard.is_always() && (last.is_exit() || last.is_branch());
        if !terminates {
            return Err(KernelError::MissingExit);
        }
        let cfg = Cfg::build(&instrs);
        let reconv = cfg.reconvergence_table(&instrs);
        let liveness = Liveness::analyze(&instrs, &cfg, num_regs);
        Ok(Kernel {
            name: name.into(),
            instrs,
            num_regs,
            shared_mem_bytes,
            cfg,
            reconv,
            liveness,
        })
    }

    /// The kernel's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instruction stream.
    #[must_use]
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// The instruction at `pc`.
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[must_use]
    pub fn instr(&self, pc: usize) -> &Instr {
        &self.instrs[pc]
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the kernel has no instructions (never true for a
    /// successfully constructed kernel).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Registers required per thread.
    #[must_use]
    pub fn num_regs(&self) -> u16 {
        self.num_regs
    }

    /// Shared memory required per CTA, in bytes.
    #[must_use]
    pub fn shared_mem_bytes(&self) -> u32 {
        self.shared_mem_bytes
    }

    /// The control-flow graph.
    #[must_use]
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// Whether `reg`'s pre-existing value may still be read after the
    /// instruction at `pc` executes (register liveness; used by the
    /// compiler-assisted decompress-move elision of Section 3.3).
    ///
    /// # Panics
    ///
    /// Panics if `pc` is out of range.
    #[must_use]
    pub fn value_live_after(&self, pc: usize, reg: Reg) -> bool {
        self.liveness.live_out(pc, reg)
    }

    /// The reconvergence PC for the branch at `pc`, i.e. the first
    /// instruction of the branch block's immediate post-dominator.
    ///
    /// Returns `None` if `pc` is not a branch or the branch never
    /// reconverges before thread exit (the SIMT stack then reconverges at
    /// exit).
    #[must_use]
    pub fn reconvergence_pc(&self, pc: usize) -> Option<usize> {
        self.reconv.get(pc).copied().flatten()
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".kernel {} regs={}", self.name, self.num_regs)?;
        for (pc, i) in self.instrs.iter().enumerate() {
            writeln!(f, "{pc:4}: {i}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Guard, Operand};
    use crate::op::AluOp;
    use crate::reg::Pred;

    fn exit() -> Instr {
        Instr::always(InstrKind::Exit)
    }

    #[test]
    fn empty_kernel_rejected() {
        assert_eq!(Kernel::new("k", vec![], 4).unwrap_err(), KernelError::Empty);
    }

    #[test]
    fn branch_target_validated() {
        let bad = vec![Instr::always(InstrKind::Bra { target: 5 }), exit()];
        assert_eq!(
            Kernel::new("k", bad, 4).unwrap_err(),
            KernelError::BranchOutOfRange { pc: 0, target: 5 }
        );
    }

    #[test]
    fn fallthrough_end_rejected() {
        let bad = vec![Instr::always(InstrKind::Nop)];
        assert_eq!(
            Kernel::new("k", bad, 4).unwrap_err(),
            KernelError::MissingExit
        );
        // A guarded branch as the last instruction can fall through.
        let bad2 = vec![Instr::new(
            Guard::pos(Pred::new(0)),
            InstrKind::Bra { target: 0 },
        )];
        assert_eq!(
            Kernel::new("k", bad2, 4).unwrap_err(),
            KernelError::MissingExit
        );
        // So can the lanes a guarded EXIT spares.
        let bad3 = vec![Instr::new(Guard::pos(Pred::new(0)), InstrKind::Exit)];
        assert_eq!(
            Kernel::new("k", bad3, 4).unwrap_err(),
            KernelError::MissingExit
        );
        // An unconditional backward branch is a valid terminator.
        let ok = vec![exit(), Instr::always(InstrKind::Bra { target: 0 })];
        assert!(Kernel::new("k", ok, 4).is_ok());
    }

    #[test]
    fn register_bounds_validated() {
        let bad = vec![
            Instr::always(InstrKind::Alu {
                op: AluOp::IAdd,
                dst: Reg::new(9),
                a: Operand::Imm(0),
                b: Operand::Imm(0),
                c: Reg::RZ.into(),
            }),
            exit(),
        ];
        assert!(matches!(
            Kernel::new("k", bad, 4).unwrap_err(),
            KernelError::RegisterOutOfRange { pc: 0, .. }
        ));
        // RZ never counts against the register budget.
        let ok = vec![
            Instr::always(InstrKind::Mov {
                dst: Reg::RZ,
                src: Operand::Imm(1),
            }),
            exit(),
        ];
        assert!(Kernel::new("k", ok, 0).is_ok());
    }

    #[test]
    fn display_lists_instructions() {
        let k = Kernel::new("demo", vec![exit()], 2).unwrap();
        let s = k.to_string();
        assert!(s.contains(".kernel demo"));
        assert!(s.contains("EXIT"));
    }

    #[test]
    fn launch_config_counts() {
        let lc = LaunchConfig::linear(10, 256);
        assert_eq!(lc.threads_per_cta(), 256);
        assert_eq!(lc.total_threads(), 2560);
        assert_eq!(Dim3::xy(3, 4).count(), 12);
    }
}
