//! Per-warp architectural state: lane registers, predicates, the SIMT
//! stack, and thread identity.

use gscalar_isa::{Dim3, Pred, SReg};

use crate::simt::SimtStack;

/// Architectural state of one warp plus its thread identity within the
/// grid.
#[derive(Debug, Clone)]
pub struct Warp {
    /// Warp index within the SM.
    pub id: usize,
    /// Resident CTA slot this warp belongs to.
    pub cta_slot: usize,
    /// SIMT reconvergence stack (owns the PC and active mask).
    pub simt: SimtStack,
    /// Lane mask of threads that exist (partial last warp of a CTA).
    pub thread_mask: u64,
    /// Lanes per register.
    warp_size: usize,
    /// Every register's lane values in one allocation: register `r`'s
    /// lanes are `regs[r * warp_size..][..warp_size]`.
    regs: Vec<u32>,
    /// Per-predicate lane bitmasks.
    preds: [u64; Pred::COUNT],
    /// Waiting at a CTA barrier.
    pub at_barrier: bool,
    /// Linear thread id of lane 0 within the CTA.
    pub tid_base: u32,
    /// CTA coordinates within the grid.
    pub cta: Dim3,
    /// CTA dimensions.
    pub block_dim: Dim3,
    /// Grid dimensions (in CTAs).
    pub grid_dim: Dim3,
}

impl Warp {
    /// Creates a warp with `warp_size` lanes, `threads` of which exist,
    /// starting at pc 0.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or exceeds `warp_size`, or if
    /// `num_regs` is 0 for a kernel that uses registers (callers pass
    /// the kernel's declared register count).
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        cta_slot: usize,
        warp_size: usize,
        threads: usize,
        num_regs: usize,
        tid_base: u32,
        cta: Dim3,
        block_dim: Dim3,
        grid_dim: Dim3,
    ) -> Self {
        assert!(threads > 0 && threads <= warp_size);
        let mask = crate::full_mask(threads);
        Warp {
            id,
            cta_slot,
            simt: SimtStack::new(0, mask),
            thread_mask: mask,
            warp_size,
            regs: vec![0u32; warp_size * num_regs.max(1)],
            preds: [0; Pred::COUNT],
            at_barrier: false,
            tid_base,
            cta,
            block_dim,
            grid_dim,
        }
    }

    /// The warp is finished.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.simt.is_done()
    }

    /// The instruction's active mask (alive and on current path).
    #[must_use]
    pub fn active(&self) -> u64 {
        self.simt.active()
    }

    /// Reads a register's lane values.
    ///
    /// # Panics
    ///
    /// Panics if `reg` is out of range (255 = RZ must be handled by the
    /// caller).
    #[must_use]
    pub fn reg(&self, reg: u8) -> &[u32] {
        &self.regs[usize::from(reg) * self.warp_size..][..self.warp_size]
    }

    /// Writes `values` into `reg` for lanes in `mask`.
    pub fn write_reg(&mut self, reg: u8, values: &[u32], mask: u64) {
        let dst = &mut self.regs[usize::from(reg) * self.warp_size..][..self.warp_size];
        let full = crate::full_mask(dst.len());
        if values.len() == dst.len() && mask & full == full {
            dst.copy_from_slice(values);
            return;
        }
        for (lane, (d, &v)) in dst.iter_mut().zip(values).enumerate() {
            if mask & (1 << lane) != 0 {
                *d = v;
            }
        }
    }

    /// Lanes per register.
    #[must_use]
    pub fn warp_size(&self) -> usize {
        self.warp_size
    }

    /// Reads a predicate's lane bitmask.
    #[must_use]
    pub fn pred(&self, p: Pred) -> u64 {
        if p.is_true() {
            u64::MAX
        } else {
            self.preds[p.index() as usize]
        }
    }

    /// Writes a predicate for lanes in `mask`.
    pub fn write_pred(&mut self, p: Pred, value: u64, mask: u64) {
        if p.is_true() {
            return; // PT is read-only
        }
        let slot = &mut self.preds[p.index() as usize];
        *slot = (*slot & !mask) | (value & mask);
    }

    /// The value a lane reads from a special register.
    #[must_use]
    pub fn sreg_value(&self, sreg: SReg, lane: usize, warp_size: usize) -> u32 {
        let linear_tid = self.tid_base + lane as u32;
        let tid_x = linear_tid % self.block_dim.x;
        let tid_y = (linear_tid / self.block_dim.x) % self.block_dim.y;
        match sreg {
            SReg::TidX => tid_x,
            SReg::TidY => tid_y,
            SReg::CtaIdX => self.cta.x,
            SReg::CtaIdY => self.cta.y,
            SReg::NTidX => self.block_dim.x,
            SReg::NTidY => self.block_dim.y,
            SReg::NCtaIdX => self.grid_dim.x,
            SReg::LaneId => lane as u32,
            SReg::WarpId => self.tid_base / warp_size as u32,
        }
    }

    /// Whether a special register is warp-uniform (same value in every
    /// lane) — such `S2R` reads produce scalar registers.
    #[must_use]
    pub fn sreg_uniform(sreg: SReg) -> bool {
        matches!(
            sreg,
            SReg::CtaIdX | SReg::CtaIdY | SReg::NTidX | SReg::NTidY | SReg::NCtaIdX | SReg::WarpId
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warp() -> Warp {
        Warp::new(
            0,
            0,
            32,
            32,
            8,
            64, // lane 0 is linear tid 64 → warp 2 of the CTA
            Dim3::xy(3, 2),
            Dim3::x(128),
            Dim3::x(10),
        )
    }

    #[test]
    fn masked_register_write() {
        let mut w = warp();
        let ones = vec![1u32; 32];
        w.write_reg(2, &ones, 0xF);
        assert_eq!(w.reg(2)[0], 1);
        assert_eq!(w.reg(2)[3], 1);
        assert_eq!(w.reg(2)[4], 0);
    }

    #[test]
    fn registers_are_disjoint_lane_ranges() {
        let mut w = warp();
        let lanes: Vec<u32> = (0..32).collect();
        w.write_reg(3, &lanes, u64::MAX);
        assert_eq!(w.reg(3), &lanes[..]);
        assert!(w.reg(2).iter().chain(w.reg(4)).all(|&v| v == 0));
        w.write_reg(7, &lanes, 1 << 31);
        assert_eq!(w.reg(7)[31], 31);
        assert_eq!(w.reg(7)[..31], [0; 31]);
    }

    #[test]
    fn predicate_pt_is_constant() {
        let mut w = warp();
        assert_eq!(w.pred(Pred::PT), u64::MAX);
        w.write_pred(Pred::PT, 0, u64::MAX);
        assert_eq!(w.pred(Pred::PT), u64::MAX);
    }

    #[test]
    fn predicate_masked_update() {
        let mut w = warp();
        let p = Pred::new(1);
        w.write_pred(p, 0b1010, 0b1111);
        assert_eq!(w.pred(p), 0b1010);
        // Update only lane 0: other lanes unchanged.
        w.write_pred(p, 0b0001, 0b0001);
        assert_eq!(w.pred(p), 0b1011);
    }

    #[test]
    fn special_registers() {
        let w = warp();
        assert_eq!(w.sreg_value(SReg::TidX, 0, 32), 64);
        assert_eq!(w.sreg_value(SReg::TidX, 5, 32), 69);
        assert_eq!(w.sreg_value(SReg::CtaIdX, 3, 32), 3);
        assert_eq!(w.sreg_value(SReg::CtaIdY, 3, 32), 2);
        assert_eq!(w.sreg_value(SReg::NTidX, 0, 32), 128);
        assert_eq!(w.sreg_value(SReg::LaneId, 7, 32), 7);
        assert_eq!(w.sreg_value(SReg::WarpId, 0, 32), 2);
        assert!(Warp::sreg_uniform(SReg::CtaIdX));
        assert!(!Warp::sreg_uniform(SReg::TidX));
        assert!(!Warp::sreg_uniform(SReg::LaneId));
    }

    #[test]
    fn partial_warp_mask() {
        let w = Warp::new(0, 0, 32, 20, 4, 0, Dim3::x(0), Dim3::x(20), Dim3::x(1));
        assert_eq!(w.thread_mask, (1 << 20) - 1);
        assert_eq!(w.active(), (1 << 20) - 1);
    }

    #[test]
    fn two_dimensional_tid() {
        let w = Warp::new(0, 0, 32, 32, 4, 0, Dim3::x(0), Dim3::xy(8, 8), Dim3::x(1));
        // lane 10 → tid (2, 1)
        assert_eq!(w.sreg_value(SReg::TidX, 10, 32), 2);
        assert_eq!(w.sreg_value(SReg::TidY, 10, 32), 1);
    }
}
