//! Operand collectors and register-file bank arbitration.
//!
//! The baseline register file (Section 2.1) has 16 single-ported banks
//! feeding 16 operand collectors through a crossbar. Each cycle a bank
//! can serve one access; collectors gather their operands over possibly
//! several cycles and release the instruction once complete.
//!
//! Three port classes are modeled, which is where the architectures
//! differ (Section 4.1):
//!
//! * **data ports** — one per bank, serving vector reads (and reserved
//!   by writebacks);
//! * **BVR ports** — one per bank, serving scalar operands in the
//!   compression-based G-Scalar design (so scalars effectively see 16
//!   banks);
//! * **the scalar-RF port** — a single port shared by *all* scalar
//!   operands in the prior-work dedicated-scalar-register-file design,
//!   the serialization bottleneck the paper calls out.

/// Which physical port a pending operand read needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortKind {
    /// A vector-register data read from a bank's SRAM arrays.
    Data,
    /// A scalar read served by the per-bank BVR/EBR array.
    Bvr,
    /// A scalar read served by the single dedicated scalar RF.
    ScalarRf,
}

/// One pending operand read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadReq {
    /// Home bank of the register.
    pub bank: usize,
    /// Port class this read consumes.
    pub port: PortKind,
    /// Completed.
    pub done: bool,
}

impl ReadReq {
    /// A data-port read from `bank`.
    #[must_use]
    pub fn data(bank: usize) -> Self {
        ReadReq {
            bank,
            port: PortKind::Data,
            done: false,
        }
    }

    /// A BVR read from `bank`.
    #[must_use]
    pub fn bvr(bank: usize) -> Self {
        ReadReq {
            bank,
            port: PortKind::Bvr,
            done: false,
        }
    }

    /// A dedicated-scalar-RF read.
    #[must_use]
    pub fn scalar_rf() -> Self {
        ReadReq {
            bank: 0,
            port: PortKind::ScalarRf,
            done: false,
        }
    }
}

/// Maximum operand reads one instruction can carry: three source
/// registers is the ISA's widest shape (`IMad d, a, b, c`).
pub const MAX_READS: usize = 3;

/// A fixed-capacity, inline set of operand reads. One is built per
/// issued instruction on the per-cycle hot path, so it must not heap
/// allocate the way a `Vec<ReadReq>` would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadSet {
    reqs: [ReadReq; MAX_READS],
    len: u8,
}

impl Default for ReadSet {
    fn default() -> Self {
        ReadSet {
            reqs: [ReadReq::data(0); MAX_READS],
            len: 0,
        }
    }
}

impl ReadSet {
    /// An empty read set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of reads in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether the set holds no reads.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a read.
    ///
    /// # Panics
    ///
    /// Panics if the set already holds [`MAX_READS`] reads.
    pub fn push(&mut self, r: ReadReq) {
        assert!(
            self.len() < MAX_READS,
            "instruction carries more than {MAX_READS} operand reads"
        );
        self.reqs[self.len()] = r;
        self.len += 1;
    }

    /// Iterates over the reads.
    pub fn iter(&self) -> std::slice::Iter<'_, ReadReq> {
        self.reqs[..usize::from(self.len)].iter()
    }

    /// Iterates mutably (arbitration marks reads done in place).
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, ReadReq> {
        let len = usize::from(self.len);
        self.reqs[..len].iter_mut()
    }

    /// Whether every read has been granted.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.iter().all(|r| r.done)
    }
}

impl<const N: usize> From<[ReadReq; N]> for ReadSet {
    fn from(reqs: [ReadReq; N]) -> Self {
        let mut s = ReadSet::new();
        for r in reqs {
            s.push(r);
        }
        s
    }
}

/// An operand-collector entry: the payload plus its outstanding reads.
#[derive(Debug, Clone)]
pub struct OcEntry<T> {
    /// Caller context (the in-flight instruction).
    pub payload: T,
    /// Outstanding and completed operand reads.
    pub reads: ReadSet,
}

/// Per-cycle arbitration results.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArbResult {
    /// Reads granted this cycle.
    pub grants: u64,
    /// Reads that wanted a busy bank data port.
    pub data_conflicts: u64,
    /// Scalar-RF reads deferred because the single port was taken.
    pub scalar_serializations: u64,
    /// BVR reads deferred because the bank's BVR port was taken.
    pub bvr_conflicts: u64,
}

impl ArbResult {
    /// Whether any read lost arbitration this cycle (used by stall
    /// accounting to refine collector-full stalls into bank-conflict
    /// stalls).
    #[must_use]
    pub fn any_conflict(&self) -> bool {
        self.data_conflicts + self.scalar_serializations + self.bvr_conflicts > 0
    }
}

/// The operand-collector array with bank arbitration.
///
/// # Examples
///
/// ```
/// use gscalar_sim::regfile::{OperandCollectors, OcEntry, ReadReq};
///
/// let mut oc: OperandCollectors<&str> = OperandCollectors::new(4, 16);
/// oc.insert(OcEntry { payload: "i0", reads: [ReadReq::data(0), ReadReq::data(0)].into() });
/// // Two reads of bank 0 need two cycles.
/// oc.arbitrate(&[]);
/// assert!(oc.take_ready().is_empty());
/// oc.arbitrate(&[]);
/// assert_eq!(oc.take_ready().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct OperandCollectors<T> {
    slots: Vec<Option<OcEntry<T>>>,
    /// Number of `Some` slots, kept so the per-cycle occupancy queries
    /// and an empty cycle's arbitration are O(1).
    occupied: usize,
    banks: usize,
    rr: usize,
    /// Per-bank data-port busy flags, reset (not reallocated) each
    /// arbitration cycle.
    data_busy: Vec<bool>,
    /// Per-bank BVR-port busy flags, same lifecycle as `data_busy`.
    bvr_busy: Vec<bool>,
}

impl<T> OperandCollectors<T> {
    /// Creates `slots` collectors over `banks` register banks.
    #[must_use]
    pub fn new(slots: usize, banks: usize) -> Self {
        OperandCollectors {
            slots: (0..slots).map(|_| None).collect(),
            occupied: 0,
            banks,
            rr: 0,
            data_busy: vec![false; banks],
            bvr_busy: vec![false; banks],
        }
    }

    /// Number of free collector slots.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.slots.len() - self.occupied
    }

    /// Number of occupied collector slots.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupied
    }

    /// Inserts an entry into a free slot.
    ///
    /// # Panics
    ///
    /// Panics if no slot is free — callers must check
    /// [`OperandCollectors::free_slots`] first.
    pub fn insert(&mut self, entry: OcEntry<T>) {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| s.is_none())
            .expect("no free operand collector");
        *slot = Some(entry);
        self.occupied += 1;
    }

    /// Runs one cycle of bank arbitration. `write_banks` lists banks
    /// whose data port is consumed by a writeback this cycle (writes
    /// have priority on the single-ported SRAMs).
    pub fn arbitrate(&mut self, write_banks: &[usize]) -> ArbResult {
        let mut res = ArbResult::default();
        let n = self.slots.len();
        if self.occupied == 0 {
            // Nothing to grant, but the rotation still advances: later
            // arbitration order depends on it.
            self.rr = (self.rr + 1) % n.max(1);
            return res;
        }
        self.data_busy.fill(false);
        for &b in write_banks {
            if b < self.banks {
                self.data_busy[b] = true;
            }
        }
        self.bvr_busy.fill(false);
        let mut scalar_rf_busy = false;
        // Round-robin over collectors for fairness.
        for i in 0..n {
            let idx = (self.rr + i) % n;
            let Some(entry) = self.slots[idx].as_mut() else {
                continue;
            };
            for r in entry.reads.iter_mut().filter(|r| !r.done) {
                match r.port {
                    PortKind::Data => {
                        if self.data_busy[r.bank] {
                            res.data_conflicts += 1;
                        } else {
                            self.data_busy[r.bank] = true;
                            r.done = true;
                            res.grants += 1;
                        }
                    }
                    PortKind::Bvr => {
                        if self.bvr_busy[r.bank] {
                            res.bvr_conflicts += 1;
                        } else {
                            self.bvr_busy[r.bank] = true;
                            r.done = true;
                            res.grants += 1;
                        }
                    }
                    PortKind::ScalarRf => {
                        if scalar_rf_busy {
                            res.scalar_serializations += 1;
                        } else {
                            scalar_rf_busy = true;
                            r.done = true;
                            res.grants += 1;
                        }
                    }
                }
            }
        }
        self.rr = (self.rr + 1) % n.max(1);
        res
    }

    /// Removes and returns entries whose reads are all complete.
    pub fn take_ready(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        self.take_ready_into(&mut out, |_| true);
        out
    }

    /// Removes complete entries accepted by `accept`, appending them to
    /// `out` (a caller-owned buffer the per-cycle path reuses); rejected
    /// entries stay in their collector (structural backpressure toward
    /// the schedulers).
    pub fn take_ready_into(&mut self, out: &mut Vec<T>, mut accept: impl FnMut(&T) -> bool) {
        if self.occupied == 0 {
            return;
        }
        for slot in &mut self.slots {
            let complete = slot.as_ref().is_some_and(|e| e.reads.all_done());
            if complete && accept(&slot.as_ref().expect("checked above").payload) {
                out.push(slot.take().expect("checked above").payload);
                self.occupied -= 1;
            }
        }
    }

    /// Whether any entry is still collecting.
    #[must_use]
    pub fn any_pending(&self) -> bool {
        self.occupied > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_banks_collect_in_one_cycle() {
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(4, 16);
        oc.insert(OcEntry {
            payload: 1,
            reads: [ReadReq::data(0), ReadReq::data(1), ReadReq::data(2)].into(),
        });
        let r = oc.arbitrate(&[]);
        assert_eq!(r.grants, 3);
        assert_eq!(oc.take_ready(), vec![1]);
    }

    #[test]
    fn same_bank_serializes() {
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(4, 16);
        oc.insert(OcEntry {
            payload: 1,
            reads: [ReadReq::data(3), ReadReq::data(3)].into(),
        });
        let r1 = oc.arbitrate(&[]);
        assert_eq!(r1.grants, 1);
        assert_eq!(r1.data_conflicts, 1);
        assert!(oc.take_ready().is_empty());
        oc.arbitrate(&[]);
        assert_eq!(oc.take_ready(), vec![1]);
    }

    #[test]
    fn cross_entry_bank_conflict() {
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(4, 16);
        oc.insert(OcEntry {
            payload: 1,
            reads: [ReadReq::data(5)].into(),
        });
        oc.insert(OcEntry {
            payload: 2,
            reads: [ReadReq::data(5)].into(),
        });
        oc.arbitrate(&[]);
        let ready = oc.take_ready();
        assert_eq!(ready.len(), 1);
        oc.arbitrate(&[]);
        assert_eq!(oc.take_ready().len(), 1);
    }

    #[test]
    fn writes_have_priority() {
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(4, 16);
        oc.insert(OcEntry {
            payload: 1,
            reads: [ReadReq::data(7)].into(),
        });
        let r = oc.arbitrate(&[7]);
        assert_eq!(r.grants, 0);
        assert_eq!(r.data_conflicts, 1);
        oc.arbitrate(&[]);
        assert_eq!(oc.take_ready(), vec![1]);
    }

    #[test]
    fn bvr_ports_do_not_conflict_with_data() {
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(4, 16);
        oc.insert(OcEntry {
            payload: 1,
            reads: [ReadReq::data(0), ReadReq::bvr(0)].into(),
        });
        let r = oc.arbitrate(&[]);
        assert_eq!(r.grants, 2);
        assert_eq!(oc.take_ready(), vec![1]);
    }

    #[test]
    fn bvr_ports_are_per_bank() {
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(4, 16);
        oc.insert(OcEntry {
            payload: 1,
            reads: [ReadReq::bvr(0), ReadReq::bvr(1)].into(),
        });
        oc.insert(OcEntry {
            payload: 2,
            reads: [ReadReq::bvr(0)].into(),
        });
        let r = oc.arbitrate(&[]);
        // Entry 1 completes (banks 0 and 1); entry 2's bank-0 BVR read
        // lost arbitration this cycle.
        assert_eq!(r.bvr_conflicts, 1);
        assert!(r.any_conflict());
        assert_eq!(oc.take_ready(), vec![1]);
        oc.arbitrate(&[]);
        assert_eq!(oc.take_ready(), vec![2]);
    }

    #[test]
    fn scalar_rf_is_a_single_port() {
        // Section 4.1: a burst of scalar instructions serializes on the
        // one scalar bank in the prior-work design.
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(8, 16);
        for p in 0..4 {
            oc.insert(OcEntry {
                payload: p,
                reads: [ReadReq::scalar_rf(), ReadReq::scalar_rf()].into(),
            });
        }
        let r = oc.arbitrate(&[]);
        assert_eq!(r.grants, 1);
        assert!(r.scalar_serializations >= 3);
        // It takes 8 cycles to drain all four two-operand entries.
        let mut done = 0;
        for _ in 0..7 {
            oc.arbitrate(&[]);
            done += oc.take_ready().len();
        }
        assert_eq!(done, 4);
    }

    #[test]
    fn take_ready_into_applies_backpressure() {
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(4, 16);
        oc.insert(OcEntry {
            payload: 1,
            reads: ReadSet::new(),
        });
        oc.insert(OcEntry {
            payload: 2,
            reads: ReadSet::new(),
        });
        oc.insert(OcEntry {
            payload: 3,
            reads: ReadSet::new(),
        });
        // Accept at most two.
        let mut budget = 2;
        let mut taken = Vec::new();
        oc.take_ready_into(&mut taken, |_| {
            if budget > 0 {
                budget -= 1;
                true
            } else {
                false
            }
        });
        assert_eq!(taken.len(), 2);
        assert_eq!(oc.occupancy(), 1);
        assert_eq!(oc.take_ready().len(), 1);
    }

    #[test]
    fn no_reads_is_immediately_ready() {
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(2, 16);
        oc.insert(OcEntry {
            payload: 9,
            reads: ReadSet::new(),
        });
        assert_eq!(oc.take_ready(), vec![9]);
        assert!(!oc.any_pending());
    }

    #[test]
    fn empty_arbitration_still_rotates() {
        // Two single-read entries on one bank: the round-robin pointer
        // decides which wins. Idle cycles must advance it exactly as a
        // busy cycle would, or later grant order would change.
        let mut idle: OperandCollectors<u32> = OperandCollectors::new(2, 16);
        assert_eq!(idle.arbitrate(&[]), ArbResult::default());
        idle.insert(OcEntry {
            payload: 1,
            reads: [ReadReq::data(4)].into(),
        });
        idle.insert(OcEntry {
            payload: 2,
            reads: [ReadReq::data(4)].into(),
        });
        assert_eq!(idle.occupancy(), 2);
        idle.arbitrate(&[]);
        // rr = 1 after the idle cycle: slot 1 (payload 2) wins.
        assert_eq!(idle.take_ready(), vec![2]);
        assert_eq!(idle.free_slots(), 1);
    }

    #[test]
    #[should_panic(expected = "no free operand collector")]
    fn insert_into_full_panics() {
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(1, 16);
        oc.insert(OcEntry {
            payload: 0,
            reads: ReadSet::new(),
        });
        oc.insert(OcEntry {
            payload: 1,
            reads: ReadSet::new(),
        });
    }
}
