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

use crate::bits;

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
    /// Home bank of the register (banks number at most 64, see
    /// [`crate::GpuConfig::validate`]).
    pub bank: u8,
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
            bank: u8::try_from(bank).expect("banks number at most 64"),
            port: PortKind::Data,
            done: false,
        }
    }

    /// A BVR read from `bank`.
    #[must_use]
    pub fn bvr(bank: usize) -> Self {
        ReadReq {
            bank: u8::try_from(bank).expect("banks number at most 64"),
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
/// Slot state lives in `u64` bitmasks (at most 64 collectors over at
/// most 64 banks; [`crate::GpuConfig::validate`] enforces both), so a
/// cycle costs the slots that still wait for reads, not every slot.
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
    /// Bit `i` for every slot `i`.
    all: u64,
    /// Bit `i`: slot `i` is occupied.
    occupied: u64,
    /// Bit `i`: slot `i` is occupied and some read is not granted yet.
    /// The other occupied slots are complete and wait for dispatch.
    waiting: u64,
    banks: usize,
    /// Round-robin start slot of the next arbitration, in `0..slots`.
    rr: usize,
}

impl<T> OperandCollectors<T> {
    /// Creates `slots` collectors over `banks` register banks.
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `banks` exceeds 64.
    #[must_use]
    pub fn new(slots: usize, banks: usize) -> Self {
        assert!(
            slots <= 64 && banks <= 64,
            "at most 64 operand collectors and 64 banks"
        );
        OperandCollectors {
            slots: (0..slots).map(|_| None).collect(),
            all: crate::full_mask(slots),
            occupied: 0,
            waiting: 0,
            banks,
            rr: 0,
        }
    }

    /// Number of free collector slots.
    #[must_use]
    pub fn free_slots(&self) -> usize {
        self.slots.len() - self.occupancy()
    }

    /// Whether a collector slot is free.
    #[must_use]
    pub fn has_free_slot(&self) -> bool {
        self.occupied != self.all
    }

    /// Number of occupied collector slots.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupied.count_ones() as usize
    }

    /// Inserts an entry into the lowest free slot.
    ///
    /// # Panics
    ///
    /// Panics if no slot is free — callers must check
    /// [`OperandCollectors::free_slots`] first.
    pub fn insert(&mut self, entry: OcEntry<T>) {
        let i = self.occupied.trailing_ones() as usize;
        assert!(i < self.slots.len(), "no free operand collector");
        let bit = 1u64 << i;
        self.occupied |= bit;
        if !entry.reads.all_done() {
            self.waiting |= bit;
        }
        self.slots[i] = Some(entry);
    }

    /// Runs one cycle of bank arbitration. `write_banks` lists banks
    /// whose data port is consumed by a writeback this cycle (writes
    /// have priority on the single-ported SRAMs).
    ///
    /// Collectors are visited round-robin from slot `rr`: the waiting
    /// slots at or above it, then those below. Complete slots would
    /// issue no reads, so skipping them changes no grant.
    pub fn arbitrate(&mut self, write_banks: &[usize]) -> ArbResult {
        let mut res = ArbResult::default();
        let rr = self.rr;
        // The rotation advances every cycle, busy or idle: later
        // arbitration order depends on it.
        self.rr = if rr + 1 >= self.slots.len() {
            0
        } else {
            rr + 1
        };
        if self.waiting == 0 {
            return res;
        }
        let mut data_busy = 0u64;
        for &b in write_banks {
            if b < self.banks {
                data_busy |= 1 << b;
            }
        }
        let mut bvr_busy = 0u64;
        let mut scalar_rf_busy = false;
        let from_rr = self.waiting & (u64::MAX << rr);
        for idx in bits(from_rr).chain(bits(self.waiting & !from_rr)) {
            let entry = self.slots[idx].as_mut().expect("waiting slot is occupied");
            for r in entry.reads.iter_mut().filter(|r| !r.done) {
                let (busy, lost) = match r.port {
                    PortKind::Data => (&mut data_busy, &mut res.data_conflicts),
                    PortKind::Bvr => (&mut bvr_busy, &mut res.bvr_conflicts),
                    PortKind::ScalarRf => {
                        if scalar_rf_busy {
                            res.scalar_serializations += 1;
                        } else {
                            scalar_rf_busy = true;
                            r.done = true;
                            res.grants += 1;
                        }
                        continue;
                    }
                };
                let port = 1u64 << r.bank;
                if *busy & port != 0 {
                    *lost += 1;
                } else {
                    *busy |= port;
                    r.done = true;
                    res.grants += 1;
                }
            }
            if entry.reads.all_done() {
                self.waiting &= !(1 << idx);
            }
        }
        res
    }

    /// Runs `n` cycles of arbitration with every collector empty: each
    /// grants nothing and only advances the rotation.
    pub fn idle_arbitrations(&mut self, n: u64) {
        debug_assert_eq!(
            self.occupied, 0,
            "idle arbitration with occupied collectors"
        );
        let len = self.slots.len().max(1) as u64;
        self.rr = ((self.rr as u64 + n % len) % len) as usize;
    }

    /// Removes and returns entries whose reads are all complete.
    pub fn take_ready(&mut self) -> Vec<T> {
        let mut out = Vec::new();
        self.take_ready_into(&mut out, |_| true);
        out
    }

    /// Removes complete entries accepted by `accept`, in slot order,
    /// appending them to `out` (a caller-owned buffer the per-cycle
    /// path reuses); rejected entries stay in their collector
    /// (structural backpressure toward the schedulers).
    pub fn take_ready_into(&mut self, out: &mut Vec<T>, mut accept: impl FnMut(&T) -> bool) {
        for idx in bits(self.occupied & !self.waiting) {
            let slot = &mut self.slots[idx];
            if accept(&slot.as_ref().expect("complete slot is occupied").payload) {
                out.push(slot.take().expect("checked above").payload);
                self.occupied &= !(1 << idx);
            }
        }
    }

    /// Whether any entry is still collecting.
    #[must_use]
    pub fn any_pending(&self) -> bool {
        self.occupied != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The slot scan the bitmask collectors replaced, kept as their
    /// model: every cycle it visits all slots in `(rr + i) % n` order
    /// against per-bank busy flags, and `take_ready_into` and `insert`
    /// scan every slot in index order.
    struct ScanModel<T> {
        slots: Vec<Option<OcEntry<T>>>,
        banks: usize,
        rr: usize,
    }

    impl<T> ScanModel<T> {
        fn new(slots: usize, banks: usize) -> Self {
            ScanModel {
                slots: (0..slots).map(|_| None).collect(),
                banks,
                rr: 0,
            }
        }

        fn free_slots(&self) -> usize {
            self.slots.iter().filter(|s| s.is_none()).count()
        }

        fn insert(&mut self, entry: OcEntry<T>) {
            let slot = self.slots.iter_mut().find(|s| s.is_none()).expect("free");
            *slot = Some(entry);
        }

        fn arbitrate(&mut self, write_banks: &[usize]) -> ArbResult {
            let mut res = ArbResult::default();
            let n = self.slots.len();
            let mut data_busy = vec![false; self.banks];
            for &b in write_banks {
                if b < self.banks {
                    data_busy[b] = true;
                }
            }
            let mut bvr_busy = vec![false; self.banks];
            let mut scalar_rf_busy = false;
            for i in 0..n {
                let idx = (self.rr + i) % n;
                let Some(entry) = self.slots[idx].as_mut() else {
                    continue;
                };
                for r in entry.reads.iter_mut().filter(|r| !r.done) {
                    let busy = match r.port {
                        PortKind::Data => &mut data_busy[usize::from(r.bank)],
                        PortKind::Bvr => &mut bvr_busy[usize::from(r.bank)],
                        PortKind::ScalarRf => &mut scalar_rf_busy,
                    };
                    if *busy {
                        match r.port {
                            PortKind::Data => res.data_conflicts += 1,
                            PortKind::Bvr => res.bvr_conflicts += 1,
                            PortKind::ScalarRf => res.scalar_serializations += 1,
                        }
                    } else {
                        *busy = true;
                        r.done = true;
                        res.grants += 1;
                    }
                }
            }
            self.rr = (self.rr + 1) % n.max(1);
            res
        }

        fn take_ready_into(&mut self, out: &mut Vec<T>, mut accept: impl FnMut(&T) -> bool) {
            for slot in &mut self.slots {
                let complete = slot.as_ref().is_some_and(|e| e.reads.all_done());
                if complete && accept(&slot.as_ref().expect("checked").payload) {
                    out.push(slot.take().expect("checked").payload);
                }
            }
        }
    }

    /// Random insert / arbitrate / take sequences: the bitmask
    /// collectors must reproduce the scan's arbitration results, each
    /// read's grant (every slot's state after every cycle), the
    /// entries offered to `accept`, and the take order.
    fn matches_scan_model(slots: usize, banks: usize, seed: u64) {
        let mut rng = proptest::rng::TestRng::seed(seed);
        let mut oc: OperandCollectors<u32> = OperandCollectors::new(slots, banks);
        let mut model: ScanModel<u32> = ScanModel::new(slots, banks);
        let mut next = 0u32;
        for cycle in 0..4000 {
            let inserts = rng.below(4);
            for _ in 0..inserts {
                if oc.free_slots() == 0 {
                    break;
                }
                let mut reads = ReadSet::new();
                for _ in 0..rng.below(4) {
                    let bank = rng.below(banks as u128) as usize;
                    reads.push(match rng.below(8) {
                        0 => ReadReq::scalar_rf(),
                        1..=3 => ReadReq::bvr(bank),
                        _ => ReadReq::data(bank),
                    });
                }
                oc.insert(OcEntry {
                    payload: next,
                    reads,
                });
                model.insert(OcEntry {
                    payload: next,
                    reads,
                });
                next += 1;
            }
            // Idle-rotation cycles too: collectors sometimes drain.
            let write_banks: Vec<usize> = (0..rng.below(4))
                .map(|_| rng.below(banks as u128 + 2) as usize)
                .collect();
            assert_eq!(
                oc.arbitrate(&write_banks),
                model.arbitrate(&write_banks),
                "cycle {cycle}"
            );
            for (i, (got, want)) in oc.slots.iter().zip(&model.slots).enumerate() {
                let got = got.as_ref().map(|e| (e.payload, e.reads));
                let want = want.as_ref().map(|e| (e.payload, e.reads));
                assert_eq!(got, want, "slot {i} after cycle {cycle}");
            }
            // Dispatch accepts up to `budget` entries and logs every
            // entry it is offered.
            fn accept(offered: &mut Vec<u32>, mut budget: u64) -> impl FnMut(&u32) -> bool + '_ {
                move |p| {
                    offered.push(*p);
                    let ok = budget > 0;
                    budget = budget.saturating_sub(1);
                    ok
                }
            }
            let budget = rng.below(5);
            let (mut offered, mut offered_model) = (Vec::new(), Vec::new());
            let (mut out, mut out_model) = (Vec::new(), Vec::new());
            oc.take_ready_into(&mut out, accept(&mut offered, budget));
            model.take_ready_into(&mut out_model, accept(&mut offered_model, budget));
            assert_eq!(offered, offered_model, "cycle {cycle}");
            assert_eq!(out, out_model, "cycle {cycle}");
            assert_eq!(oc.free_slots(), model.free_slots());
            assert_eq!(oc.has_free_slot(), model.free_slots() > 0);
        }
        assert!(next > 1000, "the sequence kept the collectors busy");
    }

    #[test]
    fn bitmask_collectors_match_the_slot_scan() {
        for seed in 0..8 {
            matches_scan_model(16, 16, seed);
            matches_scan_model(32, 32, seed);
            matches_scan_model(3, 5, seed);
            matches_scan_model(64, 64, seed);
        }
    }

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
    fn bulk_idle_arbitrations_rotate_like_single_ones() {
        for start in 0..3u64 {
            for n in 0..10 {
                let mut bulk: OperandCollectors<u32> = OperandCollectors::new(3, 16);
                bulk.idle_arbitrations(start);
                let mut polled = bulk.clone();
                bulk.idle_arbitrations(n);
                for _ in 0..n {
                    polled.arbitrate(&[]);
                }
                assert_eq!(bulk.rr, polled.rr, "start {start}, {n} idle cycles");
            }
        }
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
