//! The timing memory subsystem: per-SM L1s, partitioned L2, and DRAM
//! channels with bandwidth contention.
//!
//! Requests are timed analytically: each access immediately computes its
//! completion cycle from cache outcomes and per-resource next-free
//! times, so no per-cycle ticking is needed. Contention appears through
//! the L2-partition and DRAM-channel service intervals.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use gscalar_trace::{MemLevel, TraceEvent, Tracer};

use crate::cache::{Cache, CacheOutcome};
use crate::config::GpuConfig;
use crate::stats::MemStats;

/// One in-flight L1 miss held by the per-SM [`MshrArena`].
#[derive(Debug, Clone)]
struct MshrSlot {
    /// Line address of the outstanding fill.
    line: u64,
    /// Cycle the fill lands.
    ready: u64,
    /// Bumped on every release: a heap entry whose generation no longer
    /// matches refers to an earlier tenancy of the slot and is ignored,
    /// so a recycled slot can never be freed (or counted) twice.
    gen: u32,
    /// Whether the slot currently holds an outstanding fill.
    live: bool,
}

/// Arena/freelist of in-flight miss requests: the issue→MSHR→replay
/// path recycles slots through `free` instead of allocating per
/// request, so once the pools are warm a miss costs zero heap traffic.
///
/// Invariants (see `assert_invariants`): `by_line` maps exactly the
/// live slots; a slot is never handed out while live; landed fills are
/// retired by the min-heap on the next miss (accesses are
/// time-monotonic per SM), so `by_line` never accumulates stale
/// entries — the amortized sweep the `HashMap`-only design needed is
/// structurally unnecessary.
#[derive(Debug, Clone, Default)]
struct MshrArena {
    slots: Vec<MshrSlot>,
    /// Indices of dead slots available for reuse.
    free: Vec<u32>,
    /// Outstanding line → slot index (MSHR merge lookup).
    by_line: HashMap<u64, u32>,
    /// Min-heap of (fill time, slot, generation): counts live
    /// outstanding misses at each new miss and returns landed slots to
    /// the freelist.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
}

impl MshrArena {
    /// Fill time of the outstanding miss on `line`, expiring the entry
    /// (and releasing its slot) if the fill already landed.
    fn lookup_live(&mut self, line: u64, now: u64) -> Option<u64> {
        let idx = *self.by_line.get(&line)?;
        let slot = &self.slots[idx as usize];
        debug_assert!(slot.live && slot.line == line);
        if slot.ready > now {
            return Some(slot.ready);
        }
        // The fill already landed; expire the entry lazily here rather
        // than waiting for the next miss's heap drain.
        self.by_line.remove(&line);
        Self::release(&mut self.slots, &mut self.free, idx);
        None
    }

    /// Records a new outstanding fill and returns the live outstanding
    /// count (the MLP occupancy sample), after retiring landed fills.
    fn insert(&mut self, line: u64, ready: u64, now: u64) -> usize {
        // Landed fills pop from the heap front and return their slots
        // to the freelist; stale (generation-mismatched) entries were
        // already released by a lazy lookup expiry and always carry
        // fill times <= now, so after this drain the heap length is the
        // exact number of live outstanding misses.
        while let Some(&Reverse((t, idx, gen))) = self.heap.peek() {
            if t > now {
                break;
            }
            self.heap.pop();
            let slot = &self.slots[idx as usize];
            if slot.live && slot.gen == gen {
                let landed = slot.line;
                debug_assert_eq!(self.by_line.get(&landed), Some(&idx));
                self.by_line.remove(&landed);
                Self::release(&mut self.slots, &mut self.free, idx);
            }
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                assert!(!slot.live, "freelist handed out live MSHR slot {idx}");
                slot.line = line;
                slot.ready = ready;
                slot.live = true;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("MSHR arena overflow");
                self.slots.push(MshrSlot {
                    line,
                    ready,
                    gen: 0,
                    live: true,
                });
                idx
            }
        };
        self.by_line.insert(line, idx);
        self.heap
            .push(Reverse((ready, idx, self.slots[idx as usize].gen)));
        self.heap.len()
    }

    /// Returns a slot to the freelist, bumping its generation so stale
    /// heap entries can never resurrect it.
    fn release(slots: &mut [MshrSlot], free: &mut Vec<u32>, idx: u32) {
        let slot = &mut slots[idx as usize];
        debug_assert!(slot.live, "double release of MSHR slot {idx}");
        slot.live = false;
        slot.gen = slot.gen.wrapping_add(1);
        free.push(idx);
    }

    /// Panics unless the arena is consistent: the freelist holds
    /// exactly the dead slots (no duplicates), and `by_line` maps
    /// exactly the live slots back to themselves.
    fn assert_invariants(&self) {
        let mut seen = vec![false; self.slots.len()];
        for &idx in &self.free {
            let slot = &self.slots[idx as usize];
            assert!(!slot.live, "free slot {idx} is live");
            assert!(!seen[idx as usize], "slot {idx} on freelist twice");
            seen[idx as usize] = true;
        }
        for (&line, &idx) in &self.by_line {
            let slot = &self.slots[idx as usize];
            assert!(slot.live, "line {line:#x} maps to dead slot {idx}");
            assert_eq!(slot.line, line, "slot {idx} holds the wrong line");
        }
        let live = self.slots.iter().filter(|s| s.live).count();
        assert_eq!(live, self.by_line.len(), "live slot unreachable by line");
        assert_eq!(
            self.free.len() + live,
            self.slots.len(),
            "slot neither live nor free"
        );
    }
}

/// The shared memory hierarchy below the SMs.
#[derive(Debug, Clone)]
pub struct MemSystem {
    line_bytes: u64,
    l1_hit_lat: u64,
    l2_lat: u64,
    dram_lat: u64,
    dram_service: u64,
    l2_service: u64,
    channels: usize,
    l1: Vec<Cache>,
    /// Per-SM arena of outstanding L1 miss lines (MSHR merging).
    mshr: Vec<MshrArena>,
    /// What-if idealization: every global load is an L1 hit.
    perfect_l1: bool,
    l2: Vec<Cache>,
    l2_free: Vec<u64>,
    chan_free: Vec<u64>,
}

impl MemSystem {
    /// Builds the hierarchy for `cfg`.
    #[must_use]
    pub fn new(cfg: &GpuConfig) -> Self {
        let l2_part_bytes = cfg.l2_bytes / cfg.mem_channels;
        MemSystem {
            line_bytes: cfg.line_bytes as u64,
            l1_hit_lat: cfg.lat.l1_hit,
            l2_lat: cfg.lat.l2,
            dram_lat: cfg.lat.dram,
            dram_service: cfg.lat.dram_service,
            l2_service: cfg.lat.l2_service,
            channels: cfg.mem_channels,
            l1: (0..cfg.num_sms)
                .map(|_| Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes))
                .collect(),
            mshr: (0..cfg.num_sms).map(|_| MshrArena::default()).collect(),
            perfect_l1: cfg.ideal.perfect_l1,
            l2: (0..cfg.mem_channels)
                .map(|_| Cache::new(l2_part_bytes, cfg.l2_ways, cfg.line_bytes))
                .collect(),
            l2_free: vec![0; cfg.mem_channels],
            chan_free: vec![0; cfg.mem_channels],
        }
    }

    /// The L2 partition / DRAM channel owning `addr`.
    #[must_use]
    pub fn partition_of(&self, addr: u64) -> usize {
        ((addr / self.line_bytes) % self.channels as u64) as usize
    }

    /// Issues one coalesced (line-granule) global access from SM `sm`
    /// at cycle `now`, emits a [`TraceEvent::Mem`] describing where the
    /// transaction was resolved, and returns its completion cycle.
    ///
    /// Loads allocate in L1; stores are write-through/no-allocate (they
    /// complete at L1 latency but still consume L2/DRAM bandwidth).
    pub fn access(
        &mut self,
        sm: usize,
        addr: u64,
        store: bool,
        now: u64,
        stats: &mut MemStats,
        tracer: &mut Tracer<'_>,
    ) -> u64 {
        let (done, level) = self.access_classified(sm, addr, store, now, stats);
        tracer.emit_with(now, || TraceEvent::Mem {
            sm: sm as u32,
            addr,
            store,
            level,
            done,
        });
        done
    }

    /// The timing model behind [`MemSystem::access`]: the completion
    /// cycle and the hierarchy level that resolved the request.
    fn access_classified(
        &mut self,
        sm: usize,
        addr: u64,
        store: bool,
        now: u64,
        stats: &mut MemStats,
    ) -> (u64, MemLevel) {
        stats.global_accesses += 1;
        let line = addr / self.line_bytes * self.line_bytes;
        if store {
            // Write-through: update L2 timing/occupancy, return quickly.
            let (_, level) = self.l2_access(sm, line, now, stats, true);
            return (now + self.l1_hit_lat, level);
        }
        if self.perfect_l1 {
            // What-if idealization: loads never miss, generate no L2
            // traffic, and never occupy an MSHR.
            stats.l1_hits += 1;
            return (now + self.l1_hit_lat, MemLevel::L1Hit);
        }
        // MSHR merge: an outstanding fill for this line absorbs the new
        // request (the L1 tag is already allocated by the original miss,
        // so the merge neither re-touches the tags nor counts as a hit
        // or a miss — data simply arrives when the fill returns).
        if let Some(ready) = self.mshr[sm].lookup_live(line, now) {
            stats.l1_mshr_hits += 1;
            return (ready, MemLevel::MshrMerge);
        }
        match self.l1[sm].access(line, now, true) {
            CacheOutcome::Hit => {
                stats.l1_hits += 1;
                (now + self.l1_hit_lat, MemLevel::L1Hit)
            }
            CacheOutcome::Miss => {
                stats.l1_misses += 1;
                let (ready, level) = self.l2_access(sm, line, now, stats, false);
                // MLP profile: the arena retires landed fills and
                // returns the live outstanding count, including the
                // fill just allocated.
                let live = self.mshr[sm].insert(line, ready, now);
                stats.mshr_occupancy.record(live as u64);
                (ready, level)
            }
        }
    }

    /// Live outstanding L1 misses tracked for `sm` — the MSHR arena's
    /// by-line population (landed fills may linger until the next miss
    /// drains them or a lookup expires them).
    #[must_use]
    pub fn mshr_outstanding(&self, sm: usize) -> usize {
        self.mshr[sm].by_line.len()
    }

    /// Checks every SM's MSHR arena invariants, panicking on violation.
    /// Test aid for the memsys proptests; not part of the public API.
    #[doc(hidden)]
    pub fn assert_mshr_invariants(&self) {
        for arena in &self.mshr {
            arena.assert_invariants();
        }
    }

    fn l2_access(
        &mut self,
        _sm: usize,
        line: u64,
        now: u64,
        stats: &mut MemStats,
        store: bool,
    ) -> (u64, MemLevel) {
        let p = self.partition_of(line);
        stats.noc_flits += 2; // request + response line transfer
        let start = now.max(self.l2_free[p]);
        self.l2_free[p] = start + self.l2_service;
        match self.l2[p].access(line, now, true) {
            CacheOutcome::Hit => {
                stats.l2_hits += 1;
                (start + self.l2_lat, MemLevel::L2Hit)
            }
            CacheOutcome::Miss => {
                stats.l2_misses += 1;
                if store {
                    // Write miss: DRAM bandwidth consumed, latency hidden
                    // by the write buffer.
                    let s = start.max(self.chan_free[p]);
                    self.chan_free[p] = s + self.dram_service;
                    (start + self.l2_lat, MemLevel::Dram)
                } else {
                    let s = (start + self.l2_lat).max(self.chan_free[p]);
                    self.chan_free[p] = s + self.dram_service;
                    (s + self.dram_lat, MemLevel::Dram)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> (MemSystem, MemStats) {
        let mut cfg = GpuConfig::test_small();
        cfg.num_sms = 2;
        (MemSystem::new(&cfg), MemStats::default())
    }

    #[test]
    fn l1_hit_is_fast() {
        let mut off = Tracer::off();
        let (mut m, mut s) = sys();
        let cold = m.access(0, 0x1000, false, 0, &mut s, &mut off);
        assert!(cold > 100); // L2 miss → DRAM
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l2_misses, 1);
        let warm = m.access(0, 0x1000, false, cold + 1, &mut s, &mut off);
        assert_eq!(warm, cold + 1 + 32);
        assert_eq!(s.l1_hits, 1);
    }

    #[test]
    fn l2_hit_cheaper_than_dram() {
        let mut off = Tracer::off();
        let (mut m, mut s) = sys();
        let t1 = m.access(0, 0x2000, false, 0, &mut s, &mut off);
        // A different SM misses L1 but hits the now-warm L2.
        let t2 = m.access(1, 0x2000, false, t1 + 1, &mut s, &mut off) - (t1 + 1);
        assert!(t2 < t1, "L2 hit ({t2}) should beat DRAM ({t1})");
        assert_eq!(s.l2_hits, 1);
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut off = Tracer::off();
        let (mut m, mut s) = sys();
        let t1 = m.access(0, 0x3000, false, 0, &mut s, &mut off);
        // Another access to the same line while the fill is in flight
        // returns the same fill time without new L2 traffic.
        let before = s.l2_hits + s.l2_misses;
        let t2 = m.access(0, 0x3010, false, 1, &mut s, &mut off);
        assert_eq!(t1, t2);
        assert_eq!(s.l2_hits + s.l2_misses, before);
        // The merge is its own class: not an L1 miss (there is no new
        // fill) and not a hit (the data is not there yet).
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.l1_hits, 0);
        assert_eq!(s.l1_mshr_hits, 1);
        assert_eq!(s.l1_hits + s.l1_misses + s.l1_mshr_hits, s.global_accesses);
    }

    #[test]
    fn stale_mshr_entries_expire_lazily() {
        let mut off = Tracer::off();
        let (mut m, mut s) = sys();
        let fill = m.access(0, 0x6000, false, 0, &mut s, &mut off);
        // Past the fill time the entry is stale: the access must see a
        // plain L1 hit (the line landed), not a phantom merge.
        let warm = m.access(0, 0x6000, false, fill + 1, &mut s, &mut off);
        assert_eq!(warm, fill + 1 + 32);
        assert_eq!(s.l1_mshr_hits, 0);
        assert_eq!(s.l1_hits, 1);
        // And the lazy removal means a later same-line miss re-fills
        // rather than returning the long-gone completion time.
        assert_eq!(m.mshr_outstanding(0), 0);
        m.assert_mshr_invariants();
    }

    #[test]
    fn arena_recycles_slots_without_growing() {
        let mut off = Tracer::off();
        let (mut m, mut s) = sys();
        // Sequential misses far enough apart that each fill lands
        // before the next miss: every miss drains the previous slot
        // back to the freelist, so the arena never grows past one slot.
        let mut now = 0;
        for i in 0..16u64 {
            now = m.access(
                0,
                0x9000 + i * 0x1000,
                false,
                now + 10_000,
                &mut s,
                &mut off,
            );
            m.assert_mshr_invariants();
        }
        assert_eq!(m.mshr[0].slots.len(), 1);
        assert_eq!(m.mshr_outstanding(0), 1);
        assert_eq!(s.l1_misses, 16);
        // Overlapping misses at the same cycle grow the arena, but a
        // later round reuses those slots rather than adding more.
        let t0 = now + 10_000;
        for i in 0..4u64 {
            m.access(0, 0x80_0000 + i * 0x1000, false, t0, &mut s, &mut off);
        }
        let grown = m.mshr[0].slots.len();
        m.assert_mshr_invariants();
        let t1 = m.mshr[0].slots.iter().map(|sl| sl.ready).max().unwrap() + 1;
        for i in 0..4u64 {
            m.access(0, 0x90_0000 + i * 0x1000, false, t1, &mut s, &mut off);
        }
        assert_eq!(m.mshr[0].slots.len(), grown);
        m.assert_mshr_invariants();
    }

    #[test]
    fn stores_complete_fast_but_use_bandwidth() {
        let mut off = Tracer::off();
        let (mut m, mut s) = sys();
        let t = m.access(0, 0x4000, true, 0, &mut s, &mut off);
        assert_eq!(t, 32);
        assert!(s.noc_flits > 0);
        // The partition is busy afterwards: a load to another line of
        // it (stride = channels × line) queues behind the store.
        let (mut idle, mut idle_s) = sys();
        let alone = idle.access(0, 0x4100, false, 0, &mut idle_s, &mut off);
        assert!(m.access(0, 0x4100, false, 0, &mut s, &mut off) > alone);
    }

    #[test]
    fn channel_bandwidth_serializes() {
        let mut off = Tracer::off();
        let (mut m, mut s) = sys();
        // Many distinct lines in the same partition (stride = channels × line).
        let stride = 128 * 2;
        let times: Vec<u64> = (0..8u64)
            .map(|i| m.access(0, 0x10_0000 + i * stride, false, 0, &mut s, &mut off))
            .collect();
        // 8 simultaneous requests at 8-cycle DRAM service ⇒ strictly
        // increasing completion, spread by at least the service interval.
        assert!(times.windows(2).all(|w| w[1] > w[0]));
        assert!(times[7] - times[0] >= 7 * 8);
        assert_eq!(s.l2_misses, 8);
    }

    #[test]
    fn traced_access_classifies_levels() {
        let (mut m, mut s) = sys();
        let mut buf = gscalar_trace::EventBuf::new(16);
        let mut t = Tracer::new(&mut buf);
        // Chronological, as the engine issues them: the merge lands
        // while the fill is still in flight, the warm hit after it.
        let cold = m.access(0, 0x5000, false, 0, &mut s, &mut t);
        m.access(0, 0x5010, false, 1, &mut s, &mut t); // MSHR merge
        m.access(0, 0x5000, false, cold + 1, &mut s, &mut t);
        let levels: Vec<MemLevel> = buf
            .records()
            .iter()
            .map(|r| match r.ev {
                TraceEvent::Mem { level, .. } => level,
                ref other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            levels,
            vec![MemLevel::Dram, MemLevel::MshrMerge, MemLevel::L1Hit]
        );
        // The traced variant and the plain one share the timing model.
        assert_eq!(s.global_accesses, 3);
    }

    #[test]
    fn perfect_l1_short_circuits_loads() {
        let mut off = Tracer::off();
        let mut cfg = GpuConfig::test_small();
        cfg.num_sms = 1;
        cfg.ideal.perfect_l1 = true;
        let mut m = MemSystem::new(&cfg);
        let mut s = MemStats::default();
        let t = m.access(0, 0xF000, false, 0, &mut s, &mut off);
        assert_eq!(t, 32); // cold load completes at L1-hit latency
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l1_misses, 0);
        assert_eq!(s.noc_flits, 0);
        assert_eq!(s.mshr_occupancy.count(), 0);
        // Stores keep their write-through path and bandwidth cost.
        m.access(0, 0xF000, true, 0, &mut s, &mut off);
        assert!(s.noc_flits > 0);
    }

    #[test]
    fn mshr_occupancy_counts_live_fills_only() {
        let mut off = Tracer::off();
        let (mut m, mut s) = sys();
        // Distinct lines in the same partition; two overlapping misses
        // at t=0 sample occupancies 1 then 2.
        let stride = 128 * 2;
        let t1 = m.access(0, 0x8000, false, 0, &mut s, &mut off);
        m.access(0, 0x8000 + stride, false, 0, &mut s, &mut off);
        assert_eq!(s.mshr_occupancy.count(), 2);
        assert_eq!(s.mshr_occupancy.sum(), 1 + 2);
        // Long after both fills land a new miss samples 1 again, even
        // though the lazily-swept `mshr` map may still hold the stale
        // entries the occupancy heap already popped.
        m.access(0, 0x8000 + 2 * stride, false, t1 + 10_000, &mut s, &mut off);
        assert_eq!(s.mshr_occupancy.count(), 3);
        assert_eq!(s.mshr_occupancy.sum(), 4);
        assert_eq!(s.mshr_occupancy.max(), Some(2));
        // MSHR merges are not new fills and do not sample.
        m.access(
            0,
            0x8000 + 2 * stride + 16,
            false,
            t1 + 10_001,
            &mut s,
            &mut off,
        );
        assert_eq!(s.l1_mshr_hits, 1);
        assert_eq!(s.mshr_occupancy.count(), 3);
    }

    #[test]
    fn partitions_are_by_line_address() {
        let (m, _) = sys();
        assert_eq!(m.partition_of(0), 0);
        assert_eq!(m.partition_of(128), 1);
        assert_eq!(m.partition_of(256), 0);
        assert_eq!(m.partition_of(130), 1);
    }
}
