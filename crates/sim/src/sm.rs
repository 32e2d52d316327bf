//! The streaming multiprocessor: per-cycle issue, operand collection,
//! execution, and writeback — with the G-Scalar mechanisms folded in.

use gscalar_compress::bytewise::MAX_LANES;
use gscalar_compress::regmeta::MetaConfig;
use gscalar_compress::{bdi, bytewise, Encoding, RegFileMeta};
use gscalar_hostprof as hostprof;
use gscalar_isa::{AluOp, Dim3, FuncUnit, Instr, InstrKind, Kernel, Operand, Reg, Space};
use gscalar_profile::{EligClass, Profiler};
use gscalar_trace::{ModeKind, StallReason, TraceEvent, Tracer, UnitKind};

use crate::bits;
use crate::config::{ArchConfig, GpuConfig};
use crate::decode::{DecodeTable, DecodedInstr};
use crate::exec;
use crate::memory::{GlobalMemory, SharedMemory};
use crate::memsys::MemSystem;
use crate::pipeline::Pipe;
use crate::regfile::{OcEntry, OperandCollectors, ReadReq, ReadSet};
use crate::scheduler::Scheduler;
use crate::scoreboard::Scoreboard;
use crate::stats::{ScalarClass, SchedStats, Stats};
use crate::warp::Warp;

/// How an instruction is executed on its pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// All lanes driven (inactive lanes gated but slots dispatched).
    Vector,
    /// One lane active; one dispatch cycle (Section 4.1).
    Scalar,
    /// One lane per 16-lane chunk (Section 4.3).
    Half,
}

impl ExecMode {
    fn trace_kind(self) -> ModeKind {
        match self {
            ExecMode::Vector => ModeKind::Vector,
            ExecMode::Scalar => ModeKind::Scalar,
            ExecMode::Half => ModeKind::Half,
        }
    }
}

/// Trace-vocabulary view of a functional unit.
fn unit_kind(unit: FuncUnit) -> UnitKind {
    match unit {
        FuncUnit::Alu => UnitKind::Alu,
        FuncUnit::Sfu => UnitKind::Sfu,
        FuncUnit::Mem => UnitKind::Mem,
        FuncUnit::Control => UnitKind::Control,
    }
}

/// Trace-vocabulary encoding tag for compressor decisions — the shared
/// Figure 8 bucket index, so the tag can never drift from the
/// `EncodingHistogram` categories.
fn encoding_tag(enc: Encoding) -> u8 {
    enc.bucket() as u8
}

/// Profiler-vocabulary view of a [`ScalarClass`].
fn elig_class(class: ScalarClass) -> EligClass {
    match class {
        ScalarClass::Vector => EligClass::Vector,
        ScalarClass::Alu => EligClass::Alu,
        ScalarClass::Sfu => EligClass::Sfu,
        ScalarClass::Mem => EligClass::Mem,
        ScalarClass::Half => EligClass::Half,
        ScalarClass::Divergent => EligClass::Divergent,
    }
}

/// Forwards SIMT path-end events (paths popped by the last stack
/// operation) to the profiler's per-branch reconvergence stats.
#[inline]
fn drain_path_events(profiler: &mut Profiler, simt: &crate::simt::SimtStack) {
    if profiler.is_on() {
        for &(origin, rejoined) in simt.path_events() {
            profiler.record_path_end(origin, rejoined);
        }
    }
}

/// An instruction in flight between issue and writeback. Fields are
/// narrow so the record moves through the collectors and pipes in a few
/// registers' worth of copies.
#[derive(Debug, Clone)]
struct Inflight {
    /// Unique coalesced line addresses (global memory instructions).
    mem_lines: Vec<u64>,
    mask: u64,
    /// PC the instruction was fetched from: its decode-table row at
    /// writeback, and trace and profile labeling.
    pc: u32,
    /// ALU and SFU result latency after the dispatch occupancy, fixed at
    /// issue (the memory system times memory instructions).
    latency: u32,
    /// Warp slot (at most 64, see [`GpuConfig::validate`]).
    warp: u8,
    /// The slot's launch generation at issue (see `Sm::launch_gen`): a
    /// writeback whose generation is stale belongs to a warp that has
    /// exited since, and releases nothing of the slot's new warp.
    gen: u16,
    /// Data-port bank the writeback takes (for writeback port pressure;
    /// at most 64), or [`NO_WRITE_PORT`]: no register write, or one
    /// that touches only the BVR (scalar write in a compressed register
    /// file).
    wb_bank: u8,
    mode: ExecMode,
    unit: FuncUnit,
    /// Shared-memory access.
    shared: bool,
    /// Store (no register writeback).
    store: bool,
}

// Folding the BVR-only flag into `wb_bank` made room for the
// generation tag: the record stays 48 bytes.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Inflight>() == 48);

/// [`Inflight::wb_bank`] of a writeback that takes no data port.
const NO_WRITE_PORT: u8 = u8::MAX;

/// Issue readiness of an SM's warp slots: one bit per slot in each
/// mask, one entry per slot in each array.
///
/// `clear_at` and `mem_until` cache the hazard window of the instruction
/// at a live slot's PC (see [`Scoreboard::hazard_window`]). Only three
/// events can change a window, and each marks the slot dirty: a CTA
/// launch (fresh scoreboard slots), a writeback (`release_at`), and any
/// issue from the warp (moves the PC, may reserve destinations). A pick
/// refreshes the dirty live slots it owns before it tests any.
#[derive(Debug, Clone)]
struct Readiness {
    /// Resident slots not waiting at a barrier.
    live: u64,
    /// Resident slots waiting at a barrier.
    barrier: u64,
    /// Slots whose cached window is stale.
    dirty: u64,
    /// Slots whose head instruction is a control instruction (needs no
    /// operand collector).
    control: u64,
    /// First cycle at which each slot's head instruction is hazard-free.
    clear_at: Vec<u64>,
    /// A memory producer blocks each slot's head instruction while
    /// `mem_until > now`.
    mem_until: Vec<u64>,
}

impl Readiness {
    fn new(slots: usize) -> Self {
        Readiness {
            live: 0,
            barrier: 0,
            dirty: 0,
            control: 0,
            clear_at: vec![0; slots],
            mem_until: vec![0; slots],
        }
    }

    /// Whether slot `w`'s head instruction may issue at `now`:
    /// hazard-free, and either a control instruction or a collector slot
    /// is free.
    #[inline]
    fn issuable(&self, w: usize, now: u64, oc_free: bool) -> bool {
        self.clear_at[w] <= now && (oc_free || self.control >> w & 1 != 0)
    }

    /// The polled scoreboard's answer for slot `w` at `now`:
    /// [`Scoreboard::blocking_is_mem`] read off the cached window.
    fn blocking_is_mem(&self, w: usize, now: u64) -> Option<bool> {
        (self.clear_at[w] > now).then_some(self.mem_until[w] > now)
    }
}

/// A scheduler's cached stall verdict: what its last miss concluded,
/// exact until the next event can change the answer.
///
/// A miss's classification reads only the scheduler's slots (the live
/// and barrier masks, cached [`Readiness`] windows) and
/// whether a collector slot is free. Every event that changes a warp
/// drops its scheduler's verdict: a writeback, an issue and a CTA
/// launch drop the owning scheduler's, and a barrier release drops
/// every scheduler's. Time can change the answer only when a hazard
/// window edge passes, so the verdict also expires at `until`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Verdict {
    /// Collector availability the scan saw.
    oc_free: bool,
    /// Earliest `clear_at` or `mem_until` after the scan's cycle among
    /// the scheduler's live, non-barrier warps (`u64::MAX`: none).
    until: u64,
    /// The stall reason, with collector stalls left as
    /// [`StallReason::NoCollector`]: the bank-conflict refinement
    /// depends on each cycle's arbitration.
    reason: StallReason,
    /// The warp that epitomizes `reason`, if any.
    culprit: Option<u32>,
}

/// What a register read charges for the current contents of one
/// physical register, recorded by the write that produced them so a
/// read need not re-compress unchanged values. A field that is not
/// known yet (`u8::MAX`, `None`) is computed on first read: registers
/// never written since launch, and the Figure 8 encoding after a
/// partial-mask write.
#[derive(Debug, Clone, Copy)]
struct RfClass {
    /// BDI arrays active for the contents (Warped-Compression
    /// comparison).
    bdi_arrays: u8,
    /// Full-mask byte-wise encoding of the contents.
    enc: Option<Encoding>,
}

impl RfClass {
    const UNKNOWN: RfClass = RfClass {
        bdi_arrays: u8::MAX,
        enc: None,
    };
}

/// State of one resident CTA.
#[derive(Debug)]
struct CtaState {
    warps_total: usize,
    warps_done: usize,
    at_barrier: usize,
    shared: SharedMemory,
}

/// A streaming multiprocessor.
pub struct Sm {
    id: usize,
    cfg: GpuConfig,
    arch: ArchConfig,
    warps: Vec<Option<Warp>>,
    /// Per-slot launch generation, bumped (wrapping) by every warp
    /// launched into the slot. A warp exits without waiting for its
    /// writes, so an [`Inflight`] can outlive its warp; it would pass
    /// for current only if 65,536 warps launched into its slot while it
    /// was in flight.
    launch_gen: Vec<u16>,
    scoreboard: Scoreboard,
    /// Per-warp-slot issue readiness, refreshed lazily by the pick.
    ready: Readiness,
    schedulers: Vec<Scheduler>,
    /// Per-scheduler cached stall verdict (`None`: dropped by an event
    /// since the last miss).
    verdicts: Vec<Option<Verdict>>,
    /// The SM sleeps through polls with `now < sleep_until` (0: awake;
    /// see [`Sm::steady_until`]).
    sleep_until: u64,
    oc: OperandCollectors<Inflight>,
    alu_pipes: Vec<Pipe<Inflight>>,
    sfu_pipe: Pipe<Inflight>,
    lsu_pipe: Pipe<Inflight>,
    regmeta: RegFileMeta,
    /// Per-physical-register read classification, indexed like
    /// `regmeta` (see [`Sm::phys_reg`]).
    rf_class: Vec<RfClass>,
    ctas: Vec<Option<CtaState>>,
    num_regs_per_warp: usize,
    /// Writeback scratch: instructions drained from the pipes this
    /// cycle. Reused every cycle so the hot path never allocates.
    finished: Vec<Inflight>,
    /// Writeback scratch: data-port banks consumed by writebacks.
    write_banks: Vec<usize>,
    /// Dispatch scratch: collector entries leaving for the pipes.
    dispatching: Vec<Inflight>,
    /// Execute scratch: the destination register's lane values while an
    /// instruction executes (replaces a per-instruction `Vec` clone).
    exec_vals: Vec<u32>,
    /// Recycled coalesced-line buffers: an instruction's `mem_lines`
    /// vector returns here at writeback and is handed back out at the
    /// next issue.
    line_pool: Vec<Vec<u64>>,
    /// Statistics local to this SM.
    pub stats: Stats,
}

impl std::fmt::Debug for Sm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sm")
            .field("id", &self.id)
            .field("resident_warps", &self.resident_warps())
            .finish_non_exhaustive()
    }
}

impl Sm {
    /// Creates an SM for one kernel execution.
    #[must_use]
    pub fn new(id: usize, cfg: &GpuConfig, arch: &ArchConfig, num_regs_per_warp: usize) -> Self {
        let max_warps = cfg.warps_per_sm();
        let num_regs_per_warp = num_regs_per_warp.max(1);
        let per_sched = |s: usize| -> u64 {
            (0..max_warps)
                .filter(|w| w % cfg.schedulers == s)
                .fold(0, |m, w| m | 1 << w)
        };
        Sm {
            id,
            cfg: cfg.clone(),
            arch: arch.clone(),
            warps: (0..max_warps).map(|_| None).collect(),
            launch_gen: vec![0; max_warps],
            scoreboard: Scoreboard::new(max_warps, num_regs_per_warp),
            ready: Readiness::new(max_warps),
            schedulers: (0..cfg.schedulers)
                .map(|s| Scheduler::new(cfg.sched, per_sched(s)))
                .collect(),
            verdicts: vec![None; cfg.schedulers],
            sleep_until: 0,
            oc: OperandCollectors::new(cfg.operand_collectors, cfg.rf_banks),
            alu_pipes: (0..cfg.alu_pipes)
                .map(|_| Pipe::new(cfg.simt_width))
                .collect(),
            sfu_pipe: Pipe::new(cfg.sfu_width),
            lsu_pipe: Pipe::new(cfg.simt_width),
            regmeta: RegFileMeta::new(
                cfg.vector_regs_per_sm(),
                MetaConfig::g_scalar(cfg.warp_size),
            ),
            rf_class: vec![RfClass::UNKNOWN; max_warps * num_regs_per_warp],
            ctas: (0..cfg.ctas_per_sm).map(|_| None).collect(),
            num_regs_per_warp,
            finished: Vec::new(),
            write_banks: Vec::new(),
            dispatching: Vec::new(),
            exec_vals: Vec::new(),
            line_pool: Vec::new(),
            stats: Stats {
                sched: vec![SchedStats::default(); cfg.schedulers],
                ..Stats::default()
            },
        }
    }

    /// Number of resident (running) warps.
    #[must_use]
    pub fn resident_warps(&self) -> usize {
        self.warps.iter().filter(|w| w.is_some()).count()
    }

    /// Whether a CTA of `warps_needed` warps and `shared_bytes` shared
    /// memory fits right now.
    #[must_use]
    pub fn can_accept_cta(&self, warps_needed: usize, shared_bytes: u32) -> bool {
        if !self.ctas.iter().any(|c| c.is_none()) {
            return false;
        }
        let free_warps = self.warps.iter().filter(|w| w.is_none()).count();
        if free_warps < warps_needed {
            return false;
        }
        // Register budget: every warp slot uses a fixed window.
        let needed_regs = (self.resident_warps() + warps_needed) * self.num_regs_per_warp;
        if needed_regs > self.cfg.vector_regs_per_sm() {
            return false;
        }
        let used_shared: u32 = self
            .ctas
            .iter()
            .flatten()
            .map(|c| c.shared.len() as u32)
            .sum();
        used_shared + shared_bytes <= self.cfg.shared_mem_per_sm
    }

    /// Launches a CTA. `cta` is its grid coordinate, `launch` the
    /// launch configuration.
    ///
    /// # Panics
    ///
    /// Panics if the CTA does not fit; call
    /// [`Sm::can_accept_cta`] first.
    pub fn launch_cta(&mut self, kernel: &Kernel, cta: Dim3, grid: Dim3, block: Dim3) {
        let threads = (block.count()).max(1) as usize;
        let warps_needed = threads.div_ceil(self.cfg.warp_size);
        assert!(
            self.can_accept_cta(warps_needed, kernel.shared_mem_bytes()),
            "CTA does not fit on SM {}",
            self.id
        );
        let slot = self
            .ctas
            .iter()
            .position(|c| c.is_none())
            .expect("checked by can_accept_cta");
        self.ctas[slot] = Some(CtaState {
            warps_total: warps_needed,
            warps_done: 0,
            at_barrier: 0,
            shared: SharedMemory::new(kernel.shared_mem_bytes()),
        });
        // New warps may be issuable at once.
        self.sleep_until = 0;
        let mut remaining = threads;
        let mut tid_base = 0u32;
        for _ in 0..warps_needed {
            let in_warp = remaining.min(self.cfg.warp_size);
            let w = self
                .warps
                .iter()
                .position(|w| w.is_none())
                .expect("checked by can_accept_cta");
            self.warps[w] = Some(Warp::new(
                w,
                slot,
                self.cfg.warp_size,
                in_warp,
                kernel.num_regs() as usize,
                tid_base,
                cta,
                block,
                grid,
            ));
            self.launch_gen[w] = self.launch_gen[w].wrapping_add(1);
            self.scoreboard.clear_warp(w);
            self.ready.live |= 1 << w;
            self.ready.dirty |= 1 << w;
            self.verdicts[w % self.cfg.schedulers] = None;
            let regs = w * self.num_regs_per_warp;
            self.rf_class[regs..regs + self.num_regs_per_warp].fill(RfClass::UNKNOWN);
            remaining -= in_warp;
            tid_base += in_warp as u32;
        }
    }

    /// Physical vector-register index of `(warp, reg)`.
    fn phys_reg(&self, warp: usize, reg: Reg) -> usize {
        warp * self.num_regs_per_warp + reg.index() as usize
    }

    fn bank_of(&self, phys: usize) -> usize {
        phys % self.cfg.rf_banks
    }

    /// Runs one SM cycle against the shared global memory (read and
    /// written at issue) and memory system (accessed at dispatch).
    /// Returns the CTAs completed.
    ///
    /// A steadily stalled SM sleeps: until the next event that can
    /// change it, a poll charges exactly what a full cycle would, in
    /// O(1).
    #[allow(clippy::too_many_arguments)]
    pub fn cycle(
        &mut self,
        now: u64,
        kernel: &Kernel,
        decoded: &DecodeTable,
        gmem: &mut GlobalMemory,
        memsys: &mut MemSystem,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) -> usize {
        if now < self.sleep_until {
            self.sleep_poll(now, decoded, tracer, profiler);
            return 0;
        }
        // A steady cycle still runs in full; the polls after it sleep.
        self.sleep_until = self.steady_until(now).unwrap_or(0);

        // 1. Writeback. Both scratch vectors live on the SM and are
        // reused cycle after cycle: the writeback path allocates
        // nothing.
        let wb_phase = hostprof::phase(hostprof::Phase::Writeback);
        let mut finished = std::mem::take(&mut self.finished);
        for p in &mut self.alu_pipes {
            p.drain_finished_into(now, &mut finished);
        }
        self.sfu_pipe.drain_finished_into(now, &mut finished);
        self.lsu_pipe.drain_finished_into(now, &mut finished);
        let mut write_banks = std::mem::take(&mut self.write_banks);
        write_banks.clear();
        for f in finished.drain(..) {
            if f.wb_bank != NO_WRITE_PORT {
                write_banks.push(usize::from(f.wb_bank));
            }
            let w = usize::from(f.warp);
            // A write of an exited warp still takes its port but leaves
            // the slot's new warp alone.
            if f.gen == self.launch_gen[w] {
                let release = now + self.arch.extra_latency;
                self.scoreboard
                    .release_at(w, decoded.get(f.pc as usize), release);
                self.ready.dirty |= 1 << w;
                self.verdicts[w % self.cfg.schedulers] = None;
            }
            // Recycle the coalesced-line buffer for the next issue.
            let mut lines = f.mem_lines;
            if lines.capacity() > 0 {
                lines.clear();
                self.line_pool.push(lines);
            }
        }
        self.finished = finished;
        drop(wb_phase);

        // 2. Operand collection.
        let oc_phase = hostprof::phase(hostprof::Phase::OperandCollect);
        let arb = self.oc.arbitrate(&write_banks);
        self.write_banks = write_banks;
        self.stats.pipe.bank_conflict_cycles += arb.data_conflicts;
        self.stats.pipe.scalar_bank_serializations += arb.scalar_serializations;
        self.stats.pipe.bvr_conflict_cycles += arb.bvr_conflicts;
        let rf_conflict = arb.any_conflict();
        drop(oc_phase);

        // 3. Dispatch ready instructions to pipelines, gated by each
        // pipe's dispatch port (structural backpressure: entries that
        // find no port stay in their operand collector).
        let dispatch_phase = hostprof::phase(hostprof::Phase::Dispatch);
        let mut alu_free = self
            .alu_pipes
            .iter()
            .filter(|p| p.can_dispatch(now))
            .count();
        let mut sfu_free = usize::from(self.sfu_pipe.can_dispatch(now));
        let mut lsu_free = usize::from(self.lsu_pipe.can_dispatch(now));
        let mut ready = std::mem::take(&mut self.dispatching);
        self.oc.take_ready_into(&mut ready, |inst| {
            let slot = match inst.unit {
                FuncUnit::Alu => &mut alu_free,
                FuncUnit::Sfu => &mut sfu_free,
                FuncUnit::Mem => &mut lsu_free,
                FuncUnit::Control => return true,
            };
            if *slot > 0 {
                *slot -= 1;
                true
            } else {
                false
            }
        });
        for inst in ready.drain(..) {
            self.dispatch(inst, now, memsys, tracer, profiler);
        }
        self.dispatching = ready;
        drop(dispatch_phase);

        // 4. Issue from each scheduler.
        let mut completed_ctas = 0;
        for s in 0..self.schedulers.len() {
            completed_ctas +=
                self.issue_one(s, now, kernel, decoded, gmem, rf_conflict, tracer, profiler);
        }
        completed_ctas
    }

    /// The first cycle after `now` at which the SM can change on its
    /// own, if nothing can change before it: no collector is occupied,
    /// every scheduler holds a verdict taken with a free collector that
    /// still stands, and no pipe completes at or before `now`. Until the
    /// earliest verdict expiry or pipe completion, no writeback is due,
    /// nothing arbitrates or dispatches, and no warp can issue. Only a
    /// CTA launch can intervene, and it wakes the SM.
    fn steady_until(&self, now: u64) -> Option<u64> {
        if self.oc.any_pending() {
            return None;
        }
        let mut until = u64::MAX;
        for v in &self.verdicts {
            match v {
                Some(v) if v.oc_free && now < v.until => until = until.min(v.until),
                _ => return None,
            }
        }
        match self.next_event() {
            Some(t) if t <= now => None,
            t => Some(until.min(t.unwrap_or(u64::MAX))),
        }
    }

    /// The first cycle at which this SM wakes (0: awake). Every poll
    /// before it sleeps.
    #[must_use]
    pub fn sleep_until(&self) -> u64 {
        self.sleep_until
    }

    /// One poll of a sleeping SM, charging exactly what the full cycle
    /// would: the empty collectors' arbitration advances their rotation,
    /// and each scheduler charges its held verdict. No hostprof phase is
    /// opened; the host time lands in the caller's. Debug builds check
    /// that the SM is still steady and every verdict still exact.
    fn sleep_poll(
        &mut self,
        now: u64,
        decoded: &DecodeTable,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) {
        self.check_sleep(now, decoded);
        self.oc.idle_arbitrations(1);
        for s in 0..self.verdicts.len() {
            let v = self.verdicts[s].expect("a sleeping SM holds every verdict");
            self.charge_stall(s, now, v, false, tracer, profiler);
        }
    }

    /// The `n` polls of cycles `from..from + n` at once, all of which
    /// must come before [`Sm::sleep_until`]: the same charges as `n`
    /// sleeping polls of [`Sm::cycle`] with the tracer and the profiler
    /// off (which record nothing for a stall), in O(1). Debug builds check
    /// the SM steady and every verdict exact at the first and the last
    /// of the cycles.
    pub fn sleep_through(&mut self, from: u64, n: u64, decoded: &DecodeTable) {
        debug_assert!(
            n > 0 && from + n <= self.sleep_until,
            "SM {} wakes inside the jump",
            self.id
        );
        self.check_sleep(from, decoded);
        self.check_sleep(from + n - 1, decoded);
        self.oc.idle_arbitrations(n);
        for (s, v) in self.verdicts.iter().enumerate() {
            let reason = v.expect("a sleeping SM holds every verdict").reason;
            self.stats.pipe.scheduler_idle_cycles += n;
            self.stats.pipe.stalls.add_n(reason, n);
            self.stats.sched[s].stalls.add_n(reason, n);
        }
    }

    /// The debug oracle for a sleeping poll at `now`: the SM must still
    /// be steady until the same cycle, and every verdict exact.
    fn check_sleep(&self, now: u64, decoded: &DecodeTable) {
        if cfg!(debug_assertions) {
            assert_eq!(
                self.steady_until(now),
                Some(self.sleep_until),
                "SM {} woke without an event at cycle {now}",
                self.id
            );
            for (s, v) in self.verdicts.iter().enumerate() {
                self.check_verdict(s, now, decoded, v.expect("steady"));
            }
        }
    }

    /// Earliest pending pipe completion on this SM: how long it may
    /// sleep at most.
    fn next_event(&self) -> Option<u64> {
        let mut t = self
            .alu_pipes
            .iter()
            .filter_map(Pipe::next_completion)
            .min();
        for c in [
            self.sfu_pipe.next_completion(),
            self.lsu_pipe.next_completion(),
        ] {
            t = match (t, c) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        t
    }

    // ---- issue ---------------------------------------------------------

    /// Attempts one issue from scheduler `s`. Returns completed CTAs.
    ///
    /// While the scheduler's cached [`Verdict`] holds, the cycle skips
    /// the pick and charges the cached answer. That is exact: a verdict
    /// is a miss's answer, and a miss leaves the GTO greedy pointer
    /// cleared and the LRR cursor in place, so the skipped pick would
    /// have missed the same way. Debug builds re-run the stall scan on
    /// every hit and every miss and assert the same verdict.
    #[allow(clippy::too_many_arguments)]
    fn issue_one(
        &mut self,
        s: usize,
        now: u64,
        kernel: &Kernel,
        decoded: &DecodeTable,
        gmem: &mut GlobalMemory,
        rf_conflict: bool,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) -> usize {
        let oc_free = self.oc.has_free_slot();
        // Warp pick and (on a miss) stall classification are the
        // scheduler's host cost; the issued path hands off to Execute.
        let sched_phase = hostprof::phase(hostprof::Phase::Scheduler);
        let verdict = match self.verdicts[s] {
            Some(v) if v.oc_free == oc_free && now < v.until => {
                if cfg!(debug_assertions) {
                    self.check_verdict(s, now, decoded, v);
                }
                v
            }
            _ => match self.pick(s, now, decoded, oc_free) {
                Ok(w) => {
                    drop(sched_phase);
                    self.stats.pipe.issued += 1;
                    self.stats.sched[s].issued += 1;
                    let _exec_phase = hostprof::phase(hostprof::Phase::Execute);
                    return self
                        .execute_instruction(w, s, now, kernel, decoded, gmem, tracer, profiler);
                }
                Err(v) => {
                    debug_assert_eq!(
                        v,
                        self.scan_stall(s, now, decoded, oc_free),
                        "scheduler {s}'s miss at cycle {now} disagrees with the stall scan"
                    );
                    self.verdicts[s] = Some(v);
                    v
                }
            },
        };
        self.charge_stall(s, now, verdict, rf_conflict, tracer, profiler);
        0
    }

    /// Scheduler `s`'s pick at `now`: tests its live slots by the
    /// policy's priority, refreshing each stale window on the way, and
    /// returns the first issuable slot. On a miss every live slot was
    /// tested, and the same pass classified why each could not issue;
    /// the verdict is read off those classes (see [`Sm::scan_stall`] for
    /// their order).
    fn pick(
        &mut self,
        s: usize,
        now: u64,
        decoded: &DecodeTable,
        oc_free: bool,
    ) -> Result<usize, Verdict> {
        let owned = self.schedulers[s].slots();
        let (mut mem, mut data, mut no_collector) = (0u64, 0u64, 0u64);
        let mut until = u64::MAX;
        for w in self.schedulers[s].order(self.ready.live) {
            if self.ready.dirty >> w & 1 != 0 {
                self.refresh(w, decoded);
            }
            let r = &self.ready;
            let clear_at = r.clear_at[w];
            if clear_at <= now {
                if oc_free || r.control >> w & 1 != 0 {
                    self.schedulers[s].issued(w);
                    return Ok(w);
                }
                no_collector |= 1 << w;
                continue;
            }
            // `mem_until <= clear_at`, so both edges lie ahead only
            // while the slot is blocked.
            until = until.min(clear_at);
            let mem_until = r.mem_until[w];
            if mem_until > now {
                until = until.min(mem_until);
                mem |= 1 << w;
            } else {
                data |= 1 << w;
            }
        }
        self.schedulers[s].missed();
        let lowest = |m: u64| (m != 0).then(|| m.trailing_zeros());
        let (reason, culprit) = if let Some(w) = lowest(no_collector) {
            (StallReason::NoCollector, Some(w))
        } else if let Some(w) = lowest(mem) {
            (StallReason::MemPending, Some(w))
        } else if let Some(w) = lowest(data) {
            (StallReason::Scoreboard, Some(w))
        } else if let Some(w) = lowest(self.ready.barrier & owned) {
            (StallReason::Barrier, Some(w))
        } else {
            (StallReason::Drained, None)
        };
        Err(Verdict {
            oc_free,
            until,
            reason,
            culprit,
        })
    }

    /// Recomputes live slot `w`'s cached window from the scoreboard.
    fn refresh(&mut self, w: usize, decoded: &DecodeTable) {
        let pc = self.warps[w].as_ref().expect("live slot").simt.pc();
        let instr = decoded.get(pc);
        let (clear_at, mem_until) = self.scoreboard.hazard_window(w, instr);
        let r = &mut self.ready;
        r.clear_at[w] = clear_at;
        r.mem_until[w] = mem_until;
        let bit = 1 << w;
        r.dirty &= !bit;
        if instr.unit == FuncUnit::Control {
            r.control |= bit;
        } else {
            r.control &= !bit;
        }
    }

    /// Charges one idle cycle of scheduler `s` to `verdict`: the
    /// per-pipe and per-scheduler stall ledgers, the profiler (at the
    /// culprit warp's head PC) and a [`TraceEvent::Stall`]. A collector
    /// stall becomes a bank conflict when this cycle's arbitration lost
    /// reads (`rf_conflict`).
    fn charge_stall(
        &mut self,
        s: usize,
        now: u64,
        verdict: Verdict,
        rf_conflict: bool,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) {
        let reason = match verdict.reason {
            StallReason::NoCollector if rf_conflict => StallReason::RfBankConflict,
            r => r,
        };
        let culprit = verdict.culprit;
        self.stats.pipe.scheduler_idle_cycles += 1;
        self.stats.pipe.stalls.add(reason);
        self.stats.sched[s].stalls.add(reason);
        if profiler.is_on() {
            // Charge the idle cycle to the instruction at the head of
            // the culprit warp; drained cycles have no culprit and land
            // in the profile's unattributed pool.
            let pc = culprit
                .and_then(|cw| self.warps[cw as usize].as_ref())
                .map(|warp| warp.simt.pc());
            profiler.record_stall(pc, reason);
        }
        let sm = self.id as u32;
        tracer.emit_with(now, || TraceEvent::Stall {
            sm,
            sched: s as u32,
            warp: culprit,
            reason,
        });
    }

    /// Classifies why scheduler `s` issued nothing this cycle, so that
    /// exactly one [`StallReason`] is charged and the breakdown sums to
    /// `scheduler_idle_cycles`. Returns the reason and, when one warp
    /// epitomizes it, that warp's slot index, plus how long the answer
    /// stands (see [`Verdict`]).
    ///
    /// Per-warp causes aggregate with back-of-pipe causes first — a
    /// warp held up by collector/bank pressure points at a structural
    /// bottleneck even if its siblings also wait on memory:
    /// collector-full (refined by the caller to bank-conflict when this
    /// cycle's arbitration lost reads) > memory pending > scoreboard >
    /// barrier > drained. Each cause's culprit is its lowest slot.
    ///
    /// This is the debug oracle of [`Sm::pick`]'s verdict: it walks the
    /// warps themselves, not the readiness masks, and classifies each
    /// from the polled [`Scoreboard::blocking_is_mem`], checking every
    /// cached window against it on the way.
    fn scan_stall(&self, s: usize, now: u64, decoded: &DecodeTable, oc_free: bool) -> Verdict {
        let mut barrier: Option<u32> = None;
        let mut mem: Option<u32> = None;
        let mut data: Option<u32> = None;
        let mut no_collector: Option<u32> = None;
        let mut until = u64::MAX;
        let owned = self.schedulers[s].slots();
        for (w, warp) in self.warps.iter().enumerate() {
            let Some(warp) = warp.as_ref().filter(|_| owned >> w & 1 != 0) else {
                continue;
            };
            assert!(!warp.is_done(), "warp {w} is done but resident");
            let bit = 1u64 << w;
            assert_eq!(
                self.ready.barrier & bit != 0,
                warp.at_barrier,
                "barrier mask of warp {w}"
            );
            assert_eq!(
                self.ready.live & bit != 0,
                !warp.at_barrier,
                "live mask of warp {w}"
            );
            if warp.at_barrier {
                barrier.get_or_insert(w as u32);
                continue;
            }
            assert_eq!(
                self.ready.dirty & bit,
                0,
                "a pick refreshes every live warp"
            );
            let instr = decoded.get(warp.simt.pc());
            let (clear_at, mem_until) = self.scoreboard.hazard_window(w, instr);
            assert_eq!(
                (self.ready.clear_at[w], self.ready.mem_until[w]),
                (clear_at, mem_until),
                "cached window of warp {w} diverged from its scoreboard at cycle {now}"
            );
            let polled = self.scoreboard.blocking_is_mem(w, instr, now);
            assert_eq!(
                self.ready.blocking_is_mem(w, now),
                polled,
                "cached readiness of warp {w} diverged from its scoreboard at cycle {now}"
            );
            for edge in [clear_at, mem_until] {
                if edge > now {
                    until = until.min(edge);
                }
            }
            match polled {
                Some(true) => {
                    mem.get_or_insert(w as u32);
                }
                Some(false) => {
                    data.get_or_insert(w as u32);
                }
                // Issuable by scoreboard rules, so only the collector
                // gate can have blocked it (control instructions never
                // reach here: the pick would have issued them).
                None => {
                    assert!(
                        !oc_free && instr.unit != FuncUnit::Control,
                        "scheduler {s} missed issuable warp {w} at cycle {now}"
                    );
                    no_collector.get_or_insert(w as u32);
                }
            }
        }
        let (reason, culprit) = if let Some(w) = no_collector {
            (StallReason::NoCollector, Some(w))
        } else if let Some(w) = mem {
            (StallReason::MemPending, Some(w))
        } else if let Some(w) = data {
            (StallReason::Scoreboard, Some(w))
        } else if let Some(w) = barrier {
            (StallReason::Barrier, Some(w))
        } else {
            (StallReason::Drained, None)
        };
        Verdict {
            oc_free,
            until,
            reason,
            culprit,
        }
    }

    /// The debug oracle for a verdict hit: no live warp of scheduler `s`
    /// may be stale or issuable, and a fresh scan must reach the cached
    /// verdict.
    fn check_verdict(&self, s: usize, now: u64, decoded: &DecodeTable, cached: Verdict) {
        let live = self.ready.live & self.schedulers[s].slots();
        assert_eq!(
            self.ready.dirty & live,
            0,
            "a warp of scheduler {s} changed without dropping its verdict"
        );
        for w in bits(live) {
            assert!(
                !self.ready.issuable(w, now, cached.oc_free),
                "cached verdict of scheduler {s} hides issuable warp {w} at cycle {now}"
            );
        }
        assert_eq!(
            self.scan_stall(s, now, decoded, cached.oc_free),
            cached,
            "cached verdict of scheduler {s} went stale at cycle {now}"
        );
    }

    /// Issues (and functionally executes) the instruction at warp `w`'s
    /// PC, picked by scheduler `s`. Returns completed CTAs.
    #[allow(clippy::too_many_arguments)]
    fn execute_instruction(
        &mut self,
        w: usize,
        s: usize,
        now: u64,
        kernel: &Kernel,
        decoded: &DecodeTable,
        gmem: &mut GlobalMemory,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) -> usize {
        let pc = self.warps[w]
            .as_ref()
            .expect("picked warp exists")
            .simt
            .pc();
        let instr = *kernel.instr(pc);
        let decode = decoded.get(pc);
        // Every issue arm below moves the PC (and ALU/memory issues
        // reserve destinations), so the cached readiness and the
        // scheduler's verdict go stale.
        self.ready.dirty |= 1 << w;
        self.verdicts[s] = None;
        let warp = self.warps[w].as_mut().expect("picked warp exists");
        let path_mask = warp.simt.active();
        // Guard predication narrows the executing mask.
        let guard_mask = if instr.guard.is_always() {
            u64::MAX
        } else {
            let p = warp.pred(instr.guard.pred);
            if instr.guard.negate {
                !p
            } else {
                p
            }
        };
        let mask = path_mask & guard_mask;
        let divergent = mask != warp.thread_mask;

        let lanes = mask.count_ones();
        self.stats.instr.warp_instrs += 1;
        self.stats.instr.thread_instrs += u64::from(lanes);
        if divergent {
            self.stats.instr.divergent_instrs += 1;
        }
        profiler.record_issue(pc, lanes, divergent);
        let unit = decode.unit;
        match unit {
            FuncUnit::Alu => self.stats.instr.alu_instrs += 1,
            FuncUnit::Sfu => self.stats.instr.sfu_instrs += 1,
            FuncUnit::Mem => self.stats.instr.mem_instrs += 1,
            FuncUnit::Control => self.stats.instr.ctrl_instrs += 1,
        }

        let sm_id = self.id as u32;
        tracer.emit_with(now, || TraceEvent::Issue {
            sm: sm_id,
            sched: s as u32,
            warp: w as u32,
            pc: pc as u32,
            unit: unit_kind(unit),
            // The vector/scalar decision for non-control instructions
            // is refined by a later ExecSpan event.
            mode: ModeKind::Vector,
            mask,
        });

        // Control flow resolves at issue. The SIMT-stack arms below all
        // return, so the guard covers exactly the control-flow work
        // (`None` on the fall-through path for other units).
        let simt_phase = matches!(
            instr.kind,
            InstrKind::Bra { .. } | InstrKind::Exit | InstrKind::Bar | InstrKind::Nop
        )
        .then(|| hostprof::phase(hostprof::Phase::Simt));
        match instr.kind {
            InstrKind::Bra { target } => {
                let reconv = kernel.reconvergence_pc(pc);
                // What-if idealization: uniform branches. When any lane
                // takes the branch the whole active path follows it, so
                // the SIMT stack never splits. This changes functional
                // execution (see `IdealConfig::uniform_branches`); loops
                // still terminate because their exit condition is
                // "no lane takes the back-edge", which forced-uniform
                // execution reaches once every lane's trip count drains.
                let bra_mask = if self.cfg.ideal.uniform_branches && mask != 0 {
                    path_mask
                } else {
                    mask
                };
                let depth_before = warp.simt.depth();
                let diverged = warp.simt.branch(bra_mask, target, pc + 1, reconv);
                profiler.record_branch(pc, diverged, lanes, (path_mask & !bra_mask).count_ones());
                drain_path_events(profiler, &warp.simt);
                if tracer.is_on() && !warp.simt.is_done() {
                    let depth = warp.simt.depth() as u32;
                    let next_pc = warp.simt.pc() as u32;
                    if diverged {
                        let taken = bra_mask;
                        let not_taken = path_mask & !bra_mask;
                        tracer.emit_with(now, || TraceEvent::SimtPush {
                            sm: sm_id,
                            warp: w as u32,
                            pc: pc as u32,
                            taken,
                            not_taken,
                            depth,
                        });
                    } else if (depth as usize) < depth_before {
                        tracer.emit_with(now, || TraceEvent::SimtPop {
                            sm: sm_id,
                            warp: w as u32,
                            pc: next_pc,
                            depth,
                        });
                    }
                }
                return 0;
            }
            InstrKind::Exit => {
                let depth_before = warp.simt.depth();
                warp.simt.exit(mask, pc + 1);
                drain_path_events(profiler, &warp.simt);
                if tracer.is_on() && !warp.simt.is_done() {
                    let depth = warp.simt.depth() as u32;
                    let next_pc = warp.simt.pc() as u32;
                    if (depth as usize) < depth_before {
                        tracer.emit_with(now, || TraceEvent::SimtPop {
                            sm: sm_id,
                            warp: w as u32,
                            pc: next_pc,
                            depth,
                        });
                    }
                }
                if warp.is_done() {
                    return self.retire_warp(w);
                }
                return 0;
            }
            InstrKind::Bar => {
                warp.simt.advance(pc + 1);
                drain_path_events(profiler, &warp.simt);
                warp.at_barrier = true;
                self.ready.live &= !(1 << w);
                self.ready.barrier |= 1 << w;
                let slot = warp.cta_slot;
                let cta = self.ctas[slot].as_mut().expect("warp's CTA is resident");
                cta.at_barrier += 1;
                if cta.at_barrier >= cta.warps_total - cta.warps_done {
                    self.release_barrier(slot);
                }
                return 0;
            }
            InstrKind::Nop => {
                warp.simt.advance(pc + 1);
                drain_path_events(profiler, &warp.simt);
                return 0;
            }
            _ => {}
        }
        drop(simt_phase);

        if mask == 0 {
            // Fully predicated-off: consumes the issue slot only.
            let warp = self.warps[w].as_mut().expect("picked warp exists");
            warp.simt.advance(pc + 1);
            drain_path_events(profiler, &warp.simt);
            return 0;
        }

        // ---- operand gathering + classification ----
        // Register reads run the compression machinery (regmeta, the
        // byte-wise/BDI comparison chains): Compressor host time.
        let compress_phase = hostprof::phase(hostprof::Phase::Compressor);
        let ws = self.cfg.warp_size;
        let mut all_scalar = !matches!(instr.kind, InstrKind::S2R { .. });
        let mut all_chunk_scalar = all_scalar;
        let mut reads = ReadSet::new();
        for &r in decode.srcs.iter() {
            let phys = self.phys_reg(w, r);
            let info = self.regmeta.read(phys, mask);
            let d_stored = self.regmeta.meta(phys).d;
            // Figure 8 histogram + scheme-independent energy accounting.
            self.record_rf_read(w, r, phys, &info, divergent, d_stored);
            if !info.scalar {
                all_scalar = false;
            }
            let chunk_ok = if d_stored {
                false
            } else if info.chunk_scalar.is_empty() {
                info.scalar
            } else {
                info.chunk_scalar.all()
            };
            if !chunk_ok {
                all_chunk_scalar = false;
            }
            // Port selection for the timing model.
            reads.push(self.read_port_for(phys, info.scalar, d_stored));
        }
        if let InstrKind::S2R { sreg, .. } = instr.kind {
            if Warp::sreg_uniform(sreg) {
                all_scalar = true;
                all_chunk_scalar = true;
            }
        }
        drop(compress_phase);

        let class = if divergent {
            // `ReadInfo::scalar` already encodes Section 4.2's rule: a
            // D-stored source is scalar only when its recorded mask
            // matches this instruction's mask.
            if all_scalar {
                ScalarClass::Divergent
            } else {
                ScalarClass::Vector
            }
        } else if all_scalar {
            match unit {
                FuncUnit::Alu => ScalarClass::Alu,
                FuncUnit::Sfu => ScalarClass::Sfu,
                FuncUnit::Mem => ScalarClass::Mem,
                FuncUnit::Control => ScalarClass::Vector,
            }
        } else if all_chunk_scalar {
            ScalarClass::Half
        } else {
            ScalarClass::Vector
        };
        self.stats.instr.record_class(class);
        profiler.record_class(pc, elig_class(class));

        let mode = match class {
            ScalarClass::Alu if self.arch.scalar_alu => ExecMode::Scalar,
            ScalarClass::Sfu if self.arch.scalar_sfu => ExecMode::Scalar,
            ScalarClass::Mem if self.arch.scalar_mem => ExecMode::Scalar,
            ScalarClass::Half if self.arch.scalar_half => ExecMode::Half,
            ScalarClass::Divergent if self.arch.scalar_divergent => ExecMode::Scalar,
            _ => ExecMode::Vector,
        };
        match mode {
            ExecMode::Scalar => self.stats.instr.executed_scalar += 1,
            ExecMode::Half => self.stats.instr.executed_half += 1,
            ExecMode::Vector => {}
        }

        // ---- functional execution ----
        // Scratch buffers borrowed off the SM so this per-instruction
        // path allocates nothing: `vals` holds the destination's lane
        // values, `mem_lines` the coalesced line addresses (recycled
        // through `line_pool` at writeback).
        let mut vals = std::mem::take(&mut self.exec_vals);
        let mut mem_lines = self.line_pool.pop().unwrap_or_default();
        let warp = self.warps[w].as_mut().expect("picked warp exists");
        // Sources that are all scalar hold one value across the active
        // lanes (`ReadInfo::scalar`; immediates and RZ are uniform), and
        // the ALU, SFU, compare and global-load arms below are pure
        // functions of their operands: evaluating them once, at the
        // first active lane, and broadcasting is exact.
        let uniform = all_scalar;
        let first = mask.trailing_zeros() as usize;
        if uniform && cfg!(debug_assertions) {
            check_uniform_sources(warp, &instr, decode, mask);
        }
        let line_bytes = self.cfg.line_bytes as u64;
        let mut result: Option<Reg> = None;
        let mut shared_access = false;
        let mut store = false;
        let mut extra_latency = 0u64;
        match instr.kind {
            InstrKind::Alu { op, dst, a, b, c } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                if uniform {
                    let v = exec::eval_alu(
                        op,
                        warp.operand(a, first),
                        warp.operand(b, first),
                        warp.operand(c, first),
                    );
                    broadcast(&mut vals, mask, v);
                } else {
                    let mut splat = [[0u32; MAX_LANES]; 3];
                    let [sa, sb, sc] = &mut splat;
                    exec::eval_alu_lanes(
                        op,
                        &mut vals,
                        mask,
                        warp.operand_lanes(a, sa),
                        warp.operand_lanes(b, sb),
                        warp.operand_lanes(c, sc),
                    );
                }
                if op == AluOp::IDiv {
                    extra_latency = self.cfg.lat.int_div - self.cfg.lat.int_alu;
                }
                result = Some(dst);
            }
            InstrKind::Sfu { op, dst, a } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                if uniform {
                    broadcast(&mut vals, mask, exec::eval_sfu(op, warp.operand(a, first)));
                } else {
                    for lane in bits(mask) {
                        vals[lane] = exec::eval_sfu(op, warp.operand(a, lane));
                    }
                }
                result = Some(dst);
            }
            InstrKind::Mov { dst, src } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                for lane in bits(mask) {
                    vals[lane] = warp.operand(src, lane);
                }
                result = Some(dst);
            }
            InstrKind::S2R { dst, sreg } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                for lane in bits(mask) {
                    vals[lane] = warp.sreg_value(sreg, lane, ws);
                }
                result = Some(dst);
            }
            InstrKind::SetP {
                cmp,
                float,
                dst,
                a,
                b,
            } => {
                let holds =
                    |lane| exec::eval_cmp(cmp, float, warp.operand(a, lane), warp.operand(b, lane));
                let taken = if uniform {
                    if holds(first) {
                        mask
                    } else {
                        0
                    }
                } else {
                    bits(mask)
                        .filter(|&lane| holds(lane))
                        .fold(0, |acc, lane| acc | 1 << lane)
                };
                warp.write_pred(dst, taken, mask);
            }
            InstrKind::Ld {
                space,
                dst,
                addr,
                offset,
            } => {
                warp.fill_reg_or_zero(dst, &mut vals);
                let slot = warp.cta_slot;
                match space {
                    Space::Global if uniform => {
                        let a = lane_addr(warp, addr, offset, first);
                        broadcast(&mut vals, mask, gmem.read_u32(a));
                        push_line(&mut mem_lines, a, line_bytes);
                    }
                    Space::Global => {
                        let addrs = lane_addrs(warp, addr, offset, mask);
                        gmem.read_lanes(&addrs, mask, &mut vals);
                        for lane in bits(mask) {
                            push_line(&mut mem_lines, addrs[lane], line_bytes);
                        }
                    }
                    Space::Shared => {
                        shared_access = true;
                        let shared = &self.ctas[slot].as_ref().expect("CTA resident").shared;
                        for lane in bits(mask) {
                            let a = lane_addr(warp, addr, offset, lane) as u32;
                            vals[lane] = shared.read_u32(a);
                        }
                    }
                }
                result = Some(dst);
            }
            InstrKind::St {
                space,
                src,
                addr,
                offset,
            } => {
                store = true;
                let slot = warp.cta_slot;
                match space {
                    Space::Global => {
                        let addrs = lane_addrs(warp, addr, offset, mask);
                        gmem.write_lanes(&addrs, mask, warp.reg(src.index()));
                        for lane in bits(mask) {
                            push_line(&mut mem_lines, addrs[lane], line_bytes);
                        }
                    }
                    Space::Shared => {
                        shared_access = true;
                        // Reads come from the warp, writes go to the
                        // CTA's shared memory — disjoint SM fields, so
                        // no intermediate (addr, value) buffer is
                        // needed.
                        let warp = self.warps[w].as_ref().expect("picked warp exists");
                        let shared = &mut self.ctas[slot].as_mut().expect("CTA resident").shared;
                        for lane in bits(mask) {
                            let a = lane_addr(warp, addr, offset, lane) as u32;
                            shared.write_u32(a, warp.reg(src.index())[lane]);
                        }
                    }
                }
            }
            InstrKind::Bra { .. } | InstrKind::Bar | InstrKind::Exit | InstrKind::Nop => {
                unreachable!("control handled above")
            }
        }

        // Commit the register result functionally and through the
        // compression metadata.
        let commit_phase = hostprof::phase(hostprof::Phase::Compressor);
        let mut wb_bank = NO_WRITE_PORT;
        if let Some(dst) = result {
            if !dst.is_zero() {
                let warp_mut = self.warps[w].as_mut().expect("picked warp exists");
                warp_mut.write_reg(dst.index(), &vals, mask);
                // `vals` started as the destination's full contents and
                // only active lanes were overwritten, so after the
                // masked write it *is* the register's post-write state —
                // no second snapshot needed.
                let phys = self.phys_reg(w, dst);
                let winfo = self.regmeta.write(phys, &vals, mask);
                if winfo.stored != Encoding::Scalar || winfo.divergent {
                    wb_bank = u8::try_from(self.bank_of(phys)).expect("banks number at most 64");
                }
                let warp_size = self.cfg.warp_size;
                tracer.emit_with(now, || TraceEvent::CompressWrite {
                    sm: sm_id,
                    warp: w as u32,
                    reg: u32::from(dst.index()),
                    encoding: encoding_tag(winfo.enc),
                    bytes: winfo.enc.compressed_bytes(warp_size) as u32,
                    uniform: winfo.enc.is_scalar(),
                });
                if winfo.decompress_move {
                    // Section 3.3: the compiler-assisted variant elides
                    // the move when the destination's previous value is
                    // provably dead.
                    let assisted =
                        self.arch.compiler_assisted_moves && !kernel.value_live_after(pc, dst);
                    tracer.emit_with(now, || TraceEvent::Decompress {
                        sm: sm_id,
                        warp: w as u32,
                        pc: pc as u32,
                        assisted,
                    });
                    if assisted {
                        self.stats.instr.decompress_moves_elided += 1;
                    } else {
                        self.stats.instr.decompress_moves += 1;
                        // The injected move reads+writes the full register.
                        let total = self.cfg.arrays_per_bank() as u64;
                        self.stats.rf.ours_arrays += 2 * total;
                        self.stats.rf.ours_bvr += 2;
                        extra_latency += 2;
                    }
                }
                self.record_rf_write(phys, &winfo, &vals, mask, divergent);
                profiler.record_write(
                    pc,
                    encoding_tag(winfo.enc),
                    (self.cfg.warp_size * 4) as u64,
                    winfo.enc.compressed_bytes(self.cfg.warp_size) as u64,
                    divergent,
                );
            }
        }
        drop(commit_phase);
        // Hand the value scratch back for the next instruction.
        self.exec_vals = vals;

        // Advance the PC past this instruction.
        let warp = self.warps[w].as_mut().expect("picked warp exists");
        warp.simt.advance(pc + 1);
        drain_path_events(profiler, &warp.simt);
        self.scoreboard.reserve(w, decode, now);

        // Exec-unit energy accounting.
        self.account_exec(&instr, mask, mode);

        // Queue into an operand collector.
        let latency = match unit {
            FuncUnit::Alu => self.alu_latency(&instr) + extra_latency,
            // What-if idealization: a zero-latency SFU still occupies
            // its dispatch port but completes in a single cycle.
            FuncUnit::Sfu if self.cfg.ideal.zero_latency_sfu => 1,
            FuncUnit::Sfu => self.cfg.lat.sfu + extra_latency,
            FuncUnit::Mem | FuncUnit::Control => 0,
        };
        self.stats.pipe.oc_allocs += 1;
        self.oc.insert(OcEntry {
            payload: Inflight {
                mem_lines,
                mask,
                pc: u32::try_from(pc).expect("PCs fit 32 bits"),
                latency: u32::try_from(latency).expect("result latency fits 32 bits"),
                warp: u8::try_from(w).expect("warp slots number at most 64"),
                gen: self.launch_gen[w],
                wb_bank,
                mode,
                unit,
                shared: shared_access,
                store,
            },
            reads,
        });
        0
    }

    fn read_port_for(&self, phys: usize, scalar: bool, d_stored: bool) -> ReadReq {
        let bank = self.bank_of(phys);
        if scalar && !d_stored {
            if self.arch.dedicated_scalar_rf {
                return ReadReq::scalar_rf();
            }
            if self.arch.compression {
                return ReadReq::bvr(bank);
            }
        }
        ReadReq::data(bank)
    }

    fn record_rf_read(
        &mut self,
        w: usize,
        r: Reg,
        phys: usize,
        info: &gscalar_compress::ReadInfo,
        divergent_access: bool,
        d_stored: bool,
    ) {
        let total = self.cfg.arrays_per_bank() as u64;
        let s = &mut self.stats.rf;
        s.reads += 1;
        s.baseline_arrays += total;
        s.ours_arrays += info.arrays_read as u64;
        s.ours_bvr += u64::from(info.bvr_read);
        s.xbar_bytes_baseline += (self.cfg.warp_size * 4) as u64;
        s.xbar_bytes_ours += (info.arrays_read * 16) as u64 + u64::from(info.bvr_read) * 4;
        if info.arrays_read < self.cfg.arrays_per_bank() {
            s.decompressor_ops += 1;
        }
        if info.scalar && !d_stored {
            s.scalar_rf_small += 1;
        } else {
            s.scalar_rf_arrays += total;
        }
        // BDI (W-C) comparison and Figure 8 classification of the
        // current contents, as recorded by the write that produced
        // them (computed here only when that write could not).
        let vals = self.warps[w]
            .as_ref()
            .expect("reading warp exists")
            .reg(r.index());
        let class = &mut self.rf_class[phys];
        if class.bdi_arrays == u8::MAX {
            class.bdi_arrays = u8::try_from(bdi::compress(vals).arrays_active(16))
                .expect("a register spans at most 16 arrays");
        }
        s.bdi_arrays += u64::from(class.bdi_arrays);
        if divergent_access {
            s.histogram.record_divergent();
        } else {
            let warp_size = self.cfg.warp_size;
            let enc = *class
                .enc
                .get_or_insert_with(|| bytewise::encode(vals, crate::full_mask(warp_size)));
            s.histogram.record(enc);
        }
    }

    fn record_rf_write(
        &mut self,
        phys: usize,
        winfo: &gscalar_compress::WriteInfo,
        vals: &[u32],
        mask: u64,
        divergent: bool,
    ) {
        let total = self.cfg.arrays_per_bank() as u64;
        let s = &mut self.stats.rf;
        s.writes += 1;
        s.baseline_arrays += if divergent {
            self.regmeta.baseline_arrays_for_mask(mask) as u64
        } else {
            total
        };
        s.ours_arrays += winfo.arrays_written as u64;
        s.ours_bvr += u64::from(winfo.bvr_written);
        s.compressor_ops += 1;
        s.xbar_bytes_baseline += (self.cfg.warp_size * 4) as u64;
        s.xbar_bytes_ours += (winfo.arrays_written * 16) as u64 + 4;
        if winfo.enc.is_scalar() && !divergent {
            s.scalar_rf_small += 1;
        } else if divergent {
            s.scalar_rf_arrays += self.regmeta.baseline_arrays_for_mask(mask) as u64;
        } else {
            s.scalar_rf_arrays += total;
        }
        // A full-mask uniform write holds one value in every lane.
        let full = mask == crate::full_mask(self.cfg.warp_size);
        let bdi_res = if full && winfo.enc == Encoding::Scalar {
            bdi::uniform(vals[0], vals.len())
        } else {
            bdi::compress(vals)
        };
        let bdi_arrays =
            u8::try_from(bdi_res.arrays_active(16)).expect("a register spans at most 16 arrays");
        s.bdi_arrays += u64::from(bdi_arrays);
        // `vals` is the register's full post-write contents, so this
        // classifies what later reads see. `winfo.enc` covers only the
        // written lanes, which is the full-mask encoding only for a
        // full-mask write.
        self.rf_class[phys] = RfClass {
            bdi_arrays,
            enc: full.then_some(winfo.enc),
        };
        if divergent {
            s.histogram.record_divergent();
        } else {
            s.histogram.record(winfo.enc);
            s.raw_bytes += (self.cfg.warp_size * 4) as u64;
            s.ours_bytes += winfo.enc.compressed_bytes(self.cfg.warp_size) as u64;
            s.bdi_bytes += bdi_res.bytes as u64;
        }
    }

    fn account_exec(&mut self, instr: &Instr, mask: u64, mode: ExecMode) {
        let active = mask.count_ones() as u64;
        let lanes_driven = match mode {
            ExecMode::Vector => active,
            ExecMode::Scalar => 1,
            ExecMode::Half => (self.cfg.warp_size / gscalar_compress::CHUNK_LANES) as u64,
        };
        let saved = active.saturating_sub(lanes_driven);
        let e = &mut self.stats.exec;
        match instr.kind {
            InstrKind::Sfu { .. } => {
                e.sfu_lane_ops += lanes_driven;
                e.sfu_lane_ops_saved += saved;
            }
            InstrKind::Alu { op, .. } if op.is_float() => {
                e.fp_lane_ops += lanes_driven;
                e.fp_lane_ops_saved += saved;
            }
            _ => {
                e.int_lane_ops += lanes_driven;
                e.int_lane_ops_saved += saved;
            }
        }
    }

    // ---- dispatch ------------------------------------------------------

    fn dispatch(
        &mut self,
        inst: Inflight,
        now: u64,
        memsys: &mut MemSystem,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) {
        let threads = self.cfg.warp_size;
        let sm_id = self.id as u32;
        let pc = inst.pc as usize;
        let span = |inst: &Inflight, end: u64| TraceEvent::ExecSpan {
            sm: sm_id,
            warp: u32::from(inst.warp),
            pc: inst.pc,
            unit: unit_kind(inst.unit),
            mode: inst.mode.trace_kind(),
            end,
        };
        // The paper's design clock-gates lanes during scalar execution
        // but dispatches over the normal number of cycles; the optional
        // fast-dispatch mode models the Section 6 one-cycle opportunity.
        let fast = self.arch.scalar_fast_dispatch && inst.mode != ExecMode::Vector;
        match inst.unit {
            FuncUnit::Alu => {
                let occupancy = if fast {
                    1
                } else {
                    self.alu_pipes[0].occupancy(threads)
                };
                let latency = u64::from(inst.latency);
                profiler.record_latency(pc, occupancy.max(1) + latency);
                tracer.emit_with(now, || span(&inst, now + occupancy.max(1) + latency));
                let pipe = self
                    .alu_pipes
                    .iter_mut()
                    .find(|p| p.can_dispatch(now))
                    .expect("dispatch gated on a free ALU port");
                pipe.dispatch(now, occupancy, latency, inst);
            }
            FuncUnit::Sfu => {
                let occupancy = if fast {
                    1
                } else {
                    self.sfu_pipe.occupancy(threads)
                };
                let latency = u64::from(inst.latency);
                profiler.record_latency(pc, occupancy.max(1) + latency);
                tracer.emit_with(now, || span(&inst, now + occupancy.max(1) + latency));
                self.sfu_pipe.dispatch(now, occupancy, latency, inst);
            }
            FuncUnit::Mem => {
                // The LSU only processes active lanes (divergent memory
                // accesses dispatch in fewer beats).
                let occupancy = if fast {
                    1
                } else {
                    self.lsu_pipe
                        .occupancy((inst.mask.count_ones() as usize).max(1))
                };
                self.lsu_pipe.reserve_dispatch(now, occupancy);
                let mut finish = now + occupancy + self.cfg.lat.l1_hit;
                if inst.shared {
                    finish = now + occupancy + self.cfg.lat.shared_mem;
                    self.stats.mem.shared_accesses += 1;
                } else {
                    if inst.mem_lines.len() == 1 {
                        self.stats.mem.fully_coalesced += 1;
                    }
                    let _mem_phase = hostprof::phase(hostprof::Phase::Memsys);
                    for &line in &inst.mem_lines {
                        let t = memsys.access(
                            self.id,
                            line,
                            inst.store,
                            now,
                            &mut self.stats.mem,
                            tracer,
                        );
                        finish = finish.max(t);
                    }
                }
                profiler.record_latency(pc, finish.saturating_sub(now));
                tracer.emit_with(now, || span(&inst, finish));
                self.lsu_pipe.complete_at(finish, inst);
            }
            FuncUnit::Control => unreachable!("control never reaches dispatch"),
        }
    }

    fn alu_latency(&self, instr: &Instr) -> u64 {
        match instr.kind {
            InstrKind::Alu { op, .. } => match op {
                AluOp::IMul | AluOp::IMad => self.cfg.lat.int_mul,
                op if op.is_float() => self.cfg.lat.fp_alu,
                _ => self.cfg.lat.int_alu,
            },
            _ => self.cfg.lat.int_alu,
        }
    }

    /// Releases every warp of CTA `slot` waiting at its barrier.
    fn release_barrier(&mut self, slot: usize) {
        self.ctas[slot].as_mut().expect("CTA resident").at_barrier = 0;
        let mut released = 0;
        for other in self.warps.iter_mut().flatten() {
            if other.cta_slot == slot {
                other.at_barrier = false;
                released |= 1 << other.id;
            }
        }
        self.ready.barrier &= !released;
        self.ready.live |= released;
        // The released warps may belong to any scheduler.
        self.verdicts.fill(None);
    }

    /// Retires a finished warp; returns completed CTAs (0 or 1).
    fn retire_warp(&mut self, w: usize) -> usize {
        let slot = self.warps[w]
            .as_ref()
            .expect("retiring warp exists")
            .cta_slot;
        self.warps[w] = None;
        // The scheduler must forget a retired warp: its GTO greedy
        // pointer would otherwise give the next warp launched into this
        // slot priority over older siblings (and charge stalls to the
        // dead warp's stale head PC while the slot is empty).
        self.schedulers[w % self.cfg.schedulers].retire(w);
        self.ready.live &= !(1 << w);
        let cta = self.ctas[slot].as_mut().expect("warp's CTA resident");
        cta.warps_done += 1;
        // A warp exiting may release a barrier its siblings wait on.
        if cta.at_barrier > 0 && cta.at_barrier >= cta.warps_total - cta.warps_done {
            self.release_barrier(slot);
        }
        let cta = self.ctas[slot].as_ref().expect("warp's CTA resident");
        if cta.warps_done == cta.warps_total {
            self.ctas[slot] = None;
            return 1;
        }
        0
    }
}

/// Computes a lane's effective byte address.
fn lane_addr(warp: &Warp, addr: Reg, offset: i32, lane: usize) -> u64 {
    let base = warp.operand(Operand::Reg(addr), lane);
    (u64::from(base)).wrapping_add(offset as i64 as u64)
}

/// Every active lane's effective byte address (other lanes: 0).
fn lane_addrs(warp: &Warp, addr: Reg, offset: i32, mask: u64) -> [u64; MAX_LANES] {
    let mut addrs = [0u64; MAX_LANES];
    for lane in bits(mask) {
        addrs[lane] = lane_addr(warp, addr, offset, lane);
    }
    addrs
}

/// Writes `v` to every lane of `mask`.
fn broadcast(vals: &mut [u32], mask: u64, v: u32) {
    for (lane, d) in vals.iter_mut().enumerate() {
        if mask >> lane & 1 != 0 {
            *d = v;
        }
    }
}

/// The debug oracle of uniform-once execution: every active lane of
/// every source register holds the first active lane's value.
fn check_uniform_sources(warp: &Warp, instr: &Instr, decode: &DecodedInstr, mask: u64) {
    let first = mask.trailing_zeros() as usize;
    for &r in decode.srcs.iter() {
        let lanes = warp.reg(r.index());
        for lane in bits(mask) {
            assert_eq!(
                lanes[lane], lanes[first],
                "source {r:?} of scalar-classified {instr:?} differs at lane {lane} (mask {mask:#x})"
            );
        }
    }
}

/// Adds the cache line of `addr` to `lines` if not yet present.
fn push_line(lines: &mut Vec<u64>, addr: u64, line_bytes: u64) {
    let line = addr / line_bytes * line_bytes;
    if !lines.contains(&line) {
        lines.push(line);
    }
}

impl Warp {
    /// Fills `out` with `dst`'s current lane values, or zeros for RZ
    /// (whose writes are discarded but must not index the register
    /// array). Reuses the caller's buffer — the per-instruction hot
    /// path must not allocate.
    fn fill_reg_or_zero(&self, dst: Reg, out: &mut Vec<u32>) {
        out.clear();
        if dst.is_zero() {
            out.resize(self.warp_size(), 0);
        } else {
            out.extend_from_slice(self.reg(dst.index()));
        }
    }

    /// The value `op` has at `lane` (RZ reads zero).
    fn operand(&self, op: Operand, lane: usize) -> u32 {
        match op {
            Operand::Reg(r) if r.is_zero() => 0,
            Operand::Reg(r) => self.reg(r.index())[lane],
            Operand::Imm(v) => v,
        }
    }

    /// `op`'s lane values: a register's own lanes, or an immediate (or
    /// RZ's zero) written into `splat`.
    fn operand_lanes<'a>(&'a self, op: Operand, splat: &'a mut [u32; MAX_LANES]) -> &'a [u32] {
        match op {
            Operand::Reg(r) if !r.is_zero() => self.reg(r.index()),
            _ => {
                let lanes = &mut splat[..self.warp_size()];
                lanes.fill(self.operand(op, 0));
                lanes
            }
        }
    }
}
