//! The full GPU: SMs, the CTA scheduler, and the run driver.
//!
//! A run is a loop of simulated cycles: each cycle steps every SM in id
//! order straight against the shared global memory and memory system,
//! then the driver ends the cycle. Everything around the SM steps — CTA
//! fill and refill, activity detection, the idle skip, trace snapshots,
//! observer samples, the budget, the watchdog and the final merge — is
//! the driver's.

use std::ops::ControlFlow;

use gscalar_hostprof as hostprof;
use gscalar_isa::{Dim3, Kernel, LaunchConfig};
use gscalar_profile::Profiler;
use gscalar_trace::{TraceEvent, Tracer};

use crate::config::{ArchConfig, GpuConfig};
use crate::live::LiveObserver;
use crate::memory::GlobalMemory;
use crate::memsys::MemSystem;
use crate::sm::Sm;
use crate::stats::Stats;

/// Safety valve: a run exceeding this many cycles panics instead of
/// spinning forever (a workload bug, not a hardware condition).
const WATCHDOG_CYCLES: u64 = 2_000_000_000;

/// Budget-check cadence of a budgeted run that sets no
/// [`Instruments::sample_interval`] of its own (or the budget itself,
/// when smaller).
const BUDGET_CHECK_INTERVAL: u64 = 4096;

/// Receives interval samples and the final state of a simulation run.
///
/// Implementations feed metrics registries and power timelines without
/// the run loop knowing about either. The driver calls
/// [`sample`](RunObserver::sample) with *cumulative* merged-across-SMs
/// statistics each time the clock crosses a multiple of
/// [`Instruments::sample_interval`] (idle-skip jumps may cross several
/// boundaries; one sample at the latest boundary is delivered, since
/// the counters are cumulative), and [`finish`](RunObserver::finish)
/// exactly once at the end of a run that completes.
pub trait RunObserver {
    /// One interval sample: `stats` is the cumulative merged state of
    /// every SM with `stats.cycles` set to the boundary cycle.
    fn sample(&mut self, cycle: u64, stats: &Stats);

    /// Per-SM detail of one interval sample: called once per SM (in SM
    /// id order) immediately before the merged [`sample`] at the same
    /// boundary, with that SM's own cumulative statistics. The default
    /// does nothing, so observers that only need the merged view are
    /// unaffected.
    ///
    /// [`sample`]: RunObserver::sample
    fn sample_sm(&mut self, cycle: u64, sm: usize, stats: &Stats) {
        let _ = (cycle, sm, stats);
    }

    /// The run is complete: `merged` is the final aggregate (identical
    /// to the run's return value) and `per_sm` holds each SM's own
    /// statistics.
    fn finish(&mut self, cycle: u64, merged: &Stats, per_sm: &[Stats]) {
        let _ = (cycle, merged, per_sm);
    }
}

/// A simulation was aborted because it crossed its simulated-cycle
/// budget (see [`Instruments::budget`]).
///
/// The abort is *deterministic*: it triggers on simulated cycles, not
/// wall time, so a budgeted run fails identically on every machine and
/// thread count — the property the sweep engine's byte-identical
/// manifests rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// Simulated cycles when the budget tripped (the first sample
    /// boundary at or past the budget).
    pub cycles: u64,
    /// The budget that applied.
    pub budget: u64,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle budget exceeded: {} simulated of {} allowed",
            self.cycles, self.budget
        )
    }
}

/// Everything a run records besides its result, and the budget that
/// may cut it short: the one argument of [`Gpu::run_with`].
/// [`Instruments::default`] records nothing and sets no budget.
///
/// Instruments only read the simulation: no field changes what the
/// engine computes, only what it reports.
pub struct Instruments<'a> {
    /// Cycle-level event sink ([`Tracer::off`] records nothing).
    pub tracer: Tracer<'a>,
    /// While tracing, a [`TraceEvent::Snapshot`] with cumulative per-SM
    /// counters is emitted each time the clock crosses a multiple of
    /// this many cycles (0 = none; an idle skip crossing several
    /// multiples emits one snapshot, at the latest).
    pub snapshot_interval: u64,
    /// Per-static-instruction profiler ([`Profiler::off`] records
    /// nothing); read it back with [`Profiler::into_profile`].
    pub profiler: Profiler,
    /// Observers of the run, called in order at every sample and once
    /// at the end (see [`RunObserver`]).
    pub observers: Vec<&'a mut dyn RunObserver>,
    /// Live telemetry for the run (a sweep job starts it from its
    /// job's stream). It observes ahead of `observers` and
    /// downsamples internally, so it never changes the run's cadence:
    /// only a run with no cadence of its own (no `sample_interval`, no
    /// `budget`, no `observers`) samples at the stream's.
    pub live: Option<LiveObserver>,
    /// Observers are sampled, and the budget checked, each time the
    /// clock crosses a multiple of this many cycles (0 = never; a
    /// budgeted run then checks every `min(budget, 4096)` cycles).
    pub sample_interval: u64,
    /// Simulated-cycle budget (0 = none): the run returns
    /// [`BudgetExceeded`] at the first sample boundary at or past it,
    /// after the observers have seen that sample and without calling
    /// [`RunObserver::finish`] (the `live` stream still ends the run with
    /// its `run_end` at that boundary).
    pub budget: u64,
}

impl Default for Instruments<'_> {
    fn default() -> Self {
        Instruments {
            tracer: Tracer::off(),
            snapshot_interval: 0,
            profiler: Profiler::off(),
            observers: Vec::new(),
            live: None,
            sample_interval: 0,
            budget: 0,
        }
    }
}

impl Instruments<'_> {
    fn observed(&self) -> bool {
        self.live.is_some() || !self.observers.is_empty()
    }

    /// Calls `f` on every observer of the run, live telemetry first.
    fn watch(&mut self, mut f: impl FnMut(&mut dyn RunObserver)) {
        if let Some(live) = &mut self.live {
            f(live);
        }
        for o in &mut self.observers {
            f(&mut **o);
        }
    }
}

/// A complete GPU executing one kernel launch at a time.
///
/// # Examples
///
/// ```
/// use gscalar_isa::{KernelBuilder, LaunchConfig, Operand};
/// use gscalar_sim::{Gpu, GpuConfig, ArchConfig, memory::GlobalMemory};
///
/// let mut b = KernelBuilder::new("tiny");
/// b.mov(Operand::Imm(7));
/// b.exit();
/// let kernel = b.build().unwrap();
///
/// let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
/// let mut mem = GlobalMemory::new();
/// let stats = gpu.run(&kernel, LaunchConfig::linear(2, 64), &mut mem);
/// assert!(stats.cycles > 0);
/// assert!(stats.instr.warp_instrs >= 4); // 2 CTAs × 2 warps × ≥1 instr
/// ```
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    arch: ArchConfig,
}

impl Gpu {
    /// Creates a GPU with the given hardware and architecture
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`GpuConfig::validate`].
    #[must_use]
    pub fn new(cfg: GpuConfig, arch: ArchConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid GpuConfig: {e}");
        }
        Gpu { cfg, arch }
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The architecture flags.
    #[must_use]
    pub fn arch(&self) -> &ArchConfig {
        &self.arch
    }

    /// Runs `kernel` over `launch` against `gmem`, returning aggregate
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics if a CTA cannot fit on an empty SM (CTA too large for the
    /// configuration) or the watchdog trips.
    pub fn run(&mut self, kernel: &Kernel, launch: LaunchConfig, gmem: &mut GlobalMemory) -> Stats {
        self.run_with(kernel, launch, gmem, &mut Instruments::default())
            .expect("a run without a budget cannot exceed it")
    }

    /// [`Gpu::run`] with `ins` attached: tracing, profiling, observers
    /// and a cycle budget (see [`Instruments`]).
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when the run crossed `ins.budget`.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Gpu::run`].
    pub fn run_with(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        gmem: &mut GlobalMemory,
        ins: &mut Instruments<'_>,
    ) -> Result<Stats, BudgetExceeded> {
        let mut sms: Vec<Sm> = (0..self.cfg.num_sms)
            .map(|i| Sm::new(i, &self.cfg, &self.arch, kernel.num_regs() as usize))
            .collect();
        let mut memsys = MemSystem::new(&self.cfg);
        let mut driver = Driver::start(&self.cfg, kernel, launch, ins, &mut sms);
        let mut now = 0;
        loop {
            for sm in &mut sms {
                driver.step(sm, now, gmem, &mut memsys, ins);
            }
            match driver.end_cycle(now, &mut sms, ins) {
                ControlFlow::Continue(next) => now = next,
                ControlFlow::Break(result) => return result,
            }
        }
    }
}

/// The steps of a run around the SMs' own cycles: the CTA fill, each
/// SM's cycle and refill, and everything between one cycle and the next.
struct Driver<'k> {
    kernel: &'k Kernel,
    launch: LaunchConfig,
    warps_per_cta: usize,
    total_ctas: u64,
    next_cta: u64,
    ctas_done: u64,
    /// Whether any SM stepped so far this cycle was active.
    any_activity: bool,
    /// The cadence of observer samples and budget checks.
    sample_interval: u64,
    last_snapshot: u64,
    last_sample: u64,
}

impl<'k> Driver<'k> {
    /// Starts a run: fills `sms` round-robin with the launch's first
    /// CTAs, in linear CTA order.
    ///
    /// # Panics
    ///
    /// Panics if a CTA does not fit on an empty SM.
    fn start(
        cfg: &GpuConfig,
        kernel: &'k Kernel,
        launch: LaunchConfig,
        ins: &Instruments<'_>,
        sms: &mut [Sm],
    ) -> Self {
        let threads = launch.threads_per_cta() as usize;
        let sample_interval = match ins.sample_interval {
            0 if ins.budget > 0 => ins.budget.min(BUDGET_CHECK_INTERVAL),
            0 if ins.observers.is_empty() => {
                ins.live.as_ref().map_or(0, LiveObserver::sample_interval)
            }
            n => n,
        };
        let mut driver = Driver {
            kernel,
            launch,
            warps_per_cta: threads.div_ceil(cfg.warp_size),
            total_ctas: launch.grid.count(),
            next_cta: 0,
            ctas_done: 0,
            any_activity: false,
            sample_interval,
            last_snapshot: 0,
            last_sample: 0,
        };
        let _fill_phase = hostprof::phase(hostprof::Phase::CtaLaunch);
        let mut progress = true;
        while progress {
            progress = false;
            for sm in sms.iter_mut() {
                progress |= driver.launch_next(sm);
            }
        }
        assert!(
            driver.next_cta > 0,
            "CTA of {threads} threads does not fit the configuration"
        );
        driver
    }

    /// Launches the next CTA on `sm` if one remains and fits.
    fn launch_next(&mut self, sm: &mut Sm) -> bool {
        let fits = self.next_cta < self.total_ctas
            && sm.can_accept_cta(self.warps_per_cta, self.kernel.shared_mem_bytes());
        if fits {
            let grid = self.launch.grid;
            sm.launch_cta(
                self.kernel,
                cta_coord(self.next_cta, grid),
                grid,
                self.launch.block,
            );
            self.next_cta += 1;
        }
        fits
    }

    /// Runs cycle `now` of `sm` and refills the CTAs it completed. Every
    /// SM steps once per cycle, in id order, before
    /// [`Driver::end_cycle`].
    fn step(
        &mut self,
        sm: &mut Sm,
        now: u64,
        gmem: &mut GlobalMemory,
        memsys: &mut MemSystem,
        ins: &mut Instruments<'_>,
    ) {
        let before = sm.stats.pipe.issued + sm.stats.pipe.oc_allocs;
        let completed = sm.cycle(
            now,
            self.kernel,
            gmem,
            memsys,
            &mut ins.tracer,
            &mut ins.profiler,
        ) as u64;
        // Completing a CTA, issuing, allocating an operand collector or
        // holding a pending one rules out the idle skip.
        self.any_activity |= completed > 0
            || sm.stats.pipe.issued + sm.stats.pipe.oc_allocs != before
            || sm.collectors_pending();
        if completed > 0 {
            self.ctas_done += completed;
            let _fill_phase = hostprof::phase(hostprof::Phase::CtaLaunch);
            while self.launch_next(sm) {}
        }
    }

    /// Ends cycle `now` once every SM has stepped it: either
    /// finishes the run or advances the clock — one cycle, or past an
    /// idle stretch — emitting the snapshots and samples whose
    /// boundaries it crossed. Continues with the next cycle to run, or
    /// breaks with the run's result.
    fn end_cycle(
        &mut self,
        now: u64,
        sms: &mut [Sm],
        ins: &mut Instruments<'_>,
    ) -> ControlFlow<Result<Stats, BudgetExceeded>, u64> {
        if self.ctas_done >= self.total_ctas {
            return ControlFlow::Break(Ok(finish(now + 1, sms, ins)));
        }
        let now = if std::mem::take(&mut self.any_activity) {
            now + 1
        } else {
            skip_idle(now, sms)
        };
        self.snapshot(now, sms, ins);
        if let Some(exceeded) = self.sample(now, sms, ins) {
            return ControlFlow::Break(Err(exceeded));
        }
        assert!(now < WATCHDOG_CYCLES, "simulation watchdog tripped");
        ControlFlow::Continue(now)
    }

    /// Emits one [`TraceEvent::Snapshot`] per SM when `now` crossed a
    /// snapshot boundary.
    fn snapshot(&mut self, now: u64, sms: &[Sm], ins: &mut Instruments<'_>) {
        if !ins.tracer.is_on() {
            return;
        }
        let Some(intervals) = now.checked_div(ins.snapshot_interval) else {
            return;
        };
        let boundary = intervals * ins.snapshot_interval;
        if boundary <= self.last_snapshot {
            return;
        }
        let _snap_phase = hostprof::phase(hostprof::Phase::Snapshot);
        self.last_snapshot = boundary;
        for (id, sm) in (0..).zip(sms) {
            let s = &sm.stats;
            ins.tracer.emit_with(boundary, || TraceEvent::Snapshot {
                sm: id,
                issued: s.pipe.issued,
                scalar: s.instr.executed_scalar,
                rf_bytes_compressed: s.rf.ours_bytes,
                rf_bytes_uncompressed: s.rf.raw_bytes,
                rf_activations: s.rf.ours_arrays,
            });
        }
    }

    /// Samples the observers when `now` crossed a sample boundary, and
    /// reports a budget that boundary reached. A budget abort ends the
    /// live stream's run at the boundary; the other observers get no
    /// [`RunObserver::finish`].
    fn sample(
        &mut self,
        now: u64,
        sms: &[Sm],
        ins: &mut Instruments<'_>,
    ) -> Option<BudgetExceeded> {
        let boundary = now.checked_div(self.sample_interval)? * self.sample_interval;
        if boundary <= self.last_sample {
            return None;
        }
        self.last_sample = boundary;
        let exceeded = (ins.budget > 0 && boundary >= ins.budget).then_some(BudgetExceeded {
            cycles: boundary,
            budget: ins.budget,
        });
        if ins.observed() {
            let _snap_phase = hostprof::phase(hostprof::Phase::Snapshot);
            let mut cum = Stats::default();
            for (id, sm) in sms.iter().enumerate() {
                ins.watch(|o| o.sample_sm(boundary, id, &sm.stats));
                cum.merge(&sm.stats);
            }
            cum.cycles = boundary;
            ins.watch(|o| o.sample(boundary, &cum));
            if let (Some(live), Some(_)) = (&mut ins.live, exceeded) {
                live.end(boundary, &cum);
            }
        }
        exceeded
    }
}

/// No SM showed activity: jumps the clock to the next pipeline
/// completion or scoreboard release, and charges the jumped-over cycles
/// in bulk so the per-scheduler CPI ledger still sums exactly to
/// elapsed cycles.
fn skip_idle(now: u64, sms: &mut [Sm]) -> u64 {
    let _idle_phase = hostprof::phase(hostprof::Phase::IdleScan);
    let mut next: Option<u64> = None;
    for sm in sms.iter() {
        let release = sm.last_release();
        for t in sm
            .next_event()
            .into_iter()
            .chain((release > now).then_some(release))
        {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
    }
    let target = next.map_or(now + 1, |t| t.max(now + 1));
    let skipped = target - (now + 1);
    if skipped > 0 {
        for sm in sms {
            sm.charge_idle_skip(skipped);
        }
    }
    target
}

/// Merges every SM's statistics into the run's result at cycle `end`
/// and tells the observers the run is complete.
fn finish(end: u64, sms: &[Sm], ins: &mut Instruments<'_>) -> Stats {
    let observed = ins.observed();
    let mut stats = Stats::default();
    let mut per_sm = Vec::new();
    for sm in sms {
        stats.merge(&sm.stats);
        if observed {
            per_sm.push(sm.stats.clone());
        }
    }
    stats.cycles = end;
    ins.watch(|o| o.finish(end, &stats, &per_sm));
    stats
}

/// Converts a linear CTA index to grid coordinates.
fn cta_coord(linear: u64, grid: Dim3) -> Dim3 {
    let x = (linear % u64::from(grid.x)) as u32;
    let rest = linear / u64::from(grid.x);
    let y = (rest % u64::from(grid.y)) as u32;
    let z = (rest / u64::from(grid.y)) as u32;
    Dim3 { x, y, z }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_isa::{CmpOp, KernelBuilder, Operand, SReg};

    fn run_kernel(kernel: &Kernel, launch: LaunchConfig) -> (Stats, GlobalMemory) {
        let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        let stats = gpu.run(kernel, launch, &mut mem);
        (stats, mem)
    }

    #[test]
    fn cta_coordinates_unfold() {
        let g = Dim3 { x: 3, y: 2, z: 2 };
        assert_eq!(cta_coord(0, g), Dim3 { x: 0, y: 0, z: 0 });
        assert_eq!(cta_coord(4, g), Dim3 { x: 1, y: 1, z: 0 });
        assert_eq!(cta_coord(7, g), Dim3 { x: 1, y: 0, z: 1 });
    }

    #[test]
    fn saxpy_like_kernel_computes_correctly() {
        // y[i] = 2*x[i] + y[i] over 128 elements.
        let x_base = 0x1_0000u32;
        let y_base = 0x2_0000u32;
        let mut b = KernelBuilder::new("saxpy");
        let tid = b.s2r(SReg::TidX);
        let ctaid = b.s2r(SReg::CtaIdX);
        let ntid = b.s2r(SReg::NTidX);
        let gid = b.imad(ctaid.into(), ntid.into(), tid.into());
        let off = b.shl(gid.into(), Operand::Imm(2));
        let xa = b.iadd(off.into(), Operand::Imm(x_base));
        let ya = b.iadd(off.into(), Operand::Imm(y_base));
        let x = b.ld_global(xa, 0);
        let y = b.ld_global(ya, 0);
        let r = b.ffma(x.into(), Operand::imm_f32(2.0), y.into());
        b.st_global(ya, r, 0);
        b.exit();
        let kernel = b.build().unwrap();

        let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        for i in 0..128u32 {
            mem.write_f32(u64::from(x_base) + u64::from(i) * 4, i as f32);
            mem.write_f32(u64::from(y_base) + u64::from(i) * 4, 1.0);
        }
        let stats = gpu.run(&kernel, LaunchConfig::linear(2, 64), &mut mem);
        for i in 0..128u32 {
            let v = mem.read_f32(u64::from(y_base) + u64::from(i) * 4);
            assert_eq!(v, 2.0 * i as f32 + 1.0, "element {i}");
        }
        assert!(stats.cycles > 0);
        assert_eq!(stats.instr.warp_instrs, 4 * 12);
        // Loads/stores are perfectly coalesced (32 consecutive words).
        assert!(stats.mem.fully_coalesced > 0);
    }

    #[test]
    fn divergent_kernel_counts_divergence_and_computes_abs() {
        // r = |tid - 8| via an if/else, stored to memory.
        let out = 0x3_0000u32;
        let mut b = KernelBuilder::new("absdiff");
        let tid = b.s2r(SReg::TidX);
        let v = b.isub(tid.into(), Operand::Imm(8));
        let p = b.isetp(CmpOp::Lt, v.into(), Operand::Imm(0));
        let r = b.mov(Operand::Imm(0));
        b.if_else(
            p.into(),
            |b| {
                let n = b.isub(Operand::Imm(0), v.into());
                b.mov_to(r, n.into());
            },
            |b| {
                b.mov_to(r, v.into());
            },
        );
        let off = b.shl(tid.into(), Operand::Imm(2));
        let addr = b.iadd(off.into(), Operand::Imm(out));
        b.st_global(addr, r, 0);
        b.exit();
        let kernel = b.build().unwrap();

        let (stats, mem) = run_kernel(&kernel, LaunchConfig::linear(1, 32));
        for i in 0..32i32 {
            let v = mem.read_u32(u64::from(out) + (i as u64) * 4);
            assert_eq!(v as i32, (i - 8).abs(), "lane {i}");
        }
        assert!(stats.instr.divergent_instrs > 0);
        assert!(stats.divergent_fraction() > 0.0);
    }

    #[test]
    fn barrier_synchronizes_shared_memory() {
        // Warp 0 writes shared[tid], all warps barrier, then read
        // shared[tid^32] and store to global.
        let out = 0x4_0000u32;
        let mut b = KernelBuilder::new("shmem");
        b.shared_mem(256);
        let tid = b.s2r(SReg::TidX);
        let soff = b.shl(tid.into(), Operand::Imm(2));
        b.st_shared(soff, tid, 0);
        b.bar();
        let other = b.xor(tid.into(), Operand::Imm(32));
        let ooff = b.shl(other.into(), Operand::Imm(2));
        let v = b.ld_shared(ooff, 0);
        let goff = b.shl(tid.into(), Operand::Imm(2));
        let gaddr = b.iadd(goff.into(), Operand::Imm(out));
        b.st_global(gaddr, v, 0);
        b.exit();
        let kernel = b.build().unwrap();

        let (stats, mem) = run_kernel(&kernel, LaunchConfig::linear(1, 64));
        for i in 0..64u32 {
            let v = mem.read_u32(u64::from(out) + u64::from(i) * 4);
            assert_eq!(v, i ^ 32, "thread {i}");
        }
        assert!(stats.mem.shared_accesses > 0);
    }

    #[test]
    fn loop_kernel_terminates_with_correct_sum() {
        // sum = 0 + 1 + ... + (tid % 4 + 1 - 1), i.e. varies per lane →
        // divergent loop exits.
        let out = 0x5_0000u32;
        let mut b = KernelBuilder::new("loop");
        let tid = b.s2r(SReg::TidX);
        let n = b.and(tid.into(), Operand::Imm(3));
        let sum = b.mov(Operand::Imm(0));
        let i = b.mov(Operand::Imm(0));
        b.while_loop(
            |b| b.isetp(CmpOp::Lt, i.into(), n.into()).into(),
            |b| {
                b.iadd_to(sum, sum.into(), i.into());
                b.iadd_to(i, i.into(), Operand::Imm(1));
            },
        );
        let off = b.shl(tid.into(), Operand::Imm(2));
        let addr = b.iadd(off.into(), Operand::Imm(out));
        b.st_global(addr, sum, 0);
        b.exit();
        let kernel = b.build().unwrap();

        let (_stats, mem) = run_kernel(&kernel, LaunchConfig::linear(1, 32));
        for t in 0..32u32 {
            let n = t & 3;
            let expect: u32 = (0..n).sum();
            assert_eq!(mem.read_u32(u64::from(out) + u64::from(t) * 4), expect);
        }
    }

    #[test]
    fn scalar_arch_runs_same_result_faster_dispatch() {
        // An SFU-heavy kernel with warp-uniform operands: G-Scalar
        // executes the SFU ops scalar, cutting 8-cycle dispatches to 1.
        let mut b = KernelBuilder::new("sfu_uniform");
        let c = b.s2r(SReg::CtaIdX);
        let x = b.i2f(c.into());
        let mut cur = x;
        for _ in 0..8 {
            cur = b.ex2(cur.into());
            let t = b.fmul(cur.into(), Operand::imm_f32(0.5));
            cur = t;
        }
        b.exit();
        let kernel = b.build().unwrap();

        let run = |arch: ArchConfig| {
            let mut gpu = Gpu::new(GpuConfig::test_small(), arch);
            let mut mem = GlobalMemory::new();
            gpu.run(&kernel, LaunchConfig::linear(4, 128), &mut mem)
        };
        let base = run(ArchConfig::baseline());
        let mut scalar = ArchConfig::baseline();
        scalar.name = "gscalar-ish".into();
        scalar.scalar_alu = true;
        scalar.scalar_sfu = true;
        scalar.compression = true;
        let gs = run(scalar);
        assert_eq!(base.instr.warp_instrs, gs.instr.warp_instrs);
        assert!(gs.instr.executed_scalar > 0);
        assert!(
            gs.exec.sfu_lane_ops < base.exec.sfu_lane_ops,
            "scalar execution must gate SFU lanes"
        );
    }

    #[test]
    fn profiled_run_reconciles_with_stats() {
        // Reuse the divergent abs kernel: branches, predication, loads
        // and stores all exercise the profiler hooks.
        let out = 0x6_0000u32;
        let mut b = KernelBuilder::new("prof");
        let tid = b.s2r(SReg::TidX);
        let v = b.isub(tid.into(), Operand::Imm(8));
        let p = b.isetp(CmpOp::Lt, v.into(), Operand::Imm(0));
        let r = b.mov(Operand::Imm(0));
        b.if_else(
            p.into(),
            |b| {
                let n = b.isub(Operand::Imm(0), v.into());
                b.mov_to(r, n.into());
            },
            |b| {
                b.mov_to(r, v.into());
            },
        );
        let off = b.shl(tid.into(), Operand::Imm(2));
        let addr = b.iadd(off.into(), Operand::Imm(out));
        b.st_global(addr, r, 0);
        b.exit();
        let kernel = b.build().unwrap();

        let mut gpu = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
        let mut mem = GlobalMemory::new();
        let mut ins = Instruments {
            profiler: Profiler::for_kernel(0, kernel.name(), kernel.len()),
            ..Instruments::default()
        };
        let stats = gpu
            .run_with(&kernel, LaunchConfig::linear(2, 64), &mut mem, &mut ins)
            .unwrap();
        let prof = ins.profiler.into_profile().unwrap();

        // Every scheduler cycle is either an issue charged to a PC or a
        // stall charged to a PC / the unattributed pool.
        assert_eq!(prof.total_issues(), stats.pipe.issued);
        assert_eq!(prof.total_stall_cycles(), stats.pipe.scheduler_idle_cycles);
        // Lane and divergence attribution match the aggregate counters.
        let lanes: u64 = prof.records().iter().map(|r| r.active_lanes).sum();
        assert_eq!(lanes, stats.instr.thread_instrs);
        let div: u64 = prof.records().iter().map(|r| r.divergent_issues).sum();
        assert_eq!(div, stats.instr.divergent_instrs);
        // The branches of the if/else diverged and their paths all
        // reconverged (no early exits inside the conditional).
        let branches: Vec<_> = prof
            .records()
            .iter()
            .filter(|r| r.branch.execs > 0)
            .collect();
        assert!(!branches.is_empty());
        let diverged: u64 = branches.iter().map(|r| r.branch.diverged).sum();
        assert!(diverged > 0);
        let rejoined: u64 = branches.iter().map(|r| r.branch.rejoined_paths).sum();
        let exited: u64 = branches.iter().map(|r| r.branch.exited_paths).sum();
        assert_eq!(rejoined + exited, 2 * diverged);
        // The run itself is unperturbed by profiling.
        let mut gpu2 = Gpu::new(GpuConfig::test_small(), ArchConfig::baseline());
        let mut mem2 = GlobalMemory::new();
        let stats2 = gpu2.run(&kernel, LaunchConfig::linear(2, 64), &mut mem2);
        assert_eq!(stats, stats2);
    }

    #[test]
    fn partial_last_warp_handled() {
        let mut b = KernelBuilder::new("partial");
        let tid = b.s2r(SReg::TidX);
        b.iadd(tid.into(), Operand::Imm(1));
        b.exit();
        let kernel = b.build().unwrap();
        // 40 threads → one full warp + one 8-thread warp.
        let (stats, _) = run_kernel(&kernel, LaunchConfig::linear(1, 40));
        assert_eq!(stats.instr.warp_instrs, 2 * 3);
        assert_eq!(stats.instr.thread_instrs, 40 * 3);
    }
}
