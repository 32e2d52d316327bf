//! The full GPU: SMs, the CTA scheduler, and the run loop.

use gscalar_hostprof as hostprof;
use gscalar_isa::{Dim3, Kernel, LaunchConfig};
use gscalar_profile::Profiler;
use gscalar_trace::{TraceEvent, Tracer};

use crate::config::{ArchConfig, GpuConfig};
use crate::memory::GlobalMemory;
use crate::memsys::MemSystem;
use crate::sm::Sm;
use crate::stats::Stats;

/// Safety valve: a run exceeding this many cycles panics instead of
/// spinning forever (a workload bug, not a hardware condition).
pub(crate) const WATCHDOG_CYCLES: u64 = 2_000_000_000;

/// Receives interval samples and the final state of a simulation run.
///
/// Implementations feed metrics registries and power timelines without
/// the run loop knowing about either. [`Gpu::run_observed`] calls
/// [`sample`](RunObserver::sample) with *cumulative* merged-across-SMs
/// statistics each time the clock crosses a multiple of the sample
/// interval (idle-skip jumps may cross several boundaries; one sample at
/// the latest boundary is delivered, since the counters are cumulative),
/// and [`finish`](RunObserver::finish) exactly once at the end.
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

/// The no-op observer used by [`Gpu::run`] and [`Gpu::run_traced`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn sample(&mut self, _cycle: u64, _stats: &Stats) {}
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
        self.run_traced(kernel, launch, gmem, &mut Tracer::off(), 0)
    }

    /// [`Gpu::run_traced`] plus interval observation: when
    /// `sample_interval > 0`, `observer` receives cumulative
    /// merged-across-SMs statistics at every crossed multiple of the
    /// interval, and a final [`RunObserver::finish`] call either way.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Gpu::run`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_observed(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        gmem: &mut GlobalMemory,
        tracer: &mut Tracer<'_>,
        snapshot_interval: u64,
        sample_interval: u64,
        observer: &mut dyn RunObserver,
    ) -> Stats {
        self.run_inner(
            kernel,
            launch,
            gmem,
            tracer,
            snapshot_interval,
            sample_interval,
            observer,
            &mut Profiler::off(),
        )
    }

    /// [`Gpu::run`] with per-static-instruction profiling: every issue
    /// slot, attributed stall cycle, eligibility classification,
    /// execution span, compressor outcome, and branch execution is
    /// recorded into `profiler` (see `gscalar_profile`). Combine with a
    /// live `tracer` freely; the two instruments are independent.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Gpu::run`].
    pub fn run_profiled(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        gmem: &mut GlobalMemory,
        tracer: &mut Tracer<'_>,
        profiler: &mut Profiler,
    ) -> Stats {
        self.run_inner(
            kernel,
            launch,
            gmem,
            tracer,
            0,
            0,
            &mut NullObserver,
            profiler,
        )
    }

    /// [`Gpu::run`] with cycle-level tracing: events are emitted into
    /// `tracer`, and when `snapshot_interval > 0` a
    /// [`TraceEvent::Snapshot`] with cumulative per-SM counters is
    /// emitted each time the clock crosses a multiple of the interval
    /// (idle-skip jumps emit one snapshot at the latest boundary
    /// crossed).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Gpu::run`].
    pub fn run_traced(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        gmem: &mut GlobalMemory,
        tracer: &mut Tracer<'_>,
        snapshot_interval: u64,
    ) -> Stats {
        self.run_inner(
            kernel,
            launch,
            gmem,
            tracer,
            snapshot_interval,
            0,
            &mut NullObserver,
            &mut Profiler::off(),
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn run_inner(
        &mut self,
        kernel: &Kernel,
        launch: LaunchConfig,
        gmem: &mut GlobalMemory,
        tracer: &mut Tracer<'_>,
        snapshot_interval: u64,
        sample_interval: u64,
        observer: &mut dyn RunObserver,
        profiler: &mut Profiler,
    ) -> Stats {
        let exec_threads =
            gscalar_pool::resolve_threads(self.cfg.exec_threads).min(self.cfg.num_sms);
        if exec_threads > 1 {
            return crate::parallel::run_parallel(
                &self.cfg,
                &self.arch,
                exec_threads,
                kernel,
                launch,
                gmem,
                tracer,
                snapshot_interval,
                sample_interval,
                observer,
                profiler,
            );
        }
        let mut memsys = MemSystem::new(&self.cfg);
        let mut sms: Vec<Sm> = (0..self.cfg.num_sms)
            .map(|i| Sm::new(i, &self.cfg, &self.arch, kernel.num_regs() as usize))
            .collect();

        // CTA work list in linear order.
        let total_ctas = launch.grid.count();
        let mut next_cta: u64 = 0;
        let mut ctas_done: u64 = 0;
        let threads = launch.threads_per_cta() as usize;
        let warps_per_cta = threads.div_ceil(self.cfg.warp_size);

        // Initial fill, round-robin over SMs.
        let fill_phase = hostprof::phase(hostprof::Phase::CtaLaunch);
        let mut made_progress = true;
        while made_progress && next_cta < total_ctas {
            made_progress = false;
            for sm in &mut sms {
                if next_cta >= total_ctas {
                    break;
                }
                if sm.can_accept_cta(warps_per_cta, kernel.shared_mem_bytes()) {
                    sm.launch_cta(
                        kernel,
                        cta_coord(next_cta, launch.grid),
                        launch.grid,
                        launch.block,
                    );
                    next_cta += 1;
                    made_progress = true;
                }
            }
        }
        assert!(
            next_cta > 0,
            "CTA of {threads} threads does not fit the configuration"
        );
        drop(fill_phase);

        let mut now: u64 = 0;
        let mut last_snapshot: u64 = 0;
        let mut last_sample: u64 = 0;
        while ctas_done < total_ctas {
            let mut any_activity = false;
            for sm in &mut sms {
                let before = sm.stats.pipe.issued + sm.stats.pipe.oc_allocs;
                let completed = sm.cycle(now, kernel, gmem, &mut memsys, tracer, profiler);
                if completed > 0 {
                    ctas_done += completed as u64;
                    // Refill this SM.
                    let _fill_phase = hostprof::phase(hostprof::Phase::CtaLaunch);
                    while next_cta < total_ctas
                        && sm.can_accept_cta(warps_per_cta, kernel.shared_mem_bytes())
                    {
                        sm.launch_cta(
                            kernel,
                            cta_coord(next_cta, launch.grid),
                            launch.grid,
                            launch.block,
                        );
                        next_cta += 1;
                    }
                }
                if completed > 0
                    || sm.stats.pipe.issued + sm.stats.pipe.oc_allocs != before
                    || sm.collectors_pending()
                {
                    any_activity = true;
                }
            }
            if ctas_done >= total_ctas {
                now += 1;
                break;
            }
            if any_activity {
                now += 1;
            } else {
                // Idle: skip ahead to the next pipeline completion or
                // scoreboard release.
                let _idle_phase = hostprof::phase(hostprof::Phase::IdleScan);
                let next = sms
                    .iter()
                    .flat_map(|sm| {
                        sm.next_event()
                            .into_iter()
                            .chain((sm.last_release() > now).then(|| sm.last_release()))
                    })
                    .min();
                let new_now = next.map_or(now + 1, |t| t.max(now + 1));
                // The jumped-over cycles were charged to no scheduler;
                // attribute them in bulk so the per-scheduler CPI ledger
                // still sums exactly to elapsed cycles.
                let skipped = new_now - (now + 1);
                for sm in &mut sms {
                    sm.charge_idle_skip(skipped);
                }
                now = new_now;
            }
            // Interval metrics: cumulative per-SM counters at each
            // boundary crossing. Idle-skip jumps may pass several
            // boundaries at once; one snapshot at the latest suffices
            // since the counters are cumulative.
            if snapshot_interval > 0 && tracer.is_on() {
                let boundary = now / snapshot_interval * snapshot_interval;
                if boundary > last_snapshot {
                    let _snap_phase = hostprof::phase(hostprof::Phase::Snapshot);
                    last_snapshot = boundary;
                    for (i, sm) in sms.iter().enumerate() {
                        let s = &sm.stats;
                        tracer.emit_with(boundary, || TraceEvent::Snapshot {
                            sm: i as u32,
                            issued: s.pipe.issued,
                            scalar: s.instr.executed_scalar,
                            rf_bytes_compressed: s.rf.ours_bytes,
                            rf_bytes_uncompressed: s.rf.raw_bytes,
                            rf_activations: s.rf.ours_arrays,
                        });
                    }
                }
            }
            // Observer samples: cumulative merged statistics at each
            // sample-interval boundary crossing (same idle-skip
            // semantics as snapshots above).
            if let Some(intervals) = now.checked_div(sample_interval) {
                let boundary = intervals * sample_interval;
                if boundary > last_sample {
                    let _snap_phase = hostprof::phase(hostprof::Phase::Snapshot);
                    last_sample = boundary;
                    let mut cum = Stats::default();
                    for (i, sm) in sms.iter().enumerate() {
                        observer.sample_sm(boundary, i, &sm.stats);
                        cum.merge(&sm.stats);
                    }
                    cum.cycles = boundary;
                    observer.sample(boundary, &cum);
                }
            }
            assert!(now < WATCHDOG_CYCLES, "simulation watchdog tripped");
        }

        let mut stats = Stats::default();
        for sm in &sms {
            stats.merge(&sm.stats);
        }
        stats.cycles = now;
        let per_sm: Vec<Stats> = sms.iter().map(|sm| sm.stats.clone()).collect();
        observer.finish(now, &stats, &per_sm);
        stats
    }
}

/// Converts a linear CTA index to grid coordinates.
pub(crate) fn cta_coord(linear: u64, grid: Dim3) -> Dim3 {
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
        let mut profiler = Profiler::for_kernel(0, kernel.name(), kernel.len());
        let stats = gpu.run_profiled(
            &kernel,
            LaunchConfig::linear(2, 64),
            &mut mem,
            &mut Tracer::off(),
            &mut profiler,
        );
        let prof = profiler.into_profile().unwrap();

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
