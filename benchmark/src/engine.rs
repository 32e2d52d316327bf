//! `engine-full` and `engine-test`: the simulator's per-cycle hot path,
//! driven serially through `Runner::run` over the 17-kernel suite.
//!
//! A pass runs every kernel on every arch of the workload, in a kernel
//! order shuffled by the seed. `engine-full` is the Figure 11 pair
//! (Baseline and G-Scalar) at full scale; `engine-test` is all four
//! archs at test scale, where per-run fixed costs weigh most.

use std::collections::BTreeMap;
use std::time::Instant;

use gscalar_core::rng::Rng;
use gscalar_core::{Arch, Runner, Workload};
use gscalar_hostprof::{self as hostprof, Counter, Phase};
use gscalar_sim::reference::run_reference;
use gscalar_sim::{Gpu, GpuConfig, Stats};
use gscalar_workloads::{suite, Scale};

use crate::{
    hostprof_begin_pass, median, set_op_latency, set_overhead, set_phase_metrics, time_setup,
    timed_passes, Goldens, Opts, Outcome, PassProfile, SpanLog, Tally,
};

/// Which engine workload to run.
#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    /// Workload scale.
    pub scale: Scale,
    /// Archs run on every kernel, in this order.
    pub archs: &'static [Arch],
    /// Check every kernel × arch against the reference interpreter in
    /// an untimed first pass (test scale only: at full scale MG and LBM
    /// race, see README).
    pub reference_pass: bool,
    /// Add one traced pass on the parallel engine (`sim.parallel.*`).
    pub parallel_probe: bool,
}

/// `engine-full`: Figure 11's Baseline/G-Scalar pair at full scale.
#[must_use]
pub fn full(opts: &Opts) -> EngineSpec {
    EngineSpec {
        scale: opts.full_scale(),
        archs: &[Arch::Baseline, Arch::GScalar],
        reference_pass: opts.smoke,
        parallel_probe: true,
    }
}

/// `engine-test`: all four archs at test scale.
#[must_use]
pub fn test() -> EngineSpec {
    EngineSpec {
        scale: Scale::Test,
        archs: &Arch::ALL,
        reference_pass: true,
        parallel_probe: false,
    }
}

/// One pass's measurements.
struct Pass {
    wall_s: f64,
    cycles: u64,
    /// Latency of each `Runner::run`, milliseconds.
    run_ms: Vec<f64>,
}

/// The workload's inputs plus what every pass checks against.
struct Engine<'a> {
    spec: &'a EngineSpec,
    ws: Vec<Workload>,
    runner: Runner,
    goldens: Goldens,
    spans: &'a SpanLog,
    pass_name: String,
    /// First-seen `Stats` per (kernel index, arch index): every later
    /// pass must reproduce them.
    stats: BTreeMap<(usize, usize), Stats>,
    /// First-seen IPC/W per (kernel index, arch index).
    ipc_per_w: BTreeMap<(usize, usize), f64>,
    tally: Tally,
}

impl Engine<'_> {
    /// Checks the first result seen for a kernel × arch (Baseline
    /// cycles must equal the committed probe golden) and records it.
    fn first_sight(&mut self, k: usize, a: usize, stats: Stats) {
        let (w, arch) = (&self.ws[k], self.spec.archs[a]);
        if arch == Arch::Baseline {
            let golden = self.goldens.cycles[&w.abbr];
            self.tally.op(stats.cycles == golden, || {
                format!(
                    "{} baseline: {} cycles, golden {golden}",
                    w.abbr, stats.cycles
                )
            });
        }
        self.stats.insert((k, a), stats);
    }

    /// The untimed reference pass: `Gpu::run` on every kernel × arch
    /// must leave memory equal to the per-thread reference
    /// interpreter's, and its `Stats` become what every timed pass must
    /// reproduce.
    fn reference_pass(&mut self) {
        for k in 0..self.ws.len() {
            let w = &self.ws[k];
            let mut want = w.memory.clone();
            run_reference(&w.kernel, w.launch, &mut want);
            for (a, &arch) in self.spec.archs.iter().enumerate() {
                let w = &self.ws[k];
                let mut mem = w.memory.clone();
                let stats = Gpu::new(self.runner.config().clone(), arch.config())
                    .run(&w.kernel, w.launch, &mut mem);
                self.tally.op(mem.content_eq(&want), || {
                    format!(
                        "{} on {arch}: memory differs from run_reference at {:?}",
                        w.abbr,
                        mem.first_difference(&want)
                    )
                });
                self.first_sight(k, a, stats);
            }
        }
    }

    /// Runs every kernel × arch once in `order`, checking each result
    /// against the first pass's (or recording it on first sight).
    fn pass(&mut self, order: &[usize]) -> Pass {
        let spans = self.spans;
        let pass_id = spans.id();
        let start = Instant::now();
        let mut p = Pass {
            wall_s: 0.0,
            cycles: 0,
            run_ms: Vec::with_capacity(order.len() * self.spec.archs.len()),
        };
        for &k in order {
            for (a, &arch) in self.spec.archs.iter().enumerate() {
                let t = Instant::now();
                let rep = {
                    // Claims runner glue (Gpu::new, memory clone, stats
                    // merge, chip_power) the simulator's phases miss.
                    let _h = hostprof::phase(Phase::Harness);
                    self.runner.run(&self.ws[k], arch)
                };
                let end = Instant::now();
                spans.record(spans.id(), "core.runner.run", pass_id, 0, t, end);
                p.run_ms.push((end - t).as_secs_f64() * 1e3);
                p.cycles += rep.stats.cycles;
                self.tally.op(true, String::new);
                match self.stats.get(&(k, a)) {
                    Some(first) => {
                        let same = *first == rep.stats;
                        let abbr = &self.ws[k].abbr;
                        self.tally.op(same, || {
                            format!("{abbr} on {arch}: Stats differ from the first pass")
                        });
                    }
                    None => self.first_sight(k, a, rep.stats.clone()),
                }
                self.ipc_per_w
                    .entry((k, a))
                    .or_insert_with(|| rep.ipc_per_watt());
            }
        }
        let end = Instant::now();
        spans.record(pass_id, &self.pass_name, 0, 0, start, end);
        p.wall_s = (end - start).as_secs_f64();
        p
    }

    /// Deterministic modelled-hardware counts of one pass, plus the
    /// Figure 11 checks: each kernel's G-Scalar ÷ Baseline IPC/W must
    /// equal the golden ratio, and their mean gives
    /// `model.ipc_per_w_gain_pct`.
    fn model_metrics(&mut self, out: &mut Outcome) {
        let mut sum = Stats::default();
        for s in self.stats.values() {
            sum.cycles += s.cycles;
            sum.instr.warp_instrs += s.instr.warp_instrs;
            sum.instr.executed_scalar += s.instr.executed_scalar;
            sum.mem.l1_hits += s.mem.l1_hits;
            sum.mem.l1_misses += s.mem.l1_misses;
            sum.mem.l1_mshr_hits += s.mem.l1_mshr_hits;
        }
        out.set("model.sim_cycles", sum.cycles as f64);
        out.set("model.warp_instrs", sum.instr.warp_instrs as f64);
        out.set(
            "model.scalar_share",
            sum.instr.executed_scalar as f64 / sum.instr.warp_instrs.max(1) as f64,
        );
        let loads = sum.mem.l1_hits + sum.mem.l1_misses + sum.mem.l1_mshr_hits;
        out.set(
            "model.l1_hit_rate",
            sum.mem.l1_hits as f64 / loads.max(1) as f64,
        );

        let index = |arch: Arch| self.spec.archs.iter().position(|&a| a == arch);
        let (Some(b), Some(g)) = (index(Arch::Baseline), index(Arch::GScalar)) else {
            return;
        };
        let mut ratios = Vec::new();
        for (k, w) in self.ws.iter().enumerate() {
            let ratio = self.ipc_per_w[&(k, g)] / self.ipc_per_w[&(k, b)];
            if let Some(fig11) = &self.goldens.fig11 {
                let golden = fig11
                    .get(&format!("{}/G-Scalar", w.abbr))
                    .copied()
                    .unwrap_or(f64::NAN);
                self.tally.op(crate::close(ratio, golden), || {
                    format!(
                        "{}: G-Scalar/Baseline IPC/W {ratio}, golden {golden}",
                        w.abbr
                    )
                });
            }
            ratios.push(ratio);
        }
        let gain = 100.0 * (ratios.iter().sum::<f64>() / ratios.len() as f64 - 1.0);
        out.set("model.ipc_per_w_gain_pct", gain);
        if let Some(avg) = self
            .goldens
            .fig11
            .as_ref()
            .and_then(|f| f.get("AVG/G-Scalar"))
        {
            let golden = 100.0 * (avg - 1.0);
            self.tally.op(crate::close(gain, golden), || {
                format!("IPC/W gain {gain}%, golden {golden}%")
            });
        }
    }

    /// Direct timings of the runner's fixed per-run costs, each public
    /// call made once per kernel × arch outside the timed passes.
    fn call_probes(&self, out: &mut Outcome) {
        let spans = self.spans;
        let (mut gpu_new, mut clone, mut power) = (Vec::new(), Vec::new(), Vec::new());
        let timed = |v: &mut Vec<f64>, name: &str, t: Instant| {
            let end = Instant::now();
            spans.record(spans.id(), name, 0, 0, t, end);
            v.push((end - t).as_secs_f64() * 1e6);
        };
        for (k, w) in self.ws.iter().enumerate() {
            for (a, &arch) in self.spec.archs.iter().enumerate() {
                let t = Instant::now();
                let gpu = Gpu::new(self.runner.config().clone(), arch.config());
                timed(&mut gpu_new, "sim.gpu_new", t);
                drop(std::hint::black_box(gpu));
                let t = Instant::now();
                let mem = w.memory.clone();
                timed(&mut clone, "core.mem_clone", t);
                drop(std::hint::black_box(mem));
                let t = Instant::now();
                let p = gscalar_power::chip_power(
                    &self.stats[&(k, a)],
                    self.runner.config(),
                    arch.rf_scheme(),
                    arch.has_codec(),
                    self.runner.energy(),
                );
                timed(&mut power, "power.chip_power", t);
                std::hint::black_box(p);
            }
        }
        out.set("sim.gpu_new_us", median(&gpu_new));
        out.set("core.mem_clone_us", median(&clone));
        out.set("power.chip_power_us", median(&power));
    }

    /// One traced pass on the parallel engine with `exec_threads =
    /// nproc`: the evidence for whether it pays for itself. No
    /// end-to-end metric covers it, since every workload runs the
    /// default serial engine.
    fn parallel_probe(&mut self, out: &mut Outcome, serial_s: f64) {
        let mut cfg = self.runner.config().clone();
        cfg.exec_threads = crate::nproc();
        let runner = Runner::new(cfg);
        hostprof_begin_pass();
        let start = Instant::now();
        for (k, w) in self.ws.iter().enumerate() {
            for (a, &arch) in self.spec.archs.iter().enumerate() {
                let rep = {
                    let _h = hostprof::phase(Phase::Harness);
                    runner.run(w, arch)
                };
                self.tally.op(rep.stats == self.stats[&(k, a)], || {
                    format!(
                        "{} on {arch}: parallel engine Stats differ from serial",
                        w.abbr
                    )
                });
            }
        }
        let wall = start.elapsed().as_secs_f64();
        let spans = self.spans;
        spans.record(spans.id(), "sim.parallel.pass", 0, 0, start, Instant::now());
        let snap = hostprof::snapshot();
        out.set("sim.parallel.speedup_x", serial_s / wall);
        out.set(
            "sim.parallel.barrier_s",
            snap.phase(Phase::Barrier).ns as f64 / 1e9,
        );
        out.set("pool.idle_s", snap.phase(Phase::PoolIdle).ns as f64 / 1e9);
        out.set("pool.epochs", snap.counter(Counter::PoolEpochs) as f64);
    }
}

/// Runs one engine workload.
///
/// # Errors
///
/// Returns a message when the goldens cannot be loaded.
pub fn run(opts: &Opts, spec: &EngineSpec, name: &str, spans: &SpanLog) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, ws) = spans.scope("workloads.suite", 0, |_| time_setup(|| suite(spec.scale)));
    out.set("setup_s", setup_s);
    let mut e = Engine {
        spec,
        ws,
        runner: Runner::new(GpuConfig::gtx480()),
        goldens: Goldens::load(&opts.root, spec.scale)?,
        spans,
        pass_name: format!("{name}.pass"),
        stats: BTreeMap::new(),
        ipc_per_w: BTreeMap::new(),
        tally: Tally::default(),
    };
    if spec.reference_pass {
        e.reference_pass();
    }

    let mut rng = Rng::seed_from_u64(opts.seed);
    let mut shuffled = |n: usize| {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.next_u64() as usize % (i + 1));
        }
        order
    };
    let n = e.ws.len();
    let untraced_s = if opts.trace {
        e.pass(&shuffled(n)).wall_s
    } else {
        0.0
    };
    let mut passes: Vec<Pass> = Vec::new();
    let mut profiles = Vec::new();
    timed_passes(opts, &mut out, || {
        let order = shuffled(n);
        if opts.trace {
            hostprof_begin_pass();
        }
        let p = e.pass(&order);
        if opts.trace {
            profiles.push(PassProfile {
                wall_s: p.wall_s,
                snap: hostprof::snapshot(),
            });
        }
        let wall = p.wall_s;
        passes.push(p);
        wall
    })?;

    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.set("pass_s", per_pass(&|p| p.wall_s));
    let run_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.run_ms.iter().copied())
        .collect();
    set_op_latency(&mut out, &run_ms);
    out.set("passes", passes.len() as f64);

    // The Figure 11 checks feed the failure count in every mode.
    e.model_metrics(&mut out);
    if opts.trace {
        set_phase_metrics(&mut out, &profiles);
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        set_overhead(&mut out, untraced_s, &walls);
        out.set(
            "engine.sim_cycles_per_s",
            per_pass(&|p| p.cycles as f64 / p.wall_s),
        );
        e.call_probes(&mut out);
        if spec.parallel_probe {
            e.parallel_probe(&mut out, per_pass(&|p| p.wall_s));
        }
        hostprof::set_enabled(false);
    }
    out.set(
        "error_rate",
        e.tally.failed as f64 / e.tally.attempted.max(1) as f64,
    );
    out.tally = e.tally;
    Ok(out)
}
