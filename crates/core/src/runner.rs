//! Workload container and the high-level simulation runner.

use gscalar_isa::{Kernel, LaunchConfig};
use gscalar_metrics::MetricsRegistry;
use gscalar_power::{chip_power, EnergyModel, PowerReport, PowerTimeline};
use gscalar_profile::{KernelProfile, Profiler};
use gscalar_sim::memory::GlobalMemory;
use gscalar_sim::{
    ArchConfig, BudgetExceeded, Gpu, GpuConfig, Instruments, MetricsObserver, Stats,
};

use crate::arch::Arch;

/// A complete, runnable workload: kernel + launch shape + input memory
/// image.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Full benchmark name (e.g. `"backprop"`).
    pub name: String,
    /// Paper abbreviation (e.g. `"BP"`).
    pub abbr: String,
    /// The kernel to execute.
    pub kernel: Kernel,
    /// Grid/block shape.
    pub launch: LaunchConfig,
    /// Pre-initialized input memory (cloned per run).
    pub memory: GlobalMemory,
}

impl Workload {
    /// Creates a workload.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        abbr: impl Into<String>,
        kernel: Kernel,
        launch: LaunchConfig,
        memory: GlobalMemory,
    ) -> Self {
        Workload {
            name: name.into(),
            abbr: abbr.into(),
            kernel,
            launch,
            memory,
        }
    }
}

/// Results of running one workload on one architecture.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The architecture simulated.
    pub arch: Arch,
    /// Raw simulator statistics.
    pub stats: Stats,
    /// Chip power breakdown under the architecture's RF scheme.
    pub power: PowerReport,
}

impl RunReport {
    /// Power efficiency in IPC/W — the paper's headline metric.
    #[must_use]
    pub fn ipc_per_watt(&self) -> f64 {
        self.power.ipc_per_watt()
    }
}

/// A fully-instrumented run: report plus interval power timeline plus a
/// populated metrics registry (see [`Runner::run_metered`]).
#[derive(Debug)]
pub struct MeteredRun {
    /// Statistics and one-shot power, as from [`Runner::run`].
    pub report: RunReport,
    /// Interval per-component power telemetry.
    pub timeline: PowerTimeline,
    /// Every simulator counter (`gpu/…`, `sm<i>/…`), interval series
    /// (`gpu/interval/…`), power series (`power/…`) and energy summary
    /// gauges (`energy/…`).
    pub registry: MetricsRegistry,
}

/// A profiled run: report, per-PC profile, and a registry carrying both
/// the aggregate counters (`gpu/…`) and the per-PC export
/// (`profile/k<id>/pc<PC>/…`) — see [`Runner::run_profiled`].
#[derive(Debug)]
pub struct ProfiledRun {
    /// Statistics and one-shot power, as from [`Runner::run`].
    pub report: RunReport,
    /// The per-static-instruction profile.
    pub profile: KernelProfile,
    /// Aggregate counters plus the schema-versioned per-PC tables.
    pub registry: MetricsRegistry,
}

/// Runs workloads under configurable hardware and energy models.
///
/// # Examples
///
/// ```
/// use gscalar_core::{Arch, Runner, Workload};
/// use gscalar_isa::{KernelBuilder, LaunchConfig, Operand};
/// use gscalar_sim::{memory::GlobalMemory, GpuConfig};
///
/// let mut b = KernelBuilder::new("tiny");
/// b.mov(Operand::Imm(1));
/// b.exit();
/// let w = Workload::new(
///     "tiny", "T",
///     b.build().unwrap(),
///     LaunchConfig::linear(2, 64),
///     GlobalMemory::new(),
/// );
/// let runner = Runner::new(GpuConfig::test_small());
/// let report = runner.run(&w, Arch::GScalar);
/// assert!(report.stats.cycles > 0);
/// assert!(report.ipc_per_watt() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Runner {
    cfg: GpuConfig,
    energy: EnergyModel,
}

impl Runner {
    /// Creates a runner with the default 40 nm energy model.
    #[must_use]
    pub fn new(cfg: GpuConfig) -> Self {
        Runner {
            cfg,
            energy: EnergyModel::default_40nm(),
        }
    }

    /// The hardware configuration.
    #[must_use]
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The energy model.
    #[must_use]
    pub fn energy(&self) -> &EnergyModel {
        &self.energy
    }

    /// Runs `workload` on `arch` and returns statistics plus power.
    #[must_use]
    pub fn run(&self, workload: &Workload, arch: Arch) -> RunReport {
        let stats = self
            .run_with(workload, arch.config(), &mut Instruments::default())
            .expect("a run without a budget cannot exceed it");
        self.report(arch, stats)
    }

    /// The path every run takes: simulates `workload` under `arch` (a
    /// preset's [`Arch::config`] or a custom ablation) on a fresh GPU
    /// and a copy of the workload's input memory, with `ins` attached
    /// (see [`Instruments`]). Price the result with [`Runner::report`].
    ///
    /// # Errors
    ///
    /// Returns [`BudgetExceeded`] when the run crossed `ins.budget`.
    pub fn run_with(
        &self,
        workload: &Workload,
        arch: ArchConfig,
        ins: &mut Instruments<'_>,
    ) -> Result<Stats, BudgetExceeded> {
        let mut gpu = Gpu::new(self.cfg.clone(), arch);
        let mut mem = workload.memory.clone();
        gpu.run_with(&workload.kernel, workload.launch, &mut mem, ins)
    }

    /// Prices `stats` of a run on `arch`: chip power under the
    /// architecture's RF scheme.
    #[must_use]
    pub fn report(&self, arch: Arch, stats: Stats) -> RunReport {
        let power = chip_power(
            &stats,
            &self.cfg,
            arch.rf_scheme(),
            arch.has_codec(),
            &self.energy,
        );
        RunReport { arch, stats, power }
    }

    /// Runs `workload` on `arch` with full instrumentation: a metrics
    /// registry fed by the simulator's counters and an interval power
    /// timeline sampled every `sample_interval` cycles (0 still yields
    /// one closing interval covering the whole run).
    ///
    /// The returned registry also carries per-component energy gauges
    /// (`energy/<component>_pj`, `energy/total_pj`) and the power
    /// timeline as `power/<component>` series, so a single flatten
    /// produces a complete machine-readable record of the run.
    #[must_use]
    pub fn run_metered(&self, workload: &Workload, arch: Arch, sample_interval: u64) -> MeteredRun {
        let mut metrics = MetricsObserver::new();
        let mut timeline = PowerTimeline::new(
            &self.cfg,
            arch.rf_scheme(),
            arch.has_codec(),
            self.energy.clone(),
        );
        let mut ins = Instruments {
            observers: vec![&mut metrics, &mut timeline],
            sample_interval,
            ..Instruments::default()
        };
        let stats = self
            .run_with(workload, arch.config(), &mut ins)
            .expect("a run without a budget cannot exceed it");
        let report = self.report(arch, stats);
        let mut registry = metrics.into_registry();
        timeline.export(&mut registry.scope("power"));
        let mut e = registry.scope("energy");
        for (name, pj) in gscalar_power::component_energies_pj(
            &report.stats,
            arch.rf_scheme(),
            arch.has_codec(),
            &self.energy,
        ) {
            e.gauge_set(&format!("{name}_pj"), pj);
        }
        e.gauge_set(
            "total_pj",
            gscalar_power::total_energy_pj(
                &report.stats,
                &self.cfg,
                arch.rf_scheme(),
                arch.has_codec(),
                &self.energy,
            ),
        );
        registry.gauge_set("power/total_w", report.power.total_w());
        registry.gauge_set("power/ipc_per_watt", report.power.ipc_per_watt());
        MeteredRun {
            report,
            timeline,
            registry,
        }
    }

    /// Runs `workload` on `arch` with the per-static-instruction
    /// profiler attached: every issue slot, stall cycle, eligibility
    /// classification, execution span, compressor outcome and branch
    /// execution is attributed to its PC (see `gscalar_profile` for the
    /// attribution rules).
    ///
    /// The returned registry carries the aggregate counters under
    /// `gpu/…` and the schema-versioned per-PC tables under
    /// `profile/k<id>/pc<PC>/…` with zero-padded keys, so manifests
    /// built from a flatten are byte-stable.
    #[must_use]
    pub fn run_profiled(&self, workload: &Workload, arch: Arch) -> ProfiledRun {
        let kernel = &workload.kernel;
        let mut ins = Instruments {
            profiler: Profiler::for_kernel(0, kernel.name(), kernel.len()),
            ..Instruments::default()
        };
        let stats = self
            .run_with(workload, arch.config(), &mut ins)
            .expect("a run without a budget cannot exceed it");
        let profile = ins
            .profiler
            .into_profile()
            .expect("profiler was created enabled");
        let mut registry = MetricsRegistry::new();
        stats.export(&mut registry.scope("gpu"));
        profile.export(&mut registry.scope("profile"));
        ProfiledRun {
            report: self.report(arch, stats),
            profile,
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_isa::{CmpOp, KernelBuilder, Operand, SReg};

    /// A workload with uniform SFU work, divergence, and memory traffic.
    fn mixed_workload() -> Workload {
        let mut b = KernelBuilder::new("mixed");
        let tid = b.s2r(SReg::TidX);
        let cta = b.s2r(SReg::CtaIdX);
        // Uniform SFU chain (scalar-eligible).
        let f = b.i2f(cta.into());
        let g = b.ex2(f.into());
        let _h = b.fmul(g.into(), Operand::imm_f32(0.5));
        // Divergence.
        let p = b.isetp(CmpOp::Lt, tid.into(), Operand::Imm(16));
        b.if_then(p.into(), |b| {
            b.iadd(tid.into(), Operand::Imm(1));
        });
        // Memory.
        let off = b.shl(tid.into(), Operand::Imm(2));
        let addr = b.iadd(off.into(), Operand::Imm(0x10000));
        let v = b.ld_global(addr, 0);
        let v2 = b.iadd(v.into(), Operand::Imm(1));
        b.st_global(addr, v2, 0);
        b.exit();
        Workload::new(
            "mixed",
            "MX",
            b.build().unwrap(),
            LaunchConfig::linear(4, 64),
            GlobalMemory::new(),
        )
    }

    #[test]
    fn gscalar_beats_baseline_efficiency_on_scalar_friendly_work() {
        // SFU-heavy warp-uniform work with enough warps to hide the
        // +3-cycle compression latency — the BP-like case where the
        // paper reports the largest gains.
        let mut b = KernelBuilder::new("sfu_heavy");
        let cta = b.s2r(SReg::CtaIdX);
        let f = b.i2f(cta.into());
        let acc = b.mov_f32(1.0);
        for _ in 0..12 {
            let e = b.ex2(acc.into());
            let m = b.fmul(e.into(), Operand::imm_f32(0.25));
            b.fadd_to(acc, m.into(), f.into());
        }
        b.exit();
        let w = Workload::new(
            "sfu_heavy",
            "SH",
            b.build().unwrap(),
            LaunchConfig::linear(60, 256),
            GlobalMemory::new(),
        );
        // Full-chip configuration: the efficiency argument needs real
        // activity levels, not the single-SM test configuration.
        let runner = Runner::new(GpuConfig::gtx480());
        let base = runner.run(&w, Arch::Baseline);
        let gs = runner.run(&w, Arch::GScalar);
        assert!(gs.stats.instr.executed_scalar > 0);
        assert!(
            gs.ipc_per_watt() > base.ipc_per_watt(),
            "G-Scalar {:.4} vs baseline {:.4}",
            gs.ipc_per_watt(),
            base.ipc_per_watt()
        );
    }

    #[test]
    fn run_metered_matches_plain_run_and_integrates() {
        let runner = Runner::new(GpuConfig::test_small());
        let w = mixed_workload();
        let plain = runner.run(&w, Arch::GScalar);
        let metered = runner.run_metered(&w, Arch::GScalar, 16);
        // Instrumentation must not perturb the simulation.
        assert_eq!(metered.report.stats, plain.stats);
        assert_eq!(metered.report.power, plain.power);
        // Registry carries the merged counters.
        assert_eq!(
            metered.registry.counter("gpu/cycles"),
            Some(plain.stats.cycles)
        );
        // Timeline integral equals the one-shot total energy.
        let total = metered.registry.gauge("energy/total_pj").unwrap();
        let integrated = metered.timeline.integrated_energy_pj();
        assert!((integrated - total).abs() <= 1e-6 * total);
        // And the power series exists per component.
        assert!(metered.registry.series("power/register-file").is_some());
        assert!(metered.registry.gauge("power/total_w").unwrap() > 0.0);
    }

    #[test]
    fn run_profiled_matches_plain_run_and_reconciles() {
        let runner = Runner::new(GpuConfig::test_small());
        let w = mixed_workload();
        let plain = runner.run(&w, Arch::GScalar);
        let profiled = runner.run_profiled(&w, Arch::GScalar);
        // Profiling must not perturb the simulation.
        assert_eq!(profiled.report.stats, plain.stats);
        assert_eq!(profiled.report.power, plain.power);
        // Per-PC totals reconcile exactly with the aggregate counters.
        let prof = &profiled.profile;
        assert_eq!(prof.total_issues(), plain.stats.pipe.issued);
        assert_eq!(
            prof.total_stall_cycles(),
            plain.stats.pipe.scheduler_idle_cycles
        );
        // The registry carries both views, schema-stamped.
        assert_eq!(
            profiled.registry.counter("gpu/cycles"),
            Some(plain.stats.cycles)
        );
        assert_eq!(
            profiled.registry.counter("profile/k00/schema"),
            Some(gscalar_profile::PROFILE_SCHEMA_VERSION)
        );
        assert_eq!(
            profiled.registry.counter("profile/k00/issues"),
            Some(plain.stats.pipe.issued)
        );
        // Every executed PC is within the kernel.
        let pcs: Vec<usize> = prof.executed_pcs().collect();
        assert!(!pcs.is_empty());
        assert!(pcs.iter().all(|&pc| pc < w.kernel.len()));
    }

    fn budgeted(runner: &Runner, w: &Workload, budget: u64) -> Result<Stats, BudgetExceeded> {
        let mut ins = Instruments {
            budget,
            ..Instruments::default()
        };
        runner.run_with(w, Arch::GScalar.config(), &mut ins)
    }

    #[test]
    fn run_within_budget_matches_plain_run() {
        let runner = Runner::new(GpuConfig::test_small());
        let w = mixed_workload();
        let plain = runner.run(&w, Arch::GScalar);
        let within = budgeted(&runner, &w, plain.stats.cycles + 1).expect("within budget");
        assert_eq!(within, plain.stats);
        assert_eq!(runner.report(Arch::GScalar, within).power, plain.power);
        // Budget 0 disables the check entirely.
        let unlimited = budgeted(&runner, &w, 0).expect("unlimited");
        assert_eq!(unlimited, plain.stats);
    }

    #[test]
    fn run_over_budget_aborts_deterministically() {
        let runner = Runner::new(GpuConfig::test_small());
        let w = mixed_workload();
        let full = runner.run(&w, Arch::GScalar).stats.cycles;
        assert!(full > 2, "workload too small to truncate");
        let err = budgeted(&runner, &w, 2).expect_err("must trip");
        assert_eq!(err.budget, 2);
        assert!(err.cycles >= 2 && err.cycles < full);
        // Deterministic: the abort point is cycle-based, not
        // wall-clock-based, so it reproduces exactly.
        let again = budgeted(&runner, &w, 2).expect_err("must trip again");
        assert_eq!(again, err);
        assert!(err.to_string().contains("cycle budget exceeded"));
    }

    #[test]
    fn run_with_accepts_custom_arch_configs() {
        let w = mixed_workload();
        let runner = Runner::new(GpuConfig::test_small());
        let mut arch = Arch::GScalar.config();
        arch.extra_latency = 5;
        let stats = runner
            .run_with(&w, arch.clone(), &mut Instruments::default())
            .expect("unlimited");
        assert!(stats.cycles > 0);
        let mut ins = Instruments {
            budget: 2,
            ..Instruments::default()
        };
        let err = runner.run_with(&w, arch, &mut ins).expect_err("must trip");
        assert_eq!(err.budget, 2);
    }
}
