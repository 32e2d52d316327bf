//! The experiment registry: every figure/table binary as a (grid,
//! render) pair over the sweep engine.
//!
//! Each experiment splits into two pure halves:
//!
//! * **grid** — the work: one [`JobSpec`] per independent unit
//!   (usually one benchmark of the suite), each returning raw metric
//!   cells keyed by the final table's column names.
//! * **render** — the presentation: rebuilds the familiar text table
//!   and manifest *only* from job metrics plus static data (the suite
//!   definition, hardware config, paper constants). Because render
//!   never re-simulates, an experiment resumed from on-disk job
//!   manifests renders byte-identically to a fresh run.
//!
//! The standalone binaries ([`main_single`]) and the `sweep` binary
//! both drive experiments through this registry, so there is exactly
//! one code path producing every figure and table.

use std::path::PathBuf;
use std::process::ExitCode;

use gscalar_core::{Arch, BudgetExceeded, Instruments, RunReport, Runner, Workload};
use gscalar_sim::GpuConfig;
use gscalar_sweep::{
    run_sweep, JobCtx, JobError, JobOutput, JobSpec, Progress, ResultSet, SweepConfig,
};
use gscalar_workloads::Scale;

use crate::Report;

pub mod abl_addr64;
pub mod abl_compiler_moves;
pub mod abl_fast_dispatch;
pub mod abl_future_gpu;
pub mod abl_half;
pub mod abl_latency;
pub mod abl_scheduler;
pub mod bottleneck;
pub mod fig01_divergence;
pub mod fig08_rf_distribution;
pub mod fig09_scalar_eligibility;
pub mod fig10_warp_size;
pub mod fig11_power_efficiency;
pub mod fig12_rf_power;
pub mod probe;
pub mod tab01_config;
pub mod tab02_benchmarks;
pub mod tab03_synthesis;

/// One registered experiment: a job grid plus a pure render.
pub struct Experiment {
    /// Registry name (= binary name = manifest `bench` field).
    pub name: &'static str,
    /// One-line description for `sweep --list`.
    pub about: &'static str,
    /// Builds the experiment's job grid at `scale`.
    pub grid: fn(Scale) -> Vec<JobSpec>,
    /// Renders tables + manifest from completed job results.
    pub render: fn(&mut Report, &ResultSet, Scale),
}

/// Every experiment, in the order the paper presents them.
#[must_use]
pub fn all() -> Vec<Experiment> {
    macro_rules! exp {
        ($m:ident, $about:expr) => {
            Experiment {
                name: $m::NAME,
                about: $about,
                grid: $m::grid,
                render: $m::render,
            }
        };
    }
    vec![
        exp!(tab01_config, "Table 1: simulator configuration"),
        exp!(tab02_benchmarks, "Table 2: the benchmark suite"),
        exp!(
            fig01_divergence,
            "Figure 1: divergent instruction fractions"
        ),
        exp!(fig08_rf_distribution, "Figure 8: RF access distribution"),
        exp!(
            fig09_scalar_eligibility,
            "Figure 9: scalar-eligible instructions (cumulative)"
        ),
        exp!(
            fig10_warp_size,
            "Figure 10: half-scalar eligibility vs warp size"
        ),
        exp!(
            fig11_power_efficiency,
            "Figure 11: normalized IPC/W and G-Scalar IPC"
        ),
        exp!(fig12_rf_power, "Figure 12: normalized RF dynamic power"),
        exp!(tab03_synthesis, "Table 3: synthesis results and overheads"),
        exp!(abl_latency, "Ablation: IPC vs extra pipeline latency"),
        exp!(abl_half, "Ablation: half-warp scalar execution on/off"),
        exp!(abl_scheduler, "Ablation: GTO vs LRR scheduling"),
        exp!(abl_addr64, "Extension: 32- vs 64-bit address compression"),
        exp!(abl_compiler_moves, "Extension: decompress-move elision"),
        exp!(abl_fast_dispatch, "Extension: one-cycle scalar dispatch"),
        exp!(abl_future_gpu, "Extension: scalar-bank scalability"),
        exp!(probe, "Calibration probe: per-benchmark characteristics"),
        exp!(
            bottleneck,
            "Cycle accounting: CPI stacks, critical path, validated what-ifs"
        ),
    ]
}

/// Looks an experiment up by registry name.
#[must_use]
pub fn by_name(name: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.name == name)
}

/// Cumulative cycle-budget accounting for one job's simulations.
///
/// A job often runs several simulations (architecture variants, config
/// sweeps); the budget in [`JobCtx`] covers their *sum*. `JobSim`
/// threads the remaining allowance into each budgeted run and converts
/// a [`BudgetExceeded`] into the job-level [`JobError::Budget`] with
/// cumulative cycle counts. When the allowance is already exhausted the
/// next run gets a budget of 1 cycle, so it trips deterministically on
/// its first sample boundary.
pub struct JobSim {
    budget: u64,
    used: u64,
}

impl JobSim {
    /// Starts accounting against the job's budget (0 = unlimited).
    #[must_use]
    pub fn new(ctx: &JobCtx) -> Self {
        JobSim {
            budget: ctx.cycle_budget,
            used: 0,
        }
    }

    /// Cycles simulated so far across this job's runs.
    #[must_use]
    pub fn used(&self) -> u64 {
        self.used
    }

    /// The budget to hand the next simulation (0 = unlimited).
    fn remaining(&self) -> u64 {
        if self.budget == 0 {
            0
        } else {
            self.budget.saturating_sub(self.used).max(1)
        }
    }

    fn overrun(&self, in_run: u64) -> JobError {
        JobError::Budget {
            cycles: self.used + in_run,
            budget: self.budget,
        }
    }

    /// Runs `workload` on `arch` under the remaining budget.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Budget`] when the cumulative budget trips.
    pub fn run(
        &mut self,
        runner: &Runner,
        workload: &Workload,
        arch: Arch,
    ) -> Result<RunReport, JobError> {
        let stats = self.simulate(runner, workload, arch.config())?;
        Ok(runner.report(arch, stats))
    }

    /// Runs `workload` under a custom [`GpuConfig`] and
    /// [`gscalar_sim::ArchConfig`] with the remaining budget.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Budget`] when the cumulative budget trips.
    pub fn run_stats(
        &mut self,
        cfg: &GpuConfig,
        arch_cfg: gscalar_sim::ArchConfig,
        workload: &Workload,
    ) -> Result<gscalar_sim::Stats, JobError> {
        self.simulate(&Runner::new(cfg.clone()), workload, arch_cfg)
    }

    fn simulate(
        &mut self,
        runner: &Runner,
        workload: &Workload,
        arch_cfg: gscalar_sim::ArchConfig,
    ) -> Result<gscalar_sim::Stats, JobError> {
        let mut ins = Instruments {
            budget: self.remaining(),
            ..Instruments::default()
        };
        match runner.run_with(workload, arch_cfg, &mut ins) {
            Ok(s) => {
                self.used += s.cycles;
                Ok(s)
            }
            Err(BudgetExceeded { cycles, .. }) => Err(self.overrun(cycles)),
        }
    }

    /// Post-hoc accounting for runs without a budgeted entry point
    /// (e.g. profiled runs): charge the cycles and fail if the
    /// cumulative budget is now exceeded.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Budget`] when the charge overruns the budget.
    pub fn charge(&mut self, cycles: u64) -> Result<(), JobError> {
        self.used += cycles;
        if self.budget != 0 && self.used > self.budget {
            Err(JobError::Budget {
                cycles: self.used,
                budget: self.budget,
            })
        } else {
            Ok(())
        }
    }
}

/// Command-line options shared by every experiment binary.
///
/// This is the *single* parser for the flag set the binaries share —
/// `--scale`, `--threads`, `--budget`, `--sim-threads`, `--hostprof`,
/// `--json`, `--deterministic`, `--live`, `--live-interval` — so no
/// binary re-implements flag handling. [`Report::from_args`] delegates
/// here too.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Workload scale (`--scale test|full`, default full).
    pub scale: Scale,
    /// Worker threads (`--threads N`, default 1; 0 = all cores).
    pub threads: usize,
    /// Per-job simulated-cycle budget (`--budget N`, default unlimited).
    pub budget: u64,
    /// Simulator executor threads per simulation (`--sim-threads N`,
    /// default 1 = serial; 0 = all cores). Results are byte-identical
    /// at any setting; see `gscalar_sim::parallel`.
    pub sim_threads: usize,
    /// Host-side self-profiling (`--hostprof`, default off). Purely
    /// observational: simulated results are byte-identical either way.
    pub hostprof: bool,
    /// Manifest output (`--json [path]`): `None` = no manifest,
    /// `Some(None)` = default path (`results/<bench>.json`),
    /// `Some(Some(p))` = explicit path.
    pub json: Option<Option<PathBuf>>,
    /// Deterministic output (`--deterministic`): zero wall-clock fields
    /// in manifests and in the live telemetry stream.
    pub deterministic: bool,
    /// Live telemetry target (`--live <path|addr>`): an NDJSON file
    /// path, or a socket address to serve SSE on. Purely observational;
    /// simulated results are byte-identical either way.
    pub live: Option<String>,
    /// Minimum cycles between live snapshots (`--live-interval N`,
    /// default [`gscalar_live::DEFAULT_SNAPSHOT_INTERVAL`]).
    pub live_interval: u64,
}

impl CliOptions {
    /// Parses the options from `args`, ignoring anything unknown.
    pub fn parse<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut o = CliOptions {
            scale: Scale::Full,
            threads: 1,
            budget: 0,
            sim_threads: 1,
            hostprof: false,
            json: None,
            deterministic: false,
            live: None,
            live_interval: gscalar_live::DEFAULT_SNAPSHOT_INTERVAL,
        };
        let mut it = args.into_iter().map(Into::into).peekable();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    if let Some("test") = it.next().as_deref() {
                        o.scale = Scale::Test;
                    }
                }
                "--threads" => {
                    if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                        o.threads = n;
                    }
                }
                "--budget" => {
                    if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                        o.budget = n;
                    }
                }
                "--sim-threads" => {
                    if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                        o.sim_threads = n;
                    }
                }
                "--hostprof" => o.hostprof = true,
                "--json" => {
                    // The path operand is optional: `--json --scale ...`
                    // means "default path".
                    o.json = Some(match it.peek() {
                        Some(p) if !p.starts_with("--") => Some(PathBuf::from(it.next().unwrap())),
                        _ => None,
                    });
                }
                "--deterministic" => o.deterministic = true,
                "--live" => o.live = it.next(),
                "--live-interval" => {
                    if let Some(n) = it.next().and_then(|v| v.parse().ok()) {
                        o.live_interval = n;
                    }
                }
                _ => {}
            }
        }
        o
    }

    /// Resolves the manifest path for `bench` (`None` when `--json` was
    /// not given; the default is `results/<bench>.json`).
    #[must_use]
    pub fn json_path(&self, bench: &str) -> Option<PathBuf> {
        self.json.as_ref().map(|p| match p {
            Some(path) => path.clone(),
            None => PathBuf::from(format!("results/{bench}.json")),
        })
    }

    /// Opens the `--live` telemetry target, if any: a file path gets an
    /// NDJSON stream, a socket address an SSE server. The stream
    /// inherits `--deterministic` (wall-clock redaction) and
    /// `--live-interval`.
    ///
    /// # Errors
    ///
    /// Returns a message when the file or socket cannot be opened.
    pub fn open_live(&self) -> Result<Option<gscalar_live::LiveHandle>, String> {
        let Some(target) = &self.live else {
            return Ok(None);
        };
        gscalar_live::open_target(
            target,
            gscalar_live::StreamConfig {
                deterministic: self.deterministic,
                snapshot_interval: self.live_interval,
                ..gscalar_live::StreamConfig::default()
            },
        )
        .map(Some)
    }
}

/// The whole main of a standalone experiment binary: parse options,
/// run the grid through the sweep engine (in-memory, no results dir),
/// and render. Failures print one line per job to stderr and exit
/// nonzero.
#[must_use]
pub fn main_single(name: &str) -> ExitCode {
    let exp = by_name(name).unwrap_or_else(|| panic!("experiment {name} not registered"));
    let opts = CliOptions::parse(std::env::args().skip(1));
    // Experiments build their GpuConfigs internally; the process-wide
    // default lets one flag reach all of them. Sound because the
    // parallel engine is byte-identical to serial at any thread count.
    gscalar_sim::config::set_default_exec_threads(opts.sim_threads);
    gscalar_hostprof::set_enabled(opts.hostprof);
    let live = match opts.open_live() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{name}: --live: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(h) = &live {
        gscalar_live::install(h.clone());
    }
    let code = run_single(&exp, &opts, live.clone());
    if let Some(h) = live {
        gscalar_live::uninstall();
        h.close();
    }
    code
}

/// The body of [`main_single`] between live-stream open and close.
fn run_single(
    exp: &Experiment,
    opts: &CliOptions,
    live: Option<gscalar_live::LiveHandle>,
) -> ExitCode {
    let mut specs = (exp.grid)(opts.scale);
    if opts.budget > 0 {
        for s in &mut specs {
            s.cycle_budget = opts.budget;
        }
    }
    let cfg = SweepConfig {
        threads: opts.threads,
        out_dir: None,
        max_retries: 0,
        progress: Progress::Quiet,
        live,
        ..SweepConfig::default()
    };
    let outcome = run_sweep(&specs, &cfg);
    if !outcome.all_completed() {
        for f in &outcome.failures {
            eprintln!(
                "{}: job {} failed ({}): {}",
                exp.name, f.job, f.kind, f.message
            );
        }
        return ExitCode::FAILURE;
    }
    let mut r = Report::from_options(exp.name, opts);
    (exp.render)(&mut r, &outcome.results, opts.scale);
    r.finish();
    ExitCode::SUCCESS
}

/// Digest of the modeled hardware configuration, as recorded in every
/// manifest by `Report::config`: the default [`GpuConfig`] with
/// `exec_threads` normalized to 1, since the parallel engine is
/// byte-identical to serial and must not fragment the cache.
#[must_use]
pub fn config_digest() -> String {
    let cfg = GpuConfig {
        exec_threads: 1,
        ..GpuConfig::default()
    };
    gscalar_metrics::fnv1a_hex(&format!("{cfg:?}"))
}

/// Content-address for one simulation unit: everything that determines
/// its byte-deterministic manifest — the modeled hardware (config
/// digest), the experiment + unit names, the workload scale, and the
/// cycle budget. Host-side knobs (thread counts, live telemetry,
/// hostprof) are deliberately excluded: they never change simulated
/// results. The readable `experiment-unit-` prefix makes cache
/// directories greppable; the digest suffix carries the config/scale/
/// budget discrimination.
#[must_use]
pub fn cache_key(experiment: &str, unit: &str, scale: Scale, cycle_budget: u64) -> String {
    let digest = gscalar_metrics::fnv1a_hex(&format!(
        "gscalar-cache-v1|{}|{experiment}|{unit}|{scale:?}|{cycle_budget}",
        config_digest()
    ));
    format!("{experiment}-{unit}-{digest}")
}

/// Stamps every spec in a grid with its [`cache_key`] (derived from the
/// spec's own id and budget), enabling result-cache lookups in the
/// sweep engine. Call *after* budgets are assigned.
#[must_use]
pub fn attach_cache_keys(specs: Vec<JobSpec>, scale: Scale) -> Vec<JobSpec> {
    specs
        .into_iter()
        .map(|s| {
            let key = cache_key(&s.id.experiment, &s.id.unit, scale, s.cycle_budget);
            s.with_cache_key(key)
        })
        .collect()
}

/// Builds one [`JobSpec`] per suite workload via `job`, which receives
/// the workload by value and the job context.
pub(crate) fn suite_grid<F>(name: &'static str, scale: Scale, job: F) -> Vec<JobSpec>
where
    F: Fn(&Workload, &JobCtx) -> Result<JobOutput, JobError> + Send + Sync + Clone + 'static,
{
    gscalar_workloads::suite(scale)
        .into_iter()
        .map(|w| {
            let job = job.clone();
            let id = gscalar_sweep::JobId::new(name, &w.abbr);
            JobSpec::new(id, move |ctx| job(&w, ctx))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let exps = all();
        assert_eq!(exps.len(), 18);
        for e in &exps {
            assert!(by_name(e.name).is_some(), "{} resolves", e.name);
        }
        let mut names: Vec<_> = exps.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), exps.len(), "names are unique");
    }

    #[test]
    fn cli_options_parse_known_flags() {
        let o = CliOptions::parse([
            "--scale",
            "test",
            "--threads",
            "4",
            "--budget",
            "5000",
            "--sim-threads",
            "2",
            "--hostprof",
            "--deterministic",
            "--live",
            "/tmp/x.ndjson",
            "--live-interval",
            "256",
        ]);
        assert!(matches!(o.scale, Scale::Test));
        assert_eq!(o.threads, 4);
        assert_eq!(o.budget, 5000);
        assert_eq!(o.sim_threads, 2);
        assert!(o.hostprof);
        assert!(o.deterministic);
        assert_eq!(o.live.as_deref(), Some("/tmp/x.ndjson"));
        assert_eq!(o.live_interval, 256);
        let d = CliOptions::parse(Vec::<String>::new());
        assert!(matches!(d.scale, Scale::Full));
        assert_eq!(d.threads, 1);
        assert_eq!(d.budget, 0);
        assert_eq!(d.sim_threads, 1);
        assert!(!d.hostprof);
        assert!(!d.deterministic);
        assert!(d.live.is_none());
        assert_eq!(d.live_interval, gscalar_live::DEFAULT_SNAPSHOT_INTERVAL);
        assert!(d.json_path("x").is_none());
    }

    #[test]
    fn cli_options_json_path_resolution() {
        // `--json` followed by another flag means "default path".
        let o = CliOptions::parse(["--json", "--scale", "test"]);
        assert_eq!(
            o.json_path("fig99"),
            Some(PathBuf::from("results/fig99.json"))
        );
        let o = CliOptions::parse(["--json", "out/custom.json"]);
        assert_eq!(o.json_path("fig99"), Some(PathBuf::from("out/custom.json")));
    }

    #[test]
    fn jobsim_budget_trips_cumulatively() {
        let ctx = JobCtx { cycle_budget: 100 };
        let mut sim = JobSim::new(&ctx);
        assert!(sim.charge(60).is_ok());
        let err = sim.charge(60).unwrap_err();
        assert!(matches!(
            err,
            JobError::Budget {
                cycles: 120,
                budget: 100
            }
        ));
        // Unlimited budget never trips.
        let mut free = JobSim::new(&JobCtx { cycle_budget: 0 });
        assert!(free.charge(u64::MAX / 2).is_ok());
    }

    #[test]
    fn cache_keys_discriminate_what_changes_results() {
        let base = cache_key("fig11_power_efficiency", "BP", Scale::Test, 0);
        // Stable across calls, filesystem-safe, human-greppable prefix.
        assert_eq!(
            base,
            cache_key("fig11_power_efficiency", "BP", Scale::Test, 0)
        );
        assert!(base.starts_with("fig11_power_efficiency-BP-"));
        assert!(base
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-')));
        // Anything that can change simulated output changes the key.
        for other in [
            cache_key("fig11_power_efficiency", "BP", Scale::Full, 0),
            cache_key("fig11_power_efficiency", "BP", Scale::Test, 5000),
            cache_key("fig11_power_efficiency", "KM", Scale::Test, 0),
            cache_key("fig12_rf_power", "BP", Scale::Test, 0),
        ] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn attach_cache_keys_covers_a_real_grid() {
        let specs = (by_name("probe").unwrap().grid)(Scale::Test);
        let n = specs.len();
        let specs = attach_cache_keys(specs, Scale::Test);
        assert_eq!(specs.len(), n);
        for s in &specs {
            let key = s.cache_key.as_deref().expect("every spec keyed");
            assert!(key.starts_with(&format!("{}-{}-", s.id.experiment, s.id.unit)));
        }
    }
}
