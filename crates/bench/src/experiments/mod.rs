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
use gscalar_sim::{ArchConfig, GpuConfig, LiveObserver, Stats};
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

/// The one way an experiment simulates: runs a job's simulations in
/// the context its [`JobCtx`] gives them.
///
/// Every run is announced on the job's live stream (if any) with its
/// snapshots carried by `Instruments::live`, and runs under what is
/// left of the job's cycle budget. A job often runs
/// several simulations (architecture variants, config sweeps); the
/// budget covers their *sum*. A [`BudgetExceeded`] becomes the
/// job-level [`JobError::Budget`] with cumulative cycle counts. When
/// the allowance is already exhausted the next run gets a budget of 1
/// cycle, so it trips deterministically on its first sample boundary.
pub struct JobSim {
    ctx: JobCtx,
    used: u64,
}

impl JobSim {
    /// Starts a job's simulations in `ctx`.
    #[must_use]
    pub fn new(ctx: &JobCtx) -> Self {
        JobSim {
            ctx: ctx.clone(),
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
        match self.ctx.cycle_budget {
            0 => 0,
            budget => budget.saturating_sub(self.used).max(1),
        }
    }

    /// Simulates `workload` under `cfg` and `arch` with `ins` attached
    /// (tracer, profiler, observers, sample cadence). `ins.budget` and
    /// `ins.live` are the job's to set: they are overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Budget`] when the cumulative budget trips.
    pub fn run_with(
        &mut self,
        cfg: &GpuConfig,
        arch: ArchConfig,
        workload: &Workload,
        ins: &mut Instruments<'_>,
    ) -> Result<Stats, JobError> {
        ins.budget = self.remaining();
        ins.live = self
            .ctx
            .live
            .clone()
            .map(|h| LiveObserver::start(h, &workload.name, &arch.name, cfg.num_sms));
        let result = Runner::new(cfg.clone()).run_with(workload, arch, ins);
        ins.live = None;
        match result {
            Ok(s) => {
                self.used += s.cycles;
                Ok(s)
            }
            Err(BudgetExceeded { cycles, .. }) => Err(JobError::Budget {
                cycles: self.used + cycles,
                budget: self.ctx.cycle_budget,
            }),
        }
    }

    /// Runs `workload` on `arch` under `runner`'s hardware config and
    /// prices it with `runner`'s energy model.
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
        let stats = self.run_stats(runner.config(), arch.config(), workload)?;
        Ok(runner.report(arch, stats))
    }

    /// Runs `workload` under a custom [`GpuConfig`] and [`ArchConfig`]
    /// with nothing attached.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::Budget`] when the cumulative budget trips.
    pub fn run_stats(
        &mut self,
        cfg: &GpuConfig,
        arch: ArchConfig,
        workload: &Workload,
    ) -> Result<Stats, JobError> {
        self.run_with(cfg, arch, workload, &mut Instruments::default())
    }
}

/// Command-line options shared by every experiment binary.
///
/// This is the *single* parser for the flag set the binaries share —
/// `--scale`, `--threads`, `--budget`, `--hostprof`, `--json`,
/// `--deterministic`, `--live`, `--live-interval` — so no
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
    gscalar_hostprof::set_enabled(opts.hostprof);
    let live = match opts.open_live() {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{name}: --live: {e}");
            return ExitCode::FAILURE;
        }
    };
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
        live: live.clone(),
        ..SweepConfig::default()
    };
    let outcome = run_sweep(&specs, &cfg);
    if let Some(h) = live {
        h.close();
    }
    if !outcome.all_completed() {
        for f in &outcome.failures {
            eprintln!(
                "{}: job {} failed ({}): {}",
                exp.name, f.job, f.kind, f.message
            );
        }
        return ExitCode::FAILURE;
    }
    let mut r = Report::from_options(exp.name, &opts);
    (exp.render)(&mut r, &outcome.results, opts.scale);
    r.finish();
    ExitCode::SUCCESS
}

/// Digest of the modeled hardware configuration, as recorded in every
/// manifest by `Report::config`: the default [`GpuConfig`].
#[must_use]
pub fn config_digest() -> String {
    gscalar_metrics::fnv1a_hex(&format!("{:?}", GpuConfig::default()))
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
    use gscalar_live::LiveHandle;

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
        assert!(o.hostprof);
        assert!(o.deterministic);
        assert_eq!(o.live.as_deref(), Some("/tmp/x.ndjson"));
        assert_eq!(o.live_interval, 256);
        let d = CliOptions::parse(Vec::<String>::new());
        assert!(matches!(d.scale, Scale::Full));
        assert_eq!(d.threads, 1);
        assert_eq!(d.budget, 0);
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

    /// Runs the `unit` job of experiment `exp` at test scale in a
    /// serial context with `budget` and `live`.
    fn run_job(
        exp: &str,
        unit: &str,
        budget: u64,
        live: Option<LiveHandle>,
    ) -> Result<JobOutput, JobError> {
        let spec = (by_name(exp).expect("registered").grid)(Scale::Test)
            .into_iter()
            .find(|s| s.id.unit == unit)
            .expect("unit in grid");
        (spec.run)(&JobCtx {
            cycle_budget: budget,
            live,
        })
    }

    #[test]
    fn traced_and_profiled_runs_stream_through_the_job() {
        // bottleneck: the traced baseline plus four what-if runs;
        // fig01_divergence: one profiled run.
        for (exp, runs) in [("bottleneck", 5), ("fig01_divergence", 1)] {
            let live = LiveHandle::memory(gscalar_live::StreamConfig::default());
            run_job(exp, "ST", 0, Some(live.clone())).expect("no budget");
            live.close();
            let lines = live.collected().expect("memory sink");
            let count = |kind: &str| {
                let tag = format!("\"type\":\"{kind}\"");
                lines.iter().filter(|l| l.contains(&tag)).count()
            };
            assert_eq!(count("run_start"), runs, "{exp}: {lines:?}");
            assert_eq!(count("run_end"), runs, "{exp}: {lines:?}");
        }
    }

    #[test]
    fn traced_and_profiled_runs_trip_the_budget_at_its_boundary() {
        // A budget under 4096 cycles is also the run's sample interval,
        // so a run longer than its allowance stops exactly there. ST's
        // traced baseline (634 cycles) fits in 1000; its first what-if
        // run trips with the job's cumulative count.
        for (exp, unit, budget) in [
            ("bottleneck", "BT", 3000),
            ("bottleneck", "ST", 1000),
            ("fig01_divergence", "MM", 2000),
        ] {
            let err = run_job(exp, unit, budget, None).expect_err("over budget");
            assert_eq!(
                err,
                JobError::Budget {
                    cycles: budget,
                    budget
                },
                "{exp}/{unit}"
            );
        }
    }

    #[test]
    fn a_budget_abort_ends_the_runs_live_stream() {
        let live = LiveHandle::memory(gscalar_live::StreamConfig::default());
        let mut sim = JobSim::new(&JobCtx {
            cycle_budget: 1000,
            live: Some(live.clone()),
        });
        let w = gscalar_workloads::by_abbr("MM", Scale::Test).expect("known benchmark");
        let err = sim
            .run(&Runner::new(GpuConfig::gtx480()), &w, Arch::Baseline)
            .expect_err("MM runs past 1000 cycles");
        let JobError::Budget { cycles, .. } = err else {
            panic!("not a budget abort: {err:?}");
        };
        live.close();
        let lines = live.collected().expect("memory sink");
        let ends: Vec<u64> = lines
            .iter()
            .filter_map(
                |l| match gscalar_live::LiveRecord::parse(l).expect("parses") {
                    gscalar_live::LiveRecord::RunEnd { cycle, .. } => Some(cycle),
                    _ => None,
                },
            )
            .collect();
        assert_eq!(ends, [cycles], "{lines:?}");
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
