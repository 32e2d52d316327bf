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
//! Every experiment binary — `sweep` and each figure/table binary —
//! is [`cli_main`]: one flag parser, one grid builder ([`grid`]) and
//! one run-and-render driver, so `probe --scale test` and
//! `sweep probe --scale test` are the same run.

use std::fs::File;
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use gscalar_core::{Arch, BudgetExceeded, Instruments, RunReport, Runner, Workload};
use gscalar_sim::{ArchConfig, GpuConfig, LiveObserver, Stats};
use gscalar_sweep::{
    run_sweep, JobCache, JobCtx, JobError, JobOutput, JobSpec, Progress, ResultSet, SweepConfig,
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
/// `throughput` and `trace` take exactly these flags; the experiment
/// runner ([`cli_main`]) adds its own to the same parse loop, so no
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
    /// Parses the options from `args`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag for an unknown flag or a
    /// stray argument, a flag missing its value, and a malformed value.
    pub fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        parse_flags(args, false).map(|o| o.cli)
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

/// The experiment runner's options: the shared [`CliOptions`] plus
/// which experiments run and where their results persist.
#[derive(Debug, Clone)]
pub(crate) struct RunOptions {
    /// The shared flags.
    pub cli: CliOptions,
    /// Experiment names (positional arguments), in the order given.
    pub names: Vec<String>,
    /// Run every registered experiment (`--all`).
    pub all: bool,
    /// Print the registry instead of running (`--list`).
    pub list: bool,
    /// Results directory (`--out DIR`): per-job manifests (resumed on
    /// a rerun) and each experiment's `<name>.txt` and `<name>.json`.
    pub out: Option<PathBuf>,
    /// Content-addressed result cache shared across out dirs and with
    /// the `serve` job server (`--cache DIR`).
    pub cache: Option<PathBuf>,
    /// Discard `<out>/jobs/` and re-execute everything (`--fresh`).
    pub fresh: bool,
    /// Extra attempts for a panicking or failing job (`--retries N`,
    /// default 1).
    pub retries: u32,
}

impl RunOptions {
    /// Parses the runner's options from `args`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag for an unknown flag, a flag
    /// missing its value, and a malformed value.
    pub(crate) fn parse<I, S>(args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        parse_flags(args, true)
    }
}

/// The one flag table. The runner's flags and positional experiment
/// names are accepted only when `runner` is set; otherwise they are
/// unknown, as for `throughput` and `trace`.
fn parse_flags<I, S>(args: I, runner: bool) -> Result<RunOptions, String>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let mut o = RunOptions {
        cli: CliOptions {
            scale: Scale::Full,
            threads: 1,
            budget: 0,
            hostprof: false,
            json: None,
            deterministic: false,
            live: None,
            live_interval: gscalar_live::DEFAULT_SNAPSHOT_INTERVAL,
        },
        names: Vec::new(),
        all: false,
        list: false,
        out: None,
        cache: None,
        fresh: false,
        retries: 1,
    };
    let c = &mut o.cli;
    let mut it = args.into_iter().map(Into::into).peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        match a.as_str() {
            "--scale" => c.scale = scale_arg(&value("--scale")?)?,
            "--threads" => c.threads = parse_number("--threads", &value("--threads")?)?,
            "--budget" => c.budget = parse_number("--budget", &value("--budget")?)?,
            "--hostprof" => c.hostprof = true,
            "--json" => {
                // The path operand is optional: `--json --scale ...`
                // means "default path", and so does `--json probe` for
                // the runner, which never takes an experiment name as
                // the path.
                let is_path =
                    |p: &String| !p.starts_with("--") && (!runner || by_name(p).is_none());
                c.json = Some(it.next_if(is_path).map(PathBuf::from));
            }
            "--deterministic" => c.deterministic = true,
            "--live" => c.live = Some(value("--live")?),
            "--live-interval" => {
                c.live_interval = parse_number("--live-interval", &value("--live-interval")?)?;
            }
            "--all" if runner => o.all = true,
            "--list" if runner => o.list = true,
            "--fresh" if runner => o.fresh = true,
            "--out" if runner => o.out = Some(PathBuf::from(value("--out")?)),
            "--cache" if runner => o.cache = Some(PathBuf::from(value("--cache")?)),
            "--retries" if runner => o.retries = parse_number("--retries", &value("--retries")?)?,
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            name if runner => o.names.push(name.to_string()),
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    Ok(o)
}

/// Parses a `--scale` value: `test` or `full`.
///
/// # Errors
///
/// Returns a message naming the flag for any other value.
pub fn scale_arg(v: &str) -> Result<Scale, String> {
    match v {
        "test" => Ok(Scale::Test),
        "full" => Ok(Scale::Full),
        other => Err(format!("--scale expects test or full, got {other}")),
    }
}

/// Parses the numeric value of `flag`.
fn parse_number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("{flag}: {e} ({v:?})"))
}

/// The whole main of every experiment binary. A figure/table binary
/// passes its own name, which is parsed as the first argument, so
/// `probe --scale test` runs exactly what `sweep probe --scale test`
/// does; `sweep` passes `None`. It takes the [`CliOptions`] flags plus
/// experiment names, `--all`, `--list`, `--out DIR`, `--cache DIR`,
/// `--fresh` and `--retries N` (default 1). Bad flags exit 2, other
/// errors and failed jobs exit 1.
#[must_use]
pub fn cli_main(own: Option<&str>) -> ExitCode {
    let bin = own.unwrap_or("sweep");
    let args = own
        .map(String::from)
        .into_iter()
        .chain(std::env::args().skip(1));
    let opts = match RunOptions::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{bin}: {e}");
            return ExitCode::from(2);
        }
    };
    run(bin, &opts).unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        ExitCode::FAILURE
    })
}

/// Runs the selected experiments' grid through the sweep engine and
/// renders every experiment whose jobs all completed.
///
/// Output is deterministic (wall-clock fields zeroed) with
/// `--deterministic` or `--out`. The text goes to `<out>/<name>.txt`,
/// else stdout; the manifest to the `--json` path, else
/// `<out>/<name>.json`, else nowhere.
fn run(bin: &str, o: &RunOptions) -> Result<ExitCode, String> {
    if o.list {
        for e in all() {
            println!("{:<26} {}", e.name, e.about);
        }
        return Ok(ExitCode::SUCCESS);
    }
    let cli = &o.cli;
    let names: Vec<&str> = if o.all {
        all().iter().map(|e| e.name).collect()
    } else {
        o.names.iter().map(String::as_str).collect()
    };
    if names.is_empty() {
        return Err("nothing to run: pass experiment names, --all, or --list".into());
    }
    let specs = grid(&names, cli.scale, cli.budget)?;
    let exps: Vec<Experiment> = names
        .iter()
        .map(|n| by_name(n).expect("grid resolved every name"))
        .collect();
    if matches!(cli.json, Some(Some(_))) && exps.len() > 1 {
        return Err(format!(
            "--json PATH holds one manifest, but {} experiments run (use --out DIR)",
            exps.len()
        ));
    }
    gscalar_hostprof::set_enabled(cli.hostprof);
    let cache = o
        .cache
        .as_ref()
        .map(|dir| Arc::new(gscalar_serve::ResultCache::new(dir)));
    if let Some(c) = &cache {
        let warm = c.scan();
        if warm > 0 {
            eprintln!("{bin}: result cache warm with {warm} entries");
        }
    }
    if let Some(out) = &o.out {
        let jobs = out.join("jobs");
        if o.fresh && jobs.exists() {
            std::fs::remove_dir_all(&jobs).map_err(|e| format!("{}: {e}", jobs.display()))?;
        }
        std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    }
    let live = cli.open_live().map_err(|e| format!("--live: {e}"))?;
    let cfg = SweepConfig {
        threads: cli.threads,
        out_dir: o.out.clone(),
        max_retries: o.retries,
        progress: Progress::PerJob,
        live: live.clone(),
        cache: cache.clone().map(|c| c as Arc<dyn JobCache>),
        cancel: None,
    };
    eprintln!(
        "{bin}: {} jobs across {} experiments on {} thread(s)",
        specs.len(),
        exps.len(),
        gscalar_sweep::resolve_threads(cli.threads)
    );
    // Every manifest's wall time covers the sweep, not only its render.
    let start = Instant::now();
    let outcome = run_sweep(&specs, &cfg);
    if let Some(h) = live {
        h.close();
    }
    eprintln!(
        "{bin}: {} executed, {} resumed, {} cached, {} failed in {:.1}s",
        outcome.executed,
        outcome.resumed,
        outcome.cached,
        outcome.failures.len(),
        outcome.wall_s
    );
    if let Some(c) = &cache {
        let k = c.counters();
        eprintln!(
            "{bin}: cache {} hit(s), {} miss(es), {} store(s) at {}",
            k.hits,
            k.misses,
            k.stores,
            c.root().display()
        );
    }

    let failed = outcome.failed_experiments();
    for e in &exps {
        if failed.iter().any(|f| f == e.name) {
            eprintln!("{bin}: skipping render of {} (failed jobs)", e.name);
            continue;
        }
        let text: Box<dyn Write> = match &o.out {
            Some(out) => {
                let path = out.join(format!("{}.txt", e.name));
                Box::new(File::create(&path).map_err(|err| format!("{}: {err}", path.display()))?)
            }
            None => Box::new(std::io::stdout()),
        };
        let json = cli.json_path(e.name).or_else(|| {
            o.out
                .as_ref()
                .map(|out| out.join(format!("{}.json", e.name)))
        });
        let mut r = Report::to_writer(e.name, json, text);
        r.set_start(start);
        r.set_deterministic(cli.deterministic || o.out.is_some());
        (e.render)(&mut r, &outcome.results, cli.scale);
        r.add_cycles(outcome.results.sim_cycles(e.name));
        r.finish();
    }

    for f in &outcome.failures {
        eprintln!(
            "{bin}: job {} failed ({}, {} attempt(s)): {}",
            f.job, f.kind, f.attempts, f.message
        );
    }
    Ok(if outcome.all_completed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
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
/// budget discrimination. The leading version tag is bumped by every
/// change to the model's code that changes simulated results, which
/// the config digest cannot see.
#[must_use]
pub fn cache_key(experiment: &str, unit: &str, scale: Scale, cycle_budget: u64) -> String {
    let digest = gscalar_metrics::fnv1a_hex(&format!(
        "gscalar-cache-v2|{}|{experiment}|{unit}|{scale:?}|{cycle_budget}",
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

/// The one grid builder of every front end (the experiment binaries
/// and the `serve` job server): the grids of the experiments `names`,
/// in the order given, at `scale`, each job under the per-job cycle
/// `budget` (0 = unlimited) and keyed by its [`cache_key`].
///
/// # Errors
///
/// Returns a message naming the first unknown experiment.
pub fn grid<S: AsRef<str>>(names: &[S], scale: Scale, budget: u64) -> Result<Vec<JobSpec>, String> {
    let mut specs = Vec::new();
    for name in names {
        let name = name.as_ref();
        let exp =
            by_name(name).ok_or_else(|| format!("unknown experiment {name} (see sweep --list)"))?;
        specs.extend((exp.grid)(scale).into_iter().map(|s| s.with_budget(budget)));
    }
    Ok(attach_cache_keys(specs, scale))
}

/// Builds one [`JobSpec`] per suite workload via `job`, which receives
/// the workload and the job's [`JobSim`]; the job's simulated cycles
/// are what its `JobSim` ran.
pub(crate) fn suite_grid<F>(name: &'static str, scale: Scale, job: F) -> Vec<JobSpec>
where
    F: Fn(&Workload, &mut JobSim) -> Result<JobOutput, JobError> + Send + Sync + Clone + 'static,
{
    gscalar_workloads::suite(scale)
        .into_iter()
        .map(|w| {
            let job = job.clone();
            let id = gscalar_sweep::JobId::new(name, &w.abbr);
            JobSpec::new(id, move |ctx| {
                let mut sim = JobSim::new(ctx);
                let mut out = job(&w, &mut sim)?;
                out.sim_cycles = sim.used();
                Ok(out)
            })
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
        ])
        .unwrap();
        assert!(matches!(o.scale, Scale::Test));
        assert_eq!(o.threads, 4);
        assert_eq!(o.budget, 5000);
        assert!(o.hostprof);
        assert!(o.deterministic);
        assert_eq!(o.live.as_deref(), Some("/tmp/x.ndjson"));
        assert_eq!(o.live_interval, 256);
        let d = CliOptions::parse(Vec::<String>::new()).unwrap();
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
        let o = CliOptions::parse(["--json", "--scale", "test"]).unwrap();
        assert_eq!(
            o.json_path("fig99"),
            Some(PathBuf::from("results/fig99.json"))
        );
        let o = CliOptions::parse(["--json", "out/custom.json"]).unwrap();
        assert_eq!(o.json_path("fig99"), Some(PathBuf::from("out/custom.json")));
        // The runner never takes an experiment name as the path.
        let o = RunOptions::parse(["--json", "probe", "--scale", "test"]).unwrap();
        assert_eq!(o.names, ["probe"]);
        assert_eq!(
            o.cli.json_path("probe"),
            Some(PathBuf::from("results/probe.json"))
        );
    }

    #[test]
    fn cli_options_reject_bad_flags_by_name() {
        let err = |args: &[&str]| CliOptions::parse(args.iter().copied()).unwrap_err();
        assert_eq!(err(&["--bugdet", "500"]), "unknown flag --bugdet");
        assert_eq!(err(&["--sim-threads", "4"]), "unknown flag --sim-threads");
        assert_eq!(
            err(&["--scale", "test", "stray"]),
            "unexpected argument stray"
        );
        assert_eq!(err(&["--scale"]), "--scale expects a value");
        assert_eq!(err(&["--budget"]), "--budget expects a value");
        assert_eq!(err(&["--live"]), "--live expects a value");
        assert!(err(&["--scale", "tset"]).starts_with("--scale expects test or full"));
        assert!(err(&["--threads", "two"]).starts_with("--threads: "));
        assert!(err(&["--budget", "-1"]).starts_with("--budget: "));
        assert!(err(&["--live-interval", "1.5"]).starts_with("--live-interval: "));
        // The runner's own flags stay unknown to `throughput` and `trace`.
        assert_eq!(err(&["--out", "d"]), "unknown flag --out");
        assert_eq!(err(&["--all"]), "unknown flag --all");
        let full = CliOptions::parse(["--scale", "full"]).unwrap();
        assert!(matches!(full.scale, Scale::Full));
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
    fn run_options_take_names_and_runner_flags() {
        let o = RunOptions::parse([
            "probe",
            "--scale",
            "test",
            "--out",
            "d",
            "fig12_rf_power",
            "--retries",
            "0",
        ])
        .unwrap();
        assert_eq!(o.names, ["probe", "fig12_rf_power"]);
        assert_eq!(o.out, Some(PathBuf::from("d")));
        assert_eq!(o.retries, 0);
        assert!(matches!(o.cli.scale, Scale::Test));
        let d = RunOptions::parse(Vec::<String>::new()).unwrap();
        assert_eq!(d.retries, 1);
        assert!(d.names.is_empty() && !d.all && !d.list && !d.fresh);
        let err = RunOptions::parse(["probe", "--retries", "x"]).unwrap_err();
        assert!(err.starts_with("--retries: "), "{err}");
    }

    #[test]
    fn grid_budgets_and_keys_every_spec() {
        let specs = grid(&["probe", "tab01_config"], Scale::Test, 5000).unwrap();
        assert_eq!(specs.len(), 18, "17 probe jobs and one tab01 job");
        for s in &specs {
            assert_eq!(s.cycle_budget, 5000);
            assert_eq!(
                s.cache_key.as_deref(),
                Some(cache_key(&s.id.experiment, &s.id.unit, Scale::Test, 5000).as_str())
            );
        }
        let err = grid(&["probe", "fig99_nope"], Scale::Test, 0).unwrap_err();
        assert!(err.contains("unknown experiment fig99_nope"), "{err}");
    }
}
