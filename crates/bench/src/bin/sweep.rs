//! Reproduce every figure and table of the paper in one command.
//!
//! ```text
//! sweep --all --threads 4 --out results/
//! sweep fig11_power_efficiency probe --scale test
//! sweep --list
//! ```
//!
//! The sweep shards the (experiment × benchmark) job grid across a
//! work-stealing thread pool, isolates every job (panic containment,
//! optional `--budget` cycle cap, bounded retry), and persists each
//! completed job as a schema-v1 manifest under `<out>/jobs/`. Rerunning
//! over the same `--out` directory resumes: completed jobs are loaded
//! instead of re-executed (`--fresh` discards them). `--cache DIR`
//! additionally consults a content-addressed result cache shared
//! across out dirs and with the `serve` job server — jobs whose keyed
//! manifest is cached are re-persisted instead of simulated.
//! Per-experiment
//! tables land in `<out>/<name>.txt` + deterministic `<out>/<name>.json`,
//! plus an aggregate `dashboard.md` and a merged `BENCH_sweep.json`.
//! Manifests are byte-identical regardless of thread count or schedule.

use std::path::PathBuf;
use std::process::ExitCode;

use gscalar_bench::experiments::{self, Experiment};
use gscalar_bench::Report;
use gscalar_metrics::{aggregate_markdown, merge_manifests, Manifest};
use gscalar_sweep::{run_sweep, JobSpec, Progress, SweepConfig};
use gscalar_workloads::Scale;

struct Options {
    all: bool,
    list: bool,
    fresh: bool,
    names: Vec<String>,
    scale: Scale,
    threads: usize,
    budget: u64,
    retries: u32,
    out: Option<PathBuf>,
    cache: Option<PathBuf>,
    live: Option<String>,
    live_interval: u64,
    deterministic: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut o = Options {
        all: false,
        list: false,
        fresh: false,
        names: Vec::new(),
        scale: Scale::Full,
        threads: 1,
        budget: 0,
        retries: 1,
        out: None,
        cache: None,
        live: None,
        live_interval: gscalar_live::DEFAULT_SNAPSHOT_INTERVAL,
        deterministic: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} expects a value"));
        match a.as_str() {
            "--all" => o.all = true,
            "--list" => o.list = true,
            "--fresh" => o.fresh = true,
            "--scale" => o.scale = experiments::scale_arg(&value("--scale")?)?,
            "--threads" => {
                o.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--budget" => {
                o.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
            }
            "--retries" => {
                o.retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--out" => o.out = Some(PathBuf::from(value("--out")?)),
            "--cache" => o.cache = Some(PathBuf::from(value("--cache")?)),
            "--live" => o.live = Some(value("--live")?),
            "--live-interval" => {
                o.live_interval = value("--live-interval")?
                    .parse()
                    .map_err(|e| format!("--live-interval: {e}"))?;
            }
            "--deterministic" => o.deterministic = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other} (see sweep --list)"));
            }
            name => o.names.push(name.to_string()),
        }
    }
    Ok(o)
}

fn select(o: &Options) -> Result<Vec<Experiment>, String> {
    if o.all {
        return Ok(experiments::all());
    }
    if o.names.is_empty() {
        return Err("nothing to run: pass experiment names, --all, or --list".into());
    }
    o.names
        .iter()
        .map(|n| {
            experiments::by_name(n).ok_or_else(|| format!("unknown experiment {n} (see --list)"))
        })
        .collect()
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let o = parse_args()?;
    if o.list {
        for e in experiments::all() {
            println!("{:<26} {}", e.name, e.about);
        }
        return Ok(ExitCode::SUCCESS);
    }
    // Live telemetry is advisory: lifecycle events and every job's run
    // records stream through `SweepConfig::live`. Closed (flushing the
    // terminal `stream_end`) whether the sweep succeeds or fails.
    let live = match &o.live {
        None => None,
        Some(target) => Some(
            gscalar_live::open_target(
                target,
                gscalar_live::StreamConfig {
                    deterministic: o.deterministic,
                    snapshot_interval: o.live_interval,
                    ..gscalar_live::StreamConfig::default()
                },
            )
            .map_err(|e| format!("--live: {e}"))?,
        ),
    };
    let result = run_selected(&o, live.clone());
    if let Some(h) = live {
        h.close();
    }
    result
}

fn run_selected(o: &Options, live: Option<gscalar_live::LiveHandle>) -> Result<ExitCode, String> {
    let exps = select(o)?;

    // Build the whole job grid in registry order; job IDs are
    // deterministic, so the merged output never depends on scheduling.
    let mut specs: Vec<JobSpec> = Vec::new();
    for e in &exps {
        specs.extend((e.grid)(o.scale));
    }
    if o.budget > 0 {
        for s in &mut specs {
            s.cycle_budget = o.budget;
        }
    }
    // The result cache is keyed by everything that determines a job's
    // output (config digest, experiment, unit, scale, budget), so it is
    // shared safely across sweeps, out dirs, and the job server.
    let cache = o.cache.as_ref().map(|dir| {
        specs = experiments::attach_cache_keys(std::mem::take(&mut specs), o.scale);
        std::sync::Arc::new(gscalar_serve::ResultCache::new(dir))
    });
    if let Some(c) = &cache {
        let warm = c.scan();
        if warm > 0 {
            eprintln!("sweep: result cache warm with {warm} entries");
        }
    }
    if o.fresh {
        if let Some(out) = &o.out {
            let jobs = out.join("jobs");
            if jobs.exists() {
                std::fs::remove_dir_all(&jobs).map_err(|e| format!("{}: {e}", jobs.display()))?;
            }
        }
    }

    let cfg = SweepConfig {
        threads: o.threads,
        out_dir: o.out.clone(),
        max_retries: o.retries,
        progress: Progress::PerJob,
        live,
        cache: cache
            .clone()
            .map(|c| c as std::sync::Arc<dyn gscalar_sweep::JobCache>),
        cancel: None,
    };
    eprintln!(
        "sweep: {} jobs across {} experiments on {} thread(s)",
        specs.len(),
        exps.len(),
        gscalar_sweep::resolve_threads(o.threads)
    );
    let outcome = run_sweep(&specs, &cfg);
    eprintln!(
        "sweep: {} executed, {} resumed, {} cached, {} failed in {:.1}s",
        outcome.executed,
        outcome.resumed,
        outcome.cached,
        outcome.failures.len(),
        outcome.wall_s
    );
    if let Some(c) = &cache {
        let k = c.counters();
        eprintln!(
            "sweep: cache {} hit(s), {} miss(es), {} store(s) at {}",
            k.hits,
            k.misses,
            k.stores,
            c.root().display()
        );
    }

    // Render every fully-completed experiment; experiments with failed
    // jobs are skipped (their failure records are already on disk /
    // reported below).
    let failed = outcome.failed_experiments();
    let mut manifests: Vec<Manifest> = Vec::new();
    for e in &exps {
        if failed.iter().any(|f| f == e.name) {
            eprintln!("sweep: skipping render of {} (failed jobs)", e.name);
            continue;
        }
        let manifest = match &o.out {
            Some(out) => {
                let txt_path = out.join(format!("{}.txt", e.name));
                let file = std::fs::File::create(&txt_path)
                    .map_err(|err| format!("{}: {err}", txt_path.display()))?;
                let mut r = Report::to_writer(
                    e.name,
                    Some(out.join(format!("{}.json", e.name))),
                    Box::new(file),
                );
                r.set_deterministic(true);
                (e.render)(&mut r, &outcome.results, o.scale);
                r.finish()
            }
            None => {
                let mut r = Report::to_writer(e.name, None, Box::new(std::io::stdout()));
                r.set_deterministic(true);
                (e.render)(&mut r, &outcome.results, o.scale);
                r.finish()
            }
        };
        manifests.extend(manifest);
    }

    // Aggregate: a human dashboard plus one merged manifest for the
    // regression gate (`report compare`).
    if let Some(out) = &o.out {
        if !manifests.is_empty() {
            std::fs::write(out.join("dashboard.md"), aggregate_markdown(&manifests))
                .map_err(|e| format!("{}: {e}", out.join("dashboard.md").display()))?;
            let merged = merge_manifests(&manifests, "sweep");
            std::fs::write(out.join("BENCH_sweep.json"), merged.to_json())
                .map_err(|e| format!("{}: {e}", out.join("BENCH_sweep.json").display()))?;
            eprintln!(
                "sweep: wrote {} experiment reports + dashboard.md to {}",
                manifests.len(),
                out.display()
            );
        }
    }

    if !outcome.failures.is_empty() {
        for f in &outcome.failures {
            eprintln!(
                "sweep: job {} failed ({}, {} attempt(s)): {}",
                f.job, f.kind, f.attempts, f.message
            );
        }
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
