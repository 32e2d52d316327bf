//! The sweep engine: resume scan, fault-isolated parallel execution,
//! and deterministic persistence.
//!
//! Execution model, per job:
//!
//! 1. **Resume** — when an output directory is configured, a job whose
//!    completed manifest (`jobs/<exp>/<unit>.json`) parses and names
//!    the job is *skipped* and its result reloaded. A failure record
//!    (`jobs/<exp>/<unit>.failure.json`) does **not** count as
//!    completed: the job re-runs, and the record is replaced by a
//!    manifest on success. A corrupt manifest is treated as absent.
//! 2. **Isolation** — the job closure runs under `catch_unwind`; a
//!    panic is contained, recorded, and cannot poison the sweep.
//! 3. **Bounded retry** — panics and job-reported errors are retried
//!    up to `max_retries` extra attempts; cycle-budget overruns are
//!    deterministic and never retried.
//! 4. **Persistence** — completed jobs are written as byte-
//!    deterministic schema-v1 manifests (temp file + rename, so a
//!    killed sweep never leaves a truncated "completed" file); failed
//!    jobs get a machine-readable [`FailureRecord`].
//!
//! Workers simulate and announce each job's end on the live stream;
//! all file writes and progress output happen on the calling thread.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::job::{
    FailureRecord, JobCache, JobCtx, JobError, JobOutput, JobResult, JobSpec, ResultSet,
};
use gscalar_live::{EtaTracker, LiveHandle, LiveRecord};
use gscalar_metrics::{HostProfile, Manifest};
use gscalar_pool::run_indexed;

/// Progress reporting mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Progress {
    /// No output.
    #[default]
    Quiet,
    /// One line per completed job on stderr, with a running ETA.
    PerJob,
}

/// Engine configuration.
#[derive(Clone)]
pub struct SweepConfig {
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Results directory; `None` disables persistence and resume.
    /// Per-job artifacts live under `<out_dir>/jobs/`.
    pub out_dir: Option<PathBuf>,
    /// Extra attempts after a retryable failure (panic or job error).
    pub max_retries: u32,
    /// Progress reporting.
    pub progress: Progress,
    /// Live telemetry stream (`None` = off). It carries the sweep's
    /// lifecycle events (`sweep_start`, `job_start`/`job_retry`/
    /// `job_end` with a budget-weighted ETA, `sweep_end`), and every
    /// job hands it to its simulations through [`JobCtx::live`], so the
    /// runs' `run_start`/`snapshot`/`run_end` records ride the same
    /// stream. A worker announces its next job only after the previous
    /// one's `job_end`, so at one thread the stream is in job order; at
    /// more, records of concurrent jobs interleave in a
    /// schedule-dependent order — the stream is a side channel, never
    /// a comparison artifact.
    pub live: Option<LiveHandle>,
    /// Content-addressed result cache. Consulted during the resume
    /// scan for jobs with a [`JobSpec::cache_key`] that have no
    /// completed manifest on disk; hits are re-persisted to `out_dir`
    /// (so the output directory stays a self-contained record) and
    /// misses that later execute successfully are stored back.
    pub cache: Option<Arc<dyn JobCache>>,
    /// Cooperative cancellation: when the flag flips to `true`, jobs
    /// that have not started are skipped (no failure record — a later
    /// sweep re-runs them), while in-flight jobs finish and persist
    /// normally. This is the graceful-drain primitive.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl fmt::Debug for SweepConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepConfig")
            .field("threads", &self.threads)
            .field("out_dir", &self.out_dir)
            .field("max_retries", &self.max_retries)
            .field("progress", &self.progress)
            .field("live", &self.live.is_some())
            .field("cache", &self.cache.is_some())
            .field("cancel", &self.cancel.is_some())
            .finish()
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            threads: 1,
            out_dir: None,
            max_retries: 1,
            progress: Progress::Quiet,
            live: None,
            cache: None,
            cancel: None,
        }
    }
}

/// What a sweep produced.
#[derive(Debug, Default)]
pub struct SweepOutcome {
    /// Every completed job (executed now or resumed), in registration
    /// order.
    pub results: ResultSet,
    /// Every job that exhausted its attempts, in registration order.
    pub failures: Vec<FailureRecord>,
    /// Jobs executed in this run.
    pub executed: usize,
    /// Jobs skipped because a completed manifest was found.
    pub resumed: usize,
    /// Jobs served from the result cache instead of executed.
    pub cached: usize,
    /// Jobs skipped because the sweep was cancelled before they
    /// started. Cancelled jobs are neither results nor failures.
    pub cancelled: usize,
    /// Wall seconds for the whole sweep.
    pub wall_s: f64,
}

impl SweepOutcome {
    /// Whether every job completed.
    #[must_use]
    pub fn all_completed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Experiments with at least one failed job, deduplicated, in
    /// first-failure order.
    #[must_use]
    pub fn failed_experiments(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for f in &self.failures {
            let exp = f.job.split('/').next().unwrap_or(&f.job).to_string();
            if !out.contains(&exp) {
                out.push(exp);
            }
        }
        out
    }
}

/// Paths of one job's on-disk artifacts.
fn job_paths(out_dir: &Path, spec: &JobSpec) -> (PathBuf, PathBuf) {
    let dir = out_dir.join("jobs").join(&spec.id.experiment);
    (
        dir.join(format!("{}.json", spec.id.unit)),
        dir.join(format!("{}.failure.json", spec.id.unit)),
    )
}

/// Builds a real-timing side channel, bench `<name>.host`: the host
/// profile of `sim_cycles` simulated in `wall_s` seconds, also as the
/// metrics `host/{wall_time_s,sim_cycles,cycles_per_host_s}`. The
/// sweep writes one next to each job's deterministic manifest as
/// `jobs/<exp>/<unit>.host.json`, and a deterministic report one next
/// to its manifest. The main manifest stays byte-deterministic; actual
/// host wall time rides here. The resume scan never reads these files,
/// and every metric is under `host/`, so the side channel can neither
/// perturb determinism nor gate a regression comparison.
#[must_use]
pub fn host_manifest(name: &str, sim_cycles: u64, wall_s: f64) -> Manifest {
    let mut m = Manifest::new(format!("{name}.host"));
    m.host = HostProfile {
        wall_time_s: wall_s,
        sim_cycles,
        cycles_per_host_s: if wall_s > 0.0 {
            sim_cycles as f64 / wall_s
        } else {
            0.0
        },
    };
    m.set("host/wall_time_s", wall_s);
    m.set("host/sim_cycles", sim_cycles as f64);
    m.set("host/cycles_per_host_s", m.host.cycles_per_host_s);
    m
}

/// Writes `text` to `path` atomically (temp file + rename).
///
/// # Panics
///
/// Panics when the directory cannot be created or the write/rename
/// fails — persistence errors are never silently swallowed.
pub fn write_atomic(path: &Path, text: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text).unwrap_or_else(|e| panic!("writing {}: {e}", tmp.display()));
    std::fs::rename(&tmp, path)
        .unwrap_or_else(|e| panic!("renaming {} -> {}: {e}", tmp.display(), path.display()));
}

/// Runs one job with panic containment and up to `cfg.max_retries`
/// retries, returning the attempt count alongside the outcome. The
/// job's [`JobCtx`] carries its budget plus `cfg`'s live stream. Emits
/// `job_start` (before the first attempt) and `job_retry` lifecycle
/// events on `cfg.live`; this may run on a worker thread, which the
/// non-blocking stream supports.
///
/// This is the single-job execution primitive [`run_sweep`] is built
/// on, exported so alternative drivers (e.g. a job server) share the
/// exact isolation and retry semantics.
pub fn execute_one(spec: &JobSpec, cfg: &SweepConfig) -> (u32, Result<JobOutput, JobError>) {
    let ctx = JobCtx {
        cycle_budget: spec.cycle_budget,
        live: cfg.live.clone(),
    };
    let live = cfg.live.as_ref();
    if let Some(live) = live {
        live.emit(&LiveRecord::JobStart {
            job: spec.id.to_string(),
            budget: spec.cycle_budget,
            t_s: live.now_s(),
        });
    }
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let outcome = catch_unwind(AssertUnwindSafe(|| (spec.run)(&ctx)));
        let err = match outcome {
            Ok(Ok(out)) => return (attempts, Ok(out)),
            Ok(Err(e)) => e,
            Err(payload) => JobError::Panic(panic_message(payload.as_ref())),
        };
        if !err.retryable() || attempts > cfg.max_retries {
            return (attempts, Err(err));
        }
        if let Some(live) = live {
            live.emit(&LiveRecord::JobRetry {
                job: spec.id.to_string(),
                attempt: u64::from(attempts),
                kind: err.kind().to_string(),
                message: err.message(),
                t_s: live.now_s(),
            });
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Executes a job grid: resumes completed jobs from `cfg.out_dir`,
/// runs the rest on the job executor, and persists every
/// outcome. See the module docs for the exact semantics.
///
/// The returned [`ResultSet`] is ordered by job registration order, so
/// any merge over it is independent of thread count and schedule.
#[must_use]
pub fn run_sweep(specs: &[JobSpec], cfg: &SweepConfig) -> SweepOutcome {
    let t0 = Instant::now();
    let mut outcome = SweepOutcome::default();

    // Results keyed by registration index; the ResultSet is built from
    // these slots *after* the run, so completion order never leaks
    // into merge order.
    let mut slots: Vec<Option<JobResult>> = specs.iter().map(|_| None).collect();

    // Resume scan: reload completed manifests, then consult the
    // result cache, and queue only what neither satisfies. Cache hits
    // are re-persisted to the output directory so it remains a
    // self-contained record (and so the next run resumes from disk
    // without touching the cache).
    let mut pending: Vec<usize> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let prior = cfg.out_dir.as_deref().and_then(|dir| {
            let (done_path, _) = job_paths(dir, spec);
            let text = std::fs::read_to_string(done_path).ok()?;
            let manifest = Manifest::from_json(&text).ok()?;
            JobResult::from_manifest(&spec.id, &manifest).ok()
        });
        if let Some(r) = prior {
            outcome.resumed += 1;
            slots[i] = Some(r);
            continue;
        }
        let hit = cfg.cache.as_deref().and_then(|cache| {
            let key = spec.cache_key.as_deref()?;
            cache.load(key, &spec.id)
        });
        if let Some(r) = hit {
            if let Some(dir) = cfg.out_dir.as_deref() {
                let (done_path, fail_path) = job_paths(dir, spec);
                write_atomic(&done_path, &r.to_manifest().to_json());
                std::fs::remove_file(fail_path).ok();
            }
            outcome.cached += 1;
            slots[i] = Some(r);
            continue;
        }
        pending.push(i);
    }

    // Parallel execution; results land on this thread.
    let total = pending.len();
    let budgets: Vec<u64> = pending.iter().map(|&i| specs[i].cycle_budget).collect();
    if let Some(live) = cfg.live.as_ref() {
        live.emit(&LiveRecord::SweepStart {
            jobs: total as u64,
            budget_cycles: budgets.iter().sum(),
            t_s: live.now_s(),
        });
    }
    // Jobs done so far and the ETA over them, advanced by the worker
    // that finishes a job.
    let finished = Mutex::new((0usize, EtaTracker::new(&budgets)));
    let mut failures_by_index: Vec<(usize, FailureRecord)> = Vec::new();
    run_indexed(
        cfg.threads,
        total,
        |k| {
            let spec = &specs[pending[k]];
            if let Some(cancel) = cfg.cancel.as_deref() {
                // Checked once, before any work: an in-flight job is
                // never aborted mid-simulation, so everything that
                // starts also persists.
                if cancel.load(Ordering::SeqCst) {
                    return (0, Err(JobError::Cancelled), 0.0, 0, 0.0);
                }
            }
            let t = Instant::now();
            let (attempts, result) = execute_one(spec, cfg);
            let wall_s = t.elapsed().as_secs_f64();
            let mut finished = finished.lock().expect("sweep progress poisoned");
            finished.0 += 1;
            finished.1.complete(k);
            let (done, eta_s) = (finished.0, finished.1.eta_s(t0.elapsed().as_secs_f64()));
            // Announced by the worker, under the lock, before it takes
            // its next job: `job_end`s keep their `done` order and
            // precede that worker's next `job_start`. Persistence stays
            // on the calling thread, overlapping the next job.
            if let Some(live) = cfg.live.as_ref() {
                let (status, sim_cycles) = match &result {
                    Ok(out) => ("ok", out.sim_cycles),
                    Err(e) => (e.kind(), 0),
                };
                live.emit(&LiveRecord::JobEnd {
                    job: spec.id.to_string(),
                    status: status.to_string(),
                    attempts: u64::from(attempts),
                    sim_cycles,
                    wall_s: live.redact(wall_s),
                    done: done as u64,
                    total: total as u64,
                    progress: finished.1.fraction(),
                    eta_s: live.redact(eta_s),
                    t_s: live.now_s(),
                });
            }
            (attempts, result, wall_s, done, eta_s)
        },
        |k, (attempts, result, wall_s, done, eta_s)| {
            let spec = &specs[pending[k]];
            if matches!(result, Err(JobError::Cancelled)) {
                // Skipped, not failed: no record, no result, no
                // executed count — the job is simply left for the
                // next sweep over this directory.
                outcome.cancelled += 1;
                return;
            }
            outcome.executed += 1;
            match result {
                Ok(out) => {
                    let r = JobResult::from_output(spec.id.clone(), out, wall_s);
                    if let Some(dir) = cfg.out_dir.as_deref() {
                        let (done_path, fail_path) = job_paths(dir, spec);
                        write_atomic(&done_path, &r.to_manifest().to_json());
                        write_atomic(
                            &done_path.with_extension("host.json"),
                            &host_manifest(&spec.id.to_string(), r.sim_cycles, wall_s).to_json(),
                        );
                        // A success supersedes any failure record left
                        // by a previous run.
                        std::fs::remove_file(fail_path).ok();
                    }
                    if let (Some(cache), Some(key)) =
                        (cfg.cache.as_deref(), spec.cache_key.as_deref())
                    {
                        cache.store(key, &r);
                    }
                    progress_line(
                        cfg.progress,
                        done,
                        total,
                        t0,
                        &spec.id.to_string(),
                        "ok",
                        wall_s,
                        eta_s,
                    );
                    slots[pending[k]] = Some(r);
                }
                Err(e) => {
                    let record = FailureRecord {
                        job: spec.id.to_string(),
                        kind: e.kind().to_string(),
                        attempts,
                        message: e.message(),
                        cycle_budget: spec.cycle_budget,
                    };
                    if let Some(dir) = cfg.out_dir.as_deref() {
                        let (_, fail_path) = job_paths(dir, spec);
                        write_atomic(&fail_path, &record.to_json());
                    }
                    progress_line(
                        cfg.progress,
                        done,
                        total,
                        t0,
                        &spec.id.to_string(),
                        e.kind(),
                        wall_s,
                        eta_s,
                    );
                    failures_by_index.push((pending[k], record));
                }
            }
        },
    );
    if let Some(live) = cfg.live.as_ref() {
        live.emit(&LiveRecord::SweepEnd {
            done: outcome.executed as u64,
            total: total as u64,
            failed: failures_by_index.len() as u64,
            wall_s: live.redact(t0.elapsed().as_secs_f64()),
            t_s: live.now_s(),
        });
    }
    // Results and failures in registration order, not completion
    // order — this is what makes merged output schedule-independent.
    for r in slots.into_iter().flatten() {
        outcome.results.insert(r);
    }
    failures_by_index.sort_by_key(|(i, _)| *i);
    outcome.failures = failures_by_index.into_iter().map(|(_, f)| f).collect();
    outcome.wall_s = t0.elapsed().as_secs_f64();
    outcome
}

/// Prints one per-job progress line with a running ETA. `eta` comes
/// from the budget-weighted [`EtaTracker`], so heavy cells no longer
/// skew the projection the way a plain per-job average did.
#[allow(clippy::too_many_arguments)]
fn progress_line(
    mode: Progress,
    done: usize,
    total: usize,
    t0: Instant,
    id: &str,
    status: &str,
    wall_s: f64,
    eta: f64,
) {
    if mode != Progress::PerJob {
        return;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let flag = if status == "ok" { "" } else { " FAILED" };
    eprintln!(
        "[{done:>4}/{total}] {status:<6} {id:<48} {wall_s:>7.2}s  elapsed {elapsed:>6.1}s  eta {eta:>6.1}s{flag}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;

    fn ok_job(exp: &str, unit: &str, value: f64) -> JobSpec {
        let unit_owned = unit.to_string();
        JobSpec::new(JobId::new(exp, unit), move |_ctx| {
            let mut out = JobOutput::default();
            out.metric(format!("{unit_owned}/v"), value);
            out.sim_cycles = value as u64;
            Ok(out)
        })
    }

    #[test]
    fn runs_grid_and_orders_results() {
        let specs = vec![
            ok_job("e", "z-last", 1.0),
            ok_job("e", "a-first", 2.0),
            ok_job("e", "m-mid", 3.0),
        ];
        let out = run_sweep(&specs, &SweepConfig::default());
        assert!(out.all_completed());
        assert_eq!(out.executed, 3);
        let units: Vec<&str> = out.results.iter().map(|r| r.id.unit.as_str()).collect();
        assert_eq!(units, ["z-last", "a-first", "m-mid"]);
        assert_eq!(out.results.metric("e", "m-mid", "m-mid/v"), 3.0);
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        let specs = vec![
            JobSpec::new(JobId::new("e", "boom"), move |_| {
                t.fetch_add(1, Ordering::SeqCst);
                panic!("injected fault");
            }),
            ok_job("e", "fine", 1.0),
        ];
        let cfg = SweepConfig {
            max_retries: 2,
            ..SweepConfig::default()
        };
        let out = run_sweep(&specs, &cfg);
        assert_eq!(tries.load(Ordering::SeqCst), 3, "1 try + 2 retries");
        assert_eq!(out.failures.len(), 1);
        assert_eq!(out.failures[0].kind, "panic");
        assert_eq!(out.failures[0].attempts, 3);
        assert!(out.failures[0].message.contains("injected fault"));
        assert_eq!(out.failed_experiments(), ["e"]);
        // The healthy job still completed.
        assert!(out.results.get("e", "fine").is_some());
    }

    #[test]
    fn budget_overruns_never_retry() {
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        let specs = vec![JobSpec::new(JobId::new("e", "slow"), move |ctx| {
            t.fetch_add(1, Ordering::SeqCst);
            Err(JobError::Budget {
                cycles: ctx.cycle_budget + 1,
                budget: ctx.cycle_budget,
            })
        })
        .with_budget(100)];
        let cfg = SweepConfig {
            max_retries: 5,
            ..SweepConfig::default()
        };
        let out = run_sweep(&specs, &cfg);
        assert_eq!(tries.load(Ordering::SeqCst), 1);
        assert_eq!(out.failures[0].kind, "budget");
        assert_eq!(out.failures[0].cycle_budget, 100);
        assert!(out.failures[0].message.contains("101"));
    }

    #[test]
    fn persists_and_resumes() {
        let dir = std::env::temp_dir().join("gscalar-sweep-engine-resume");
        std::fs::remove_dir_all(&dir).ok();
        let runs = Arc::new(AtomicU32::new(0));
        let mk = |runs: Arc<AtomicU32>| {
            vec![JobSpec::new(JobId::new("e", "j"), move |_| {
                runs.fetch_add(1, Ordering::SeqCst);
                let mut out = JobOutput::default();
                out.metric("x", 7.0);
                out.sim_cycles = 42;
                Ok(out)
            })]
        };
        let cfg = SweepConfig {
            out_dir: Some(dir.clone()),
            ..SweepConfig::default()
        };
        let first = run_sweep(&mk(runs.clone()), &cfg);
        assert_eq!((first.executed, first.resumed), (1, 0));
        assert!(dir.join("jobs/e/j.json").is_file());
        // Real timing rides in a side channel the resume scan ignores.
        let host = Manifest::load(&dir.join("jobs/e/j.host.json")).unwrap();
        assert_eq!(host.bench, "e/j.host");
        assert_eq!(host.host.sim_cycles, 42);
        assert!(host.get("host/wall_time_s").is_some());
        let second = run_sweep(&mk(runs.clone()), &cfg);
        assert_eq!((second.executed, second.resumed), (0, 1));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "resume must not re-run");
        let r = second.results.get("e", "j").unwrap();
        assert!(r.resumed);
        assert_eq!(r.sim_cycles, 42);
        assert_eq!(r.metrics["x"], 7.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_hits_skip_execution_and_repersist() {
        use std::collections::HashMap;
        use std::sync::Mutex;

        #[derive(Default)]
        struct MemCache {
            map: Mutex<HashMap<String, JobResult>>,
        }
        impl JobCache for MemCache {
            fn load(&self, key: &str, id: &JobId) -> Option<JobResult> {
                let r = self.map.lock().unwrap().get(key)?.clone();
                (r.id == *id).then_some(JobResult { cached: true, ..r })
            }
            fn store(&self, key: &str, result: &JobResult) {
                self.map
                    .lock()
                    .unwrap()
                    .insert(key.to_string(), result.clone());
            }
        }

        let dir = std::env::temp_dir().join("gscalar-sweep-engine-cache");
        std::fs::remove_dir_all(&dir).ok();
        let cache = Arc::new(MemCache::default());
        let runs = Arc::new(AtomicU32::new(0));
        let mk = |runs: Arc<AtomicU32>| {
            vec![JobSpec::new(JobId::new("e", "j"), move |_| {
                runs.fetch_add(1, Ordering::SeqCst);
                let mut out = JobOutput::default();
                out.metric("x", 7.0);
                out.sim_cycles = 42;
                Ok(out)
            })
            .with_cache_key("key-j")]
        };
        let cfg = SweepConfig {
            out_dir: Some(dir.clone()),
            cache: Some(cache.clone()),
            ..SweepConfig::default()
        };
        // First run executes and stores to the cache.
        let first = run_sweep(&mk(runs.clone()), &cfg);
        assert_eq!((first.executed, first.resumed, first.cached), (1, 0, 0));
        assert!(cache.map.lock().unwrap().contains_key("key-j"));
        // Fresh out dir → manifest scan misses, cache serves the job
        // and re-persists its manifest.
        let dir2 = std::env::temp_dir().join("gscalar-sweep-engine-cache2");
        std::fs::remove_dir_all(&dir2).ok();
        let cfg2 = SweepConfig {
            out_dir: Some(dir2.clone()),
            cache: Some(cache.clone()),
            ..SweepConfig::default()
        };
        let second = run_sweep(&mk(runs.clone()), &cfg2);
        assert_eq!((second.executed, second.resumed, second.cached), (0, 0, 1));
        assert_eq!(runs.load(Ordering::SeqCst), 1, "cache hit must not re-run");
        let r = second.results.get("e", "j").unwrap();
        assert!(r.cached);
        assert_eq!(r.metrics["x"], 7.0);
        // The re-persisted manifest is byte-identical to the executed
        // run's manifest.
        let a = std::fs::read(dir.join("jobs/e/j.json")).unwrap();
        let b = std::fs::read(dir2.join("jobs/e/j.json")).unwrap();
        assert_eq!(a, b);
        // Manifest resume takes priority over the cache: a third run
        // over dir2 resumes from disk.
        let third = run_sweep(&mk(runs.clone()), &cfg2);
        assert_eq!((third.executed, third.resumed, third.cached), (0, 1, 0));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&dir2).ok();
    }

    #[test]
    fn cancellation_skips_unstarted_jobs_without_failure_records() {
        let dir = std::env::temp_dir().join("gscalar-sweep-engine-cancel");
        std::fs::remove_dir_all(&dir).ok();
        let cancel = Arc::new(AtomicBool::new(false));
        let runs = Arc::new(AtomicU32::new(0));
        let mk = |runs: Arc<AtomicU32>, cancel: Arc<AtomicBool>| {
            (0..4)
                .map(|i| {
                    let runs = runs.clone();
                    let cancel = cancel.clone();
                    JobSpec::new(JobId::new("e", format!("j{i}")), move |_| {
                        runs.fetch_add(1, Ordering::SeqCst);
                        // The first job to run flips the flag; on one
                        // thread the remaining jobs must all skip.
                        cancel.store(true, Ordering::SeqCst);
                        let mut out = JobOutput::default();
                        out.metric("x", f64::from(i));
                        Ok(out)
                    })
                })
                .collect::<Vec<_>>()
        };
        let cfg = SweepConfig {
            out_dir: Some(dir.clone()),
            cancel: Some(cancel.clone()),
            ..SweepConfig::default()
        };
        let out = run_sweep(&mk(runs.clone(), cancel.clone()), &cfg);
        assert_eq!(out.executed, 1, "only the in-flight job finishes");
        assert_eq!(out.cancelled, 3);
        assert!(out.failures.is_empty(), "cancelled jobs are not failures");
        assert_eq!(out.results.len(), 1);
        // No failure records on disk; a resumed sweep completes the
        // remaining jobs without re-running the finished one.
        cancel.store(false, Ordering::SeqCst);
        let resumed = run_sweep(&mk(runs.clone(), Arc::new(AtomicBool::new(false))), &cfg);
        assert_eq!((resumed.executed, resumed.resumed), (3, 1));
        assert_eq!(resumed.results.len(), 4);
        assert_eq!(runs.load(Ordering::SeqCst), 4, "each job ran exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_completed_manifest_reruns() {
        let dir = std::env::temp_dir().join("gscalar-sweep-engine-corrupt");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("jobs/e")).unwrap();
        std::fs::write(dir.join("jobs/e/j.json"), "{\"schema\":1,").unwrap();
        let cfg = SweepConfig {
            out_dir: Some(dir.clone()),
            ..SweepConfig::default()
        };
        let out = run_sweep(&[ok_job("e", "j", 5.0)], &cfg);
        assert_eq!((out.executed, out.resumed), (1, 0));
        // And the rerun repaired the file.
        let text = std::fs::read_to_string(dir.join("jobs/e/j.json")).unwrap();
        assert!(Manifest::from_json(&text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
