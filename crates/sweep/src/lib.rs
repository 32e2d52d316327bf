//! # gscalar-sweep — parallel, fault-isolated experiment execution
//!
//! The job-grid engine behind the `sweep` binary and every figure/
//! table bench: experiments register their (workload × config ×
//! experiment) matrix as [`JobSpec`]s; the engine runs the grid on
//! `gscalar-pool`'s job executor (workers claim jobs from one shared
//! cursor), isolates each job (`catch_unwind` panic containment,
//! deterministic simulated-cycle budgets, bounded retry), and persists
//! every outcome under `<out>/jobs/` — completed jobs as
//! byte-deterministic schema-v1 manifests, failed jobs as
//! machine-readable [`FailureRecord`]s.
//!
//! Two properties are load-bearing for reproduction workflows:
//!
//! * **Determinism** — job IDs are deterministic, results merge in
//!   registration order (never completion order), and persisted
//!   manifests carry no host timing, so sweep output is byte-identical
//!   regardless of thread count or schedule.
//! * **Resume** — on startup the engine scans the results directory
//!   and skips every job whose completed manifest is present and
//!   valid; a killed sweep restarts where it left off, and failed jobs
//!   are re-attempted (their failure records replaced on success).
//!
//! The crate is deliberately simulator-agnostic: a job is just a
//! closure returning metrics, so the engine is testable with synthetic
//! grids and reusable for any future experiment family.
//!
//! # Examples
//!
//! ```
//! use gscalar_sweep::{run_sweep, JobId, JobOutput, JobSpec, SweepConfig};
//!
//! let grid: Vec<JobSpec> = (0..4)
//!     .map(|i| {
//!         JobSpec::new(JobId::new("demo", format!("cell{i}")), move |_ctx| {
//!             let mut out = JobOutput::default();
//!             out.metric("value", f64::from(i) * 2.0);
//!             out.sim_cycles = 10;
//!             Ok(out)
//!         })
//!     })
//!     .collect();
//! let outcome = run_sweep(
//!     &grid,
//!     &SweepConfig {
//!         threads: 2,
//!         ..SweepConfig::default()
//!     },
//! );
//! assert!(outcome.all_completed());
//! assert_eq!(outcome.results.metric("demo", "cell3", "value"), 6.0);
//! ```

pub mod engine;
pub mod job;

pub use engine::{
    execute_one, host_manifest, run_sweep, write_atomic, Progress, SweepConfig, SweepOutcome,
};
pub use gscalar_pool::resolve_threads;
pub use job::{
    FailureRecord, JobCache, JobCtx, JobError, JobId, JobOutput, JobResult, JobSpec, ResultSet,
    FAILURE_SCHEMA_VERSION,
};
