//! Job identities, payloads, outcomes, and failure records.
//!
//! A sweep is a grid of [`JobSpec`]s. Each job has a deterministic
//! [`JobId`] (`<experiment>/<unit>`), an optional cycle budget, and a
//! closure producing a flat list of metrics plus the simulated cycle
//! count. The engine serializes every completed job as a schema-v1
//! [`Manifest`] (so resume can reload it) and every failed job as a
//! machine-readable [`FailureRecord`] — both with fully deterministic
//! bytes, independent of thread count or schedule.

use std::collections::BTreeMap;
use std::fmt;

use gscalar_live::LiveHandle;
use gscalar_metrics::json::Json;
use gscalar_metrics::{HostProfile, Manifest};

/// Deterministic job identity: `<experiment>/<unit>`.
///
/// The unit doubles as the on-disk file stem of the job's manifest, so
/// it is restricted to `[A-Za-z0-9._-]` (enforced by [`JobId::new`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId {
    /// Experiment (bench) name, e.g. `"fig11_power_efficiency"`.
    pub experiment: String,
    /// Grid cell within the experiment, e.g. `"BP-gscalar"`.
    pub unit: String,
}

impl JobId {
    /// Creates a job id.
    ///
    /// # Panics
    ///
    /// Panics when `experiment` or `unit` is empty or contains a
    /// character outside `[A-Za-z0-9._-]` — ids name files and must be
    /// filesystem-safe on every platform.
    #[must_use]
    pub fn new(experiment: impl Into<String>, unit: impl Into<String>) -> Self {
        let experiment = experiment.into();
        let unit = unit.into();
        let ok = |s: &str| {
            !s.is_empty()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
        };
        assert!(ok(&experiment), "bad experiment name {experiment:?}");
        assert!(ok(&unit), "bad job unit {unit:?}");
        JobId { experiment, unit }
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.experiment, self.unit)
    }
}

/// Read-only execution context handed to every job closure: what the
/// job's simulations learn from the sweep that runs it.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// Simulated-cycle budget for the whole job (0 = unlimited). Jobs
    /// running simulations should enforce it through the `budget` of
    /// the `Instruments` they run with (a deterministic mid-flight
    /// abort) and map the overrun to [`JobError::Budget`].
    pub cycle_budget: u64,
    /// The sweep's live stream, if any: each simulation of the job
    /// announces itself on it and streams its snapshots through the
    /// `live` field of the `Instruments` it runs with.
    pub live: Option<LiveHandle>,
    /// Executor threads inside each simulation of the job (the
    /// simulator's `GpuConfig::exec_threads`: 1 = serial, 0 = all
    /// cores). Results are byte-identical at any value.
    pub sim_threads: usize,
}

/// What a successful job returns: raw metric cells plus the simulated
/// cycles it burned (for host self-profiling).
#[derive(Debug, Clone, Default)]
pub struct JobOutput {
    /// Metric path → value pairs (order irrelevant; stored sorted).
    pub metrics: Vec<(String, f64)>,
    /// Total simulated cycles across the job's runs.
    pub sim_cycles: u64,
}

impl JobOutput {
    /// Appends one metric.
    pub fn metric(&mut self, path: impl Into<String>, value: f64) {
        self.metrics.push((path.into(), value));
    }
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The job panicked; the payload message is preserved.
    Panic(String),
    /// The job exceeded its simulated-cycle budget.
    Budget {
        /// Cycles simulated when the budget tripped.
        cycles: u64,
        /// The budget that applied.
        budget: u64,
    },
    /// The job reported an error of its own.
    Failed(String),
    /// The sweep was cancelled before the job started. Cancelled jobs
    /// leave no failure record: a later sweep over the same output
    /// directory re-runs them as if they had never been queued.
    Cancelled,
}

impl JobError {
    /// Machine-readable failure kind
    /// (`panic`/`budget`/`error`/`cancelled`).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Panic(_) => "panic",
            JobError::Budget { .. } => "budget",
            JobError::Failed(_) => "error",
            JobError::Cancelled => "cancelled",
        }
    }

    /// Human-readable message.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            JobError::Panic(m) | JobError::Failed(m) => m.clone(),
            JobError::Budget { cycles, budget } => {
                format!("cycle budget exceeded: {cycles} simulated of {budget} allowed")
            }
            JobError::Cancelled => "sweep cancelled before the job started".to_string(),
        }
    }

    /// Whether retrying can possibly change the outcome. Budget
    /// overruns are deterministic and cancellations are final, so
    /// neither is retried.
    #[must_use]
    pub fn retryable(&self) -> bool {
        !matches!(self, JobError::Budget { .. } | JobError::Cancelled)
    }
}

/// The closure type a job runs.
pub type JobFn = Box<dyn Fn(&JobCtx) -> Result<JobOutput, JobError> + Send + Sync>;

/// A content-addressed store of completed job results, consulted by
/// the engine for every job carrying a [`JobSpec::cache_key`].
///
/// The contract mirrors the resume scan: `load` must only return a
/// result whose manifest parses and names the job (a corrupt or
/// foreign entry is treated as absent), and `store` must write
/// atomically so a killed process never leaves a truncated entry that
/// a later `load` could half-read. Keys are opaque to the engine —
/// callers derive them from whatever fully determines the job's output
/// (for simulations: the config digest + kernel + seed, never host
/// timing).
pub trait JobCache: Send + Sync {
    /// Returns the cached result for `key`, if present and valid.
    fn load(&self, key: &str, id: &JobId) -> Option<JobResult>;
    /// Persists a freshly executed result under `key`.
    fn store(&self, key: &str, result: &JobResult);
}

/// One cell of the sweep grid.
pub struct JobSpec {
    /// Deterministic identity (also the on-disk manifest name).
    pub id: JobId,
    /// Simulated-cycle budget (0 = unlimited).
    pub cycle_budget: u64,
    /// Content-address of the job's output for [`JobCache`] lookups;
    /// `None` opts the job out of caching entirely.
    pub cache_key: Option<String>,
    /// The work itself.
    pub run: JobFn,
}

impl JobSpec {
    /// Creates a job with no cycle budget.
    #[must_use]
    pub fn new(
        id: JobId,
        run: impl Fn(&JobCtx) -> Result<JobOutput, JobError> + Send + Sync + 'static,
    ) -> Self {
        JobSpec {
            id,
            cycle_budget: 0,
            cache_key: None,
            run: Box::new(run),
        }
    }

    /// Sets the simulated-cycle budget.
    #[must_use]
    pub fn with_budget(mut self, cycles: u64) -> Self {
        self.cycle_budget = cycles;
        self
    }

    /// Sets the content-address used for result-cache lookups.
    #[must_use]
    pub fn with_cache_key(mut self, key: impl Into<String>) -> Self {
        self.cache_key = Some(key.into());
        self
    }
}

impl fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobSpec")
            .field("id", &self.id)
            .field("cycle_budget", &self.cycle_budget)
            .field("cache_key", &self.cache_key)
            .finish_non_exhaustive()
    }
}

/// A completed job, either freshly executed or reloaded from disk.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The job's identity.
    pub id: JobId,
    /// Sorted metric map.
    pub metrics: BTreeMap<String, f64>,
    /// Simulated cycles the job burned.
    pub sim_cycles: u64,
    /// Host wall seconds of the successful attempt (0 when resumed
    /// from disk — wall time is never persisted; manifests stay
    /// byte-deterministic).
    pub wall_s: f64,
    /// Whether the result was reloaded from a previous sweep instead
    /// of executed.
    pub resumed: bool,
    /// Whether the result was served from a [`JobCache`] instead of
    /// executed.
    pub cached: bool,
}

impl JobResult {
    /// Builds a result from a job's output.
    #[must_use]
    pub fn from_output(id: JobId, out: JobOutput, wall_s: f64) -> Self {
        JobResult {
            id,
            metrics: out.metrics.into_iter().collect(),
            sim_cycles: out.sim_cycles,
            wall_s,
            resumed: false,
            cached: false,
        }
    }

    /// Serializes as a schema-v1 manifest with deterministic bytes:
    /// the bench field carries the full job id and the host profile
    /// carries only the (deterministic) simulated cycle count.
    #[must_use]
    pub fn to_manifest(&self) -> Manifest {
        let mut m = Manifest::new(self.id.to_string());
        for (k, &v) in &self.metrics {
            m.set(k.clone(), v);
        }
        m.host = HostProfile {
            wall_time_s: 0.0,
            sim_cycles: self.sim_cycles,
            cycles_per_host_s: 0.0,
        };
        m
    }

    /// Reloads a result from a manifest written by [`Self::to_manifest`].
    ///
    /// # Errors
    ///
    /// Returns a message when the manifest's bench field does not match
    /// `id` (a stale or foreign file must not satisfy resume).
    pub fn from_manifest(id: &JobId, m: &Manifest) -> Result<Self, String> {
        if m.bench != id.to_string() {
            return Err(format!(
                "manifest names job {:?}, expected {:?}",
                m.bench,
                id.to_string()
            ));
        }
        Ok(JobResult {
            id: id.clone(),
            metrics: m.metrics.clone(),
            sim_cycles: m.host.sim_cycles,
            wall_s: 0.0,
            resumed: true,
            cached: false,
        })
    }
}

/// Current failure-record schema version.
pub const FAILURE_SCHEMA_VERSION: u64 = 1;

/// The machine-readable record a failed job leaves behind instead of
/// poisoning the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureRecord {
    /// Full job id (`<experiment>/<unit>`).
    pub job: String,
    /// Failure kind: `panic`, `budget`, or `error`.
    pub kind: String,
    /// Attempts made (first run + retries).
    pub attempts: u32,
    /// Last attempt's message.
    pub message: String,
    /// The cycle budget that applied (0 = unlimited).
    pub cycle_budget: u64,
}

impl FailureRecord {
    /// Serializes as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        Json::obj([
            (
                "schema".to_string(),
                Json::Num(FAILURE_SCHEMA_VERSION as f64),
            ),
            ("job".to_string(), Json::Str(self.job.clone())),
            ("kind".to_string(), Json::Str(self.kind.clone())),
            ("attempts".to_string(), Json::Num(f64::from(self.attempts))),
            ("message".to_string(), Json::Str(self.message.clone())),
            (
                "cycle_budget".to_string(),
                Json::Num(self.cycle_budget as f64),
            ),
        ])
        .to_string()
    }

    /// Parses a failure record.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed JSON or a missing field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let schema = doc
            .get("schema")
            .and_then(Json::as_f64)
            .ok_or("failure record missing numeric 'schema'")? as u64;
        if schema != FAILURE_SCHEMA_VERSION {
            return Err(format!("unsupported failure-record schema {schema}"));
        }
        let s = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(ToString::to_string)
                .ok_or(format!("failure record missing string '{k}'"))
        };
        Ok(FailureRecord {
            job: s("job")?,
            kind: s("kind")?,
            attempts: doc.get("attempts").and_then(Json::as_f64).unwrap_or(1.0) as u32,
            message: s("message")?,
            cycle_budget: doc
                .get("cycle_budget")
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64,
        })
    }
}

/// The ordered, merged view of a sweep's completed jobs.
///
/// Iteration and merge order follow job *registration* order — never
/// completion order — which is what makes sweep output byte-identical
/// regardless of thread count or schedule.
#[derive(Debug, Default)]
pub struct ResultSet {
    order: Vec<JobId>,
    map: BTreeMap<JobId, JobResult>,
}

impl ResultSet {
    /// Inserts a result, keeping first-registration order.
    pub fn insert(&mut self, r: JobResult) {
        if !self.map.contains_key(&r.id) {
            self.order.push(r.id.clone());
        }
        self.map.insert(r.id.clone(), r);
    }

    /// Number of results.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The result of job `<experiment>/<unit>`, if completed.
    #[must_use]
    pub fn get(&self, experiment: &str, unit: &str) -> Option<&JobResult> {
        self.map.get(&JobId {
            experiment: experiment.to_string(),
            unit: unit.to_string(),
        })
    }

    /// The value of `key` in job `<experiment>/<unit>`.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message when the job or metric is
    /// absent — renderers only run over grids whose jobs all
    /// completed, so a miss is a programming error in the grid/render
    /// pairing, not a runtime condition.
    #[must_use]
    pub fn metric(&self, experiment: &str, unit: &str, key: &str) -> f64 {
        let r = self
            .get(experiment, unit)
            .unwrap_or_else(|| panic!("no completed job {experiment}/{unit}"));
        *r.metrics
            .get(key)
            .unwrap_or_else(|| panic!("job {experiment}/{unit} has no metric {key:?}"))
    }

    /// Results in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &JobResult> {
        self.order.iter().map(|id| &self.map[id])
    }

    /// Results of one experiment, in registration order.
    pub fn of_experiment<'a>(&'a self, experiment: &'a str) -> impl Iterator<Item = &'a JobResult> {
        self.iter().filter(move |r| r.id.experiment == experiment)
    }

    /// Total simulated cycles across every result of `experiment`.
    #[must_use]
    pub fn sim_cycles(&self, experiment: &str) -> u64 {
        self.of_experiment(experiment).map(|r| r.sim_cycles).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_id_validates_and_displays() {
        let id = JobId::new("fig11_power_efficiency", "BP-gscalar");
        assert_eq!(id.to_string(), "fig11_power_efficiency/BP-gscalar");
    }

    #[test]
    #[should_panic(expected = "bad job unit")]
    fn job_id_rejects_separator_in_unit() {
        let _ = JobId::new("exp", "a/b");
    }

    #[test]
    fn result_round_trips_through_manifest() {
        let id = JobId::new("exp", "cell");
        let mut out = JobOutput::default();
        out.metric("ipc", 1.5);
        out.metric("cycles", 100.0);
        out.sim_cycles = 100;
        let r = JobResult::from_output(id.clone(), out, 2.5);
        let m = r.to_manifest();
        assert_eq!(m.bench, "exp/cell");
        assert_eq!(m.host.wall_time_s, 0.0, "wall time must not persist");
        let back = JobResult::from_manifest(&id, &m).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!(back.sim_cycles, 100);
        assert!(back.resumed);
        // A foreign manifest must not satisfy resume.
        let other = JobId::new("exp", "other");
        assert!(JobResult::from_manifest(&other, &m).is_err());
    }

    #[test]
    fn failure_record_round_trips() {
        let f = FailureRecord {
            job: "exp/cell".into(),
            kind: "panic".into(),
            attempts: 2,
            message: "boom: index 7 out of bounds".into(),
            cycle_budget: 1000,
        };
        let back = FailureRecord::from_json(&f.to_json()).unwrap();
        assert_eq!(back, f);
        assert!(FailureRecord::from_json("{}").is_err());
    }

    #[test]
    fn result_set_keeps_registration_order() {
        let mut set = ResultSet::default();
        for unit in ["c", "a", "b"] {
            set.insert(JobResult::from_output(
                JobId::new("e", unit),
                JobOutput::default(),
                0.0,
            ));
        }
        let order: Vec<String> = set.iter().map(|r| r.id.unit.clone()).collect();
        assert_eq!(order, ["c", "a", "b"]);
    }

    #[test]
    fn budget_errors_are_not_retryable() {
        assert!(!JobError::Budget {
            cycles: 10,
            budget: 5
        }
        .retryable());
        assert!(JobError::Panic("x".into()).retryable());
        assert!(JobError::Failed("x".into()).retryable());
    }
}
