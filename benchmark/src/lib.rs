//! End-to-end and per-layer benchmark of the G-Scalar simulator, the
//! sweep engine and the job server.
//!
//! Every workload drives the workspace only through its public API
//! (`Runner::run`, `Gpu::run`, `run_reference`, `run_sweep` over the
//! experiment registry, and `JobServer` over real HTTP) and times each
//! call from outside. An untraced run reports the end-to-end metrics
//! ([`END_TO_END`]); a traced run enables `gscalar-hostprof`, records
//! spans around every call into a layer, and reports the per-layer
//! metrics ([`PER_LAYER`]). See `README.md` for what each number means.

pub mod engine;
pub mod serve;
pub mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gscalar_metrics::Manifest;
use gscalar_workloads::Scale;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["engine-full", "engine-test", "sweep-full", "serve-mix"];

/// Metrics of an untraced run, as `(name, unit)`. Every workload
/// reports every one of them; `README.md` defines each per workload.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_s", "s")];

/// Metrics of a traced run, as `(name, unit)`. A metric that does not
/// apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("sim.scheduler.self_s", "s"),
    ("sim.scheduler.calls", "count"),
    ("sim.operand_collect.self_s", "s"),
    ("sim.dispatch.self_s", "s"),
    ("sim.writeback.self_s", "s"),
    ("sim.execute.self_s", "s"),
    ("compress.self_s", "s"),
    ("compress.calls", "count"),
    ("compress.ns_per_call", "ns"),
    ("sim.memsys.self_s", "s"),
    ("sim.memsys.calls", "count"),
    ("sim.simt.self_s", "s"),
    ("sim.cta_launch.self_s", "s"),
    ("sim.idle_scan.self_s", "s"),
    ("sim.gpu_new_us", "us"),
    ("core.runner.glue_s", "s"),
    ("core.mem_clone_us", "us"),
    ("power.chip_power_us", "us"),
    ("sim.parallel.speedup_x", "x"),
    ("sim.parallel.barrier_s", "s"),
    ("pool.idle_s", "s"),
    ("pool.epochs", "count"),
    ("model.sim_cycles", "cycles"),
    ("model.warp_instrs", "count"),
    ("model.scalar_share", "ratio"),
    ("model.l1_hit_rate", "ratio"),
    ("model.ipc_per_w_gain_pct", "%"),
    ("engine.sim_cycles_per_s", "cycles/s"),
    ("sweep.job_s_max", "s"),
    ("sweep.utilization", "ratio"),
    ("sweep.tail_s", "s"),
    ("sweep.render_s", "s"),
    ("serve.cold_p50_ms", "ms"),
    ("serve.cold_p90_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p90_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("serve.manifest_retries", "count"),
    ("serve.rejected", "count"),
    ("serve.cache.hits", "count"),
    ("serve.cache.misses", "count"),
    ("serve.cache.stores", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
    ("passes", "count"),
    ("op.p50_ms", "ms"),
    ("op.p90_ms", "ms"),
];

/// Each workload repeats its set-up step at least this many times and
/// for at least [`SETUP_SECONDS`]; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 21;

/// The shortest span of time set-up repeats are sampled over. The host
/// steps between speed levels up to 2x apart that last from a fraction
/// of a second to many seconds; 11 back-to-back repeats of a 3 ms set-up
/// caught one level, so `setup_s` of a run followed whichever it was.
pub const SETUP_SECONDS: f64 = 1.0;

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Seeds the kernel order of engine passes and the serve traffic.
    pub seed: u64,
    /// Measurement budget: passes repeat while another one fits.
    pub seconds: f64,
    /// Traced run: hostprof on, spans kept, per-layer metrics reported.
    pub trace: bool,
    /// Test scale, one pass per workload, a 10-request serve mix.
    pub smoke: bool,
    /// Repository root (the goldens are read from here).
    pub root: PathBuf,
    /// Where temporary state and trace files go.
    pub out_dir: PathBuf,
}

impl Opts {
    /// The scale of the "full" workloads: test scale under `--smoke`.
    #[must_use]
    pub fn full_scale(&self) -> Scale {
        if self.smoke {
            Scale::Test
        } else {
            Scale::Full
        }
    }

    /// A fresh scratch directory for one pass or server, unique within
    /// this process.
    #[must_use]
    pub fn scratch(&self, tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        self.out_dir
            .join("tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()))
    }
}

/// Threads the sweep uses and the parallel engine probe runs with.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `xs`, refused unless at
/// least `min_beyond` samples rank above it.
///
/// # Errors
///
/// Returns a message when `xs` is empty or too few samples lie beyond
/// the percentile.
pub fn percentile(xs: &[f64], p: f64, min_beyond: usize) -> Result<f64, String> {
    if xs.is_empty() {
        return Err(format!("p{p} of no samples"));
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < min_beyond {
        return Err(format!(
            "p{p} of {n} samples leaves {} beyond it, {min_beyond} needed",
            n - rank
        ));
    }
    Ok(sorted[rank - 1])
}

/// Median: the middle sample, or the mean of the two middle ones (0
/// for no samples). Used to aggregate passes, where a run may make one
/// pass or two and the nearest rank of two would always pick the faster.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A tail percentile for reporting: the nearest-rank `p` when at least
/// ten samples lie beyond it, else 0 (reported as not measured).
#[must_use]
pub fn tail(xs: &[f64], p: f64) -> f64 {
    percentile(xs, p, 10).unwrap_or(0.0)
}

/// Sets `op.p50_ms` and `op.p90_ms` from the latencies of a
/// workload's operations (milliseconds).
pub fn set_op_latency(out: &mut Outcome, ms: &[f64]) {
    out.set("op.p50_ms", median(ms));
    out.set("op.p90_ms", tail(ms, 90.0));
}

/// Operations attempted and failed: runs, jobs, requests and output
/// checks. Each failure is reported on stderr.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced wrong output.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation, failed unless `ok`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: FAILED {}", what());
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Metric values by name (end-to-end and, when traced, per-layer).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The result line for `--trace` off (end-to-end metrics) or on
    /// (per-layer metrics, absent ones as 0): one JSON object with
    /// `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    ///
    /// Returns the name of a missing end-to-end metric.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in declared {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            fields.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_num(value)
            ));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.tally.failed == 0,
            self.tally.attempted,
            self.tally.failed,
            fields.join(",")
        ))
    }
}

/// Formats a finite number as JSON with every digit (non-finite → 0).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Times calls of `setup`, [`SETUP_REPEATS`] of them or as many as
/// [`SETUP_SECONDS`] take, whichever is more, and returns the median
/// seconds and the last value built. Each earlier value drops before
/// the next call, outside the timed region, so no two set-ups overlap.
pub fn time_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        drop(last.take());
        let t = Instant::now();
        let value = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&times), last.expect("at least one repeat"))
}

/// Runs `pass` (which returns its own wall seconds) once, then again
/// while one more pass of the last pass's length fits in the budget.
/// Smoke runs make exactly one pass.
///
/// Sets `peak_rss_mb` right after the first pass. The job server keeps
/// every job's record and manifest, so its footprint grows with the
/// requests it has served; read at the end, the metric would follow how
/// many passes the host was fast enough to fit.
///
/// # Errors
///
/// Returns a message when the peak resident set cannot be read.
pub fn timed_passes(
    opts: &Opts,
    out: &mut Outcome,
    mut pass: impl FnMut() -> f64,
) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut walls = vec![pass()];
    out.set("peak_rss_mb", peak_rss_mb()?);
    loop {
        let last = walls[walls.len() - 1];
        if opts.smoke || start.elapsed().as_secs_f64() + last > opts.seconds {
            return Ok(walls);
        }
        walls.push(pass());
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
///
/// # Errors
///
/// Returns a message where `/proc/self/status` has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Relative equality for golden comparisons of computed ratios.
#[must_use]
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs().max(1e-12)
}

/// Committed golden numbers the workloads check their output against.
#[derive(Debug, Clone)]
pub struct Goldens {
    /// Baseline simulated cycles per suite abbreviation at the run's
    /// scale (`probe/<ABBR>/cycles` in `BENCH_baseline.json` at full
    /// scale, `<ABBR>/cycles` in `ci/baseline/probe.json` at test scale).
    pub cycles: BTreeMap<String, u64>,
    /// The rendered `fig11_power_efficiency` table at full scale, keyed
    /// like the render's own manifest (`<ABBR>/G-Scalar`); `None` at
    /// test scale, which has no committed Figure 11.
    pub fig11: Option<BTreeMap<String, f64>>,
}

impl Goldens {
    /// Loads the goldens for `scale` from the repository at `root`.
    ///
    /// # Errors
    ///
    /// Returns a message when a golden file is missing or malformed.
    pub fn load(root: &Path, scale: Scale) -> Result<Goldens, String> {
        let read = |rel: &str| -> Result<Manifest, String> {
            let path = root.join(rel);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            Manifest::from_json(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
        };
        let (manifest, prefix) = match scale {
            Scale::Full => (read("BENCH_baseline.json")?, "probe/"),
            Scale::Test => (read("ci/baseline/probe.json")?, ""),
        };
        let mut cycles = BTreeMap::new();
        for abbr in gscalar_workloads::ABBRS {
            let key = format!("{prefix}{abbr}/cycles");
            let v = manifest
                .get(&key)
                .ok_or_else(|| format!("golden {key} missing"))?;
            cycles.insert(abbr.to_string(), v as u64);
        }
        let fig11 = matches!(scale, Scale::Full).then(|| {
            let prefix = format!("{}/", sweep::EXPERIMENT);
            manifest
                .metrics
                .iter()
                .filter_map(|(k, &v)| Some((k.strip_prefix(&prefix)?.to_string(), v)))
                .filter(|(k, _)| !k.starts_with("host/"))
                .collect()
        });
        Ok(Goldens { cycles, fig11 })
    }
}

/// One recorded span: a call into a layer, timed from outside.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within the run, never 0).
    pub id: u64,
    /// Layer-qualified name, e.g. `core.runner.run`.
    pub name: String,
    /// Id of the enclosing span (0 for none).
    pub parent: u64,
    /// Request id shared by the spans of one serve request (0 for none).
    pub req: u64,
    /// Start, microseconds since the log opened.
    pub start_us: f64,
    /// End, microseconds since the log opened.
    pub end_us: f64,
}

/// In-memory span log, written out when the run ends. Disabled logs
/// record nothing.
#[derive(Debug)]
pub struct SpanLog {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// Opens a log; `on == false` makes every record a no-op.
    #[must_use]
    pub fn new(on: bool) -> SpanLog {
        SpanLog {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Allocates a span id before the span's children run.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span.
    pub fn record(&self, id: u64, name: &str, parent: u64, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.lock().expect("span log poisoned").push(Span {
            id,
            name: name.to_string(),
            parent,
            req,
            start_us: us(start),
            end_us: us(end),
        });
    }

    /// Runs `f` inside a new span and returns its result.
    pub fn scope<T>(&self, name: &str, parent: u64, f: impl FnOnce(u64) -> T) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, 0, start, Instant::now());
        out
    }

    /// Every recorded span.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }
}

/// Per span name: `(count, total seconds, self seconds)`, where a
/// span's self time is its duration minus the union of its children.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let mut kids = children.remove(&s.id).unwrap_or_default();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut open: Option<(f64, f64)> = None;
        for (a, b) in kids {
            match open {
                Some((oa, ob)) if a <= ob => open = Some((oa, ob.max(b))),
                _ => {
                    if let Some((oa, ob)) = open {
                        covered += ob - oa;
                    }
                    open = Some((a, b));
                }
            }
        }
        if let Some((oa, ob)) = open {
            covered += ob - oa;
        }
        let total = (s.end_us - s.start_us) / 1e6;
        let e = out.entry(s.name.clone()).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += (total - covered / 1e6).max(0.0);
    }
    out
}

/// Chrome trace-event JSON of the benchmark's spans merged with the
/// host-profiler timeline (`hostprof_json`, itself a
/// `{"traceEvents":[...]}` document). Benchmark spans use `pid` 2.
#[must_use]
pub fn chrome_trace(spans: &[Span], hostprof_json: &str) -> String {
    let mut events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":2,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                json_num(s.start_us),
                json_num(s.end_us - s.start_us),
                s.req,
                s.id,
                s.parent
            )
        })
        .collect();
    let inner = hostprof_json
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|r| r.strip_suffix("]}"))
        .unwrap_or("");
    if !inner.is_empty() {
        events.push(inner.to_string());
    }
    format!("{{\"traceEvents\":[{}]}}", events.join(","))
}

/// Host-profiler totals of one traced pass, read with
/// `gscalar_hostprof::snapshot()` right after the pass.
#[derive(Debug, Clone)]
pub struct PassProfile {
    /// The pass's own wall seconds.
    pub wall_s: f64,
    /// The snapshot taken after it.
    pub snap: gscalar_hostprof::Snapshot,
}

/// Sets the hostprof phase metrics (`sim.*`, `compress.*`,
/// `core.runner.glue_s`, `trace.coverage`) to their medians over
/// `passes`. Each pass was profiled from a `reset()`, so its phases sum
/// to that pass's own time.
pub fn set_phase_metrics(out: &mut Outcome, passes: &[PassProfile]) {
    use gscalar_hostprof::Phase;
    if passes.is_empty() {
        return;
    }
    let med = |f: &dyn Fn(&PassProfile) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let secs = |p: Phase| move |pp: &PassProfile| pp.snap.phase(p).ns as f64 / 1e9;
    let calls = |p: Phase| move |pp: &PassProfile| pp.snap.phase(p).calls as f64;
    out.set("sim.scheduler.self_s", med(&secs(Phase::Scheduler)));
    out.set("sim.scheduler.calls", med(&calls(Phase::Scheduler)));
    out.set(
        "sim.operand_collect.self_s",
        med(&secs(Phase::OperandCollect)),
    );
    out.set("sim.dispatch.self_s", med(&secs(Phase::Dispatch)));
    out.set("sim.writeback.self_s", med(&secs(Phase::Writeback)));
    out.set("sim.execute.self_s", med(&secs(Phase::Execute)));
    out.set("compress.self_s", med(&secs(Phase::Compressor)));
    out.set("compress.calls", med(&calls(Phase::Compressor)));
    out.set(
        "compress.ns_per_call",
        med(&|pp| {
            let c = pp.snap.phase(Phase::Compressor);
            c.ns as f64 / c.calls.max(1) as f64
        }),
    );
    out.set("sim.memsys.self_s", med(&secs(Phase::Memsys)));
    out.set("sim.memsys.calls", med(&calls(Phase::Memsys)));
    out.set("sim.simt.self_s", med(&secs(Phase::Simt)));
    out.set("sim.cta_launch.self_s", med(&secs(Phase::CtaLaunch)));
    out.set("sim.idle_scan.self_s", med(&secs(Phase::IdleScan)));
    out.set("core.runner.glue_s", med(&secs(Phase::Harness)));
    out.set(
        "trace.coverage",
        med(&|pp| pp.snap.total_ns() as f64 / 1e9 / pp.wall_s),
    );
}

/// Sets `trace.overhead_pct` from the untraced pass measured first in a
/// traced run and the traced passes' median.
pub fn set_overhead(out: &mut Outcome, untraced_s: f64, traced: &[f64]) {
    if untraced_s > 0.0 && !traced.is_empty() {
        out.set(
            "trace.overhead_pct",
            100.0 * (median(traced) / untraced_s - 1.0),
        );
    }
}

/// Starts profiling for a traced run's measured passes.
pub fn hostprof_begin_pass() {
    gscalar_hostprof::reset();
    gscalar_hostprof::set_enabled(true);
}
