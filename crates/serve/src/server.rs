//! The job server: admission control, fair scheduling, execution, and
//! graceful drain.
//!
//! # Lifecycle of a submission
//!
//! `POST /jobs` parses a [`SubmitSpec`], applies admission control
//! (503 while draining, 429 when the queue is full), and enqueues the
//! job on its client's FIFO. A single scheduler thread round-robins
//! across clients — one grid at a time, so two grids can never race on
//! the same output directory — and runs each grid through
//! [`run_sweep`] with:
//!
//! * a **persistent output directory** keyed by the grid digest
//!   (`<root>/grids/<digest>`), so identical resubmissions and
//!   post-restart resubmissions resume by manifest scan;
//! * the server's **result cache** (`<root>/cache`), so units shared
//!   *across* grids are served without simulation;
//! * a per-job **cancel flag**, which `DELETE /jobs/<id>` and the
//!   graceful drain both use — in-flight units finish and persist,
//!   unstarted units are skipped for a later run;
//! * a **live feed** ([`Feed`]) that buffers the sweep's NDJSON
//!   records — lifecycle events plus every simulation's `run_start`,
//!   snapshots and `run_end` — for `GET /jobs/<id>/stream` subscribers
//!   (full-history replay, then follow, then `event: end`).
//!
//! Every wait on a request path is woken by its event: the shared
//! [`HttpServer`] acceptor blocks in `accept`, and a stream subscriber
//! blocks on its feed until a record arrives or the feed closes.
//!
//! # Graceful shutdown
//!
//! [`JobServer::shutdown`] flips the draining flag (new submissions
//! get 503), cancels the running job and every queued one, joins the
//! scheduler once the in-flight units have persisted, and closes the
//! listener. Because every completed unit is an atomic manifest, a
//! restarted server serves the unfinished remainder of any grid
//! without re-running what finished.

use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::cache::ResultCache;
use crate::spec::SubmitSpec;
use gscalar_live::http::{respond, serve_request, stream_sse, Feed, HttpServer, Request};
use gscalar_live::{LineSink, LiveHandle, LiveRecord, StreamConfig};
use gscalar_metrics::json::Json;
use gscalar_metrics::{merge_manifests, Manifest};
use gscalar_sweep::{run_sweep, JobCache, JobResult, JobSpec, Progress, SweepConfig};

/// Builds the executable grid for a submission (resolving experiment
/// names against whatever registry the embedder has). Returning `Err`
/// fails the job with phase `error` without crashing the server.
pub type GridBuilder = Arc<dyn Fn(&SubmitSpec) -> Result<Vec<JobSpec>, String> + Send + Sync>;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// State root: `<root>/cache` holds the result cache,
    /// `<root>/grids/<digest>` each grid's sweep output.
    pub root: PathBuf,
    /// Worker threads per sweep (0 = available parallelism).
    pub threads: usize,
    /// Extra attempts after a retryable job failure.
    pub max_retries: u32,
    /// Admission limit: queued (not yet running) jobs beyond this are
    /// refused with 429.
    pub max_queue: usize,
    /// Redact wall-clock fields from live feeds (the `--deterministic`
    /// contract).
    pub deterministic: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            root: PathBuf::from("serve-state"),
            threads: 1,
            max_retries: 1,
            max_queue: 64,
            deterministic: false,
        }
    }
}

/// Ends a job feed that never got a real stream: appends a synthetic
/// terminal `stream_end` record and closes the feed in one step, so
/// subscribers always see one before `event: end`.
fn finish_synthetic(feed: &Feed) {
    let terminal = LiveRecord::StreamEnd {
        records: 0,
        dropped: 0,
        t_s: 0.0,
    };
    feed.close_with(&terminal.to_json_line());
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Queued,
    Running,
    /// Every unit completed.
    Done,
    /// Ran to the end but at least one unit exhausted its attempts.
    Failed,
    /// Cancelled (by `DELETE` or drain) before every unit finished.
    Cancelled,
    /// Never ran: the submission didn't resolve to a grid.
    Error,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
            Phase::Cancelled => "cancelled",
            Phase::Error => "error",
        }
    }
}

/// Everything the server tracks about one submission.
struct JobRec {
    client: String,
    spec: SubmitSpec,
    digest: String,
    phase: Phase,
    /// Error message when `phase == Error`.
    detail: String,
    feed: Arc<Feed>,
    cancel: Arc<AtomicBool>,
    /// When the job was accepted, and when it reached a terminal
    /// phase: host-side latency for `/stats`, never part of a result.
    submitted: Instant,
    finished: Option<Instant>,
    units: usize,
    executed: usize,
    resumed: usize,
    cached: usize,
    cancelled: usize,
    failed: usize,
    /// Merged grid manifest (verbatim bytes for `GET .../manifest`),
    /// present once every unit completed.
    manifest: Option<String>,
}

impl JobRec {
    /// Enters terminal `phase`, stamping the finish time.
    fn terminate(&mut self, phase: Phase) {
        self.phase = phase;
        self.finished = Some(Instant::now());
    }

    /// Cancels a job that never ran: its feed ends synthetically,
    /// after the phase is terminal.
    fn cancel_queued(&mut self) {
        self.terminate(Phase::Cancelled);
        finish_synthetic(&self.feed);
    }

    fn status_json(&self, id: u64) -> String {
        Json::obj([
            ("job".to_string(), Json::Num(id as f64)),
            ("client".to_string(), Json::Str(self.client.clone())),
            ("digest".to_string(), Json::Str(self.digest.clone())),
            ("phase".to_string(), Json::Str(self.phase.as_str().into())),
            ("detail".to_string(), Json::Str(self.detail.clone())),
            ("units".to_string(), Json::Num(self.units as f64)),
            ("executed".to_string(), Json::Num(self.executed as f64)),
            ("resumed".to_string(), Json::Num(self.resumed as f64)),
            ("cached".to_string(), Json::Num(self.cached as f64)),
            ("cancelled".to_string(), Json::Num(self.cancelled as f64)),
            ("failed".to_string(), Json::Num(self.failed as f64)),
        ])
        .to_string()
    }
}

/// Mutable scheduling state, all under one lock.
///
/// Invariant: a client appears in `rotation` exactly when its queue in
/// `queues` is non-empty.
#[derive(Default)]
struct Tables {
    next_id: u64,
    jobs: BTreeMap<u64, JobRec>,
    queues: BTreeMap<String, VecDeque<u64>>,
    rotation: VecDeque<String>,
    queued: usize,
    running: Option<u64>,
}

impl Tables {
    fn enqueue(&mut self, client: &str, id: u64) {
        let q = self.queues.entry(client.to_string()).or_default();
        if q.is_empty() {
            self.rotation.push_back(client.to_string());
        }
        q.push_back(id);
        self.queued += 1;
    }

    /// Next job under client round-robin, or `None` when idle.
    fn pick_next(&mut self) -> Option<u64> {
        while let Some(client) = self.rotation.pop_front() {
            let Some(q) = self.queues.get_mut(&client) else {
                continue;
            };
            let Some(id) = q.pop_front() else {
                self.queues.remove(&client);
                continue;
            };
            if q.is_empty() {
                self.queues.remove(&client);
            } else {
                self.rotation.push_back(client);
            }
            self.queued -= 1;
            return Some(id);
        }
        None
    }

    /// Removes a queued job (for `DELETE`). Returns whether it was
    /// found in a queue.
    fn dequeue(&mut self, client: &str, id: u64) -> bool {
        let Some(q) = self.queues.get_mut(client) else {
            return false;
        };
        let Some(pos) = q.iter().position(|&j| j == id) else {
            return false;
        };
        q.remove(pos);
        self.queued -= 1;
        if q.is_empty() {
            self.queues.remove(client);
            if let Some(pos) = self.rotation.iter().position(|c| c == client) {
                self.rotation.remove(pos);
            }
        }
        true
    }
}

struct Shared {
    cfg: ServeConfig,
    cache: Arc<ResultCache>,
    build: GridBuilder,
    state: Mutex<Tables>,
    cv: Condvar,
    draining: AtomicBool,
}

/// A running job server. Dropping it shuts it down gracefully.
pub struct JobServer {
    shared: Arc<Shared>,
    http: HttpServer,
    scheduler: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl JobServer {
    /// Starts the server: opens (and warm-scans) the result cache under
    /// `<root>/cache`, spawns the scheduler, and binds the HTTP
    /// listener on `addr`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the listener cannot bind.
    pub fn start(
        cfg: ServeConfig,
        addr: SocketAddr,
        build: GridBuilder,
    ) -> std::io::Result<JobServer> {
        std::fs::create_dir_all(&cfg.root)?;
        let cache = Arc::new(ResultCache::new(cfg.root.join("cache")));
        let warm = cache.scan();
        if warm > 0 {
            eprintln!("serve: result cache warm with {warm} entries");
        }
        let shared = Arc::new(Shared {
            cfg,
            cache,
            build,
            state: Mutex::new(Tables::default()),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
        });
        let sched = Arc::clone(&shared);
        let scheduler = std::thread::spawn(move || scheduler_loop(&sched));
        let handle_shared = Arc::clone(&shared);
        let (http, bound) = HttpServer::bind(
            addr,
            Arc::new(move |stream| {
                serve_request(stream, |req, stream| {
                    handle_request(&handle_shared, &req, stream);
                });
            }),
        )?;
        Ok(JobServer {
            shared,
            http,
            scheduler: Some(scheduler),
            addr: bound,
        })
    }

    /// The bound listen address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The state root (grids, cache, manifests live beneath it).
    #[must_use]
    pub fn root(&self) -> &std::path::Path {
        &self.shared.cfg.root
    }

    /// Graceful drain: refuse new work, cancel the running job (its
    /// in-flight units finish and persist) and every queued one, join
    /// the scheduler, and close the listener. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        {
            let mut t = self.shared.state.lock().expect("serve state poisoned");
            if let Some(id) = t.running {
                if let Some(rec) = t.jobs.get(&id) {
                    rec.cancel.store(true, Ordering::SeqCst);
                }
            }
            let queued: Vec<u64> = t.queues.values().flatten().copied().collect();
            t.queues.clear();
            t.rotation.clear();
            t.queued = 0;
            for id in queued {
                if let Some(rec) = t.jobs.get_mut(&id) {
                    rec.cancel_queued();
                }
            }
        }
        self.shared.cv.notify_all();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        self.http.shutdown();
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        // Wait for work (or drain). Everything the grid run needs is
        // cloned out under the lock, then the lock drops for the whole
        // (long) execution.
        let picked = {
            let mut t = shared.state.lock().expect("serve state poisoned");
            loop {
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                if let Some(id) = t.pick_next() {
                    let rec = t.jobs.get_mut(&id).expect("queued job has a record");
                    rec.phase = Phase::Running;
                    t.running = Some(id);
                    let rec = t.jobs.get(&id).expect("running job has a record");
                    break Some((
                        id,
                        rec.spec.clone(),
                        rec.digest.clone(),
                        Arc::clone(&rec.feed),
                        Arc::clone(&rec.cancel),
                    ));
                }
                t = shared.cv.wait(t).expect("serve state poisoned");
            }
        };
        let Some((id, spec, digest, feed, cancel)) = picked else {
            return;
        };
        run_grid(shared, id, &spec, &digest, feed, cancel);
        let mut t = shared.state.lock().expect("serve state poisoned");
        t.running = None;
    }
}

/// Executes one grid and writes its outcome back into the tables.
fn run_grid(
    shared: &Arc<Shared>,
    id: u64,
    spec: &SubmitSpec,
    digest: &str,
    feed: Arc<Feed>,
    cancel: Arc<AtomicBool>,
) {
    let finish = |phase: Phase,
                  detail: String,
                  stats: (usize, usize, usize, usize, usize, usize),
                  manifest: Option<String>| {
        let mut t = shared.state.lock().expect("serve state poisoned");
        let rec = t.jobs.get_mut(&id).expect("running job has a record");
        rec.terminate(phase);
        rec.detail = detail;
        (
            rec.units,
            rec.executed,
            rec.resumed,
            rec.cached,
            rec.cancelled,
            rec.failed,
        ) = stats;
        rec.manifest = manifest;
    };

    let specs = match (shared.build)(spec) {
        Ok(s) => s,
        Err(msg) => {
            finish(Phase::Error, msg, (0, 0, 0, 0, 0, 0), None);
            finish_synthetic(&feed);
            return;
        }
    };
    let out_dir = shared.cfg.root.join("grids").join(digest);
    if spec.fresh {
        // The wire twin of `sweep --fresh`: forget this grid's
        // persisted output. The result cache still applies, which is
        // exactly what lets a fresh resubmission prove cache hits.
        std::fs::remove_dir_all(&out_dir).ok();
    }
    let live = LiveHandle::to_sink(
        StreamConfig {
            deterministic: shared.cfg.deterministic,
            ..StreamConfig::default()
        },
        Arc::clone(&feed) as Arc<dyn LineSink>,
    );
    let sweep_cfg = SweepConfig {
        threads: shared.cfg.threads,
        out_dir: Some(out_dir),
        max_retries: shared.cfg.max_retries,
        progress: Progress::Quiet,
        live: Some(live.clone()),
        cache: Some(Arc::clone(&shared.cache) as Arc<dyn JobCache>),
        cancel: Some(cancel),
    };
    let outcome = run_sweep(&specs, &sweep_cfg);

    let complete = outcome.results.len() == specs.len() && outcome.failures.is_empty();
    let manifest = complete.then(|| {
        let manifests: Vec<Manifest> = outcome.results.iter().map(JobResult::to_manifest).collect();
        merge_manifests(&manifests, &format!("grid-{digest}")).to_json()
    });
    let phase = if outcome.cancelled > 0 {
        Phase::Cancelled
    } else if outcome.failures.is_empty() {
        Phase::Done
    } else {
        Phase::Failed
    };
    let detail = outcome
        .failures
        .first()
        .map(|f| format!("{}: {}", f.job, f.message))
        .unwrap_or_default();
    finish(
        phase,
        detail,
        (
            specs.len(),
            outcome.executed,
            outcome.resumed,
            outcome.cached,
            outcome.cancelled,
            outcome.failures.len(),
        ),
        manifest,
    );
    // Close the feed only once the outcome is stored: a client that
    // fetches the manifest right after `event: end` must find it.
    live.close();
}

fn handle_request(shared: &Arc<Shared>, req: &Request, mut stream: TcpStream) {
    let ok = |stream: &mut TcpStream, body: &str| {
        let _ = respond(stream, "200 OK", "application/json", body);
    };
    let err = |stream: &mut TcpStream, status: &str, msg: &str| {
        let body = format!(
            "{}\n",
            Json::obj([("error".to_string(), Json::Str(msg.into()))])
        );
        let _ = respond(stream, status, "application/json", &body);
    };
    let parts: Vec<&str> = req.path.trim_matches('/').split('/').collect();
    match (req.method.as_str(), parts.as_slice()) {
        ("GET", ["healthz"]) => {
            let _ = respond(&mut stream, "200 OK", "text/plain", "ok\n");
        }
        ("GET", ["stats"]) => ok(&mut stream, &stats_json(shared)),
        ("POST", ["jobs"]) => submit(shared, &req.body, &mut stream),
        ("GET", ["jobs"]) => {
            let t = shared.state.lock().expect("serve state poisoned");
            let list: Vec<Json> = t
                .jobs
                .iter()
                .map(|(&id, rec)| {
                    Json::obj([
                        ("job".to_string(), Json::Num(id as f64)),
                        ("client".to_string(), Json::Str(rec.client.clone())),
                        ("digest".to_string(), Json::Str(rec.digest.clone())),
                        ("phase".to_string(), Json::Str(rec.phase.as_str().into())),
                    ])
                })
                .collect();
            drop(t);
            ok(
                &mut stream,
                &format!("{}\n", Json::obj([("jobs".to_string(), Json::Arr(list))])),
            );
        }
        ("GET", ["jobs", id]) => match lookup(shared, id) {
            Some((id, json)) => {
                let _ = id;
                ok(&mut stream, &format!("{json}\n"));
            }
            None => err(&mut stream, "404 Not Found", "unknown job id"),
        },
        ("GET", ["jobs", id, "manifest"]) => {
            let Some(id) = parse_id(shared, id) else {
                return err(&mut stream, "404 Not Found", "unknown job id");
            };
            let t = shared.state.lock().expect("serve state poisoned");
            match t.jobs.get(&id).and_then(|r| r.manifest.clone()) {
                Some(m) => {
                    drop(t);
                    ok(&mut stream, &m);
                }
                None => {
                    drop(t);
                    err(
                        &mut stream,
                        "404 Not Found",
                        "job has no manifest (not complete)",
                    );
                }
            }
        }
        ("GET", ["jobs", id, "stream"]) => {
            let Some(id) = parse_id(shared, id) else {
                return err(&mut stream, "404 Not Found", "unknown job id");
            };
            let feed = {
                let t = shared.state.lock().expect("serve state poisoned");
                t.jobs.get(&id).map(|r| Arc::clone(&r.feed))
            };
            match feed {
                Some(feed) => {
                    let _ = stream_sse(
                        &feed,
                        &mut stream,
                        "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\nConnection: close\r\n\r\n",
                        |_| true,
                    );
                }
                None => err(&mut stream, "404 Not Found", "unknown job id"),
            }
        }
        ("DELETE", ["jobs", id]) => {
            let Some(id) = parse_id(shared, id) else {
                return err(&mut stream, "404 Not Found", "unknown job id");
            };
            let mut t = shared.state.lock().expect("serve state poisoned");
            let Some(rec) = t.jobs.get(&id) else {
                drop(t);
                return err(&mut stream, "404 Not Found", "unknown job id");
            };
            match rec.phase {
                Phase::Queued => {
                    let client = rec.client.clone();
                    t.dequeue(&client, id);
                    t.jobs.get_mut(&id).expect("record").cancel_queued();
                }
                Phase::Running => rec.cancel.store(true, Ordering::SeqCst),
                _ => {} // terminal already; report as-is
            }
            let json = t.jobs[&id].status_json(id);
            drop(t);
            ok(&mut stream, &format!("{json}\n"));
        }
        _ => err(&mut stream, "404 Not Found", "no such endpoint"),
    }
}

fn parse_id(shared: &Arc<Shared>, raw: &str) -> Option<u64> {
    let id = raw.parse::<u64>().ok()?;
    shared
        .state
        .lock()
        .expect("serve state poisoned")
        .jobs
        .contains_key(&id)
        .then_some(id)
}

fn lookup(shared: &Arc<Shared>, raw: &str) -> Option<(u64, String)> {
    let id = raw.parse::<u64>().ok()?;
    let t = shared.state.lock().expect("serve state poisoned");
    t.jobs.get(&id).map(|rec| (id, rec.status_json(id)))
}

fn submit(shared: &Arc<Shared>, body: &str, stream: &mut TcpStream) {
    let refuse = |stream: &mut TcpStream, status: &str, msg: &str| {
        let body = format!(
            "{}\n",
            Json::obj([("error".to_string(), Json::Str(msg.into()))])
        );
        let _ = respond(stream, status, "application/json", &body);
    };
    if shared.draining.load(Ordering::SeqCst) {
        return refuse(stream, "503 Service Unavailable", "server is draining");
    }
    let spec = match SubmitSpec::from_json(body) {
        Ok(s) => s,
        Err(msg) => return refuse(stream, "400 Bad Request", &msg),
    };
    let digest = spec.grid_digest();
    let response = {
        let mut t = shared.state.lock().expect("serve state poisoned");
        if t.queued >= shared.cfg.max_queue {
            None
        } else {
            t.next_id += 1;
            let id = t.next_id;
            let client = spec.client.clone();
            t.jobs.insert(
                id,
                JobRec {
                    client: client.clone(),
                    spec,
                    digest: digest.clone(),
                    phase: Phase::Queued,
                    detail: String::new(),
                    feed: Arc::default(),
                    cancel: Arc::new(AtomicBool::new(false)),
                    submitted: Instant::now(),
                    finished: None,
                    units: 0,
                    executed: 0,
                    resumed: 0,
                    cached: 0,
                    cancelled: 0,
                    failed: 0,
                    manifest: None,
                },
            );
            t.enqueue(&client, id);
            Some(id)
        }
    };
    match response {
        Some(id) => {
            shared.cv.notify_all();
            let body = format!(
                "{}\n",
                Json::obj([
                    ("job".to_string(), Json::Num(id as f64)),
                    ("digest".to_string(), Json::Str(digest)),
                ])
            );
            let _ = respond(stream, "200 OK", "application/json", &body);
        }
        None => refuse(
            stream,
            "429 Too Many Requests",
            "queue full; retry after a job completes",
        ),
    }
}

fn stats_json(shared: &Arc<Shared>) -> String {
    let c = shared.cache.counters();
    let cache = Json::obj([
        ("hits".to_string(), Json::Num(c.hits as f64)),
        ("misses".to_string(), Json::Num(c.misses as f64)),
        ("stores".to_string(), Json::Num(c.stores as f64)),
        ("evicted".to_string(), Json::Num(c.evicted as f64)),
        ("entries".to_string(), Json::Num(shared.cache.scan() as f64)),
    ]);
    let t = shared.state.lock().expect("serve state poisoned");
    let mut by_phase: BTreeMap<&'static str, u64> = BTreeMap::new();
    for rec in t.jobs.values() {
        *by_phase.entry(rec.phase.as_str()).or_default() += 1;
    }
    let jobs = Json::Obj(
        by_phase
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
            .collect(),
    );
    let mut latencies: Vec<f64> = t
        .jobs
        .values()
        .filter_map(|rec| Some((rec.finished? - rec.submitted).as_secs_f64() * 1e3))
        .collect();
    drop(t);
    latencies.sort_by(f64::total_cmp);
    let latency = Json::obj([
        ("jobs".to_string(), Json::Num(latencies.len() as f64)),
        ("p50".to_string(), Json::Num(percentile(&latencies, 50.0))),
        ("p99".to_string(), Json::Num(percentile(&latencies, 99.0))),
    ]);
    format!(
        "{}\n",
        Json::obj([
            ("cache".to_string(), cache),
            ("jobs".to_string(), jobs),
            ("latency_ms".to_string(), latency),
            (
                "draining".to_string(),
                Json::Bool(shared.draining.load(Ordering::SeqCst))
            ),
        ])
    )
}

/// Nearest-rank percentile `p` (in (0, 100]) of ascending `sorted`;
/// 0 when empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_is_fair_across_clients() {
        let mut t = Tables::default();
        // a submits 3 jobs, then b submits 2, then c submits 1.
        for (client, id) in [("a", 1), ("a", 2), ("a", 3), ("b", 4), ("b", 5), ("c", 6)] {
            t.enqueue(client, id);
        }
        let mut order = Vec::new();
        while let Some(id) = t.pick_next() {
            order.push(id);
        }
        // One job per client per round: a,b,c then a,b then a.
        assert_eq!(order, [1, 4, 6, 2, 5, 3]);
        assert_eq!(t.queued, 0);
        assert!(t.rotation.is_empty() && t.queues.is_empty());
    }

    #[test]
    fn dequeue_removes_and_maintains_rotation() {
        let mut t = Tables::default();
        t.enqueue("a", 1);
        t.enqueue("b", 2);
        assert!(t.dequeue("a", 1));
        assert!(!t.dequeue("a", 1), "already gone");
        assert_eq!(t.queued, 1);
        assert_eq!(t.pick_next(), Some(2));
        assert_eq!(t.pick_next(), None);
    }

    #[test]
    fn feed_snapshot_and_synthetic_finish() {
        let feed = Feed::default();
        feed.line("one");
        feed.line("two");
        let (batch, closed) = feed.wait_from(1);
        assert_eq!(batch, ["two"]);
        assert!(!closed);
        finish_synthetic(&feed);
        finish_synthetic(&feed);
        let (batch, closed) = feed.wait_from(0);
        assert_eq!(batch.len(), 3, "one synthetic terminal: {batch:?}");
        assert!(batch[2].contains("\"type\":\"stream_end\""));
        assert!(closed);
    }

    #[test]
    fn synthetic_finish_never_closes_before_its_terminal_record() {
        // A subscriber racing the finish must always find `stream_end`
        // as the last line of a closed feed. It re-reads from line 0,
        // which never blocks, so it polls the feed as fast as it can;
        // the barrier starts both sides together.
        for round in 0..1000 {
            let feed = Feed::default();
            feed.line("{\"type\":\"sweep_start\"}");
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                let follower = s.spawn(|| {
                    start.wait();
                    loop {
                        let (seen, closed) = feed.wait_from(0);
                        if closed {
                            return seen;
                        }
                    }
                });
                start.wait();
                finish_synthetic(&feed);
                let seen = follower.join().expect("follower panicked");
                let last = seen.last().expect("lines");
                assert!(
                    last.contains("\"type\":\"stream_end\""),
                    "round {round}: {seen:?}"
                );
            });
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }
}
