//! `serve-mix`: an in-process `JobServer` driven over real HTTP by two
//! closed-loop clients.
//!
//! Each client sends its next request only after the previous one's
//! manifest arrived, as `serve submit` does. A request is `POST /jobs`,
//! then the SSE `/jobs/<id>/stream` until `event: end`, then
//! `GET /jobs/<id>/manifest`. **Cold** requests submit `probe --scale
//! test` under a unique seeded cycle budget (≥ 10⁹, never reached) that
//! changes the cache key: simulation plus cache writes. **Warm** requests
//! resubmit one of the client's finished cold grids with `fresh: true`:
//! 17 cache reads. A pass is both clients working through their share
//! of the seeded interleaving (2 cold and 4 warm each), each request
//! after a seeded think time.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gscalar_bench::experiments;
use gscalar_core::rng::Rng;
use gscalar_hostprof as hostprof;
use gscalar_metrics::json::Json;
use gscalar_metrics::Manifest;
use gscalar_serve::{GridBuilder, JobServer, ServeConfig, SubmitSpec};
use gscalar_workloads::Scale;

use crate::{
    hostprof_begin_pass, median, set_op_latency, set_overhead, set_phase_metrics, tail, time_setup,
    timed_passes, Goldens, Opts, Outcome, PassProfile, SpanLog, Tally,
};

/// Closed-loop clients (and so at most this many open connections).
pub const CLIENTS: usize = 2;
/// Per-request timeout: connect, each read and each write.
const TIMEOUT: Duration = Duration::from_secs(60);
/// The server closes a job's live feed before it stores the manifest,
/// so a manifest fetch right after `event: end` can miss: retry this
/// often, for up to [`MANIFEST_WAIT`].
const MANIFEST_BACKOFF: Duration = Duration::from_millis(1);
const MANIFEST_WAIT: Duration = Duration::from_secs(1);

/// Each client thinks for a seeded uniform 0-25 ms before every
/// request. The server polls its listener and live feeds every 25 ms;
/// a client that reconnects the instant a response ends always lands
/// at the start of that sleep and locks into one phase for the whole
/// run, which makes latencies step between 25 ms levels from run to
/// run. Random think time samples every phase, as independent users
/// would.
const THINK_MAX_US: u64 = 25_000;

/// The experiment every request submits.
const EXPERIMENT: &str = "probe";

/// Cold or warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Cold,
    Warm,
}

/// One request's outcome and timings (milliseconds).
#[derive(Debug, Clone)]
struct Req {
    kind: Kind,
    ok: bool,
    rejected: bool,
    total_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
    fetch_ms: f64,
    retries: u64,
}

/// A finished cold grid a warm request can resubmit.
struct Twin {
    budget: u64,
    manifest: String,
}

/// The job server's grid builder, as the `serve` binary builds it:
/// registry lookup, the submission's budget, content-address cache keys.
fn registry_builder() -> GridBuilder {
    Arc::new(|spec: &SubmitSpec| {
        let scale = match spec.scale.as_str() {
            "full" => Scale::Full,
            _ => Scale::Test,
        };
        let mut specs = Vec::new();
        for name in &spec.experiments {
            let exp =
                experiments::by_name(name).ok_or_else(|| format!("unknown experiment {name}"))?;
            specs.extend((exp.grid)(scale));
        }
        if spec.budget > 0 {
            for s in &mut specs {
                s.cycle_budget = spec.budget;
            }
        }
        Ok(experiments::attach_cache_keys(specs, scale))
    })
}

fn start_server(root: &Path) -> Result<JobServer, String> {
    let cfg = ServeConfig {
        root: root.to_path_buf(),
        ..ServeConfig::default()
    };
    let addr: SocketAddr = "127.0.0.1:0".parse().expect("literal address");
    JobServer::start(cfg, addr, registry_builder()).map_err(|e| format!("JobServer::start: {e}"))
}

/// Opens a connection and sends one request.
fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<TcpStream, String> {
    let mut conn =
        TcpStream::connect_timeout(&addr, TIMEOUT).map_err(|e| format!("{addr}: {e}"))?;
    conn.set_read_timeout(Some(TIMEOUT))
        .and_then(|()| conn.set_write_timeout(Some(TIMEOUT)))
        .map_err(|e| e.to_string())?;
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("{method} {path}: {e}"))?;
    Ok(conn)
}

/// One `Connection: close` exchange: (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut conn = send(addr, method, path, body)?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)
        .map_err(|e| format!("{method} {path}: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed response"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Follows a job's SSE stream until `event: end`.
fn follow(addr: SocketAddr, job: u64) -> Result<(), String> {
    let path = format!("/jobs/{job}/stream");
    let mut reader = BufReader::new(send(addr, "GET", &path, "")?);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(format!("{path}: stream closed before event: end")),
            Ok(_) if line.trim_end() == "event: end" => return Ok(()),
            Ok(_) => {}
            Err(e) => return Err(format!("{path}: {e}")),
        }
    }
}

/// Fetches a finished job's manifest, retrying while the server has not
/// stored it yet. Returns the manifest and the retries it took.
fn fetch_manifest(addr: SocketAddr, job: u64) -> Result<(String, u64), String> {
    let path = format!("/jobs/{job}/manifest");
    let start = Instant::now();
    let mut retries = 0;
    loop {
        let (status, body) = http(addr, "GET", &path, "")?;
        if status == 200 {
            return Ok((body, retries));
        }
        if status != 404 || start.elapsed() >= MANIFEST_WAIT {
            let (_, job_status) = http(addr, "GET", &format!("/jobs/{job}"), "")?;
            return Err(format!(
                "{path}: {status} after {retries} retries; job {}",
                job_status.trim()
            ));
        }
        retries += 1;
        std::thread::sleep(MANIFEST_BACKOFF);
    }
}

/// Everything one client needs across passes.
struct Client<'a> {
    id: usize,
    addr: SocketAddr,
    rng: Rng,
    budgets: BTreeSet<u64>,
    twins: Vec<Twin>,
    goldens: &'a Goldens,
    spans: &'a SpanLog,
    tally: Tally,
}

impl Client<'_> {
    /// This pass's request kinds: a seeded shuffle of `cold` cold and
    /// `warm` warm requests, a cold one first while there is no grid to
    /// resubmit yet.
    fn plan(&mut self, cold: usize, warm: usize) -> Vec<Kind> {
        let mut kinds: Vec<Kind> = [vec![Kind::Cold; cold], vec![Kind::Warm; warm]].concat();
        for i in (1..kinds.len()).rev() {
            kinds.swap(i, self.rng.next_u64() as usize % (i + 1));
        }
        if self.twins.is_empty() {
            if let Some(i) = kinds.iter().position(|&k| k == Kind::Cold) {
                kinds.swap(0, i);
            }
        }
        kinds
    }

    /// A fresh cold budget: seeded, ≥ 10⁹, unique across both clients
    /// (the parity is the client id).
    fn cold_budget(&mut self) -> u64 {
        loop {
            let b = 1_000_000_000 + 2 * (self.rng.next_u64() % 1_000_000_000) + self.id as u64;
            if self.budgets.insert(b) {
                return b;
            }
        }
    }

    /// Sends one request and checks its manifest.
    fn request(&mut self, kind: Kind, pass_id: u64) -> Req {
        let (budget, fresh) = match kind {
            Kind::Cold => (self.cold_budget(), false),
            Kind::Warm => {
                let i = self.rng.next_u64() as usize % self.twins.len();
                (self.twins[i].budget, true)
            }
        };
        let spec = SubmitSpec {
            client: format!("bench-{}", self.id),
            experiments: vec![EXPERIMENT.to_string()],
            scale: "test".to_string(),
            budget,
            fresh,
        };
        std::thread::sleep(Duration::from_micros(self.rng.next_u64() % THINK_MAX_US));
        let req_id = self.spans.id();
        let t0 = Instant::now();
        let mut r = Req {
            kind,
            ok: false,
            rejected: false,
            total_ms: 0.0,
            submit_ms: 0.0,
            wait_ms: 0.0,
            fetch_ms: 0.0,
            retries: 0,
        };
        let result = self.exchange(&spec, req_id, &mut r);
        let end = Instant::now();
        let name = match kind {
            Kind::Cold => "serve.request.cold",
            Kind::Warm => "serve.request.warm",
        };
        self.spans.record(req_id, name, pass_id, req_id, t0, end);
        r.total_ms = (end - t0).as_secs_f64() * 1e3;
        match result.and_then(|manifest| self.check(kind, budget, manifest)) {
            Ok(()) => r.ok = true,
            Err(msg) => eprintln!("benchmark: FAILED serve request: {msg}"),
        }
        self.tally.attempted += 1;
        self.tally.failed += u64::from(!r.ok);
        r
    }

    /// Submit, follow, fetch: returns the manifest text.
    fn exchange(&self, spec: &SubmitSpec, req_id: u64, r: &mut Req) -> Result<String, String> {
        let leg = |name: &str, start: Instant| {
            let end = Instant::now();
            self.spans
                .record(self.spans.id(), name, req_id, req_id, start, end);
            (end - start).as_secs_f64() * 1e3
        };
        let t = Instant::now();
        let (status, body) = http(self.addr, "POST", "/jobs", &spec.to_json())?;
        r.submit_ms = leg("serve.submit", t);
        if status == 429 || status == 503 {
            r.rejected = true;
        }
        if status != 200 {
            return Err(format!("POST /jobs: {status} {}", body.trim()));
        }
        let job = Json::parse(&body)
            .ok()
            .and_then(|doc| doc.get("job").and_then(Json::as_f64))
            .ok_or_else(|| format!("POST /jobs: no job id in {body:?}"))? as u64;
        let t = Instant::now();
        follow(self.addr, job)?;
        r.wait_ms = leg("serve.wait", t);
        let t = Instant::now();
        let (manifest, retries) = fetch_manifest(self.addr, job)?;
        r.fetch_ms = leg("serve.fetch", t);
        r.retries = retries;
        Ok(manifest)
    }

    /// A cold manifest must carry the golden baseline cycles of every
    /// kernel; a warm one must be byte-equal to its cold twin.
    fn check(&mut self, kind: Kind, budget: u64, manifest: String) -> Result<(), String> {
        match kind {
            Kind::Cold => {
                let m = Manifest::from_json(&manifest).map_err(|e| format!("manifest: {e}"))?;
                for (abbr, &golden) in &self.goldens.cycles {
                    let key = format!("{EXPERIMENT}/{abbr}/{abbr}/cycles");
                    let got = m.get(&key);
                    if got != Some(golden as f64) {
                        return Err(format!("cold {key} = {got:?}, golden {golden}"));
                    }
                }
                self.twins.push(Twin { budget, manifest });
                Ok(())
            }
            Kind::Warm => {
                let twin = self
                    .twins
                    .iter()
                    .find(|t| t.budget == budget)
                    .expect("warm requests resubmit a recorded twin");
                if twin.manifest == manifest {
                    Ok(())
                } else {
                    Err(format!(
                        "warm manifest for budget {budget} differs from its cold twin"
                    ))
                }
            }
        }
    }
}

/// Cache counters from `/stats`: (hits, misses, stores).
fn cache_counters(addr: SocketAddr) -> Result<(f64, f64, f64), String> {
    let (status, body) = http(addr, "GET", "/stats", "")?;
    let doc = Json::parse(&body).map_err(|e| format!("/stats {status}: {e}"))?;
    let get = |k: &str| {
        doc.get("cache")
            .and_then(|c| c.get(k))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("/stats: no cache.{k}"))
    };
    Ok((get("hits")?, get("misses")?, get("stores")?))
}

/// Runs one pass: every client works through its plan concurrently.
fn pass(clients: &mut [Client<'_>], plan: &[(usize, usize)], spans: &SpanLog) -> (f64, Vec<Req>) {
    let pass_id = spans.id();
    let start = Instant::now();
    let reqs: Vec<Req> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(plan)
            .map(|(c, &(cold, warm))| {
                s.spawn(move || {
                    let kinds = c.plan(cold, warm);
                    kinds
                        .into_iter()
                        .map(|k| c.request(k, pass_id))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = Instant::now();
    spans.record(pass_id, "serve.pass", 0, 0, start, end);
    ((end - start).as_secs_f64(), reqs)
}

/// Runs the serve workload.
///
/// # Errors
///
/// Returns a message when the goldens cannot be loaded or the server
/// cannot start.
pub fn run(opts: &Opts, spans: &SpanLog) -> Result<Outcome, String> {
    let goldens = Goldens::load(&opts.root, Scale::Test)?;
    let mut out = Outcome::default();
    // Every start but the first restarts on the same state root, as a
    // restarted `serve` does. A fresh root per start would time mostly
    // the directory creation, which on an overlay filesystem swings by
    // 2x from one run to the next.
    let root = opts.scratch("serve");
    let (setup_s, server) = spans.scope("serve.start", 0, |_| time_setup(|| start_server(&root)));
    let mut server = server?;
    out.set("setup_s", setup_s);
    let addr = server.addr();

    let mut clients: Vec<Client<'_>> = (0..CLIENTS)
        .map(|id| Client {
            id,
            addr,
            rng: Rng::seed_from_u64(opts.seed.wrapping_mul(0x9E37_79B9).wrapping_add(id as u64)),
            budgets: BTreeSet::new(),
            twins: Vec::new(),
            goldens: &goldens,
            spans,
            tally: Tally::default(),
        })
        .collect();
    // Smoke: one pass of 5 cold + 5 warm requests in all.
    let plan: &[(usize, usize)] = if opts.smoke {
        &[(3, 2), (2, 3)]
    } else {
        &[(2, 4), (2, 4)]
    };

    let untraced_s = if opts.trace {
        pass(&mut clients, plan, spans).0
    } else {
        0.0
    };
    let before = cache_counters(addr)?;
    let mut reqs = Vec::new();
    let mut profiles = Vec::new();
    let walls = timed_passes(opts, &mut out, || {
        if opts.trace {
            hostprof_begin_pass();
        }
        let (wall, r) = pass(&mut clients, plan, spans);
        if opts.trace {
            profiles.push(PassProfile {
                wall_s: wall,
                snap: hostprof::snapshot(),
            });
        }
        reqs.extend(r);
        wall
    })?;
    hostprof::set_enabled(false);
    let after = cache_counters(addr)?;

    let mut tally = Tally::default();
    for c in &clients {
        tally.add(c.tally);
    }
    let ms = |f: &dyn Fn(&Req) -> Option<f64>| reqs.iter().filter_map(f).collect::<Vec<_>>();
    let kind_ms = |kind| ms(&|r| (r.ok && r.kind == kind).then_some(r.total_ms));
    out.set("pass_s", median(&walls));
    set_op_latency(&mut out, &ms(&|r| r.ok.then_some(r.total_ms)));
    out.set("passes", walls.len() as f64);
    if opts.trace {
        set_phase_metrics(&mut out, &profiles);
        set_overhead(&mut out, untraced_s, &walls);
        let (cold, warm) = (kind_ms(Kind::Cold), kind_ms(Kind::Warm));
        out.set("serve.cold_p50_ms", median(&cold));
        out.set("serve.cold_p90_ms", tail(&cold, 90.0));
        out.set("serve.warm_p50_ms", median(&warm));
        out.set("serve.warm_p90_ms", tail(&warm, 90.0));
        out.set(
            "serve.submit_ms",
            median(&ms(&|r| r.ok.then_some(r.submit_ms))),
        );
        out.set("serve.wait_ms", median(&ms(&|r| r.ok.then_some(r.wait_ms))));
        out.set(
            "serve.fetch_ms",
            median(&ms(&|r| r.ok.then_some(r.fetch_ms))),
        );
        out.set("serve.accept_ms", accept_ms(addr, spans, &mut tally));
        out.set(
            "serve.manifest_retries",
            reqs.iter().map(|r| r.retries).sum::<u64>() as f64,
        );
        out.set(
            "serve.rejected",
            reqs.iter().filter(|r| r.rejected).count() as f64,
        );
        let (hits, misses, stores) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
        out.set("serve.cache.hits", hits);
        out.set("serve.cache.misses", misses);
        out.set("serve.cache.stores", stores);
        out.set("serve.cache.hit_ratio", hits / (hits + misses).max(1.0));
    }
    out.set(
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    out.tally = tally;
    drop(clients);
    server.shutdown();
    std::fs::remove_dir_all(root).ok();
    Ok(out)
}

/// Round trip of `GET /healthz` on a fresh connection, median of 20:
/// what the acceptor adds to every request leg.
fn accept_ms(addr: SocketAddr, spans: &SpanLog, tally: &mut Tally) -> f64 {
    let mut rtts = Vec::new();
    for _ in 0..20 {
        let t = Instant::now();
        let res = http(addr, "GET", "/healthz", "");
        spans.record(spans.id(), "serve.healthz", 0, 0, t, Instant::now());
        rtts.push(t.elapsed().as_secs_f64() * 1e3);
        tally.op(matches!(res, Ok((200, _))), || {
            format!("GET /healthz: {res:?}")
        });
    }
    median(&rtts)
}
