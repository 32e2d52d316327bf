//! End-to-end exercise of the job server over real sockets, with
//! synthetic grids — deterministic closures instead of simulations, so
//! admission, fairness, caching, cancellation, and drain/restart
//! semantics are provable without wall-clock-sized runs.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use gscalar_serve::{GridBuilder, JobServer, ServeConfig};
use gscalar_sweep::{JobId, JobOutput, JobSpec};

/// Speaks one HTTP/1.1 request and returns (status line, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (String, String) {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).expect("read response");
    let status = raw.lines().next().unwrap_or("").to_string();
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Extracts `"job":N` from a submit response.
fn job_id(body: &str) -> u64 {
    let i = body.find("\"job\":").expect("job id in body") + 6;
    body[i..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric job id")
}

/// Polls `GET /jobs/<id>` until the phase is terminal; returns the
/// final status body.
fn await_terminal(addr: SocketAddr, id: u64) -> String {
    for _ in 0..600 {
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert!(status.contains("200"), "{status}: {body}");
        for phase in ["done", "failed", "cancelled", "error"] {
            if body.contains(&format!("\"phase\":\"{phase}\"")) {
                return body;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("job {id} never reached a terminal phase");
}

fn field(body: &str, name: &str) -> u64 {
    let tag = format!("\"{name}\":");
    let i = body
        .find(&tag)
        .unwrap_or_else(|| panic!("no {name} in {body}"))
        + tag.len();
    body[i..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("non-numeric {name} in {body}"))
}

fn fresh_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gscalar-serve-test-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A grid builder whose jobs log their execution (experiment name) to
/// a shared journal and return deterministic metrics. Every job gets a
/// cache key derived from its name, so identical units across grids
/// share cache entries.
fn logging_builder(journal: Arc<Mutex<Vec<String>>>) -> GridBuilder {
    Arc::new(move |spec| {
        Ok(spec
            .experiments
            .iter()
            .map(|exp| {
                let exp = exp.clone();
                let journal = Arc::clone(&journal);
                let name = exp.clone();
                JobSpec::new(JobId::new(exp.clone(), "cell"), move |_| {
                    journal.lock().unwrap().push(name.clone());
                    let mut out = JobOutput::default();
                    out.metric("v", name.len() as f64);
                    out.sim_cycles = 10;
                    Ok(out)
                })
                .with_cache_key(format!("syn-{exp}"))
            })
            .collect())
    })
}

/// A gate jobs block on, so tests control exactly when work proceeds.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

fn cfg(root: PathBuf) -> ServeConfig {
    ServeConfig {
        root,
        threads: 1,
        max_retries: 0,
        max_queue: 8,
        deterministic: true,
    }
}

#[test]
fn submit_executes_then_resumes_then_serves_from_cache() {
    let root = fresh_root("resubmit");
    let journal = Arc::new(Mutex::new(Vec::new()));
    let mut srv = JobServer::start(
        cfg(root.clone()),
        "127.0.0.1:0".parse().unwrap(),
        logging_builder(journal.clone()),
    )
    .expect("start");
    let addr = srv.addr();
    let body = r#"{"client":"t","experiments":["alpha","beta","gamma"]}"#;

    // First submission executes everything.
    let (status, resp) = http(addr, "POST", "/jobs", body);
    assert!(status.contains("200"), "{status}: {resp}");
    let first = await_terminal(addr, job_id(&resp));
    assert!(first.contains("\"phase\":\"done\""), "{first}");
    assert_eq!(field(&first, "executed"), 3);
    let (_, manifest1) = http(
        addr,
        "GET",
        &format!("/jobs/{}/manifest", job_id(&resp)),
        "",
    );

    // Identical resubmission: the grid dir persists, so resume-by-scan
    // serves it — zero executions.
    let (_, resp2) = http(addr, "POST", "/jobs", body);
    let second = await_terminal(addr, job_id(&resp2));
    assert_eq!(field(&second, "executed"), 0, "{second}");
    assert_eq!(field(&second, "resumed"), 3);
    let (_, manifest2) = http(
        addr,
        "GET",
        &format!("/jobs/{}/manifest", job_id(&resp2)),
        "",
    );
    assert_eq!(
        manifest1, manifest2,
        "served manifests must be byte-identical"
    );

    // Fresh resubmission discards the grid dir, so completion must
    // come from the result cache — zero executions, all hits.
    let fresh = r#"{"client":"t","experiments":["alpha","beta","gamma"],"fresh":true}"#;
    let (_, resp3) = http(addr, "POST", "/jobs", fresh);
    let third = await_terminal(addr, job_id(&resp3));
    assert_eq!(field(&third, "executed"), 0, "{third}");
    assert_eq!(field(&third, "cached"), 3);
    let (_, manifest3) = http(
        addr,
        "GET",
        &format!("/jobs/{}/manifest", job_id(&resp3)),
        "",
    );
    assert_eq!(manifest1, manifest3);

    // Each unit ran exactly once over the whole session.
    let mut log = journal.lock().unwrap().clone();
    log.sort();
    assert_eq!(log, ["alpha", "beta", "gamma"]);

    // /stats shows the cache traffic.
    let (_, stats) = http(addr, "GET", "/stats", "");
    assert_eq!(field(&stats, "hits"), 3, "{stats}");
    assert_eq!(field(&stats, "stores"), 3, "{stats}");
    srv.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn queue_overflow_gets_429_and_drain_gets_503() {
    let root = fresh_root("admission");
    let gate = Arc::new(Gate::default());
    let g = Arc::clone(&gate);
    let builder: GridBuilder = Arc::new(move |spec| {
        let g = Arc::clone(&g);
        Ok(spec
            .experiments
            .iter()
            .map(|exp| {
                let g = Arc::clone(&g);
                JobSpec::new(JobId::new(exp.clone(), "cell"), move |_| {
                    g.wait();
                    Ok(JobOutput::default())
                })
            })
            .collect())
    });
    let mut srv = JobServer::start(
        ServeConfig {
            max_queue: 2,
            ..cfg(root.clone())
        },
        "127.0.0.1:0".parse().unwrap(),
        builder,
    )
    .expect("start");
    let addr = srv.addr();
    // First job starts running (blocked on the gate); two more queue.
    let mut ids = Vec::new();
    for i in 0..3 {
        let (status, resp) = http(
            addr,
            "POST",
            "/jobs",
            &format!(r#"{{"experiments":["e{i}"]}}"#),
        );
        assert!(status.contains("200"), "submit {i}: {status}");
        ids.push(job_id(&resp));
    }
    // Give the scheduler a moment to claim the first job, then the
    // queue holds 2 — the limit — and the next submission is refused.
    for _ in 0..200 {
        let (_, body) = http(addr, "GET", &format!("/jobs/{}", ids[0]), "");
        if body.contains("\"phase\":\"running\"") {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let (status, body) = http(addr, "POST", "/jobs", r#"{"experiments":["e3"]}"#);
    assert!(status.contains("429"), "expected 429, got {status}: {body}");
    gate.release();
    for &id in &ids {
        await_terminal(addr, id);
    }
    // Draining refuses with 503.
    let drain = std::thread::spawn(move || {
        srv.shutdown();
        srv
    });
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        match std::panic::catch_unwind(|| http(addr, "POST", "/jobs", r#"{"experiments":["x"]}"#)) {
            Ok((status, _)) if status.contains("503") => break,
            // Once the listener is down the connect fails, which also
            // proves no new work is accepted.
            Err(_) => break,
            Ok(_) => {}
        }
        assert!(
            std::time::Instant::now() < deadline,
            "drain never refused work"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(drain.join().unwrap());
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scheduler_round_robins_across_clients() {
    let root = fresh_root("fairness");
    let gate = Arc::new(Gate::default());
    let journal = Arc::new(Mutex::new(Vec::new()));
    let (g, j) = (Arc::clone(&gate), Arc::clone(&journal));
    let builder: GridBuilder = Arc::new(move |spec| {
        let (g, j) = (Arc::clone(&g), Arc::clone(&j));
        Ok(spec
            .experiments
            .iter()
            .map(|exp| {
                let (g, j) = (Arc::clone(&g), Arc::clone(&j));
                let name = exp.clone();
                JobSpec::new(JobId::new(exp.clone(), "cell"), move |_| {
                    g.wait();
                    j.lock().unwrap().push(name.clone());
                    Ok(JobOutput::default())
                })
            })
            .collect())
    });
    let mut srv = JobServer::start(cfg(root.clone()), "127.0.0.1:0".parse().unwrap(), builder)
        .expect("start");
    let addr = srv.addr();
    // A blocker from client "z" occupies the scheduler; once it is
    // running, everything submitted after it queues in arrival order:
    // a:a1, a:a2, b:b1, c:c1. Round-robin must serve a1, b1, c1, a2 —
    // not a's whole backlog before b and c.
    let submits = [
        ("z", "z1"),
        ("a", "a1"),
        ("a", "a2"),
        ("b", "b1"),
        ("c", "c1"),
    ];
    let mut ids = Vec::new();
    for (client, exp) in submits {
        let (status, resp) = http(
            addr,
            "POST",
            "/jobs",
            &format!(r#"{{"client":"{client}","experiments":["{exp}"]}}"#),
        );
        assert!(status.contains("200"), "{status}");
        ids.push(job_id(&resp));
        // Let the scheduler claim the blocker before the rest arrive,
        // so the queue state is deterministic.
        if exp == "z1" {
            for _ in 0..200 {
                let (_, body) = http(addr, "GET", &format!("/jobs/{}", ids[0]), "");
                if body.contains("\"phase\":\"running\"") {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    gate.release();
    for &id in &ids {
        await_terminal(addr, id);
    }
    assert_eq!(
        journal.lock().unwrap().clone(),
        ["z1", "a1", "b1", "c1", "a2"],
        "client b and c must not starve behind a's backlog"
    );
    srv.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn delete_cancels_queued_and_running_jobs() {
    let root = fresh_root("cancel");
    let gate = Arc::new(Gate::default());
    let started = Arc::new(AtomicBool::new(false));
    let (g, s) = (Arc::clone(&gate), Arc::clone(&started));
    let builder: GridBuilder = Arc::new(move |spec| {
        let (g, s) = (Arc::clone(&g), Arc::clone(&s));
        Ok(spec
            .experiments
            .iter()
            .map(|exp| {
                let (g, s) = (Arc::clone(&g), Arc::clone(&s));
                JobSpec::new(JobId::new(exp.clone(), "cell"), move |_| {
                    s.store(true, Ordering::SeqCst);
                    g.wait();
                    Ok(JobOutput::default())
                })
            })
            .collect())
    });
    let mut srv = JobServer::start(cfg(root.clone()), "127.0.0.1:0".parse().unwrap(), builder)
        .expect("start");
    let addr = srv.addr();
    // Multi-unit grid: unit one blocks on the gate; cancelling then
    // releasing lets it finish while the rest are skipped.
    let (_, resp) = http(addr, "POST", "/jobs", r#"{"experiments":["u1","u2","u3"]}"#);
    let running = job_id(&resp);
    // A second, queued job to cancel outright.
    let (_, resp2) = http(addr, "POST", "/jobs", r#"{"experiments":["other"]}"#);
    let queued = job_id(&resp2);
    while !started.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
    }
    let (status, body) = http(addr, "DELETE", &format!("/jobs/{queued}"), "");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"phase\":\"cancelled\""), "{body}");
    let (_, body) = http(addr, "DELETE", &format!("/jobs/{running}"), "");
    assert!(body.contains("\"phase\":\"running\""), "{body}");
    gate.release();
    let final_body = await_terminal(addr, running);
    assert!(
        final_body.contains("\"phase\":\"cancelled\""),
        "{final_body}"
    );
    assert_eq!(
        field(&final_body, "executed"),
        1,
        "in-flight unit persisted"
    );
    assert_eq!(field(&final_body, "cancelled"), 2, "{final_body}");
    srv.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn drain_mid_grid_then_restart_completes_without_rerunning() {
    let root = fresh_root("drain-restart");
    let journal = Arc::new(Mutex::new(Vec::new()));
    let gate = Arc::new(Gate::default());
    let started = Arc::new(AtomicBool::new(false));
    let mk_builder = |journal: Arc<Mutex<Vec<String>>>,
                      gate: Option<(Arc<Gate>, Arc<AtomicBool>)>|
     -> GridBuilder {
        Arc::new(move |spec| {
            Ok(spec
                .experiments
                .iter()
                .map(|exp| {
                    let journal = Arc::clone(&journal);
                    let gate = gate.clone();
                    let name = exp.clone();
                    JobSpec::new(JobId::new(exp.clone(), "cell"), move |_| {
                        if let Some((g, s)) = &gate {
                            s.store(true, Ordering::SeqCst);
                            g.wait();
                        }
                        journal.lock().unwrap().push(name.clone());
                        let mut out = JobOutput::default();
                        out.metric("v", name.len() as f64);
                        Ok(out)
                    })
                })
                .collect())
        })
    };
    let mut srv = JobServer::start(
        cfg(root.clone()),
        "127.0.0.1:0".parse().unwrap(),
        mk_builder(
            Arc::clone(&journal),
            Some((Arc::clone(&gate), Arc::clone(&started))),
        ),
    )
    .expect("start");
    let addr = srv.addr();
    let body = r#"{"experiments":["w1","w2","w3","w4"]}"#;
    let (_, resp) = http(addr, "POST", "/jobs", body);
    let id = job_id(&resp);
    while !started.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Drain while unit one is in flight: shutdown blocks until the
    // unit persists, so release the gate from another thread.
    let drainer = std::thread::spawn(move || {
        srv.shutdown();
        srv
    });
    std::thread::sleep(Duration::from_millis(50));
    gate.release();
    let srv = drainer.join().unwrap();
    drop(srv);
    assert_eq!(
        journal.lock().unwrap().len(),
        1,
        "exactly the in-flight unit ran before the drain"
    );

    // A second server over the same root completes the remainder —
    // the finished unit resumes from its manifest.
    let srv2 = JobServer::start(
        cfg(root.clone()),
        "127.0.0.1:0".parse().unwrap(),
        mk_builder(Arc::clone(&journal), None),
    )
    .expect("restart");
    let addr2 = srv2.addr();
    let (_, resp2) = http(addr2, "POST", "/jobs", body);
    let final_body = await_terminal(addr2, job_id(&resp2));
    assert!(final_body.contains("\"phase\":\"done\""), "{final_body}");
    assert_eq!(field(&final_body, "resumed"), 1, "{final_body}");
    assert_eq!(field(&final_body, "executed"), 3, "{final_body}");
    let mut log = journal.lock().unwrap().clone();
    log.sort();
    assert_eq!(
        log,
        ["w1", "w2", "w3", "w4"],
        "every unit ran exactly once across the drain/restart pair"
    );
    let _ = id;
    drop(srv2);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn manifest_is_ready_when_the_stream_ends() {
    let root = fresh_root("feed-close");
    // Many units with many metrics make the merged manifest slow to
    // build, widening any gap between the stream's end and the
    // manifest being stored.
    let builder: GridBuilder = Arc::new(|spec| {
        Ok(spec
            .experiments
            .iter()
            .flat_map(|exp| {
                (0..256).map(move |u| {
                    JobSpec::new(JobId::new(exp.clone(), format!("u{u}")), move |_| {
                        let mut out = JobOutput::default();
                        for m in 0..128 {
                            out.metric(format!("m{m}"), f64::from(u * m));
                        }
                        Ok(out)
                    })
                })
            })
            .collect())
    });
    let mut srv = JobServer::start(cfg(root.clone()), "127.0.0.1:0".parse().unwrap(), builder)
        .expect("start");
    let addr = srv.addr();
    let mut served = Vec::new();
    for round in 0..4 {
        let (_, resp) = http(
            addr,
            "POST",
            "/jobs",
            &format!(r#"{{"experiments":["r{round}"]}}"#),
        );
        let id = job_id(&resp);
        // Follow the live stream to its end, then fetch the manifest
        // exactly once: no retry may be needed.
        let (_, sse) = http(addr, "GET", &format!("/jobs/{id}/stream"), "");
        assert!(sse.contains("event: end"), "{sse}");
        let (status, manifest) = http(addr, "GET", &format!("/jobs/{id}/manifest"), "");
        assert!(
            status.contains("200"),
            "round {round}: {status}: {manifest}"
        );
        served.push((id, manifest));
    }
    for (id, manifest) in served {
        let (_, later) = http(addr, "GET", &format!("/jobs/{id}/manifest"), "");
        assert_eq!(manifest, later, "job {id}: manifest changed after end");
    }
    srv.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sse_stream_replays_lifecycle_and_ends() {
    let root = fresh_root("sse");
    let journal = Arc::new(Mutex::new(Vec::new()));
    let mut srv = JobServer::start(
        cfg(root.clone()),
        "127.0.0.1:0".parse().unwrap(),
        logging_builder(journal),
    )
    .expect("start");
    let addr = srv.addr();
    let (_, resp) = http(addr, "POST", "/jobs", r#"{"experiments":["one","two"]}"#);
    let id = job_id(&resp);
    await_terminal(addr, id);
    // Late subscription replays the whole lifecycle, then ends.
    let (status, sse) = http(addr, "GET", &format!("/jobs/{id}/stream"), "");
    assert!(status.contains("200"), "{status}");
    for needle in [
        "\"type\":\"sweep_start\"",
        "\"type\":\"job_start\"",
        "\"type\":\"job_end\"",
        "\"type\":\"sweep_end\"",
        "\"type\":\"stream_end\"",
        "event: end",
    ] {
        assert!(sse.contains(needle), "missing {needle} in {sse}");
    }
    // Unknown ids 404 on every jobs endpoint.
    for path in ["/jobs/99", "/jobs/99/stream", "/jobs/99/manifest"] {
        let (status, _) = http(addr, "GET", path, "");
        assert!(status.contains("404"), "{path}: {status}");
    }
    srv.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn stats_report_latency_over_terminal_jobs() {
    use gscalar_metrics::json::Json;
    let root = fresh_root("latency");
    let journal = Arc::new(Mutex::new(Vec::new()));
    let mut srv = JobServer::start(
        cfg(root.clone()),
        "127.0.0.1:0".parse().unwrap(),
        logging_builder(journal),
    )
    .expect("start");
    let addr = srv.addr();
    for exp in ["one", "two", "three"] {
        let (_, resp) = http(
            addr,
            "POST",
            "/jobs",
            &format!(r#"{{"experiments":["{exp}"]}}"#),
        );
        await_terminal(addr, job_id(&resp));
    }
    let (_, stats) = http(addr, "GET", "/stats", "");
    let doc = Json::parse(stats.trim()).expect("stats parse");
    let latency = doc.get("latency_ms").expect("latency_ms in /stats");
    let num = |k: &str| latency.get(k).and_then(Json::as_f64).expect(k);
    assert_eq!(num("jobs"), 3.0, "{stats}");
    assert!(num("p50") <= num("p99"), "{stats}");
    srv.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn deeply_nested_body_is_rejected_and_the_server_lives() {
    let root = fresh_root("nesting");
    let journal = Arc::new(Mutex::new(Vec::new()));
    let mut srv = JobServer::start(
        cfg(root.clone()),
        "127.0.0.1:0".parse().unwrap(),
        logging_builder(journal),
    )
    .expect("start");
    let addr = srv.addr();
    // 10 KB of brackets: far under the body limit, far deeper than a
    // connection thread's stack could recurse.
    let (status, body) = http(addr, "POST", "/jobs", &"[".repeat(10_000));
    assert!(status.contains("400"), "{status}: {body}");
    assert!(body.contains("nesting"), "{body}");
    let (status, body) = http(addr, "GET", "/healthz", "");
    assert!(status.contains("200"), "{status}: {body}");
    srv.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
