//! The simulator as a service: a persistent sweep job server plus its
//! command-line client.
//!
//! ```text
//! serve --addr 127.0.0.1:7979 --root serve-state        # run the server
//! serve submit 127.0.0.1:7979 probe --scale test        # submit + wait
//! serve stats 127.0.0.1:7979                            # cache/job stats
//! serve cancel 127.0.0.1:7979 3                         # cancel a job
//! ```
//!
//! The server resolves submitted experiment names against the bench
//! registry, stamps every job with its content-address
//! ([`experiments::cache_key`]), and runs grids through
//! [`gscalar_serve::JobServer`]: bounded admission, round-robin
//! fairness across clients, a digest-keyed result cache, and live SSE
//! progress per job. SIGTERM/ctrl-c drains gracefully — in-flight jobs
//! persist their manifests and a restarted server resumes the rest.
//!
//! `submit` waits for its job by default — it follows the job's SSE
//! stream to `event: end`, then reads the status once — prints the
//! final phase and counters, optionally saves the merged grid manifest
//! (`--manifest-out`), and exits nonzero unless the grid completed.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use gscalar_bench::experiments;
use gscalar_serve::{signal, GridBuilder, JobServer, ServeConfig, SubmitSpec};

const USAGE: &str = "usage:
  serve [--addr HOST:PORT] [--root DIR] [--threads N] [--retries N]
        [--max-queue N] [--deterministic]                 run the job server
  serve submit <addr> <experiment...> [--scale test|full] [--budget N]
        [--fresh] [--client NAME] [--no-wait] [--manifest-out PATH]
  serve stats <addr>
  serve cancel <addr> <job-id>";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("submit") => submit(&args[1..]),
        Some("stats") => simple(&args[1..], "GET", None),
        Some("cancel") => simple(&args[1..], "DELETE", Some("job-id")),
        _ => server(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("serve: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- server

fn server(args: &[String]) -> Result<ExitCode, String> {
    let mut addr: SocketAddr = "127.0.0.1:7979".parse().unwrap();
    let mut cfg = ServeConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))
        };
        match a.as_str() {
            "--addr" => {
                let v = value("--addr")?;
                addr = v.parse().map_err(|e| format!("--addr {v}: {e}"))?;
            }
            "--root" => cfg.root = PathBuf::from(value("--root")?),
            "--threads" => {
                cfg.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?;
            }
            "--retries" => {
                cfg.max_retries = value("--retries")?
                    .parse()
                    .map_err(|e| format!("--retries: {e}"))?;
            }
            "--max-queue" => {
                cfg.max_queue = value("--max-queue")?
                    .parse()
                    .map_err(|e| format!("--max-queue: {e}"))?;
            }
            "--deterministic" => cfg.deterministic = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let srv =
        JobServer::start(cfg, addr, registry_builder()).map_err(|e| format!("{addr}: {e}"))?;
    // The exact bound address (the OS picks the port for :0) goes to
    // stdout so scripts and tests can parse it.
    println!("serve: listening on http://{}", srv.addr());
    let _ = std::io::stdout().flush();
    signal::install();
    let mut srv = srv;
    while !signal::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("serve: termination signal received, draining");
    srv.shutdown();
    eprintln!(
        "serve: drained, state persisted under {}",
        srv.root().display()
    );
    Ok(ExitCode::SUCCESS)
}

/// The bench-registry grid builder: [`experiments::grid`] over the
/// submission's names, scale and budget.
fn registry_builder() -> GridBuilder {
    Arc::new(|spec: &SubmitSpec| {
        let scale = experiments::scale_arg(&spec.scale)?;
        experiments::grid(&spec.experiments, scale, spec.budget)
    })
}

// ---------------------------------------------------------------- client

/// Connects and sends one HTTP/1.1 request; `timeout` bounds each read
/// of the response.
fn send(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Option<Duration>,
) -> Result<TcpStream, String> {
    let mut conn =
        TcpStream::connect(addr).map_err(|e| format!("{addr}: {e} (is the server running?)"))?;
    conn.set_read_timeout(timeout).map_err(|e| e.to_string())?;
    write!(
        conn,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("{addr}: {e}"))?;
    Ok(conn)
}

/// One HTTP/1.1 exchange; returns (status code, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut conn = send(addr, method, path, body, Some(Duration::from_secs(60)))?;
    let mut raw = String::new();
    conn.read_to_string(&mut raw)
        .map_err(|e| format!("{addr}: {e}"))?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{addr}: malformed response"))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

/// Extracts a JSON string/number field from a (flat, trusted) response
/// body without pulling in a full parser here.
fn field<'a>(body: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":");
    let rest = &body[body.find(&tag)? + tag.len()..];
    if let Some(s) = rest.strip_prefix('"') {
        s.split('"').next()
    } else {
        Some(rest.split([',', '}']).next().unwrap_or("").trim())
    }
}

fn submit(args: &[String]) -> Result<ExitCode, String> {
    let mut it = args.iter();
    let addr: SocketAddr = it
        .next()
        .ok_or_else(|| format!("submit expects an address\n{USAGE}"))?
        .parse()
        .map_err(|e| format!("bad address: {e}"))?;
    let mut spec = SubmitSpec {
        client: "cli".to_string(),
        experiments: Vec::new(),
        scale: "test".to_string(),
        budget: 0,
        fresh: false,
    };
    let mut wait = true;
    let mut manifest_out: Option<PathBuf> = None;
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} expects a value\n{USAGE}"))
        };
        match a.as_str() {
            "--scale" => spec.scale = value("--scale")?.clone(),
            "--budget" => {
                spec.budget = value("--budget")?
                    .parse()
                    .map_err(|e| format!("--budget: {e}"))?;
            }
            "--fresh" => spec.fresh = true,
            "--client" => spec.client = value("--client")?.clone(),
            "--no-wait" => wait = false,
            "--manifest-out" => manifest_out = Some(PathBuf::from(value("--manifest-out")?)),
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            name => spec.experiments.push(name.to_string()),
        }
    }
    if spec.experiments.is_empty() {
        return Err(format!("submit names no experiments\n{USAGE}"));
    }
    let (status, body) = http(addr, "POST", "/jobs", &spec.to_json())?;
    if status != 200 {
        return Err(format!("submit refused ({status}): {body}"));
    }
    let job = field(&body, "job")
        .ok_or_else(|| format!("no job id in response: {body}"))?
        .to_string();
    let digest = field(&body, "digest").unwrap_or("?").to_string();
    println!("submitted job {job} (grid {digest})");
    if !wait {
        return Ok(ExitCode::SUCCESS);
    }
    follow(addr, &job)?;
    // The server closes a job's stream only after its outcome is
    // stored, so one status read sees the terminal phase.
    let (status, body) = http(addr, "GET", &format!("/jobs/{job}"), "")?;
    if status != 200 {
        return Err(format!("job {job} lookup failed ({status}): {body}"));
    }
    let phase = field(&body, "phase").unwrap_or("?").to_string();
    if !matches!(phase.as_str(), "done" | "failed" | "cancelled" | "error") {
        return Err(format!("job {job} stream ended in phase {phase}: {body}"));
    }
    for counter in ["executed", "resumed", "cached", "failed"] {
        if let Some(v) = field(&body, counter) {
            print!("{counter} {v}  ");
        }
    }
    println!("-> {phase}");
    if let Some(out) = manifest_out {
        let (status, manifest) = http(addr, "GET", &format!("/jobs/{job}/manifest"), "")?;
        if status == 200 {
            std::fs::write(&out, manifest).map_err(|e| format!("{}: {e}", out.display()))?;
            println!("manifest saved to {}", out.display());
        } else {
            eprintln!("serve: no manifest for job {job} ({status})");
        }
    }
    Ok(if phase == "done" {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Follows `/jobs/<job>/stream` until `event: end`. Reads block without
/// a timeout: a long unit may go minutes between records.
fn follow(addr: SocketAddr, job: &str) -> Result<(), String> {
    let path = format!("/jobs/{job}/stream");
    let mut reader = BufReader::new(send(addr, "GET", &path, "", None)?);
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

/// `stats` and `cancel`: one request, body to stdout.
fn simple(args: &[String], method: &str, operand: Option<&str>) -> Result<ExitCode, String> {
    let mut it = args.iter();
    let addr: SocketAddr = it
        .next()
        .ok_or_else(|| format!("expected an address\n{USAGE}"))?
        .parse()
        .map_err(|e| format!("bad address: {e}"))?;
    let path = match operand {
        None => "/stats".to_string(),
        Some(what) => {
            let id = it
                .next()
                .ok_or_else(|| format!("expected a {what}\n{USAGE}"))?;
            format!("/jobs/{id}")
        }
    };
    let (status, body) = http(addr, method, &path, "")?;
    println!("{body}");
    Ok(if status == 200 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
