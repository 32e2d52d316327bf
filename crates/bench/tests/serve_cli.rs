//! End-to-end properties of the job server, driven through the real
//! `serve` binary and its `submit` client over real sockets:
//!
//! * **Cache** — resubmitting an identical grid with `--fresh` executes
//!   zero simulations and serves byte-identical manifests; the job
//!   manifests the server persists are byte-identical to what a
//!   standalone `sweep` writes.
//! * **Corruption** — a mangled cache entry is discarded and exactly
//!   that one job re-simulates; output bytes are unchanged.
//! * **Concurrency** — N parallel submitters get manifests
//!   byte-identical to a serial submission on a separate server.
//! * **Graceful shutdown** — SIGTERM drains the server cleanly and a
//!   restart over the same state root completes the grid.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    /// Spawns the `serve` binary on an ephemeral port and parses the
    /// bound address from its first stdout line.
    fn spawn(root: &Path) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_serve"))
            .args([
                "--addr",
                "127.0.0.1:0",
                "--root",
                root.to_str().unwrap(),
                "--deterministic",
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("serve binary spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("serve announces its address");
        let addr = line
            .trim()
            .strip_prefix("serve: listening on http://")
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .parse()
            .expect("bound address parses");
        Server { child, addr }
    }

    /// Graceful stop: SIGTERM (std's `Child::kill` would SIGKILL,
    /// skipping the drain) and wait for a clean exit.
    fn terminate(mut self) {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "kill -TERM failed");
        let status = self.child.wait().expect("serve exits");
        assert!(status.success(), "serve exited uncleanly after SIGTERM");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs the `submit` client subcommand to completion.
fn submit(addr: SocketAddr, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .arg("submit")
        .arg(addr.to_string())
        .args(args)
        .output()
        .expect("submit client runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// Extracts `counter N` from the submit client's status line.
fn counter(text: &str, name: &str) -> u64 {
    let tag = format!("{name} ");
    let i = text
        .find(&tag)
        .unwrap_or_else(|| panic!("no {name} in {text}"))
        + tag.len();
    text[i..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {name} in {text}"))
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sorted (name, bytes) of every job manifest under a jobs dir,
/// excluding `.host.json` timing side channels.
fn job_manifests(jobs_dir: &Path) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for exp in std::fs::read_dir(jobs_dir).expect("jobs dir").flatten() {
        for f in std::fs::read_dir(exp.path())
            .expect("experiment dir")
            .flatten()
        {
            let name = f.file_name().to_string_lossy().to_string();
            if name.ends_with(".json") && !name.ends_with(".host.json") {
                out.push((name, read(&f.path())));
            }
        }
    }
    out.sort();
    assert!(
        !out.is_empty(),
        "no job manifests under {}",
        jobs_dir.display()
    );
    out
}

#[test]
fn resubmission_is_served_from_cache_and_matches_standalone_sweep() {
    let root = fresh_dir("gscalar-serve-cli-cache");
    let state = root.join("state");
    let srv = Server::spawn(&state);
    let m1 = root.join("m1.json");
    let m2 = root.join("m2.json");

    // First submission executes the whole grid.
    let (ok, text) = submit(
        srv.addr,
        &[
            "probe",
            "--scale",
            "test",
            "--manifest-out",
            m1.to_str().unwrap(),
        ],
    );
    assert!(ok, "{text}");
    assert!(text.contains("-> done"), "{text}");
    let units = counter(&text, "executed");
    assert!(units > 0, "{text}");
    let digest = text
        .split("(grid ")
        .nth(1)
        .and_then(|s| s.split(')').next())
        .expect("digest in submit output")
        .to_string();

    // --fresh discards the grid dir, so the rerun must be served
    // entirely from the result cache: zero executions, identical bytes.
    let (ok, text) = submit(
        srv.addr,
        &[
            "probe",
            "--scale",
            "test",
            "--fresh",
            "--manifest-out",
            m2.to_str().unwrap(),
        ],
    );
    assert!(ok, "{text}");
    assert_eq!(counter(&text, "executed"), 0, "{text}");
    assert_eq!(counter(&text, "cached"), units, "{text}");
    assert_eq!(
        read(&m1),
        read(&m2),
        "served manifests must be byte-identical"
    );

    // The job manifests the server persisted are byte-identical to a
    // standalone sweep of the same grid.
    let std_out = root.join("standalone");
    let o = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args([
            "probe",
            "--scale",
            "test",
            "--out",
            std_out.to_str().unwrap(),
        ])
        .output()
        .expect("sweep binary runs");
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    assert_eq!(
        job_manifests(&state.join("grids").join(&digest).join("jobs")),
        job_manifests(&std_out.join("jobs")),
        "served job manifests differ from standalone sweep"
    );
    srv.terminate();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupt_cache_entry_is_discarded_and_resimulated() {
    let root = fresh_dir("gscalar-serve-cli-corrupt");
    let state = root.join("state");
    let srv = Server::spawn(&state);
    let m1 = root.join("m1.json");
    let m2 = root.join("m2.json");
    let (ok, text) = submit(
        srv.addr,
        &[
            "probe",
            "--scale",
            "test",
            "--manifest-out",
            m1.to_str().unwrap(),
        ],
    );
    assert!(ok, "{text}");
    let units = counter(&text, "executed");

    // Mangle exactly one cache entry.
    let mut entries: Vec<PathBuf> = Vec::new();
    for shard in std::fs::read_dir(state.join("cache"))
        .expect("cache dir")
        .flatten()
    {
        if shard.path().is_dir() {
            for f in std::fs::read_dir(shard.path()).unwrap().flatten() {
                entries.push(f.path());
            }
        }
    }
    entries.sort();
    assert_eq!(entries.len() as u64, units, "one cache entry per job");
    std::fs::write(&entries[0], "{definitely-not-a-manifest").unwrap();

    // The fresh rerun discards the bad entry, re-simulates exactly that
    // job, and still produces identical bytes.
    let (ok, text) = submit(
        srv.addr,
        &[
            "probe",
            "--scale",
            "test",
            "--fresh",
            "--manifest-out",
            m2.to_str().unwrap(),
        ],
    );
    assert!(ok, "{text}");
    assert_eq!(counter(&text, "executed"), 1, "{text}");
    assert_eq!(counter(&text, "cached"), units - 1, "{text}");
    assert_eq!(read(&m1), read(&m2));
    srv.terminate();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn concurrent_submitters_match_a_serial_run() {
    let root = fresh_dir("gscalar-serve-cli-concurrent");

    // Serial baseline on its own server + state root.
    let serial_state = root.join("serial");
    let srv = Server::spawn(&serial_state);
    let baseline = root.join("serial.json");
    let (ok, text) = submit(
        srv.addr,
        &[
            "probe",
            "--scale",
            "test",
            "--client",
            "baseline",
            "--manifest-out",
            baseline.to_str().unwrap(),
        ],
    );
    assert!(ok, "{text}");
    srv.terminate();

    // Four clients race the same grid against a fresh server. The grid
    // digest dedupes their output directory, so whoever runs first
    // executes and the rest resume — all must serve identical bytes.
    let srv = Server::spawn(&root.join("concurrent"));
    let addr = srv.addr;
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let out = root.join(format!("client{i}.json"));
            let out_arg = out.to_str().unwrap().to_string();
            let client = format!("client{i}");
            std::thread::spawn(move || {
                let (ok, text) = submit(
                    addr,
                    &[
                        "probe",
                        "--scale",
                        "test",
                        "--client",
                        &client,
                        "--manifest-out",
                        &out_arg,
                    ],
                );
                assert!(ok, "{text}");
                out
            })
        })
        .collect();
    let expect = read(&baseline);
    for w in workers {
        let path = w.join().expect("submitter thread");
        assert_eq!(
            read(&path),
            expect,
            "{} differs from the serial baseline",
            path.display()
        );
    }
    srv.terminate();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sigterm_drains_cleanly_and_a_restart_completes_the_grid() {
    let root = fresh_dir("gscalar-serve-cli-drain");
    let state = root.join("state");
    let srv = Server::spawn(&state);
    let addr = srv.addr;

    // Submit without waiting, then terminate mid-grid. The drain lets
    // in-flight work persist and cancels the rest; the server must
    // still exit cleanly (asserted by terminate()).
    let (ok, text) = submit(
        addr,
        &[
            "probe",
            "fig11_power_efficiency",
            "--scale",
            "test",
            "--no-wait",
        ],
    );
    assert!(ok, "{text}");
    std::thread::sleep(Duration::from_millis(300));
    srv.terminate();

    // A restarted server over the same root completes the grid from
    // its persisted manifests: every unit accounted for, none lost.
    let srv = Server::spawn(&state);
    let manifest = root.join("final.json");
    let (ok, text) = submit(
        srv.addr,
        &[
            "probe",
            "fig11_power_efficiency",
            "--scale",
            "test",
            "--manifest-out",
            manifest.to_str().unwrap(),
        ],
    );
    assert!(ok, "{text}");
    assert!(text.contains("-> done"), "{text}");
    assert!(manifest.exists());
    // Whatever the first server persisted before draining was resumed,
    // not re-executed; the rest executed now. (Exact split depends on
    // how far the grid got in 300ms — the invariant is the sum.)
    let done = counter(&text, "executed") + counter(&text, "resumed") + counter(&text, "cached");
    assert!(done > 0, "{text}");
    assert_eq!(counter(&text, "failed"), 0, "{text}");
    srv.terminate();
    std::fs::remove_dir_all(&root).ok();
}

/// The `stats` and `cancel` subcommands speak to a live server.
#[test]
fn stats_and_cancel_subcommands_round_trip() {
    let root = fresh_dir("gscalar-serve-cli-stats");
    let srv = Server::spawn(&root.join("state"));
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["stats", &srv.addr.to_string()])
        .output()
        .expect("stats runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"hits\""), "{text}");
    assert!(text.contains("\"draining\":false"), "{text}");

    // Cancel an unknown job: clean nonzero exit, 404 body.
    let out = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["cancel", &srv.addr.to_string(), "42"])
        .output()
        .expect("cancel runs");
    assert!(!out.status.success());

    // A raw request against the SSE endpoint of a finished job ends
    // with the terminal SSE event (client-visible stream contract).
    let (ok, text) = submit(srv.addr, &["tab01_config", "--scale", "test"]);
    assert!(ok, "{text}");
    let mut conn = TcpStream::connect(srv.addr).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(conn, "GET /jobs/1/stream HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut raw = String::new();
    conn.read_to_string(&mut raw).unwrap();
    assert!(raw.contains("\"type\":\"stream_end\""), "{raw}");
    assert!(raw.contains("event: end"), "{raw}");
    srv.terminate();
    std::fs::remove_dir_all(&root).ok();
}
