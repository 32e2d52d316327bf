//! End-to-end properties of the sweep subsystem, driven through the
//! `sweep` binary and the figure/table binaries:
//!
//! * **Determinism** — the manifests a sweep writes are byte-identical
//!   whether the grid ran on 1 thread or 4, and identical to what the
//!   standalone binary produces serially with `--deterministic` or
//!   into its own `--out` directory.
//! * **Aggregation** — `report aggregate <out> --merge` over a sweep's
//!   out dir merges each experiment's manifest exactly once.
//! * **Resume** — rerunning over the same results directory executes
//!   nothing and still renders identical output; corrupting one job
//!   manifest re-executes exactly that job.
//! * **Fault isolation** — a panicking job is contained, recorded as a
//!   machine-readable failure, and replaced by a success on rerun
//!   (library-level, with an injected faulty grid).
//! * **Flag checking** — an unknown flag, a missing value or a malformed
//!   one stops a binary with the flag's name before it runs anything.
//! * **Host timing** — an experiment's host side channel times the
//!   sweep that produced it, not only the render.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

fn sweep(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .output()
        .expect("sweep binary runs")
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

#[test]
fn sweep_manifests_are_thread_count_invariant_and_match_serial() {
    let root = fresh_dir("gscalar-sweep-cli-det");
    let one = root.join("t1");
    let four = root.join("t4");
    for (out, threads) in [(&one, "1"), (&four, "4")] {
        let o = sweep(&[
            "probe",
            "fig11_power_efficiency",
            "--scale",
            "test",
            "--threads",
            threads,
            "--out",
            out.to_str().unwrap(),
        ]);
        assert!(
            o.status.success(),
            "sweep failed: {}",
            String::from_utf8_lossy(&o.stderr)
        );
    }
    for name in ["probe", "fig11_power_efficiency"] {
        assert_eq!(
            read(&one.join(format!("{name}.json"))),
            read(&four.join(format!("{name}.json"))),
            "{name}.json differs between 1 and 4 threads"
        );
        assert_eq!(
            read(&one.join(format!("{name}.txt"))),
            read(&four.join(format!("{name}.txt"))),
            "{name}.txt differs between 1 and 4 threads"
        );
    }
    // The figure/table binaries are the same front end: `probe --out D`
    // writes what `sweep probe --out D` does.
    let own = root.join("own");
    let o = Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(["--scale", "test", "--out", own.to_str().unwrap()])
        .output()
        .expect("probe binary runs");
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    for file in ["probe.json", "probe.txt"] {
        assert_eq!(
            read(&own.join(file)),
            read(&one.join(file)),
            "probe --out and sweep probe --out differ in {file}"
        );
    }

    // Aggregating the out dir merges each experiment once: the sweep
    // writes no merged manifest of its own for the glob to pick up.
    let merged = root.join("merged.json");
    let o = Command::new(env!("CARGO_BIN_EXE_report"))
        .args(["aggregate", one.to_str().unwrap(), "--merge"])
        .arg(&merged)
        .output()
        .expect("report binary runs");
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let merged = gscalar_metrics::Manifest::load(&merged).unwrap();
    let mut expected = 0;
    for name in ["probe", "fig11_power_efficiency"] {
        let m = gscalar_metrics::Manifest::load(&one.join(format!("{name}.json"))).unwrap();
        // Every metric, plus the merge's `<bench>/host/wall_time_s`.
        expected += m.metrics.len() + 1;
    }
    assert_eq!(
        merged.metrics.len(),
        expected,
        "{:?}",
        merged.metrics.keys()
    );

    // The standalone binary, run serially with --deterministic,
    // produces the same bytes as the sweep pipeline.
    let serial = root.join("serial_fig11.json");
    let o = Command::new(env!("CARGO_BIN_EXE_fig11_power_efficiency"))
        .args([
            "--scale",
            "test",
            "--deterministic",
            "--json",
            serial.to_str().unwrap(),
        ])
        .output()
        .expect("fig11 binary runs");
    assert!(o.status.success());
    assert_eq!(
        read(&serial),
        read(&one.join("fig11_power_efficiency.json")),
        "standalone --deterministic output differs from sweep output"
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn bad_flags_fail_by_name_before_anything_runs() {
    let root = fresh_dir("gscalar-sweep-cli-flags");
    let merged = root.join("x.json");
    let manifest = root.join("two.json");
    let runs: [(&str, Vec<&str>, &str); 7] = [
        // One --json path cannot hold two experiments' manifests.
        (
            env!("CARGO_BIN_EXE_sweep"),
            vec![
                "probe",
                "fig11_power_efficiency",
                "--scale",
                "test",
                "--json",
                manifest.to_str().unwrap(),
            ],
            "--json",
        ),
        (
            env!("CARGO_BIN_EXE_probe"),
            vec!["--scale", "test", "--bugdet", "500"],
            "--bugdet",
        ),
        (
            env!("CARGO_BIN_EXE_probe"),
            vec!["--scale", "test", "--threads", "two"],
            "--threads",
        ),
        (
            env!("CARGO_BIN_EXE_probe"),
            vec!["--scale", "tset"],
            "--scale",
        ),
        (
            env!("CARGO_BIN_EXE_probe"),
            vec!["--scale", "test", "--budget"],
            "--budget",
        ),
        (
            env!("CARGO_BIN_EXE_sweep"),
            vec!["probe", "--scale", "tset"],
            "--scale",
        ),
        (
            env!("CARGO_BIN_EXE_report"),
            vec![
                "aggregate",
                root.to_str().unwrap(),
                "--merg",
                merged.to_str().unwrap(),
            ],
            "--merg",
        ),
    ];
    for (bin, args, flag) in runs {
        let o = Command::new(bin).args(&args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert!(!o.status.success(), "{args:?} exited 0");
        assert!(
            stderr.contains(flag),
            "{args:?}: stderr does not name {flag}: {stderr}"
        );
        assert!(o.stdout.is_empty(), "{args:?} ran anyway");
    }
    assert!(!merged.exists(), "a rejected aggregate wrote its merge");
    assert!(!manifest.exists(), "a rejected sweep wrote a manifest");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn sweep_resumes_completed_jobs_and_reexecutes_corrupted_ones() {
    let root = fresh_dir("gscalar-sweep-cli-resume");
    let out = root.join("results");
    let args = [
        "probe",
        "--scale",
        "test",
        "--threads",
        "2",
        "--out",
        out.to_str().unwrap(),
    ];
    assert!(sweep(&args).status.success());
    let first = read(&out.join("probe.json"));

    // Second run: everything resumes, nothing executes.
    let o = sweep(&args);
    assert!(o.status.success());
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(
        err.contains("0 executed"),
        "rerun must execute nothing: {err}"
    );
    assert_eq!(first, read(&out.join("probe.json")));

    // Corrupt one job manifest: exactly that job re-executes and the
    // rendered output is unchanged. (`.host.json` timing side channels
    // are not resume state — corrupting one would re-execute nothing.)
    let jobs: Vec<PathBuf> = std::fs::read_dir(out.join("jobs/probe"))
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .filter(|p| {
            !p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".host.json"))
        })
        .collect();
    assert!(!jobs.is_empty());
    std::fs::write(&jobs[0], "{trunc").unwrap();
    let o = sweep(&args);
    assert!(o.status.success());
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(err.contains("1 executed"), "one corrupt job re-runs: {err}");
    assert_eq!(first, read(&out.join("probe.json")));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn corrupt_host_side_channels_neither_crash_nor_reexecute_on_resume() {
    let root = fresh_dir("gscalar-sweep-cli-hostside");
    let out = root.join("results");
    let args = [
        "probe",
        "--scale",
        "test",
        "--threads",
        "2",
        "--out",
        out.to_str().unwrap(),
    ];
    assert!(sweep(&args).status.success());
    let first = read(&out.join("probe.json"));

    // Mangle every `.host.json` timing side channel: truncate one
    // mid-JSON, fill another with garbage, empty a third. They are not
    // resume state, so the rerun must resume every job (0 executed) and
    // render byte-identical output — without crashing on the bad files.
    let sides: Vec<PathBuf> = std::fs::read_dir(out.join("jobs/probe"))
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".host.json"))
        })
        .collect();
    assert!(
        !sides.is_empty(),
        "jobs must write .host.json side channels"
    );
    for (i, side) in sides.iter().enumerate() {
        let text = read(side);
        match i % 3 {
            0 => std::fs::write(side, &text[..text.len() / 2]).unwrap(),
            1 => std::fs::write(side, "definitely not json").unwrap(),
            _ => std::fs::write(side, "").unwrap(),
        }
    }
    // The top-level render side channel too.
    std::fs::write(out.join("probe.host.json"), "{trunc").unwrap();

    let o = sweep(&args);
    assert!(
        o.status.success(),
        "resume over corrupt side channels crashed: {}",
        String::from_utf8_lossy(&o.stderr)
    );
    let err = String::from_utf8_lossy(&o.stderr);
    assert!(
        err.contains("0 executed"),
        "side channels must not be resume state: {err}"
    );
    assert_eq!(first, read(&out.join("probe.json")));
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn experiment_wall_time_covers_its_jobs() {
    let out = fresh_dir("gscalar-sweep-cli-walltime");
    let o = Command::new(env!("CARGO_BIN_EXE_probe"))
        .args(["--scale", "test", "--threads", "1", "--out"])
        .arg(&out)
        .output()
        .expect("probe runs");
    assert!(o.status.success(), "{}", String::from_utf8_lossy(&o.stderr));
    let wall = |p: &Path| gscalar_metrics::Manifest::load(p).unwrap().host.wall_time_s;
    let jobs: f64 = std::fs::read_dir(out.join("jobs/probe"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().is_some_and(|n| n.ends_with(".host.json")))
        .map(|p| wall(&p))
        .sum();
    let experiment = wall(&out.join("probe.host.json"));
    assert!(jobs > 0.0, "no job timings under {}", out.display());
    // One thread runs the jobs one after another, so the experiment's
    // wall time is at least their sum (less timer slack).
    assert!(
        experiment >= 0.9 * jobs,
        "probe took {experiment}s for {jobs}s of jobs"
    );
    std::fs::remove_dir_all(&out).ok();
}

#[test]
fn panicking_job_is_recorded_and_replaced_on_rerun() {
    use gscalar_sweep::{run_sweep, FailureRecord, JobId, JobOutput, JobSpec, SweepConfig};

    let root = fresh_dir("gscalar-sweep-cli-fault");
    let attempts = Arc::new(AtomicU32::new(0));
    let grid = |fail: bool, attempts: Arc<AtomicU32>| {
        vec![
            JobSpec::new(JobId::new("exp", "good"), |_| {
                let mut out = JobOutput::default();
                out.metric("v", 1.0);
                Ok(out)
            }),
            JobSpec::new(JobId::new("exp", "flaky"), move |_| {
                attempts.fetch_add(1, Ordering::SeqCst);
                assert!(!fail, "injected fault");
                let mut out = JobOutput::default();
                out.metric("v", 2.0);
                Ok(out)
            }),
        ]
    };
    let cfg = SweepConfig {
        threads: 2,
        out_dir: Some(root.clone()),
        max_retries: 1,
        ..SweepConfig::default()
    };

    // First run: the flaky job panics (original + 1 retry), the sweep
    // still completes and persists both the good result and a failure
    // record.
    let outcome = run_sweep(&grid(true, attempts.clone()), &cfg);
    assert!(!outcome.all_completed());
    assert_eq!(outcome.failures.len(), 1);
    assert_eq!(attempts.load(Ordering::SeqCst), 2, "one retry happened");
    assert!(root.join("jobs/exp/good.json").exists());
    let failure_path = root.join("jobs/exp/flaky.failure.json");
    let rec = FailureRecord::from_json(&read(&failure_path)).unwrap();
    assert_eq!(rec.kind, "panic");
    assert!(
        rec.message.contains("injected fault"),
        "got: {}",
        rec.message
    );

    // Rerun with the fault fixed: the good job resumes from disk, the
    // flaky one re-executes, and its failure record is replaced.
    let outcome = run_sweep(&grid(false, attempts.clone()), &cfg);
    assert!(outcome.all_completed());
    assert_eq!(outcome.resumed, 1);
    assert_eq!(outcome.executed, 1);
    assert!(!failure_path.exists(), "failure record cleared on success");
    assert_eq!(outcome.results.metric("exp", "flaky", "v"), 2.0);
    std::fs::remove_dir_all(&root).ok();
}
