//! End-to-end CLI contract for `--live`: attaching a telemetry stream
//! to `probe` or `bottleneck` must leave the written manifest
//! **byte-identical** to a run without it, and the resulting stream
//! must satisfy `watch check` and render via `watch --once`. This is
//! the same gate ci.sh runs.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin(exe: &str) -> &'static str {
    match exe {
        "probe" => env!("CARGO_BIN_EXE_probe"),
        "bottleneck" => env!("CARGO_BIN_EXE_bottleneck"),
        "watch" => env!("CARGO_BIN_EXE_watch"),
        _ => unreachable!(),
    }
}

fn run(exe: &str, args: &[&str]) -> std::process::Output {
    let out = Command::new(bin(exe))
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {exe}: {e}"));
    assert!(
        out.status.success(),
        "{exe} {args:?} failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn live_stream_leaves_probe_manifest_byte_identical() {
    let dir = std::env::temp_dir().join("gscalar-live-cli");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| -> PathBuf { dir.join(name) };
    let s = |path: &PathBuf| path.to_str().unwrap().to_string();

    // Baseline: deterministic probe without telemetry.
    let base = p("base.json");
    run(
        "probe",
        &["--scale", "test", "--deterministic", "--json", &s(&base)],
    );

    // Same run with a live stream attached.
    let live1 = p("live1.json");
    let stream1 = p("live1.ndjson");
    run(
        "probe",
        &[
            "--scale",
            "test",
            "--deterministic",
            "--json",
            &s(&live1),
            "--live",
            &s(&stream1),
            "--live-interval",
            "64",
        ],
    );
    assert_eq!(
        read(&base),
        read(&live1),
        "manifest changed when --live was attached"
    );

    // The stream passes strict validation: every line parses, at least
    // one snapshot and one terminal record.
    let check = run("watch", &["check", &s(&stream1)]);
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(stdout.contains("snapshot"), "check output: {stdout}");
    assert!(stdout.contains("ok:"), "check output: {stdout}");

    // And the dashboard renders from the finished file.
    let once = run("watch", &[&s(&stream1), "--once"]);
    let rendered = String::from_utf8_lossy(&once.stdout);
    assert!(rendered.contains("records"), "dashboard render: {rendered}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn traced_observed_runs_stream_snapshots() {
    // `bottleneck`'s baseline runs are traced and carry an observer but
    // sample on no cadence of their own: the stream still snapshots
    // them on its own grid, and the manifest does not move.
    let dir = std::env::temp_dir().join("gscalar-live-cli-bottleneck");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let p = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let args = ["--scale", "test", "--deterministic"];
    run(
        "bottleneck",
        &[&args[..], &["--json", &p("base.json")]].concat(),
    );
    run(
        "bottleneck",
        &[
            &args[..],
            &[
                "--json",
                &p("live.json"),
                "--live",
                &p("live.ndjson"),
                "--live-interval",
                "256",
            ],
        ]
        .concat(),
    );
    assert_eq!(
        read(Path::new(&p("base.json"))),
        read(Path::new(&p("live.json"))),
        "manifest changed when --live was attached"
    );
    let text = String::from_utf8(read(Path::new(&p("live.ndjson")))).unwrap();
    let mut streamed = std::collections::HashSet::new();
    let mut ends = Vec::new();
    for line in text.lines() {
        match gscalar_live::LiveRecord::parse(line).expect("parses") {
            gscalar_live::LiveRecord::Snapshot { run, .. } => {
                streamed.insert(run);
            }
            gscalar_live::LiveRecord::RunEnd { run, cycle, .. } => ends.push((run, cycle)),
            _ => {}
        }
    }
    assert!(!ends.is_empty(), "no run_end in the stream");
    for (run, cycle) in ends {
        if cycle >= 256 {
            assert!(
                streamed.contains(&run),
                "run {run} ran {cycle} cycles and streamed no snapshot"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watch_renders_from_sse_endpoint() {
    use gscalar_live::{LiveHandle, LiveRecord, StreamConfig};
    let (handle, addr) = LiveHandle::serve(
        "127.0.0.1:0".parse().unwrap(),
        StreamConfig {
            deterministic: true,
            ..StreamConfig::default()
        },
    )
    .expect("bind SSE server");
    handle.emit(&LiveRecord::RunStart {
        run: 1,
        workload: "backprop".into(),
        arch: "G-Scalar".into(),
        sms: 4,
        t_s: 0.0,
    });
    handle.emit(&LiveRecord::RunEnd {
        run: 1,
        cycle: 5000,
        ipc: 3.5,
        warp_instrs: 900,
        t_s: 0.0,
    });
    // Closing marks the stream ended: the SSE endpoint replays history
    // to late subscribers and terminates with an `end` event, so the
    // watch subprocess below exits deterministically.
    handle.close();
    let out = run("watch", &[&addr.to_string(), "--once"]);
    let rendered = String::from_utf8_lossy(&out.stdout);
    assert!(rendered.contains("backprop"), "render: {rendered}");
    assert!(rendered.contains("records"), "render: {rendered}");
}
