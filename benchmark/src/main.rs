//! `gscalar-benchmark`: runs each requested workload in its own child
//! process (so `peak_rss_mb` is per workload), prints every metric as a
//! `name value unit` line, writes `<out-dir>/results.json`, and ends
//! stdout with one JSON result object.
//!
//! ```text
//! gscalar-benchmark [--workload NAME] [--seed N] [--seconds S]
//!                   [--trace 0|1] [--smoke] [--repeat N]
//!                   [--root DIR] [--out-dir DIR]
//! ```
//!
//! Use `benchmark/run.sh`, which builds the package first.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use gscalar_benchmark::{
    chrome_trace, engine, self_times, serve, sweep, Opts, SpanLog, PER_LAYER, WORKLOADS,
};
use gscalar_metrics::json::Json;

/// A child that has not finished by then is killed: every run must end
/// within the driver's three minutes.
const CHILD_DEADLINE: Duration = Duration::from_secs(170);

struct Cli {
    opts: Opts,
    workloads: Vec<String>,
    repeat: usize,
    child: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        opts: Opts {
            seed: 1,
            seconds: 20.0,
            trace: false,
            smoke: false,
            root: PathBuf::from("."),
            out_dir: PathBuf::from("target/benchmark"),
        },
        workloads: Vec::new(),
        repeat: 1,
        child: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{a} expects a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?.clone();
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w} (one of {WORKLOADS:?})"));
                }
                cli.workloads.push(w);
            }
            "--seed" => cli.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                cli.opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v}")),
                };
            }
            "--smoke" => cli.opts.smoke = true,
            "--repeat" => cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--root" => cli.opts.root = PathBuf::from(value()?),
            "--out-dir" => cli.opts.out_dir = PathBuf::from(value()?),
            "--child" => cli.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.workloads.is_empty() {
        cli.workloads = WORKLOADS.iter().map(ToString::to_string).collect();
    }
    Ok(cli)
}

/// Runs one workload in this process and prints its result line.
fn child(opts: &Opts, workload: &str) -> Result<(), String> {
    let spans = SpanLog::new(opts.trace);
    let outcome = match workload {
        "engine-full" => engine::run(opts, &engine::full(opts), workload, &spans),
        "engine-test" => engine::run(opts, &engine::test(), workload, &spans),
        "sweep-full" => sweep::run(opts, &spans),
        "serve-mix" => serve::run(opts, &spans),
        other => Err(format!("unknown workload {other}")),
    }?;
    if opts.trace {
        write_trace(opts, workload, &spans, &outcome.metrics)?;
    }
    println!("{}", outcome.result_line(opts.trace)?);
    Ok(())
}

/// Writes `trace.json` (benchmark spans plus the host-profiler
/// timeline) and `layers.json` (per-span self times and the per-layer
/// metrics) under `<out-dir>/<workload>/`.
fn write_trace(
    opts: &Opts,
    workload: &str,
    spans: &SpanLog,
    metrics: &std::collections::BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let dir = opts.out_dir.join(workload);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let recorded = spans.spans();
    let trace = chrome_trace(&recorded, &gscalar_hostprof::chrome_timeline_json());
    let spans_json = Json::Obj(
        self_times(&recorded)
            .into_iter()
            .map(|(name, (count, total, own))| {
                (
                    name,
                    Json::obj([
                        ("count".to_string(), Json::Num(count as f64)),
                        ("total_s".to_string(), Json::Num(total)),
                        ("self_s".to_string(), Json::Num(own)),
                    ]),
                )
            })
            .collect(),
    );
    let metric_json = Json::Obj(
        PER_LAYER
            .iter()
            .map(|(name, _)| {
                let v = metrics.get(name).copied().unwrap_or(0.0);
                ((*name).to_string(), Json::Num(v))
            })
            .collect(),
    );
    let layers = Json::obj([
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("spans".to_string(), spans_json),
        ("metrics".to_string(), metric_json),
    ]);
    for (name, text) in [
        ("trace.json", trace),
        ("layers.json", format!("{layers}\n")),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("benchmark: wrote {}", path.display());
    }
    Ok(())
}

/// Runs `workload` as a child process and returns its result line.
fn spawn(cli: &Cli, workload: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let o = &cli.opts;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", "--workload", workload])
        .args(["--seed", &o.seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .arg("--root")
        .arg(&o.root)
        .arg("--out-dir")
        .arg(&o.out_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    let mut proc = cmd
        .spawn()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let start = Instant::now();
    let status = loop {
        if let Some(status) = proc.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if start.elapsed() > CHILD_DEADLINE {
            let _ = proc.kill();
            let _ = proc.wait();
            return Err(format!("{workload}: killed after {CHILD_DEADLINE:?}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    if let Some(mut pipe) = proc.stdout.take() {
        std::io::Read::read_to_string(&mut pipe, &mut stdout).map_err(|e| e.to_string())?;
    }
    if !status.success() {
        return Err(format!("{workload}: exited with {status}"));
    }
    stdout
        .lines()
        .last()
        .map(ToString::to_string)
        .ok_or_else(|| format!("{workload}: printed no result"))
}

fn parent(cli: &Cli) -> Result<(), String> {
    let mut results = Vec::new();
    for run in 0..cli.repeat.max(1) {
        for w in &cli.workloads {
            let line = spawn(cli, w)?;
            let doc = Json::parse(&line).map_err(|e| format!("{w}: bad result line: {e}"))?;
            if let Some(Json::Obj(metrics)) = doc.get("metrics") {
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                    let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                    println!("{w} {name} {value} {unit}");
                }
            }
            results.push((w.clone(), run, line, doc));
        }
    }
    std::fs::create_dir_all(&cli.opts.out_dir)
        .map_err(|e| format!("{}: {e}", cli.opts.out_dir.display()))?;
    let runs: Vec<String> = results
        .iter()
        .map(|(w, run, line, _)| {
            format!(
                "{{\"workload\":\"{w}\",\"seed\":{},\"trace\":{},\"repeat\":{run},\"result\":{line}}}",
                cli.opts.seed, cli.opts.trace
            )
        })
        .collect();
    let path = cli.opts.out_dir.join("results.json");
    std::fs::write(&path, format!("[\n{}\n]\n", runs.join(",\n")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("benchmark: wrote {}", path.display());

    // The last stdout line: the single run's own result, or a summary
    // whose metrics are keyed `<workload>/<name>` (last repeat wins).
    if let [(_, _, line, _)] = results.as_slice() {
        println!("{line}");
        return Ok(());
    }
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    let mut metrics = Vec::new();
    for (w, _, _, doc) in &results {
        correct &= matches!(doc.get("correct"), Some(Json::Bool(true)));
        attempted += doc.get("attempted").and_then(Json::as_f64).unwrap_or(0.0);
        failed += doc.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        if let Some(Json::Obj(m)) = doc.get("metrics") {
            for (name, v) in m {
                metrics.push((format!("{w}/{name}"), v.clone()));
            }
        }
    }
    let summary = Json::obj([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(attempted)),
        ("failed".to_string(), Json::Num(failed)),
        (
            "metrics".to_string(),
            Json::Obj(metrics.into_iter().collect()),
        ),
    ]);
    println!("{summary}");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&args).and_then(|cli| {
        if cli.child {
            child(&cli.opts, &cli.workloads[0])
        } else {
            parent(&cli)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
