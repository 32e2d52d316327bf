//! The benchmark's contract: declared names, the percentile rule, and a
//! smoke run of every workload that must be correct and report exactly
//! the declared metrics.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use gscalar_benchmark::{percentile, self_times, Span, END_TO_END, PER_LAYER, WORKLOADS};
use gscalar_metrics::json::Json;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits inside the repository")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list in BENCHMARK.json.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let doc = benchmark_json();
    let Some(Json::Arr(items)) = doc.get(section) else {
        panic!("BENCHMARK.json has no {section} list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

fn pairs(list: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    list.iter()
        .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
        .collect()
}

#[test]
fn declared_names_match_benchmark_json() {
    let valid = |name: &str| {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid(name), "metric name {name:?}");
    }
    assert_eq!(pairs(&END_TO_END), declared("end_to_end"));
    assert_eq!(pairs(&PER_LAYER), declared("per_layer"));
    let doc = benchmark_json();
    let Some(Json::Arr(ws)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads list");
    };
    let names: Vec<&str> = ws
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, WORKLOADS);
}

#[test]
fn percentile_is_nearest_rank_and_refuses_a_thin_tail() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0, 0), Ok(50.0));
    assert_eq!(percentile(&xs, 90.0, 10), Ok(90.0));
    assert!(percentile(&xs, 91.0, 10).is_err(), "9 samples beyond p91");
    assert!(
        percentile(&xs[..99], 90.0, 10).is_err(),
        "p90 of 99 keeps 9"
    );
    let shuffled = [3.0, 1.0, 2.0];
    assert_eq!(percentile(&shuffled, 50.0, 0), Ok(2.0));
    assert_eq!(percentile(&shuffled, 100.0, 0), Ok(3.0));
    assert!(percentile(&[], 50.0, 0).is_err());
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let span = |id, parent, start_us: f64, end_us: f64| Span {
        id,
        name: format!("s{id}"),
        parent,
        req: 0,
        start_us,
        end_us,
    };
    // Two overlapping children cover 0.3 s of the 1 s parent.
    let spans = [
        span(1, 0, 0.0, 1e6),
        span(2, 1, 1e5, 3e5),
        span(3, 1, 2e5, 4e5),
    ];
    let t = self_times(&spans);
    let (count, total, own) = t["s1"];
    assert_eq!(count, 1);
    assert!((total - 1.0).abs() < 1e-9);
    assert!((own - 0.7).abs() < 1e-9, "self {own}");
}

/// Runs every workload with `--smoke` and returns each workload's
/// result object from `results.json`.
fn smoke(trace: bool) -> Vec<(String, Json)> {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{trace}"));
    let status = Command::new(env!("CARGO_BIN_EXE_gscalar-benchmark"))
        .args([
            "--smoke",
            "--seed",
            "2",
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--root")
        .arg(repo_root())
        .arg("--out-dir")
        .arg(&out_dir)
        .stdout(Stdio::null())
        .status()
        .expect("the benchmark binary runs");
    assert!(status.success(), "smoke run exited with {status}");
    let text = std::fs::read_to_string(out_dir.join("results.json")).expect("results.json");
    let Ok(Json::Arr(runs)) = Json::parse(&text) else {
        panic!("results.json is not a JSON array");
    };
    runs.into_iter()
        .map(|r| {
            let w = r.get("workload").and_then(Json::as_str).expect("workload");
            if trace {
                for file in ["trace.json", "layers.json"] {
                    let path = out_dir.join(w).join(file);
                    let text =
                        std::fs::read_to_string(&path).expect("traced runs write both files");
                    assert!(Json::parse(&text).is_ok(), "{} parses", path.display());
                }
            }
            (w.to_string(), r.get("result").expect("result").clone())
        })
        .collect()
}

#[test]
fn smoke_runs_are_correct_and_report_every_declared_metric() {
    for (trace, list) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let start = Instant::now();
        let runs = smoke(trace);
        if !trace {
            assert!(
                start.elapsed() < Duration::from_secs(30),
                "untraced smoke took {:?}",
                start.elapsed()
            );
        }
        let names: Vec<&str> = runs.iter().map(|(w, _)| w.as_str()).collect();
        assert_eq!(names, WORKLOADS);
        for (w, r) in &runs {
            assert!(
                matches!(r.get("correct"), Some(Json::Bool(true))),
                "{w}: {r}"
            );
            assert_eq!(r.get("failed").and_then(Json::as_f64), Some(0.0), "{w}");
            assert!(
                r.get("attempted").and_then(Json::as_f64) >= Some(1.0),
                "{w}"
            );
            let emitted: BTreeSet<(String, String)> = r
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(n, m)| {
                    let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                    (n.clone(), unit.to_string())
                })
                .collect();
            assert_eq!(emitted, pairs(list), "{w} (trace {trace})");
            if !trace {
                for (n, m) in r.get("metrics").and_then(Json::as_obj).expect("metrics") {
                    let v = m.get("value").and_then(Json::as_f64).expect("value");
                    assert!(v > 0.0, "{w}: end-to-end {n} = {v}");
                }
            }
        }
    }
}
