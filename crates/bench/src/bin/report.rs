//! Run-report tooling: aggregate manifests into a dashboard, or compare
//! two manifest sets as a regression gate.
//!
//! ```text
//! report aggregate <dir|file> [--merge <out.json>]
//! report compare <baseline dir|file> <current dir|file>
//!        [--threshold <pct>] [--allow-missing] [--max-rows <n>]
//!        [--gate-min <path-prefix>=<pct>]... [--gate-exact <metric-path>]...
//! ```
//!
//! `aggregate` prints a markdown dashboard of every manifest and can
//! write a single merged manifest (the committed `BENCH_*.json` format).
//! `compare` diffs current against baseline metric-by-metric and exits
//! non-zero when any delta breaches the threshold (default 2%), which is
//! what CI runs as the perf/accuracy smoke gate. `--gate-min` installs a
//! one-sided floor for a higher-is-better metric (CI uses it to fail on
//! throughput regressions while letting improvements through); it
//! overrides the built-in `host/*` informational exemption.
//! `--gate-exact` fails on any change of one metric, in either
//! direction, and overrides every other rule: CI gates host-independent
//! counts (phase calls, simulated cycles) with it.

use std::path::Path;
use std::process::ExitCode;

use gscalar_bench::load_manifests;
use gscalar_metrics::{aggregate_markdown, compare, dropped_event_warnings, CompareConfig};

fn usage() -> ExitCode {
    eprintln!("usage: report aggregate <dir|file> [--merge <out.json>]");
    eprintln!("       report compare <baseline> <current> [--threshold <pct>]");
    eprintln!("              [--allow-missing] [--max-rows <n>]");
    eprintln!("              [--gate-min <path-prefix>=<pct>]...");
    eprintln!("              [--gate-exact <metric-path>]...");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("aggregate") => aggregate_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => usage(),
    }
}

fn aggregate_cmd(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let mut merge = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--merge" => match it.next() {
                Some(out) => merge = Some(out),
                None => {
                    eprintln!("report: --merge expects a value");
                    return usage();
                }
            },
            other => {
                eprintln!("report: unknown argument {other}");
                return usage();
            }
        }
    }
    let manifests = match load_manifests(Path::new(path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", aggregate_markdown(&manifests));
    for w in dropped_event_warnings(&manifests) {
        eprintln!("report: {w}");
    }
    if let Some(out) = merge {
        let merged = gscalar_metrics::compare::merge_manifests(&manifests, "BENCH_baseline");
        if let Err(e) = std::fs::write(out, merged.to_json()) {
            eprintln!("error writing {out}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("merged {} manifests into {out}", manifests.len());
    }
    ExitCode::SUCCESS
}

/// Parses a `--gate-min` operand of the form `<path-prefix>=<pct>`.
fn parse_gate_min(v: &str) -> Option<(String, f64)> {
    let (path, pct) = v.rsplit_once('=')?;
    let pct: f64 = pct.parse().ok()?;
    (!path.is_empty() && pct >= 0.0).then(|| (path.to_string(), pct))
}

/// `compare`'s operands: the two manifest sets, the gate configuration
/// and the row limit of the rendered summary.
#[derive(Debug)]
struct CompareArgs<'a> {
    baseline: &'a str,
    current: &'a str,
    cfg: CompareConfig,
    max_rows: usize,
}

/// Parses `compare`'s arguments; `None` on a missing, malformed or
/// unknown one (reported on stderr).
fn parse_compare(args: &[String]) -> Option<CompareArgs<'_>> {
    let (Some(baseline), Some(current)) = (args.first(), args.get(1)) else {
        return None;
    };
    let mut cfg = CompareConfig::default();
    let mut max_rows = 20usize;
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => cfg.default_threshold_pct = it.next()?.parse().ok()?,
            "--allow-missing" => cfg.fail_on_missing = false,
            "--max-rows" => max_rows = it.next()?.parse().ok()?,
            "--gate-min" => cfg.min_gates.push(parse_gate_min(it.next()?)?),
            "--gate-exact" => match it.next() {
                Some(path) if !path.is_empty() && !path.starts_with("--") => {
                    cfg.exact_gates.push(path.clone());
                }
                _ => return None,
            },
            other => {
                eprintln!("report: unknown argument {other}");
                return None;
            }
        }
    }
    Some(CompareArgs {
        baseline,
        current,
        cfg,
        max_rows,
    })
}

fn compare_cmd(args: &[String]) -> ExitCode {
    let Some(CompareArgs {
        baseline: base_path,
        current: cur_path,
        cfg,
        max_rows,
    }) = parse_compare(args)
    else {
        return usage();
    };
    let load = |p: &str| match load_manifests(Path::new(p)) {
        Ok(m) => Some(m),
        Err(e) => {
            eprintln!("error: {e}");
            None
        }
    };
    let (Some(baseline), Some(current)) = (load(base_path), load(cur_path)) else {
        return ExitCode::FAILURE;
    };
    let report = compare(&baseline, &current, &cfg);
    print!("{}", report.render(max_rows));
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn compare_parses_every_gate() {
        let a = args(&[
            "base",
            "cur",
            "--gate-min",
            "host/serial/speed_vs_reference=10",
            "--gate-exact",
            "host/phase/scheduler/calls",
            "--gate-exact",
            "host/serial/total_cycles",
            "--max-rows",
            "5",
        ]);
        let c = parse_compare(&a).expect("valid");
        assert_eq!((c.baseline, c.current, c.max_rows), ("base", "cur", 5));
        assert_eq!(
            c.cfg.min_gates,
            [("host/serial/speed_vs_reference".to_string(), 10.0)]
        );
        assert_eq!(
            c.cfg.exact_gates,
            ["host/phase/scheduler/calls", "host/serial/total_cycles"]
        );
    }

    #[test]
    fn compare_rejects_a_gate_without_its_operand() {
        for bad in [
            &["b", "c", "--gate-exact"][..],
            &["b", "c", "--gate-exact", "--allow-missing"],
            &["b", "c", "--gate-exact", ""],
            &["b", "c", "--gate-min", "host/x"],
            &["b", "c", "--threshold", "two"],
            &["b", "c", "--gate-everything"],
            &["b"],
        ] {
            assert!(parse_compare(&args(bad)).is_none(), "{bad:?}");
        }
    }
}
