//! Per-instruction profiler: runs a kernel with PC-level attribution
//! enabled and writes annotated disassembly plus hotspot and divergence
//! reports.
//!
//! ```sh
//! # Profile the built-in divergent example kernel (Figure 7b shape):
//! cargo run --release --bin profile
//!
//! # Profile a suite workload by paper abbreviation:
//! cargo run --release --bin profile -- BP
//!
//! # Write outputs into a directory and emit a JSON manifest:
//! cargo run --release --bin profile -- DIV --out out/ --json out/profile.json
//! ```
//!
//! Outputs (prefix `profile_<name>`, in `--out` or the current
//! directory):
//!
//! - `*_annotated.txt` — every disassembly line prefixed with issue
//!   share, stall share, average active lanes, dominant
//!   scalar-eligibility class and register-write compression ratio.
//! - `*_report.md` — top-N hotspots by cost (issues + attributed
//!   stalls) and the per-branch divergence/reconvergence table.
//!
//! With `--json [path]` the full per-PC table is flattened into a
//! schema-versioned manifest (`profile/k<id>/pc<PC>/…` keys), readable
//! by the `report` aggregator.
//!
//! The binary exits non-zero when the profile fails its reconciliation
//! invariants against the aggregate statistics — it doubles as the CI
//! profiling smoke test.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use gscalar_bench::Report;
use gscalar_core::{Arch, Runner};
use gscalar_profile::{annotate, branch_markdown, hotspot_markdown};
use gscalar_sim::GpuConfig;
use gscalar_workloads::{by_abbr, divergent_example, Scale, ABBRS};

/// Hotspot rows in the markdown report.
const TOP_N: usize = 10;

fn main() -> ExitCode {
    let mut abbr: Option<String> = None;
    let mut out_dir = PathBuf::from(".");
    let mut json = None;
    let mut args = env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => {
                let Some(dir) = args.next() else {
                    eprintln!("--out requires a directory argument");
                    return ExitCode::FAILURE;
                };
                out_dir = PathBuf::from(dir);
            }
            "--json" => {
                // The path is optional, and a workload name is never
                // taken as one: `--json BP` profiles BP.
                let is_path =
                    |v: &String| !v.starts_with("--") && v != "DIV" && !ABBRS.contains(&v.as_str());
                json = Some(match args.next_if(is_path) {
                    Some(path) => PathBuf::from(path),
                    None => PathBuf::from("results/profile.json"),
                });
            }
            other if !other.starts_with("--") => abbr = Some(other.to_string()),
            other => {
                eprintln!("unknown flag: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let workload = match abbr.as_deref() {
        None | Some("DIV") => divergent_example(),
        Some(a) => match by_abbr(a, Scale::Test) {
            Some(w) => w,
            None => {
                eprintln!("unknown benchmark abbreviation: {a} (try BP, LBM, MM, ... or DIV)");
                return ExitCode::FAILURE;
            }
        },
    };

    let cfg = GpuConfig::test_small();
    let runner = Runner::new(cfg.clone());
    let run = runner.run_profiled(&workload, Arch::GScalar);
    let stats = &run.report.stats;
    let profile = &run.profile;

    // Reconciliation gate: the per-PC attribution must account for
    // every issue slot and every idle scheduler cycle, exactly.
    let executed: Vec<usize> = profile.executed_pcs().collect();
    let mut ok = true;
    if executed.is_empty() {
        eprintln!("profile error: no executed PCs recorded");
        ok = false;
    }
    if profile.total_issues() != stats.pipe.issued {
        eprintln!(
            "profile error: per-PC issues {} != issued {}",
            profile.total_issues(),
            stats.pipe.issued
        );
        ok = false;
    }
    if profile.total_stall_cycles() != stats.pipe.scheduler_idle_cycles {
        eprintln!(
            "profile error: per-PC stalls {} != scheduler idle cycles {}",
            profile.total_stall_cycles(),
            stats.pipe.scheduler_idle_cycles
        );
        ok = false;
    }

    let annotated = annotate(&workload.kernel, profile);
    let md = format!(
        "{}\n{}",
        hotspot_markdown(&workload.kernel, profile, TOP_N),
        branch_markdown(&workload.kernel, profile)
    );

    fs::create_dir_all(&out_dir).expect("create output directory");
    let txt_path = out_dir.join(format!("profile_{}_annotated.txt", workload.name));
    let md_path = out_dir.join(format!("profile_{}_report.md", workload.name));
    fs::write(&txt_path, &annotated).expect("write annotated disassembly");
    fs::write(&md_path, &md).expect("write markdown report");

    println!("{annotated}");
    println!("{md}");
    println!(
        "workload {:<12} arch {:<10} cycles {:>8}  executed PCs {:>3}/{:<3}  issues {:>8}",
        workload.name,
        run.report.arch.label(),
        stats.cycles,
        executed.len(),
        workload.kernel.len(),
        stats.pipe.issued,
    );
    println!("wrote {}, {}", txt_path.display(), md_path.display());

    let mut r = Report::to_writer("profile", json, Box::new(std::io::stdout()));
    r.config(&cfg);
    r.record_run(&workload.abbr, &run.report);
    for (path, v) in run.registry.flatten() {
        r.metric(&path, v);
    }
    r.finish();

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
