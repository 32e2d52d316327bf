//! Cycle-level trace capture: runs a kernel with tracing enabled and
//! writes every exporter's output plus a stall-breakdown report.
//!
//! ```sh
//! # Trace the built-in divergent example kernel (Figure 7b shape):
//! cargo run --release --bin trace
//!
//! # Trace a suite workload by paper abbreviation:
//! cargo run --release --bin trace -- BP
//!
//! # Also write a run manifest (records `trace/dropped_events`):
//! cargo run --release --bin trace -- BP --json results/trace.json
//! ```
//!
//! Outputs (in the current directory, prefix `trace_<name>`):
//!
//! - `*.json` — Chrome trace-event JSON; open in Perfetto or
//!   `chrome://tracing`. One process per SM, one track per warp
//!   (execution spans), per scheduler (issue/stall instants), plus a
//!   memory-transaction track and counter tracks for interval metrics.
//! - `*.csv` — per-SM interval time series (IPC, scalar rate,
//!   compression ratio, RF activations).
//! - `*_waterfall.txt` — per-warp issue waterfall.
//!
//! The stall report printed at the end checks the taxonomy invariant:
//! the per-reason counts must sum exactly to `scheduler_idle_cycles`.
//!
//! When the event ring overflows (capacity-bounded; oldest records are
//! evicted) the drop count lands in the manifest as
//! `trace/dropped_events` and a warning goes to stderr — `report
//! aggregate` surfaces the same warning over a whole results set.

use std::env;
use std::fs;
use std::process::ExitCode;

use gscalar_bench::{experiments::CliOptions, Report};
use gscalar_core::{Arch, Instruments, Runner};
use gscalar_sim::GpuConfig;
use gscalar_trace::export::{
    chrome_json, csv_timeseries, mem_level_counts, stall_report, waterfall,
};
use gscalar_trace::{EventBuf, Tracer};
use gscalar_workloads::{by_abbr, divergent_example, Scale};

/// Event-buffer capacity: large enough to hold every event of the
/// default kernel; suite workloads keep the most recent window.
const CAPACITY: usize = 1 << 20;

/// Interval-metric snapshot period in cycles.
const SNAPSHOT_INTERVAL: u64 = 64;

fn main() -> ExitCode {
    // An abbreviation, if any, comes first; the shared flags follow.
    let mut args = env::args().skip(1).peekable();
    let abbr = args.next_if(|a| !a.starts_with("--"));
    let opts = match CliOptions::parse(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("trace: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = match abbr.as_deref() {
        None | Some("DIV") => divergent_example(),
        // Tracing always uses test scale: the ring holds a bounded
        // window and full-scale traces would mostly be dropped anyway.
        Some(abbr) => match by_abbr(abbr, Scale::Test) {
            Some(w) => w,
            None => {
                eprintln!("unknown benchmark abbreviation: {abbr} (try BP, LBM, MM, ... or DIV)");
                return ExitCode::FAILURE;
            }
        },
    };

    let runner = Runner::new(GpuConfig::test_small());
    let mut buf = EventBuf::new(CAPACITY);
    let mut ins = Instruments {
        tracer: Tracer::new(&mut buf),
        sample_interval: SNAPSHOT_INTERVAL,
        ..Instruments::default()
    };
    let stats = runner
        .run_with(&workload, Arch::GScalar.config(), &mut ins)
        .expect("no budget set");
    let report = runner.report(Arch::GScalar, stats);
    let stats = &report.stats;

    // The drop count must be read before the ring is consumed; it is
    // the only signal that the exports below are missing records.
    let dropped = buf.dropped();
    let records = buf.into_records();
    let prefix = format!("trace_{}", workload.name);
    let json_path = format!("{prefix}.json");
    let csv_path = format!("{prefix}.csv");
    let wf_path = format!("{prefix}_waterfall.txt");
    fs::write(&json_path, chrome_json(&records)).expect("write chrome trace");
    fs::write(&csv_path, csv_timeseries(&records)).expect("write csv");
    fs::write(&wf_path, waterfall(&records)).expect("write waterfall");

    println!(
        "workload {:<12} arch {:<10} cycles {:>8}  warp instrs {:>8}  events {}",
        workload.name,
        report.arch.label(),
        stats.cycles,
        stats.instr.warp_instrs,
        records.len(),
    );
    println!("wrote {json_path}, {csv_path}, {wf_path}\n");

    println!("memory transactions by level:");
    for (level, n) in mem_level_counts(&records) {
        println!("    {:<12} {n:>8}", level.label());
    }
    println!();

    let rep = stall_report(
        &stats.pipe.stalls,
        stats.pipe.scheduler_idle_cycles,
        stats.pipe.issued,
    );
    println!("{rep}");

    if dropped > 0 {
        eprintln!(
            "trace: ring dropped {dropped} event(s); exported traces are \
             truncated (oldest records evicted; capacity {CAPACITY})"
        );
    }
    let mut manifest = Report::from_options("trace", &opts);
    manifest.record_run(&workload.abbr, &report);
    manifest.metric("trace/dropped_events", dropped as f64);
    manifest.metric("trace/events", records.len() as f64);
    manifest.finish();

    if stats.pipe.stalls.total() == stats.pipe.scheduler_idle_cycles {
        ExitCode::SUCCESS
    } else {
        eprintln!("stall taxonomy invariant violated");
        ExitCode::FAILURE
    }
}
