//! Cycle-accounting dashboard: per-benchmark CPI stacks, critical-path
//! attribution, and what-if projections validated by idealized re-runs.
//!
//! Supports `--scale test` for a fast CI smoke run, `--threads N` for
//! parallel execution, and `--json [path]` for the machine-readable
//! manifest. Exits nonzero when any CPI stack fails reconciliation.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("bottleneck"))
}
