//! Quick calibration probe: per-benchmark characteristics vs paper targets.
//!
//! Supports `--scale test` for a fast CI smoke run, `--threads N` for
//! parallel execution, and `--json [path]` for the machine-readable
//! manifest (full per-run detail, `record_run`-compatible keys).

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("probe"))
}
