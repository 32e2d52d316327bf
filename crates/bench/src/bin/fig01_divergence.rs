//! Figure 1: percentage of divergent instructions and divergent scalar
//! instructions in total instructions, per benchmark — plus the
//! per-branch attribution of that divergence from the PC-level
//! profiler: for every benchmark, which static branch diverges, how
//! often, and what share of the benchmark's divergent instructions its
//! paths account for.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("fig01_divergence"))
}
