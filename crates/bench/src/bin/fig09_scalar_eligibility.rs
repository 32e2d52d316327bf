//! Figure 9: percentage of instructions eligible for scalar execution,
//! cumulative over the paper's categories.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("fig09_scalar_eligibility"))
}
