//! Table 2: the benchmark suite.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("tab02_benchmarks"))
}
