//! Table 1: simulator configuration.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("tab01_config"))
}
