//! Figure 8: register-file access distribution for operand values.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("fig08_rf_distribution"))
}
