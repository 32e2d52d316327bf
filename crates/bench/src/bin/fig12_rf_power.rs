//! Figure 12: normalized register-file dynamic power under the four
//! register-file designs, plus average compression ratios.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("fig12_rf_power"))
}
