//! Table 3: compressor/decompressor synthesis results and the chip-level
//! overhead arithmetic of Section 5.1.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("tab03_synthesis"))
}
