//! Extension study: 64-bit address computation (Section 5.3 prose).
//!
//! "If the addresses are 64-bit, we can have more bytes with the same
//! value and thus more power reduction." This study compares the
//! uniform-byte-prefix fraction of coalesced warp address streams when
//! computed at 32-bit vs 64-bit width.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("abl_addr64"))
}
