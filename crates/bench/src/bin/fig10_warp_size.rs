//! Figure 10: instructions eligible for half-(quarter-)warp scalar
//! execution for warp sizes 32 and 64 (16-thread checking granularity).

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("fig10_warp_size"))
}
