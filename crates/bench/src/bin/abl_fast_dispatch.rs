//! Extension study: one-cycle scalar dispatch (Section 6).
//!
//! The evaluated G-Scalar design clock-gates lanes but dispatches
//! scalar instructions over the normal multi-cycle warp occupancy
//! (Figure 11's IPC never exceeds the baseline). Section 6 notes that a
//! scalar instruction *could* retire its dispatch port in one cycle —
//! e.g. an 8-cycle SFU dispatch becomes 1. This study measures that
//! opportunity.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("abl_fast_dispatch"))
}
