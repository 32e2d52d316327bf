//! Ablation: half-warp scalar execution and half-register compression.
//!
//! Section 4.3 prices the second set of BVR/EBR registers at a register
//! file area increase from 3% to 7%. This ablation shows what the
//! feature buys: the efficiency delta of G-Scalar with and without
//! half-warp scalar execution.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("abl_half"))
}
