//! Ablation: warp scheduler policy (GTO vs loose round-robin).
//!
//! Section 4.1's burst-of-scalar-instructions observation assumes warps
//! run at roughly the same pace; LRR strengthens that effect, GTO
//! weakens it. This ablation measures both baseline performance and the
//! scalar-bank serialization pressure of the prior-work design.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("abl_scheduler"))
}
