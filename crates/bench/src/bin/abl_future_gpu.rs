//! Extension study: scalar-bank scalability on a scaled-up "future GPU"
//! (Section 4.1).
//!
//! The paper argues that a single dedicated scalar bank does not scale:
//! "future GPUs also tend to have more hardware resources, such as
//! larger register file with more banks and more SIMT execution
//! pipelines. Thus, relying on only a single bank for scalar values may
//! not be a scalable approach." This study doubles the SM's front-end
//! and execution resources and compares the prior-work design's
//! scalar-bank serialization against G-Scalar's per-bank BVR arrays.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("abl_future_gpu"))
}
