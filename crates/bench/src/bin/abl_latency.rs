//! Ablation: sensitivity to the compression pipeline depth.
//!
//! The paper adds 3 cycles (compress, decompress, EBR/BVR read) and
//! reports a 1.7% mean IPC loss (Section 5.4). This sweep varies the
//! added depth to show how much headroom the latency-hiding gives.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("abl_latency"))
}
