//! Extension study: compiler-assisted decompress-move elision
//! (Section 3.3).
//!
//! The hardware-only scheme inserts a register-to-register move before
//! every divergent partial write to a compressed register (~2% dynamic
//! instructions per prior work). The paper notes a compiler can prove
//! many destinations dead and skip the move; this study measures how
//! many moves our liveness analysis elides.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("abl_compiler_moves"))
}
