//! Figure 11: normalized GPU power efficiency (IPC/W) and the IPC
//! impact of the +3-cycle compression latency.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(Some("fig11_power_efficiency"))
}
