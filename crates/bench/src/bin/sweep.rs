//! Reproduce every figure and table of the paper in one command.
//!
//! ```text
//! sweep --all --threads 4 --out results/
//! sweep fig11_power_efficiency probe --scale test
//! sweep --list
//! ```
//!
//! The sweep runs the (experiment × benchmark) job grid on a shared-
//! cursor job executor, isolates every job (panic containment,
//! optional `--budget` cycle cap, bounded retry), and persists each
//! completed job as a schema-v1 manifest under `<out>/jobs/`. Rerunning
//! over the same `--out` directory resumes: completed jobs are loaded
//! instead of re-executed (`--fresh` discards them). `--cache DIR`
//! additionally consults a content-addressed result cache shared
//! across out dirs and with the `serve` job server — jobs whose keyed
//! manifest is cached are re-persisted instead of simulated.
//! Per-experiment tables land in `<out>/<name>.txt` + deterministic
//! `<out>/<name>.json`, byte-identical regardless of thread count or
//! schedule; `report aggregate <out>` builds the dashboard and merged
//! manifest from them. Every figure/table binary is this same front
//! end with its own name first.

use std::process::ExitCode;

fn main() -> ExitCode {
    gscalar_bench::experiments::cli_main(None)
}
