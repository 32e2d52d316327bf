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

use gscalar_core::Arch;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "abl_future_gpu";

/// The study's columns.
const COLS: [&str; 4] = ["gtx480", "future", "gs-480", "gs-fut"];

fn future_gpu() -> GpuConfig {
    let mut c = GpuConfig::gtx480();
    c.schedulers = 4;
    c.alu_pipes = 4;
    c.operand_collectors = 32;
    c.rf_banks = 32;
    c.regs_per_sm = 64 * 1024;
    c.threads_per_sm = 2048;
    c
}

/// One job per benchmark: scalar-bank serializations per 1k
/// instructions for both architectures on both machine sizes.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let now = GpuConfig::gtx480();
        let fut = future_gpu();
        let mut out = JobOutput::default();
        let mut run = |cfg: &GpuConfig, arch: Arch| {
            sim.run_stats(cfg, arch.config(), w).map(|s| {
                1000.0 * s.pipe.scalar_bank_serializations as f64 / s.instr.warp_instrs as f64
            })
        };
        let cells = [
            run(&now, Arch::AluScalar)?,
            run(&fut, Arch::AluScalar)?,
            run(&now, Arch::GScalar)?,
            run(&fut, Arch::GScalar)?,
        ];
        for (col, v) in COLS.iter().zip(cells) {
            out.metric(*col, v);
        }
        Ok(out)
    })
}

/// Renders the scalability study from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let now = GpuConfig::gtx480();
    r.config(&now);
    r.title("Extension: scalar-bank serializations per 1k instructions");
    let fmt = |x: f64| format!("{x:.1}");
    let avg = r.suite_table(rs, NAME, &COLS, fmt);
    r.row("AVG", &avg, fmt);
    r.blank();
    r.note("with more schedulers and pipelines, pressure on the single scalar");
    r.note("bank grows; G-Scalar's 16 (or 32) per-bank BVR arrays never");
    r.note("serialize (Section 4.1's scalability argument).");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn future_gpu_is_a_valid_config() {
        assert_eq!(future_gpu().validate(), Ok(()));
    }
}
