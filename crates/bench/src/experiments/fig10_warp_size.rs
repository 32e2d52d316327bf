//! Figure 10: instructions eligible for half-(quarter-)warp scalar
//! execution for warp sizes 32 and 64 (16-thread checking granularity).

use gscalar_core::{Arch, Runner};
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "fig10_warp_size";

/// One job per benchmark: two baseline runs (warp 32 and warp 64),
/// reduced to the half-scalar eligibility percentage at each size.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let cfg32 = GpuConfig::gtx480();
        let mut cfg64 = GpuConfig::gtx480();
        cfg64.warp_size = 64;
        let r32 = Runner::new(cfg32);
        let r64 = Runner::new(cfg64);
        let s32 = sim.run(&r32, w, Arch::Baseline)?.stats;
        let s64 = sim.run(&r64, w, Arch::Baseline)?.stats;
        let mut out = JobOutput::default();
        out.metric(
            "warp32%",
            100.0 * s32.instr.eligible_half as f64 / s32.instr.warp_instrs as f64,
        );
        out.metric(
            "warp64%",
            100.0 * s64.instr.eligible_half as f64 / s64.instr.warp_instrs as f64,
        );
        Ok(out)
    })
}

/// Renders the warp-size comparison from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg32 = GpuConfig::gtx480();
    r.config(&cfg32);
    r.title("Figure 10: half-scalar eligibility vs warp size");
    let fmt = |x: f64| format!("{x:.1}");
    let avg = r.suite_table(rs, NAME, &["warp32%", "warp64%"], fmt);
    r.row("AVG", &avg, fmt);
    r.blank();
    r.note("paper: average half-scalar ~2% at warp 32, rising to ~5% at warp 64");
    r.note("(full-warp-scalar instructions of two merged 32-thread warps become");
    r.note("half-scalar at warp 64).");
}
