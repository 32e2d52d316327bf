//! Extension study: one-cycle scalar dispatch (Section 6).
//!
//! The evaluated G-Scalar design clock-gates lanes but dispatches
//! scalar instructions over the normal multi-cycle warp occupancy
//! (Figure 11's IPC never exceeds the baseline). Section 6 notes that a
//! scalar instruction *could* retire its dispatch port in one cycle —
//! e.g. an 8-cycle SFU dispatch becomes 1. This study measures that
//! opportunity.

use gscalar_core::Arch;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "abl_fast_dispatch";

/// One job per benchmark: baseline, G-Scalar, and G-Scalar with
/// one-cycle scalar dispatch, reduced to baseline-normalized IPC.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let cfg = GpuConfig::gtx480();
        let mut run = |fast: bool, arch: Arch| {
            let mut a = arch.config();
            a.scalar_fast_dispatch = fast;
            sim.run_stats(&cfg, a, w)
        };
        let base = run(false, Arch::Baseline)?.ipc();
        let gs = run(false, Arch::GScalar)?.ipc() / base;
        let fast = run(true, Arch::GScalar)?.ipc() / base;
        let mut out = JobOutput::default();
        out.metric("G-Scalar", gs);
        out.metric("fast-disp", fast);
        out.metric("speedup%", 100.0 * (fast / gs - 1.0));
        Ok(out)
    })
}

/// Renders the fast-dispatch study from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Extension: scalar fast dispatch (IPC normalized to baseline)");
    let avg = r.suite_table(rs, NAME, &["G-Scalar", "fast-disp", "speedup%"], |x| {
        format!("{x:.3}")
    })[2];
    r.row_text("AVG", &["".into(), "".into(), format!("{avg:+.1}")]);
    r.metric("AVG/speedup%", avg);
    r.blank();
    r.note("SFU-heavy benchmarks benefit most: a scalar special-function");
    r.note("instruction frees the 4-lane SFU port after one cycle instead");
    r.note("of eight (Section 6's Fermi/GCN observation).");
}
