//! Ablation: warp scheduler policy (GTO vs loose round-robin).
//!
//! Section 4.1's burst-of-scalar-instructions observation assumes warps
//! run at roughly the same pace; LRR strengthens that effect, GTO
//! weakens it. This ablation measures both baseline performance and the
//! scalar-bank serialization pressure of the prior-work design.

use gscalar_core::Arch;
use gscalar_sim::scheduler::SchedPolicy;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "abl_scheduler";

/// Integer-aware cell format shared by job values.
fn fmt(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e9 {
        format!("{x:.0}")
    } else {
        format!("{x:.1}")
    }
}

/// One job per benchmark: the ALU-scalar architecture under GTO and
/// LRR scheduling.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let mut run = |policy: SchedPolicy| {
            let mut cfg = GpuConfig::gtx480();
            cfg.sched = policy;
            sim.run_stats(&cfg, Arch::AluScalar.config(), w)
        };
        let gto = run(SchedPolicy::Gto)?;
        let lrr = run(SchedPolicy::Lrr)?;
        let mut out = JobOutput::default();
        out.metric("gto-IPC", gto.ipc());
        out.metric("lrr-IPC", lrr.ipc());
        out.metric("gto-ser", gto.pipe.scalar_bank_serializations as f64);
        out.metric("lrr-ser", lrr.pipe.scalar_bank_serializations as f64);
        Ok(out)
    })
}

/// Renders the scheduler ablation from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    r.config(&GpuConfig::gtx480());
    r.title("Ablation: GTO vs LRR (ALU-scalar architecture)");
    r.suite_table(rs, NAME, &["gto-IPC", "lrr-IPC", "gto-ser", "lrr-ser"], fmt);
    r.blank();
    r.note("the single scalar bank serializes under both policies; warps running");
    r.note("in lockstep (LRR) tend to burst scalar reads harder (Section 4.1).");
}
