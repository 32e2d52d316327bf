//! Ablation: sensitivity to the compression pipeline depth.
//!
//! The paper adds 3 cycles (compress, decompress, EBR/BVR read) and
//! reports a 1.7% mean IPC loss (Section 5.4). This sweep varies the
//! added depth to show how much headroom the latency-hiding gives.

use gscalar_core::Arch;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "abl_latency";

/// The swept extra pipeline depths.
const DEPTHS: [u64; 5] = [0, 1, 3, 6, 12];

fn col(d: u64) -> String {
    format!("+{d}cyc")
}

/// One job per benchmark: G-Scalar at each extra latency, IPC
/// normalized to the +0 run.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let cfg = GpuConfig::gtx480();
        let mut out = JobOutput::default();
        let mut base = 0.0;
        for d in DEPTHS {
            let mut arch = Arch::GScalar.config();
            arch.extra_latency = d;
            let s = sim.run_stats(&cfg, arch, w)?;
            if d == 0 {
                base = s.ipc();
            }
            out.metric(col(d), s.ipc() / base);
        }
        Ok(out)
    })
}

/// Renders the latency-sensitivity table from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Ablation: IPC vs extra pipeline latency (normalized to +0)");
    let head: Vec<String> = DEPTHS.iter().map(|&d| col(d)).collect();
    let head_refs: Vec<&str> = head.iter().map(String::as_str).collect();
    let fmt = |x: f64| format!("{x:.3}");
    let avg = r.suite_table(rs, NAME, &head_refs, fmt);
    r.row("AVG", &avg, fmt);
    r.blank();
    r.note("paper: +3 cycles costs 1.7% IPC on average (Section 5.4).");
}
