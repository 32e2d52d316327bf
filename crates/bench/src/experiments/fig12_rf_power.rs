//! Figure 12: normalized register-file dynamic power under the four
//! register-file designs, plus average compression ratios.

use gscalar_core::Arch;
use gscalar_power::{rf_power_normalized, RfScheme};
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "fig12_rf_power";

/// The figure's columns.
const COLS: [&str; 5] = ["scalar-only", "W-C", "ours", "ratio", "bdi-ratio"];

/// One job per benchmark: a G-Scalar run priced under every RF scheme
/// (normalized to the baseline scheme) plus a baseline run for the
/// compression ratios.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let runner = gscalar_core::Runner::new(GpuConfig::gtx480());
        let gs = sim.run(&runner, w, Arch::GScalar)?;
        let norm = |s: RfScheme| rf_power_normalized(&gs.stats, s, runner.energy());
        let report = sim.run(&runner, w, Arch::Baseline)?;
        let mut out = JobOutput::default();
        out.metric("scalar-only", norm(RfScheme::ScalarRf));
        out.metric("W-C", norm(RfScheme::WarpedCompression));
        out.metric("ours", norm(RfScheme::ByteWise));
        out.metric("ratio", report.stats.rf.ours_ratio());
        out.metric("bdi-ratio", report.stats.rf.bdi_ratio());
        Ok(out)
    })
}

/// Renders the RF power table from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Figure 12: normalized RF dynamic power (baseline = 1.0)");
    let fmt = |x: f64| format!("{x:.3}");
    let avg = r.suite_table(rs, NAME, &COLS, fmt);
    r.row("AVG", &avg, fmt);
    r.blank();
    r.note("paper: scalar RF 63% of baseline, ours 46% (i.e. -54%); ours beats");
    r.note("W-C slightly; compression ratio ours 2.17 vs BDI 2.13.");
}
