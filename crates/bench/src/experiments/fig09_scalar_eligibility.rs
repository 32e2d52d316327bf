//! Figure 9: percentage of instructions eligible for scalar execution,
//! cumulative over the paper's categories.

use gscalar_core::Arch;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "fig09_scalar_eligibility";

/// Cumulative eligibility columns.
const COLS: [&str; 4] = ["ALU%", "all%", "half%", "diverg%"];

/// One job per benchmark: a baseline run reduced to the four
/// cumulative eligibility percentages.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let runner = gscalar_core::Runner::new(GpuConfig::gtx480());
        let report = sim.run(&runner, w, Arch::Baseline)?;
        let i = &report.stats.instr;
        let wi = i.warp_instrs as f64;
        let alu = 100.0 * i.eligible_alu as f64 / wi;
        let all = alu + 100.0 * (i.eligible_sfu + i.eligible_mem) as f64 / wi;
        let half = all + 100.0 * i.eligible_half as f64 / wi;
        let div = half + 100.0 * i.eligible_divergent as f64 / wi;
        let mut out = JobOutput::default();
        for (col, v) in COLS.iter().zip([alu, all, half, div]) {
            out.metric(*col, v);
        }
        Ok(out)
    })
}

/// Renders the cumulative eligibility table from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Figure 9: instructions eligible for scalar execution (cumulative)");
    let fmt = |x: f64| format!("{x:.1}");
    let avg = r.suite_table(rs, NAME, &COLS, fmt);
    r.row("AVG", &avg, fmt);
    r.blank();
    r.note("paper: ALU scalar 22%; +7% SFU/memory; +2% half; +9% divergent = 40%.");
}
