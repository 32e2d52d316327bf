//! Figure 8: register-file access distribution for operand values.

use gscalar_core::Arch;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::Scale;

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "fig08_rf_distribution";

/// The figure's columns, in [`gscalar_compress`] histogram order.
const COLS: [&str; 6] = [
    "scalar%", "3-byte%", "2-byte%", "1-byte%", "other%", "diverg%",
];

/// One job per benchmark: a baseline run reduced to the six operand
/// similarity-class percentages.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let runner = gscalar_core::Runner::new(GpuConfig::gtx480());
        let report = sim.run(&runner, w, Arch::Baseline)?;
        let f = report.stats.rf.histogram.fractions();
        let mut out = JobOutput::default();
        for (col, x) in COLS.iter().zip(f) {
            out.metric(*col, 100.0 * x);
        }
        Ok(out)
    })
}

/// Renders the distribution table and suite average from job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Figure 8: RF access distribution (operand value similarity)");
    let fmt = |x: f64| format!("{x:.1}");
    let avg = r.suite_table(rs, NAME, &COLS, fmt);
    r.row("AVG", &avg, fmt);
    r.blank();
    r.note("paper: avg scalar 36%, 3-byte 17%, 2-byte 4%, 1-byte 7%.");
}
