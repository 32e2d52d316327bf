//! Quick calibration probe: per-benchmark characteristics vs paper
//! targets, with full per-run detail via [`crate::run_metrics`].

use gscalar_core::Arch;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::{Scale, ABBRS};

use crate::{run_metrics, Report};

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "probe";

/// One job per benchmark: a baseline run recorded as the full
/// [`crate::run_metrics`] set (keys already prefixed with the abbr, as
/// `Report::record_run` would write them).
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let runner = gscalar_core::Runner::new(GpuConfig::gtx480());
        let report = sim.run(&runner, w, Arch::Baseline)?;
        Ok(JobOutput {
            metrics: run_metrics(&w.abbr, &report),
            ..JobOutput::default()
        })
    })
}

/// Renders the probe table from job metrics; the job manifests carry
/// the exact `record_run` metric set, so they are copied through
/// verbatim. The t(s) column reports each job's host wall time (0.00
/// for results resumed from disk or under deterministic output).
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.note(&format!(
        "{:<6} {:>9} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6} {:>8} {:>6}",
        "bench",
        "winstr",
        "div%",
        "dscal%",
        "alu%",
        "sfu%",
        "mem%",
        "half%",
        "tot%",
        "cycles",
        "t(s)"
    ));
    for abbr in ABBRS {
        let jr = rs.get(NAME, abbr).expect("job result present");
        let g = |k: &str| rs.metric(NAME, abbr, &format!("{}/{}", abbr, k));
        let wi = g("instr/warp");
        let eligible_total = g("scalar/eligible_alu")
            + g("scalar/eligible_sfu")
            + g("scalar/eligible_mem")
            + g("scalar/eligible_half")
            + g("scalar/eligible_divergent");
        r.note(&format!(
            "{:<6} {:>9} {:>6.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>8} {:>6.2}",
            abbr,
            wi,
            100.0 * g("instr/divergent") / wi,
            100.0 * g("scalar/eligible_divergent") / wi,
            100.0 * g("scalar/eligible_alu") / wi,
            100.0 * g("scalar/eligible_sfu") / wi,
            100.0 * g("scalar/eligible_mem") / wi,
            100.0 * g("scalar/eligible_half") / wi,
            100.0 * eligible_total / wi,
            g("cycles"),
            if r.deterministic() { 0.0 } else { jr.wall_s }
        ));
        for (k, v) in &jr.metrics {
            r.metric(k, *v);
        }
    }
}
