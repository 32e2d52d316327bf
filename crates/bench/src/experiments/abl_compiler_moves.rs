//! Extension study: compiler-assisted decompress-move elision
//! (Section 3.3).
//!
//! The hardware-only scheme inserts a register-to-register move before
//! every divergent partial write to a compressed register (~2% dynamic
//! instructions per prior work). The paper notes a compiler can prove
//! many destinations dead and skip the move; this study measures how
//! many moves our liveness analysis elides.

use gscalar_core::Arch;
use gscalar_sim::GpuConfig;
use gscalar_sweep::{JobOutput, JobSpec, ResultSet};
use gscalar_workloads::{Scale, ABBRS};

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "abl_compiler_moves";

/// Integer-aware cell format shared by job values.
fn fmt(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e9 {
        format!("{x:.0}")
    } else {
        format!("{x:.2}")
    }
}

/// One job per benchmark: G-Scalar with hardware-only vs
/// compiler-assisted decompress moves.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let cfg = GpuConfig::gtx480();
        let mut run = |compiler: bool| {
            let mut arch = Arch::GScalar.config();
            arch.compiler_assisted_moves = compiler;
            sim.run_stats(&cfg, arch, w)
        };
        let hw = run(false)?;
        let cc = run(true)?;
        let mut out = JobOutput::default();
        out.metric("hw-moves", hw.instr.decompress_moves as f64);
        out.metric("cc-moves", cc.instr.decompress_moves as f64);
        out.metric("elided", cc.instr.decompress_moves_elided as f64);
        out.metric(
            "hw-ovh%",
            100.0 * hw.instr.decompress_moves as f64 / hw.instr.warp_instrs as f64,
        );
        out.metric(
            "cc-ovh%",
            100.0 * cc.instr.decompress_moves as f64 / cc.instr.warp_instrs as f64,
        );
        Ok(out)
    })
}

/// Renders the elision study; suite totals are summed from the
/// per-benchmark job metrics.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Extension: decompress-move elision via liveness analysis");
    r.table(&["hw-moves", "cc-moves", "elided", "hw-ovh%", "cc-ovh%"]);
    let mut total_hw = 0u64;
    let mut total_cc = 0u64;
    for abbr in ABBRS {
        let vals = [
            rs.metric(NAME, abbr, "hw-moves"),
            rs.metric(NAME, abbr, "cc-moves"),
            rs.metric(NAME, abbr, "elided"),
            rs.metric(NAME, abbr, "hw-ovh%"),
            rs.metric(NAME, abbr, "cc-ovh%"),
        ];
        total_hw += vals[0] as u64;
        total_cc += vals[1] as u64;
        r.row(abbr, &vals, fmt);
    }
    let removed = 100.0 * (1.0 - total_cc as f64 / total_hw.max(1) as f64);
    r.blank();
    r.note(&format!(
        "suite total: {total_hw} moves hardware-only → {total_cc} with liveness elision ({removed:.0}% removed)"
    ));
    r.metric("total/hw_moves", total_hw as f64);
    r.metric("total/cc_moves", total_cc as f64);
    r.metric("total/removed_pct", removed);
    r.note("paper: hardware-only costs ~2% dynamic instructions; compile-time");
    r.note("lifetime analysis \"may further reduce the overhead\" (Section 3.3).");
}
