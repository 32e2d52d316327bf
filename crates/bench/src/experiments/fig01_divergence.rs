//! Figure 1: percentage of divergent instructions and divergent scalar
//! instructions in total instructions, per benchmark — plus the
//! per-branch attribution of that divergence from the PC-level
//! profiler.

use gscalar_core::{Arch, Instruments};
use gscalar_sim::{GpuConfig, Profiler};
use gscalar_sweep::{JobOutput, ResultSet};
use gscalar_workloads::{by_abbr, Scale, ABBRS};

use crate::{mean, row, Report};

use super::suite_grid;
use gscalar_sweep::JobSpec;

/// Registry name.
pub const NAME: &str = "fig01_divergence";

/// One job per benchmark: a profiled baseline run, reduced to the
/// figure's two fractions plus per-branch divergence attribution
/// (`branch<pc>/execs|diverged|div_share%`).
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let kernel = &w.kernel;
        let mut ins = Instruments {
            profiler: Profiler::for_kernel(0, kernel.name(), kernel.len()),
            ..Instruments::default()
        };
        let stats = sim.run_with(&GpuConfig::gtx480(), Arch::Baseline.config(), w, &mut ins)?;
        let profile = ins
            .profiler
            .into_profile()
            .expect("profiler was created enabled");
        let wi = stats.instr.warp_instrs as f64;
        let mut out = JobOutput::default();
        out.metric(
            "divergent%",
            100.0 * stats.instr.divergent_instrs as f64 / wi,
        );
        out.metric(
            "div-scalar%",
            100.0 * stats.instr.eligible_divergent as f64 / wi,
        );
        // Attribute the benchmark's divergent instructions to branches:
        // every divergent issue happens on the path below some diverged
        // branch, so the diverged branches (sorted by diverged count)
        // tell *where* Figure 1's divergence comes from.
        let total_div = stats.instr.divergent_instrs.max(1) as f64;
        for pc in profile.executed_pcs() {
            let rec = profile.record(pc);
            if rec.branch.diverged == 0 {
                continue;
            }
            // Divergent issues on the instructions strictly between the
            // branch and its reconvergence point ran under this branch.
            let reconv = w
                .kernel
                .reconvergence_pc(pc)
                .unwrap_or_else(|| w.kernel.len());
            let under: u64 = (pc + 1..reconv)
                .map(|q| profile.record(q).divergent_issues)
                .sum();
            out.metric(format!("branch{pc}/execs"), rec.branch.execs as f64);
            out.metric(format!("branch{pc}/diverged"), rec.branch.diverged as f64);
            out.metric(
                format!("branch{pc}/div_share%"),
                100.0 * under as f64 / total_div,
            );
        }
        Ok(out)
    })
}

/// Renders the figure from job metrics; branch disassembly comes from
/// the (static) kernel definition, so nothing is re-simulated.
pub fn render(r: &mut Report, rs: &ResultSet, scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("Figure 1: divergent / divergent-scalar instruction fractions");
    r.table(&["divergent%", "div-scalar%"]);
    let mut divs = Vec::new();
    let mut dscals = Vec::new();
    // Per-benchmark divergent-branch rows, rendered after the main
    // table: (abbr, pc, execs, diverged, div-instr share, disasm).
    let mut branch_rows: Vec<(String, usize, u64, u64, f64, String)> = Vec::new();
    for abbr in ABBRS {
        let d = rs.metric(NAME, abbr, "divergent%");
        let ds = rs.metric(NAME, abbr, "div-scalar%");
        divs.push(d);
        dscals.push(ds);
        r.row(abbr, &[d, ds], |x| format!("{x:.1}"));
        let jr = rs.get(NAME, abbr).expect("job result present");
        let mut pcs: Vec<usize> = jr
            .metrics
            .keys()
            .filter_map(|k| {
                k.strip_prefix("branch")
                    .and_then(|rest| rest.strip_suffix("/execs"))
                    .and_then(|n| n.parse().ok())
            })
            .collect();
        pcs.sort_unstable();
        if pcs.is_empty() {
            continue;
        }
        // The disassembly needs the kernel: build only benchmarks with
        // a diverged branch.
        let w = by_abbr(abbr, scale).expect("suite benchmark");
        for pc in pcs {
            let execs = rs.metric(NAME, abbr, &format!("branch{pc}/execs"));
            let diverged = rs.metric(NAME, abbr, &format!("branch{pc}/diverged"));
            let share = rs.metric(NAME, abbr, &format!("branch{pc}/div_share%"));
            r.metric(&format!("{abbr}/branch{pc}/execs"), execs);
            r.metric(&format!("{abbr}/branch{pc}/diverged"), diverged);
            r.metric(&format!("{abbr}/branch{pc}/div_share%"), share);
            branch_rows.push((
                abbr.to_string(),
                pc,
                execs as u64,
                diverged as u64,
                share,
                w.kernel.instr(pc).to_string(),
            ));
        }
    }
    r.row("AVG", &[mean(&divs), mean(&dscals)], |x| format!("{x:.1}"));
    r.blank();

    r.title("Divergent branches (from the PC-level profiler):");
    r.title(&row(
        "bench",
        &["pc", "execs", "diverged", "div-share%", "instr"].map(String::from),
    ));
    branch_rows.sort_by(|a, b| {
        b.4.partial_cmp(&a.4)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    for (abbr, pc, execs, diverged, share, disasm) in &branch_rows {
        r.row_text(
            abbr,
            &[
                format!("{pc}"),
                format!("{execs}"),
                format!("{diverged}"),
                format!("{share:.1}"),
                format!("  {disasm}"),
            ],
        );
    }
    r.blank();
    r.note("paper: avg 28% divergent; 45% of divergent instructions are");
    r.note("divergent-scalar (i.e. ~12.6% of total).");
    r.note(&format!(
        "measured: {:.1}% divergent; {:.0}% of divergent are divergent-scalar.",
        mean(&divs),
        100.0 * mean(&dscals) / mean(&divs).max(1e-9)
    ));
}
