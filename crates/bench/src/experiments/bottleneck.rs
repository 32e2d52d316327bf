//! Cycle-accounting dashboard: CPI stacks, critical-path attribution,
//! and validated what-if projections (see `gscalar-analyze`).
//!
//! One job per benchmark. The baseline simulation runs once with the
//! event tracer and a per-SM observer attached, yielding — from a
//! single run — the merged and per-SM scheduler ledgers (CPI stacks),
//! the stall-event stream (critical-path chains) and the MSHR occupancy
//! histogram (MLP profile). Every stack is then *reconciled*: kernel,
//! per-SM and per-scheduler views must all sum exactly to their
//! elapsed slots, and any breach fails the job (and the binary exits
//! nonzero). Finally each [`WhatIf`] idealization is projected
//! analytically from the stack and validated by a real re-simulation
//! with the corresponding [`gscalar_sim::IdealConfig`] knob flipped,
//! with the per-kernel projection error recorded in the manifest.

use gscalar_analyze::{analyze_trace, CpiStack, MlpProfile, Projection, WhatIf, COMPONENT_LABELS};
use gscalar_core::Arch;
use gscalar_sim::{GpuConfig, Instruments, RunObserver, Stats};
use gscalar_sweep::{JobError, JobOutput, JobSpec, ResultSet};
use gscalar_trace::{EventBuf, Tracer};
use gscalar_workloads::{Scale, ABBRS};

use crate::Report;

use super::suite_grid;

/// Registry name.
pub const NAME: &str = "bottleneck";

/// Bounded event-ring capacity for the critical-path trace. The ring
/// keeps the newest events, so a long run analyzes its tail — where the
/// drain bottlenecks live. Bounded and deterministic.
const TRACE_CAPACITY: usize = 1 << 16;

/// How many chains / culprit warps the manifest keeps per benchmark.
const TOP: usize = 4;

/// Captures the per-SM statistics the run's `finish` callback exposes.
#[derive(Default)]
struct PerSmCapture {
    per_sm: Vec<Stats>,
}

impl RunObserver for PerSmCapture {
    fn sample(&mut self, _cycle: u64, _stats: &Stats) {}

    fn finish(&mut self, _cycle: u64, _merged: &Stats, per_sm: &[Stats]) {
        self.per_sm = per_sm.to_vec();
    }
}

/// One job per benchmark: baseline traced run + 4 idealized re-runs.
pub fn grid(scale: Scale) -> Vec<JobSpec> {
    suite_grid(NAME, scale, |w, sim| {
        let cfg = GpuConfig::gtx480();

        // Baseline: one simulation feeding all three analyses.
        let mut buf = EventBuf::new(TRACE_CAPACITY);
        let mut capture = PerSmCapture::default();
        let stats = sim.run_with(
            &cfg,
            Arch::Baseline.config(),
            w,
            &mut Instruments {
                tracer: Tracer::new(&mut buf),
                observers: vec![&mut capture],
                ..Instruments::default()
            },
        )?;

        // CPI stacks at every granularity, all hard-reconciled.
        let stack = CpiStack::kernel(&stats, cfg.num_sms);
        let breach = |view: &str, e: gscalar_analyze::ReconcileError| {
            JobError::Failed(format!("{}: {view} {e}", w.abbr))
        };
        stack.reconcile().map_err(|e| breach("kernel", e))?;
        for (i, sm_stats) in capture.per_sm.iter().enumerate() {
            CpiStack::sm(sm_stats, stats.cycles)
                .reconcile()
                .map_err(|e| breach(&format!("sm{i}"), e))?;
            for (s, sc) in sm_stats.sched.iter().enumerate() {
                CpiStack::scheduler(sc, stats.cycles, 1)
                    .reconcile()
                    .map_err(|e| breach(&format!("sm{i}/sched{s}"), e))?;
            }
        }

        // Critical path + MLP from the same run.
        let records = buf.into_records();
        let cp = analyze_trace(&records, TOP);
        let mlp = MlpProfile::from_stats(&stats);

        let mut out = JobOutput::default();
        let p = |k: &str| format!("{}/{k}", w.abbr);
        out.metric(p("cycles"), stats.cycles as f64);
        out.metric(p("cpi/ledgers"), stack.ledgers as f64);
        for (label, n) in stack.components() {
            out.metric(p(&format!("cpi/{label}")), n as f64);
        }
        for (label, share) in COMPONENT_LABELS.iter().zip(stack.shares()) {
            out.metric(p(&format!("cpi/{label}_share")), share);
        }
        // Per-scheduler stacks from the merged ledgers (summed over
        // SMs), so scheduler imbalance is visible in the manifest.
        for (s, sc) in stats.sched.iter().enumerate() {
            let sst = CpiStack::scheduler(sc, stats.cycles, cfg.num_sms as u64);
            sst.reconcile()
                .map_err(|e| breach(&format!("sched{s}"), e))?;
            for (label, n) in sst.components() {
                out.metric(p(&format!("cpi/sched{s}/{label}")), n as f64);
            }
        }
        out.metric(p("critical/stall_events"), cp.stall_events as f64);
        for (reason, n) in cp.by_reason.iter() {
            out.metric(p(&format!("critical/events/{}", reason.label())), n as f64);
        }
        out.metric(
            p("critical/top_chain_cycles"),
            cp.chains.first().map_or(0, |c| c.len()) as f64,
        );
        out.metric(
            p("critical/top_warp_cycles"),
            cp.top_warps.first().map_or(0, |w| w.cycles) as f64,
        );
        out.metric(p("mlp/samples"), mlp.samples as f64);
        out.metric(p("mlp/mean"), mlp.mean);
        out.metric(p("mlp/max"), mlp.max as f64);

        // What-if studies: analytic projection vs a real idealized run.
        for wi in WhatIf::ALL {
            let ideal_cfg = wi.apply(&cfg);
            let ideal = sim.run_stats(&ideal_cfg, Arch::Baseline.config(), w)?;
            let proj = Projection::new(wi, &stack, &stats, &cfg, ideal.cycles);
            let l = wi.label();
            out.metric(p(&format!("whatif/{l}/ideal_cycles")), ideal.cycles as f64);
            out.metric(p(&format!("whatif/{l}/projected")), proj.projected);
            out.metric(p(&format!("whatif/{l}/measured")), proj.measured);
            out.metric(p(&format!("whatif/{l}/error")), proj.error());
        }
        Ok(out)
    })
}

/// Renders the markdown dashboard from job metrics only: the CPI-stack
/// table (shares of all issue slots), the critical-path/MLP table, and
/// the validated what-if table with per-kernel projection error.
pub fn render(r: &mut Report, rs: &ResultSet, _scale: Scale) {
    let cfg = GpuConfig::gtx480();
    r.config(&cfg);
    r.title("# Bottleneck dashboard");
    r.blank();
    r.note("## CPI stacks (share of all issue slots)");
    r.blank();
    r.note("| bench | base% | sbrd% | mem% | barr% | drain% | opc% | struct% | bottleneck |");
    r.note("|---|---|---|---|---|---|---|---|---|");
    for abbr in ABBRS {
        let g = |k: &str| rs.metric(NAME, abbr, &format!("{}/{}", abbr, k));
        let shares: Vec<f64> = COMPONENT_LABELS
            .iter()
            .map(|l| g(&format!("cpi/{l}_share")))
            .collect();
        // Headline bottleneck: the largest stall share (base_issue
        // excluded), ties to the earlier label — same rule as
        // `CpiStack::top_bottleneck`, recomputed from manifest metrics.
        let (top_label, _) = COMPONENT_LABELS.iter().zip(shares.iter()).skip(1).fold(
            ("scoreboard", f64::MIN),
            |best, (l, &s)| {
                if s > best.1 {
                    (l, s)
                } else {
                    best
                }
            },
        );
        r.note(&format!(
            "| {} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {:.1} | {} |",
            abbr,
            100.0 * shares[0],
            100.0 * shares[1],
            100.0 * shares[2],
            100.0 * shares[3],
            100.0 * shares[4],
            100.0 * shares[5],
            100.0 * shares[6],
            top_label,
        ));
    }
    r.blank();
    r.note("## Critical path and memory-level parallelism");
    r.blank();
    r.note("| bench | stall events | top chain (cyc) | top warp (cyc) | MLP mean | MLP max |");
    r.note("|---|---|---|---|---|---|");
    for abbr in ABBRS {
        let g = |k: &str| rs.metric(NAME, abbr, &format!("{}/{}", abbr, k));
        r.note(&format!(
            "| {} | {} | {} | {} | {:.2} | {} |",
            abbr,
            g("critical/stall_events"),
            g("critical/top_chain_cycles"),
            g("critical/top_warp_cycles"),
            g("mlp/mean"),
            g("mlp/max"),
        ));
    }
    r.blank();
    r.note("## What-if projections (analytic vs re-simulated)");
    r.blank();
    r.note("| bench | study | projected | measured | error% |");
    r.note("|---|---|---|---|---|");
    for abbr in ABBRS {
        let g = |k: &str| rs.metric(NAME, abbr, &format!("{}/{}", abbr, k));
        for wi in WhatIf::ALL {
            let l = wi.label();
            r.note(&format!(
                "| {} | {} | {:.3}x | {:.3}x | {:.1} |",
                abbr,
                l,
                g(&format!("whatif/{l}/projected")),
                g(&format!("whatif/{l}/measured")),
                100.0 * g(&format!("whatif/{l}/error")),
            ));
        }
    }
    // The manifest copies every job metric through verbatim, so the
    // JSON carries the full per-kernel stacks and projection errors.
    for abbr in ABBRS {
        let jr = rs.get(NAME, abbr).expect("job result present");
        for (k, v) in &jr.metrics {
            r.metric(k, *v);
        }
    }
}
