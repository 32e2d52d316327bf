//! `sweep-full`: the researcher's "reproduce the headline figure" path.
//!
//! A pass runs the Figure 11 grid through `run_sweep` on `nproc` job
//! threads, persisting into a fresh output directory with no cache,
//! then renders the figure. Its wall time is job-level parallelism,
//! per-job isolation, atomic manifest writes and render together; the
//! longest job (MV) sets most of it, so this is the workload for tail
//! effects.

use std::time::Instant;

use gscalar_bench::{experiments, Report};
use gscalar_hostprof as hostprof;
use gscalar_live::{LiveHandle, LiveRecord, StreamConfig};
use gscalar_metrics::Manifest;
use gscalar_sweep::{run_sweep, JobSpec, Progress, SweepConfig};
use gscalar_workloads::Scale;

use crate::{
    hostprof_begin_pass, median, nproc, set_op_latency, set_overhead, set_phase_metrics,
    time_setup, timed_passes, Goldens, Opts, Outcome, PassProfile, SpanLog, Tally,
};

/// The experiment the workload sweeps.
pub const EXPERIMENT: &str = "fig11_power_efficiency";

/// One pass's measurements.
struct Pass {
    wall_s: f64,
    render_s: f64,
    /// Wall seconds of each job, from the sweep's live `job_end` records.
    job_s: Vec<f64>,
    /// Stream time of the second-to-last `job_end`.
    penultimate_end_s: f64,
    sim_cycles: u64,
}

/// The grid plus what every pass checks against.
struct Sweep<'a> {
    opts: &'a Opts,
    exp: experiments::Experiment,
    scale: Scale,
    specs: Vec<JobSpec>,
    goldens: Goldens,
    spans: &'a SpanLog,
    /// The first pass's rendered manifest: every later pass must match.
    first: Option<Manifest>,
    tally: Tally,
}

impl Sweep<'_> {
    /// Runs the grid once into a fresh directory and renders it.
    fn pass(&mut self) -> Pass {
        let (spans, exp, scale) = (self.spans, &self.exp, self.scale);
        let dir = self.opts.scratch("sweep");
        let live = LiveHandle::memory(StreamConfig::default());
        let cfg = SweepConfig {
            threads: nproc(),
            out_dir: Some(dir.clone()),
            max_retries: 0,
            progress: Progress::Quiet,
            live: Some(live.clone()),
            ..SweepConfig::default()
        };
        let pass_id = spans.id();
        let start = Instant::now();
        let outcome = spans.scope("sweep.run_sweep", pass_id, |_| run_sweep(&self.specs, &cfg));
        let rendered_at = Instant::now();
        let manifest = spans.scope("bench.render", pass_id, |_| {
            let mut r = Report::to_writer(EXPERIMENT, None, Box::new(std::io::sink()));
            r.set_deterministic(true);
            (exp.render)(&mut r, &outcome.results, scale);
            r.finish().expect("a report always returns its manifest")
        });
        let end = Instant::now();
        spans.record(pass_id, "sweep.pass", 0, 0, start, end);
        live.close();
        std::fs::remove_dir_all(&dir).ok();

        let tally = &mut self.tally;
        tally.attempted += self.specs.len() as u64;
        tally.failed += outcome.failures.len() as u64;
        for f in &outcome.failures {
            eprintln!(
                "benchmark: FAILED job {} ({}): {}",
                f.job, f.kind, f.message
            );
        }
        if let Some(fig11) = &self.goldens.fig11 {
            for (key, &golden) in fig11 {
                let got = manifest.get(key).unwrap_or(f64::NAN);
                tally.op(crate::close(got, golden), || {
                    format!("rendered {EXPERIMENT}/{key} = {got}, golden {golden}")
                });
            }
        }
        match &self.first {
            Some(m) => tally.op(m.metrics == manifest.metrics, || {
                "rendered metrics differ from the first pass".to_string()
            }),
            None => self.first = Some(manifest),
        }

        let mut ends: Vec<(f64, f64)> = live
            .collected()
            .unwrap_or_default()
            .iter()
            .filter_map(|line| match LiveRecord::parse(line) {
                Ok(LiveRecord::JobEnd { wall_s, t_s, .. }) => Some((t_s, wall_s)),
                _ => None,
            })
            .collect();
        ends.sort_by(|a, b| a.0.total_cmp(&b.0));
        Pass {
            wall_s: (end - start).as_secs_f64(),
            render_s: (end - rendered_at).as_secs_f64(),
            job_s: ends.iter().map(|e| e.1).collect(),
            penultimate_end_s: ends.iter().rev().nth(1).map_or(0.0, |e| e.0),
            sim_cycles: outcome.results.sim_cycles(EXPERIMENT),
        }
    }
}

/// Runs the sweep workload.
///
/// # Errors
///
/// Returns a message when the goldens cannot be loaded.
pub fn run(opts: &Opts, spans: &SpanLog) -> Result<Outcome, String> {
    let scale = opts.full_scale();
    let exp = experiments::by_name(EXPERIMENT).expect("registered experiment");
    let mut out = Outcome::default();
    let (setup_s, specs) = spans.scope("bench.grid", 0, |_| time_setup(|| (exp.grid)(scale)));
    out.set("setup_s", setup_s);
    let mut sw = Sweep {
        opts,
        exp,
        scale,
        specs,
        goldens: Goldens::load(&opts.root, scale)?,
        spans,
        first: None,
        tally: Tally::default(),
    };

    let untraced_s = if opts.trace { sw.pass().wall_s } else { 0.0 };
    let mut passes = Vec::new();
    let mut profiles = Vec::new();
    timed_passes(opts, &mut out, || {
        if opts.trace {
            hostprof_begin_pass();
        }
        let p = sw.pass();
        if opts.trace {
            profiles.push(PassProfile {
                wall_s: p.wall_s,
                snap: hostprof::snapshot(),
            });
        }
        let wall = p.wall_s;
        passes.push(p);
        wall
    })?;
    hostprof::set_enabled(false);

    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let job_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.job_s.iter().map(|s| 1e3 * s))
        .collect();
    out.set("pass_s", median(&walls));
    set_op_latency(&mut out, &job_ms);
    out.set("passes", passes.len() as f64);
    if opts.trace {
        set_phase_metrics(&mut out, &profiles);
        set_overhead(&mut out, untraced_s, &walls);
        out.set(
            "sweep.job_s_max",
            per_pass(&|p| p.job_s.iter().copied().fold(0.0, f64::max)),
        );
        out.set(
            "sweep.utilization",
            per_pass(&|p| p.job_s.iter().sum::<f64>() / (nproc() as f64 * p.wall_s)),
        );
        out.set(
            "sweep.tail_s",
            per_pass(&|p| p.wall_s - p.render_s - p.penultimate_end_s),
        );
        out.set("sweep.render_s", per_pass(&|p| p.render_s));
        out.set("model.sim_cycles", per_pass(&|p| p.sim_cycles as f64));
    }
    out.set(
        "error_rate",
        sw.tally.failed as f64 / sw.tally.attempted.max(1) as f64,
    );
    out.tally = sw.tally;
    Ok(out)
}
