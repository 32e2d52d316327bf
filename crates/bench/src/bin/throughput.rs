//! Host-throughput benchmark: how many simulated cycles per host
//! second does the simulator sustain, and where does the host time go?
//!
//! Runs a pinned workload mix — the 17 Table 2 kernels, each weighted
//! by its own simulated cycle count — once through the engine, with
//! host-side profiling ([`gscalar_hostprof`]) on. The report is the
//! per-phase exclusive wall-time breakdown under `host/phase/*` and
//! `host/pool/*`, plus per-phase `cycles_per_host_s`.
//!
//! Before that pass, with profiling off, the engine races the
//! per-thread reference interpreter ([`run_reference`]) kernel by
//! kernel: `host/serial/speed_vs_reference` is reference wall time over
//! engine wall time. Both sides run in the same process within moments
//! of each other, and each kernel's time on each side is its fastest
//! over [`RATIO_ROUNDS`] alternating passes over the mix. So the ratio
//! moves with the engine's code and hardly with the host's speed or
//! load.
//!
//! ```sh
//! cargo run --release --bin throughput -- --scale test --json BENCH_throughput.json
//! ```
//!
//! Every metric in the manifest lives under `host/`, so `report
//! compare` treats the whole file as informational: the committed
//! `BENCH_throughput.json` is a trend record. The one exception is
//! `host/serial/speed_vs_reference`, which `ci.sh` holds to a
//! one-sided `--gate-min` floor.
//!
//! With `--json <path>`, a Chrome trace-event host timeline of the
//! pass is also written next to the manifest as
//! `<stem>.timeline.json` (open in `chrome://tracing` or Perfetto).

use std::process::ExitCode;
use std::time::Instant;

use gscalar_bench::{experiments::CliOptions, Report};
use gscalar_core::{Arch, Runner, Workload};
use gscalar_hostprof as hostprof;
use gscalar_sim::reference::run_reference;
use gscalar_sim::GpuConfig;
use gscalar_workloads::suite;

/// Passes over the mix in [`speed_vs_reference`].
const RATIO_ROUNDS: usize = 30;

/// Races the serial engine against the reference interpreter:
/// [`RATIO_ROUNDS`] passes over the mix, each running every kernel
/// once on the reference and then once on the engine. Each kernel
/// keeps its fastest time per side, taken from samples spread over the
/// whole race (about a second) rather than from one burst of host
/// load. Returns the summed `(reference_seconds, engine_seconds)`.
fn speed_vs_reference(workloads: &[Workload], base: &GpuConfig) -> (f64, f64) {
    let runner = Runner::new(base.clone());
    let mut best = vec![(f64::MAX, f64::MAX); workloads.len()];
    for _ in 0..RATIO_ROUNDS {
        for (w, (best_ref, best_engine)) in workloads.iter().zip(&mut best) {
            let mut mem = w.memory.clone();
            let t0 = Instant::now();
            run_reference(&w.kernel, w.launch, &mut mem);
            *best_ref = best_ref.min(t0.elapsed().as_secs_f64());
            let t0 = Instant::now();
            std::hint::black_box(runner.run(w, Arch::GScalar));
            *best_engine = best_engine.min(t0.elapsed().as_secs_f64());
        }
    }
    best.iter()
        .fold((0.0, 0.0), |(r, e), (br, be)| (r + br, e + be))
}

/// One engine pass over the whole mix: runs every workload, records
/// per-workload and aggregate throughput under `host/<tag>/...`, and
/// returns `(total_cycles, wall_seconds)`.
fn run_mix(r: &mut Report, workloads: &[Workload], cfg: &GpuConfig, tag: &str) -> (u64, f64) {
    let runner = Runner::new(cfg.clone());
    let mut total_cycles = 0u64;
    let t0 = Instant::now();
    for w in workloads {
        // Harness catches everything the per-cycle probes inside the
        // simulator do not claim (setup, memory clone, stats merge).
        let _h = hostprof::phase(hostprof::Phase::Harness);
        let _t = hostprof::timeline_scope(&format!("{tag}:{}", w.abbr));
        let wt0 = Instant::now();
        let rep = runner.run(w, Arch::GScalar);
        let ws = wt0.elapsed().as_secs_f64();
        total_cycles += rep.stats.cycles;
        let cps = if ws > 0.0 {
            rep.stats.cycles as f64 / ws
        } else {
            0.0
        };
        r.metric(
            &format!("host/{tag}/{}/cycles", w.abbr),
            rep.stats.cycles as f64,
        );
        r.metric(&format!("host/{tag}/{}/wall_s", w.abbr), ws);
        r.metric(&format!("host/{tag}/{}/cycles_per_host_s", w.abbr), cps);
    }
    let wall = t0.elapsed().as_secs_f64();
    r.add_cycles(total_cycles);
    r.metric(&format!("host/{tag}/total_cycles"), total_cycles as f64);
    r.metric(&format!("host/{tag}/wall_s"), wall);
    r.metric(
        &format!("host/{tag}/cycles_per_host_s"),
        if wall > 0.0 {
            total_cycles as f64 / wall
        } else {
            0.0
        },
    );
    (total_cycles, wall)
}

/// Records the pass's hostprof totals (`host/phase/*`, `host/pool/*`),
/// plus per-phase `cycles_per_host_s` over the pass's cycles. Returns
/// the share of the pass's wall time the phases cover.
fn export_pass(r: &mut Report, snap: &hostprof::Snapshot, cycles: u64, wall: f64) -> f64 {
    for (path, v) in snap.flatten() {
        r.metric(&path, v);
    }
    for (i, p) in hostprof::Phase::ALL.iter().enumerate() {
        let ns = snap.phases[i].ns;
        if ns > 0 {
            r.metric(
                &format!("host/phase/{}/cycles_per_host_s", p.name()),
                cycles as f64 / (ns as f64 / 1e9),
            );
        }
    }
    if wall > 0.0 {
        snap.total_ns() as f64 / (wall * 1e9)
    } else {
        0.0
    }
}

fn main() -> ExitCode {
    let opts = match CliOptions::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("throughput: {e}");
            return ExitCode::from(2);
        }
    };
    let mut r = Report::from_options("throughput", &opts);
    let cfg = GpuConfig::gtx480();
    let workloads = suite(opts.scale);
    r.title("host throughput: 17-kernel mix, cycle-weighted");
    r.config(&cfg);

    // The gated ratio, measured uninstrumented.
    let (ref_s, engine_s) = speed_vs_reference(&workloads, &cfg);
    r.metric("host/vs_reference/reference_s", ref_s);
    r.metric("host/vs_reference/engine_s", engine_s);
    r.metric("host/serial/speed_vs_reference", ref_s / engine_s);

    hostprof::reset();
    hostprof::set_enabled(true);

    // Every phase runs on this one thread, so the exclusive phase
    // totals must sum (within slop) to the pass's wall time.
    let (serial_cycles, serial_wall) = run_mix(&mut r, &workloads, &cfg, "serial");
    let serial_snap = hostprof::snapshot();
    let coverage = export_pass(&mut r, &serial_snap, serial_cycles, serial_wall);
    r.metric("host/serial/instrumented_fraction", coverage);
    let serial_timeline = hostprof::chrome_timeline_json();

    r.blank();
    r.note(&format!("serial pass\n{}", serial_snap.render(serial_wall)));
    r.note(&format!(
        "serial pass: {serial_cycles} cycles in {serial_wall:.3}s \
         ({:.0} cycles/host-s), instrumented coverage {:.1}%",
        if serial_wall > 0.0 {
            serial_cycles as f64 / serial_wall
        } else {
            0.0
        },
        100.0 * coverage
    ));
    if !(0.5..=1.5).contains(&coverage) {
        r.note(&format!(
            "WARNING: instrumented phases cover {:.1}% of serial wall \
             time — expected ~100%",
            100.0 * coverage
        ));
    }

    if let Some(json) = opts.json_path("throughput") {
        let tl_path = json.with_extension("timeline.json");
        if let Some(dir) = tl_path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir).ok();
            }
        }
        match std::fs::write(&tl_path, serial_timeline) {
            Ok(()) => eprintln!("wrote {}", tl_path.display()),
            Err(e) => {
                eprintln!("writing {}: {e}", tl_path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    // Off before finish(), which would otherwise export the live
    // totals a second time: the manifest keeps the pass's, above.
    hostprof::set_enabled(false);
    r.finish();
    ExitCode::SUCCESS
}
