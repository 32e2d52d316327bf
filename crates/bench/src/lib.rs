//! Shared harness utilities for the figure/table binaries.
//!
//! Every bench binary builds on [`Report`]: it prints the same
//! human-readable tables as before *and*, when invoked with `--json
//! [path]`, writes a machine-readable [`Manifest`] next to the text
//! output (default `results/<bench>.json`). The `report` binary
//! aggregates those manifests into a dashboard and compares two sets as
//! a regression gate.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use gscalar_core::RunReport;
use gscalar_metrics::{fnv1a_hex, Manifest};
use gscalar_sim::GpuConfig;
use gscalar_sweep::ResultSet;
use gscalar_workloads::ABBRS;

pub mod experiments;

/// Formats a row of right-aligned numeric cells after a left-aligned
/// label.
#[must_use]
pub fn row(label: &str, cells: &[String]) -> String {
    let mut s = format!("{label:<12}");
    for c in cells {
        s.push_str(&format!("{c:>12}"));
    }
    s
}

/// Arithmetic mean (0.0 for an empty slice).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The shared result emitter of every bench binary: prints the familiar
/// text tables and accumulates a [`Manifest`] of every numeric cell,
/// written as JSON at [`Report::finish`] when the binary was invoked
/// with `--json [path]`.
///
/// # Examples
///
/// ```
/// use gscalar_bench::Report;
///
/// let mut r = Report::from_args("demo", ["--json", "/tmp/demo-doc.json"]).unwrap();
/// r.title("Demo table");
/// r.table(&["colA", "colB"]);
/// r.row("BP", &[1.25, 3.0], |x| format!("{x:.2}"));
/// r.add_cycles(1000);
/// let manifest = r.finish().unwrap();
/// assert_eq!(manifest.get("BP/colA"), Some(1.25));
/// assert_eq!(manifest.host.sim_cycles, 1000);
/// std::fs::remove_file("/tmp/demo-doc.json").ok();
/// ```
pub struct Report {
    manifest: Manifest,
    json_path: Option<PathBuf>,
    start: Instant,
    sim_cycles: u64,
    columns: Vec<String>,
    deterministic: bool,
    out: Box<dyn Write>,
}

impl std::fmt::Debug for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Report")
            .field("manifest", &self.manifest)
            .field("json_path", &self.json_path)
            .field("sim_cycles", &self.sim_cycles)
            .field("deterministic", &self.deterministic)
            .finish_non_exhaustive()
    }
}

impl Report {
    /// Creates a report for `bench` from command-line arguments.
    /// Delegates flag parsing to [`experiments::CliOptions`], the single
    /// parser for the shared flag set.
    ///
    /// # Errors
    ///
    /// Returns the parser's message for a flag it rejects.
    pub fn from_args<I, S>(bench: &str, args: I) -> Result<Self, String>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Ok(Self::from_options(
            bench,
            &experiments::CliOptions::parse(args)?,
        ))
    }

    /// Creates a report for `bench` from already-parsed options
    /// (`--json` path resolution and `--deterministic`).
    #[must_use]
    pub fn from_options(bench: &str, opts: &experiments::CliOptions) -> Self {
        let mut r = Self::to_writer(bench, opts.json_path(bench), Box::new(std::io::stdout()));
        r.deterministic = opts.deterministic;
        r
    }

    /// Creates a report whose table text goes to `out` and whose
    /// manifest (if `json_path` is set) is written at
    /// [`Report::finish`]. This is how the experiment driver
    /// ([`experiments::cli_main`]) renders every experiment.
    #[must_use]
    pub fn to_writer(bench: &str, json_path: Option<PathBuf>, out: Box<dyn Write>) -> Self {
        Report {
            manifest: Manifest::new(bench),
            json_path,
            start: Instant::now(),
            sim_cycles: 0,
            columns: Vec::new(),
            deterministic: false,
            out,
        }
    }

    /// Starts the wall clock [`Report::finish`] reads at `at` instead
    /// of at construction. The experiment driver starts it before the
    /// sweep whose results the report renders.
    pub fn set_start(&mut self, at: Instant) {
        self.start = at;
    }

    /// Switches deterministic manifests on: [`Report::finish`] zeroes
    /// the host wall-clock fields (keeping simulated cycles), so the
    /// written JSON is byte-identical across machines, thread counts,
    /// and runs. The experiment driver turns it on for
    /// `--deterministic` and `--out`.
    pub fn set_deterministic(&mut self, on: bool) {
        self.deterministic = on;
    }

    /// Whether deterministic output is on (renders consult this to
    /// suppress wall-clock columns in their text output too).
    #[must_use]
    pub fn deterministic(&self) -> bool {
        self.deterministic
    }

    /// Prints a title/heading line.
    pub fn title(&mut self, text: &str) {
        let _ = writeln!(self.out, "{text}");
    }

    /// Prints a free-form note line (closing commentary, paper targets).
    pub fn note(&mut self, text: &str) {
        let _ = writeln!(self.out, "{text}");
    }

    /// Prints a blank separator line.
    pub fn blank(&mut self) {
        let _ = writeln!(self.out);
    }

    /// Records the hardware configuration digest in the manifest.
    pub fn config(&mut self, cfg: &GpuConfig) {
        self.manifest.config_digest = fnv1a_hex(&format!("{cfg:?}"));
    }

    /// Prints a table header and remembers the column names for
    /// [`Report::row`] metric paths.
    pub fn table(&mut self, cols: &[&str]) {
        self.columns = cols.iter().map(|c| (*c).to_string()).collect();
        let cells: Vec<String> = cols.iter().map(|c| (*c).to_string()).collect();
        let _ = writeln!(self.out, "{}", row("bench", &cells));
    }

    /// Prints one table row (each value through `fmt`) and records every
    /// cell as metric `<label>/<column>`.
    pub fn row(&mut self, label: &str, vals: &[f64], fmt: impl Fn(f64) -> String) {
        assert_eq!(
            vals.len(),
            self.columns.len(),
            "row {label} has {} cells for {} columns",
            vals.len(),
            self.columns.len()
        );
        let cells: Vec<String> = vals.iter().map(|&v| fmt(v)).collect();
        let _ = writeln!(self.out, "{}", row(label, &cells));
        let cols = self.columns.clone();
        for (col, &v) in cols.iter().zip(vals) {
            self.metric(&format!("{label}/{col}"), v);
        }
    }

    /// Prints a row of pre-formatted cells without recording metrics
    /// (mixed-format rows record via [`Report::metric`] themselves).
    pub fn row_text(&mut self, label: &str, cells: &[String]) {
        let _ = writeln!(self.out, "{}", row(label, cells));
    }

    /// Prints a table of experiment `exp`'s `cols` job metrics: the
    /// header, then one row per suite benchmark ([`ABBRS`] order), each
    /// cell through `fmt`. Returns the column means, for the caller's
    /// `AVG` row.
    pub fn suite_table(
        &mut self,
        rs: &ResultSet,
        exp: &str,
        cols: &[&str],
        fmt: impl Fn(f64) -> String,
    ) -> Vec<f64> {
        self.table(cols);
        let mut columns: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
        for abbr in ABBRS {
            let vals: Vec<f64> = cols.iter().map(|c| rs.metric(exp, abbr, c)).collect();
            for (c, v) in columns.iter_mut().zip(&vals) {
                c.push(*v);
            }
            self.row(abbr, &vals, &fmt);
        }
        columns.iter().map(|c| mean(c)).collect()
    }

    /// Records one metric in the manifest.
    pub fn metric(&mut self, path: &str, value: f64) {
        self.manifest.set(path, value);
    }

    /// Records the headline statistics of one run under `prefix`:
    /// cycles, IPC, power, instruction mix, scalar-class breakdown,
    /// stall breakdown, and per-component energy. Also accumulates the
    /// run's cycles into the host profile.
    pub fn record_run(&mut self, prefix: &str, r: &RunReport) {
        self.add_cycles(r.stats.cycles);
        for (path, value) in run_metrics(prefix, r) {
            self.manifest.set(path, value);
        }
    }

    /// Accumulates simulated cycles into the host self-profile.
    pub fn add_cycles(&mut self, cycles: u64) {
        self.sim_cycles += cycles;
    }

    /// Finalizes the manifest: fills the host profile and, when `--json`
    /// was given, writes the JSON file (creating parent directories).
    /// Returns the manifest for inspection.
    ///
    /// Deterministic mode zeroes the wall-clock fields in the main
    /// manifest (so it stays byte-identical across machines) but does
    /// not discard them: the real timings go to a `<stem>.host.json`
    /// side channel next to the manifest, which determinism gates
    /// (`cmp`) and [`load_manifests`] both ignore.
    ///
    /// # Panics
    ///
    /// Panics when the JSON file cannot be written — a bench invoked
    /// with `--json` must not silently produce nothing.
    pub fn finish(mut self) -> Option<Manifest> {
        let wall = self.start.elapsed().as_secs_f64();
        let side = host_side_channel(&self.manifest.bench, self.sim_cycles, wall);
        self.manifest.host = if self.deterministic {
            gscalar_metrics::HostProfile {
                wall_time_s: 0.0,
                sim_cycles: self.sim_cycles,
                cycles_per_host_s: 0.0,
            }
        } else {
            side.host.clone()
        };
        // Host-time phase breakdown rides in the manifest only when it
        // cannot perturb determinism; otherwise it goes to the side
        // channel below.
        if !self.deterministic && gscalar_hostprof::enabled() {
            for (path, v) in gscalar_hostprof::snapshot().flatten() {
                self.manifest.set(path, v);
            }
        }
        if let Some(path) = &self.json_path {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)
                        .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
                }
            }
            std::fs::write(path, self.manifest.to_json())
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("wrote {}", path.display());
            if self.deterministic {
                let side_path = path.with_extension("host.json");
                std::fs::write(&side_path, side.to_json())
                    .unwrap_or_else(|e| panic!("writing {}: {e}", side_path.display()));
            }
        }
        Some(self.manifest)
    }
}

/// Builds the `<stem>.host.json` side-channel manifest: the real host
/// profile a deterministic run measured ([`gscalar_sweep::host_manifest`]),
/// plus the hostprof phase/pool breakdown when profiling is enabled.
/// Every metric lives under `host/`, so `report compare` treats the
/// whole file as informational.
#[must_use]
pub fn host_side_channel(bench: &str, sim_cycles: u64, wall_s: f64) -> Manifest {
    let mut side = gscalar_sweep::host_manifest(bench, sim_cycles, wall_s);
    if gscalar_hostprof::enabled() {
        for (path, v) in gscalar_hostprof::snapshot().flatten() {
            side.set(path, v);
        }
    }
    side
}

/// The exact metric set [`Report::record_run`] emits, as `(path,
/// value)` pairs. Sweep jobs use this directly so a run recorded
/// through a [`gscalar_sweep::JobOutput`] carries the same keys and
/// values as one recorded through a `Report`.
#[must_use]
pub fn run_metrics(prefix: &str, r: &RunReport) -> Vec<(String, f64)> {
    let s = &r.stats;
    let i = &s.instr;
    let mut out: Vec<(String, f64)> = vec![
        (format!("{prefix}/cycles"), s.cycles as f64),
        (format!("{prefix}/ipc"), s.ipc()),
        (format!("{prefix}/warp_ipc"), s.warp_ipc()),
        (
            format!("{prefix}/divergent_fraction"),
            s.divergent_fraction(),
        ),
        (format!("{prefix}/power_total_w"), r.power.total_w()),
        (format!("{prefix}/ipc_per_watt"), r.ipc_per_watt()),
        (format!("{prefix}/instr/warp"), i.warp_instrs as f64),
        (format!("{prefix}/instr/thread"), i.thread_instrs as f64),
        (format!("{prefix}/instr/alu"), i.alu_instrs as f64),
        (format!("{prefix}/instr/sfu"), i.sfu_instrs as f64),
        (format!("{prefix}/instr/mem"), i.mem_instrs as f64),
        (format!("{prefix}/instr/ctrl"), i.ctrl_instrs as f64),
        (
            format!("{prefix}/instr/divergent"),
            i.divergent_instrs as f64,
        ),
        (
            format!("{prefix}/scalar/eligible_alu"),
            i.eligible_alu as f64,
        ),
        (
            format!("{prefix}/scalar/eligible_sfu"),
            i.eligible_sfu as f64,
        ),
        (
            format!("{prefix}/scalar/eligible_mem"),
            i.eligible_mem as f64,
        ),
        (
            format!("{prefix}/scalar/eligible_half"),
            i.eligible_half as f64,
        ),
        (
            format!("{prefix}/scalar/eligible_divergent"),
            i.eligible_divergent as f64,
        ),
        (
            format!("{prefix}/scalar/executed_scalar"),
            i.executed_scalar as f64,
        ),
        (
            format!("{prefix}/scalar/executed_half"),
            i.executed_half as f64,
        ),
    ];
    for (reason, count) in s.pipe.stalls.iter() {
        out.push((format!("{prefix}/stall/{}", reason.label()), count as f64));
    }
    // Energy by component: power × runtime (the linear accounting
    // the telemetry invariant is built on).
    for (name, w) in &r.power.components {
        out.push((
            format!("{prefix}/energy/{name}_pj"),
            w * r.power.runtime_s * 1e12,
        ));
    }
    out.push((
        format!("{prefix}/energy/static_pj"),
        r.power.static_w * r.power.runtime_s * 1e12,
    ));
    out
}

/// Loads manifests from `path`: a single `.json` file or a directory
/// (every `*.json` inside, sorted by file name). `*.host.json`
/// side-channel files are skipped: they carry real wall-clock timings
/// next to deterministic manifests and must never enter a regression
/// comparison set.
///
/// # Errors
///
/// Returns a message when the path is unreadable or any file fails to
/// load. Every bad file in a directory is reported — one line per
/// file — rather than stopping at the first, so a single corrupt
/// manifest in a results directory pinpoints itself immediately.
pub fn load_manifests(path: &Path) -> Result<Vec<Manifest>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.extension().is_some_and(|e| e == "json"))
            .filter(|p| {
                !p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".host.json"))
            })
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("no *.json manifests in {}", path.display()));
        }
        let mut loaded = Vec::new();
        let mut errors = Vec::new();
        for p in &files {
            match Manifest::load(p) {
                Ok(m) => loaded.push(m),
                Err(e) => errors.push(e),
            }
        }
        if errors.is_empty() {
            Ok(loaded)
        } else {
            Err(errors.join("\n"))
        }
    } else {
        Ok(vec![Manifest::load(path)?])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gscalar_core::{Arch, Runner, Workload};

    #[test]
    fn report_without_json_flag_writes_nothing() {
        let r = Report::from_args("x", Vec::<String>::new()).unwrap();
        assert!(r.json_path.is_none());
        let m = r.finish().unwrap();
        assert_eq!(m.bench, "x");
    }

    #[test]
    fn report_json_default_path_is_results_dir() {
        let r = Report::from_args("fig99", ["--json"]).unwrap();
        assert_eq!(
            r.json_path.as_deref(),
            Some(Path::new("results/fig99.json"))
        );
    }

    #[test]
    fn row_records_label_column_metrics() {
        let mut r = Report::from_args("t", Vec::<String>::new()).unwrap();
        r.table(&["a%", "b%"]);
        r.row("BP", &[1.0, 2.0], |x| format!("{x:.1}"));
        r.row("AVG", &[1.5, 2.5], |x| format!("{x:.1}"));
        let m = r.finish().unwrap();
        assert_eq!(m.get("BP/a%"), Some(1.0));
        assert_eq!(m.get("AVG/b%"), Some(2.5));
    }

    #[test]
    fn manifest_round_trips_through_disk() {
        let dir = std::env::temp_dir().join("gscalar-bench-test");
        let path = dir.join("roundtrip.json");
        let mut r =
            Report::from_args("rt", ["--json".to_string(), path.display().to_string()]).unwrap();
        r.metric("k", 4.25);
        r.config(&GpuConfig::test_small());
        r.add_cycles(123);
        let written = r.finish().unwrap();
        let loaded = load_manifests(&path).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0], written);
        assert_eq!(loaded[0].get("k"), Some(4.25));
        assert_eq!(loaded[0].host.sim_cycles, 123);
        assert_eq!(loaded[0].config_digest.len(), 16);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deterministic_finish_zeroes_host_wall_time() {
        let mut r = Report::from_args("d", ["--deterministic"]).unwrap();
        r.add_cycles(500);
        let m = r.finish().unwrap();
        assert_eq!(m.host.wall_time_s, 0.0);
        assert_eq!(m.host.cycles_per_host_s, 0.0);
        assert_eq!(m.host.sim_cycles, 500);
    }

    #[test]
    fn deterministic_finish_writes_real_timing_side_channel() {
        let dir = std::env::temp_dir().join("gscalar-bench-hostside");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("probe.json");
        let mut r = Report::from_args(
            "probe",
            [
                "--json".to_string(),
                path.display().to_string(),
                "--deterministic".to_string(),
            ],
        )
        .unwrap();
        r.metric("k", 1.0);
        r.add_cycles(777);
        let m = r.finish().unwrap();
        assert_eq!(m.host.wall_time_s, 0.0, "main manifest stays zeroed");
        let side = Manifest::load(&dir.join("probe.host.json")).unwrap();
        assert_eq!(side.bench, "probe.host");
        assert_eq!(side.host.sim_cycles, 777);
        assert!(side.host.wall_time_s > 0.0, "side channel keeps real time");
        assert_eq!(side.get("host/sim_cycles"), Some(777.0));
        // The side channel never contaminates a directory load.
        let loaded = load_manifests(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].bench, "probe");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_manifests_reports_every_bad_file() {
        let dir = std::env::temp_dir().join("gscalar-bench-badload");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let mut good = Report::from_args(
            "ok",
            [
                "--json".to_string(),
                dir.join("ok.json").display().to_string(),
            ],
        )
        .unwrap();
        good.metric("k", 1.0);
        good.finish();
        std::fs::write(dir.join("bad1.json"), "{\"schema\":").unwrap();
        std::fs::write(dir.join("bad2.json"), "not json").unwrap();
        let err = load_manifests(&dir).unwrap_err();
        assert!(err.contains("bad1.json"), "got: {err}");
        assert!(err.contains("bad2.json"), "got: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_run_covers_headline_and_breakdowns() {
        use gscalar_isa::{KernelBuilder, LaunchConfig, Operand, SReg};
        let mut b = KernelBuilder::new("k");
        let tid = b.s2r(SReg::TidX);
        b.iadd(tid.into(), Operand::Imm(1));
        b.exit();
        let w = Workload::new(
            "k",
            "K",
            b.build().unwrap(),
            LaunchConfig::linear(1, 32),
            gscalar_sim::memory::GlobalMemory::new(),
        );
        let report = Runner::new(GpuConfig::test_small()).run(&w, Arch::GScalar);
        let mut r = Report::from_args("t", Vec::<String>::new()).unwrap();
        r.record_run("K", &report);
        let m = r.finish().unwrap();
        assert_eq!(m.get("K/cycles"), Some(report.stats.cycles as f64));
        assert!(m.get("K/instr/warp").is_some());
        assert!(m.get("K/scalar/eligible_alu").is_some());
        assert!(m.get("K/stall/drained").is_some());
        assert!(m.get("K/energy/register-file_pj").is_some());
        assert_eq!(m.host.sim_cycles, report.stats.cycles);
    }
}
