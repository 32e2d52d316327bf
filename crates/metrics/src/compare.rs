//! Manifest comparison (the regression harness) and the markdown
//! dashboard aggregator.
//!
//! [`compare`] diffs a baseline manifest set against a current set,
//! metric by metric, and classifies each delta against a percentage
//! threshold; the `report` binary turns a breach into a non-zero exit
//! code. [`aggregate_markdown`] renders one manifest set as a
//! human-readable dashboard, and [`merge_manifests`] folds a set into a
//! single bench-prefixed manifest (the committed `BENCH_*.json`
//! perf-trajectory format).

use crate::manifest::{HostProfile, Manifest};

/// Thresholds for [`compare`].
#[derive(Debug, Clone)]
pub struct CompareConfig {
    /// Threshold in percent applied when no override matches.
    pub default_threshold_pct: f64,
    /// `(path prefix, threshold pct)` overrides; the longest matching
    /// prefix wins. Use a threshold of `f64::INFINITY` to exempt a
    /// subtree (e.g. host-dependent timings) from gating.
    pub overrides: Vec<(String, f64)>,
    /// Whether a bench present in the baseline but absent from the
    /// current set counts as a breach.
    pub fail_on_missing: bool,
    /// `(path prefix, tolerated drop pct)` one-sided gates for
    /// higher-is-better metrics (throughput floors): a matching metric
    /// breaches only when it *drops* by more than the given
    /// percentage; any improvement passes. The longest matching prefix
    /// wins, and a match overrides both prefix `overrides` and the
    /// built-in host informational exemption — gating a wall-clock
    /// throughput floor is exactly what this is for.
    pub min_gates: Vec<(String, f64)>,
    /// Metric paths gated exactly: any change, in either direction,
    /// breaches. An exact gate overrides every other rule, the host
    /// informational exemption included — it is for host-side numbers
    /// that do not depend on the host, such as phase call counts.
    pub exact_gates: Vec<String>,
}

impl Default for CompareConfig {
    fn default() -> Self {
        CompareConfig {
            default_threshold_pct: 2.0,
            overrides: Vec::new(),
            fail_on_missing: true,
            min_gates: Vec::new(),
            exact_gates: Vec::new(),
        }
    }
}

impl CompareConfig {
    /// The threshold applying to `path`: the longest matching override
    /// prefix wins; with no override, `host/...` metrics (wall-clock
    /// timings, machine-dependent by construction) are informational —
    /// their delta is printed but can never breach — and everything
    /// else gets the default.
    #[must_use]
    pub fn threshold_for(&self, path: &str) -> f64 {
        if let Some((_, t)) = self
            .overrides
            .iter()
            .filter(|(prefix, _)| path.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
        {
            return *t;
        }
        if is_host_metric(path) {
            return f64::INFINITY;
        }
        self.default_threshold_pct
    }

    /// The one-sided floor applying to `path`, if any: the longest
    /// matching `min_gates` prefix wins.
    #[must_use]
    pub fn min_gate_for(&self, path: &str) -> Option<f64> {
        self.min_gates
            .iter()
            .filter(|(prefix, _)| path.starts_with(prefix.as_str()))
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|&(_, t)| t)
    }
}

/// Whether `path` is a host-side (wall-clock, machine-dependent)
/// metric: such metrics are informational everywhere — [`compare`]
/// never gates on them and [`aggregate_markdown`] renders them in a
/// separate section. Merged `BENCH_*` manifests nest them under the
/// bench name, hence the infix form.
#[must_use]
pub fn is_host_metric(path: &str) -> bool {
    path.starts_with("host/") || path.contains("/host/")
}

/// One metric's baseline-vs-current comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Delta {
    /// Bench the metric belongs to.
    pub bench: String,
    /// Metric path within the bench manifest.
    pub path: String,
    /// Baseline value.
    pub baseline: f64,
    /// Current value.
    pub current: f64,
    /// Relative change in percent (`100` when the baseline is zero and
    /// the current value is not).
    pub delta_pct: f64,
    /// The threshold that applied.
    pub threshold_pct: f64,
    /// One-sided gate (higher-is-better floor): only a drop beyond the
    /// threshold breaches; improvements always pass.
    pub one_sided: bool,
}

impl Delta {
    /// Whether this delta breaches its threshold.
    #[must_use]
    pub fn breached(&self) -> bool {
        if self.one_sided {
            self.delta_pct < -self.threshold_pct
        } else {
            self.delta_pct.abs() > self.threshold_pct
        }
    }
}

/// The result of comparing two manifest sets.
#[derive(Debug, Clone, Default)]
pub struct CompareReport {
    /// Every compared metric, worst relative change first.
    pub deltas: Vec<Delta>,
    /// Benches in the baseline with no current counterpart.
    pub missing_benches: Vec<String>,
    /// Metrics in the baseline with no current counterpart
    /// (`bench/path`).
    pub missing_metrics: Vec<String>,
    /// Metrics only in the current set (informational, never a breach).
    pub added_metrics: Vec<String>,
    /// Whether missing benches/metrics gate the result.
    pub fail_on_missing: bool,
}

impl CompareReport {
    /// Deltas that breach their threshold, worst first.
    #[must_use]
    pub fn breaches(&self) -> Vec<&Delta> {
        self.deltas.iter().filter(|d| d.breached()).collect()
    }

    /// Whether the comparison passes (no breaches; and, when
    /// configured, nothing missing).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.breaches().is_empty()
            && (!self.fail_on_missing
                || (self.missing_benches.is_empty() && self.missing_metrics.is_empty()))
    }

    /// Renders a human-readable summary. `max_rows` bounds the
    /// non-breaching rows shown (breaches are always all shown).
    #[must_use]
    pub fn render(&self, max_rows: usize) -> String {
        let mut out = String::new();
        let breaches = self.breaches();
        out.push_str(&format!(
            "compared {} metrics: {} within threshold, {} breached\n",
            self.deltas.len(),
            self.deltas.len() - breaches.len(),
            breaches.len()
        ));
        for b in &self.missing_benches {
            out.push_str(&format!("  MISSING bench: {b}\n"));
        }
        for m in &self.missing_metrics {
            out.push_str(&format!("  MISSING metric: {m}\n"));
        }
        if !self.added_metrics.is_empty() {
            out.push_str(&format!(
                "  {} new metrics (not gated)\n",
                self.added_metrics.len()
            ));
        }
        let mut shown = 0usize;
        for d in &self.deltas {
            let flag = if d.breached() { "BREACH" } else { "ok" };
            if !d.breached() {
                if shown >= max_rows || d.delta_pct == 0.0 {
                    continue;
                }
                shown += 1;
            }
            let limit = if d.one_sided {
                format!("floor -{}%", d.threshold_pct)
            } else if d.threshold_pct == 0.0 {
                "exact".to_string()
            } else {
                format!("limit {}%", d.threshold_pct)
            };
            out.push_str(&format!(
                "  {flag:<6} {:<60} {:>14.6} -> {:>14.6}  {:+8.3}% ({limit})\n",
                format!("{}/{}", d.bench, d.path),
                d.baseline,
                d.current,
                d.delta_pct,
            ));
        }
        out.push_str(if self.passed() {
            "result: PASS\n"
        } else {
            "result: FAIL\n"
        });
        out
    }
}

/// Relative change in percent, with zero-baseline handling.
fn delta_pct(base: f64, cur: f64) -> f64 {
    if (cur - base).abs() < 1e-12 {
        0.0
    } else if base == 0.0 {
        100.0
    } else {
        100.0 * (cur - base) / base.abs()
    }
}

/// Compares `current` manifests against `baseline`, pairing them by
/// bench name.
#[must_use]
pub fn compare(baseline: &[Manifest], current: &[Manifest], cfg: &CompareConfig) -> CompareReport {
    let mut report = CompareReport {
        fail_on_missing: cfg.fail_on_missing,
        ..CompareReport::default()
    };
    for base in baseline {
        let Some(cur) = current.iter().find(|m| m.bench == base.bench) else {
            report.missing_benches.push(base.bench.clone());
            continue;
        };
        for (path, &bval) in &base.metrics {
            match cur.get(path) {
                None => report
                    .missing_metrics
                    .push(format!("{}/{path}", base.bench)),
                Some(cval) => {
                    let d = delta_pct(bval, cval);
                    let (threshold_pct, one_sided) = if cfg.exact_gates.contains(path) {
                        (0.0, false)
                    } else {
                        match cfg.min_gate_for(path) {
                            Some(floor) => (floor, true),
                            None => (cfg.threshold_for(path), false),
                        }
                    };
                    report.deltas.push(Delta {
                        bench: base.bench.clone(),
                        path: path.clone(),
                        baseline: bval,
                        current: cval,
                        delta_pct: d,
                        threshold_pct,
                        one_sided,
                    });
                }
            }
        }
        for path in cur.metrics.keys() {
            if !base.metrics.contains_key(path) {
                report.added_metrics.push(format!("{}/{path}", cur.bench));
            }
        }
    }
    report
        .deltas
        .sort_by(|a, b| b.delta_pct.abs().total_cmp(&a.delta_pct.abs()));
    report
}

/// Folds a manifest set into one manifest whose metric paths are
/// prefixed with their bench name — the committed perf-trajectory
/// (`BENCH_*.json`) format.
#[must_use]
pub fn merge_manifests(manifests: &[Manifest], name: &str) -> Manifest {
    let mut out = Manifest::new(name);
    let mut wall = 0.0f64;
    let mut cycles = 0u64;
    for m in manifests {
        wall += m.host.wall_time_s;
        cycles += m.host.sim_cycles;
        for (path, &v) in &m.metrics {
            out.set(format!("{}/{path}", m.bench), v);
        }
        out.set(format!("{}/host/wall_time_s", m.bench), m.host.wall_time_s);
    }
    out.host = HostProfile {
        wall_time_s: wall,
        sim_cycles: cycles,
        cycles_per_host_s: if wall > 0.0 {
            cycles as f64 / wall
        } else {
            0.0
        },
    };
    if let Some(first) = manifests.first() {
        out.config_digest = first.config_digest.clone();
    }
    out
}

/// Warning lines for manifests whose trace ring overflowed (metric
/// `trace/dropped_events` > 0): the exported trace is missing its
/// oldest records, so waterfalls and time series silently start late.
/// Returned sorted by bench name; empty when no manifest dropped.
#[must_use]
pub fn dropped_event_warnings(manifests: &[Manifest]) -> Vec<String> {
    let mut sorted: Vec<&Manifest> = manifests.iter().collect();
    sorted.sort_by(|a, b| a.bench.cmp(&b.bench));
    sorted
        .iter()
        .filter_map(|m| {
            let n = m.get("trace/dropped_events")?;
            (n > 0.0).then(|| {
                format!(
                    "warning: {}: trace ring dropped {n:.0} event(s); \
                     exported traces are truncated (raise the event-buffer capacity)",
                    m.bench
                )
            })
        })
        .collect()
}

/// Renders a manifest set as a markdown dashboard: a summary table of
/// every bench (wall time, simulated throughput, config digest) and a
/// per-bench metric table.
#[must_use]
pub fn aggregate_markdown(manifests: &[Manifest]) -> String {
    let mut out = String::from("# G-Scalar bench dashboard\n\n");
    out.push_str(&format!("{} manifests aggregated.\n\n", manifests.len()));
    let warnings = dropped_event_warnings(manifests);
    if !warnings.is_empty() {
        for w in &warnings {
            out.push_str(&format!("> **{w}**\n"));
        }
        out.push('\n');
    }
    out.push_str("| bench | metrics | sim cycles | wall (s) | Mcyc/host-s | config |\n");
    out.push_str("|---|---:|---:|---:|---:|---|\n");
    let mut sorted: Vec<&Manifest> = manifests.iter().collect();
    sorted.sort_by(|a, b| a.bench.cmp(&b.bench));
    for m in &sorted {
        out.push_str(&format!(
            "| {} | {} | {} | {:.2} | {:.2} | `{}` |\n",
            m.bench,
            m.metrics.len(),
            m.host.sim_cycles,
            m.host.wall_time_s,
            m.host.cycles_per_host_s / 1e6,
            if m.config_digest.is_empty() {
                "-"
            } else {
                &m.config_digest
            }
        ));
    }
    out.push('\n');
    for m in &sorted {
        out.push_str(&format!("## {}\n\n", m.bench));
        // Gated (simulated) metrics first; host-side metrics are
        // informational by construction and get their own subsection
        // so readers never mistake them for regression-gated values.
        let (host, gated): (Vec<_>, Vec<_>) =
            m.metrics.iter().partition(|(path, _)| is_host_metric(path));
        out.push_str("| metric | value |\n|---|---:|\n");
        for (path, v) in gated {
            out.push_str(&format!("| {path} | {v:.6} |\n"));
        }
        out.push('\n');
        if !host.is_empty() {
            out.push_str("### Informational (host timings, not gated)\n\n");
            out.push_str("| metric | value |\n|---|---:|\n");
            for (path, v) in host {
                out.push_str(&format!("| {path} | {v:.6} |\n"));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(bench: &str, pairs: &[(&str, f64)]) -> Manifest {
        let mut m = Manifest::new(bench);
        for (k, v) in pairs {
            m.set(*k, *v);
        }
        m
    }

    #[test]
    fn dropped_event_warnings_flag_only_nonzero() {
        let manifests = vec![
            manifest("clean", &[("trace/dropped_events", 0.0), ("ipc", 1.0)]),
            manifest("lossy", &[("trace/dropped_events", 42.0)]),
            manifest("untraced", &[("ipc", 2.0)]),
        ];
        let warnings = dropped_event_warnings(&manifests);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("lossy"), "got: {}", warnings[0]);
        assert!(warnings[0].contains("42 event(s)"), "got: {}", warnings[0]);
        let md = aggregate_markdown(&manifests);
        assert!(
            md.contains("trace ring dropped 42"),
            "dashboard surfaces it"
        );
        assert!(dropped_event_warnings(&[manifest("x", &[("a", 1.0)])]).is_empty());
    }

    #[test]
    fn identical_sets_pass() {
        let base = vec![manifest("a", &[("x", 1.0), ("y", 2.0)])];
        let report = compare(&base, &base.clone(), &CompareConfig::default());
        assert!(report.passed());
        assert_eq!(report.breaches().len(), 0);
        assert!(report.render(10).contains("PASS"));
    }

    #[test]
    fn breach_detected_and_worst_first() {
        let base = vec![manifest("a", &[("x", 100.0), ("y", 100.0)])];
        let cur = vec![manifest("a", &[("x", 101.0), ("y", 150.0)])];
        let report = compare(&base, &cur, &CompareConfig::default());
        assert!(!report.passed());
        let breaches = report.breaches();
        assert_eq!(breaches.len(), 1);
        assert_eq!(breaches[0].path, "y");
        assert_eq!(report.deltas[0].path, "y"); // sorted worst-first
        assert!(report.render(10).contains("BREACH"));
        assert!(report.render(10).contains("FAIL"));
    }

    #[test]
    fn overrides_pick_longest_prefix() {
        let cfg = CompareConfig {
            default_threshold_pct: 1.0,
            overrides: vec![("host".into(), f64::INFINITY), ("host/sim".into(), 5.0)],
            ..CompareConfig::default()
        };
        assert_eq!(cfg.threshold_for("host/wall"), f64::INFINITY);
        assert_eq!(cfg.threshold_for("host/sim/cycles"), 5.0);
        assert_eq!(cfg.threshold_for("perf/ipc"), 1.0);
    }

    #[test]
    fn host_metrics_are_informational_without_overrides() {
        let cfg = CompareConfig::default();
        assert_eq!(cfg.threshold_for("host/phase/execute/ns"), f64::INFINITY);
        assert_eq!(
            cfg.threshold_for("fig11/host/wall_time_s"),
            f64::INFINITY,
            "merged BENCH_* manifests nest host under the bench name"
        );
        assert_eq!(cfg.threshold_for("perf/ipc"), cfg.default_threshold_pct);
        // An explicit override still beats the built-in exemption.
        let strict = CompareConfig {
            overrides: vec![("host/pool".into(), 3.0)],
            ..CompareConfig::default()
        };
        assert_eq!(strict.threshold_for("host/pool/steals"), 3.0);
    }

    #[test]
    fn host_deltas_never_fail_compare() {
        let base = vec![manifest(
            "a",
            &[("host/phase/execute/ns", 100.0), ("ipc", 2.0)],
        )];
        let cur = vec![manifest(
            "a",
            &[("host/phase/execute/ns", 900.0), ("ipc", 2.0)],
        )];
        let report = compare(&base, &cur, &CompareConfig::default());
        assert!(report.passed(), "host-only drift must not gate");
        let host = report
            .deltas
            .iter()
            .find(|d| d.path == "host/phase/execute/ns")
            .unwrap();
        assert!(host.delta_pct > 0.0, "delta still printed for trends");
        assert!(!host.breached());
    }

    #[test]
    fn min_gate_fails_on_drop_only() {
        let cfg = CompareConfig {
            min_gates: vec![("host/cycles_per_host_s".into(), 10.0)],
            ..CompareConfig::default()
        };
        let base = vec![manifest("t", &[("host/cycles_per_host_s", 1000.0)])];
        // A large improvement passes the one-sided floor...
        let up = vec![manifest("t", &[("host/cycles_per_host_s", 2000.0)])];
        assert!(compare(&base, &up, &cfg).passed(), "improvement gated");
        // ...a drop inside the tolerance passes...
        let dip = vec![manifest("t", &[("host/cycles_per_host_s", 950.0)])];
        assert!(compare(&base, &dip, &cfg).passed(), "5% dip within 10%");
        // ...and a drop beyond it breaches even though the path is a
        // host metric (the floor overrides the informational exemption).
        let slow = vec![manifest("t", &[("host/cycles_per_host_s", 800.0)])];
        let report = compare(&base, &slow, &cfg);
        assert!(!report.passed(), "20% regression must gate");
        let b = report.breaches();
        assert_eq!(b.len(), 1);
        assert!(b[0].one_sided);
        assert!(report.render(10).contains("floor -10%"));
    }

    #[test]
    fn exact_gate_fails_on_any_change_of_a_host_metric() {
        let calls = "host/phase/scheduler/calls";
        let cfg = CompareConfig {
            min_gates: vec![("host/".into(), 50.0)],
            exact_gates: vec![calls.into()],
            ..CompareConfig::default()
        };
        let base = vec![manifest("t", &[(calls, 1000.0), ("host/wall_s", 1.0)])];
        let same = vec![manifest("t", &[(calls, 1000.0), ("host/wall_s", 1.2)])];
        assert!(compare(&base, &same, &cfg).passed());
        // One call more or one fewer breaches, although the path is a
        // host metric and a looser floor matches it by prefix.
        for changed in [999.0, 1001.0] {
            let cur = vec![manifest("t", &[(calls, changed), ("host/wall_s", 1.0)])];
            let report = compare(&base, &cur, &cfg);
            assert!(!report.passed(), "{changed} calls must gate");
            let b = report.breaches();
            assert_eq!(b.len(), 1);
            assert_eq!(b[0].path, calls);
            assert!(report.render(10).contains("(exact)"));
        }
        // The gate names a path exactly, not a prefix.
        let other = vec![manifest(
            "t",
            &[
                (calls, 1000.0),
                ("host/wall_s", 1.0),
                (&*format!("{calls}/x"), 1.0),
            ],
        )];
        assert!(compare(&base, &other, &cfg).passed());
    }

    #[test]
    fn min_gate_longest_prefix_wins() {
        let cfg = CompareConfig {
            min_gates: vec![("host/".into(), 50.0), ("host/serial".into(), 5.0)],
            ..CompareConfig::default()
        };
        assert_eq!(cfg.min_gate_for("host/serial/cycles_per_host_s"), Some(5.0));
        assert_eq!(cfg.min_gate_for("host/parallel/wall_time_s"), Some(50.0));
        assert_eq!(cfg.min_gate_for("gpu/cycles"), None);
    }

    #[test]
    fn zero_baseline_counts_as_full_change() {
        let base = vec![manifest("a", &[("x", 0.0)])];
        let cur = vec![manifest("a", &[("x", 3.0)])];
        let report = compare(&base, &cur, &CompareConfig::default());
        assert_eq!(report.deltas[0].delta_pct, 100.0);
        assert!(!report.passed());
    }

    #[test]
    fn missing_bench_and_metric_gate_when_configured() {
        let base = vec![
            manifest("a", &[("x", 1.0), ("gone", 2.0)]),
            manifest("b", &[("x", 1.0)]),
        ];
        let cur = vec![manifest("a", &[("x", 1.0), ("new", 9.0)])];
        let strict = compare(&base, &cur, &CompareConfig::default());
        assert!(!strict.passed());
        assert_eq!(strict.missing_benches, vec!["b".to_string()]);
        assert_eq!(strict.missing_metrics, vec!["a/gone".to_string()]);
        assert_eq!(strict.added_metrics, vec!["a/new".to_string()]);
        let lax = compare(
            &base,
            &cur,
            &CompareConfig {
                fail_on_missing: false,
                ..CompareConfig::default()
            },
        );
        assert!(lax.passed());
    }

    #[test]
    fn merge_prefixes_with_bench_names() {
        let mut a = manifest("a", &[("x", 1.0)]);
        a.host.wall_time_s = 2.0;
        a.host.sim_cycles = 100;
        let b = manifest("b", &[("x", 5.0)]);
        let merged = merge_manifests(&[a, b], "BENCH_baseline");
        assert_eq!(merged.get("a/x"), Some(1.0));
        assert_eq!(merged.get("b/x"), Some(5.0));
        assert_eq!(merged.host.sim_cycles, 100);
        assert_eq!(merged.bench, "BENCH_baseline");
    }

    #[test]
    fn dashboard_renders_host_metrics_in_their_own_section() {
        let set = vec![manifest(
            "probe",
            &[
                ("gpu/cycles", 1000.0),
                ("host/phase/execute/ns", 5.0),
                ("host/pool/steals", 2.0),
            ],
        )];
        let md = aggregate_markdown(&set);
        let info = md
            .find("### Informational (host timings, not gated)")
            .expect("host section present");
        // Gated metrics come before the host section; host metrics only
        // after it.
        assert!(md.find("| gpu/cycles |").unwrap() < info);
        assert!(md.find("| host/phase/execute/ns |").unwrap() > info);
        assert!(md.find("| host/pool/steals |").unwrap() > info);
        // No host metrics → no empty section.
        let plain = aggregate_markdown(&[manifest("p", &[("gpu/ipc", 1.0)])]);
        assert!(!plain.contains("Informational"));
    }

    #[test]
    fn dashboard_lists_every_bench() {
        let set = vec![manifest("zz", &[("m", 1.0)]), manifest("aa", &[("n", 2.0)])];
        let md = aggregate_markdown(&set);
        assert!(md.contains("## aa"));
        assert!(md.contains("## zz"));
        assert!(md.find("## aa").unwrap() < md.find("## zz").unwrap());
        assert!(md.contains("| m | 1.000000 |"));
    }
}
