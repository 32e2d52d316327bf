//! Golden digests of the simulator's own event stream: every `Issue`,
//! `Stall`, `ExecSpan`, memory, compressor, SIMT and snapshot record a
//! traced run emits, not just the exporters (those are pinned on a
//! hand-built fixture in `crates/trace/tests/golden.rs`).
//!
//! Five test-scale kernels with distinct stall profiles (MV memory
//! bound, BP issue bound, HS and LC barrier heavy, MG mixed) run on
//! Baseline and G-Scalar. Each run's record count and the FNV-1a digest
//! of its Chrome trace JSON must match `golden/sim_trace_digests.txt`,
//! so any host-side speedup that reorders, drops or re-attributes an
//! event fails here. Regenerate after an intentional change with:
//!
//! ```sh
//! GOLDEN_REGEN=1 cargo test -p gscalar-bench --test sim_trace_golden
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use gscalar_core::{Arch, Instruments, Runner};
use gscalar_sim::GpuConfig;
use gscalar_trace::export::chrome_json;
use gscalar_trace::{EventBuf, Tracer};
use gscalar_workloads::{by_abbr, Scale};

/// Ring capacity: comfortably above the largest run's record count, so
/// nothing is evicted (asserted below).
const CAPACITY: usize = 1 << 22;

/// Snapshot period, as the `trace` binary uses.
const SNAPSHOT_INTERVAL: u64 = 64;

const KERNELS: [&str; 5] = ["MV", "BP", "HS", "LC", "MG"];

/// One `ABBR ARCH records digest` line per traced run.
fn digest_lines() -> String {
    let runner = Runner::new(GpuConfig::test_small());
    let mut out = String::new();
    for abbr in KERNELS {
        let w = by_abbr(abbr, Scale::Test).expect("known benchmark");
        for arch in [Arch::Baseline, Arch::GScalar] {
            let mut buf = EventBuf::new(CAPACITY);
            let mut ins = Instruments {
                tracer: Tracer::new(&mut buf),
                sample_interval: SNAPSHOT_INTERVAL,
                ..Instruments::default()
            };
            runner
                .run_with(&w, arch.config(), &mut ins)
                .expect("no budget set");
            assert_eq!(
                buf.dropped(),
                0,
                "{abbr}/{}: ring evicted records",
                arch.label()
            );
            let records = buf.into_records();
            let digest = gscalar_metrics::fnv1a_hex(&chrome_json(&records));
            writeln!(out, "{abbr} {} {} {digest}", arch.label(), records.len()).unwrap();
        }
    }
    out
}

#[test]
fn simulated_event_streams_match_golden() {
    let actual = digest_lines();
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sim_trace_digests.txt");
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); regenerate with GOLDEN_REGEN=1",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "simulated event stream drifted from {}; if intentional, regenerate with GOLDEN_REGEN=1",
        path.display()
    );
}
