//! Directional assertions for the paper's headline claims, checked on
//! the real benchmark suite. Magnitudes are asserted loosely (this is a
//! reproduction on a rebuilt simulator), but every *ordering* the paper
//! reports must hold.

use gscalar::core::{Arch, Runner};
use gscalar::power::{rf_power_normalized, RfScheme};
use gscalar::sim::GpuConfig;
use gscalar::workloads::{by_abbr, Scale};

fn runner() -> Runner {
    Runner::new(GpuConfig::gtx480())
}

#[test]
fn backprop_is_the_star_benchmark() {
    // Section 5.3: BP is compute-intensive, SFU-heavy, with most SFU
    // instructions scalar; G-Scalar's largest efficiency win.
    let w = by_abbr("BP", Scale::Full).expect("BP exists");
    let r = runner();
    let base = r.run(&w, Arch::Baseline);
    let gs = r.run(&w, Arch::GScalar);
    // A large majority of SFU lane-ops are gated by scalar execution.
    assert!(
        (gs.exec_sfu_fraction_of(&base)) < 0.2,
        "G-Scalar should gate most of BP's SFU lanes"
    );
    // Efficiency improves by a lot (paper: +79%).
    let gain = gs.ipc_per_watt() / base.ipc_per_watt();
    assert!(gain > 1.3, "BP gain {gain:.2} too small");
    // And IPC barely moves (paper: ~1%).
    let ipc = gs.stats.ipc() / base.stats.ipc();
    assert!(ipc > 0.9, "BP IPC ratio {ipc:.2}");
}

trait SfuFraction {
    fn exec_sfu_fraction_of(&self, base: &Self) -> f64;
}

impl SfuFraction for gscalar::core::RunReport {
    fn exec_sfu_fraction_of(&self, base: &Self) -> f64 {
        self.stats.exec.sfu_lane_ops as f64 / base.stats.exec.sfu_lane_ops.max(1) as f64
    }
}

#[test]
fn lbm_divergent_scalar_doubles_eligibility() {
    // Section 5.2: "Especially for LBM, supporting divergent scalar
    // instructions can double the number of instructions eligible for
    // scalar execution."
    let w = by_abbr("LBM", Scale::Full).expect("LBM exists");
    let base = runner().run(&w, Arch::Baseline);
    let i = &base.stats.instr;
    let without_div = i.eligible_alu + i.eligible_sfu + i.eligible_mem + i.eligible_half;
    assert!(
        i.eligible_divergent >= without_div,
        "LBM divergent-scalar ({}) should at least match all other classes ({})",
        i.eligible_divergent,
        without_div
    );
    // And LBM is heavily divergent (paper: ~50%).
    assert!(base.stats.divergent_fraction() > 0.35);
}

#[test]
fn scalar_rf_bank_is_a_bottleneck_only_for_prior_work() {
    // Section 4.1: the single scalar bank serializes bursts of scalar
    // instructions; G-Scalar's 16 per-bank BVR arrays do not.
    let w = by_abbr("BT", Scale::Full).expect("BT exists"); // scalar-heavy
    let r = runner();
    let alu = r.run(&w, Arch::AluScalar);
    let gs = r.run(&w, Arch::GScalar);
    assert!(
        alu.stats.pipe.scalar_bank_serializations > 0,
        "prior-work design must show scalar-bank serialization"
    );
    assert_eq!(
        gs.stats.pipe.scalar_bank_serializations, 0,
        "G-Scalar has no dedicated scalar bank to serialize on"
    );
}

#[test]
fn rf_scheme_ordering_holds_on_value_similar_benchmarks() {
    // Figure 12: ours < scalar-only < baseline; ours ≤ W-C on average.
    let r = runner();
    let mut ours_sum = 0.0;
    let mut wc_sum = 0.0;
    let mut scalar_sum = 0.0;
    let mut n = 0.0;
    for abbr in ["BT", "MQ", "MM", "MV"] {
        let w = by_abbr(abbr, Scale::Full).expect("benchmark exists");
        let stats = r.run(&w, Arch::GScalar).stats;
        let get = |s: RfScheme| rf_power_normalized(&stats, s, r.energy());
        let ours = get(RfScheme::ByteWise);
        let scalar = get(RfScheme::ScalarRf);
        assert!(ours < 1.0, "{abbr}: ours {ours} must beat the baseline");
        assert!(
            ours < scalar,
            "{abbr}: ours {ours} must beat scalar-only {scalar}"
        );
        ours_sum += ours;
        wc_sum += get(RfScheme::WarpedCompression);
        scalar_sum += scalar;
        n += 1.0;
    }
    assert!(
        ours_sum / n <= wc_sum / n + 0.02,
        "ours ({:.3}) should be at least on par with W-C ({:.3})",
        ours_sum / n,
        wc_sum / n
    );
    assert!(scalar_sum / n < 1.0);
}

#[test]
fn compression_ratio_comparison() {
    // Section 5.3: the byte-wise scheme's aggregate compression ratio
    // edges out BDI (paper: 2.17 vs 2.13).
    let r = runner();
    let mut raw = 0.0;
    let mut ours = 0.0;
    let mut bdi = 0.0;
    for abbr in ["BT", "BP", "MQ", "MM", "ST", "MV"] {
        let w = by_abbr(abbr, Scale::Full).expect("benchmark exists");
        let s = r.run(&w, Arch::Baseline).stats;
        raw += s.rf.raw_bytes as f64;
        ours += s.rf.ours_bytes as f64;
        bdi += s.rf.bdi_bytes as f64;
    }
    let ours_ratio = raw / ours;
    let bdi_ratio = raw / bdi;
    assert!(ours_ratio > 1.5, "ours ratio {ours_ratio:.2}");
    assert!(
        ours_ratio > bdi_ratio * 0.98,
        "ours ({ours_ratio:.2}) should be at least on par with BDI ({bdi_ratio:.2})"
    );
}

#[test]
fn decompress_move_overhead_is_small() {
    // Section 3.3: the hardware-assisted move adds ~2% dynamic
    // instructions on average; allow up to 6% per benchmark.
    let r = runner();
    for abbr in ["HW", "LBM", "SAD", "HS"] {
        let w = by_abbr(abbr, Scale::Full).expect("benchmark exists");
        let s = r.run(&w, Arch::GScalar).stats;
        let frac = s.instr.decompress_moves as f64 / s.instr.warp_instrs as f64;
        assert!(
            frac < 0.06,
            "{abbr}: decompress-move overhead {:.1}%",
            100.0 * frac
        );
    }
}

#[test]
fn three_cycle_latency_costs_little_ipc() {
    // Section 5.4: mean IPC degradation 1.7%; LC worst but still
    // acceptable. Allow ≤12% per benchmark at our occupancies.
    let r = runner();
    for abbr in ["BP", "MM", "ST", "LC"] {
        let w = by_abbr(abbr, Scale::Full).expect("benchmark exists");
        let base = r.run(&w, Arch::Baseline);
        let gs = r.run(&w, Arch::GScalar);
        let ratio = gs.stats.ipc() / base.stats.ipc();
        assert!(ratio > 0.88, "{abbr}: IPC ratio {ratio:.3}");
    }
}
