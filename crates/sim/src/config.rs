//! GPU and architecture configuration (the paper's Table 1).

use crate::scheduler::SchedPolicy;

/// Timing/resource configuration of the modeled GPU.
///
/// Defaults come from [`GpuConfig::gtx480`], matching the paper's
/// Table 1 (an NVIDIA GTX 480 / Fermi-class part simulated on
/// GPGPU-Sim 3.2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Threads per warp (32; 64 for the Figure 10 study).
    pub warp_size: usize,
    /// 4-byte registers per SM (32,768 = 128 KB).
    pub regs_per_sm: usize,
    /// Register file banks per SM.
    pub rf_banks: usize,
    /// Operand collectors per SM.
    pub operand_collectors: usize,
    /// Warp schedulers per SM (each issues up to one instruction/cycle).
    pub schedulers: usize,
    /// SIMT execution pipeline width (lanes per ALU/LSU pipe).
    pub simt_width: usize,
    /// Number of ALU pipelines per SM.
    pub alu_pipes: usize,
    /// SFU pipeline width (lanes).
    pub sfu_width: usize,
    /// Maximum resident threads per SM.
    pub threads_per_sm: usize,
    /// Maximum resident CTAs per SM.
    pub ctas_per_sm: usize,
    /// Maximum shared memory per SM in bytes.
    pub shared_mem_per_sm: u32,
    /// L1 data cache size per SM in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// Unified L2 size in bytes (partitioned across memory channels).
    pub l2_bytes: usize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// Memory channels (L2 partitions / DRAM channels).
    pub mem_channels: usize,
    /// SM clock in Hz.
    pub sm_clock_hz: f64,
    /// Interconnect clock in Hz.
    pub noc_clock_hz: f64,
    /// Warp scheduling policy.
    pub sched: SchedPolicy,
    /// Timing latencies.
    pub lat: Latencies,
    /// Unused: nothing reads it, and every value runs the same engine.
    /// It stays because the `benchmark/` package still writes it, and
    /// because this struct's `Debug` text is the manifest
    /// `config_digest` and the result-cache key (DESIGN.md "Cache-key
    /// derivation"): dropping the field would change every digest.
    pub exec_threads: usize,
    /// What-if idealization knobs (all off for real hardware models).
    pub ideal: IdealConfig,
}

/// Idealization overrides for what-if studies (`gscalar-analyze`):
/// each knob removes one bottleneck from the timing model so an
/// analytic projection computed from the CPI stack can be validated
/// against a real re-simulation. All knobs default to off.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealConfig {
    /// Every global load hits in L1 (stores keep their write-through
    /// timing). Models an infinite, pre-warmed L1.
    pub perfect_l1: bool,
    /// Branches never diverge: when any active lane takes a branch,
    /// every active lane follows it, so the SIMT stack never splits.
    /// This changes *functional* execution (lanes run instructions they
    /// would have skipped), which is acceptable for a timing what-if;
    /// loop exits still converge because forced-active lanes keep
    /// updating their own induction state.
    pub uniform_branches: bool,
    /// Special-function operations complete in a single cycle.
    pub zero_latency_sfu: bool,
    /// Unbounded MSHRs. The modeled MSHR file is *already* unbounded
    /// (misses merge without a capacity limit), so this knob changes
    /// nothing — it exists so the what-if table can state that fact
    /// with a measured 1.0× speedup instead of an assumption.
    pub infinite_mshrs: bool,
}

/// Pipeline and memory latencies, in SM cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Simple integer ALU result latency.
    pub int_alu: u64,
    /// Integer multiply / multiply-add.
    pub int_mul: u64,
    /// Integer divide (long-latency; LC's sensitivity in Section 5.4).
    pub int_div: u64,
    /// Floating-point add/mul/FMA.
    pub fp_alu: u64,
    /// Special-function operation.
    pub sfu: u64,
    /// Shared-memory access.
    pub shared_mem: u64,
    /// L1 hit.
    pub l1_hit: u64,
    /// Additional latency L1 → L2 (one-way NoC + L2 access).
    pub l2: u64,
    /// Additional latency L2 → DRAM.
    pub dram: u64,
    /// DRAM channel service interval per 128-byte request (bandwidth).
    pub dram_service: u64,
    /// L2 partition service interval per request.
    pub l2_service: u64,
}

impl GpuConfig {
    /// The paper's Table 1 configuration (GTX 480-like).
    #[must_use]
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 15,
            warp_size: 32,
            regs_per_sm: 32 * 1024,
            rf_banks: 16,
            operand_collectors: 16,
            schedulers: 2,
            simt_width: 16,
            alu_pipes: 2,
            sfu_width: 4,
            threads_per_sm: 1536,
            ctas_per_sm: 8,
            shared_mem_per_sm: 48 * 1024,
            l1_bytes: 16 * 1024,
            l1_ways: 4,
            l2_bytes: 768 * 1024,
            l2_ways: 8,
            line_bytes: 128,
            mem_channels: 6,
            sm_clock_hz: 1.4e9,
            noc_clock_hz: 0.7e9,
            sched: SchedPolicy::Gto,
            lat: Latencies {
                int_alu: 8,
                int_mul: 12,
                int_div: 120,
                fp_alu: 10,
                sfu: 24,
                shared_mem: 26,
                l1_hit: 32,
                l2: 120,
                dram: 220,
                dram_service: 8,
                l2_service: 2,
            },
            exec_threads: 1,
            ideal: IdealConfig::default(),
        }
    }

    /// A scaled-down configuration for fast unit tests: one SM, small
    /// caches, short latencies. Timing phenomena (banks, divergence,
    /// scalar execution) are unchanged.
    #[must_use]
    pub fn test_small() -> Self {
        let mut c = Self::gtx480();
        c.num_sms = 1;
        c.threads_per_sm = 512;
        c.ctas_per_sm = 4;
        c.l1_bytes = 4 * 1024;
        c.l2_bytes = 64 * 1024;
        c.mem_channels = 2;
        c
    }

    /// Vector registers per SM (each holds `warp_size` 4-byte values).
    #[must_use]
    pub fn vector_regs_per_sm(&self) -> usize {
        self.regs_per_sm / self.warp_size
    }

    /// Vector registers per bank.
    #[must_use]
    pub fn vector_regs_per_bank(&self) -> usize {
        self.vector_regs_per_sm() / self.rf_banks
    }

    /// Maximum resident warps per SM.
    #[must_use]
    pub fn warps_per_sm(&self) -> usize {
        self.threads_per_sm / self.warp_size
    }

    /// SRAM data arrays per register-file bank (one per byte plane per
    /// 16-lane chunk; 8 for a 32-wide warp).
    #[must_use]
    pub fn arrays_per_bank(&self) -> usize {
        4 * self.warp_size.div_ceil(gscalar_compress::CHUNK_LANES)
    }

    /// Checks the limits the simulator's bitmask state relies on: lane
    /// masks, collector-slot masks and bank busy masks are `u64`, so
    /// warps, operand collectors and register banks each number 1 to
    /// 64. [`crate::Gpu::new`] refuses a config that fails this.
    ///
    /// # Errors
    ///
    /// Returns the first violated limit.
    pub fn validate(&self) -> Result<(), ConfigError> {
        const LIMIT: std::ops::RangeInclusive<usize> = 1..=64;
        if !LIMIT.contains(&self.warp_size) {
            return Err(ConfigError::WarpSize(self.warp_size));
        }
        if !LIMIT.contains(&self.operand_collectors) {
            return Err(ConfigError::OperandCollectors(self.operand_collectors));
        }
        if !LIMIT.contains(&self.rf_banks) {
            return Err(ConfigError::RfBanks(self.rf_banks));
        }
        Ok(())
    }
}

/// A [`GpuConfig`] limit violation found by [`GpuConfig::validate`];
/// each variant carries the offending value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `warp_size` outside 1..=64 (lane masks are `u64`).
    WarpSize(usize),
    /// `operand_collectors` outside 1..=64 (collector-slot masks are
    /// `u64`).
    OperandCollectors(usize),
    /// `rf_banks` outside 1..=64 (bank busy masks are `u64`).
    RfBanks(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (field, v) = match *self {
            ConfigError::WarpSize(v) => ("warp_size", v),
            ConfigError::OperandCollectors(v) => ("operand_collectors", v),
            ConfigError::RfBanks(v) => ("rf_banks", v),
        };
        write!(f, "{field} = {v} is outside 1..=64")
    }
}

impl std::error::Error for ConfigError {}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

/// Architecture feature flags distinguishing the paper's evaluated
/// designs (baseline, "ALU scalar" prior work, G-Scalar variants).
///
/// Presets live in `gscalar-core`; the simulator only consumes flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchConfig {
    /// Human-readable name for reports.
    pub name: String,
    /// Scalar execution of non-divergent ALU instructions.
    pub scalar_alu: bool,
    /// Scalar execution of non-divergent SFU instructions.
    pub scalar_sfu: bool,
    /// Scalar execution of non-divergent memory instructions.
    pub scalar_mem: bool,
    /// Half-warp scalar execution (16-lane chunks, non-divergent only).
    pub scalar_half: bool,
    /// Scalar execution of divergent instructions (Section 4.2).
    pub scalar_divergent: bool,
    /// Byte-wise compressed register file storage (Section 3).
    pub compression: bool,
    /// Prior-work dedicated scalar register file: one extra bank that
    /// serves *all* scalar operands (the Section 4.1 bottleneck).
    pub dedicated_scalar_rf: bool,
    /// Extra pipeline cycles before dependents may issue (the paper adds
    /// 3: compress, decompress, and EBR/BVR read stages).
    pub extra_latency: u64,
    /// Compiler-assisted decompress-move elision (Section 3.3): skip
    /// the special move when liveness analysis proves the destination's
    /// previous value dead.
    pub compiler_assisted_moves: bool,
    /// Let scalar/half-scalar instructions release the dispatch port in
    /// one cycle instead of the full multi-cycle warp occupancy. The
    /// paper's evaluated design clock-gates lanes but keeps normal
    /// dispatch timing (Figure 11's IPC never exceeds baseline), so
    /// this defaults to false; Section 6 notes the 1-cycle opportunity,
    /// measured by the `abl_fast_dispatch` study.
    pub scalar_fast_dispatch: bool,
}

impl ArchConfig {
    /// The unmodified baseline GPU.
    #[must_use]
    pub fn baseline() -> Self {
        ArchConfig {
            name: "baseline".into(),
            scalar_alu: false,
            scalar_sfu: false,
            scalar_mem: false,
            scalar_half: false,
            scalar_divergent: false,
            compression: false,
            dedicated_scalar_rf: false,
            extra_latency: 0,
            compiler_assisted_moves: false,
            scalar_fast_dispatch: false,
        }
    }

    /// Whether any scalar-execution feature is enabled.
    #[must_use]
    pub fn any_scalar(&self) -> bool {
        self.scalar_alu || self.scalar_sfu || self.scalar_mem || self.scalar_divergent
    }
}

impl Default for ArchConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.regs_per_sm * 4, 128 * 1024); // 128 KB
        assert_eq!(c.rf_banks, 16);
        assert_eq!(c.operand_collectors, 16);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.schedulers, 2);
        assert_eq!(c.simt_width, 16);
        assert_eq!(c.threads_per_sm, 1536);
        assert_eq!(c.ctas_per_sm, 8);
        assert_eq!(c.l1_bytes, 16 * 1024);
        assert_eq!(c.l2_bytes, 768 * 1024);
        assert_eq!(c.mem_channels, 6);
        assert!((c.sm_clock_hz - 1.4e9).abs() < 1.0);
        assert!((c.noc_clock_hz - 0.7e9).abs() < 1.0);
    }

    #[test]
    fn derived_quantities() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.vector_regs_per_sm(), 1024);
        assert_eq!(c.vector_regs_per_bank(), 64);
        assert_eq!(c.warps_per_sm(), 48);
        assert_eq!(c.arrays_per_bank(), 8);
    }

    #[test]
    fn presets_validate() {
        assert_eq!(GpuConfig::gtx480().validate(), Ok(()));
        assert_eq!(GpuConfig::test_small().validate(), Ok(()));
        let mut wide = GpuConfig::gtx480();
        wide.warp_size = 64;
        wide.operand_collectors = 64;
        wide.rf_banks = 64;
        assert_eq!(wide.validate(), Ok(()));
    }

    #[test]
    fn each_limit_has_its_own_error() {
        type Case = (fn(&mut GpuConfig, usize), fn(usize) -> ConfigError);
        let cases: [Case; 3] = [
            (|c, v| c.warp_size = v, ConfigError::WarpSize),
            (
                |c, v| c.operand_collectors = v,
                ConfigError::OperandCollectors,
            ),
            (|c, v| c.rf_banks = v, ConfigError::RfBanks),
        ];
        for (set, err) in cases {
            for v in [0, 65, 1000] {
                let mut c = GpuConfig::gtx480();
                set(&mut c, v);
                assert_eq!(c.validate(), Err(err(v)));
                assert!(err(v).to_string().contains(&v.to_string()));
            }
        }
        assert_eq!(
            ConfigError::RfBanks(65).to_string(),
            "rf_banks = 65 is outside 1..=64"
        );
    }

    #[test]
    fn baseline_arch_has_nothing_enabled() {
        let a = ArchConfig::baseline();
        assert!(!a.any_scalar());
        assert!(!a.compression);
        assert_eq!(a.extra_latency, 0);
    }

    #[test]
    fn idealizations_default_off() {
        // Every preset must model the real machine unless a what-if
        // study explicitly flips a knob.
        for c in [GpuConfig::gtx480(), GpuConfig::test_small()] {
            assert_eq!(c.ideal, IdealConfig::default());
            let IdealConfig {
                perfect_l1,
                uniform_branches,
                zero_latency_sfu,
                infinite_mshrs,
            } = c.ideal;
            assert!(!perfect_l1);
            assert!(!uniform_branches);
            assert!(!zero_latency_sfu);
            assert!(!infinite_mshrs);
        }
    }
}
