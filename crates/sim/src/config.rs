//! GPU and architecture configuration (the paper's Table 1).

use crate::cache::CacheGeometry;
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

    /// Checks the limits the simulator's bitmask state relies on and
    /// the values that would otherwise panic or hang a run later: lane
    /// masks, warp-slot masks, collector-slot masks and bank busy masks
    /// are `u64`, so lanes per warp, warp slots per SM, operand
    /// collectors and register banks each number 1 to 64; SMs, CTA
    /// slots, schedulers, ALU pipes, memory channels and pipe widths
    /// number at least 1; and the L1 and each L2 partition have a
    /// geometry [`crate::cache::Cache::new`] accepts. [`crate::Gpu::new`] refuses a
    /// config that fails this.
    ///
    /// # Errors
    ///
    /// Returns the first violated limit.
    pub fn validate(&self) -> Result<(), ConfigError> {
        const LIMIT: std::ops::RangeInclusive<usize> = 1..=64;
        if !LIMIT.contains(&self.warp_size) {
            return Err(ConfigError::WarpSize(self.warp_size));
        }
        if !LIMIT.contains(&self.warps_per_sm()) {
            return Err(ConfigError::WarpSlots(self.warps_per_sm()));
        }
        if !LIMIT.contains(&self.operand_collectors) {
            return Err(ConfigError::OperandCollectors(self.operand_collectors));
        }
        if !LIMIT.contains(&self.rf_banks) {
            return Err(ConfigError::RfBanks(self.rf_banks));
        }
        let zero = [
            (self.num_sms, ConfigError::NoSms),
            (self.ctas_per_sm, ConfigError::NoCtaSlots),
            (self.schedulers, ConfigError::NoSchedulers),
            (self.alu_pipes, ConfigError::NoAluPipes),
            (self.simt_width, ConfigError::NoSimtLanes),
            (self.sfu_width, ConfigError::NoSfuLanes),
            (self.mem_channels, ConfigError::NoMemChannels),
        ];
        if let Some(&(_, e)) = zero.iter().find(|(v, _)| *v == 0) {
            return Err(e);
        }
        let l1 = CacheGeometry {
            bytes: self.l1_bytes,
            ways: self.l1_ways,
            line_bytes: self.line_bytes,
        };
        if !l1.divides() {
            return Err(ConfigError::L1Geometry(l1));
        }
        let l2 = CacheGeometry {
            bytes: self.l2_bytes / self.mem_channels,
            ways: self.l2_ways,
            line_bytes: self.line_bytes,
        };
        if !l2.divides() {
            return Err(ConfigError::L2Geometry(l2));
        }
        Ok(())
    }
}

/// A [`GpuConfig`] value rejected by [`GpuConfig::validate`]; each
/// variant names its field and carries the offending value, if it is
/// not simply 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `warp_size` outside 1..=64 (lane masks are `u64`).
    WarpSize(usize),
    /// [`GpuConfig::warps_per_sm`] outside 1..=64 (the scheduler's
    /// readiness masks are `u64`).
    WarpSlots(usize),
    /// `operand_collectors` outside 1..=64 (collector-slot masks are
    /// `u64`).
    OperandCollectors(usize),
    /// `rf_banks` outside 1..=64 (bank busy masks are `u64`).
    RfBanks(usize),
    /// `num_sms` of 0: no CTA could launch.
    NoSms,
    /// `ctas_per_sm` of 0: no CTA could launch.
    NoCtaSlots,
    /// `schedulers` of 0: warp slots are dealt to schedulers by
    /// remainder.
    NoSchedulers,
    /// `alu_pipes` of 0: ALU work would never dispatch.
    NoAluPipes,
    /// `simt_width` of 0: ALU and LSU occupancy divide by it.
    NoSimtLanes,
    /// `sfu_width` of 0: SFU occupancy divides by it.
    NoSfuLanes,
    /// `mem_channels` of 0: the L2 is split into that many partitions.
    NoMemChannels,
    /// An L1 geometry that does not divide evenly into sets.
    L1Geometry(CacheGeometry),
    /// An L2-partition geometry (`l2_bytes / mem_channels`) that does
    /// not divide evenly into sets.
    L2Geometry(CacheGeometry),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (field, v) = match *self {
            ConfigError::WarpSize(v) => ("warp_size", Some(v)),
            ConfigError::WarpSlots(v) => ("threads_per_sm / warp_size", Some(v)),
            ConfigError::OperandCollectors(v) => ("operand_collectors", Some(v)),
            ConfigError::RfBanks(v) => ("rf_banks", Some(v)),
            ConfigError::NoSms => ("num_sms", None),
            ConfigError::NoCtaSlots => ("ctas_per_sm", None),
            ConfigError::NoSchedulers => ("schedulers", None),
            ConfigError::NoAluPipes => ("alu_pipes", None),
            ConfigError::NoSimtLanes => ("simt_width", None),
            ConfigError::NoSfuLanes => ("sfu_width", None),
            ConfigError::NoMemChannels => ("mem_channels", None),
            ConfigError::L1Geometry(g) => return write!(f, "the L1 geometry ({g}) {UNEVEN}"),
            ConfigError::L2Geometry(g) => {
                return write!(f, "the L2-partition geometry ({g}) {UNEVEN}")
            }
        };
        match v {
            Some(v) => write!(f, "{field} = {v} is outside 1..=64"),
            None => write!(f, "{field} = 0 must be at least 1"),
        }
    }
}

const UNEVEN: &str = "does not divide into sets of whole lines";

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
        // Table 1, and PAPER.md's module table (rows 2 and 3).
        let c = GpuConfig::gtx480();
        assert_eq!(c.num_sms, 15);
        assert_eq!(c.regs_per_sm * 4, 128 * 1024); // 128 KB
        assert_eq!(c.rf_banks, 16);
        // 8 SRAM arrays of 128 bits per bank: one 32 × 4-byte register.
        assert_eq!(c.arrays_per_bank(), 8);
        assert_eq!(c.arrays_per_bank() * 128 / 8, c.warp_size * 4);
        assert_eq!(c.operand_collectors, 16);
        assert_eq!(c.warp_size, 32);
        assert_eq!(c.schedulers, 2);
        assert_eq!(c.sched, SchedPolicy::Gto);
        // 2 × 16-lane ALU pipes, an LSU pipe as wide, a 4-lane SFU.
        assert_eq!(c.alu_pipes, 2);
        assert_eq!(c.simt_width, 16);
        assert_eq!(c.sfu_width, 4);
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
    fn warp_slots_are_bounded_by_the_readiness_masks() {
        let slots = |threads_per_sm, warp_size| {
            let mut c = GpuConfig::gtx480();
            c.threads_per_sm = threads_per_sm;
            c.warp_size = warp_size;
            c.validate()
        };
        assert_eq!(GpuConfig::gtx480().warps_per_sm(), 48);
        assert_eq!(slots(2048, 32), Ok(()));
        assert_eq!(slots(4096, 32), Err(ConfigError::WarpSlots(128)));
        assert_eq!(slots(16, 32), Err(ConfigError::WarpSlots(0)));
        // A zero warp size is reported as such, before any division.
        assert_eq!(slots(4096, 0), Err(ConfigError::WarpSize(0)));
        assert_eq!(
            ConfigError::WarpSlots(128).to_string(),
            "threads_per_sm / warp_size = 128 is outside 1..=64"
        );
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
    fn zero_counts_have_their_own_errors() {
        type Case = (fn(&mut GpuConfig), ConfigError, &'static str);
        let cases: [Case; 7] = [
            (|c| c.num_sms = 0, ConfigError::NoSms, "num_sms"),
            (
                |c| c.ctas_per_sm = 0,
                ConfigError::NoCtaSlots,
                "ctas_per_sm",
            ),
            (
                |c| c.schedulers = 0,
                ConfigError::NoSchedulers,
                "schedulers",
            ),
            (|c| c.alu_pipes = 0, ConfigError::NoAluPipes, "alu_pipes"),
            (|c| c.simt_width = 0, ConfigError::NoSimtLanes, "simt_width"),
            (|c| c.sfu_width = 0, ConfigError::NoSfuLanes, "sfu_width"),
            (
                |c| c.mem_channels = 0,
                ConfigError::NoMemChannels,
                "mem_channels",
            ),
        ];
        for (set, err, field) in cases {
            let mut c = GpuConfig::gtx480();
            set(&mut c);
            assert_eq!(c.validate(), Err(err));
            assert_eq!(err.to_string(), format!("{field} = 0 must be at least 1"));
        }
    }

    #[test]
    fn l1_geometry_must_divide_into_sets() {
        let l1 = |bytes, ways, line_bytes| {
            let mut c = GpuConfig::gtx480();
            (c.l1_bytes, c.l1_ways, c.line_bytes) = (bytes, ways, line_bytes);
            c.validate()
        };
        let bad = |bytes, ways, line_bytes| {
            Err(ConfigError::L1Geometry(CacheGeometry {
                bytes,
                ways,
                line_bytes,
            }))
        };
        assert_eq!(l1(16 * 1024, 4, 128), Ok(()));
        assert_eq!(l1(0, 4, 128), bad(0, 4, 128));
        assert_eq!(l1(16 * 1024, 0, 128), bad(16 * 1024, 0, 128));
        // 100 bytes is not a whole number of lines; 3 lines do not
        // split into 2-way sets; 2 lines cannot fill one 4-way set.
        assert_eq!(l1(100, 1, 64), bad(100, 1, 64));
        assert_eq!(l1(384, 2, 128), bad(384, 2, 128));
        assert_eq!(l1(256, 4, 128), bad(256, 4, 128));
        // A zero line size is an L1 error before the L2 sees it.
        assert_eq!(l1(16 * 1024, 4, 0), bad(16 * 1024, 4, 0));
        assert_eq!(
            bad(384, 2, 128).unwrap_err().to_string(),
            "the L1 geometry (384 bytes, 2 ways, 128-byte lines) does not divide into sets of whole lines"
        );
    }

    #[test]
    fn l2_partition_geometry_must_divide_into_sets() {
        // 768 KB over 5 channels is 157,286 bytes a partition: not a
        // whole number of lines.
        let mut c = GpuConfig::gtx480();
        c.mem_channels = 5;
        let part = CacheGeometry {
            bytes: 768 * 1024 / 5,
            ways: 8,
            line_bytes: 128,
        };
        assert_eq!(c.validate(), Err(ConfigError::L2Geometry(part)));
        assert!(ConfigError::L2Geometry(part)
            .to_string()
            .starts_with("the L2-partition geometry (157286 bytes, 8 ways"));
        c.mem_channels = 6;
        c.l2_ways = 3;
        assert!(matches!(c.validate(), Err(ConfigError::L2Geometry(_))));
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
