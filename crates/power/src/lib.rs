//! GPUWattch-style event-energy power model for the G-Scalar
//! reproduction.
//!
//! Consumes the scheme-independent activity counters produced by
//! [`gscalar_sim`] and converts them to watts:
//!
//! * [`EnergyModel`] — per-event energies encoding the paper's key
//!   relationships (SFU = 3–24× FP, BVR = 5.2% of a full RF access,
//!   Table 3 codec energies);
//! * [`chip_power`] — the full chip breakdown and IPC/W (Figure 11);
//! * [`rf_energy_pj`] + [`RfScheme`] — register-file dynamic energy
//!   under all four designs of Figure 12 from a single simulation run;
//! * [`synthesis`] — Table 3 and the Section 5.1 area/power overheads;
//! * [`telemetry`] — interval-sampled per-component power timelines
//!   guaranteed to integrate back to [`model::total_energy_pj`].
//!
//! # Examples
//!
//! ```
//! use gscalar_power::{chip_power, EnergyModel, RfScheme};
//! use gscalar_sim::{GpuConfig, Stats};
//!
//! let mut stats = Stats::default();
//! stats.cycles = 10_000;
//! stats.instr.thread_instrs = 200_000;
//! let report = chip_power(
//!     &stats,
//!     &GpuConfig::gtx480(),
//!     RfScheme::Baseline,
//!     false,
//!     &EnergyModel::default_40nm(),
//! );
//! assert!(report.total_w() > 0.0);
//! ```

pub mod energy;
pub mod model;
pub mod synthesis;
pub mod telemetry;

pub use energy::EnergyModel;
pub use model::{
    chip_power, component_energies_pj, rf_energy_pj, rf_power_normalized, sfu_power_w,
    total_energy_pj, PowerReport, RfScheme,
};
pub use telemetry::{PowerInterval, PowerTimeline};
