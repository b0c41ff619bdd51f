//! The MEALib accelerator layer (§2.2): tiled memory-side accelerators,
//! the configuration infrastructure, and their performance/power/area
//! models.
//!
//! The layer sits below the HMC logic base and contains one tile per
//! vault; each tile holds a Local Memory, a Network Controller on the
//! mesh NoC, and a cluster of accelerator PEs (AXPY, DOT, GEMV, SPMV,
//! RESMP, FFT; RESHP lives on the DRAM logic layer). A centralized
//! Configuration Unit fetches the accelerator descriptor from DRAM,
//! decodes it, configures the tile switches, and sequences passes and
//! hardware loops.
//!
//! Modeling split:
//!
//! * **Functional** results are produced by `mealib-kernels` (wired up in
//!   the `mealib` core crate, where the simulated data space lives).
//! * **Timing** is `max(memory time, compute time)`: memory time comes
//!   from the `mealib-memsim` analytic model over the accelerator's
//!   [`pattern`](model::AccelModel::access_pattern); compute time from the
//!   PE array's FLOPs/cycle.
//! * **Power/area** come from per-accelerator synthesis-style constants
//!   ([`power`]) calibrated against Table 5 of the paper, plus live DRAM
//!   energy from the memory model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod cu;
pub mod design_space;
pub mod hw;
pub mod layer;
pub mod model;
pub mod params;
pub mod power;
pub mod trace_exec;

pub use hw::AccelHwConfig;
pub use layer::AcceleratorLayer;
pub use model::{AccelModel, ExecReport};
pub use params::AccelParams;
