//! Cycle-level DRAM and 3D-stacked memory (HMC-like) simulator.
//!
//! This crate stands in for the paper's "in-house cycle-accurate 3D-stacked
//! DRAM simulator (where the basic parameters of 3D-stacked DRAM are
//! obtained from CACTI-3DD)" (§4.2). It provides:
//!
//! * [`timing::DramTiming`] / [`energy::DramEnergy`] — device parameters
//!   with presets for DDR3-1600 DIMMs and an HMC-like stacked device;
//! * [`address::AddressMapping`] — physical-address decoding, including
//!   the channel-interleaved and *asymmetric* modes the paper manipulates
//!   to carve a contiguous DIMM out of a commodity system (§4.2);
//! * [`engine`] — a dual-engine bank/vault/bus simulator behind one
//!   [`engine::simulate`] entry point: a cycle-accurate oracle and a
//!   bit-exact event-driven epoch-skipping fast engine (the default),
//!   replaying SoA [`trace::TraceBuffer`] request traces;
//! * [`tenancy`] — deterministic multi-tenant interleaving and
//!   [`tenancy::simulate_tenants`], the tagged sibling of `simulate`.
//!   Per-tenant attribution and the cycle-window timeline are per-unit
//!   sinks both engines fill, so tagged and profiled replays run on
//!   whichever engine [`engine::SimOptions`] names and `DualCheck`
//!   compares the two on them;
//! * [`pattern::AccessPattern`] + [`analytic`] — closed-form estimates of
//!   the same quantities for the regular streams accelerators generate,
//!   validated against the cycle engine in tests;
//! * [`stats::TraceStats`] — achieved bandwidth, row-buffer behaviour,
//!   and energy for either path.
//!
//! # Examples
//!
//! ```
//! use mealib_memsim::config::MemoryConfig;
//! use mealib_memsim::pattern::AccessPattern;
//! use mealib_memsim::analytic::try_estimate;
//!
//! let hmc = MemoryConfig::hmc_stack();
//! let stats = try_estimate(&hmc, &AccessPattern::sequential_read(1 << 30)).unwrap();
//! // A full-stack sequential stream should come close to peak bandwidth.
//! assert!(stats.achieved_bandwidth().as_gb_per_sec() > 300.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address;
pub mod analytic;
pub mod bounds;
pub mod config;
pub mod energy;
pub mod engine;
mod fast;
pub mod pattern;
mod runs;
pub mod stats;
pub mod tenancy;
pub mod timing;
pub mod trace;

// The integration proptests' strategies, shared with the unit tests;
// they name this crate `mealib_memsim`, as the integration tests do.
#[cfg(test)]
extern crate self as mealib_memsim;
#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod strategies;

pub use address::AddressMapping;
pub use config::MemoryConfig;
pub use engine::{
    simulate, EngineKind, EngineRun, LatencyHistogram, Op, Request, SimError, SimOptions,
    TenantStats, VaultStats,
};
pub use pattern::AccessPattern;
pub use stats::TraceStats;
pub use tenancy::{interleave_tenants, simulate_tenants, TenantStream};
pub use trace::TraceBuffer;
