//! System-level evaluation orchestrator.
//!
//! Reproduces the hybrid methodology of §4: host platforms are priced by
//! the roofline models of `mealib-host`, accelerated platforms (PSAS,
//! MSAS, MEALib) by the accelerator-layer models of `mealib-accel` over
//! the appropriate memory substrate, and this crate combines them into
//! the cross-platform comparisons behind Figures 9 and 10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod differential;
pub mod experiment;
pub mod platforms;
pub mod preflight;
pub mod report;

pub use differential::{plausible_params, run_sanitizer_experiment, SessionVerdict};
pub use experiment::{run_experiment, ExperimentReport, OpComparison, PlatformResult};
pub use platforms::AcceleratedPlatform;
pub use preflight::{preflight, preflight_checked};
pub use report::{sparkline, TextTable};
