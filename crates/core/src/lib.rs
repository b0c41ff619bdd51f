//! # MEALib — MEmory Accelerated Library
//!
//! The public API of the MEALib reproduction (MICRO-48 2015): library
//! operations with MKL-shaped semantics that execute *functionally* on
//! simulated accelerator-managed memory while every invocation is priced
//! by the full hardware model (3D-stacked DRAM + tiled accelerator layer
//! + configuration unit + host-side invocation overheads).
//!
//! The flow mirrors the paper's Figure 7:
//!
//! 1. allocate named buffers in the physically contiguous data space
//!    ([`Mealib::alloc_f32`] / [`Mealib::alloc_c32`]) and initialize them
//!    from the host ([`Mealib::write_f32`] …);
//! 2. call a library operation ([`Mealib::saxpy`], [`Mealib::fft`], …):
//!    the runtime builds the TDL descriptor, flushes the cache, writes
//!    the command space, and the Configuration Unit model executes it;
//! 3. read results back ([`Mealib::read_f32`] …) and inspect the
//!    [`OpReport`] for modeled time, energy, and throughput.
//!
//! # Examples
//!
//! ```
//! use mealib::Mealib;
//!
//! let mut ml = Mealib::builder().build();
//! ml.alloc_f32("x", 1024)?;
//! ml.alloc_f32("y", 1024)?;
//! ml.write_f32("x", &vec![1.0; 1024])?;
//! ml.write_f32("y", &vec![2.0; 1024])?;
//! let report = ml.saxpy(3.0, "x", "y")?;
//! assert_eq!(ml.read_f32("y")?[0], 5.0);
//! assert!(report.time().get() > 0.0);
//! # Ok::<(), mealib::MealibError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffers;
mod facade;
mod ops;

pub use facade::{Mealib, MealibBuilder, MealibError, OpReport};
pub use mealib_accel::AccelParams;
pub use mealib_obs::{Breakdown, Counter, Obs, Phase, TraceRecorder};
pub use mealib_runtime::{AccPlan, RunReport, Sanitizer, StackId, VerifyMode};
pub use mealib_types::Complex32;

/// Convenience re-exports for downstream code.
pub mod prelude {
    pub use crate::{Mealib, MealibBuilder, MealibError, OpReport};
    pub use mealib_kernels::CsrMatrix;
    pub use mealib_obs::{Breakdown, Obs, TraceRecorder};
    pub use mealib_types::{Bytes, Complex32, Joules, Seconds, Watts};
}
