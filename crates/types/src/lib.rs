//! Common foundational types for the MEALib reproduction workspace.
//!
//! This crate defines the vocabulary shared by every subsystem simulator:
//! physical units ([`Cycles`], [`Seconds`], [`Joules`], [`Watts`],
//! [`Bytes`], [`Hertz`], [`BytesPerSec`], [`Gflops`]), address newtypes
//! ([`PhysAddr`], [`VirtAddr`], [`AddrRange`]), single-precision complex
//! arithmetic ([`Complex32`]) used by the FFT/STAP kernels, and the
//! [`geometric_mean`] the experiment harnesses aggregate with.
//!
//! # Examples
//!
//! ```
//! use mealib_types::{Bytes, Seconds, BytesPerSec};
//!
//! let moved = Bytes::from_gib(1);
//! let elapsed = Seconds::from_millis(250.0);
//! let bw: BytesPerSec = moved.per(elapsed);
//! assert!((bw.as_gib_per_sec() - 4.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod complex;
pub mod diag;
pub mod error;
pub mod interval;
pub mod par;
pub mod stats;
pub mod units;

pub use addr::{AddrRange, PhysAddr, VirtAddr};
pub use complex::Complex32;
pub use diag::{Diagnostic, ErrorCode, Report, Severity, Span};
pub use error::ConfigError;
pub use interval::Interval;
pub use par::{auto_jobs, par_map};
pub use stats::geometric_mean;
pub use units::{Bytes, BytesPerSec, Cycles, Gflops, Hertz, Joules, Seconds, Watts};
