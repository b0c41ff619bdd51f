//! Reference numerical kernels for the MEALib reproduction.
//!
//! Table 1 of the paper lists the memory-bounded MKL operations that MEALib
//! accelerates: `AXPY`, `DOT`, `GEMV`, `SPMV`, `RESMP` (data resampling),
//! `FFT`, and `RESHP` (matrix transpose). Table 4 adds the compute-bounded
//! routines the STAP application keeps on the host: `CHERK` and `CTRSM`,
//! plus the complex inner product `CDOTC`.
//!
//! This crate implements every one of those operations from scratch, in two
//! flavours where it matters for the paper's Figure 1 experiment:
//!
//! * an **optimized** variant (blocked/stride-aware, the stand-in for the
//!   vendor library), and
//! * a **naive** variant (the "original code" a programmer would write
//!   before adopting a library).
//!
//! Both flavours are real functional implementations — they are what the
//! accelerator models in `mealib-accel` execute to produce results — while
//! the *performance* of each flavour on each platform is modeled by
//! `mealib-host`.
//!
//! Operation counts live with the models that price them: `mealib-accel`'s
//! `AccelModel` for the accelerated kernels, and `blas3`'s `cherk_flops` /
//! `ctrsm_flops` for the host-side STAP phases.
//!
//! # Examples
//!
//! ```
//! use mealib_kernels::blas1::{saxpy, sdot};
//!
//! let x = vec![1.0_f32, 2.0, 3.0];
//! let mut y = vec![10.0_f32, 20.0, 30.0];
//! saxpy(2.0, &x, &mut y);
//! assert_eq!(y, vec![12.0, 24.0, 36.0]);
//! assert_eq!(sdot(&x, &y), 12.0 + 48.0 + 108.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blas1;
pub mod blas2;
pub mod blas3;
pub mod fft;
pub mod resample;
pub mod reshape;
pub mod sparse;

pub use fft::FftPlan;
pub use sparse::CsrMatrix;
