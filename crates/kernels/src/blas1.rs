//! Level-1 BLAS: vector-vector operations.
//!
//! Covers the MKL entry points the paper accelerates or uses in STAP:
//! `cblas_saxpy`, `cblas_sdot`, and `cblas_cdotc_sub`, together with
//! strided variants (MKL's `incx`/`incy` parameters map onto the
//! accelerator API's "access stride" configuration field, §2.2).

use mealib_types::Complex32;

/// `y ← α·x + y` over contiguous slices.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn saxpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "saxpy operands must have equal length");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Strided `y ← α·x + y`, MKL-style: processes `n` logical elements where
/// element `i` of `x` lives at `x[i * incx]` and likewise for `y`.
///
/// # Panics
///
/// Panics if either stride is zero or a slice is too short for `n`
/// elements at its stride.
pub fn saxpy_strided(n: usize, alpha: f32, x: &[f32], incx: usize, y: &mut [f32], incy: usize) {
    check_strided(n, x.len(), incx, "x");
    check_strided(n, y.len(), incy, "y");
    for i in 0..n {
        y[i * incy] += alpha * x[i * incx];
    }
}

/// Dot product `xᵀ·y` over contiguous slices.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn sdot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "sdot operands must have equal length");
    // Eight-way partial sums: mirrors how a vectorized library (and the DOT
    // accelerator's PE array) reduces, and keeps the rounding behaviour
    // stable across input orderings.
    let mut acc = [0.0_f32; 8];
    let chunks = x.len() / 8;
    for c in 0..chunks {
        #[allow(clippy::needless_range_loop)] // lane indexing mirrors the SIMD shape
        for lane in 0..8 {
            let i = c * 8 + lane;
            acc[lane] += x[i] * y[i];
        }
    }
    let mut tail = 0.0;
    for i in chunks * 8..x.len() {
        tail += x[i] * y[i];
    }
    acc.iter().sum::<f32>() + tail
}

/// Strided dot product of `n` logical elements.
///
/// # Panics
///
/// Panics if either stride is zero or a slice is too short.
pub fn sdot_strided(n: usize, x: &[f32], incx: usize, y: &[f32], incy: usize) -> f32 {
    check_strided(n, x.len(), incx, "x");
    check_strided(n, y.len(), incy, "y");
    (0..n).map(|i| x[i * incx] * y[i * incy]).sum()
}

/// Conjugated complex dot product `Σ conj(x[i])·y[i]` — MKL's
/// `cblas_cdotc_sub`, the kernel that dominates STAP (Fig. 14b).
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn cdotc(x: &[Complex32], y: &[Complex32]) -> Complex32 {
    assert_eq!(x.len(), y.len(), "cdotc operands must have equal length");
    x.iter().zip(y).map(|(a, b)| a.conj() * *b).sum()
}

/// Strided conjugated complex dot product of `n` logical elements.
///
/// In STAP's adaptive-weight application the snapshot vector is accessed
/// with a large stride (`TBS` in Listing 1), which is why the accelerator
/// API keeps stride as a first-class parameter.
///
/// # Panics
///
/// Panics if either stride is zero or a slice is too short.
pub fn cdotc_strided(
    n: usize,
    x: &[Complex32],
    incx: usize,
    y: &[Complex32],
    incy: usize,
) -> Complex32 {
    check_strided(n, x.len(), incx, "x");
    check_strided(n, y.len(), incy, "y");
    (0..n).map(|i| x[i * incx].conj() * y[i * incy]).sum()
}

/// Unconjugated complex dot product `Σ x[i]·y[i]`.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn cdotu(x: &[Complex32], y: &[Complex32]) -> Complex32 {
    assert_eq!(x.len(), y.len(), "cdotu operands must have equal length");
    x.iter().zip(y).map(|(a, b)| *a * *b).sum()
}

/// Complex `y ← α·x + y`.
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn caxpy(alpha: Complex32, x: &[Complex32], y: &mut [Complex32]) {
    assert_eq!(x.len(), y.len(), "caxpy operands must have equal length");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * *xi;
    }
}

/// Scales a real vector in place: `x ← α·x`.
pub fn sscal(alpha: f32, x: &mut [f32]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Naive single-accumulator dot product — the "original code" baseline of
/// Figure 1 (sequential, no partial sums, no vectorization model).
///
/// # Panics
///
/// Panics if `x` and `y` have different lengths.
pub fn sdot_naive(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "sdot operands must have equal length");
    let mut acc = 0.0;
    for i in 0..x.len() {
        acc += x[i] * y[i];
    }
    acc
}

fn check_strided(n: usize, len: usize, inc: usize, name: &str) {
    assert!(inc > 0, "stride of `{name}` must be nonzero");
    if n > 0 {
        assert!(
            (n - 1) * inc < len,
            "slice `{name}` too short: need index {} but len is {len}",
            (n - 1) * inc
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saxpy_matches_definition() {
        let x = [1.0, -2.0, 0.5];
        let mut y = [1.0, 1.0, 1.0];
        saxpy(3.0, &x, &mut y);
        assert_eq!(y, [4.0, -5.0, 2.5]);
    }

    #[test]
    fn saxpy_strided_touches_only_strided_elements() {
        let x = [1.0, 9.0, 2.0, 9.0];
        let mut y = [0.0; 6];
        saxpy_strided(2, 1.0, &x, 2, &mut y, 3);
        assert_eq!(y, [1.0, 0.0, 0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn sdot_agrees_with_naive_on_small_inputs() {
        let x: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
        let y: Vec<f32> = (0..37).map(|i| (i as f32 * 0.11).cos()).collect();
        let fast = sdot(&x, &y);
        let slow = sdot_naive(&x, &y);
        assert!((fast - slow).abs() < 1e-4, "{fast} vs {slow}");
    }

    #[test]
    fn sdot_empty_is_zero() {
        assert_eq!(sdot(&[], &[]), 0.0);
        assert_eq!(sdot_strided(0, &[], 1, &[], 1), 0.0);
    }

    #[test]
    fn cdotc_conjugates_first_argument() {
        let x = [Complex32::new(0.0, 1.0)];
        let y = [Complex32::new(0.0, 1.0)];
        // conj(i) * i = -i * i = 1
        assert_eq!(cdotc(&x, &y), Complex32::ONE);
        // unconjugated: i * i = -1
        assert_eq!(cdotu(&x, &y), Complex32::new(-1.0, 0.0));
    }

    #[test]
    fn cdotc_strided_matches_gathered_dense() {
        let x: Vec<Complex32> = (0..12)
            .map(|i| Complex32::new(i as f32, -(i as f32)))
            .collect();
        let y: Vec<Complex32> = (0..12)
            .map(|i| Complex32::new(1.0, i as f32 * 0.5))
            .collect();
        let strided = cdotc_strided(4, &x, 3, &y, 2);
        let xg: Vec<Complex32> = (0..4).map(|i| x[i * 3]).collect();
        let yg: Vec<Complex32> = (0..4).map(|i| y[i * 2]).collect();
        let dense = cdotc(&xg, &yg);
        assert!((strided - dense).abs() < 1e-5);
    }

    #[test]
    fn caxpy_and_sscal() {
        let mut y = [Complex32::ONE, Complex32::I];
        caxpy(Complex32::I, &[Complex32::ONE, Complex32::ONE], &mut y);
        assert_eq!(y[0], Complex32::new(1.0, 1.0));
        assert_eq!(y[1], Complex32::new(0.0, 2.0));

        let mut x = [2.0, -4.0];
        sscal(0.5, &mut x);
        assert_eq!(x, [1.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn saxpy_length_mismatch_panics() {
        let mut y = [0.0; 2];
        saxpy(1.0, &[1.0; 3], &mut y);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn strided_bounds_check() {
        let _ = sdot_strided(3, &[1.0; 4], 2, &[1.0; 8], 1);
    }

    #[test]
    #[should_panic(expected = "stride of `x` must be nonzero")]
    fn zero_stride_rejected() {
        let _ = sdot_strided(1, &[1.0], 0, &[1.0], 1);
    }
}
