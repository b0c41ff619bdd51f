//! Level-2 BLAS: matrix-vector operations (`cblas_sgemv`).

/// Row-major dense matrix view used by the Level-2/Level-3 kernels.
///
/// The view borrows its backing storage, so callers decide allocation and
/// placement (C-CALLER-CONTROL). `lda` (leading dimension) may exceed
/// `cols` to describe a padded or sub-matrix, exactly as in the CBLAS
/// interface.
#[derive(Debug, Clone, Copy)]
pub struct MatrixRef<'a, T> {
    data: &'a [T],
    rows: usize,
    cols: usize,
    lda: usize,
}

impl<'a, T: Copy> MatrixRef<'a, T> {
    /// Wraps a row-major slice as an `rows × cols` matrix with leading
    /// dimension `lda`.
    ///
    /// # Panics
    ///
    /// Panics if `lda < cols` or the slice is too short to hold the
    /// described matrix.
    pub fn new(data: &'a [T], rows: usize, cols: usize, lda: usize) -> Self {
        assert!(lda >= cols, "leading dimension smaller than column count");
        if rows > 0 {
            assert!(
                (rows - 1) * lda + cols <= data.len(),
                "slice too short for {rows}x{cols} matrix with lda {lda}"
            );
        }
        Self {
            data,
            rows,
            cols,
            lda,
        }
    }

    /// Wraps a dense row-major slice (`lda == cols`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn dense(data: &'a [T], rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "dense matrix length mismatch");
        Self::new(data, rows, cols, cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> T {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.lda + col]
    }

    /// The `row`-th row as a contiguous slice of `cols` elements.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline]
    pub fn row(&self, row: usize) -> &'a [T] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.lda..row * self.lda + self.cols]
    }
}

/// `y ← α·A·x + β·y` for a row-major matrix `A` (no transpose).
///
/// # Panics
///
/// Panics if `x.len() != a.cols()` or `y.len() != a.rows()`.
pub fn sgemv(alpha: f32, a: MatrixRef<'_, f32>, x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), a.cols(), "x length must equal column count");
    assert_eq!(y.len(), a.rows(), "y length must equal row count");
    for (i, yi) in y.iter_mut().enumerate() {
        let row = a.row(i);
        let dot = crate::blas1::sdot(row, x);
        *yi = alpha * dot + beta * *yi;
    }
}

/// `y ← α·Aᵀ·x + β·y` for a row-major matrix `A`.
///
/// Walks `A` row by row (streaming access, the layout the accelerator
/// prefers) rather than column by column.
///
/// # Panics
///
/// Panics if `x.len() != a.rows()` or `y.len() != a.cols()`.
pub fn sgemv_trans(alpha: f32, a: MatrixRef<'_, f32>, x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), a.rows(), "x length must equal row count");
    assert_eq!(y.len(), a.cols(), "y length must equal column count");
    for yi in y.iter_mut() {
        *yi *= beta;
    }
    for (i, &xi) in x.iter().enumerate() {
        let row = a.row(i);
        let scaled = alpha * xi;
        for (yj, &aij) in y.iter_mut().zip(row) {
            *yj += scaled * aij;
        }
    }
}

/// Naive column-major-order GEMV over a row-major matrix — the
/// cache-hostile "original code" baseline used in the Figure 1 experiment.
///
/// # Panics
///
/// Panics if dimensions are inconsistent.
pub fn sgemv_naive(alpha: f32, a: MatrixRef<'_, f32>, x: &[f32], beta: f32, y: &mut [f32]) {
    assert_eq!(x.len(), a.cols(), "x length must equal column count");
    assert_eq!(y.len(), a.rows(), "y length must equal row count");
    for yi in y.iter_mut() {
        *yi *= beta;
    }
    // Column-outer loop: strides through memory by `lda` on every access.
    #[allow(clippy::needless_range_loop)] // deliberately cache-hostile index order
    for j in 0..a.cols() {
        #[allow(clippy::needless_range_loop)]
        for i in 0..a.rows() {
            y[i] += alpha * a.at(i, j) * x[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<f32>, Vec<f32>) {
        // A = [[1,2,3],[4,5,6]]  x = [1,1,1]
        (vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], vec![1.0, 1.0, 1.0])
    }

    #[test]
    fn gemv_no_trans() {
        let (a, x) = sample();
        let a = MatrixRef::dense(&a, 2, 3);
        let mut y = vec![1.0, 1.0];
        sgemv(1.0, a, &x, 0.5, &mut y);
        assert_eq!(y, vec![6.5, 15.5]);
    }

    #[test]
    fn gemv_trans() {
        let (a, _) = sample();
        let a = MatrixRef::dense(&a, 2, 3);
        let x = vec![1.0, 2.0];
        let mut y = vec![0.0; 3];
        sgemv_trans(1.0, a, &x, 0.0, &mut y);
        assert_eq!(y, vec![9.0, 12.0, 15.0]);
    }

    #[test]
    fn naive_matches_optimized() {
        let n = 17;
        let m = 13;
        let a: Vec<f32> = (0..m * n).map(|i| ((i * 7 % 23) as f32) - 11.0).collect();
        let x: Vec<f32> = (0..n).map(|i| (i as f32 * 0.3).sin()).collect();
        let view = MatrixRef::dense(&a, m, n);
        let mut y1 = vec![0.5; m];
        let mut y2 = vec![0.5; m];
        sgemv(2.0, view, &x, -1.0, &mut y1);
        sgemv_naive(2.0, view, &x, -1.0, &mut y2);
        for (a, b) in y1.iter().zip(&y2) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn padded_lda_reads_correct_elements() {
        // 2x2 matrix embedded in rows of length 4.
        let data = vec![1.0, 2.0, 9.0, 9.0, 3.0, 4.0, 9.0, 9.0];
        let a = MatrixRef::new(&data, 2, 2, 4);
        assert_eq!(a.at(1, 0), 3.0);
        let mut y = vec![0.0; 2];
        sgemv(1.0, a, &[1.0, 1.0], 0.0, &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn zero_row_matrix_is_noop() {
        let a = MatrixRef::dense(&[], 0, 3);
        let mut y: Vec<f32> = vec![];
        sgemv(1.0, a, &[1.0, 2.0, 3.0], 0.0, &mut y);
        assert!(y.is_empty());
    }

    #[test]
    #[should_panic(expected = "leading dimension")]
    fn lda_smaller_than_cols_panics() {
        let _ = MatrixRef::new(&[0.0; 8], 2, 4, 3);
    }

    #[test]
    #[should_panic(expected = "slice too short")]
    fn short_slice_panics() {
        let _ = MatrixRef::new(&[0.0; 5], 2, 3, 3);
    }
}
