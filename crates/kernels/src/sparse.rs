//! Sparse matrices in CSR form and sparse matrix-vector multiplication
//! (the `SPMV` accelerator / `mkl_scsrgemv`).
//!
//! The paper evaluates SPMV on `rgg_n_2_20` from the UF Sparse Matrix
//! Collection; `mealib-workloads` synthesizes an equivalent
//! random-geometric-graph matrix using this type.

use std::fmt;

/// A compressed-sparse-row matrix of `f32` values.
///
/// Invariants (enforced at construction):
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`, monotonically
///   non-decreasing, and `row_ptr[rows] == nnz`;
/// * column indices are within bounds and strictly increasing within each
///   row (no duplicates).
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f32>,
}

/// Error building a [`CsrMatrix`] from raw parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `row_ptr` has the wrong length or is not monotone from zero to nnz.
    BadRowPtr,
    /// A column index is out of bounds or out of order within its row.
    BadColumnIndex {
        /// Row containing the offending entry.
        row: usize,
    },
    /// `col_idx` and `values` lengths disagree.
    LengthMismatch,
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::BadRowPtr => write!(f, "row pointer array is malformed"),
            CsrError::BadColumnIndex { row } => {
                write!(
                    f,
                    "column indices in row {row} are out of bounds or unsorted"
                )
            }
            CsrError::LengthMismatch => write!(f, "col_idx and values lengths differ"),
        }
    }
}

impl std::error::Error for CsrError {}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns a [`CsrError`] describing the first violated invariant.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f32>,
    ) -> Result<Self, CsrError> {
        if col_idx.len() != values.len() {
            return Err(CsrError::LengthMismatch);
        }
        if row_ptr.len() != rows + 1
            || row_ptr.first() != Some(&0)
            || *row_ptr.last().expect("row_ptr nonempty") != values.len()
            || row_ptr.windows(2).any(|w| w[0] > w[1])
        {
            return Err(CsrError::BadRowPtr);
        }
        for row in 0..rows {
            let cols_in_row = &col_idx[row_ptr[row]..row_ptr[row + 1]];
            let sorted = cols_in_row.windows(2).all(|w| w[0] < w[1]);
            if !sorted || cols_in_row.iter().any(|&c| c >= cols) {
                return Err(CsrError::BadColumnIndex { row });
            }
        }
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Builds a CSR matrix from `(row, col, value)` triplets. Duplicate
    /// coordinates are summed; entries are sorted per row.
    ///
    /// # Panics
    ///
    /// Panics if any coordinate is out of bounds.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        for &(r, c, _) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of bounds");
        }
        let mut per_row: Vec<Vec<(usize, f32)>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            per_row[r].push((c, v));
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(triplets.len());
        let mut values = Vec::with_capacity(triplets.len());
        row_ptr.push(0);
        for entries in &mut per_row {
            entries.sort_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < entries.len() {
                let (c, mut v) = entries[i];
                let mut j = i + 1;
                while j < entries.len() && entries[j].0 == c {
                    v += entries[j].1;
                    j += 1;
                }
                col_idx.push(c);
                values.push(v);
                i = j;
            }
            row_ptr.push(col_idx.len());
        }
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// An identity-like square matrix with ones on the diagonal.
    pub fn identity(n: usize) -> Self {
        Self {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zero entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Average non-zeros per row.
    pub fn avg_degree(&self) -> f64 {
        if self.rows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.rows as f64
        }
    }

    /// The `(col, value)` pairs of one row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    pub fn row_entries(&self, row: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        assert!(row < self.rows, "row index out of bounds");
        let span = self.row_ptr[row]..self.row_ptr[row + 1];
        self.col_idx[span.clone()]
            .iter()
            .copied()
            .zip(self.values[span].iter().copied())
    }

    /// Sparse matrix-vector product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn spmv(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "x length must equal column count");
        let mut y = vec![0.0; self.rows];
        for (row, yi) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
        y
    }

    /// Converts to a dense row-major buffer (test/debug helper; intended
    /// for small matrices).
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.rows * self.cols];
        for row in 0..self.rows {
            for (col, v) in self.row_entries(row) {
                out[row * self.cols + col] = v;
            }
        }
        out
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CsrMatrix({}x{}, nnz={}, avg_deg={:.2})",
            self.rows,
            self.cols,
            self.nnz(),
            self.avg_degree()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [[1, 0, 2],
        //  [0, 3, 0]]
        CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])
    }

    #[test]
    fn triplet_construction_and_spmv() {
        let m = small();
        assert_eq!(m.nnz(), 3);
        let y = m.spmv(&[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 3.0]);
    }

    #[test]
    fn duplicate_triplets_are_summed() {
        let m = CsrMatrix::from_triplets(1, 2, &[(0, 1, 2.0), (0, 1, 5.0)]);
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.spmv(&[0.0, 1.0]), vec![7.0]);
    }

    #[test]
    fn identity_spmv_is_identity() {
        let m = CsrMatrix::identity(5);
        let x = vec![1.0, -2.0, 3.0, 0.5, 9.0];
        assert_eq!(m.spmv(&x), x);
    }

    #[test]
    fn spmv_matches_dense_product() {
        let m = CsrMatrix::from_triplets(
            4,
            4,
            &[
                (0, 1, 2.0),
                (1, 0, -1.0),
                (1, 3, 4.0),
                (2, 2, 0.5),
                (3, 0, 1.0),
                (3, 1, 1.0),
                (3, 2, 1.0),
                (3, 3, 1.0),
            ],
        );
        let dense = m.to_dense();
        let x = [1.0, 2.0, 3.0, 4.0];
        let want: Vec<f32> = (0..4)
            .map(|i| (0..4).map(|j| dense[i * 4 + j] * x[j]).sum())
            .collect();
        assert_eq!(m.spmv(&x), want);
    }

    #[test]
    fn from_raw_validates() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        assert_eq!(
            CsrMatrix::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]),
            Err(CsrError::BadRowPtr)
        );
        assert_eq!(
            CsrMatrix::from_raw(1, 2, vec![0, 2], vec![1, 0], vec![1.0, 2.0]),
            Err(CsrError::BadColumnIndex { row: 0 }),
        );
        assert_eq!(
            CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]),
            Err(CsrError::BadColumnIndex { row: 0 }),
        );
        assert_eq!(
            CsrMatrix::from_raw(1, 2, vec![0, 1], vec![0, 1], vec![1.0]),
            Err(CsrError::LengthMismatch)
        );
    }

    #[test]
    fn row_entries_iterates_in_order() {
        let m = small();
        let row0: Vec<_> = m.row_entries(0).collect();
        assert_eq!(row0, vec![(0, 1.0), (2, 2.0)]);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::from_triplets(0, 0, &[]);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.avg_degree(), 0.0);
        assert!(m.spmv(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn triplet_out_of_bounds_panics() {
        let _ = CsrMatrix::from_triplets(1, 1, &[(0, 1, 1.0)]);
    }
}
