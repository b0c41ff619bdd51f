//! Data layout transforms (the `RESHP` accelerator / `mkl_simatcopy`).
//!
//! The paper places a *data reshape infrastructure* on the DRAM logic
//! layer (§2.1) because layout transforms — row-major ↔ column-major,
//! linear ↔ blocked — are needed both by applications (matrix transpose)
//! and by other accelerators (the FFT core wants blocked data). This
//! module provides the functional implementations; the bandwidth cost of
//! each transform on each platform is modeled elsewhere.

/// Out-of-place transpose of a row-major `rows × cols` matrix, returning
/// a row-major `cols × rows` matrix.
///
/// Uses cache blocking, the access pattern the paper's data-reshape unit
/// implements with row-buffer-sized tiles.
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn transpose<T: Copy + Default>(data: &[T], rows: usize, cols: usize) -> Vec<T> {
    assert_eq!(data.len(), rows * cols, "matrix buffer length mismatch");
    const BLOCK: usize = 32;
    let mut out = vec![T::default(); data.len()];
    let mut bi = 0;
    while bi < rows {
        let bi_end = (bi + BLOCK).min(rows);
        let mut bj = 0;
        while bj < cols {
            let bj_end = (bj + BLOCK).min(cols);
            for i in bi..bi_end {
                for j in bj..bj_end {
                    out[j * rows + i] = data[i * cols + j];
                }
            }
            bj = bj_end;
        }
        bi = bi_end;
    }
    out
}

/// Naive element-by-element transpose (the Figure 1 "original code"
/// baseline: column-strided writes with no blocking).
///
/// # Panics
///
/// Panics if `data.len() != rows * cols`.
pub fn transpose_naive<T: Copy + Default>(data: &[T], rows: usize, cols: usize) -> Vec<T> {
    assert_eq!(data.len(), rows * cols, "matrix buffer length mismatch");
    let mut out = vec![T::default(); data.len()];
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = data[i * cols + j];
        }
    }
    out
}

/// In-place transpose of a square row-major matrix (`mkl_simatcopy` with
/// `rows == cols`).
///
/// # Panics
///
/// Panics if `data.len() != n * n`.
pub fn transpose_in_place<T>(data: &mut [T], n: usize) {
    assert_eq!(data.len(), n * n, "matrix buffer length mismatch");
    for i in 0..n {
        for j in i + 1..n {
            data.swap(i * n + j, j * n + i);
        }
    }
}

/// Converts a row-major `rows × cols` matrix into block-major layout with
/// `block × block` tiles stored contiguously (tiles in row-major order,
/// elements row-major within a tile).
///
/// This is the "linear-to-blocked" transform the DRAM-optimized FFT
/// accelerator requires of its inputs.
///
/// # Panics
///
/// Panics if `block` does not evenly divide both dimensions, or the
/// buffer length is wrong.
pub fn linear_to_blocked<T: Copy + Default>(
    data: &[T],
    rows: usize,
    cols: usize,
    block: usize,
) -> Vec<T> {
    assert_eq!(data.len(), rows * cols, "matrix buffer length mismatch");
    assert!(
        block > 0 && rows.is_multiple_of(block) && cols.is_multiple_of(block),
        "block size must divide both matrix dimensions"
    );
    let tiles_per_row = cols / block;
    let mut out = vec![T::default(); data.len()];
    for i in 0..rows {
        for j in 0..cols {
            let (ti, tj) = (i / block, j / block);
            let (oi, oj) = (i % block, j % block);
            let tile = ti * tiles_per_row + tj;
            out[tile * block * block + oi * block + oj] = data[i * cols + j];
        }
    }
    out
}

/// Inverse of [`linear_to_blocked`].
///
/// # Panics
///
/// Panics under the same conditions as [`linear_to_blocked`].
pub fn blocked_to_linear<T: Copy + Default>(
    data: &[T],
    rows: usize,
    cols: usize,
    block: usize,
) -> Vec<T> {
    assert_eq!(data.len(), rows * cols, "matrix buffer length mismatch");
    assert!(
        block > 0 && rows.is_multiple_of(block) && cols.is_multiple_of(block),
        "block size must divide both matrix dimensions"
    );
    let tiles_per_row = cols / block;
    let mut out = vec![T::default(); data.len()];
    for i in 0..rows {
        for j in 0..cols {
            let (ti, tj) = (i / block, j / block);
            let (oi, oj) = (i % block, j % block);
            let tile = ti * tiles_per_row + tj;
            out[i * cols + j] = data[tile * block * block + oi * block + oj];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    #[test]
    fn transpose_small_example() {
        // [[0,1,2],[3,4,5]] -> [[0,3],[1,4],[2,5]]
        let t = transpose(&iota(6), 2, 3);
        assert_eq!(t, vec![0, 3, 1, 4, 2, 5]);
    }

    #[test]
    fn transpose_round_trip_rectangular() {
        let m = iota(37 * 53);
        let t = transpose(&m, 37, 53);
        let back = transpose(&t, 53, 37);
        assert_eq!(m, back);
    }

    #[test]
    fn blocked_matches_naive() {
        let m = iota(64 * 48);
        assert_eq!(transpose(&m, 64, 48), transpose_naive(&m, 64, 48));
    }

    #[test]
    fn in_place_matches_out_of_place() {
        let n = 33;
        let m = iota(n * n);
        let mut ip = m.clone();
        transpose_in_place(&mut ip, n);
        assert_eq!(ip, transpose(&m, n, n));
    }

    #[test]
    fn in_place_is_involution() {
        let n = 16;
        let m = iota(n * n);
        let mut x = m.clone();
        transpose_in_place(&mut x, n);
        transpose_in_place(&mut x, n);
        assert_eq!(x, m);
    }

    #[test]
    fn blocked_layout_round_trip() {
        let m = iota(16 * 24);
        let b = linear_to_blocked(&m, 16, 24, 8);
        assert_eq!(blocked_to_linear(&b, 16, 24, 8), m);
    }

    #[test]
    fn blocked_layout_tile_contents() {
        // 4x4 matrix, 2x2 blocks: first tile must be [0,1,4,5].
        let m = iota(16);
        let b = linear_to_blocked(&m, 4, 4, 2);
        assert_eq!(&b[..4], &[0, 1, 4, 5]);
        assert_eq!(&b[4..8], &[2, 3, 6, 7]);
    }

    #[test]
    #[should_panic(expected = "block size must divide")]
    fn blocked_rejects_nondividing_block() {
        let _ = linear_to_blocked(&iota(12), 3, 4, 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn transpose_rejects_bad_length() {
        let _ = transpose(&iota(5), 2, 3);
    }
}
