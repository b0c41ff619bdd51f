//! Level-3 BLAS subset used by STAP: `cblas_cherk` and `cblas_ctrsm`.
//!
//! These are the *compute-bounded* routines of Table 4 — in the MEALib
//! system they stay on the host CPU, but the reproduction still needs
//! functional implementations so the STAP pipeline produces real numbers.

use mealib_types::Complex32;

/// Hermitian rank-k update on the lower triangle:
/// `C ← α·A·Aᴴ + β·C` where `A` is `n × k` row-major and `C` is `n × n`
/// row-major Hermitian.
///
/// Only the lower triangle of `C` is referenced and written, then mirrored
/// into the upper triangle (so the returned `C` is a full Hermitian
/// matrix, which simplifies the downstream solver).
///
/// # Panics
///
/// Panics if `a.len() != n * k` or `c.len() != n * n`.
pub fn cherk(n: usize, k: usize, alpha: f32, a: &[Complex32], beta: f32, c: &mut [Complex32]) {
    assert_eq!(a.len(), n * k, "A must be n x k");
    assert_eq!(c.len(), n * n, "C must be n x n");
    for i in 0..n {
        let ai = &a[i * k..(i + 1) * k];
        for j in 0..=i {
            let aj = &a[j * k..(j + 1) * k];
            // (A Aᴴ)[i][j] = Σ_p a[i][p] * conj(a[j][p])
            let mut acc = Complex32::ZERO;
            for p in 0..k {
                acc += ai[p] * aj[p].conj();
            }
            let old = c[i * n + j];
            c[i * n + j] = acc.scale(alpha) + old.scale(beta);
        }
        // The diagonal of a Hermitian product is real; clamp rounding dust.
        c[i * n + i].im = 0.0;
    }
    for i in 0..n {
        for j in i + 1..n {
            c[i * n + j] = c[j * n + i].conj();
        }
    }
}

/// Which side of the triangular matrix `A` appears on in `ctrsm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Solve `A·X = α·B`.
    Left,
    /// Solve `X·A = α·B`.
    Right,
}

/// Which triangle of `A` holds the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Triangle {
    /// `A` is lower triangular.
    Lower,
    /// `A` is upper triangular.
    Upper,
}

/// Triangular solve with multiple right-hand sides:
/// `X ← α·op(A)⁻¹·B` (left side) or `X ← α·B·op(A)⁻¹` (right side),
/// overwriting `B` with `X`. `A` is `n × n` row-major triangular
/// (non-unit diagonal); `B` is `rows × cols` row-major where the
/// triangular dimension matches the chosen side.
///
/// # Panics
///
/// Panics if dimensions are inconsistent or a diagonal element is zero.
pub fn ctrsm(
    side: Side,
    tri: Triangle,
    n: usize,
    alpha: Complex32,
    a: &[Complex32],
    b: &mut [Complex32],
    rhs: usize,
) {
    assert_eq!(a.len(), n * n, "A must be n x n");
    assert_eq!(b.len(), n * rhs, "B must be n x rhs (row-major)");
    for x in b.iter_mut() {
        *x *= alpha;
    }
    match (side, tri) {
        (Side::Left, Triangle::Lower) => {
            // Forward substitution, row i solved after rows < i.
            for i in 0..n {
                let diag = a[i * n + i];
                assert!(diag.norm_sqr() > 0.0, "singular triangular matrix");
                for j in 0..i {
                    let lij = a[i * n + j];
                    for col in 0..rhs {
                        let upd = lij * b[j * rhs + col];
                        b[i * rhs + col] -= upd;
                    }
                }
                for col in 0..rhs {
                    b[i * rhs + col] = b[i * rhs + col] / diag;
                }
            }
        }
        (Side::Left, Triangle::Upper) => {
            // Backward substitution.
            for i in (0..n).rev() {
                let diag = a[i * n + i];
                assert!(diag.norm_sqr() > 0.0, "singular triangular matrix");
                for j in i + 1..n {
                    let uij = a[i * n + j];
                    for col in 0..rhs {
                        let upd = uij * b[j * rhs + col];
                        b[i * rhs + col] -= upd;
                    }
                }
                for col in 0..rhs {
                    b[i * rhs + col] = b[i * rhs + col] / diag;
                }
            }
        }
        (Side::Right, Triangle::Lower) => {
            // X·A = B with A lower: solve columns from the last to first.
            for j in (0..n).rev() {
                let diag = a[j * n + j];
                assert!(diag.norm_sqr() > 0.0, "singular triangular matrix");
                for row in 0..rhs {
                    b[row * n + j] = b[row * n + j] / diag;
                }
                for i in 0..j {
                    let aji = a[j * n + i];
                    for row in 0..rhs {
                        let upd = b[row * n + j] * aji;
                        b[row * n + i] -= upd;
                    }
                }
            }
        }
        (Side::Right, Triangle::Upper) => {
            for j in 0..n {
                let diag = a[j * n + j];
                assert!(diag.norm_sqr() > 0.0, "singular triangular matrix");
                for row in 0..rhs {
                    b[row * n + j] = b[row * n + j] / diag;
                }
                for i in j + 1..n {
                    let aji = a[j * n + i];
                    for row in 0..rhs {
                        let upd = b[row * n + j] * aji;
                        b[row * n + i] -= upd;
                    }
                }
            }
        }
    }
}

/// Blocked single-precision matrix multiply `C ← α·A·B + β·C`
/// (`cblas_sgemm`, row-major, no transposes) — the canonical
/// *compute-bounded* operation the paper's introduction contrasts with
/// the memory-bounded ones MEALib targets.
///
/// # Panics
///
/// Panics if buffer lengths disagree with `m × k`, `k × n`, `m × n`.
#[allow(clippy::too_many_arguments)] // mirrors the CBLAS signature
pub fn sgemm(
    m: usize,
    n: usize,
    k: usize,
    alpha: f32,
    a: &[f32],
    b: &[f32],
    beta: f32,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "A must be m x k");
    assert_eq!(b.len(), k * n, "B must be k x n");
    assert_eq!(c.len(), m * n, "C must be m x n");
    for ci in c.iter_mut() {
        *ci *= beta;
    }
    const BLOCK: usize = 32;
    let mut ib = 0;
    while ib < m {
        let ie = (ib + BLOCK).min(m);
        let mut pb = 0;
        while pb < k {
            let pe = (pb + BLOCK).min(k);
            let mut jb = 0;
            while jb < n {
                let je = (jb + BLOCK).min(n);
                for i in ib..ie {
                    for p in pb..pe {
                        let aip = alpha * a[i * k + p];
                        for j in jb..je {
                            c[i * n + j] += aip * b[p * n + j];
                        }
                    }
                }
                jb = je;
            }
            pb = pe;
        }
        ib = ie;
    }
}

/// Cholesky factorization of a Hermitian positive-definite matrix into
/// `L·Lᴴ`, returning the lower-triangular `L` (row-major, other entries
/// zeroed). STAP uses this between `cherk` and the two `ctrsm` solves.
///
/// # Panics
///
/// Panics if `c.len() != n * n` or the matrix is not positive definite.
pub fn cpotrf(n: usize, c: &[Complex32]) -> Vec<Complex32> {
    assert_eq!(c.len(), n * n, "C must be n x n");
    let mut l = vec![Complex32::ZERO; n * n];
    for i in 0..n {
        for j in 0..=i {
            let mut acc = c[i * n + j];
            for p in 0..j {
                acc -= l[i * n + p] * l[j * n + p].conj();
            }
            if i == j {
                assert!(acc.re > 0.0, "matrix is not positive definite");
                l[i * n + i] = Complex32::new(acc.re.sqrt(), 0.0);
            } else {
                l[i * n + j] = acc / l[j * n + j];
            }
        }
    }
    l
}

/// FLOP count of an `n × n` rank-`k` Hermitian update (4 real FLOPs per
/// complex multiply-add on the touched triangle).
pub fn cherk_flops(n: usize, k: usize) -> u64 {
    4 * (n * (n + 1) / 2) as u64 * k as u64
}

/// FLOP count of an `n × n` triangular solve with `rhs` right-hand sides.
pub fn ctrsm_flops(n: usize, rhs: usize) -> u64 {
    4 * (n * n) as u64 * rhs as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matvec(n: usize, a: &[Complex32], x: &[Complex32]) -> Vec<Complex32> {
        (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
            .collect()
    }

    fn hermitian_spd(n: usize) -> Vec<Complex32> {
        // A·Aᴴ + n·I is Hermitian positive definite.
        let a: Vec<Complex32> = (0..n * n)
            .map(|i| Complex32::new(((i * 13 % 7) as f32) - 3.0, ((i * 5 % 11) as f32) - 5.0))
            .collect();
        let mut c = vec![Complex32::ZERO; n * n];
        cherk(n, n, 1.0, &a, 0.0, &mut c);
        for i in 0..n {
            c[i * n + i] += Complex32::new((n * n) as f32, 0.0);
        }
        c
    }

    #[test]
    fn cherk_produces_hermitian_result() {
        let n = 5;
        let k = 3;
        let a: Vec<Complex32> = (0..n * k)
            .map(|i| Complex32::new(i as f32 * 0.3, -(i as f32) * 0.1))
            .collect();
        let mut c = vec![Complex32::new(1.0, 0.0); n * n];
        cherk(n, k, 2.0, &a, 0.5, &mut c);
        for i in 0..n {
            assert_eq!(c[i * n + i].im, 0.0, "diagonal must be real");
            for j in 0..n {
                let cij = c[i * n + j];
                let cji = c[j * n + i];
                assert!(
                    (cij - cji.conj()).abs() < 1e-3,
                    "not Hermitian at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn cherk_matches_explicit_product() {
        // A = [[1, i], [2, 0]]; A·Aᴴ = [[2, 2], [2, 4]] (with [0][1] = 2
        // since conj pairs cancel the imaginary parts here).
        let a = [
            Complex32::ONE,
            Complex32::I,
            Complex32::new(2.0, 0.0),
            Complex32::ZERO,
        ];
        let mut c = vec![Complex32::ZERO; 4];
        cherk(2, 2, 1.0, &a, 0.0, &mut c);
        assert!((c[0] - Complex32::new(2.0, 0.0)).abs() < 1e-6);
        assert!((c[3] - Complex32::new(4.0, 0.0)).abs() < 1e-6);
        assert!((c[1] - c[2].conj()).abs() < 1e-6);
    }

    #[test]
    fn trsm_left_lower_solves_system() {
        let n = 4;
        let rhs = 3;
        let c = hermitian_spd(n);
        let l = cpotrf(n, &c);
        // Pick X, compute B = L X, then solve and compare.
        let x: Vec<Complex32> = (0..n * rhs)
            .map(|i| Complex32::new((i % 5) as f32 - 2.0, (i % 3) as f32))
            .collect();
        let mut b = vec![Complex32::ZERO; n * rhs];
        for i in 0..n {
            for col in 0..rhs {
                let mut acc = Complex32::ZERO;
                for j in 0..=i {
                    acc += l[i * n + j] * x[j * rhs + col];
                }
                b[i * rhs + col] = acc;
            }
        }
        ctrsm(
            Side::Left,
            Triangle::Lower,
            n,
            Complex32::ONE,
            &l,
            &mut b,
            rhs,
        );
        for (got, want) in b.iter().zip(&x) {
            assert!((got.re - want.re).abs() < 1e-3 && (got.im - want.im).abs() < 1e-3);
        }
    }

    #[test]
    fn trsm_left_upper_solves_system() {
        let n = 3;
        // Upper triangular U.
        let u = [
            Complex32::new(2.0, 0.0),
            Complex32::new(1.0, 1.0),
            Complex32::new(0.0, -1.0),
            Complex32::ZERO,
            Complex32::new(3.0, 0.0),
            Complex32::new(0.5, 0.0),
            Complex32::ZERO,
            Complex32::ZERO,
            Complex32::new(1.5, 0.0),
        ];
        let x = [Complex32::ONE, Complex32::I, Complex32::new(2.0, -1.0)];
        let mut b: Vec<Complex32> = (0..3)
            .map(|i| (0..3).map(|j| u[i * 3 + j] * x[j]).sum())
            .collect();
        ctrsm(
            Side::Left,
            Triangle::Upper,
            n,
            Complex32::ONE,
            &u,
            &mut b,
            1,
        );
        for (got, want) in b.iter().zip(&x) {
            assert!((*got - *want).abs() < 1e-4);
        }
    }

    #[test]
    fn trsm_right_lower_solves_system() {
        let n = 3;
        let rhs = 2;
        let c = hermitian_spd(n);
        let l = cpotrf(n, &c);
        let x: Vec<Complex32> = (0..rhs * n)
            .map(|i| Complex32::new(i as f32, 1.0 - i as f32))
            .collect();
        // B = X L (rhs x n)
        let mut b = vec![Complex32::ZERO; rhs * n];
        for row in 0..rhs {
            for j in 0..n {
                let mut acc = Complex32::ZERO;
                for p in j..n {
                    acc += x[row * n + p] * l[p * n + j];
                }
                b[row * n + j] = acc;
            }
        }
        ctrsm(
            Side::Right,
            Triangle::Lower,
            n,
            Complex32::ONE,
            &l,
            &mut b,
            rhs,
        );
        for (got, want) in b.iter().zip(&x) {
            assert!((*got - *want).abs() < 1e-3);
        }
    }

    #[test]
    fn cholesky_reconstructs_input() {
        let n = 6;
        let c = hermitian_spd(n);
        let l = cpotrf(n, &c);
        // L must satisfy (L Lᴴ) x = C x for a probe vector.
        let x: Vec<Complex32> = (0..n).map(|i| Complex32::new(1.0, i as f32)).collect();
        let cx = matvec(n, &c, &x);
        // y = Lᴴ x, then z = L y
        let mut lh = vec![Complex32::ZERO; n * n];
        for i in 0..n {
            for j in 0..n {
                lh[i * n + j] = l[j * n + i].conj();
            }
        }
        let y = matvec(n, &lh, &x);
        let z = matvec(n, &l, &y);
        for (a, b) in z.iter().zip(&cx) {
            let scale = b.abs().max(1.0);
            assert!((*a - *b).abs() / scale < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn trsm_applies_alpha() {
        let a = [Complex32::new(2.0, 0.0)];
        let mut b = [Complex32::new(4.0, 0.0)];
        ctrsm(
            Side::Left,
            Triangle::Lower,
            1,
            Complex32::new(0.5, 0.0),
            &a,
            &mut b,
            1,
        );
        assert!((b[0] - Complex32::ONE).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "not positive definite")]
    fn cholesky_rejects_indefinite() {
        let c = vec![
            Complex32::new(-1.0, 0.0),
            Complex32::ZERO,
            Complex32::ZERO,
            Complex32::new(1.0, 0.0),
        ];
        let _ = cpotrf(2, &c);
    }

    #[test]
    fn sgemm_matches_naive_triple_loop() {
        let (m, n, k) = (13, 17, 19);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7 % 11) as f32) - 5.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 5 % 13) as f32) - 6.0).collect();
        let mut c = vec![1.0f32; m * n];
        let mut want = c.clone();
        sgemm(m, n, k, 0.5, &a, &b, -1.0, &mut c);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                want[i * n + j] = 0.5 * acc - want[i * n + j];
            }
        }
        for (got, want) in c.iter().zip(&want) {
            assert!((got - want).abs() < 1e-2, "{got} vs {want}");
        }
    }

    #[test]
    fn sgemm_identity_is_scaled_copy() {
        let n = 8;
        let mut ident = vec![0.0f32; n * n];
        for i in 0..n {
            ident[i * n + i] = 1.0;
        }
        let b: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
        let mut c = vec![0.0f32; n * n];
        sgemm(n, n, n, 2.0, &ident, &b, 0.0, &mut c);
        for (ci, bi) in c.iter().zip(&b) {
            assert_eq!(*ci, 2.0 * bi);
        }
    }

    #[test]
    fn flops_counts() {
        assert_eq!(cherk_flops(2, 3), 4 * 3 * 3);
        assert_eq!(ctrsm_flops(2, 5), 80);
    }
}
