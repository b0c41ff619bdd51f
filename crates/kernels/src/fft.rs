//! Fast Fourier transform (the `FFT` accelerator's functional model and
//! the host-side FFTW/MKL stand-in).
//!
//! Implements an iterative radix-2 Cooley-Tukey FFT with precomputed
//! bit-reversal and twiddle tables, mirroring FFTW's plan/execute split
//! (`fftwf_plan_guru_dft` / `fftwf_execute` in Listing 1): a [`FftPlan`]
//! is created once for a size and executed many times — exactly the reuse
//! pattern the accelerator descriptor exploits.

use core::f32::consts::PI;
use core::fmt;

use mealib_types::Complex32;

/// Transform direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `FFTW_FORWARD`: negative exponent sign.
    Forward,
    /// `FFTW_BACKWARD`: positive exponent sign, scaled by `1/n` so that
    /// `inverse(forward(x)) == x`.
    Inverse,
}

/// A reusable FFT plan for a fixed power-of-two size.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    log2n: u32,
    rev: Vec<u32>,
    // Twiddles for the forward transform, one per butterfly angle:
    // twiddle[k] = e^{-2πik/n} for k in 0..n/2.
    twiddle: Vec<Complex32>,
}

impl FftPlan {
    /// Creates a plan for transforms of length `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is zero.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two"
        );
        let log2n = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - log2n.max(1)))
            .collect::<Vec<_>>();
        let rev = if n == 1 { vec![0] } else { rev };
        let twiddle = (0..n / 2)
            .map(|k| Complex32::from_polar_unit(-2.0 * PI * k as f32 / n as f32))
            .collect();
        Self {
            n,
            log2n,
            rev,
            twiddle,
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` for the degenerate length-1 plan.
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// Executes the transform in place.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn execute(&self, data: &mut [Complex32], dir: Direction) {
        assert_eq!(data.len(), self.n, "buffer length must match plan size");
        if self.n == 1 {
            return;
        }
        // Bit-reversal permutation.
        for i in 0..self.n {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        // Iterative butterflies.
        for stage in 1..=self.log2n {
            let half = 1usize << (stage - 1);
            let step = self.n >> stage; // twiddle index stride
            let mut base = 0;
            while base < self.n {
                for k in 0..half {
                    let mut w = self.twiddle[k * step];
                    if dir == Direction::Inverse {
                        w = w.conj();
                    }
                    let a = data[base + k];
                    let b = data[base + k + half] * w;
                    data[base + k] = a + b;
                    data[base + k + half] = a - b;
                }
                base += half * 2;
            }
        }
        if dir == Direction::Inverse {
            let scale = 1.0 / self.n as f32;
            for x in data.iter_mut() {
                *x = x.scale(scale);
            }
        }
    }

    /// Executes the transform over `count` contiguous signals stored back
    /// to back — the "batched FFT" / `howmany` interface of the FFTW guru
    /// API that STAP's Doppler processing uses.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != count * self.len()`.
    pub fn execute_batch(&self, data: &mut [Complex32], count: usize, dir: Direction) {
        assert_eq!(
            data.len(),
            count * self.n,
            "batch buffer must hold count * n elements"
        );
        for chunk in data.chunks_mut(self.n) {
            self.execute(chunk, dir);
        }
    }
}

impl fmt::Display for FftPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FftPlan(n={})", self.n)
    }
}

/// 2D FFT over a row-major `rows × cols` image: transforms every row,
/// transposes, transforms every (former) column, and transposes back.
/// Both dimensions must be powers of two.
///
/// This is the decomposition the paper's chained `RESHP → FFT` datapath
/// implements in hardware for SAR (§5.4).
///
/// # Panics
///
/// Panics if `data.len() != rows * cols` or a dimension is not a power of
/// two.
pub fn fft_2d(data: &mut Vec<Complex32>, rows: usize, cols: usize, dir: Direction) {
    assert_eq!(data.len(), rows * cols, "image buffer length mismatch");
    let row_plan = FftPlan::new(cols);
    row_plan.execute_batch(data, rows, dir);
    let mut t = crate::reshape::transpose(data, rows, cols);
    let col_plan = FftPlan::new(rows);
    col_plan.execute_batch(&mut t, cols, dir);
    *data = crate::reshape::transpose(&t, cols, rows);
}

/// Forward FFT of a real signal of even length `n`, returning the
/// `n/2 + 1` non-redundant spectrum bins (the rest follow from conjugate
/// symmetry `X[n-k] = conj(X[k])`).
///
/// Implemented with the classic half-length complex transform: the even
/// samples ride the real lane and the odd samples the imaginary lane of
/// one `n/2`-point FFT, then a split/twiddle pass separates them. This
/// is how a radar front-end feeds real ADC samples to the FFT
/// accelerator at half the bandwidth of a naive complex transform.
///
/// # Panics
///
/// Panics if `n` is not a power of two or is smaller than 2.
pub fn rfft(input: &[f32]) -> Vec<Complex32> {
    let n = input.len();
    assert!(
        n.is_power_of_two() && n >= 2,
        "rfft length must be a power of two >= 2"
    );
    let half = n / 2;
    let mut packed: Vec<Complex32> = (0..half)
        .map(|i| Complex32::new(input[2 * i], input[2 * i + 1]))
        .collect();
    FftPlan::new(half).execute(&mut packed, Direction::Forward);

    let mut out = vec![Complex32::ZERO; half + 1];
    out[0] = Complex32::new(packed[0].re + packed[0].im, 0.0);
    out[half] = Complex32::new(packed[0].re - packed[0].im, 0.0);
    for k in 1..half {
        let a = packed[k];
        let b = packed[half - k].conj();
        let even = (a + b).scale(0.5);
        let odd = (a - b).scale(0.5);
        // odd/i = -i*odd
        let odd = Complex32::new(odd.im, -odd.re);
        let w = Complex32::from_polar_unit(-2.0 * PI * k as f32 / n as f32);
        out[k] = even + w * odd;
    }
    out
}

/// Expands an `n/2 + 1`-bin [`rfft`] spectrum back to the full `n`-bin
/// complex spectrum using conjugate symmetry.
///
/// # Panics
///
/// Panics if `half_spectrum` has fewer than 2 bins.
pub fn expand_rfft(half_spectrum: &[Complex32]) -> Vec<Complex32> {
    assert!(
        half_spectrum.len() >= 2,
        "need at least DC and Nyquist bins"
    );
    let half = half_spectrum.len() - 1;
    let n = 2 * half;
    let mut out = Vec::with_capacity(n);
    out.extend_from_slice(half_spectrum);
    for k in (1..half).rev() {
        out.push(half_spectrum[k].conj());
    }
    out
}

/// Reference O(n²) DFT used to validate the fast transform in tests.
pub fn dft_naive(input: &[Complex32], dir: Direction) -> Vec<Complex32> {
    let n = input.len();
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Inverse => 1.0,
    };
    let mut out = vec![Complex32::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        for (j, &x) in input.iter().enumerate() {
            let angle = sign * 2.0 * PI * (k * j % n.max(1)) as f32 / n as f32;
            *o += x * Complex32::from_polar_unit(angle);
        }
        if dir == Direction::Inverse {
            *o = o.scale(1.0 / n as f32);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize) -> Vec<Complex32> {
        (0..n)
            .map(|i| Complex32::new((i as f32 * 0.71).sin() + 0.3, (i as f32 * 1.13).cos() - 0.1))
            .collect()
    }

    fn max_err(a: &[Complex32], b: &[Complex32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn matches_naive_dft() {
        for n in [1usize, 2, 4, 8, 16, 64] {
            let x = signal(n);
            let want = dft_naive(&x, Direction::Forward);
            let mut got = x.clone();
            FftPlan::new(n).execute(&mut got, Direction::Forward);
            assert!(max_err(&got, &want) < 1e-3 * n as f32, "n={n}");
        }
    }

    #[test]
    fn inverse_recovers_input() {
        let n = 256;
        let x = signal(n);
        let plan = FftPlan::new(n);
        let mut y = x.clone();
        plan.execute(&mut y, Direction::Forward);
        plan.execute(&mut y, Direction::Inverse);
        assert!(max_err(&y, &x) < 1e-4);
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let n = 32;
        let mut x = vec![Complex32::ZERO; n];
        x[0] = Complex32::ONE;
        FftPlan::new(n).execute(&mut x, Direction::Forward);
        for v in &x {
            assert!((*v - Complex32::ONE).abs() < 1e-5);
        }
    }

    #[test]
    fn single_tone_lands_in_one_bin() {
        let n = 64;
        let k0 = 5;
        let mut x: Vec<Complex32> = (0..n)
            .map(|i| Complex32::from_polar_unit(2.0 * PI * (k0 * i) as f32 / n as f32))
            .collect();
        FftPlan::new(n).execute(&mut x, Direction::Forward);
        for (k, v) in x.iter().enumerate() {
            if k == k0 {
                assert!((v.abs() - n as f32).abs() < 1e-2);
            } else {
                assert!(v.abs() < 1e-2, "leakage at bin {k}: {}", v.abs());
            }
        }
    }

    #[test]
    fn linearity() {
        let n = 128;
        let a = signal(n);
        let b: Vec<Complex32> = signal(n).iter().map(|z| z.conj()).collect();
        let plan = FftPlan::new(n);
        let mut sum: Vec<Complex32> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.execute(&mut sum, Direction::Forward);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.execute(&mut fa, Direction::Forward);
        plan.execute(&mut fb, Direction::Forward);
        let combined: Vec<Complex32> = fa.iter().zip(&fb).map(|(x, y)| *x + *y).collect();
        assert!(max_err(&sum, &combined) < 1e-2);
    }

    #[test]
    fn batch_equals_individual() {
        let n = 16;
        let count = 5;
        let plan = FftPlan::new(n);
        let mut batched = signal(n * count);
        let per_signal: Vec<Vec<Complex32>> = batched
            .chunks(n)
            .map(|c| {
                let mut v = c.to_vec();
                plan.execute(&mut v, Direction::Forward);
                v
            })
            .collect();
        plan.execute_batch(&mut batched, count, Direction::Forward);
        for (i, want) in per_signal.iter().enumerate() {
            assert!(max_err(&batched[i * n..(i + 1) * n], want) < 1e-6);
        }
    }

    #[test]
    fn fft_2d_round_trip() {
        let rows = 8;
        let cols = 16;
        let orig = signal(rows * cols);
        let mut img = orig.clone();
        fft_2d(&mut img, rows, cols, Direction::Forward);
        fft_2d(&mut img, rows, cols, Direction::Inverse);
        assert!(max_err(&img, &orig) < 1e-4);
    }

    #[test]
    fn parseval_energy_conservation() {
        let n = 512;
        let x = signal(n);
        let time_energy: f32 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut f = x.clone();
        FftPlan::new(n).execute(&mut f, Direction::Forward);
        let freq_energy: f32 = f.iter().map(|z| z.norm_sqr()).sum::<f32>() / n as f32;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = FftPlan::new(24);
    }

    #[test]
    #[should_panic(expected = "must match plan size")]
    fn wrong_buffer_size_rejected() {
        let plan = FftPlan::new(8);
        let mut data = vec![Complex32::ZERO; 4];
        plan.execute(&mut data, Direction::Forward);
    }

    #[test]
    fn rfft_matches_full_complex_fft() {
        for n in [2usize, 8, 64, 256] {
            let real: Vec<f32> = (0..n).map(|i| (i as f32 * 0.19).sin() + 0.25).collect();
            let half = rfft(&real);
            assert_eq!(half.len(), n / 2 + 1);
            let mut full: Vec<Complex32> = real.iter().map(|&r| Complex32::new(r, 0.0)).collect();
            FftPlan::new(n).execute(&mut full, Direction::Forward);
            for k in 0..=n / 2 {
                assert!(
                    (half[k] - full[k]).abs() < 1e-3 * n as f32,
                    "n={n} bin {k}: {} vs {}",
                    half[k],
                    full[k]
                );
            }
        }
    }

    #[test]
    fn rfft_dc_and_nyquist_are_real() {
        let real: Vec<f32> = (0..128).map(|i| (i as f32 * 0.7).cos()).collect();
        let half = rfft(&real);
        assert_eq!(half[0].im, 0.0);
        assert_eq!(half[64].im, 0.0);
    }

    #[test]
    fn expand_rfft_reconstructs_symmetric_spectrum() {
        let n = 64;
        let real: Vec<f32> = (0..n).map(|i| (i as f32 * 0.31).sin()).collect();
        let expanded = expand_rfft(&rfft(&real));
        assert_eq!(expanded.len(), n);
        let mut full: Vec<Complex32> = real.iter().map(|&r| Complex32::new(r, 0.0)).collect();
        FftPlan::new(n).execute(&mut full, Direction::Forward);
        for k in 0..n {
            assert!((expanded[k] - full[k]).abs() < 1e-2, "bin {k}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rfft_rejects_odd_lengths() {
        let _ = rfft(&[1.0, 2.0, 3.0]);
    }
}
