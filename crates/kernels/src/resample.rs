//! Data resampling (the `RESMP` accelerator / MKL `dfsInterpolate1D`).
//!
//! SAR image formation resamples range lines onto a new grid before the
//! azimuth FFT (§5.4); STAP-class radar pipelines use the same primitive.
//! We implement linear interpolation onto an arbitrary target grid plus a
//! block-resampling convenience mirroring the paper's "16384 blocks"
//! dataset (Table 2).

use mealib_types::Complex32;

/// Linearly interpolates `input` (samples at integer positions
/// `0..input.len()`) at each position in `positions`.
///
/// Positions outside `[0, len-1]` clamp to the boundary samples, the
/// convention MKL's data-fitting functions call "extrapolation by
/// nearest".
///
/// # Panics
///
/// Panics if `input` is empty.
pub fn interpolate1d(input: &[f32], positions: &[f32]) -> Vec<f32> {
    assert!(!input.is_empty(), "cannot resample an empty signal");
    positions.iter().map(|&p| sample_linear(input, p)).collect()
}

/// Complex variant of [`interpolate1d`], interpolating the real and
/// imaginary parts independently.
///
/// # Panics
///
/// Panics if `input` is empty.
pub fn interpolate1d_complex(input: &[Complex32], positions: &[f32]) -> Vec<Complex32> {
    assert!(!input.is_empty(), "cannot resample an empty signal");
    positions
        .iter()
        .map(|&p| {
            let p = p.clamp(0.0, (input.len() - 1) as f32);
            let i0 = p.floor() as usize;
            let i1 = (i0 + 1).min(input.len() - 1);
            let frac = p - i0 as f32;
            input[i0].scale(1.0 - frac) + input[i1].scale(frac)
        })
        .collect()
}

/// Resamples `input` to exactly `out_len` uniformly spaced samples that
/// span the same interval.
///
/// # Panics
///
/// Panics if `input` is empty or `out_len` is zero.
pub fn resample_uniform(input: &[f32], out_len: usize) -> Vec<f32> {
    assert!(!input.is_empty(), "cannot resample an empty signal");
    assert!(out_len > 0, "output length must be nonzero");
    if out_len == 1 {
        return vec![input[0]];
    }
    let scale = (input.len() - 1) as f32 / (out_len - 1) as f32;
    (0..out_len)
        .map(|i| sample_linear(input, i as f32 * scale))
        .collect()
}

/// Applies [`resample_uniform`] independently to `blocks` contiguous
/// blocks — the batched form of the `RESMP` accelerator invocation.
///
/// # Panics
///
/// Panics if `input.len()` is not a multiple of `blocks`, either length
/// is zero, or `out_per_block` is zero.
pub fn resample_blocks(input: &[f32], blocks: usize, out_per_block: usize) -> Vec<f32> {
    assert!(blocks > 0, "block count must be nonzero");
    assert!(
        input.len().is_multiple_of(blocks) && !input.is_empty(),
        "input length must be a positive multiple of the block count"
    );
    let in_per_block = input.len() / blocks;
    let mut out = Vec::with_capacity(blocks * out_per_block);
    for b in 0..blocks {
        let chunk = &input[b * in_per_block..(b + 1) * in_per_block];
        out.extend(resample_uniform(chunk, out_per_block));
    }
    out
}

fn sample_linear(input: &[f32], p: f32) -> f32 {
    let p = p.clamp(0.0, (input.len() - 1) as f32);
    let i0 = p.floor() as usize;
    let i1 = (i0 + 1).min(input.len() - 1);
    let frac = p - i0 as f32;
    input[i0] * (1.0 - frac) + input[i1] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolation_at_integer_positions_is_exact() {
        let x = [1.0, 4.0, 9.0, 16.0];
        let y = interpolate1d(&x, &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(y, x.to_vec());
    }

    #[test]
    fn midpoint_interpolation() {
        let x = [0.0, 10.0];
        assert_eq!(interpolate1d(&x, &[0.5]), vec![5.0]);
        assert_eq!(interpolate1d(&x, &[0.25]), vec![2.5]);
    }

    #[test]
    fn out_of_range_clamps() {
        let x = [3.0, 7.0];
        assert_eq!(interpolate1d(&x, &[-5.0, 99.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn uniform_upsampling_preserves_linear_signal() {
        // A linear ramp must resample exactly under linear interpolation.
        let x: Vec<f32> = (0..9).map(|i| 2.0 * i as f32 + 1.0).collect();
        let y = resample_uniform(&x, 17);
        for (i, v) in y.iter().enumerate() {
            let want = 1.0 + 16.0 * (i as f32 / 16.0);
            assert!((v - want).abs() < 1e-4, "{v} vs {want}");
        }
    }

    #[test]
    fn uniform_resample_preserves_endpoints() {
        let x = [5.0, -2.0, 8.0, 3.0, 1.0];
        for out_len in [2usize, 3, 7, 50] {
            let y = resample_uniform(&x, out_len);
            assert_eq!(y.len(), out_len);
            assert_eq!(y[0], 5.0);
            assert!((y[out_len - 1] - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn single_output_takes_first_sample() {
        assert_eq!(resample_uniform(&[9.0, 1.0], 1), vec![9.0]);
    }

    #[test]
    fn block_resampling_is_independent_per_block() {
        let input = [0.0, 2.0, /* block 2 */ 10.0, 30.0];
        let out = resample_blocks(&input, 2, 3);
        assert_eq!(out, vec![0.0, 1.0, 2.0, 10.0, 20.0, 30.0]);
    }

    #[test]
    fn complex_interpolation_matches_componentwise() {
        let x = [Complex32::new(0.0, 4.0), Complex32::new(2.0, 0.0)];
        let y = interpolate1d_complex(&x, &[0.5]);
        assert_eq!(y[0], Complex32::new(1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "empty signal")]
    fn empty_input_rejected() {
        let _ = interpolate1d(&[], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "positive multiple")]
    fn block_mismatch_rejected() {
        let _ = resample_blocks(&[1.0, 2.0, 3.0], 2, 2);
    }
}
