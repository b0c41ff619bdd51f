//! The SAR configuration-efficiency experiments (§5.4, Figure 12).
//!
//! * **Chaining** (Fig. 12a): SAR image formation needs `RESMP` then
//!   `FFT` per image. Hardware chaining streams the intermediate through
//!   the tiles' Local Memories; software chaining round-trips it through
//!   DRAM and pays a second invocation.
//! * **Loop** (Fig. 12b): 128 FFTs issued as one descriptor with a
//!   `LOOP 128` block versus 128 descriptor invocations from a host
//!   `for` loop.

use mealib::{Mealib, MealibError, OpReport};
use mealib_accel::chain::{execute_chained, execute_unchained};
use mealib_accel::cu::{run_descriptor, CuCostModel};
use mealib_accel::{AccelParams, AcceleratorLayer};
use mealib_kernels::fft::Direction;
use mealib_runtime::CacheModel;
use mealib_tdl::{Descriptor, ParamBag};
use mealib_types::{Complex32, Seconds};
use std::collections::BTreeMap;

/// The problem sizes of Figure 12 (square image edge lengths).
pub const PROBLEM_SIZES: [usize; 6] = [256, 512, 1024, 2048, 4096, 8192];

/// One (size, software time, hardware time) data point.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigPoint {
    /// Image edge length (pixels).
    pub size: usize,
    /// Software-managed time.
    pub software: Seconds,
    /// Hardware-managed time.
    pub hardware: Seconds,
}

impl ConfigPoint {
    /// Speedup of the hardware mechanism.
    pub fn gain(&self) -> f64 {
        self.software / self.hardware
    }
}

/// The SAR chain for an `n × n` image: per-row complex resampling, then
/// a length-`n` FFT per row.
pub fn sar_stages(n: usize) -> Vec<AccelParams> {
    vec![
        AccelParams::Resmp {
            blocks: n as u64,
            // Complex samples as f32 pairs.
            in_per_block: 2 * n as u64,
            out_per_block: 2 * n as u64,
        },
        AccelParams::Fft {
            n: n as u64,
            batch: n as u64,
        },
    ]
}

/// Host-side cost of one accelerator invocation inside a tight loop:
/// warm-cache `wbinvd` plus the driver round trip and descriptor copy.
fn invocation_overhead() -> Seconds {
    let cache = CacheModel::haswell();
    cache.repeat_invocation_latency() + cache.descriptor_copy_time(1024)
}

/// Figure 12a: hardware vs software chaining across problem sizes.
pub fn chaining_sweep() -> Vec<ConfigPoint> {
    let layer = AcceleratorLayer::mealib_default();
    PROBLEM_SIZES
        .iter()
        .map(|&size| {
            let stages = sar_stages(size);
            let hw = execute_chained(&stages, layer.hw(), layer.mem()).expect("SAR stages fit u64");
            let sw = execute_unchained(&stages, layer.hw(), layer.mem(), invocation_overhead());
            ConfigPoint {
                size,
                software: sw.time + invocation_overhead(),
                hardware: hw.time + invocation_overhead(),
            }
        })
        .collect()
}

/// Figure 12b: a hardware `LOOP 128` of FFTs vs 128 software
/// invocations, across problem sizes.
pub fn loop_sweep(iterations: u64) -> Vec<ConfigPoint> {
    let layer = AcceleratorLayer::mealib_default();
    let cost = CuCostModel::default();
    PROBLEM_SIZES
        .iter()
        .map(|&size| {
            let fft = AccelParams::Fft {
                n: size as u64,
                batch: size as u64,
            };
            let buffers: BTreeMap<String, u64> =
                [("a".to_string(), 0x1000u64), ("b".to_string(), 0x2000_0000)]
                    .into_iter()
                    .collect();
            let mut bag = ParamBag::new();
            bag.insert("f.para".into(), fft.to_bytes());

            // Hardware loop: one descriptor.
            let hw_tdl =
                format!("LOOP {iterations} {{ PASS in=a out=b {{ COMP FFT params=\"f.para\" }} }}");
            let hw_desc = Descriptor::encode(
                &mealib_tdl::parse(&hw_tdl).expect("well-formed"),
                &bag,
                &buffers,
            )
            .expect("encodable");
            let hw_run = run_descriptor(&hw_desc, &layer, &cost).expect("runnable");
            let hardware = hw_run.total_time() + invocation_overhead();

            // Software loop: the same descriptor without the LOOP,
            // invoked `iterations` times from the host.
            let sw_tdl = "PASS in=a out=b { COMP FFT params=\"f.para\" }";
            let sw_desc = Descriptor::encode(
                &mealib_tdl::parse(sw_tdl).expect("well-formed"),
                &bag,
                &buffers,
            )
            .expect("encodable");
            let sw_run = run_descriptor(&sw_desc, &layer, &cost).expect("runnable");
            let software = (sw_run.total_time() + invocation_overhead()) * iterations as f64;

            ConfigPoint {
                size,
                software,
                hardware,
            }
        })
        .collect()
}

/// Output of one functional SAR image formation.
#[derive(Debug, Clone, PartialEq)]
pub struct SarImage {
    /// Edge length of the (square) formed image.
    pub size: usize,
    /// Total spectral energy of the formed image (a checksum-grade
    /// summary of the numerics).
    pub energy: f32,
    /// Modeled cost of the accelerated chain.
    pub report: OpReport,
}

/// Forms an `n × n` SAR image functionally on the MEALib API: range
/// resampling chained into the range FFT in *one* hardware pass
/// (§5.4's RESMP→FFT datapath), then the azimuth FFT across the other
/// dimension, computed host-side with the 2D decomposition.
///
/// `raw` holds the `n × n` phase-history samples row-major.
///
/// # Errors
///
/// Returns API errors (allocation, shape).
///
/// # Panics
///
/// Panics if `n` is not a power of two or `raw` has the wrong length.
pub fn form_image(ml: &mut Mealib, raw: &[Complex32], n: usize) -> Result<SarImage, MealibError> {
    assert!(n.is_power_of_two(), "image edge must be a power of two");
    assert_eq!(raw.len(), n * n, "raw phase history must be n x n");
    ml.alloc_c32("sar_raw", n * n)?;
    ml.alloc_c32("sar_range", n * n)?;
    ml.write_c32("sar_raw", raw)?;

    // Range direction: resample + FFT as one chained accelerator pass.
    let report = ml.resample_fft_chained("sar_raw", "sar_range", n, n, n)?;

    // Azimuth direction: FFT along columns (host-side in the functional
    // model; on hardware this is the second descriptor of the pipeline).
    let mut img = ml.read_c32("sar_range")?;
    img.truncate(n * n);
    // Rows were already transformed by the chain; apply the column pass
    // of the 2D decomposition: transpose, row-FFT, transpose back.
    let mut t = mealib_kernels::reshape::transpose(&img, n, n);
    mealib_kernels::FftPlan::new(n).execute_batch(&mut t, n, Direction::Forward);
    let formed = mealib_kernels::reshape::transpose(&t, n, n);

    let energy: f32 = formed.iter().map(|z| z.norm_sqr()).sum();
    for name in ["sar_raw", "sar_range"] {
        ml.free(name)?;
    }
    Ok(SarImage {
        size: n,
        energy,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_kernels::fft::fft_2d;

    #[test]
    fn chaining_gains_match_fig12a_shape() {
        let points = chaining_sweep();
        assert_eq!(points.len(), PROBLEM_SIZES.len());
        let first = points.first().expect("nonempty").gain();
        let last = points.last().expect("nonempty").gain();
        // Paper: 2.5x at 256², shrinking with size, never below 1.
        assert!((1.5..4.0).contains(&first), "gain at 256: {first:.2}");
        assert!(last < first, "gain must shrink: {first:.2} -> {last:.2}");
        assert!(last >= 1.0, "chaining never loses: {last:.2}");
        // Monotone non-increasing.
        for w in points.windows(2) {
            assert!(
                w[1].gain() <= w[0].gain() * 1.05,
                "non-monotone at {}",
                w[1].size
            );
        }
    }

    #[test]
    fn loop_gains_match_fig12b_shape() {
        let points = loop_sweep(128);
        let first = points.first().expect("nonempty").gain();
        let last = points.last().expect("nonempty").gain();
        // Paper: 9.5x at 256², decreasing with problem size.
        assert!((4.0..20.0).contains(&first), "gain at 256: {first:.2}");
        assert!(last < first, "gain must shrink: {first:.2} -> {last:.2}");
        assert!(last >= 1.0);
    }

    #[test]
    fn loop_gain_exceeds_chain_gain_at_small_sizes() {
        // The paper's two plots: 9.5x (loop) vs 2.5x (chain) at 256².
        let chain = chaining_sweep()[0].gain();
        let lp = loop_sweep(128)[0].gain();
        assert!(lp > chain, "loop {lp:.2} vs chain {chain:.2}");
    }

    #[test]
    fn image_formation_is_numerically_consistent() {
        // Identity resampling (in == out grid) means the pipeline reduces
        // to a 2D FFT, which we can check against the kernel directly.
        let n = 64;
        let raw: Vec<Complex32> = (0..n * n)
            .map(|i| Complex32::new((i as f32 * 0.013).sin(), (i as f32 * 0.029).cos()))
            .collect();
        let mut ml = Mealib::builder().build();
        let image = form_image(&mut ml, &raw, n).unwrap();

        let mut want = raw.clone();
        fft_2d(&mut want, n, n, Direction::Forward);
        let want_energy: f32 = want.iter().map(|z| z.norm_sqr()).sum();
        let rel = (image.energy - want_energy).abs() / want_energy;
        assert!(rel < 1e-3, "energy {} vs {}", image.energy, want_energy);
        assert!(image.report.time().get() > 0.0);
    }

    #[test]
    fn sar_stage_parameters_validate() {
        for size in PROBLEM_SIZES {
            for p in sar_stages(size) {
                assert!(p.validate().is_ok(), "{p:?}");
            }
        }
    }
}
