//! The Figure 9/10 cross-platform comparison.
//!
//! For each Table 1 operation on its Table 2 dataset, run the same
//! "library call" on all five platforms — Haswell (MKL), Xeon Phi (MKL),
//! PSAS, MSAS, MEALib — and report performance and energy efficiency
//! normalized to Haswell, exactly as the paper's figures do.

use std::sync::Arc;

use mealib_accel::AccelParams;
use mealib_host::{run_op, CodeFlavor, Platform};
use mealib_obs::{Breakdown, Obs, Phase, Recorder, TraceRecorder};
use mealib_runtime::{Runtime, Sanitizer, VerifyMode};
use mealib_tdl::ParamBag;
use mealib_types::{Bytes, Joules, Seconds, Watts};

use crate::platforms::AcceleratedPlatform;

/// One platform's result for one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformResult {
    /// Platform name.
    pub name: String,
    /// Execution time.
    pub time: Seconds,
    /// Energy consumed.
    pub energy: Joules,
    /// FLOPs (zero for RESHP).
    pub flops: u64,
    /// Bytes moved (the RESHP throughput basis).
    pub bytes: u64,
}

impl PlatformResult {
    /// Throughput metric: GFLOPS, or GB/s for FLOP-free operations
    /// (the paper's footnote 3).
    pub fn throughput(&self) -> f64 {
        if self.flops > 0 {
            self.flops as f64 / self.time.get() * 1e-9
        } else {
            self.bytes as f64 / self.time.get() * 1e-9
        }
    }

    /// Average power.
    pub fn power(&self) -> Watts {
        self.energy.over(self.time)
    }

    /// Energy-efficiency metric: GFLOPS/W (or GB/s/W for RESHP).
    pub fn efficiency(&self) -> f64 {
        let p = self.power().get();
        if p > 0.0 {
            self.throughput() / p
        } else {
            0.0
        }
    }
}

/// All five platforms' results for one operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpComparison {
    /// The operation and its dataset.
    pub op: AccelParams,
    /// Results in platform order: Haswell, Xeon Phi, PSAS, MSAS, MEALib.
    pub rows: Vec<PlatformResult>,
}

impl OpComparison {
    /// The Haswell baseline row.
    ///
    /// # Panics
    ///
    /// Panics if the comparison is empty (cannot happen via
    /// [`run_experiment`]).
    pub fn baseline(&self) -> &PlatformResult {
        &self.rows[0]
    }

    /// Performance of each platform normalized to Haswell (Figure 9's
    /// y-axis).
    pub fn speedups(&self) -> Vec<(String, f64)> {
        let base = self.baseline().throughput();
        self.rows
            .iter()
            .map(|r| (r.name.clone(), r.throughput() / base))
            .collect()
    }

    /// Energy efficiency normalized to Haswell (Figure 10's y-axis).
    pub fn efficiency_gains(&self) -> Vec<(String, f64)> {
        let base = self.baseline().efficiency();
        self.rows
            .iter()
            .map(|r| (r.name.clone(), r.efficiency() / base))
            .collect()
    }

    /// The MEALib row's speedup over Haswell.
    pub fn mealib_speedup(&self) -> f64 {
        self.speedups().last().expect("five rows").1
    }

    /// The MEALib row's efficiency gain over Haswell.
    pub fn mealib_efficiency_gain(&self) -> f64 {
        self.efficiency_gains().last().expect("five rows").1
    }
}

/// Options for [`run_experiment`]: what to verify before running and
/// where to send instrumentation.
///
/// The struct is plain data with public fields so callers can use
/// `ExperimentOptions { verify: VerifyMode::Off, ..Default::default() }`;
/// the builder-style helpers cover the common cases.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOptions {
    /// Static-verification policy for the process-wide preflight
    /// ([`preflight`](mod@crate::preflight)). `Enforce` (the default) fails the
    /// experiment on coded errors; `Off` skips the preflight entirely.
    pub verify: VerifyMode,
    /// Instrumentation sink. [`Obs::off`] (the default) costs one
    /// branch; an enabled recorder sees the per-platform breakdowns
    /// and memory-system counters.
    pub obs: Obs,
    /// Shadow-memory sanitizer. [`Sanitizer::off`] (the default) is a
    /// branch-on-None no-op; an active handle additionally drives the
    /// operation through a sanitized [`Runtime`] and records the MEA1xx
    /// coherence verdict in [`ExperimentReport::sanitizer`].
    pub sanitizer: Sanitizer,
    /// Modeled energy envelope for the MEALib row. When set (and
    /// verification is not [`VerifyMode::Off`]), a run whose modeled
    /// MEALib energy exceeds the budget fails with an MEA203
    /// ([`mealib_types::ErrorCode::BoundsEnergyBudget`]) diagnostic.
    pub energy_budget: Option<mealib_types::Joules>,
}

impl ExperimentOptions {
    /// Sets the verification policy.
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.verify = mode;
        self
    }

    /// Sets the instrumentation sink.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Installs a recorder (shorthand for `obs(Obs::new(recorder))`).
    pub fn recorder(self, recorder: Arc<dyn Recorder + Send + Sync>) -> Self {
        self.obs(Obs::new(recorder))
    }

    /// Installs a shadow-memory sanitizer ([`Sanitizer::active`]).
    pub fn sanitizer(mut self, san: Sanitizer) -> Self {
        self.sanitizer = san;
        self
    }

    /// Declares a modeled energy envelope for the MEALib row.
    pub fn energy_budget(mut self, budget: mealib_types::Joules) -> Self {
        self.energy_budget = Some(budget);
        self
    }
}

/// The result of [`run_experiment`]: the five-platform comparison plus
/// the MEALib phase/counter breakdown.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Results in platform order: Haswell, Xeon Phi, PSAS, MSAS, MEALib.
    pub comparison: OpComparison,
    /// Phase itemization of the MEALib row (DMA vs. compute, with the
    /// DRAM command counters). Its time and energy totals equal the
    /// MEALib row's `time`/`energy` exactly.
    pub breakdown: Breakdown,
    /// The sanitizer's final MEA1xx report when an active
    /// [`Sanitizer`] was installed; `None` otherwise.
    pub sanitizer: Option<mealib_types::Report>,
}

/// Runs `op` on all five platforms — Haswell (MKL), Xeon Phi (MKL),
/// PSAS, MSAS, MEALib — per the policy in `opts`.
///
/// Under [`VerifyMode::Enforce`] the first call in a process runs the
/// static-verification preflight ([`preflight`](mod@crate::preflight)): TDL semantics,
/// descriptor image, memory-config validation (with the interleaving
/// bijectivity proof), physical-memory consistency, and the dataflow &
/// coherence analysis. Subsequent calls reuse the cached verdict.
///
/// # Errors
///
/// Under `Enforce`, returns the diagnostic report if the preflight
/// finds coded errors or the modeled MEALib energy exceeds
/// [`ExperimentOptions::energy_budget`]. `Off` never fails.
pub fn run_experiment(
    op: &AccelParams,
    opts: &ExperimentOptions,
) -> Result<ExperimentReport, mealib_types::Report> {
    let enforce = opts.verify == VerifyMode::Enforce;
    if enforce {
        crate::preflight::preflight_checked()?;
    }

    let mut rows = Vec::with_capacity(5);
    for platform in [Platform::haswell(), Platform::xeon_phi()] {
        let r = run_op(&platform, op, CodeFlavor::Library);
        r.record_into(&opts.obs);
        rows.push(PlatformResult {
            name: platform.name.clone(),
            time: r.time,
            energy: r.energy,
            flops: r.flops,
            bytes: r.bytes,
        });
    }
    let mut breakdown = Breakdown::new();
    for accel in [
        AcceleratedPlatform::psas(),
        AcceleratedPlatform::msas(),
        AcceleratedPlatform::mealib(),
    ] {
        let r = accel.run(op);
        if accel.name == "MEALib" {
            breakdown.add_phase(Phase::Compute, r.compute_time, r.energy - r.mem_energy);
            breakdown.add_phase(Phase::Dma, r.time - r.compute_time, r.mem_energy);
            let rec = TraceRecorder::shared();
            r.mem.record_into(&Obs::new(rec.clone()));
            breakdown.merge(&rec.breakdown());
            opts.obs.record_breakdown(&breakdown, &accel.name);
        }
        rows.push(PlatformResult {
            name: accel.name.clone(),
            time: r.time,
            energy: r.energy,
            flops: r.flops,
            bytes: r.mem.bytes_moved().get(),
        });
    }
    // MEA203-style energy-envelope check over the modeled MEALib row.
    if let Some(budget) = opts.energy_budget {
        let modeled = rows.last().expect("five rows").energy;
        if enforce && modeled.get() > budget.get() {
            let mut r = mealib_types::Report::new();
            r.push(mealib_types::Diagnostic::error(
                mealib_types::ErrorCode::BoundsEnergyBudget,
                format!(
                    "modeled MEALib energy {:.3e} J exceeds the declared budget {:.3e} J",
                    modeled.get(),
                    budget.get()
                ),
            ));
            return Err(r);
        }
    }
    let sanitizer = if opts.sanitizer.is_active() {
        drive_sanitized(op, &opts.sanitizer);
        Some(opts.sanitizer.final_report())
    } else {
        None
    };
    Ok(ExperimentReport {
        comparison: OpComparison { op: *op, rows },
        breakdown,
        sanitizer,
    })
}

/// Replays `op` as one MEALib library call through a sanitized
/// [`Runtime`], following the canonical coherence protocol: host
/// initialization, implicit `wbinvd` at invocation, `wbinvd` again
/// before the host reads the result back. Buffer sizes are token-sized
/// — the sanitizer checks the access *protocol*, not the dataset.
fn drive_sanitized(op: &AccelParams, san: &Sanitizer) {
    let mut rt = Runtime::new();
    rt.set_sanitizer(san.clone());
    rt.mem_alloc("san.in", Bytes::from_mib(1))
        .expect("sanitizer buffer fits the default stack");
    rt.mem_alloc("san.out", Bytes::from_mib(1))
        .expect("sanitizer buffer fits the default stack");
    rt.driver_mut()
        .write("san.in", 0, &[0u8; 64])
        .expect("sanitizer input initializes");
    let mut bag = ParamBag::new();
    bag.insert("op.para".into(), op.to_bytes());
    let tdl = format!(
        "PASS in=san.in out=san.out {{ COMP {} params=\"op.para\" }}",
        op.kind().keyword()
    );
    let plan = rt.acc_plan(&tdl, &bag).expect("sanitizer descriptor plans");
    rt.acc_execute(&plan)
        .expect("sanitizer descriptor executes");
    rt.cache_sync();
    let _ = rt
        .driver()
        .read("san.out", 0, 16)
        .expect("sanitizer output reads back");
}

/// The Table 2 datasets, one per accelerated operation.
pub fn table2_workloads() -> Vec<AccelParams> {
    vec![
        // 256M-element vectors (1 GB).
        AccelParams::Axpy {
            n: 256 << 20,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        },
        AccelParams::Dot {
            n: 256 << 20,
            incx: 1,
            incy: 1,
            complex: false,
        },
        // 16384 x 16384 matrix (1 GB).
        AccelParams::Gemv { m: 16384, n: 16384 },
        // rgg_n_2_20-class sparse matrix.
        AccelParams::Spmv {
            rows: 1 << 20,
            cols: 1 << 20,
            nnz: 13 * (1 << 20),
        },
        // 16384 resampling blocks.
        AccelParams::Resmp {
            blocks: 16384,
            in_per_block: 8192,
            out_per_block: 8192,
        },
        // 8192 x 8192 complex FFT batch (512 MB).
        AccelParams::Fft {
            n: 8192,
            batch: 8192,
        },
        // 16384 x 16384 transpose (1 GB).
        AccelParams::Reshp {
            rows: 16384,
            cols: 16384,
            elem_bytes: 4,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_types::stats::geometric_mean;

    /// Default-options experiment, unwrapped to the comparison.
    fn compare(op: &AccelParams) -> OpComparison {
        run_experiment(op, &ExperimentOptions::default())
            .expect("preflight clean")
            .comparison
    }

    #[test]
    fn energy_budget_enforcement_draws_mea203() {
        let op = AccelParams::Axpy {
            n: 1 << 20,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        };
        // An impossibly tight envelope fails under Enforce with the
        // bounds code...
        let err = run_experiment(
            &op,
            &ExperimentOptions::default().energy_budget(mealib_types::Joules::from_picos(1.0)),
        )
        .expect_err("picjoule budget must fail");
        assert!(
            err.has_code(mealib_types::ErrorCode::BoundsEnergyBudget),
            "{err}"
        );
        // ...is not checked under Off...
        let unchecked = run_experiment(
            &op,
            &ExperimentOptions::default()
                .verify(VerifyMode::Off)
                .energy_budget(mealib_types::Joules::from_picos(1.0)),
        );
        assert!(unchecked.is_ok());
        // ...and a generous envelope passes untouched.
        let ok = run_experiment(
            &op,
            &ExperimentOptions::default().energy_budget(mealib_types::Joules::from_millis(1e6)),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn mealib_wins_every_operation() {
        for op in table2_workloads() {
            let cmp = compare(&op);
            let speedups = cmp.speedups();
            let mealib = cmp.mealib_speedup();
            for (name, s) in &speedups {
                assert!(
                    mealib >= *s,
                    "{:?}: MEALib ({mealib:.1}x) must win, {name} has {s:.1}x",
                    op.kind()
                );
            }
        }
    }

    #[test]
    fn fig9_shape_reshp_max_spmv_min() {
        let results: Vec<(mealib_tdl::AcceleratorKind, f64)> = table2_workloads()
            .iter()
            .map(|op| (op.kind(), compare(op).mealib_speedup()))
            .collect();
        let reshp = results
            .iter()
            .find(|(k, _)| *k == mealib_tdl::AcceleratorKind::Reshp)
            .expect("reshp present")
            .1;
        let spmv = results
            .iter()
            .find(|(k, _)| *k == mealib_tdl::AcceleratorKind::Spmv)
            .expect("spmv present")
            .1;
        for (kind, s) in &results {
            assert!(
                *s <= reshp * 1.01,
                "{kind}: {s:.1}x exceeds RESHP {reshp:.1}x"
            );
            assert!(
                *s >= spmv * 0.6,
                "{kind}: {s:.1}x far below SPMV {spmv:.1}x"
            );
        }
        // Paper: 11x (SPMV) to 88x (RESHP).
        assert!((4.0..30.0).contains(&spmv), "SPMV gain {spmv:.1}x");
        assert!((40.0..160.0).contains(&reshp), "RESHP gain {reshp:.1}x");
    }

    #[test]
    fn fig9_average_speedup_matches_scale() {
        let speedups: Vec<f64> = table2_workloads()
            .iter()
            .map(|op| compare(op).mealib_speedup())
            .collect();
        let avg = geometric_mean(&speedups).expect("positive speedups");
        // Paper: 38x average.
        assert!(
            (15.0..80.0).contains(&avg),
            "average MEALib speedup {avg:.1}x"
        );
    }

    #[test]
    fn fig10_energy_gains_exceed_performance_gains() {
        // The paper's central energy story: efficiency gains (75x avg)
        // are larger than performance gains (38x avg).
        let mut perf = Vec::new();
        let mut eff = Vec::new();
        for op in table2_workloads() {
            let cmp = compare(&op);
            perf.push(cmp.mealib_speedup());
            eff.push(cmp.mealib_efficiency_gain());
        }
        let avg_perf = geometric_mean(&perf).expect("positive");
        let avg_eff = geometric_mean(&eff).expect("positive");
        assert!(
            avg_eff > avg_perf,
            "energy gain {avg_eff:.1}x must exceed perf gain {avg_perf:.1}x"
        );
        assert!(
            (30.0..160.0).contains(&avg_eff),
            "average EE gain {avg_eff:.1}x"
        );
    }

    #[test]
    fn baselines_normalize_to_one() {
        for op in table2_workloads() {
            let cmp = compare(&op);
            let s = cmp.speedups();
            let e = cmp.efficiency_gains();
            assert!((s[0].1 - 1.0).abs() < 1e-12, "{:?}", op.kind());
            assert!((e[0].1 - 1.0).abs() < 1e-12, "{:?}", op.kind());
            assert_eq!(s.len(), 5);
            assert!(s[0].0.contains("Haswell"));
            assert_eq!(s[4].0, "MEALib");
        }
    }

    #[test]
    fn throughput_metric_switches_for_flop_free_ops() {
        let reshp = table2_workloads()
            .into_iter()
            .find(|op| op.kind() == mealib_tdl::AcceleratorKind::Reshp)
            .expect("reshp present");
        let cmp = compare(&reshp);
        for row in &cmp.rows {
            assert_eq!(row.flops, 0, "{}: transpose has no FLOPs", row.name);
            assert!(
                row.throughput() > 0.0,
                "{}: GB/s metric must be used",
                row.name
            );
        }
    }

    #[test]
    fn experiment_breakdown_reconciles_with_mealib_row() {
        let op = AccelParams::Gemv { m: 2048, n: 2048 };
        let report = run_experiment(&op, &ExperimentOptions::default()).expect("preflight clean");
        let mealib = report.comparison.rows.last().expect("five rows");
        let dt = (report.breakdown.total_time().get() - mealib.time.get()).abs();
        let de = (report.breakdown.total_energy().get() - mealib.energy.get()).abs();
        assert!(dt <= 1e-9 * mealib.time.get(), "time drift {dt}");
        assert!(de <= 1e-9 * mealib.energy.get(), "energy drift {de}");
        assert!(
            report.breakdown.counter(mealib_obs::Counter::DramAct) > 0,
            "DRAM activates recorded"
        );
    }

    #[test]
    fn recorder_observes_experiment_phases() {
        let rec = TraceRecorder::shared();
        let opts = ExperimentOptions::default().recorder(rec.clone());
        let op = AccelParams::Axpy {
            n: 1 << 16,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        };
        run_experiment(&op, &opts).expect("preflight clean");
        let bd = rec.breakdown();
        assert!(bd.phase(Phase::Dma).time.get() > 0.0, "DMA phase recorded");
        assert!(
            bd.phase(Phase::Compute).time.get() > 0.0,
            "compute phase recorded"
        );
    }

    #[test]
    fn sanitized_experiment_is_coherence_clean() {
        let op = AccelParams::Axpy {
            n: 1 << 16,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        };
        let opts = ExperimentOptions::default().sanitizer(Sanitizer::active());
        let report = run_experiment(&op, &opts).expect("preflight clean");
        let san = report.sanitizer.expect("active sanitizer records");
        assert!(san.is_clean(), "{}", san.render());

        // Without the knob the field stays empty.
        let plain = run_experiment(&op, &ExperimentOptions::default()).expect("preflight clean");
        assert!(plain.sanitizer.is_none());
    }

    #[test]
    fn intermediate_platforms_order_between_haswell_and_mealib() {
        // PSAS < MSAS < MEALib on the streaming workloads (avg 2.51x,
        // 10.32x, 38x in the paper).
        let op = AccelParams::Gemv { m: 16384, n: 16384 };
        let cmp = compare(&op);
        let s = cmp.speedups();
        let find = |name: &str| s.iter().find(|(n, _)| n == name).expect("present").1;
        assert!(find("PSAS") > 1.0);
        assert!(find("MSAS") > find("PSAS"));
        assert!(find("MEALib") > find("MSAS"));
    }
}
