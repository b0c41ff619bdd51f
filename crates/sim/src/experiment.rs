//! The Figure 9/10 cross-platform comparison.
//!
//! For each Table 1 operation on its Table 2 dataset, run the same
//! "library call" on all five platforms — Haswell (MKL), Xeon Phi (MKL),
//! PSAS, MSAS, MEALib — and report performance and energy efficiency
//! normalized to Haswell, exactly as the paper's figures do.

use mealib_accel::AccelParams;
use mealib_host::{run_op, CodeFlavor, Platform};
use mealib_obs::{Breakdown, Obs, Phase};
use mealib_types::{Joules, Seconds, Watts};

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
}

/// Runs `op` on all five platforms — Haswell (MKL), Xeon Phi (MKL),
/// PSAS, MSAS, MEALib — and, when `obs` is enabled, folds both hosts'
/// rooflines and the MEALib breakdown into its recorder under one lock.
///
/// The first call in a process runs the static-verification preflight
/// ([`preflight`](mod@crate::preflight)): TDL semantics, descriptor
/// image, memory-config validation (with the interleaving bijectivity
/// proof), physical-memory consistency, and the dataflow & coherence
/// analysis. Subsequent calls reuse the cached verdict.
///
/// # Errors
///
/// Returns the diagnostic report if the preflight finds coded errors.
pub fn run_experiment(
    op: &AccelParams,
    obs: &Obs,
) -> Result<ExperimentReport, mealib_types::Report> {
    crate::preflight::preflight_checked()?;

    let mut rows = Vec::with_capacity(5);
    // What the recorder sees: both hosts' rooflines, then the MEALib row.
    let mut recorded = Breakdown::new();
    for platform in [Platform::haswell(), Platform::xeon_phi()] {
        let r = run_op(&platform, op, CodeFlavor::Library);
        if obs.enabled() {
            recorded.merge(&r.breakdown());
            r.add_counters(&mut recorded);
        }
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
            r.mem.add_counters(&mut breakdown);
        }
        rows.push(PlatformResult {
            name: accel.name.clone(),
            time: r.time,
            energy: r.energy,
            flops: r.flops,
            bytes: r.mem.bytes_moved().get(),
        });
    }
    if obs.enabled() {
        recorded.merge(&breakdown);
        obs.record_breakdown(&recorded);
    }
    Ok(ExperimentReport {
        comparison: OpComparison { op: *op, rows },
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_obs::TraceRecorder;
    use mealib_tdl::AcceleratorKind;
    use mealib_types::stats::geometric_mean;
    use mealib_workloads::datasets;

    /// The five-platform comparison of every Table 2 row, in paper order.
    fn table2_comparisons() -> Vec<OpComparison> {
        datasets::table2()
            .iter()
            .map(|row| {
                run_experiment(&row.params, &Obs::off())
                    .expect("preflight clean")
                    .comparison
            })
            .collect()
    }

    fn small_ops() -> Vec<AccelParams> {
        vec![
            AccelParams::Axpy {
                n: 1 << 16,
                alpha: 2.0,
                incx: 1,
                incy: 1,
            },
            AccelParams::Gemv { m: 512, n: 512 },
            AccelParams::Reshp {
                rows: 1024,
                cols: 1024,
                elem_bytes: 4,
            },
        ]
    }

    #[test]
    fn mealib_wins_every_operation() {
        for cmp in table2_comparisons() {
            let mealib = cmp.mealib_speedup();
            for (name, s) in &cmp.speedups() {
                assert!(
                    mealib >= *s,
                    "{:?}: MEALib ({mealib:.1}x) must win, {name} has {s:.1}x",
                    cmp.op.kind()
                );
            }
        }
    }

    #[test]
    fn fig9_shape_reshp_max_spmv_min() {
        let results: Vec<(AcceleratorKind, f64)> = table2_comparisons()
            .iter()
            .map(|cmp| (cmp.op.kind(), cmp.mealib_speedup()))
            .collect();
        let gain = |kind| {
            results
                .iter()
                .find(|(k, _)| *k == kind)
                .expect("kind present")
                .1
        };
        let reshp = gain(AcceleratorKind::Reshp);
        let spmv = gain(AcceleratorKind::Spmv);
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
        let speedups: Vec<f64> = table2_comparisons()
            .iter()
            .map(OpComparison::mealib_speedup)
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
        let cmps = table2_comparisons();
        let perf: Vec<f64> = cmps.iter().map(OpComparison::mealib_speedup).collect();
        let eff: Vec<f64> = cmps
            .iter()
            .map(OpComparison::mealib_efficiency_gain)
            .collect();
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
    fn experiment_breakdown_reconciles_with_mealib_row() {
        let op = AccelParams::Gemv { m: 2048, n: 2048 };
        let report = run_experiment(&op, &Obs::off()).expect("preflight clean");
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
        let op = AccelParams::Axpy {
            n: 1 << 16,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        };
        run_experiment(&op, &Obs::new(rec.clone())).expect("preflight clean");
        let bd = rec.breakdown();
        assert!(bd.phase(Phase::Dma).time.get() > 0.0, "DMA phase recorded");
        assert!(
            bd.phase(Phase::Compute).time.get() > 0.0,
            "compute phase recorded"
        );
    }

    #[test]
    fn shared_recording_equals_per_run_fold_exactly() {
        // The sink is fed each run's own breakdown in input order, so
        // its float phase totals equal that fold bit for bit, not
        // merely closely.
        let ops = small_ops();
        let rec = TraceRecorder::shared();
        let shared = Obs::new(rec.clone());
        for op in &ops {
            run_experiment(op, &shared).expect("preflight clean");
        }
        let mut want = Breakdown::new();
        for op in &ops {
            let own = TraceRecorder::shared();
            run_experiment(op, &Obs::new(own.clone())).expect("preflight clean");
            want.merge(&own.breakdown());
        }
        let got = rec.breakdown();
        assert!(!got.is_empty());
        assert_eq!(got, want);
        assert_eq!(got.to_json(), want.to_json());
    }

    #[test]
    fn intermediate_platforms_order_between_haswell_and_mealib() {
        // PSAS < MSAS < MEALib on the streaming workloads (avg 2.51x,
        // 10.32x, 38x in the paper).
        let op = AccelParams::Gemv { m: 16384, n: 16384 };
        let cmp = run_experiment(&op, &Obs::off())
            .expect("preflight clean")
            .comparison;
        let s = cmp.speedups();
        let find = |name: &str| s.iter().find(|(n, _)| n == name).expect("present").1;
        assert!(find("PSAS") > 1.0);
        assert!(find("MSAS") > find("PSAS"));
        assert!(find("MEALib") > find("MSAS"));
    }
}
