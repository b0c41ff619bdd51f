//! Experiment sweeps.
//!
//! The Figure 9/10 harnesses run [`run_experiment`] once per Table 2
//! workload. Each run builds its whole breakdown locally and folds it
//! into the recorder under one lock, so a sweep run in input order
//! sums the sink's floating-point phase totals with one fixed
//! association.

use mealib_accel::AccelParams;

use crate::experiment::{run_experiment, ExperimentOptions, ExperimentReport};

/// Runs `run_experiment` for every op in `ops`, in order, returning
/// per-op results in input order.
pub fn run_sweep(
    ops: &[AccelParams],
    opts: &ExperimentOptions,
) -> Vec<Result<ExperimentReport, mealib_types::Report>> {
    ops.iter().map(|op| run_experiment(op, opts)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::table2_workloads;
    use mealib_obs::{Breakdown, Phase, TraceRecorder};
    use mealib_runtime::Sanitizer;

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
    fn sweep_matches_run_experiment_per_run() {
        let ops = small_ops();
        let opts = ExperimentOptions::default();
        let swept = run_sweep(&ops, &opts);
        assert_eq!(swept.len(), ops.len());
        for (op, s) in ops.iter().zip(&swept) {
            let s = s.as_ref().expect("preflight clean");
            let d = run_experiment(op, &opts).expect("preflight clean");
            assert_eq!(s.comparison, d.comparison);
            assert_eq!(
                s.breakdown.total_time().get().to_bits(),
                d.breakdown.total_time().get().to_bits()
            );
            assert_eq!(
                s.breakdown.total_energy().get().to_bits(),
                d.breakdown.total_energy().get().to_bits()
            );
        }
    }

    #[test]
    fn sweep_preserves_input_order() {
        let ops = table2_workloads();
        let results = run_sweep(&ops, &ExperimentOptions::default());
        assert_eq!(results.len(), ops.len());
        for (op, result) in ops.iter().zip(&results) {
            let report = result.as_ref().expect("preflight clean");
            assert_eq!(report.comparison.op.kind(), op.kind());
        }
    }

    #[test]
    fn shared_recorder_merges_every_run() {
        // One recorder across a sweep: per-run breakdowns land in the
        // shared sink, and the merged totals equal the sum of the
        // per-run MEALib phases.
        let rec = TraceRecorder::shared();
        let opts = ExperimentOptions::default().recorder(rec.clone());
        let ops = small_ops();
        let results = run_sweep(&ops, &opts);
        let mut want_dma = 0.0;
        for r in &results {
            let report = r.as_ref().expect("preflight clean");
            want_dma += report.breakdown.phase(Phase::Dma).time.get();
        }
        let merged = rec.breakdown();
        assert!(merged.phase(Phase::Dma).time.get() >= want_dma * 0.999);
        assert!(merged.phase(Phase::Compute).time.get() > 0.0);
    }

    #[test]
    fn shared_recording_equals_per_run_fold_exactly() {
        // The sink is fed each run's own breakdown in input order, so
        // its float phase totals equal that fold bit for bit, not
        // merely closely.
        let ops = small_ops();
        let rec = TraceRecorder::shared();
        run_sweep(&ops, &ExperimentOptions::default().recorder(rec.clone()));
        let mut want = Breakdown::new();
        for op in &ops {
            let own = TraceRecorder::shared();
            run_experiment(op, &ExperimentOptions::default().recorder(own.clone()))
                .expect("preflight clean");
            want.merge(&own.breakdown());
        }
        let got = rec.breakdown();
        assert!(!got.is_empty());
        assert_eq!(got, want);
        assert_eq!(got.to_json(), want.to_json());
    }

    #[test]
    fn active_sanitizer_stays_clean() {
        let opts = ExperimentOptions::default().sanitizer(Sanitizer::active());
        let ops = small_ops();
        let results = run_sweep(&ops, &opts);
        for r in results {
            let report = r.expect("preflight clean");
            let san = report.sanitizer.expect("active sanitizer records");
            assert!(san.is_clean(), "{}", san.render());
        }
    }
}
