//! Parallel experiment sweeps.
//!
//! The Figure 9/10 harnesses run [`run_experiment`]
//! once per Table 2 workload; the design-space and ablation studies run
//! hundreds of independent configurations. Each call is self-contained —
//! it builds its accelerated platforms and its breakdown locally, and the
//! shared pieces ([`TraceRecorder::shared`](mealib_obs::TraceRecorder)
//! sinks, the [`preflight`](mod@crate::preflight) verdict cache, the
//! sanitizer state) are behind `Arc`/`Mutex`/`OnceLock` — so fanning the
//! calls across a bounded worker pool preserves every per-run result
//! bit-for-bit.
//!
//! When a recorder is installed, each run records into its own
//! [`TraceRecorder`], and the sweep feeds those event logs to the shared
//! sink in input order, one
//! [`Recorder::record_batch`](mealib_obs::Recorder::record_batch) per
//! run. The sink therefore sees the same events in the same order at
//! every `jobs` value, and its floating-point phase totals are summed in
//! that order too, so a traced sweep is byte-identical to the serial one.

use mealib_accel::AccelParams;
use mealib_obs::TraceRecorder;

use crate::experiment::{run_experiment, ExperimentOptions, ExperimentReport};

/// Runs `run_experiment` for every op in `ops` across up to `jobs`
/// worker threads, returning per-op results in input order.
///
/// `jobs == 0` resolves to the machine's available parallelism (the
/// workspace-wide [`mealib_types::auto_jobs`] convention); `jobs == 1`
/// runs serially on the calling thread. Results are
/// positionally identical to the serial loop regardless of `jobs`: the
/// scheduling is handled by [`mealib_types::par_map`], which reassembles
/// results by index. Recorder events are collected per run and
/// delivered to the shared sink in input order, one batch per run, so
/// the sink's contents do not depend on `jobs` either.
///
/// When an active [`Sanitizer`](mealib_runtime::Sanitizer) is installed
/// in `opts`, the sweep degrades to serial execution: all runs share the
/// sanitizer's shadow-memory state, and interleaving coherence protocols
/// from concurrent runs would report phantom violations.
pub fn run_sweep(
    ops: &[AccelParams],
    opts: &ExperimentOptions,
    jobs: usize,
) -> Vec<Result<ExperimentReport, mealib_types::Report>> {
    let jobs = if opts.sanitizer.is_active() {
        1
    } else {
        mealib_types::auto_jobs(jobs)
    };
    let Some(sink) = opts.obs.recorder() else {
        return mealib_types::par_map(ops, jobs, |op| run_experiment(op, opts));
    };
    let runs = mealib_types::par_map(ops, jobs, |op| {
        let local = TraceRecorder::shared();
        let result = run_experiment(op, &opts.clone().recorder(local.clone()));
        (result, local.events())
    });
    runs.into_iter()
        .map(|(result, events)| {
            sink.record_batch(&events);
            result
        })
        .collect()
}

/// The sweep fans one `ExperimentOptions` out to all workers by shared
/// reference, so the type must stay shareable across threads. These
/// bindings fail to compile if a non-`Send`/`Sync` field sneaks in.
#[allow(dead_code)]
const fn assert_options_shareable() {
    const fn sendable<T: Send + Sync>() {}
    sendable::<ExperimentOptions>();
    sendable::<ExperimentReport>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::table2_workloads;
    use mealib_obs::{Phase, TraceRecorder};
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
    fn parallel_sweep_matches_serial_per_run() {
        let ops = small_ops();
        let opts = ExperimentOptions::default();
        let serial = run_sweep(&ops, &opts, 1);
        let parallel = run_sweep(&ops, &opts, 4);
        assert_eq!(serial.len(), ops.len());
        assert_eq!(parallel.len(), ops.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().expect("preflight clean");
            let p = p.as_ref().expect("preflight clean");
            assert_eq!(s.comparison, p.comparison);
            assert_eq!(
                s.breakdown.total_time().get().to_bits(),
                p.breakdown.total_time().get().to_bits()
            );
            assert_eq!(
                s.breakdown.total_energy().get().to_bits(),
                p.breakdown.total_energy().get().to_bits()
            );
        }
    }

    #[test]
    fn sweep_preserves_input_order() {
        let ops = table2_workloads();
        let results = run_sweep(&ops, &ExperimentOptions::default(), 8);
        assert_eq!(results.len(), ops.len());
        for (op, result) in ops.iter().zip(&results) {
            let report = result.as_ref().expect("preflight clean");
            assert_eq!(report.comparison.op.kind(), op.kind());
        }
    }

    #[test]
    fn shared_recorder_merges_every_run() {
        // One recorder across a parallel sweep: per-run breakdowns land
        // in the shared sink, and the merged totals equal the sum of the
        // per-run MEALib phases (Breakdown merging is commutative).
        let rec = TraceRecorder::shared();
        let opts = ExperimentOptions::default().recorder(rec.clone());
        let ops = small_ops();
        let results = run_sweep(&ops, &opts, 4);
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
    fn parallel_recording_equals_serial_recording_exactly() {
        // Every run records on its own and the sink is fed in input
        // order, so the event log and the float phase totals are
        // identical under any worker count, not merely close.
        let ops = small_ops();
        let serial_rec = TraceRecorder::shared();
        let serial = run_sweep(
            &ops,
            &ExperimentOptions::default().recorder(serial_rec.clone()),
            1,
        );
        let par_rec = TraceRecorder::shared();
        let parallel = run_sweep(
            &ops,
            &ExperimentOptions::default().recorder(par_rec.clone()),
            4,
        );
        for (s, p) in serial.iter().zip(&parallel) {
            let s = s.as_ref().expect("preflight clean");
            let p = p.as_ref().expect("preflight clean");
            assert_eq!(s.comparison, p.comparison, "results must not change");
        }
        assert!(!serial_rec.is_empty());
        assert_eq!(serial_rec.events(), par_rec.events());
        assert_eq!(serial_rec.breakdown(), par_rec.breakdown());
        assert_eq!(serial_rec.to_jsonl(), par_rec.to_jsonl());
        assert_eq!(
            serial_rec.breakdown().to_json(),
            par_rec.breakdown().to_json()
        );
    }

    #[test]
    fn active_sanitizer_forces_serial_and_stays_clean() {
        let opts = ExperimentOptions::default().sanitizer(Sanitizer::active());
        let ops = small_ops();
        let results = run_sweep(&ops, &opts, 8);
        for r in results {
            let report = r.expect("preflight clean");
            let san = report.sanitizer.expect("active sanitizer records");
            assert!(san.is_clean(), "{}", san.render());
        }
    }
}
