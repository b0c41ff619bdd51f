//! Cross-layer checks of the `mealib-obs` instrumentation: recorded
//! breakdowns export as valid Chrome traces, and every `Breakdown`
//! reconciles with the aggregate report it itemizes — for the STAP
//! application and the SAR imaging chain.

use mealib::prelude::*;
use mealib_obs::{validate_chrome_trace, Counter, Obs, Phase, Profile, TraceRecorder};
use mealib_sim::run_experiment;
use mealib_workloads::sar;
use mealib_workloads::stap::{self, StapConfig};

fn assert_within_1pct(label: &str, got: f64, want: f64) {
    let tol = 0.01 * want.abs().max(f64::MIN_POSITIVE);
    assert!(
        (got - want).abs() <= tol,
        "{label}: breakdown {got} vs report {want} differ by more than 1%"
    );
}

#[test]
fn stap_trace_jsonl_parses_and_reconciles() {
    let rec = TraceRecorder::shared();
    let (run, breakdown) = stap::run_on_mealib_traced(&StapConfig::small(), &Obs::new(rec.clone()));

    // The recorded breakdown exports as a valid Chrome trace with one
    // span per phase that took modeled time.
    let trace = Profile::from_breakdown(&rec.breakdown(), "stap").to_chrome_trace();
    let summary = validate_chrome_trace(&trace).expect("recorded breakdown exports");
    let timed = breakdown.phases().filter(|(_, t)| t.time.get() > 0.0);
    assert_eq!(summary.spans, timed.count(), "one span per timed phase");

    // The breakdown reconciles with the StapRun aggregate totals.
    assert_within_1pct(
        "stap time",
        breakdown.total_time().get(),
        run.total_time().get(),
    );
    assert_within_1pct(
        "stap energy",
        breakdown.total_energy().get(),
        run.total_energy().get(),
    );

    // The recorder saw the same breakdown that was returned.
    let seen = rec.breakdown();
    assert_within_1pct(
        "recorded time",
        seen.total_time().get(),
        run.total_time().get(),
    );
    assert!(seen.counter(Counter::DramAct) > 0, "DRAM activates traced");
    assert!(seen.counter(Counter::CuPasses) > 0, "CU passes traced");
}

#[test]
fn sweep_breakdowns_reconcile_per_run() {
    // One shared recorder across a sweep: every run's own breakdown
    // must still reconcile with its MEALib row (the per-run merge is
    // local to the experiment), and recording must not change the
    // modeled results.
    let ops = [
        mealib_accel::AccelParams::Axpy {
            n: 1 << 18,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        },
        mealib_accel::AccelParams::Gemv { m: 1024, n: 1024 },
        mealib_accel::AccelParams::Fft { n: 1024, batch: 64 },
        mealib_accel::AccelParams::Reshp {
            rows: 2048,
            cols: 2048,
            elem_bytes: 4,
        },
    ];
    let rec = TraceRecorder::shared();
    let obs = Obs::new(rec.clone());
    for op in &ops {
        let p = run_experiment(op, &obs).expect("preflight clean");
        let s = run_experiment(op, &Obs::off()).expect("preflight clean");
        let mealib_row = p.comparison.rows.last().expect("five rows");
        assert_within_1pct(
            "sweep run time",
            p.breakdown.total_time().get(),
            mealib_row.time.get(),
        );
        assert_within_1pct(
            "sweep run energy",
            p.breakdown.total_energy().get(),
            mealib_row.energy.get(),
        );
        assert_eq!(p.comparison, s.comparison, "recorded ≡ plain results");
    }
    // The shared recorder accumulated every run's phases.
    let seen = rec.breakdown();
    assert!(seen.phase(Phase::Dma).time.get() > 0.0, "DMA phases merged");
    assert!(seen.counter(Counter::DramAct) > 0, "DRAM activates traced");
}

#[test]
fn sar_breakdown_reconciles_with_op_report() {
    let rec = TraceRecorder::shared();
    let mut ml = Mealib::builder().recorder(rec.clone()).build();

    let n = 64;
    let raw: Vec<Complex32> = (0..n * n)
        .map(|i| Complex32::new((i % 17) as f32 - 8.0, (i % 11) as f32 - 5.0))
        .collect();
    let image = sar::form_image(&mut ml, &raw, n).expect("SAR image forms");
    assert!(image.energy.is_finite() && image.energy > 0.0);

    // The OpReport's breakdown itemizes exactly its own totals.
    let report = &image.report;
    let bd = report.breakdown();
    assert_within_1pct("sar time", bd.total_time().get(), report.time().get());
    assert_within_1pct("sar energy", bd.total_energy().get(), report.energy().get());
    assert!(
        bd.phase(Phase::Flush).time.get() > 0.0,
        "invocation overhead shows up as the flush phase"
    );

    // The installed recorder saw the allocator and DRAM activity of the
    // whole pipeline, not just the chained pass.
    let seen = rec.breakdown();
    let raw_bytes = (n * n * 8) as u64;
    assert!(
        seen.counter(Counter::AllocBytes) >= 2 * raw_bytes,
        "both SAR buffers counted"
    );
    assert!(seen.counter(Counter::DramAct) > 0, "DRAM activates traced");
    assert!(
        seen.counter(Counter::CacheFlushes) >= 1,
        "each invocation flushes the cache"
    );
}

#[test]
fn traced_sar_pipeline_records_identical_traces_on_every_run() {
    // Every recorded quantity is modeled or counted, so two identical
    // traced runs must serialize to the same bytes.
    let traced = || {
        let rec = TraceRecorder::shared();
        let mut ml = Mealib::builder().recorder(rec.clone()).build();
        let n = 64;
        let raw: Vec<Complex32> = (0..n * n)
            .map(|i| Complex32::new((i % 13) as f32 - 6.0, (i % 7) as f32 - 3.0))
            .collect();
        sar::form_image(&mut ml, &raw, n).expect("SAR image forms");
        let bd = rec.breakdown();
        (
            bd.to_json(),
            Profile::from_breakdown(&bd, "sar").to_chrome_trace(),
        )
    };
    let (breakdown, trace) = traced();
    validate_chrome_trace(&trace).expect("recorded breakdown exports");
    assert!(trace.contains("\"cat\":\"compute\""), "spans recorded");
    assert!(!trace.contains("wall_s") && !breakdown.contains("wall_s"));
    let (again_breakdown, again_trace) = traced();
    assert_eq!(breakdown, again_breakdown, "breakdown differs between runs");
    assert_eq!(trace, again_trace, "Chrome trace differs between runs");
}
