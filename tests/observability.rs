//! Cross-layer checks of the `mealib-obs` instrumentation: JSONL traces
//! parse, and every `Breakdown` reconciles with the aggregate report it
//! itemizes — for the STAP application and the SAR imaging chain.

use mealib::prelude::*;
use mealib_obs::json;
use mealib_obs::{Counter, Obs, Phase, TraceRecorder};
use mealib_sim::{run_sweep, ExperimentOptions};
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

    // Every JSONL line is a well-formed object of a known event type.
    let jsonl = rec.to_jsonl();
    assert!(!jsonl.is_empty(), "trace captured events");
    let mut spans = 0;
    let mut counts = 0;
    for line in jsonl.lines() {
        let v = json::parse(line).expect("trace line parses as JSON");
        let obj = v.as_object().expect("trace line is an object");
        match obj["type"].as_str() {
            Some("span") => {
                spans += 1;
                assert!(obj["phase"].as_str().is_some(), "span has a phase");
                assert!(obj["time_s"].as_f64().is_some(), "span has modeled time");
            }
            Some("count") => {
                counts += 1;
                assert!(obj["counter"].as_str().is_some(), "count names a counter");
                assert!(obj["value"].as_f64().is_some(), "count has a value");
            }
            other => panic!("unknown trace event type {other:?}"),
        }
    }
    assert!(spans > 0, "spans recorded");
    assert!(counts > 0, "counters recorded");

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
fn parallel_sweep_breakdowns_reconcile_per_run() {
    // One shared recorder across a 4-worker sweep: every run's own
    // breakdown must still reconcile with its MEALib row (the per-run
    // merge is local to the experiment), and the modeled results must be
    // identical to the serial sweep.
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
    let opts = ExperimentOptions::default().recorder(rec.clone());
    let parallel = run_sweep(&ops, &opts, 4);
    let serial = run_sweep(&ops, &ExperimentOptions::default(), 1);
    for (p, s) in parallel.iter().zip(&serial) {
        let p = p.as_ref().expect("preflight clean");
        let s = s.as_ref().expect("preflight clean");
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
        assert_eq!(p.comparison, s.comparison, "parallel ≡ serial results");
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
        (rec.to_jsonl(), rec.breakdown().to_json())
    };
    let (jsonl, breakdown) = traced();
    assert!(jsonl.contains("\"type\":\"span\""), "spans recorded");
    assert!(!jsonl.contains("wall_s") && !breakdown.contains("wall_s"));
    let (again_jsonl, again_breakdown) = traced();
    assert_eq!(jsonl, again_jsonl, "JSONL trace differs between runs");
    assert_eq!(breakdown, again_breakdown, "breakdown differs between runs");
}
