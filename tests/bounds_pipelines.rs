//! Differential soundness harness over the *workloads* pipelines: the
//! STAP front-end and the SAR chaining/loop scenarios, exported as TDL
//! sessions with extents sized from the real dataset geometry, are
//! certified by the static-bounds analyzer and replayed through the
//! cycle engine. Lower <= measured <= upper must hold on every
//! certified counter, and none of the evaluation pipelines may draw an
//! MEA2xx diagnostic.

use mealib_memsim::bounds::trace_bounds;
use mealib_memsim::engine::{simulate, SimOptions};
use mealib_verify::bounds::{self, BoundsEnv};
use mealib_verify::dataflow::parse_session;
use mealib_workloads::sessions::pipeline_sessions;

#[test]
fn every_workloads_pipeline_is_certified_soundly() {
    let env = BoundsEnv::default();
    let sessions = pipeline_sessions();
    assert!(sessions.len() >= 6, "expected the full pipeline set");
    for (name, src) in sessions {
        let session = parse_session(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let cfg = bounds::resolved_config(&session, &env);
        let elab = bounds::elaborate(&session);
        assert!(
            elab.missing_extents.is_empty(),
            "{name}: exported sessions declare every extent"
        );
        let trace = elab.unrolled_trace();
        let static_bounds = trace_bounds(&cfg, &trace).expect("preset configs validate");
        let run =
            simulate(&cfg, &trace, &SimOptions::dual_check()).expect("preset configs validate");
        assert!(
            static_bounds.check_contains(&run.stats).is_none(),
            "{name}: {}",
            static_bounds.check_contains(&run.stats).unwrap()
        );
        let reads: u64 = run.vaults.iter().map(|v| v.read_bursts).sum();
        let writes: u64 = run.vaults.iter().map(|v| v.write_bursts).sum();
        assert_eq!(static_bounds.read_bursts.lo, reads as f64, "{name}");
        assert_eq!(static_bounds.write_bursts.lo, writes as f64, "{name}");
    }
}

#[test]
fn evaluation_pipelines_draw_zero_mea2xx() {
    let env = BoundsEnv::default();
    for (name, src) in pipeline_sessions() {
        let session = parse_session(&src).expect("pipeline sessions parse");
        let report = bounds::verify_session_bounds(&session, &env);
        assert!(report.is_clean(), "{name}:\n{report}");
    }
}
