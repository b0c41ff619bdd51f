//! Differential soundness harness for the MEA2xx bounds certifier.
//!
//! Every corpus program (bad *and* clean — soundness does not care
//! whether the program violates a budget) and every example session is
//! elaborated into its canonical trace, priced by the static analyzer,
//! and replayed through the cycle engine against the *same* resolved
//! memory configuration. The harness requires
//! `lower <= measured <= upper` on every certified counter: bytes
//! moved, DRAM activations, cycles, elapsed time, and DRAM energy —
//! with bytes and burst commands exact.

use std::fs;
use std::path::PathBuf;

use mealib_memsim::bounds::trace_bounds;
use mealib_memsim::engine::{simulate, SimOptions};
use mealib_verify::bounds::{self, BoundsEnv};
use mealib_verify::dataflow::parse_session;

fn manifest_path(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// All `.tdl` sources the harness certifies: both corpus halves plus
/// the repo examples.
fn tdl_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for dir in [
        manifest_path("corpus/bad"),
        manifest_path("corpus/clean"),
        manifest_path("../../examples/tdl"),
    ] {
        let mut files: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "tdl"))
            .collect();
        files.sort();
        for path in files {
            let src = fs::read_to_string(&path).expect("tdl file reads");
            out.push((path.display().to_string(), src));
        }
    }
    assert!(
        out.len() >= 34,
        "expected the full corpus, got {}",
        out.len()
    );
    out
}

#[test]
fn every_corpus_and_example_program_is_certified_soundly() {
    let env = BoundsEnv::default();
    for (name, src) in tdl_sources() {
        let session = parse_session(&src).expect("corpus/example sources parse");
        let cfg = bounds::resolved_config(&session, &env);
        let trace = bounds::elaborate(&session).unrolled_trace();
        let static_bounds = trace_bounds(&cfg, &trace).expect("resolved configs validate");
        let run =
            simulate(&cfg, &trace, &SimOptions::dual_check()).expect("resolved configs validate");
        assert!(
            static_bounds.check_contains(&run.stats).is_none(),
            "{name}: {}",
            static_bounds.check_contains(&run.stats).unwrap()
        );
        // Burst commands and per-unit traffic are certified exactly.
        let reads: u64 = run.vaults.iter().map(|v| v.read_bursts).sum();
        let writes: u64 = run.vaults.iter().map(|v| v.write_bursts).sum();
        assert!(static_bounds.read_bursts.is_exact() && static_bounds.write_bursts.is_exact());
        assert_eq!(static_bounds.read_bursts.lo, reads as f64, "{name}");
        assert_eq!(static_bounds.write_bursts.lo, writes as f64, "{name}");
        let per_unit: Vec<u64> = run
            .vaults
            .iter()
            .map(|v| v.read_bursts + v.write_bursts)
            .collect();
        assert_eq!(static_bounds.unit_bursts, per_unit, "{name}");

        // The ResourceSummary pathway (what the passes consume) must
        // carry exactly the kernel's intervals — no drift between the
        // public API and the proven kernel.
        // It walks the kept loops, not the unrolled trace.
        let summary = bounds::summarize_session(&session, &env).expect("summarize");
        assert_eq!(summary.dram, static_bounds, "{name}");
        assert!(
            summary.total_energy().lo >= summary.dram.energy.lo,
            "{name}"
        );
    }
}

#[test]
fn clean_corpus_and_examples_draw_zero_mea2xx() {
    let env = BoundsEnv::default();
    for dir in ["corpus/clean", "../../examples/tdl"] {
        let dir = manifest_path(dir);
        for entry in fs::read_dir(&dir).expect("dir reads") {
            let path = entry.expect("entry").path();
            if path.extension().is_none_or(|e| e != "tdl") {
                continue;
            }
            let src = fs::read_to_string(&path).expect("reads");
            let session = parse_session(&src).expect("parses");
            let report = bounds::verify_session_bounds(&session, &env);
            assert!(
                report.is_clean(),
                "{}: expected zero MEA2xx, got:\n{report}",
                path.display()
            );
        }
    }
}

/// Programs whose buffers span several whole mapping periods behind a
/// misaligned head, inside loops of three or more iterations, on each
/// mapping mode — the shapes the bounds walk prices in closed form
/// (whole periods) and by repetition (iterations past the second). The
/// certificate from the kept loops must contain the cycle engine's
/// replay of the unrolled trace, and equal the walk of that trace
/// exactly.
#[test]
fn compressed_walks_are_certified_soundly() {
    let env = BoundsEnv::default();
    let body = "LOOP 3 {\n  PASS in=a out=b {\n    COMP AXPY params=\"a\"\n  }\n  PASS in=b out=a \
                {\n    COMP FFT params=\"f\"\n  }\n}\nLOOP 5 {\n  PASS in=a out=a {\n    COMP AXPY \
                params=\"a\"\n  }\n}\n";
    // 3.1 MiB from 4 KiB: a head, two whole 1 MiB stack periods, a tail.
    let stack_bufs = "BUF a 0x1000 0x320000\nBUF b 0x700040 0x320000\n";
    // The DIMM split at 3 MiB falls inside `a`: whole 128 KiB periods
    // below it, whole 64 KiB single-channel periods above it.
    let asym_bufs = "MEM ASYM 0x300000\nBUF a 0x2c0100 0x90000\nBUF b 0x100000 0x50000\n";
    for (name, header) in [
        ("interleaved", format!("MEM INTERLEAVED\n{stack_bufs}")),
        ("xor", format!("MEM XOR\n{stack_bufs}")),
        ("asym", asym_bufs.to_string()),
    ] {
        let session = parse_session(&format!("{header}{body}")).expect("program parses");
        let cfg = bounds::resolved_config(&session, &env);
        let elab = bounds::elaborate(&session);
        assert!(elab.segments.iter().any(|s| s.repeat >= 3), "{name}");
        let trace = elab.unrolled_trace();
        let summary = bounds::summarize_session(&session, &env).expect("summarize");
        assert_eq!(
            summary.dram,
            trace_bounds(&cfg, &trace).expect("preset configs validate"),
            "{name}"
        );
        let run =
            simulate(&cfg, &trace, &SimOptions::dual_check()).expect("preset configs validate");
        if let Some(violation) = summary.dram.check_contains(&run.stats) {
            panic!("{name}: {violation}");
        }
        let per_unit: Vec<u64> = run
            .vaults
            .iter()
            .map(|v| v.read_bursts + v.write_bursts)
            .collect();
        assert_eq!(summary.dram.unit_bursts, per_unit, "{name}");
    }
}
