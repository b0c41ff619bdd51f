//! Symbolic cost & capacity certification: the MEA2xx pass family.
//!
//! This module derives *static resource bounds* for a session program
//! and turns provable violations into diagnostics:
//!
//! | code   | meaning |
//! |--------|---------|
//! | MEA200 | peak live footprint exceeds stack capacity |
//! | MEA201 | demanded throughput exceeds layer roofline |
//! | MEA202 | all traffic maps to a single vault |
//! | MEA203 | modeled energy exceeds declared budget |
//!
//! The analysis has three stages, one per submodule:
//!
//! 1. [`elaborate`](mod@elaborate) — lower the program into canonical memory-request
//!    segments (each loop body kept once with its static trip count,
//!    not unrolled) plus a liveness-exact peak-footprint figure;
//! 2. [`summary`] — price the segments through the memory layer the
//!    session targets (`MEM` directive) using the certified interval
//!    kernel in [`mealib_memsim::bounds`], and attach modeled
//!    accelerator energy from the Table-5 synthesis constants;
//! 3. [`passes`] — compare the certified lower bounds against the
//!    declared budgets (`BUDGET` directives) and the modeled capacity.
//!
//! The kernel walks a loop body at most twice and prices whole mapping
//! periods of a request in closed form, so certification costs
//! O(program), not O(bytes × iterations); only the accelerator-energy
//! floor still adds one term per loop iteration.
//!
//! Soundness is not asserted, it is *tested*: the `bounds_soundness`
//! integration tests run every corpus program and every workloads
//! pipeline through this analyzer and through the cycle engine (on the
//! unrolled trace) and require `lower <= measured <= upper` on every
//! certified counter.
//! Because each diagnostic needs a provable violation, a program with
//! undeclared extents or absent budgets simply certifies less — it
//! never produces a speculative MEA2xx.

pub mod elaborate;
pub mod passes;
pub mod summary;

pub use elaborate::{
    elaborate, Elaboration, PhaseTraffic, ProgramSegment, FLOOR_BUDGET, UNROLL_BUDGET,
};
pub use summary::{summarize, ResourceSummary};

use mealib_host::Platform;
use mealib_memsim::bounds::BoundsError;
use mealib_memsim::MemoryConfig;
use mealib_types::{Bytes, Diagnostic, ErrorCode, Report};

use crate::dataflow::Session;

/// The environment the bounds passes judge a program against: which
/// stack it runs on, which host platform fronts it, and how much of the
/// stack the runtime models as allocatable.
#[derive(Debug, Clone)]
pub struct BoundsEnv {
    /// The 3D stack configuration (`MEM INTERLEAVED`/`XOR` resolve
    /// against this).
    pub stack: MemoryConfig,
    /// The host platform (`MEM HOST` resolves to its DIMM system and
    /// roofline; `MEM ASYM` models carving its DIMMs).
    pub host: Platform,
    /// Modeled allocatable stack capacity, overridable per program via
    /// `BUDGET CAPACITY`. Matches the runtime driver's default region.
    pub capacity: Bytes,
}

impl Default for BoundsEnv {
    fn default() -> Self {
        Self {
            stack: MemoryConfig::hmc_stack(),
            host: Platform::haswell(),
            // The runtime driver's default modeled region: 2 GiB.
            capacity: Bytes::from_gib(2),
        }
    }
}

/// The concrete memory configuration `session`'s `MEM` directive
/// resolves to under `env`. The differential soundness harness replays
/// the unrolled elaboration through the cycle engine against exactly this
/// configuration.
pub fn resolved_config(session: &Session, env: &BoundsEnv) -> MemoryConfig {
    let layer = session
        .mem_layer
        .map(|(_, l)| l)
        .unwrap_or(crate::dataflow::MemLayer::Interleaved);
    summary::resolve_layer(layer, &env.stack, &env.host)
}

/// Builds the resource summary for `session` under `env`. Convenience
/// wrapper over [`summary::summarize`] with the environment unpacked.
///
/// # Errors
///
/// Propagates a [`BoundsError`]: a resolved configuration failing
/// validation (unreachable with [`BoundsEnv`]'s preset
/// configurations), a program moving more bytes than a `u64` counts,
/// or one invoking accelerators more often than [`FLOOR_BUDGET`].
pub fn summarize_session(
    session: &Session,
    env: &BoundsEnv,
) -> Result<ResourceSummary, BoundsError> {
    summary::summarize(session, &env.stack, &env.host, env.capacity)
}

/// Runs the MEA2xx bounds passes over `session` and returns the report.
///
/// A configuration that fails validation yields an empty report: the
/// MEA02x memconfig passes own that failure mode, and every MEA2xx
/// diagnostic requires a provable violation against a *valid* model.
/// So does a program moving more than `u64::MAX` bytes, whose counts
/// cannot be certified. A program invoking accelerators more often
/// than [`FLOOR_BUDGET`] is not certified either, and says so (see
/// [`work_budget_diagnostic`]).
pub fn verify_session_bounds(session: &Session, env: &BoundsEnv) -> Report {
    let mut report = Report::new();
    let summary = match summarize_session(session, env) {
        Ok(summary) => summary,
        Err(e) => {
            if let Some(d) = work_budget_diagnostic(&e) {
                report.push(d);
            }
            return report;
        }
    };
    passes::check_capacity(&summary, &mut report);
    passes::check_bandwidth(&summary, &mut report);
    passes::check_vault_skew(&summary, &mut report);
    passes::check_energy_budget(&summary, &mut report);
    report
}

/// The MEA005 error (the loop-count code) for a program or session set
/// whose loop counts put its bounds past the analysis budget, or `None`
/// when `e` is any other [`BoundsError`]. Such input is well-formed but
/// uncertified, and a program whose budgets were never checked must
/// not lint clean.
pub fn work_budget_diagnostic(e: &BoundsError) -> Option<Diagnostic> {
    matches!(e, BoundsError::WorkBudget { .. }).then(|| {
        Diagnostic::error(
            ErrorCode::TdlLoopTripCount,
            format!("{e}; no bound is certified"),
        )
    })
}

/// Parses `src` as a session and runs the bounds passes; parse errors
/// yield an empty report (the syntax passes own those).
pub fn verify_source_bounds(src: &str) -> Report {
    match crate::dataflow::parse_session(src) {
        Ok(session) => verify_session_bounds(&session, &BoundsEnv::default()),
        Err(_) => Report::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::parse_session;

    fn lint(src: &str) -> Report {
        verify_session_bounds(&parse_session(src).unwrap(), &BoundsEnv::default())
    }

    /// `LOOP n` over one pass between two 1 KiB buffers: n
    /// accelerator invocations.
    fn looped(n: u64) -> String {
        format!(
            "BUF x 0x1000 0x400\nBUF y 0x2000 0x400\nLOOP {n} {{ PASS in=x out=y {{ COMP AXPY \
             params=\"a.para\" }} }}\n"
        )
    }

    #[test]
    fn invocations_past_the_floor_budget_are_a_typed_error() {
        let env = BoundsEnv::default();
        // 2^40 invocations: the energy floor would add one term each.
        for n in [FLOOR_BUDGET + 1, 1 << 40] {
            let over = parse_session(&looped(n)).unwrap();
            let err = summarize_session(&over, &env).unwrap_err();
            assert_eq!(
                err,
                BoundsError::WorkBudget {
                    steps: n,
                    budget: FLOOR_BUDGET
                }
            );
            let report = verify_session_bounds(&over, &env);
            assert!(report.has_code(ErrorCode::TdlLoopTripCount), "{report}");
            assert!(
                report.has_errors(),
                "an uncertified program must not lint clean"
            );
        }
    }

    #[test]
    fn paper_scale_loops_stay_certified() {
        // The paper's 16 M-call loop, compacted into one descriptor.
        let env = BoundsEnv::default();
        let paper = parse_session(&looped(1 << 24)).unwrap();
        assert_eq!(
            summarize_session(&paper, &env).unwrap().invocations,
            1 << 24
        );
        assert!(verify_session_bounds(&paper, &env).is_clean());

        // The MEA201 corpus loop at 2^20 iterations keeps its real
        // violation.
        let src = include_str!("../../corpus/bad/mea201_loop_traffic.tdl");
        let big = src.replace("LOOP 8 {", "LOOP 1048576 {");
        assert_ne!(big, src);
        let report = lint(&big);
        assert!(
            report.has_code(ErrorCode::BoundsBandwidthInfeasible),
            "{report}"
        );
        assert!(!report.has_code(ErrorCode::TdlLoopTripCount), "{report}");
    }

    #[test]
    fn clean_program_certifies_clean() {
        let src = "BUF a 0x1000 0x100000\nBUF b 0x200000 0x100000\nPASS in=a out=b {\n  COMP FFT \
                   params=\"n=4096\"\n}\n";
        let report = lint(src);
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn capacity_overflow_is_mea200() {
        // Two simultaneously-live buffers against a shrunken modeled
        // stack (exercises the env default-capacity plumbing without a
        // multi-GiB trace walk).
        let env = BoundsEnv {
            capacity: Bytes::new(0x3000),
            ..BoundsEnv::default()
        };
        let src = "BUF a 0x1000 0x2000\nBUF b 0x8000 0x2000\nPASS in=a out=b {\n  COMP AXPY \
                   params=\"a\"\n}\n";
        let report = verify_session_bounds(&parse_session(src).unwrap(), &env);
        assert!(report.has_code(ErrorCode::BoundsCapacityOverflow));
    }

    #[test]
    fn capacity_budget_directive_overrides_default() {
        let src = "BUDGET CAPACITY 0x100\nBUF a 0x1000 0x200\nBUF b 0x2000 0x200\nPASS in=a \
                   out=b {\n  COMP AXPY params=\"a\"\n}\n";
        assert!(lint(src).has_code(ErrorCode::BoundsCapacityOverflow));
    }

    #[test]
    fn bandwidth_infeasibility_needs_a_time_budget() {
        // 16 MiB x 2 through the stack in a nanosecond: infeasible.
        let feasible = "BUF a 0x1000 0x1000000\nBUF b 0x2000000 0x1000000\nPASS in=a out=b {\n  \
                        COMP FFT params=\"f\"\n}\n";
        assert!(lint(feasible).is_clean());
        let infeasible = format!("BUDGET TIME 1e-9\n{feasible}");
        assert!(lint(&infeasible).has_code(ErrorCode::BoundsBandwidthInfeasible));
    }

    #[test]
    fn single_vault_mapping_is_mea202() {
        // The asymmetric high region is one contiguous channel: placing
        // both buffers above the split serializes every burst.
        let src = "MEM ASYM 0x1000\nBUF a 0x100000 0x10000\nBUF b 0x200000 0x10000\nPASS in=a \
                   out=b {\n  COMP AXPY params=\"a\"\n}\n";
        let report = lint(src);
        assert!(report.has_code(ErrorCode::BoundsVaultSkew));
    }

    #[test]
    fn interleaved_traffic_does_not_skew() {
        let src = "BUF a 0x1000 0x100000\nBUF b 0x200000 0x100000\nPASS in=a out=b {\n  COMP FFT \
                   params=\"f\"\n}\n";
        assert!(!lint(src).has_code(ErrorCode::BoundsVaultSkew));
    }

    #[test]
    fn energy_budget_violation_is_mea203() {
        let src = "BUDGET ENERGY 1e-6\nBUF a 0x1000 0x400000\nBUF b 0x800000 0x400000\nLOOP 8 \
                   {\n  PASS in=a out=b {\n    COMP FFT params=\"f\"\n  }\n}\n";
        assert!(lint(src).has_code(ErrorCode::BoundsEnergyBudget));
    }

    #[test]
    fn generous_budgets_stay_clean() {
        let src = "BUDGET TIME 100\nBUDGET ENERGY 1000\nBUF a 0x1000 0x100000\nBUF b 0x200000 \
                   0x100000\nPASS in=a out=b {\n  COMP FFT params=\"f\"\n}\n";
        assert!(lint(src).is_clean());
    }
}
