//! Cross-layer static verifier for the MEALib stack (`mealint`).
//!
//! The paper's toolchain hands artifacts across four trust boundaries:
//! the compiler emits **TDL text**, the runtime encodes it into a binary
//! **accelerator descriptor**, the descriptor is placed into **physical
//! memory** the accelerators address directly (no MMU, §3.3), and every
//! experiment prices traffic through a **memory-simulator
//! configuration**. A defect at any boundary used to surface as a panic
//! deep inside the consumer. This crate verifies each artifact *before*
//! it crosses its boundary, reporting findings through the shared
//! [`mealib_types::diag`] vocabulary with stable `MEA0xx` codes.
//!
//! Its passes:
//!
//! * [`tdl`] — TDL semantic checks beyond parsing (`MEA001`–`MEA009`):
//!   chain legality per §2.3, aliasing hazards, dangling `params=`
//!   references, trip-count sanity;
//! * binary descriptor image checks (`MEA010`–`MEA019`) live with the
//!   format in [`mealib_tdl::descriptor::check`], the same walker the
//!   Configuration Unit decodes with, so `mealint` refuses exactly the
//!   images the CU refuses;
//! * [`memsim`] — simulator configuration checks (`MEA020`–`MEA029`):
//!   DRAM timing inequalities and an exhaustive bijectivity proof of the
//!   address-interleaving map (every physical byte lands on exactly one
//!   device location), including the asymmetric mode of §4.2;
//! * [`physmem`] — physical-memory checks (`MEA030`–`MEA039`) over a
//!   [`MemSnapshot`] of the driver's allocator and mapping state;
//! * [`dataflow`] — buffer-level dataflow & coherence analysis
//!   (`MEA100`–`MEA109`): uninitialized/dead buffers, alias/overlap
//!   conflicts, stale reads across the host↔accelerator cache boundary,
//!   and chain-capacity/progress violations.  The runtime's `Sanitizer`
//!   replays the same state machine dynamically so static and dynamic
//!   verdicts can be cross-validated;
//! * [`bounds`] — symbolic cost & capacity certification
//!   (`MEA200`–`MEA219`): interval bounds on bytes moved, DRAM
//!   commands, peak footprint, and modeled energy, proven sound against
//!   the cycle engine by a differential test harness, with diagnostics
//!   for capacity overflow, bandwidth-infeasible programs, degenerate
//!   vault skew, and energy-budget violations;
//! * [`interference`] — multi-tenant interference certification
//!   (`MEA300`–`MEA319`): session-set manifests (`TENANT`/`PARTITION`/
//!   `ARRIVAL` over the session format) are composed into per-tenant
//!   bandwidth/latency/energy bounds and an ADMIT/REJECT/UNKNOWN
//!   admission verdict, proven sound against the tagged interleaved
//!   cycle engine ([`mealib_memsim::simulate_tenants`]).
//!
//! The `mealint` binary runs the right pass over files given on the
//! command line. The runtime and the experiment harness run the same
//! passes by default (with an escape hatch) before encoding descriptors
//! or launching simulations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod dataflow;
pub mod interference;
pub mod memconfig;
pub mod memsim;
pub mod physmem;
pub mod tdl;

pub use bounds::{BoundsEnv, ResourceSummary};
pub use dataflow::{
    fusion_legal, AliasOracle, Budgets, CoherenceMachine, DataflowEnv, DataflowLimits, FusionStage,
    MemLayer, Session,
};
pub use interference::{Certification, SessionSet, Verdict};
pub use mealib_types::{Diagnostic, ErrorCode, Report, Severity, Span};
pub use physmem::{MemSnapshot, StackSnapshot};
pub use tdl::TdlLimits;

/// Renders the full `MEA0xx` error-code table (the `mealint --codes`
/// listing; also embedded in DESIGN.md).
pub fn error_code_table() -> String {
    let mut out = String::new();
    for code in ErrorCode::ALL {
        out.push_str(&format!("{}  {}\n", code.as_str(), code.title()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_table_lists_every_code_once() {
        let table = error_code_table();
        for code in ErrorCode::ALL {
            assert_eq!(table.matches(code.as_str()).count(), 1, "{code}");
        }
    }
}
