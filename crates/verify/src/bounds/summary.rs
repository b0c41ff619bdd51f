//! Per-program resource summaries: the certified DRAM intervals plus
//! the modeled accelerator-side costs, resolved against the memory
//! layer the session actually targets.

use mealib_accel::power;
use mealib_host::Platform;
use mealib_memsim::address::{self, AddressMapping};
use mealib_memsim::bounds::{segment_bounds, BoundsError, TraceBounds};
use mealib_memsim::MemoryConfig;
use mealib_types::{Bytes, BytesPerSec, Interval, PhysAddr};

use super::elaborate::{elaborate, Elaboration, PhaseTraffic};
use crate::dataflow::{Budgets, MemLayer, Session};

/// Everything the analyzer can say about one program against one
/// environment, before any policy (budgets, capacity) is applied.
///
/// The `dram` field is *certified*: the differential harness proves the
/// cycle engine's measurement lands inside every one of its intervals.
/// `accel_energy` is *modeled* from the Table-5 synthesis constants —
/// sound with respect to the analytical accelerator model, but not
/// replayed by the cycle engine.
#[derive(Debug, Clone)]
pub struct ResourceSummary {
    /// The memory layer the program runs on (default: interleaved
    /// stack).
    pub layer: MemLayer,
    /// Name of the resolved [`MemoryConfig`].
    pub config_name: String,
    /// Certified DRAM-side bounds over the elaborated program.
    pub dram: TraceBounds,
    /// Peak live-buffer footprint over declared extents.
    pub peak_footprint: Bytes,
    /// Capacity the footprint is judged against (`BUDGET CAPACITY`
    /// override or the environment's modeled stack size).
    pub capacity: Bytes,
    /// Peak bandwidth of the resolved layer (the roofline ceiling).
    pub peak_bandwidth: BytesPerSec,
    /// Modeled accelerator energy in joules: datapath floor to
    /// datapath + leakage over the elapsed upper bound.
    pub accel_energy: Interval,
    /// Declared budgets carried over from the session.
    pub budgets: Budgets,
    /// Pass executions, loop counts multiplied in.
    pub invocations: u64,
    /// Deepest comp chain in any pass (CU occupancy).
    pub max_chain_len: usize,
    /// Each pass's traffic once, in program order, with how many times
    /// it executes (its loop's count, or 1).
    pub phases: Vec<(PhaseTraffic, u64)>,
    /// Buffers whose extent is undeclared — their traffic is absent
    /// from every interval, so the certificate is partial.
    pub missing_extents: Vec<String>,
}

impl ResourceSummary {
    /// Modeled whole-program energy: certified DRAM interval plus the
    /// modeled accelerator interval.
    pub fn total_energy(&self) -> Interval {
        self.dram.energy + self.accel_energy
    }
}

/// Resolves the session's `MEM` directive to a concrete memory
/// configuration and the environment pieces the passes need.
pub(crate) fn resolve_layer(
    layer: MemLayer,
    stack: &MemoryConfig,
    host: &Platform,
) -> MemoryConfig {
    match layer {
        MemLayer::Interleaved => stack.clone(),
        MemLayer::Xor => {
            let mut cfg = stack.clone();
            cfg.mapping = match cfg.mapping {
                AddressMapping::Interleaved {
                    units,
                    banks_per_unit,
                    row_bytes,
                    line_bytes,
                } => AddressMapping::XorInterleaved {
                    units,
                    banks_per_unit,
                    row_bytes,
                    line_bytes,
                },
                other => other,
            };
            cfg.name = format!("{}-xor", cfg.name);
            cfg
        }
        MemLayer::Asym(split) => {
            let mut cfg = MemoryConfig::ddr_dual_channel();
            cfg.mapping = address::asymmetric_dimms(PhysAddr::new(split));
            cfg.name = "ddr-asymmetric".into();
            cfg
        }
        MemLayer::Host => host.mem.clone(),
    }
}

/// Builds the resource summary for `session`: elaborates the program,
/// prices its segments through the resolved layer's mapping (each loop
/// body walked at most twice, not once per iteration), and attaches the
/// modeled accelerator energy.
///
/// # Errors
///
/// [`BoundsError::Config`] if the resolved memory configuration fails
/// validation (not reachable with the built-in environments, which only
/// produce preset configurations); [`BoundsError::Overflow`] if the
/// program moves more bytes than a `u64` counts.
pub fn summarize(
    session: &Session,
    stack: &MemoryConfig,
    host: &Platform,
    default_capacity: Bytes,
) -> Result<ResourceSummary, BoundsError> {
    let layer = session
        .mem_layer
        .map(|(_, l)| l)
        .unwrap_or(MemLayer::Interleaved);
    let cfg = resolve_layer(layer, stack, host);
    let e = elaborate(session);
    let dram = segment_bounds(&cfg, &e.walk_segments())?;
    let accel_energy = accel_energy(&e, dram.elapsed.hi);
    let max_chain_len = e
        .phases()
        .filter(|&(_, n)| n > 0)
        .map(|(p, _)| p.chain_len())
        .max()
        .unwrap_or(0);

    let capacity = session
        .budgets
        .capacity_bytes
        .map(Bytes::new)
        .unwrap_or(default_capacity);

    Ok(ResourceSummary {
        layer,
        config_name: cfg.name.clone(),
        peak_bandwidth: cfg.peak_bandwidth(),
        dram,
        peak_footprint: Bytes::new(e.peak_footprint),
        capacity,
        accel_energy,
        budgets: session.budgets,
        invocations: e.invocations,
        max_chain_len,
        phases: e.phases().map(|(p, n)| (p.clone(), n)).collect(),
        missing_extents: e.missing_extents,
    })
}

/// Modeled accelerator energy under the Table-5 synthesis constants:
/// every comp in a chain streams its phase's bytes through its datapath
/// (the floor), and the leakage of each accelerator kind deployed
/// accrues for at most `elapsed_hi` seconds (the ceiling). The floor
/// adds one term per execution in program order, loops unrolled, so its
/// float sum does not depend on how the program is stored.
pub(crate) fn accel_energy(e: &Elaboration, elapsed_hi: f64) -> Interval {
    let mut datapath_j = 0.0;
    for phase in e.executions() {
        for &accel in &phase.accels {
            datapath_j += power::profile(accel).e_byte_datapath.get() * phase.bytes as f64;
        }
    }
    // Kinds in order of first execution: a pass that runs runs in the
    // first iteration of its loop.
    let mut leakage_w = 0.0;
    let mut seen = std::collections::BTreeSet::new();
    for (phase, _) in e.phases().filter(|&(_, n)| n > 0) {
        for &accel in &phase.accels {
            if seen.insert(accel) {
                leakage_w += power::profile(accel).p_leakage.get();
            }
        }
    }
    Interval::new(datapath_j, datapath_j + leakage_w * elapsed_hi)
}
