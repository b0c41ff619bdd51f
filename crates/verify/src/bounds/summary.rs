//! Per-program resource summaries: the certified DRAM intervals plus
//! the modeled accelerator-side costs, resolved against the memory
//! layer the session actually targets.

use mealib_accel::power;
use mealib_host::Platform;
use mealib_memsim::address::{self, AddressMapping};
use mealib_memsim::bounds::{trace_bounds, TraceBounds};
use mealib_memsim::MemoryConfig;
use mealib_types::{Bytes, BytesPerSec, ConfigError, Interval, PhysAddr};

use super::elaborate::{elaborate, PhaseTraffic};
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
    /// Certified DRAM-side bounds over the elaborated trace.
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
    /// Flattened pass executions (loops unrolled).
    pub invocations: u64,
    /// Deepest comp chain in any pass (CU occupancy).
    pub max_chain_len: usize,
    /// Per-phase traffic, in program order.
    pub phases: Vec<PhaseTraffic>,
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

/// Builds the resource summary for `session`: elaborates the canonical
/// trace, prices it through the resolved layer's mapping, and attaches
/// the modeled accelerator energy.
///
/// # Errors
///
/// Returns the underlying [`ConfigError`] if the resolved memory
/// configuration fails validation (not reachable with the built-in
/// environments, which only produce preset configurations).
pub fn summarize(
    session: &Session,
    stack: &MemoryConfig,
    host: &Platform,
    default_capacity: Bytes,
) -> Result<ResourceSummary, ConfigError> {
    let layer = session
        .mem_layer
        .map(|(_, l)| l)
        .unwrap_or(MemLayer::Interleaved);
    let cfg = resolve_layer(layer, stack, host);
    let e = elaborate(session);
    let dram = trace_bounds(&cfg, &e.trace)?;

    // Modeled accelerator energy: every comp in a chain streams the
    // phase's bytes through its datapath (floor); leakage of the
    // accelerator kinds actually deployed accrues for at most the
    // elapsed upper bound.
    let mut datapath_j = 0.0;
    let mut leakage_w = 0.0;
    let mut seen = std::collections::BTreeSet::new();
    let mut max_chain_len = 0usize;
    for phase in &e.phases {
        max_chain_len = max_chain_len.max(phase.chain_len());
        for &accel in &phase.accels {
            let prof = power::profile(accel);
            datapath_j += prof.e_byte_datapath.get() * phase.bytes as f64;
            if seen.insert(accel) {
                leakage_w += prof.p_leakage.get();
            }
        }
    }
    let accel_energy = Interval::new(datapath_j, datapath_j + leakage_w * dram.elapsed.hi);

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
        phases: e.phases,
        missing_extents: e.missing_extents,
    })
}
