//! Proptest strategies shared by the memsim integration proptests and
//! the crate's own unit tests, which include this file by path (with
//! `mealib_memsim` naming the crate itself).

use mealib_memsim::address::AddressMapping;
use mealib_memsim::engine::Request;
use mealib_memsim::{MemoryConfig, TenantStream, TraceBuffer};
use mealib_types::PhysAddr;
use proptest::prelude::*;

/// Line size of every mapping [`mapping_config_strategy`] draws.
const LINE_BYTES: u64 = 256;
/// Split of the asymmetric mappings [`mapping_config_strategy`] draws.
const SPLIT: u64 = 1 << 23;

/// Requests of three shapes, so every decode path is hit: unaligned and
/// under 4 KiB (scalar runs and gathers); line-aligned, 1–64 lines from
/// any line, hence often mid-super-line and running past it (the bulk
/// path); and straddling the asymmetric split.
pub fn request_strategy() -> impl Strategy<Value = Request> {
    let span = prop_oneof![
        (0u64..(1 << 24), 1u64..4096),
        (0u64..(1 << 24) / LINE_BYTES, 1u64..=64)
            .prop_map(|(line, lines)| (line * LINE_BYTES, lines * LINE_BYTES)),
        ((SPLIT - 4096)..SPLIT, 4097u64..12288),
    ];
    (span, any::<bool>()).prop_map(|((addr, bytes), write)| {
        if write {
            Request::write(addr, bytes)
        } else {
            Request::read(addr, bytes)
        }
    })
}

/// The stack preset under each of the three interleaving modes, with
/// one unit (whose runs span whole rows) or several, and power-of-two
/// or other unit and bank counts (which decode by division, not by
/// shift and mask).
pub fn mapping_config_strategy() -> impl Strategy<Value = MemoryConfig> {
    (
        0u8..3,
        prop_oneof![Just(1usize), Just(2), Just(3), Just(8), Just(32)],
        prop_oneof![Just(8usize), Just(6)],
    )
        .prop_map(|(mode, units, banks_per_unit)| {
            let mut cfg = MemoryConfig::hmc_stack();
            let (row_bytes, line_bytes) = (8192, LINE_BYTES);
            cfg.mapping = match mode {
                0 => AddressMapping::Interleaved {
                    units,
                    banks_per_unit,
                    row_bytes,
                    line_bytes,
                },
                1 => AddressMapping::XorInterleaved {
                    units,
                    banks_per_unit,
                    row_bytes,
                    line_bytes,
                },
                _ => AddressMapping::Asymmetric {
                    low_units: units,
                    banks_per_unit,
                    row_bytes,
                    line_bytes,
                    split: PhysAddr::new(SPLIT),
                },
            };
            cfg
        })
}

/// One tenant stream: possibly empty, arriving early, late, or at a
/// `u64::MAX`-adjacent slot where merge keys saturate.
pub fn tenant_strategy() -> impl Strategy<Value = TenantStream> {
    (
        proptest::collection::vec(request_strategy(), 0..24),
        prop_oneof![0u64..16, Just(u64::MAX), (u64::MAX - 8)..=u64::MAX,],
    )
        .prop_map(|(trace, arrival)| {
            TenantStream::new(TraceBuffer::from(trace.as_slice())).arriving_at(arrival)
        })
}
