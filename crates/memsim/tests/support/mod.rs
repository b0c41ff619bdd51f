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

/// Row size of the mappings [`period_case_strategy`] draws: small, so
/// a whole mapping period (units × banks × rows) stays cheap to walk
/// burst by burst.
const SMALL_ROW: u64 = 512;

/// A small-row config on one of the three mapping modes (at most 8
/// units, power-of-two or not) with requests of 0–8 whole periods
/// behind a misaligned head. The burst size divides the line or does
/// not, and the asymmetric split is burst-aligned or not, so the bounds
/// walk meets both sides of its period-compression rule.
pub fn period_case_strategy() -> impl Strategy<Value = (MemoryConfig, TraceBuffer)> {
    let config = (
        0u8..3,
        prop_oneof![Just(1usize), Just(2), Just(3), Just(8)],
        prop_oneof![Just(2usize), Just(6), Just(8)],
        prop_oneof![Just(32u64), Just(64), Just(48)],
        prop_oneof![Just(0u64), Just(96), Just(100)],
    );
    let request = (
        0u64..12,
        0u64..(1 << 20),
        0u64..=8,
        0u64..(1 << 20),
        any::<bool>(),
    );
    (config, proptest::collection::vec(request, 1..6)).prop_map(
        |((mode, units, banks_per_unit, burst, split_offset), requests)| {
            let mut cfg = MemoryConfig::hmc_stack();
            cfg.timing.burst_bytes = burst;
            let (row_bytes, line_bytes) = (SMALL_ROW, 64);
            let period = units as u64 * banks_per_unit as u64 * row_bytes;
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
                    split: PhysAddr::new(5 * period + split_offset),
                },
            };
            let trace = requests
                .into_iter()
                .map(|(first, head, periods, tail, write)| {
                    let addr = first * period + head % period;
                    let bytes = periods * period + tail % period;
                    if write {
                        Request::write(addr, bytes)
                    } else {
                        Request::read(addr, bytes)
                    }
                })
                .collect();
            (cfg, trace)
        },
    )
}
