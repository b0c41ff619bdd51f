//! Physical address decoding.
//!
//! Modern systems interleave one physical page across channels at
//! cache-block granularity, which is exactly what the paper had to defeat
//! to dedicate one DIMM to the emulated stack: removing a DIMM switches
//! the controller to *asymmetric* mode, where the high address range is
//! served by a single channel (§4.2). Both modes are modeled here, plus
//! the vault interleaving used inside the stacked device.

use mealib_types::{Diagnostic, ErrorCode, PhysAddr, Report};

/// Where a physical address lands inside a memory device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Location {
    /// Channel (DIMM system) or vault (stacked device) index.
    pub unit: usize,
    /// Bank within the unit.
    pub bank: usize,
    /// Row within the bank.
    pub row: u64,
    /// Byte offset within the row.
    pub col_byte: u64,
}

/// A physical-address → device-location mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressMapping {
    /// Cache-block-granularity interleaving across `units`
    /// channels/vaults; rows rotate across `banks_per_unit` banks.
    Interleaved {
        /// Number of channels or vaults.
        units: usize,
        /// Banks per channel/vault.
        banks_per_unit: usize,
        /// Row-buffer size in bytes.
        row_bytes: u64,
        /// Interleaving granularity (typically one cache line).
        line_bytes: u64,
    },
    /// Cache-block interleaving with XOR bank/channel hashing: the unit
    /// and bank indices are XOR-folded with higher address bits, breaking
    /// the power-of-two stride aliasing that pins strided walks to one
    /// channel (a standard controller technique; the ablation harness
    /// shows what it buys).
    XorInterleaved {
        /// Number of channels or vaults.
        units: usize,
        /// Banks per channel/vault.
        banks_per_unit: usize,
        /// Row-buffer size in bytes.
        row_bytes: u64,
        /// Interleaving granularity (typically one cache line).
        line_bytes: u64,
    },
    /// The asymmetric mode of §4.2: addresses below `split` interleave
    /// across the first `low_units` units; addresses at or above `split`
    /// map, contiguously, to the single unit `low_units` (the dedicated
    /// DIMM that emulates the memory stack).
    Asymmetric {
        /// Units serving the interleaved low region.
        low_units: usize,
        /// Banks per unit (same for all units).
        banks_per_unit: usize,
        /// Row-buffer size in bytes.
        row_bytes: u64,
        /// Interleaving granularity for the low region.
        line_bytes: u64,
        /// First address of the single-channel high region.
        split: PhysAddr,
    },
}

impl AddressMapping {
    /// Number of addressable units (channels/vaults).
    pub fn units(&self) -> usize {
        match *self {
            AddressMapping::Interleaved { units, .. }
            | AddressMapping::XorInterleaved { units, .. } => units,
            AddressMapping::Asymmetric { low_units, .. } => low_units + 1,
        }
    }

    /// Banks per unit.
    pub fn banks_per_unit(&self) -> usize {
        match *self {
            AddressMapping::Interleaved { banks_per_unit, .. }
            | AddressMapping::XorInterleaved { banks_per_unit, .. }
            | AddressMapping::Asymmetric { banks_per_unit, .. } => banks_per_unit,
        }
    }

    /// Row-buffer size in bytes.
    pub fn row_bytes(&self) -> u64 {
        match *self {
            AddressMapping::Interleaved { row_bytes, .. }
            | AddressMapping::XorInterleaved { row_bytes, .. }
            | AddressMapping::Asymmetric { row_bytes, .. } => row_bytes,
        }
    }

    /// Decodes a physical address into its device location.
    pub fn decode(&self, addr: PhysAddr) -> Location {
        match *self {
            AddressMapping::Interleaved {
                units,
                banks_per_unit,
                row_bytes,
                line_bytes,
            } => decode_interleaved(addr.get(), units, banks_per_unit, row_bytes, line_bytes),
            AddressMapping::XorInterleaved {
                units,
                banks_per_unit,
                row_bytes,
                line_bytes,
            } => {
                let mut loc =
                    decode_interleaved(addr.get(), units, banks_per_unit, row_bytes, line_bytes);
                // Fold higher address bits into the unit and bank
                // indices. Each fold must key only on coordinates it does
                // not itself move, or the mapping loses capacity: the
                // unit fold keys on the line index above the unit
                // selector (which fixes bank/row/col), the bank fold on
                // the row index. With power-of-two unit and bank counts
                // both folds are permutations, so the mapping stays
                // bijective — `mealib-verify`'s MEA024 proof checks this.
                let hash = addr.get() / line_bytes / units as u64;
                loc.unit = ((loc.unit as u64 ^ hash) % units as u64) as usize;
                loc.bank = ((loc.bank as u64 ^ loc.row) % banks_per_unit as u64) as usize;
                loc
            }
            AddressMapping::Asymmetric {
                low_units,
                banks_per_unit,
                row_bytes,
                line_bytes,
                split,
            } => {
                if addr < split {
                    decode_interleaved(addr.get(), low_units, banks_per_unit, row_bytes, line_bytes)
                } else {
                    let within = addr.get() - split.get();
                    let mut loc =
                        decode_interleaved(within, 1, banks_per_unit, row_bytes, line_bytes);
                    loc.unit = low_units;
                    loc
                }
            }
        }
    }

    /// Number of bytes starting at `addr` (inclusive) that are
    /// guaranteed to decode into one contiguous span of a single
    /// `(unit, bank, row)`: for every `d` below the returned value,
    /// `decode(addr + d)` has the same unit, bank, and row as
    /// `decode(addr)` and `col_byte` exactly `d` larger.
    ///
    /// This is the distance to the next interleave boundary (or row
    /// boundary, when a single unit serves the region, or the
    /// asymmetric split). The fast engine uses it to decode whole
    /// same-row runs with a single [`decode`](Self::decode) call; the
    /// guarantee above is what keeps that batched decode bit-exact
    /// with the per-burst decode, and is property-checked in tests.
    pub fn contiguous_run_bytes(&self, addr: PhysAddr) -> u64 {
        match *self {
            AddressMapping::Interleaved {
                units,
                row_bytes,
                line_bytes,
                ..
            }
            | AddressMapping::XorInterleaved {
                units,
                row_bytes,
                line_bytes,
                ..
            } => {
                // A single unit keeps contiguous addresses in one row
                // until the row boundary; interleaving breaks the span
                // at the next line boundary.
                if units == 1 {
                    row_bytes - addr.get() % row_bytes
                } else {
                    line_bytes - addr.get() % line_bytes
                }
            }
            AddressMapping::Asymmetric {
                low_units,
                row_bytes,
                line_bytes,
                split,
                ..
            } => {
                if addr < split {
                    let span = if low_units == 1 {
                        row_bytes - addr.get() % row_bytes
                    } else {
                        line_bytes - addr.get() % line_bytes
                    };
                    // A span must never cross the split: the high
                    // region decodes under a different scheme.
                    span.min(split.get() - addr.get())
                } else {
                    // The dedicated high region is a single contiguous
                    // unit addressed relative to the split.
                    let within = addr.get() - split.get();
                    row_bytes - within % row_bytes
                }
            }
        }
    }

    /// Returns `true` if `addr` falls in a region that is physically
    /// contiguous within a single unit (what the accelerators require).
    pub fn is_single_unit(&self, addr: PhysAddr) -> bool {
        match *self {
            AddressMapping::Interleaved { units, .. }
            | AddressMapping::XorInterleaved { units, .. } => units == 1,
            AddressMapping::Asymmetric { split, .. } => addr >= split,
        }
    }

    /// `(units, banks_per_unit, row_bytes, line_bytes)` of the
    /// interleaved region. For the asymmetric mode `units` counts only
    /// the `low_units` below the split.
    pub fn interleave_geometry(&self) -> (usize, usize, u64, u64) {
        match *self {
            AddressMapping::Interleaved {
                units,
                banks_per_unit,
                row_bytes,
                line_bytes,
            }
            | AddressMapping::XorInterleaved {
                units,
                banks_per_unit,
                row_bytes,
                line_bytes,
            } => (units, banks_per_unit, row_bytes, line_bytes),
            AddressMapping::Asymmetric {
                low_units,
                banks_per_unit,
                row_bytes,
                line_bytes,
                ..
            } => (low_units, banks_per_unit, row_bytes, line_bytes),
        }
    }

    /// Pushes a `MEA022` error onto `report` for every structural
    /// defect: no units, no banks, or a row or line size that is not a
    /// power of two (lines no larger than rows). Decoding divides by
    /// these parameters, so a mapping with any defect cannot decode.
    pub fn check(&self, report: &mut Report) {
        let (units, banks, row_bytes, line_bytes) = self.interleave_geometry();
        let mut fail = |msg: String| {
            report.push(Diagnostic::error(ErrorCode::MemMappingParam, msg));
        };
        if units == 0 {
            fail("units is zero; at least one channel/vault is required".into());
        }
        if banks == 0 {
            fail("banks_per_unit is zero; at least one bank is required".into());
        }
        if !row_bytes.is_power_of_two() {
            fail(format!("row_bytes ({row_bytes}) must be a power of two"));
        }
        if !line_bytes.is_power_of_two() || line_bytes > row_bytes {
            fail(format!(
                "line_bytes ({line_bytes}) must be a power of two no larger than \
                 row_bytes ({row_bytes})"
            ));
        }
    }
}

fn decode_interleaved(
    addr: u64,
    units: usize,
    banks_per_unit: usize,
    row_bytes: u64,
    line_bytes: u64,
) -> Location {
    let line = addr / line_bytes;
    let unit = (line % units as u64) as usize;
    let within_unit = (line / units as u64) * line_bytes + addr % line_bytes;
    let global_row = within_unit / row_bytes;
    let bank = (global_row % banks_per_unit as u64) as usize;
    Location {
        unit,
        bank,
        row: global_row / banks_per_unit as u64,
        col_byte: within_unit % row_bytes,
    }
}

impl Location {
    /// Returns `true` if two locations share a bank (and therefore a row
    /// buffer).
    pub fn same_bank(&self, other: &Location) -> bool {
        self.unit == other.unit && self.bank == other.bank
    }
}

/// Convenience constructor for the interleaved dual-channel DIMM system
/// of the evaluation machine (2 channels, 8 banks, 8 KiB rows, 64 B
/// lines).
pub fn dual_channel_dimms() -> AddressMapping {
    AddressMapping::Interleaved {
        units: 2,
        banks_per_unit: 8,
        row_bytes: 8192,
        line_bytes: 64,
    }
}

/// Convenience constructor for the asymmetric-mode system of §4.2: two
/// interleaved DIMMs below `split`, one dedicated contiguous DIMM above.
pub fn asymmetric_dimms(split: PhysAddr) -> AddressMapping {
    AddressMapping::Asymmetric {
        low_units: 2,
        banks_per_unit: 8,
        row_bytes: 8192,
        line_bytes: 64,
        split,
    }
}

/// Convenience constructor for the 32-vault stacked device (256 B rows per
/// the DRAM-optimized accelerator literature the paper builds on).
pub fn hmc_vaults() -> AddressMapping {
    AddressMapping::Interleaved {
        units: 32,
        banks_per_unit: 8,
        row_bytes: 4096,
        line_bytes: 256,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_types::Bytes as B;

    fn check(m: &AddressMapping) -> Report {
        let mut report = Report::new();
        m.check(&mut report);
        report
    }

    #[test]
    fn consecutive_lines_alternate_channels() {
        let m = dual_channel_dimms();
        let a = m.decode(PhysAddr::new(0));
        let b = m.decode(PhysAddr::new(64));
        let c = m.decode(PhysAddr::new(128));
        assert_eq!(a.unit, 0);
        assert_eq!(b.unit, 1);
        assert_eq!(c.unit, 0);
    }

    #[test]
    fn bytes_within_a_line_stay_put() {
        let m = dual_channel_dimms();
        let a = m.decode(PhysAddr::new(64));
        let b = m.decode(PhysAddr::new(64 + 63));
        assert_eq!(a.unit, b.unit);
        assert_eq!(a.row, b.row);
        assert_eq!(b.col_byte, a.col_byte + 63);
    }

    #[test]
    fn sequential_addresses_fill_row_before_advancing() {
        let m = AddressMapping::Interleaved {
            units: 1,
            banks_per_unit: 2,
            row_bytes: 256,
            line_bytes: 64,
        };
        let first = m.decode(PhysAddr::new(0));
        let last_in_row = m.decode(PhysAddr::new(255));
        let next_row = m.decode(PhysAddr::new(256));
        assert_eq!(first.row, last_in_row.row);
        assert_eq!(first.bank, last_in_row.bank);
        // Next row rotates to the other bank.
        assert_ne!(next_row.bank, first.bank);
    }

    #[test]
    fn asymmetric_high_region_is_single_unit_and_contiguous() {
        let split = PhysAddr::new(8 << 30);
        let m = asymmetric_dimms(split);
        assert!(!m.is_single_unit(PhysAddr::new(0)));
        assert!(m.is_single_unit(split));
        let a = m.decode(split);
        let b = m.decode(split + B::from_kib(4));
        assert_eq!(a.unit, 2);
        assert_eq!(b.unit, 2);
        assert_eq!(a.row, 0);
        assert_eq!(a.col_byte, 0);
        // 4 KiB into an 8 KiB row: same row, same bank.
        assert_eq!(b.row, a.row);
        assert!(b.same_bank(&a));
    }

    #[test]
    fn asymmetric_low_region_still_interleaves() {
        let m = asymmetric_dimms(PhysAddr::new(1 << 30));
        assert_eq!(m.decode(PhysAddr::new(0)).unit, 0);
        assert_eq!(m.decode(PhysAddr::new(64)).unit, 1);
        assert_eq!(m.units(), 3);
    }

    #[test]
    fn hmc_mapping_spreads_across_vaults() {
        let m = hmc_vaults();
        let units: std::collections::HashSet<usize> = (0..32u64)
            .map(|i| m.decode(PhysAddr::new(i * 256)).unit)
            .collect();
        assert_eq!(units.len(), 32, "32 consecutive blocks hit all 32 vaults");
    }

    #[test]
    fn xor_hashing_breaks_stride_aliasing() {
        // A stride equal to line*units pins the plain mapping to one
        // channel; the XOR mapping spreads it.
        let plain = dual_channel_dimms();
        let hashed = AddressMapping::XorInterleaved {
            units: 2,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        let stride = 64 * 2; // aliases on the plain mapping
        let plain_units: std::collections::HashSet<usize> = (0..64u64)
            .map(|i| plain.decode(PhysAddr::new(i * stride)).unit)
            .collect();
        let hashed_units: std::collections::HashSet<usize> = (0..64u64)
            .map(|i| hashed.decode(PhysAddr::new(i * stride)).unit)
            .collect();
        assert_eq!(plain_units.len(), 1, "plain mapping aliases to one channel");
        assert_eq!(hashed_units.len(), 2, "XOR mapping uses both channels");
    }

    #[test]
    fn xor_mapping_is_a_valid_mapping() {
        let hashed = AddressMapping::XorInterleaved {
            units: 4,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 64,
        };
        assert!(check(&hashed).is_clean());
        assert_eq!(hashed.units(), 4);
        // Decoding stays in range over a large span.
        for i in 0..10_000u64 {
            let loc = hashed.decode(PhysAddr::new(i * 191));
            assert!(loc.unit < 4);
            assert!(loc.bank < 8);
        }
    }

    #[test]
    fn contiguous_runs_decode_contiguously() {
        // The guarantee the fast engine's batched decode rests on:
        // every byte inside the advertised span shares the first
        // byte's (unit, bank, row) and advances col_byte linearly.
        let maps = [
            dual_channel_dimms(),
            hmc_vaults(),
            asymmetric_dimms(PhysAddr::new((1 << 20) + 96)), // unaligned split
            AddressMapping::Interleaved {
                units: 1,
                banks_per_unit: 4,
                row_bytes: 1024,
                line_bytes: 64,
            },
            AddressMapping::XorInterleaved {
                units: 4,
                banks_per_unit: 8,
                row_bytes: 4096,
                line_bytes: 64,
            },
            AddressMapping::XorInterleaved {
                units: 1,
                banks_per_unit: 8,
                row_bytes: 4096,
                line_bytes: 64,
            },
        ];
        for m in &maps {
            for i in 0..2048u64 {
                // Sample addresses around the asymmetric split and at
                // odd offsets, not just line-aligned ones.
                let addr = PhysAddr::new((1 << 20) - 1024 + i * 37);
                let run = m.contiguous_run_bytes(addr);
                assert!(run >= 1, "{m:?}: empty run at {addr:?}");
                let base = m.decode(addr);
                for d in [1, run / 2, run - 1] {
                    if d == 0 || d >= run {
                        continue;
                    }
                    let loc = m.decode(PhysAddr::new(addr.get() + d));
                    assert_eq!(loc.unit, base.unit, "{m:?} at {addr:?} + {d}");
                    assert_eq!(loc.bank, base.bank, "{m:?} at {addr:?} + {d}");
                    assert_eq!(loc.row, base.row, "{m:?} at {addr:?} + {d}");
                    assert_eq!(loc.col_byte, base.col_byte + d, "{m:?} at {addr:?} + {d}");
                }
            }
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let m = AddressMapping::Interleaved {
            units: 0,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 64,
        };
        let r = check(&m);
        assert_eq!(r.error_count(), 1, "{r}");
        assert!(r.to_string().contains("units is zero"), "{r}");
        let m = AddressMapping::Interleaved {
            units: 2,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 8192,
        };
        let r = check(&m);
        assert_eq!(r.error_count(), 1, "{r}");
        assert!(r.has_code(ErrorCode::MemMappingParam), "{r}");
        assert!(r.to_string().contains("line_bytes (8192)"), "{r}");
        assert!(check(&dual_channel_dimms()).is_clean());
        assert!(check(&hmc_vaults()).is_clean());
    }
}
