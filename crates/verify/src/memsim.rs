//! Memory-simulator configuration verification (`MEA020`–`MEA029`).
//!
//! The timing, energy and structural mapping rules (`MEA020`–`MEA023`)
//! are [`MemoryConfig::check`]'s: the one rule set the simulator's own
//! validation reads too. This pass adds what the simulator deliberately
//! allows. It proves the address mapping bijective by exhaustive decode
//! over one full interleaving rotation (`MEA024`): every physical byte
//! must land on exactly one `(unit, bank, row, col)` device location,
//! including the asymmetric split mode of §4.2. And it requires the
//! asymmetric split to sit on the interleaving granularity (`MEA025`),
//! which the simulator decodes either way.

use mealib_memsim::address::AddressMapping;
use mealib_memsim::config::MemoryConfig;
use mealib_types::{Diagnostic, ErrorCode, PhysAddr, Report};

use std::collections::HashMap;

/// Verifies a complete memory configuration: every finding of
/// [`MemoryConfig::check`], then the mapping proof when the mapping is
/// structurally sound.
pub fn verify_memconfig(config: &MemoryConfig) -> Report {
    let mut report = config.check();
    if !report.has_code(ErrorCode::MemMappingParam) {
        prove_mapping(&config.mapping, &mut report);
    }
    report
}

/// Cap on the number of lines decoded by the bijectivity proof. One
/// rotation of every realistic mapping is a few thousand lines; a
/// pathological configuration (huge rows, tiny lines) is sampled up to
/// this many lines and the truncation reported as a warning.
const BIJECTIVITY_LINE_CAP: u64 = 1 << 20;

/// Verifies an address mapping: structural parameters, then a
/// byte-accounting proof that decoding is injective over one full
/// rotation window (`units * banks * row_bytes` bytes — after which the
/// plain interleavings repeat with only the row index advancing). A
/// window past the 64-bit address space is clipped to it: no address
/// beyond `u64::MAX` exists to collide.
pub fn verify_mapping(mapping: &AddressMapping) -> Report {
    let mut report = Report::new();
    mapping.check(&mut report);
    if report.is_clean() {
        prove_mapping(mapping, &mut report);
    }
    report
}

/// The split-alignment check and the bijectivity proof of a
/// structurally sound `mapping` (decoding divides by its parameters).
fn prove_mapping(mapping: &AddressMapping, report: &mut Report) {
    let (units, banks, row_bytes, line_bytes) = mapping.interleave_geometry();
    match *mapping {
        AddressMapping::Asymmetric {
            low_units, split, ..
        } => {
            if !split.get().is_multiple_of(line_bytes) {
                report.push(Diagnostic::error(
                    ErrorCode::MemBadAsymmetricSplit,
                    format!(
                        "asymmetric split {split} is not aligned to the {line_bytes}-byte \
                         interleaving granularity; the line straddling it would decode \
                         to two units"
                    ),
                ));
                return;
            }
            // Low region: a plain interleave, but the proof window must
            // not cross the split.
            let window = rotation_window(units, banks, row_bytes, 1)
                .map_or(split.get(), |w| w.min(split.get()));
            check_injective(mapping, 0, Some(window), line_bytes, report);
            // High region: must be contiguous within the single dedicated
            // unit `low_units` (what the accelerators require, §3.3).
            let probe = row_bytes.min(split.get().max(line_bytes));
            for offset in [0, line_bytes, probe - line_bytes] {
                // A probe past `u64::MAX` names no address.
                let Some(addr) = split.get().checked_add(offset) else {
                    continue;
                };
                let addr = PhysAddr::new(addr);
                let loc = mapping.decode(addr);
                if loc.unit != low_units {
                    report.push(Diagnostic::error(
                        ErrorCode::MemMappingNotBijective,
                        format!(
                            "address {addr} is above the split but decodes to unit \
                             {} instead of the dedicated unit {low_units}",
                            loc.unit
                        ),
                    ));
                }
            }
            let base = mapping.decode(split);
            if base.row != 0 || base.col_byte != 0 {
                report.push(Diagnostic::error(
                    ErrorCode::MemMappingNotBijective,
                    format!(
                        "the split address {split} should start the dedicated unit at \
                         row 0, byte 0 but decodes to row {}, byte {}",
                        base.row, base.col_byte
                    ),
                ));
            }
        }
        _ => {
            // One rotation suffices for the plain interleave (beyond it
            // only the row index advances). The XOR folds key on higher
            // bits, so defects can first appear once rows advance — give
            // the proof four rotations to see them.
            let rotations = if matches!(mapping, AddressMapping::XorInterleaved { .. }) {
                4
            } else {
                1
            };
            let window = rotation_window(units, banks, row_bytes, rotations);
            check_injective(mapping, 0, window, line_bytes, report);
        }
    }
}

/// `units * banks * row_bytes * rotations` bytes, or `None` past
/// `u64::MAX`.
fn rotation_window(units: usize, banks: usize, row_bytes: u64, rotations: u64) -> Option<u64> {
    (units as u64)
        .checked_mul(banks as u64)?
        .checked_mul(row_bytes)?
        .checked_mul(rotations)
}

/// Decodes every line in `[base, base + window)` (to the end of the
/// address space when `window` is `None`) and reports the first pair of
/// addresses that land on the same device location (`MEA024`), plus any
/// line whose interior bytes scatter across locations.
fn check_injective(
    mapping: &AddressMapping,
    base: u64,
    window: Option<u64>,
    line_bytes: u64,
    report: &mut Report,
) {
    let mut lines = window.unwrap_or(u64::MAX) / line_bytes;
    if lines > BIJECTIVITY_LINE_CAP {
        let size = match window {
            Some(_) => format!("has {lines} lines"),
            None => "exceeds the 64-bit address space".to_string(),
        };
        report.push(Diagnostic::warning(
            ErrorCode::MemMappingNotBijective,
            format!(
                "rotation window {size}; bijectivity checked for the first \
                 {BIJECTIVITY_LINE_CAP} lines only"
            ),
        ));
        lines = BIJECTIVITY_LINE_CAP;
    }
    let mut seen: HashMap<(usize, usize, u64, u64), u64> = HashMap::with_capacity(lines as usize);
    for i in 0..lines {
        let addr = base + i * line_bytes;
        let loc = mapping.decode(PhysAddr::new(addr));
        let key = (loc.unit, loc.bank, loc.row, loc.col_byte);
        if let Some(prev) = seen.insert(key, addr) {
            report.push(Diagnostic::error(
                ErrorCode::MemMappingNotBijective,
                format!(
                    "addresses {prev:#x} and {addr:#x} both decode to unit {}, bank {}, \
                     row {}, byte {} — the mapping loses capacity",
                    loc.unit, loc.bank, loc.row, loc.col_byte
                ),
            ));
            return;
        }
        // The last byte of the line must sit in the same row, at the
        // expected column — lines are the unit of transfer and must not
        // straddle device locations.
        let tail = mapping.decode(PhysAddr::new(addr + line_bytes - 1));
        if tail.unit != loc.unit
            || tail.bank != loc.bank
            || tail.row != loc.row
            || tail.col_byte != loc.col_byte + (line_bytes - 1)
        {
            report.push(Diagnostic::error(
                ErrorCode::MemMappingNotBijective,
                format!(
                    "line at {addr:#x} is torn: byte 0 decodes to unit {} bank {} row {} \
                     col {}, byte {} to unit {} bank {} row {} col {}",
                    loc.unit,
                    loc.bank,
                    loc.row,
                    loc.col_byte,
                    line_bytes - 1,
                    tail.unit,
                    tail.bank,
                    tail.row,
                    tail.col_byte
                ),
            ));
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_memsim::address::{asymmetric_dimms, dual_channel_dimms, hmc_vaults};

    #[test]
    fn every_preset_is_clean() {
        for c in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::hmc_stack_external(),
            MemoryConfig::hmc_stack_gen1(),
            MemoryConfig::hmc_stack_remote(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
        ] {
            let r = verify_memconfig(&c);
            assert!(r.is_clean(), "{}: {r}", c.name);
        }
    }

    #[test]
    fn zero_and_inconsistent_timings_all_reported() {
        let mut c = MemoryConfig::ddr_dual_channel();
        c.timing.t_rcd = 0;
        c.timing.t_refi = c.timing.t_rfc; // refresh starves the bank
        let r = verify_memconfig(&c);
        assert!(r.has_code(ErrorCode::MemZeroParameter));
        assert!(r.has_code(ErrorCode::MemTimingInequality));
        // Collect-all: both findings, not just the first.
        assert!(r.error_count() >= 2, "{r}");
    }

    #[test]
    fn row_closing_before_first_read_flagged() {
        let mut c = MemoryConfig::hmc_stack();
        c.timing.t_ras = c.timing.t_rcd + c.timing.t_cl - 1;
        let r = verify_memconfig(&c);
        assert!(r.has_code(ErrorCode::MemTimingInequality), "{r}");
    }

    #[test]
    fn bad_energy_reported() {
        let mut c = MemoryConfig::hmc_stack();
        c.energy.e_act = mealib_types::Joules::new(-1.0);
        c.energy.p_background = mealib_types::Watts::new(f64::NAN);
        let r = verify_memconfig(&c);
        assert!(r.has_code(ErrorCode::MemBadEnergy));
        assert_eq!(r.error_count(), 2, "{r}");
    }

    #[test]
    fn standard_mappings_prove_bijective() {
        for m in [
            dual_channel_dimms(),
            hmc_vaults(),
            asymmetric_dimms(PhysAddr::new(8 << 30)),
            AddressMapping::XorInterleaved {
                units: 4,
                banks_per_unit: 8,
                row_bytes: 4096,
                line_bytes: 64,
            },
        ] {
            let r = verify_mapping(&m);
            assert!(r.is_clean(), "{m:?}: {r}");
        }
    }

    #[test]
    fn structural_defects_stop_the_proof() {
        let r = verify_mapping(&AddressMapping::Interleaved {
            units: 0,
            banks_per_unit: 0,
            row_bytes: 100,
            line_bytes: 7,
        });
        assert!(r.has_code(ErrorCode::MemMappingParam));
        assert_eq!(r.error_count(), 4, "all four parameters reported: {r}");
        assert!(!r.has_code(ErrorCode::MemMappingNotBijective));
    }

    #[test]
    fn xor_fold_with_non_pow2_units_loses_capacity() {
        // With three units the XOR fold is not a permutation: two lines
        // in one rotation group land on the same unit.
        let r = verify_mapping(&AddressMapping::XorInterleaved {
            units: 3,
            banks_per_unit: 4,
            row_bytes: 1024,
            line_bytes: 64,
        });
        assert!(r.has_code(ErrorCode::MemMappingNotBijective), "{r}");
    }

    #[test]
    fn rotation_window_past_the_address_space_is_capped_not_overflowed() {
        // 2^40 units x 2^20 banks x 2^20-byte rows is a 2^80-byte
        // rotation: the window clips to the address space and the proof
        // samples it, warning about the cap.
        let huge = |kind: fn(usize, usize, u64, u64) -> AddressMapping| {
            verify_mapping(&kind(1 << 40, 1 << 20, 1 << 20, 256))
        };
        for r in [
            huge(
                |units, banks_per_unit, row_bytes, line_bytes| AddressMapping::Interleaved {
                    units,
                    banks_per_unit,
                    row_bytes,
                    line_bytes,
                },
            ),
            huge(
                |units, banks_per_unit, row_bytes, line_bytes| AddressMapping::XorInterleaved {
                    units,
                    banks_per_unit,
                    row_bytes,
                    line_bytes,
                },
            ),
            huge(
                |low_units, banks_per_unit, row_bytes, line_bytes| AddressMapping::Asymmetric {
                    low_units,
                    banks_per_unit,
                    row_bytes,
                    line_bytes,
                    split: PhysAddr::new(u64::MAX - 255),
                },
            ),
        ] {
            assert!(r.has_code(ErrorCode::MemMappingNotBijective), "{r}");
            assert!(r.to_string().contains("checked for the first"), "{r}");
        }
    }

    #[test]
    fn timing_sums_past_u64_are_compared_not_overflowed() {
        let mut c = MemoryConfig::hmc_stack();
        c.timing.t_rcd = u64::MAX;
        c.timing.t_cl = u64::MAX;
        c.timing.t_rp = u64::MAX;
        let r = verify_memconfig(&c);
        assert!(r.has_code(ErrorCode::MemTimingInequality), "{r}");
        c.timing.t_ras = u64::MAX;
        c.timing.t_faw = u64::MAX;
        let r = verify_memconfig(&c);
        assert!(r.has_code(ErrorCode::MemTimingInequality), "{r}");
    }

    #[test]
    fn misaligned_asymmetric_split_flagged() {
        let r = verify_mapping(&asymmetric_dimms(PhysAddr::new((8 << 30) + 17)));
        assert!(r.has_code(ErrorCode::MemBadAsymmetricSplit), "{r}");
    }

    #[test]
    fn asymmetric_high_region_must_start_the_dedicated_unit() {
        // A split smaller than one rotation window still verifies: the
        // low-region proof window shrinks to the split.
        let r = verify_mapping(&asymmetric_dimms(PhysAddr::new(4096)));
        assert!(r.is_clean(), "{r}");
    }
}
