//! Property tests: the bijectivity proof must accept *every* valid
//! interleaving configuration — a prover that cries wolf on healthy
//! hardware would be disabled within a week — and the structural
//! validator must reject every degenerate one. The TDL, session and
//! session-set parsers are total over arbitrary keyword soup.

use mealib_memsim::address::AddressMapping;
use mealib_types::PhysAddr;
use mealib_verify::dataflow::parse_session;
use mealib_verify::interference::parse_session_set;
use mealib_verify::memconfig::{parse_memconfig, KNOWN_KEYS};
use mealib_verify::memsim::{verify_mapping, verify_memconfig};
use mealib_verify::{ErrorCode, Severity};
use proptest::prelude::*;

fn pow2(exp: u32) -> u64 {
    1 << exp
}

/// Plain interleaving with any unit/bank count and power-of-two
/// row/line geometry — always bijective (pure division/modulo).
fn interleaved() -> impl Strategy<Value = AddressMapping> {
    (1usize..=64, 1usize..=16, 10u32..=13, 6u32..=8).prop_map(
        |(units, banks_per_unit, row_exp, line_exp)| AddressMapping::Interleaved {
            units,
            banks_per_unit,
            row_bytes: pow2(row_exp),
            line_bytes: pow2(line_exp),
        },
    )
}

/// XOR-hashed interleaving: the folds are self-inverse only when the
/// unit and bank counts are powers of two, so that is what "valid"
/// means here.
fn xor_interleaved() -> impl Strategy<Value = AddressMapping> {
    (0u32..=5, 0u32..=4, 10u32..=13, 6u32..=8).prop_map(
        |(unit_exp, bank_exp, row_exp, line_exp)| AddressMapping::XorInterleaved {
            units: pow2(unit_exp) as usize,
            banks_per_unit: pow2(bank_exp) as usize,
            row_bytes: pow2(row_exp),
            line_bytes: pow2(line_exp),
        },
    )
}

/// §4.2 asymmetric mode with a line-aligned split.
fn asymmetric() -> impl Strategy<Value = AddressMapping> {
    (1usize..=8, 1usize..=16, 10u32..=13, 6u32..=8, 1u64..=65536).prop_map(
        |(low_units, banks_per_unit, row_exp, line_exp, split_lines)| {
            let line_bytes = pow2(line_exp);
            AddressMapping::Asymmetric {
                low_units,
                banks_per_unit,
                row_bytes: pow2(row_exp),
                line_bytes,
                split: PhysAddr::new(split_lines * line_bytes),
            }
        },
    )
}

/// One line of a memconfig file: arbitrary text, or a known key set
/// to a value at the edges of `u64` (every key but `base`, `name` and
/// `mapping` takes a number), or a preset or mapping kind.
fn memconfig_line() -> impl Strategy<Value = String> {
    let numeric: Vec<&str> = KNOWN_KEYS
        .iter()
        .copied()
        .filter(|k| !matches!(*k, "base" | "name" | "mapping"))
        .collect();
    prop_oneof![
        "\\PC*",
        (
            proptest::sample::select(numeric),
            proptest::sample::select(vec![0, 1, 1 << 63, u64::MAX]),
        )
            .prop_map(|(key, value)| format!("{key} = {value}")),
        proptest::sample::select(vec![
            "hmc_stack",
            "hmc_stack_external",
            "hmc_stack_gen1",
            "hmc_stack_remote",
            "ddr_dual_channel",
            "msas_dram",
        ])
        .prop_map(|preset| format!("base = {preset}")),
        proptest::sample::select(vec!["interleaved", "xor", "asymmetric"])
            .prop_map(|kind| format!("mapping = {kind}")),
        // Clocks whose period is subnormal, zero or infinite.
        proptest::sample::select(vec!["5e-324", "1e-300", "1e300", "inf"])
            .prop_map(|mhz| format!("t_ck_mhz = {mhz}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `mealint`'s memconfig path is total: whatever the text, parsing
    /// returns a config or an error, and verifying a parsed config
    /// returns a report — no arithmetic overflow, no division by zero.
    /// The simulator's validation and the linter read one rule set:
    /// `validate` fails exactly when the report carries an
    /// `MEA020`–`MEA023` error.
    #[test]
    fn memconfig_parse_and_verify_never_panic(
        lines in proptest::collection::vec(memconfig_line(), 0..12),
    ) {
        if let Ok(config) = parse_memconfig(&lines.join("\n")) {
            let report = verify_memconfig(&config);
            let rule_error = report.diagnostics().iter().any(|d| {
                d.severity == Severity::Error
                    && matches!(
                        d.code,
                        ErrorCode::MemZeroParameter
                            | ErrorCode::MemTimingInequality
                            | ErrorCode::MemMappingParam
                            | ErrorCode::MemBadEnergy
                    )
            });
            prop_assert_eq!(config.validate().is_err(), rule_error, "{}", report);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The proof never flags a valid plain interleave.
    #[test]
    fn every_valid_interleave_is_accepted(mapping in interleaved()) {
        let report = verify_mapping(&mapping);
        prop_assert!(report.is_clean(), "{mapping:?}:\n{report}");
    }

    /// The proof never flags a valid XOR interleave.
    #[test]
    fn every_valid_xor_interleave_is_accepted(mapping in xor_interleaved()) {
        let report = verify_mapping(&mapping);
        prop_assert!(report.is_clean(), "{mapping:?}:\n{report}");
    }

    /// The proof never flags a valid asymmetric split.
    #[test]
    fn every_valid_asymmetric_mapping_is_accepted(mapping in asymmetric()) {
        let report = verify_mapping(&mapping);
        prop_assert!(report.is_clean(), "{mapping:?}:\n{report}");
    }

    /// Degenerate geometry is rejected structurally (MEA022), never by
    /// the prover tripping over a division by zero.
    #[test]
    fn degenerate_parameters_draw_mea022(
        units in 0usize..=4,
        banks in 0usize..=4,
        row_bytes in 0u64..=4096,
        line_bytes in 0u64..=4096,
    ) {
        let valid = units > 0
            && banks > 0
            && row_bytes.is_power_of_two()
            && line_bytes.is_power_of_two()
            && line_bytes <= row_bytes;
        let mapping = AddressMapping::Interleaved {
            units,
            banks_per_unit: banks,
            row_bytes,
            line_bytes,
        };
        let report = verify_mapping(&mapping);
        prop_assert_eq!(
            report.has_code(ErrorCode::MemMappingParam),
            !valid,
            "{:?}:\n{}",
            mapping,
            report
        );
    }

    /// A misaligned asymmetric split is always caught.
    #[test]
    fn misaligned_split_draws_mea025(offset in 1u64..64) {
        let mapping = AddressMapping::Asymmetric {
            low_units: 2,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
            split: PhysAddr::new(1 << 20 | offset),
        };
        let report = verify_mapping(&mapping);
        prop_assert!(report.has_code(ErrorCode::MemBadAsymmetricSplit), "{report}");
    }
}

/// The parsers' grammar keywords and operators, and a few operands.
const KEYWORDS: &str = "PASS LOOP COMP BUF HOST FLUSH BUDGET MEM TENANT PARTITION ARRIVAL TIME \
                        ENERGY CAPACITY ASYM XOR INTERLEAVED READ WRITE AXPY FFT in out params \
                        a b { } = \" \"a.para\"";

/// The adversarial probe's numbers: the edges of `u64` and `f64`.
const NUMBERS: &str = "0 1 0x8000000000000000 0xffffffffffffffff 18446744073709551615 1e308 NaN -1";

/// Up to 48 keywords and numbers, each followed by a space, a newline
/// or nothing.
fn keyword_soup() -> impl Strategy<Value = String> {
    let words: Vec<&str> = KEYWORDS.split(' ').chain(NUMBERS.split(' ')).collect();
    proptest::collection::vec(
        (
            proptest::sample::select(words),
            proptest::sample::select(vec![" ", "\n", ""]),
        ),
        0..48,
    )
    .prop_map(|words| words.into_iter().flat_map(|(w, sep)| [w, sep]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// TDL parsing returns a program or an error, never a panic.
    #[test]
    fn tdl_parse_never_panics(src in keyword_soup()) {
        let _ = mealib_tdl::parse(&src);
    }

    /// Session parsing returns a session or an error, never a panic.
    #[test]
    fn session_parse_never_panics(src in keyword_soup()) {
        let _ = parse_session(&src);
    }

    /// Session-set parsing returns a set or an error, never a panic.
    #[test]
    fn session_set_parse_never_panics(src in keyword_soup()) {
        let _ = parse_session_set(&src);
    }
}
