//! Property tests: TDL print/parse and descriptor encode/decode
//! round-trips over randomly generated programs, and agreement of the
//! descriptor decoder with its checker on arbitrary and corrupted images.

use std::collections::BTreeMap;

use mealib_tdl::descriptor::{check, DecodedInstr, CR_BYTES, INSTR_BYTES};
use mealib_tdl::{
    parse, AcceleratorKind, CompBlock, Descriptor, DescriptorError, LoopBlock, ParamBag, PassBlock,
    TdlItem, TdlProgram,
};
use proptest::prelude::*;

fn accel_strategy() -> impl Strategy<Value = AcceleratorKind> {
    proptest::sample::select(AcceleratorKind::ALL.to_vec())
}

fn ident_strategy() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,10}".prop_map(|s| s)
}

fn comp_strategy() -> impl Strategy<Value = CompBlock> {
    (accel_strategy(), ident_strategy()).prop_map(|(a, p)| CompBlock::new(a, format!("{p}.para")))
}

fn pass_strategy() -> impl Strategy<Value = PassBlock> {
    (
        ident_strategy(),
        ident_strategy(),
        proptest::collection::vec(comp_strategy(), 1..4),
    )
        .prop_map(|(i, o, comps)| PassBlock::new(i, o, comps))
}

fn item_strategy() -> impl Strategy<Value = TdlItem> {
    prop_oneof![
        pass_strategy().prop_map(TdlItem::Pass),
        (
            1u64..1_000_000,
            proptest::collection::vec(pass_strategy(), 1..3)
        )
            .prop_map(|(n, body)| TdlItem::Loop(LoopBlock::new(n, body))),
    ]
}

fn program_strategy() -> impl Strategy<Value = TdlProgram> {
    proptest::collection::vec(item_strategy(), 0..5).prop_map(TdlProgram::new)
}

/// Encodes `program` with a parameter blob per file and a distinct
/// address per buffer.
fn encode(program: &TdlProgram) -> Descriptor {
    let mut params = ParamBag::new();
    for name in program.param_files() {
        params.insert(name.to_string(), vec![0xAB; (name.len() % 17) + 1]);
    }
    let mut buffers = BTreeMap::new();
    let mut next = 0x1000u64;
    for p in program.passes() {
        for name in [&p.input, &p.output] {
            buffers.entry(name.clone()).or_insert_with(|| {
                next += 0x1000;
                next
            });
        }
    }
    Descriptor::encode(program, &params, &buffers).expect("encodable")
}

/// Applies corruption `kind` to an encoder image: 0 overwrites one byte,
/// 1 and 2 a u32 or u64 field of one instruction, 3 cuts `v + 1` bytes
/// off the end, and 4 patches the parameter-region offset. `at` picks
/// the byte or instruction; `v` is the value written.
fn mutate(mut img: Vec<u8>, (kind, at, v): (u8, u64, u64)) -> Vec<u8> {
    let len = img.len() as u64;
    let instrs = u64::from(u32::from_le_bytes(img[8..12].try_into().unwrap()));
    let base = CR_BYTES + (at % instrs.max(1)) as usize * INSTR_BYTES;
    let mut patch = |at: usize, field: &[u8]| {
        if instrs > 0 {
            img[at..at + field.len()].copy_from_slice(field);
        }
    };
    match kind {
        0 => img[(at % len) as usize] = v as u8,
        1 => patch(base + 4, &(v as u32).to_le_bytes()),
        2 => patch(base + 8, &v.to_le_bytes()),
        3 => img.truncate((len - 1 - v % len) as usize),
        _ => img[12..16].copy_from_slice(&(v as u32).to_le_bytes()),
    }
    img
}

/// The decoder and the checker are one walker: `decode_bytes` fails
/// exactly when `check` reports an error, with that report, and every
/// parameter reference it lets through lies inside the PR.
fn assert_agreement(bytes: &[u8]) {
    let report = check(bytes);
    match Descriptor::decode_bytes(bytes) {
        Ok(instrs) => {
            assert!(!report.has_errors(), "decoded, yet:\n{report}");
            let pr_offset = u32::from_le_bytes(bytes[12..16].try_into().unwrap());
            let pr_size = bytes.len() as u64 - u64::from(pr_offset);
            for instr in instrs {
                if let DecodedInstr::Accel {
                    param_size,
                    param_addr,
                    ..
                } = instr
                {
                    let end = param_addr.checked_add(u64::from(param_size));
                    assert!(
                        end.is_some_and(|end| end <= pr_size),
                        "{param_addr}+{param_size} escapes the {pr_size}-byte PR"
                    );
                }
            }
        }
        Err(DescriptorError::Malformed(r)) => {
            assert!(report.has_errors());
            assert_eq!(r, report);
        }
        Err(e) => panic!("decode_bytes returned an encoder error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn print_then_parse_is_identity(program in program_strategy()) {
        let printed = program.to_string();
        let reparsed = parse(&printed).expect("printer output must parse");
        prop_assert_eq!(program, reparsed);
    }

    #[test]
    fn descriptor_encode_decode_preserves_structure(program in program_strategy()) {
        let d = encode(&program);
        let decoded = d.decode().expect("decodable");
        // Structure checks: the same loop counts, and as many accelerator
        // instructions as static invocations.
        let loops: Vec<u64> = program
            .items
            .iter()
            .filter_map(|item| match item {
                TdlItem::Loop(l) => Some(l.count),
                TdlItem::Pass(_) => None,
            })
            .collect();
        let decoded_loops: Vec<u64> = decoded
            .iter()
            .filter_map(|i| match i {
                DecodedInstr::LoopBegin { count } => Some(*count),
                _ => None,
            })
            .collect();
        prop_assert_eq!(decoded_loops, loops);
        let accel_instrs = decoded
            .iter()
            .filter(|i| matches!(i, DecodedInstr::Accel { .. }))
            .count() as u64;
        prop_assert_eq!(accel_instrs, program.static_invocations());
    }

    #[test]
    fn decoding_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        assert_agreement(&bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_images_decode_exactly_when_they_check_clean(
        program in program_strategy(),
        // Half the values small, near the image's real sizes and offsets.
        mutation in (0u8..5, any::<u64>(), prop_oneof![0u64..512, any::<u64>()]),
    ) {
        assert_agreement(&mutate(encode(&program).as_bytes().to_vec(), mutation));
    }
}
