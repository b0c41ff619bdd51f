//! End-to-end compilation of the paper's Listing 1 (the STAP fragment):
//! data allocation, FFTW guru data copy + batched FFT, and the OpenMP
//! loop nest of 16M `cblas_cdotc_sub` calls.

use mealib_compiler::analysis::AnalysisError;
use mealib_compiler::lexer::LexError;
use mealib_compiler::{compile, CompileError};
use mealib_tdl::TdlItem;
use proptest::prelude::*;

const STAP_SOURCE: &str = r#"
    // dataset geometry (PERFECT STAP "small"-like constants)
    int N_DOP = 256;
    int N_BLOCKS = 64;
    int N_STEERING = 16;
    int TBS = 64;
    int TDOF = 3;
    int N_CHAN = 4;

    complex *datacube;
    complex *datacube_pulse_major_padded;
    complex *datacube_doppler_major;
    complex *adaptive_weights;
    complex *snapshots;
    complex *prods;

    // data allocation
    datacube = malloc(sizeof(complex) * num_datacube_elements);
    datacube_pulse_major_padded = malloc(sizeof(complex) * num_padded_elements);
    datacube_doppler_major = malloc(sizeof(complex) * num_datacube_elements);
    adaptive_weights = malloc(sizeof(complex) * num_weight_elements);
    snapshots = malloc(sizeof(complex) * num_snapshot_elements);
    prods = malloc(sizeof(complex) * num_prod_elements);

    // data copy (rank-0 guru plan = layout transform)
    plan_ct = fftwf_plan_guru_dft(0, NULL, 3, howmany_dims_ct,
        datacube, datacube_pulse_major_padded, FFTW_FORWARD, FFTW_WISDOM_ONLY);

    // FFT operation
    plan_fft = fftwf_plan_guru_dft(1, dims, 2, howmany_dims,
        datacube_pulse_major_padded, datacube_doppler_major,
        FFTW_FORWARD, FFTW_WISDOM_ONLY);

    fftwf_execute(plan_ct);
    fftwf_execute(plan_fft);

    // multiple parallel inner products
    #pragma omp parallel for num_threads(4)
    for (dop = 0; dop < N_DOP; ++dop)
        for (block = 0; block < N_BLOCKS; ++block)
            for (sv = 0; sv < N_STEERING; ++sv)
                for (cell = 0; cell < TBS; ++cell)
                    cblas_cdotc_sub(TDOF * N_CHAN,
                        &adaptive_weights[dop][block][sv][0], 1,
                        &snapshots[dop][block][cell], TBS,
                        &prods[dop][block][sv][cell]);

    // weight application
    for (dop = 0; dop < N_DOP; ++dop)
        cblas_saxpy(4096, 1.0, prods, 1, datacube_doppler_major, 1);

    free(datacube);
    free(datacube_pulse_major_padded);
    free(datacube_doppler_major);
    free(adaptive_weights);
    free(snapshots);
    free(prods);
"#;

#[test]
fn compiles_listing1_into_three_descriptors() {
    let out = compile(STAP_SOURCE).expect("Listing 1 must compile");
    // Chained RESHP+FFT, the cdotc loop, and the saxpy loop.
    assert_eq!(out.stats.descriptors, 3, "{:#?}", out.stats);
    assert_eq!(out.stats.chained_calls, 2);
    // 2 (chain) + 256*64*16*64 cdotc + 256 saxpy.
    assert_eq!(out.stats.dynamic_calls, 2 + 256 * 64 * 16 * 64 + 256);
}

#[test]
fn listing1_loop_compaction_matches_paper_claim() {
    // "more than 16M function calls of cblas_cdotc_sub are finally
    // translated into only one accelerator invocation" (§3.4).
    let out = compile(STAP_SOURCE).unwrap();
    let cdotc = out
        .tdl
        .iter()
        .find(|t| t.text.contains("COMP DOT"))
        .expect("cdotc descriptor present");
    assert_eq!(cdotc.calls_compacted, 256 * 64 * 16 * 64);
    assert!(cdotc.text.contains(&format!("LOOP {}", 256 * 64 * 16 * 64)));
}

#[test]
fn listing1_generated_tdl_all_parses() {
    let out = compile(STAP_SOURCE).unwrap();
    for gen in &out.tdl {
        let program = mealib_tdl::parse(&gen.text)
            .unwrap_or_else(|e| panic!("TDL for {} must parse: {e}", gen.plan_name));
        assert_eq!(program.total_invocations(), Some(gen.calls_compacted));
    }
}

#[test]
fn listing1_allocations_are_rewritten() {
    let out = compile(STAP_SOURCE).unwrap();
    // Buffers used by accelerators move to MEALib memory...
    for buf in [
        "datacube",
        "datacube_pulse_major_padded",
        "datacube_doppler_major",
        "adaptive_weights",
        "snapshots",
        "prods",
    ] {
        assert!(
            out.source.contains(&format!("{buf} = mealib_mem_alloc(")),
            "{buf} must be rewritten\n{}",
            out.source
        );
        assert!(out.source.contains(&format!("mealib_mem_free({buf});")));
    }
    assert!(!out.source.contains(" = malloc("));
    assert!(!out.source.contains("fftwf_execute"));
}

#[test]
fn listing1_emits_runtime_calls_in_order() {
    let out = compile(STAP_SOURCE).unwrap();
    let p0 = out.source.find("mealib_acc_plan(tdl_0").expect("plan 0");
    let p1 = out.source.find("mealib_acc_plan(tdl_1").expect("plan 1");
    let p2 = out.source.find("mealib_acc_plan(tdl_2").expect("plan 2");
    assert!(p0 < p1 && p1 < p2, "descriptors emitted in source order");
    assert_eq!(out.source.matches("mealib_acc_execute(").count(), 3);
    assert_eq!(out.source.matches("mealib_acc_destroy(").count(), 3);
}

#[test]
fn output_is_stable_under_recompilation() {
    let a = compile(STAP_SOURCE).unwrap();
    let b = compile(STAP_SOURCE).unwrap();
    assert_eq!(a, b);
}

/// Listing 1's loop-bound constants and their values in `STAP_SOURCE`,
/// outermost first. The cdotc nest runs over all four, the saxpy loop
/// over `N_DOP`.
const LOOP_BOUNDS: [(&str, i64); 4] = [
    ("N_DOP", 256),
    ("N_BLOCKS", 64),
    ("N_STEERING", 16),
    ("TBS", 64),
];

/// `STAP_SOURCE` with `bounds` (name, value) substituted.
fn listing1_with(bounds: &[(&str, i64)]) -> String {
    let mut src = STAP_SOURCE.to_string();
    for (name, value) in bounds {
        let default = LOOP_BOUNDS.iter().find(|(n, _)| n == name).unwrap().1;
        let from = format!("int {name} = {default};");
        assert!(src.contains(&from), "{from}");
        src = src.replace(&from, &format!("int {name} = {value};"));
    }
    src
}

fn trip_overflow_callee(src: &str) -> Option<String> {
    match compile(src) {
        Err(CompileError::Analysis(AnalysisError::TripCountOverflow { callee })) => Some(callee),
        _ => None,
    }
}

#[test]
fn listing1_trip_product_past_u64_is_a_typed_error() {
    for bounds in [
        vec![("N_DOP", i64::MAX)],
        vec![("N_DOP", 1 << 32), ("N_BLOCKS", 1 << 32)],
    ] {
        assert_eq!(
            trip_overflow_callee(&listing1_with(&bounds)).as_deref(),
            Some("cblas_cdotc_sub"),
            "{bounds:?}"
        );
    }
}

#[test]
fn loop_bound_past_i64_is_a_lex_error() {
    let src = "int N = 9223372036854775808;\n\
               for (i = 0; i < N; ++i)\n  cblas_saxpy(64, 1.0, x, 1, y, 1);";
    let err = compile(src).unwrap_err();
    assert!(
        matches!(
            &err,
            CompileError::Lex(LexError::IntOutOfRange { literal, line: 1 })
                if literal == "9223372036854775808"
        ),
        "{err}"
    );
}

/// Cases: 64, or `PROPTEST_CASES` when set (the release verification
/// run widens the draw this way).
fn edge_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(edge_cases()))]

    #[test]
    fn listing1_loop_counts_are_exact_trip_products_at_the_edges(
        first in 0usize..4,
        offset in 1usize..4,
        values in (
            proptest::sample::select(vec![0i64, 1, 1 << 32, i64::MAX, -1, i64::MIN]),
            proptest::sample::select(vec![0i64, 1, 1 << 32, i64::MAX, -1, i64::MIN]),
        ),
    ) {
        let second = (first + offset) % 4;
        let bounds = [
            (LOOP_BOUNDS[first].0, values.0),
            (LOOP_BOUNDS[second].0, values.1),
        ];
        let src = listing1_with(&bounds);
        let bound = |name: &str| {
            bounds
                .iter()
                .chain(&LOOP_BOUNDS)
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        // A non-positive bound leaves its loop uncompacted (a negative
        // literal is not a constant to the compiler, and zero trips
        // make no descriptor), so only all-positive nests have a trip
        // product. It is exact in u128 up to saturation, far past u64.
        let cdotc: Option<u128> = LOOP_BOUNDS.iter().try_fold(1u128, |acc, (name, _)| {
            let v = bound(name);
            (v > 0).then(|| acc.saturating_mul(v as u128))
        });
        let saxpy = bound("N_DOP");
        if values.0 == i64::MIN || values.1 == i64::MIN {
            // `-9223372036854775808` negates a literal past `i64::MAX`,
            // which the lexer refuses.
            let err = compile(&src).unwrap_err();
            prop_assert!(
                matches!(
                    &err,
                    CompileError::Lex(LexError::IntOutOfRange { literal, .. })
                        if literal == "9223372036854775808"
                ),
                "{bounds:?}: {err}"
            );
        } else if cdotc.is_some_and(|c| c > u128::from(u64::MAX)) {
            prop_assert_eq!(trip_overflow_callee(&src).as_deref(), Some("cblas_cdotc_sub"));
        } else {
            let out = compile(&src)
                .unwrap_or_else(|e| panic!("{bounds:?} must compile: {e}"));
            let mut loops = Vec::new();
            let mut total = 0u64;
            for gen in &out.tdl {
                let program = mealib_tdl::parse(&gen.text).expect("generated TDL parses");
                prop_assert_eq!(program.total_invocations(), Some(gen.calls_compacted));
                total += gen.calls_compacted;
                for item in &program.items {
                    if let TdlItem::Loop(l) = item {
                        loops.push(u128::from(l.count));
                    }
                }
            }
            prop_assert_eq!(total, out.stats.dynamic_calls);
            let mut want: Vec<u128> = cdotc.into_iter().filter(|&c| c > 1).collect();
            if saxpy > 1 {
                want.push(saxpy as u128);
            }
            loops.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(loops, want);
        }
    }
}
