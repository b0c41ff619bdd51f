//! Property tests for the source-to-source compiler: on arbitrary
//! (generated) programs in the subset, compilation never panics, the
//! emitted source re-parses, and generated TDL is always valid.

use mealib_compiler::{compile, lexer, parser};
use proptest::prelude::*;

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,8}".prop_map(|s| s)
}

/// Generates syntactically valid programs in the subset, mixing
/// declarations, mallocs, accelerable calls, loops, and frees.
fn program() -> impl Strategy<Value = String> {
    let stmt = prop_oneof![
        ident().prop_map(|v| format!("float *{v};")),
        (ident(), 1u32..1_000_000)
            .prop_map(|(v, n)| format!("{v} = malloc(sizeof(float) * {n});")),
        (ident(), ident(), 1u32..100_000)
            .prop_map(|(x, y, n)| format!("cblas_saxpy({n}, 2.0, {x}, 1, {y}, 1);")),
        (ident(), ident(), 1u32..100_000)
            .prop_map(|(x, y, n)| format!("cblas_sdot({n}, {x}, 1, {y}, 1);")),
        (ident(), ident(), 1u32..64, 1u32..4096).prop_map(|(x, y, c, n)| {
            format!("for (i = 0; i < {c}; ++i) cblas_saxpy({n}, 1.0, {x}, 1, {y}, 1);")
        }),
        (ident(), ident(), ident()).prop_map(|(p, a, b)| {
            format!(
                "{p} = fftwf_plan_guru_dft(1, dims, 2, hm, {a}, {b}, FWD, FLAGS);\nfftwf_execute({p});"
            )
        }),
        ident().prop_map(|v| format!("free({v});")),
        (ident(), 0i64..1000).prop_map(|(v, n)| format!("int {v} = {n};")),
        (ident(), ident()).prop_map(|(f, a)| format!("{f}({a});")),
    ];
    proptest::collection::vec(stmt, 0..12).prop_map(|stmts| stmts.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn compile_never_panics_and_output_reparses(src in program()) {
        // Some generated programs are semantically invalid (e.g. an
        // execute of a reused plan variable); those must surface as
        // Err, never as a panic.
        if let Ok(out) = compile(&src) {
            // The transformed source must lex and parse in the same
            // subset (strings and comments included).
            let tokens = lexer::tokenize(&out.source).expect("emitted source lexes");
            parser::parse(tokens).expect("emitted source parses");
            // Every generated TDL must parse and agree on call counts.
            let mut total = 0u64;
            for gen in &out.tdl {
                let program = mealib_tdl::parse(&gen.text).expect("generated TDL parses");
                prop_assert_eq!(program.total_invocations(), Some(gen.calls_compacted));
                total += gen.calls_compacted;
            }
            prop_assert_eq!(total, out.stats.dynamic_calls);
            prop_assert_eq!(out.tdl.len() as u64, out.stats.descriptors);
        }
    }

    #[test]
    fn compilation_is_deterministic(src in program()) {
        let a = compile(&src);
        let b = compile(&src);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            other => panic!("nondeterministic outcome: {other:?}"),
        }
    }

    #[test]
    fn lexer_never_panics_on_arbitrary_input(src in "\\PC{0,200}") {
        let _ = lexer::tokenize(&src);
    }

    #[test]
    fn parser_never_panics_on_token_soup(src in "[a-z(){};=<>+*&,0-9\\\" .]{0,120}") {
        if let Ok(tokens) = lexer::tokenize(&src) {
            let _ = parser::parse(tokens);
        }
    }
}
