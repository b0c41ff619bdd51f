//! Property tests for the untrusted-text parsers behind `meaperf`:
//! `obs::json::parse` and `BenchSummary::parse` return `Ok` or `Err` on
//! arbitrary text and on line/field mutations of a valid BENCH
//! document, never panic, and a parsed summary always re-renders to a
//! document that parses again. A record-level `wall_s` from an older
//! BENCH file is accepted on input and never emitted.

use mealib_obs::bench_schema::BenchSummary;
use mealib_obs::json;
use proptest::prelude::*;

/// A schema-v1 BENCH document in the layout `scripts/bench_smoke.sh`
/// writes, including a legacy record-level `wall_s`.
const DOC: &str = r#"{
  "schema_version": 1,
  "generated_by": "scripts/bench_smoke.sh",
  "benches": [
    {
      "bench": "fig09_performance",
      "metrics": {
        "speedup_axpy": 13.876671111903685,
        "avg_speedup": 23.6
      },
      "wall_s": 0.042
    },
    {
      "bench": "tenant_mix",
      "metrics": {
        "mixes": 6.0,
        "verdict_correctness": 1.0
      }
    },
    {
      "bench": "serve_traffic",
      "metrics": {
        "admission_soundness": 1.0,
        "p99_ms_fft": 3.25e-1
      }
    }
  ]
}
"#;

/// Replacement tokens for a numeric field: edge values, non-numbers,
/// other JSON kinds and broken syntax.
const FIELD_VALUES: [&str; 14] = [
    "0",
    "-1",
    "1e308",
    "1e999",
    "-1e999",
    "18446744073709551615",
    "NaN",
    "inf",
    "\"7\"",
    "null",
    "[]",
    "{}",
    "",
    "1.2.3",
];

/// Arbitrary text: lossily decoded random bytes (control characters,
/// replacement characters, stray quotes) or JSON-shaped token soup.
fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..200)
            .prop_map(|b| String::from_utf8_lossy(&b).into_owned()),
        "[\\[\\]{}\":,0-9a-z.eE+ \\\\-]{0,160}",
        "\\{\"schema_version\": [0-9.], \"benches\": [\\[\\]{}\":,0-9a-z_ ]{0,80}",
    ]
}

/// One line- or field-level mutation of `DOC`.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    DeleteLine(usize),
    DuplicateLine(usize),
    SwapLines(usize, usize),
    Truncate(usize),
    SetNumber(usize, usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0usize..64).prop_map(Mutation::DeleteLine),
        (0usize..64).prop_map(Mutation::DuplicateLine),
        (0usize..64, 0usize..64).prop_map(|(a, b)| Mutation::SwapLines(a, b)),
        (0usize..DOC.len()).prop_map(Mutation::Truncate),
        (0usize..16, 0usize..FIELD_VALUES.len()).prop_map(|(f, v)| Mutation::SetNumber(f, v)),
    ]
}

fn apply(doc: &str, m: Mutation) -> String {
    let mut lines: Vec<&str> = doc.lines().collect();
    let n = lines.len();
    if n == 0 {
        return String::new();
    }
    match m {
        Mutation::DeleteLine(i) => {
            lines.remove(i % n);
        }
        Mutation::DuplicateLine(i) => lines.insert(i % n, lines[i % n]),
        Mutation::SwapLines(a, b) => lines.swap(a % n, b % n),
        // Every input is ASCII, so any byte offset is a char boundary.
        Mutation::Truncate(at) => return doc[..at.min(doc.len())].to_string(),
        Mutation::SetNumber(field, value) => {
            // The `: <number>` fields, in document order.
            let numeric: Vec<usize> = (0..n)
                .filter(|&i| {
                    lines[i]
                        .split_once(": ")
                        .is_some_and(|(_, v)| v.starts_with(|c: char| c.is_ascii_digit()))
                })
                .collect();
            if numeric.is_empty() {
                return doc.to_string();
            }
            let i = numeric[field % numeric.len()];
            let (key, rest) = lines[i].split_once(": ").expect("filtered above");
            let comma = if rest.ends_with(',') { "," } else { "" };
            let line = format!("{key}: {}{comma}", FIELD_VALUES[value]);
            return lines
                .iter()
                .enumerate()
                .map(|(j, l)| if j == i { line.as_str() } else { l })
                .collect::<Vec<_>>()
                .join("\n");
        }
    }
    lines.join("\n")
}

/// Parses `text` as BENCH and, on success, checks the rendered form:
/// it parses again (so it is schema v1) and carries no `wall_s`.
fn check_bench(text: &str) {
    if let Ok(summary) = BenchSummary::parse(text) {
        let rendered = summary.render();
        assert!(!rendered.contains("wall_s"), "{rendered}");
        let again = BenchSummary::parse(&rendered).expect("rendered summaries parse");
        assert_eq!(again.benches.len(), summary.benches.len());
    }
}

#[test]
fn the_seed_document_parses_and_drops_its_legacy_wall_time() {
    let s = BenchSummary::parse(DOC).expect("seed document parses");
    assert_eq!(s.benches.len(), 3);
    assert_eq!(s.metric("fig09_performance", "avg_speedup"), Some(23.6));
    let rendered = s.render();
    assert!(!rendered.contains("wall_s"), "{rendered}");
    assert_eq!(BenchSummary::parse(&rendered).expect("round trip"), s);
}

#[test]
fn deeply_nested_input_is_an_error_not_a_crash() {
    for open in ["[", "{\"a\":"] {
        let deep = open.repeat(100_000);
        assert!(json::parse(&deep).is_err());
        assert!(BenchSummary::parse(&deep).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn json_parse_is_total_on_arbitrary_text(s in text()) {
        let _ = json::parse(&s);
    }

    #[test]
    fn bench_parse_is_total_on_arbitrary_text(s in text()) {
        check_bench(&s);
    }

    #[test]
    fn bench_parse_is_total_on_mutated_documents(
        m1 in mutation(),
        m2 in mutation(),
        twice in any::<bool>(),
    ) {
        let once = apply(DOC, m1);
        check_bench(&once);
        if twice {
            let both = apply(&once, m2);
            let _ = json::parse(&both);
            check_bench(&both);
        }
    }
}
