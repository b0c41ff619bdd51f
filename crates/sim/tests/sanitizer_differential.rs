//! Differential testing of the static dataflow analysis against the
//! runtime shadow-memory sanitizer.
//!
//! Every program in `crates/verify/corpus/bad` carries a deliberate
//! dataflow or coherence defect whose MEA1xx code is encoded in the
//! filename (`mea103_missing_flush.tdl` promises MEA103). Each has a
//! minimally-fixed clean twin under `corpus/clean` with the same
//! filename. The static analyzer and the sanitizer replay must agree
//! on every program in both corpora: the bad file draws its promised
//! code from *both* layers, and the clean twin draws nothing from
//! either. MEA2xx (cost/capacity-budget) programs are the exception:
//! they are protocol-clean by construction, so both coherence layers
//! must agree they are clean while the static *bounds* analyzer draws
//! the promised code.

use std::path::{Path, PathBuf};

use mealib_sim::run_sanitizer_experiment;
use mealib_tdl::AcceleratorKind;
use mealib_types::ErrorCode;

fn corpus_dir(kind: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("verify")
        .join("corpus")
        .join(kind)
}

fn corpus_files(kind: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(corpus_dir(kind))
        .expect("corpus directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "tdl"))
        .collect();
    files.sort();
    assert!(files.len() >= 8, "corpus {kind} too small: {}", files.len());
    files
}

/// `mea103_missing_flush.tdl` -> `ErrorCode::DfStaleRead`.
fn expected_code(path: &Path) -> ErrorCode {
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("utf-8 file name");
    let number: u16 = name[3..6].parse().expect("meaNNN_ file name prefix");
    *ErrorCode::ALL
        .iter()
        .find(|c| c.number() == number)
        .unwrap_or_else(|| panic!("{name}: no such code MEA{number}"))
}

#[test]
fn bad_corpus_verdicts_agree_and_include_the_promised_code() {
    for path in corpus_files("bad") {
        let src = std::fs::read_to_string(&path).expect("readable corpus file");
        let v = run_sanitizer_experiment(&src)
            .unwrap_or_else(|e| panic!("{}: parse error {e}", path.display()));
        let expected = expected_code(&path);
        if expected.band() == "MEA2xx" {
            // Cost/capacity-budget defects are *static-only*
            // properties: the programs follow the coherence protocol,
            // so the sanitizer replay must stay clean and agree with
            // the (dataflow-scoped) static half. Their MEA2xx coverage
            // lives in the mealib-verify bounds corpus tests.
            assert!(
                mealib_verify::bounds::verify_source_bounds(&src).has_code(expected),
                "{}: bounds analysis missed {expected}",
                path.display()
            );
            assert!(
                v.dynamic_codes().is_empty(),
                "{}: sanitizer flagged a protocol-clean bounds program\n{}",
                path.display(),
                v.dynamic_report
            );
            assert!(v.agree(), "{}: verdicts disagree", path.display());
            continue;
        }
        assert!(
            v.static_codes().contains(&expected),
            "{}: static analysis missed {expected}, got {:?}\n{}",
            path.display(),
            v.static_codes(),
            v.static_report
        );
        assert!(
            v.dynamic_codes().contains(&expected),
            "{}: sanitizer missed {expected}, got {:?}\n{}",
            path.display(),
            v.dynamic_codes(),
            v.dynamic_report
        );
        assert!(
            v.agree(),
            "{}: verdicts disagree\nstatic: {:?}\ndynamic: {:?}",
            path.display(),
            v.static_codes(),
            v.dynamic_codes()
        );
    }
}

#[test]
fn clean_corpus_verdicts_agree_clean() {
    for path in corpus_files("clean") {
        let src = std::fs::read_to_string(&path).expect("readable corpus file");
        let v = run_sanitizer_experiment(&src)
            .unwrap_or_else(|e| panic!("{}: parse error {e}", path.display()));
        assert!(
            v.static_codes().is_empty(),
            "{}: static analysis flagged a clean twin\n{}",
            path.display(),
            v.static_report
        );
        assert!(
            v.dynamic_codes().is_empty(),
            "{}: sanitizer flagged a clean twin\n{}",
            path.display(),
            v.dynamic_report
        );
        assert!(v.agree(), "{}: verdicts disagree", path.display());
    }
}

#[test]
fn every_bad_file_has_a_clean_twin_and_vice_versa() {
    let names = |kind: &str| -> Vec<String> {
        corpus_files(kind)
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect()
    };
    assert_eq!(names("bad"), names("clean"));
}

/// Every accelerator, called once through the canonical host protocol
/// (initialize, flush, run, flush, read back), replays clean under the
/// sanitizer, and the static analysis agrees.
#[test]
fn sanitized_accelerator_calls_stay_clean() {
    for kind in AcceleratorKind::ALL {
        let src = format!(
            "HOST WRITE x\nFLUSH\nPASS in=x out=y {{\n  COMP {} params=\"op.para\"\n}}\nFLUSH\nHOST READ y\n",
            kind.keyword()
        );
        let v = run_sanitizer_experiment(&src).expect("canonical session parses");
        assert!(
            v.static_report.is_clean(),
            "{kind}: static analysis flagged the canonical session\n{}",
            v.static_report
        );
        assert!(
            v.dynamic_report.is_clean(),
            "{kind}: sanitizer flagged the canonical session\n{}",
            v.dynamic_report
        );
        assert!(v.agree(), "{kind}: verdicts disagree");
    }
}
