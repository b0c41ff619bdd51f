//! Known-bad corpus: every entry is a realistic defect and must draw the
//! exact `MEA0xx` code the documentation promises — the codes are a
//! stable interface, so a check that starts firing under a different
//! code is a regression even if it still fires.

use std::collections::BTreeMap;

use mealib_tdl::descriptor::{self, CR_BYTES, INSTR_BYTES, MAGIC, OP_LOOP_BEGIN, OP_PASS_END};
use mealib_tdl::{parse, Descriptor, DescriptorError, ParamBag};
use mealib_verify::{tdl, ErrorCode, TdlLimits};

fn tdl_report(src: &str) -> mealib_verify::Report {
    tdl::verify_source(src, None, &TdlLimits::default()).expect("corpus entries must parse")
}

#[test]
fn tdl_corpus_draws_exact_codes() {
    let corpus: &[(&str, &str, ErrorCode)] = &[
        (
            "in-place chain",
            r#"PASS in=x out=x { COMP RESHP params="r.para" COMP FFT params="f.para" }"#,
            ErrorCode::TdlInPlaceChain,
        ),
        (
            "chain beyond the tile-switch fan-in",
            r#"PASS in=x out=y {
                COMP FFT params="a.para"
                COMP FFT params="b.para"
                COMP FFT params="c.para"
                COMP FFT params="d.para"
                COMP FFT params="e.para"
            }"#,
            ErrorCode::TdlChainTooLong,
        ),
        (
            "reduction feeding a downstream stage",
            r#"PASS in=x out=y { COMP DOT params="d.para" COMP FFT params="f.para" }"#,
            ErrorCode::TdlIllegalChain,
        ),
        (
            "absurd trip count",
            r#"LOOP 400000000 { PASS in=x out=y { COMP FFT params="f.para" } }"#,
            ErrorCode::TdlLoopTripCount,
        ),
        (
            "overwritten before anyone reads it",
            r#"PASS in=a out=b { COMP FFT params="f.para" }
               PASS in=c out=b { COMP RESHP params="r.para" }"#,
            ErrorCode::TdlBufferHazard,
        ),
    ];
    for (what, src, code) in corpus {
        let report = tdl_report(src);
        assert!(
            report.has_code(*code),
            "{what}: expected {code}, got:\n{report}"
        );
        assert!(!report.is_clean(), "{what}");
    }
}

#[test]
fn dangling_param_reference_needs_the_bag() {
    let src = r#"PASS in=x out=y { COMP FFT params="missing.para" }"#;
    // Without a bag the reference cannot be judged.
    assert!(tdl_report(src).is_clean());
    let bag = ParamBag::new();
    let report = tdl::verify_source(src, Some(&bag), &TdlLimits::default()).unwrap();
    assert!(report.has_code(ErrorCode::TdlDanglingParams), "{report}");
}

/// A well-formed two-item descriptor to corrupt.
fn good_image() -> Vec<u8> {
    let program = parse(
        r#"
        PASS in=a out=b {
            COMP RESHP params="r.para"
            COMP FFT params="f.para"
        }
        LOOP 16 { PASS in=b out=c { COMP DOT params="d.para" } }
        "#,
    )
    .unwrap();
    let mut params = ParamBag::new();
    params.insert("r.para".into(), vec![1; 5]);
    params.insert("f.para".into(), vec![2; 16]);
    params.insert("d.para".into(), vec![3; 12]);
    let buffers: BTreeMap<String, u64> = [
        ("a".into(), 0x1000u64),
        ("b".into(), 0x2000),
        ("c".into(), 0x3000),
    ]
    .into_iter()
    .collect();
    Descriptor::encode(&program, &params, &buffers)
        .unwrap()
        .as_bytes()
        .to_vec()
}

fn patch_pr_offset(img: &mut [u8], delta: i64) {
    let pr = u32::from_le_bytes(img[12..16].try_into().unwrap());
    img[12..16].copy_from_slice(&((pr as i64 + delta) as u32).to_le_bytes());
}

type Corruption = fn(&mut Vec<u8>);

/// Eleven realistic corruptions of [`good_image`], each with the one
/// code it must draw.
const DESCRIPTOR_CORPUS: &[(&str, Corruption, ErrorCode)] = &[
    (
        "truncated below the control region",
        |img| img.truncate(8),
        ErrorCode::DescTruncated,
    ),
    (
        "flipped magic",
        |img| img[0] ^= 0xff,
        ErrorCode::DescBadMagic,
    ),
    (
        "undefined command word",
        |img| img[4] = 9,
        ErrorCode::DescBadCommand,
    ),
    (
        "instruction count past the end of the image",
        |img| img[8..12].copy_from_slice(&10_000u32.to_le_bytes()),
        ErrorCode::DescTruncated,
    ),
    (
        "parameter region overlapping the instruction region",
        |img| patch_pr_offset(img, -(INSTR_BYTES as i64)),
        ErrorCode::DescRegionOverlap,
    ),
    (
        "misaligned parameter region",
        |img| {
            patch_pr_offset(img, 4);
            img.extend_from_slice(&[0; 4]);
        },
        ErrorCode::DescMisalignedPr,
    ),
    (
        "opcode outside the ISA",
        |img| img[CR_BYTES + INSTR_BYTES] = 0xee,
        ErrorCode::DescUnknownOpcode,
    ),
    (
        "PASS_END with no open pass",
        |img| img[CR_BYTES] = OP_PASS_END,
        ErrorCode::DescUnbalancedBlocks,
    ),
    (
        "parameter pointer past the parameter region",
        |img| {
            let base = CR_BYTES + INSTR_BYTES;
            img[base + 8..base + 16].copy_from_slice(&0xffff_u64.to_le_bytes());
        },
        ErrorCode::DescParamOutOfRange,
    ),
    (
        "parameter pointer off the 8-byte grid",
        |img| {
            let base = CR_BYTES + INSTR_BYTES;
            img[base + 8..base + 16].copy_from_slice(&3u64.to_le_bytes());
        },
        ErrorCode::DescParamMisaligned,
    ),
    (
        "LOOP_BEGIN with a zero count",
        |img| {
            // Instruction 4 opens the `LOOP 16`.
            let base = CR_BYTES + 4 * INSTR_BYTES;
            assert_eq!(img[base], OP_LOOP_BEGIN);
            img[base + 8..base + 16].copy_from_slice(&0u64.to_le_bytes());
        },
        ErrorCode::DescZeroLoopCount,
    ),
];

#[test]
fn descriptor_corpus_draws_exact_codes() {
    assert!(descriptor::check(&good_image()).is_clean());
    assert!(Descriptor::decode_bytes(&good_image()).is_ok());
    for (what, corrupt, code) in DESCRIPTOR_CORPUS {
        let mut img = good_image();
        corrupt(&mut img);
        let report = descriptor::check(&img);
        assert!(
            report.has_code(*code),
            "{what}: expected {code}, got:\n{report}"
        );
        assert!(report.has_errors(), "{what}");
        // The Configuration Unit's decoder refuses the same image.
        assert_eq!(
            Descriptor::decode_bytes(&img),
            Err(DescriptorError::Malformed(report)),
            "{what}"
        );
    }
}

/// Writes the descriptor corpus and every non-empty truncation of the
/// clean image as binary files into `$MEALINT_IMAGE_DIR`, for the
/// release-`mealint` step of `scripts/verify.sh`. Each file is named
/// `<stem>.<expect>.bin`, where `<expect>` is `clean` (exit 0),
/// `unsniffed` (no `MEAL` magic, so not linted as a descriptor: exit 2)
/// or the `MEA01x` code the image must draw (exit 1). The empty prefix
/// is left out: an empty file is the empty TDL program, not an image.
#[test]
#[ignore = "writes files for scripts/verify.sh; set MEALINT_IMAGE_DIR"]
fn write_descriptor_images() {
    let dir = std::path::PathBuf::from(
        std::env::var_os("MEALINT_IMAGE_DIR")
            .expect("MEALINT_IMAGE_DIR names the output directory"),
    );
    std::fs::create_dir_all(&dir).unwrap();
    let sniffed = |img: &[u8]| img.len() >= 4 && img[0..4] == MAGIC.to_le_bytes();
    let write = |stem: String, expect: &str, img: &[u8]| {
        std::fs::write(dir.join(format!("{stem}.{expect}.bin")), img).unwrap();
    };

    let good = good_image();
    write("good".into(), "clean", &good);
    for (i, (_, corrupt, code)) in DESCRIPTOR_CORPUS.iter().enumerate() {
        let mut img = good.clone();
        corrupt(&mut img);
        let expect = if sniffed(&img) {
            code.as_str()
        } else {
            "unsniffed"
        };
        write(format!("corrupt{i:02}"), expect, &img);
    }

    // A prefix short of the instruction region is truncated (MEA010); one
    // that cuts into a parameter blob leaves its pointer past the PR
    // (MEA017); cutting only the zero padding after the last blob, whose
    // bytes are nonzero, leaves a valid image.
    let ir_end = u32::from_le_bytes(good[12..16].try_into().unwrap()) as usize; // = PR offset
    let blobs_end = good.iter().rposition(|&b| b != 0).unwrap() + 1;
    for len in 1..good.len() {
        let img = &good[..len];
        let expect = if !sniffed(img) {
            "unsniffed"
        } else if len < ir_end {
            ErrorCode::DescTruncated.as_str()
        } else if len < blobs_end {
            ErrorCode::DescParamOutOfRange.as_str()
        } else {
            "clean"
        };
        write(format!("trunc{len:03}"), expect, img);
    }
}

mod dataflow_corpus {
    //! The MEA1xx/MEA2xx disk corpus: every bad program must draw the
    //! exact code its filename promises, and every clean twin must lint
    //! fully clean (TDL, dataflow, *and* bounds passes).

    use std::fs;
    use std::path::{Path, PathBuf};

    use mealib_verify::dataflow::{self, DataflowEnv};
    use mealib_verify::{bounds, tdl, BoundsEnv, ErrorCode, Report, TdlLimits};

    fn corpus_dir(kind: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("corpus")
            .join(kind)
    }

    pub(super) fn corpus_files(kind: &str) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(corpus_dir(kind))
            .expect("corpus directory exists")
            .map(|e| e.expect("corpus entry").path())
            .filter(|p| p.extension().is_some_and(|e| e == "tdl"))
            .collect();
        files.sort();
        files
    }

    /// `mea103_missing_flush.tdl` promises `MEA103`.
    fn expected_code(path: &Path) -> ErrorCode {
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .expect("utf-8 file name");
        let number: u16 = name[3..6].parse().expect("meaNNN_ filename prefix");
        *ErrorCode::ALL
            .iter()
            .find(|c| c.number() == number)
            .expect("prefix names a known code")
    }

    /// Exactly what `mealint` computes for a `.tdl` file: TDL semantics
    /// merged with the session-aware dataflow analysis and the MEA2xx
    /// bounds certification.
    fn full_lint(src: &str) -> Report {
        let session = dataflow::parse_session(src).expect("corpus entries parse");
        let mut report = tdl::verify_program(
            &session.program,
            Some(&session.lines),
            None,
            &TdlLimits::default(),
        );
        report.merge(dataflow::verify_session(&session, &DataflowEnv::default()));
        report.merge(bounds::verify_session_bounds(
            &session,
            &BoundsEnv::default(),
        ));
        report
    }

    #[test]
    fn bad_corpus_draws_the_code_its_name_promises() {
        let files = corpus_files("bad");
        assert!(
            files.len() >= 8,
            "corpus holds {} bad programs",
            files.len()
        );
        for path in files {
            let src = fs::read_to_string(&path).expect("corpus file reads");
            let code = expected_code(&path);
            let report = full_lint(&src);
            assert!(
                report.has_code(code),
                "{}: expected {code}, got:\n{report}",
                path.display()
            );
        }
    }

    #[test]
    fn clean_twins_lint_fully_clean() {
        let files = corpus_files("clean");
        assert!(files.len() >= 8);
        for path in files {
            let twin = corpus_dir("bad").join(path.file_name().expect("file name"));
            assert!(twin.exists(), "{} has no bad counterpart", path.display());
            let src = fs::read_to_string(&path).expect("corpus file reads");
            let report = full_lint(&src);
            assert!(
                report.is_clean(),
                "{}: clean twin must be clean, got:\n{report}",
                path.display()
            );
        }
    }

    #[test]
    fn every_dataflow_code_is_exercised() {
        let exercised: Vec<ErrorCode> = corpus_files("bad")
            .iter()
            .map(|p| expected_code(p))
            .collect();
        for code in [
            ErrorCode::DfUninitRead,
            ErrorCode::DfDeadBuffer,
            ErrorCode::DfOverlap,
            ErrorCode::DfStaleRead,
            ErrorCode::DfChainOverCapacity,
            ErrorCode::DfCyclicDependence,
        ] {
            assert!(exercised.contains(&code), "no bad program exercises {code}");
        }
    }
}

mod cli {
    //! End-to-end runs of the `mealint` binary over corpus files.

    use std::path::PathBuf;
    use std::process::Command;

    fn scratch(name: &str, contents: &[u8]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mealint-corpus-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    fn mealint(args: &[&str]) -> (i32, String, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_mealint"))
            .args(args)
            .output()
            .expect("mealint runs");
        (
            out.status.code().expect("exit code"),
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    }

    #[test]
    fn clean_files_of_every_kind_exit_zero() {
        let tdl = scratch(
            "good.tdl",
            br#"PASS in=x out=y { COMP FFT params="f.para" }"#,
        );
        let desc = scratch("good.meal", &super::good_image());
        let cfg = scratch("good.memcfg", b"base = hmc_stack\n");
        let (code, stdout, _) = mealint(&[
            tdl.to_str().unwrap(),
            desc.to_str().unwrap(),
            cfg.to_str().unwrap(),
        ]);
        assert_eq!(code, 0, "{stdout}");
        assert_eq!(stdout.matches(": ok").count(), 3, "{stdout}");
    }

    #[test]
    fn coded_errors_exit_one_and_name_the_code() {
        let bad_tdl = scratch(
            "bad.tdl",
            br#"PASS in=x out=x { COMP RESHP params="r.para" COMP FFT params="f.para" }"#,
        );
        let (code, stdout, _) = mealint(&[bad_tdl.to_str().unwrap()]);
        assert_eq!(code, 1, "{stdout}");
        assert!(stdout.contains("MEA001"), "{stdout}");

        let mut img = super::good_image();
        img[4] = 9;
        let bad_desc = scratch("bad.meal", &img);
        let (code, stdout, _) = mealint(&[bad_desc.to_str().unwrap()]);
        assert_eq!(code, 1, "{stdout}");
        assert!(stdout.contains("MEA012"), "{stdout}");

        let bad_cfg = scratch("bad.memcfg", b"base = hmc_stack\nt_rcd = 0\n");
        let (code, stdout, _) = mealint(&[bad_cfg.to_str().unwrap()]);
        assert_eq!(code, 1, "{stdout}");
        assert!(stdout.contains("MEA020"), "{stdout}");
    }

    #[test]
    fn one_bad_file_taints_a_batch() {
        let good = scratch(
            "also-good.tdl",
            br#"PASS in=x out=y { COMP FFT params="f.para" }"#,
        );
        let bad = scratch(
            "also-bad.tdl",
            br#"PASS in=x out=x { COMP RESHP params="r.para" COMP FFT params="f.para" }"#,
        );
        let (code, stdout, _) = mealint(&[good.to_str().unwrap(), bad.to_str().unwrap()]);
        assert_eq!(code, 1, "{stdout}");
        assert!(stdout.contains(": ok"), "{stdout}");
    }

    #[test]
    fn oversized_memconfig_is_linted_not_a_panic() {
        // A 2^80-byte rotation window: the bijectivity proof must cap it
        // and say so, not overflow computing it.
        let cfg = scratch(
            "huge.memcfg",
            b"base = hmc_stack\nunits = 1099511627776\nbanks_per_unit = 1048576\n\
              row_bytes = 1048576\nline_bytes = 256\n",
        );
        let (code, stdout, stderr) = mealint(&[cfg.to_str().unwrap()]);
        assert!((0..=2).contains(&code), "exit {code}: {stdout}{stderr}");
        assert!(stdout.contains("MEA024"), "{stdout}{stderr}");
    }

    #[test]
    fn adversarial_extents_and_loops_lint_quickly() {
        // A 2^62 B buffer walked in closed form, a wrapping extent (a
        // parse error, not a panic) and a 2^20-iteration loop kept, not
        // unrolled: each lints to an exit code, not a crash or a hang.
        let pass = "PASS in=a out=b {\n  COMP AXPY params=\"a.para\"\n}\n";
        let huge = scratch(
            "huge-buf.tdl",
            format!("BUF a 0x1000 0x4000000000000000\nBUF b 0x1000 0x1000\n{pass}").as_bytes(),
        );
        let wrap = scratch(
            "wrap-buf.tdl",
            format!("BUF a 0xffffffffffffff00 0x200\nBUF b 0x1000 0x1000\n{pass}").as_bytes(),
        );
        let looped = scratch(
            "long-loop.tdl",
            format!(
                "BUF a 0x1000 0x1000000\nBUF b 0x2000000 0x1000000\nLOOP 1048576 {{\n{pass}}}\n"
            )
            .as_bytes(),
        );
        for (file, want) in [(&huge, None), (&wrap, Some(2)), (&looped, None)] {
            let (code, stdout, stderr) = mealint(&[file.to_str().unwrap()]);
            assert!((0..=2).contains(&code), "exit {code}: {stdout}{stderr}");
            if let Some(want) = want {
                assert_eq!(code, want, "{stdout}{stderr}");
            }
        }
    }

    #[test]
    fn unusable_inputs_exit_two() {
        let garbage = scratch("garbage.tdl", b"PASS oops");
        let (code, _, stderr) = mealint(&[garbage.to_str().unwrap()]);
        assert_eq!(code, 2, "{stderr}");
        assert!(stderr.contains("parse error"), "{stderr}");

        let (code, _, stderr) = mealint(&[]);
        assert_eq!(code, 2);
        assert!(stderr.contains("usage"), "{stderr}");

        let (code, _, _) = mealint(&["/nonexistent/mealint-no-such-file"]);
        assert_eq!(code, 2);
    }

    #[test]
    fn a_duplicate_buf_exits_two_naming_both_lines() {
        // A second `BUF a` must not replace the first extent and lint
        // `ok`: it is unusable input.
        let dup = scratch(
            "dup-buf.tdl",
            b"BUF a 0x1000 0x1000\nBUF a 0x100000 0x1000\nBUF b 0x2000 0x1000\n\
              PASS in=a out=b {\n  COMP AXPY params=\"a.para\"\n}\n",
        );
        let (code, stdout, stderr) = mealint(&[dup.to_str().unwrap()]);
        assert_eq!(code, 2, "{stdout}{stderr}");
        assert!(
            stderr.contains("(the first is on line 1), found BUF a 0x100000 0x1000 on line 2"),
            "{stderr}"
        );
    }

    #[test]
    fn json_format_round_trips_through_the_obs_parser() {
        let bad = scratch(
            "json-bad.tdl",
            b"HOST WRITE x\nPASS in=x out=y {\n  COMP AXPY params=\"a.para\"\n}\nFLUSH\nHOST READ y\n",
        );
        let (code, stdout, _) = mealint(&["--format", "json", bad.to_str().unwrap()]);
        assert_eq!(code, 1, "{stdout}");
        let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
        assert!(!lines.is_empty(), "{stdout}");
        for line in lines {
            let v = mealib_obs::json::parse(line).expect("each line is one JSON object");
            let code = v.get("code").and_then(|c| c.as_str()).expect("code field");
            assert!(code.starts_with("MEA"), "{line}");
            let number = v
                .get("number")
                .and_then(|n| n.as_f64())
                .expect("number field");
            assert_eq!(number as u16, code[3..].parse::<u16>().unwrap(), "{line}");
            let severity = v
                .get("severity")
                .and_then(|s| s.as_str())
                .expect("severity");
            assert!(severity == "error" || severity == "warning", "{line}");
            let span = v.get("span").expect("span field");
            let kind = span
                .get("kind")
                .and_then(|k| k.as_str())
                .expect("span kind");
            match kind {
                "line" => {
                    span.get("line")
                        .and_then(|l| l.as_f64())
                        .expect("line number");
                }
                "bytes" => {
                    span.get("offset").and_then(|o| o.as_f64()).expect("offset");
                    span.get("len").and_then(|l| l.as_f64()).expect("len");
                }
                "none" => {}
                other => panic!("unknown span kind {other} in {line}"),
            }
            assert!(
                v.get("message").and_then(|m| m.as_str()).is_some(),
                "{line}"
            );
            assert!(v.get("file").and_then(|f| f.as_str()).is_some(), "{line}");
        }

        // The stale read fires at the device read site (the PASS header on
        // line 2) and must survive the round trip with its span intact.
        assert!(
            stdout.lines().any(|l| {
                mealib_obs::json::parse(l).is_ok_and(|v| {
                    v.get("code").and_then(|c| c.as_str()) == Some("MEA103")
                        && v.get("span")
                            .and_then(|s| s.get("line"))
                            .and_then(|l| l.as_f64())
                            == Some(2.0)
                })
            }),
            "{stdout}"
        );
    }

    #[test]
    fn json_format_prints_nothing_for_clean_files() {
        let good = scratch(
            "json-good.tdl",
            br#"PASS in=x out=y { COMP FFT params="f.para" }"#,
        );
        let (code, stdout, _) = mealint(&["--format", "json", good.to_str().unwrap()]);
        assert_eq!(code, 0, "{stdout}");
        assert!(stdout.trim().is_empty(), "{stdout}");
    }

    #[test]
    fn json_round_trips_for_the_whole_bad_corpus() {
        for path in super::dataflow_corpus::corpus_files("bad") {
            let (_, stdout, stderr) = mealint(&["--format", "json", path.to_str().unwrap()]);
            assert!(stderr.is_empty(), "{}: {stderr}", path.display());
            let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
            assert!(!lines.is_empty(), "{}: no diagnostics", path.display());
            for line in lines {
                let v = mealib_obs::json::parse(line)
                    .unwrap_or_else(|e| panic!("{}: bad JSON {e}: {line}", path.display()));
                for field in ["file", "code", "severity", "message"] {
                    assert!(
                        v.get(field).and_then(|f| f.as_str()).is_some(),
                        "{}: missing {field}: {line}",
                        path.display()
                    );
                }
                let kind = v
                    .get("span")
                    .and_then(|s| s.get("kind"))
                    .and_then(|k| k.as_str())
                    .expect("span kind");
                assert!(["none", "line", "bytes"].contains(&kind), "{line}");
            }
        }
    }

    #[test]
    fn codes_listing_documents_the_whole_table() {
        let (code, stdout, _) = mealint(&["--codes"]);
        assert_eq!(code, 0);
        for c in mealib_types::ErrorCode::ALL {
            assert!(stdout.contains(c.as_str()), "missing {c}");
        }
    }
}
