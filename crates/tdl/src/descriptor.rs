//! The binary accelerator descriptor (§2.3).
//!
//! The descriptor is a physically contiguous memory image with three
//! regions:
//!
//! * **Control Region (CR)** — magic, control command (`START`), and the
//!   instruction count;
//! * **Instruction Region (IR)** — fixed 16-byte instructions: either an
//!   accelerator invocation (opcode + parameter size + parameter address)
//!   or a control instruction (`PASS_BEGIN`/`PASS_END`,
//!   `LOOP_BEGIN`/`LOOP_END`);
//! * **Parameter Region (PR)** — the concatenated parameter files
//!   referenced by accelerator instructions.
//!
//! The runtime resolves TDL buffer names to physical addresses before
//! encoding, so the binary image carries addresses (what the hardware
//! DMA needs), while the TDL text carries names (what the compiler
//! emits).
//!
//! One walker reads the image back. [`check`] returns its full report
//! (`MEA010`–`MEA019`: control-region decode, region tiling and
//! alignment, opcode and nesting legality, parameter-region bounds),
//! which `mealint` and the runtime's plan verification print.
//! [`Descriptor::decode_bytes`], the Configuration Unit's decoder,
//! returns the walker's instructions and refuses exactly the images that
//! report has an error on.

use std::collections::BTreeMap;
use std::fmt;

use mealib_types::{Diagnostic, ErrorCode, Report};

use crate::ast::{AcceleratorKind, TdlItem, TdlProgram};

/// Named parameter blobs referenced by `COMP params="…"` clauses.
pub type ParamBag = BTreeMap<String, Vec<u8>>;

/// Control-region magic, `"MEAL"` little-endian.
pub const MAGIC: u32 = 0x4D45_414C;
/// The only control command: start execution.
pub const CMD_START: u32 = 1;
/// Size of the control region in bytes.
pub const CR_BYTES: usize = 16;
/// Size of one IR instruction in bytes.
pub const INSTR_BYTES: usize = 16;
/// Required alignment of parameter blobs within the PR.
pub const PARAM_ALIGN: usize = 8;

/// Control opcode: begin a pass.
pub const OP_PASS_BEGIN: u8 = 0x10;
/// Control opcode: end the current pass.
pub const OP_PASS_END: u8 = 0x11;
/// Control opcode: begin a loop.
pub const OP_LOOP_BEGIN: u8 = 0x12;
/// Control opcode: end the innermost loop.
pub const OP_LOOP_END: u8 = 0x13;

/// Errors produced while encoding or decoding a descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DescriptorError {
    /// A `COMP` referenced a parameter file absent from the bag.
    MissingParamFile {
        /// The missing file name.
        name: String,
    },
    /// A TDL buffer name had no physical address in the resolver map.
    UnresolvedBuffer {
        /// The unresolved buffer name.
        name: String,
    },
    /// The image fails [`check`]: the report holds every `MEA010`–`MEA019`
    /// finding, each anchored to its byte span.
    Malformed(Report),
}

impl fmt::Display for DescriptorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DescriptorError::MissingParamFile { name } => {
                write!(f, "parameter file `{name}` not provided")
            }
            DescriptorError::UnresolvedBuffer { name } => {
                write!(f, "buffer `{name}` has no physical address")
            }
            DescriptorError::Malformed(report) => {
                write!(f, "malformed descriptor image:\n{report}")
            }
        }
    }
}

impl std::error::Error for DescriptorError {}

/// A decoded IR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodedInstr {
    /// Begin a pass reading from the given physical input address;
    /// `comps` accelerator instructions follow.
    PassBegin {
        /// Number of chained accelerator invocations in the pass.
        comps: u32,
        /// Physical address of the pass input buffer.
        input_addr: u64,
    },
    /// End the current pass, storing to the given physical address.
    PassEnd {
        /// Physical address of the pass output buffer.
        output_addr: u64,
    },
    /// Begin a loop of `count` iterations.
    LoopBegin {
        /// Iteration count.
        count: u64,
    },
    /// End the innermost loop.
    LoopEnd,
    /// Invoke one accelerator with parameters at `param_addr` (offset
    /// into the PR) of `param_size` bytes.
    Accel {
        /// Which accelerator.
        kind: AcceleratorKind,
        /// Parameter blob length.
        param_size: u32,
        /// Parameter blob offset within the PR.
        param_addr: u64,
    },
}

/// An encoded accelerator descriptor: the byte image the host writes to
/// the command space, plus decode helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Descriptor {
    bytes: Vec<u8>,
}

impl Descriptor {
    /// Encodes `program` with parameter blobs from `params` and buffer
    /// addresses from `buffers`.
    ///
    /// # Errors
    ///
    /// Returns [`DescriptorError::MissingParamFile`] or
    /// [`DescriptorError::UnresolvedBuffer`] when a reference cannot be
    /// satisfied.
    pub fn encode(
        program: &TdlProgram,
        params: &ParamBag,
        buffers: &BTreeMap<String, u64>,
    ) -> Result<Self, DescriptorError> {
        // Lay out the PR first so accelerator instructions can point at it.
        let mut pr: Vec<u8> = Vec::new();
        let mut offsets: BTreeMap<&str, (u64, u32)> = BTreeMap::new();
        for name in program.param_files() {
            let blob = params
                .get(name)
                .ok_or_else(|| DescriptorError::MissingParamFile {
                    name: name.to_string(),
                })?;
            let off = pr.len() as u64;
            pr.extend_from_slice(blob);
            while !pr.len().is_multiple_of(8) {
                pr.push(0);
            }
            offsets.insert(name, (off, blob.len() as u32));
        }

        let resolve = |name: &str| -> Result<u64, DescriptorError> {
            buffers
                .get(name)
                .copied()
                .ok_or_else(|| DescriptorError::UnresolvedBuffer {
                    name: name.to_string(),
                })
        };

        let mut ir: Vec<u8> = Vec::new();
        let mut emit = |opcode: u8, a: u32, b: u64| {
            ir.push(opcode);
            ir.extend_from_slice(&[0u8; 3]);
            ir.extend_from_slice(&a.to_le_bytes());
            ir.extend_from_slice(&b.to_le_bytes());
        };

        let encode_pass = |pass: &crate::ast::PassBlock,
                           emit: &mut dyn FnMut(u8, u32, u64)|
         -> Result<(), DescriptorError> {
            emit(
                OP_PASS_BEGIN,
                pass.comps.len() as u32,
                resolve(&pass.input)?,
            );
            for comp in &pass.comps {
                let (off, size) = offsets[comp.params.as_str()];
                emit(comp.accel.opcode(), size, off);
            }
            emit(OP_PASS_END, 0, resolve(&pass.output)?);
            Ok(())
        };

        for item in &program.items {
            match item {
                TdlItem::Pass(p) => encode_pass(p, &mut emit)?,
                TdlItem::Loop(l) => {
                    emit(OP_LOOP_BEGIN, 0, l.count);
                    for p in &l.body {
                        encode_pass(p, &mut emit)?;
                    }
                    emit(OP_LOOP_END, 0, 0);
                }
            }
        }

        let instr_count = (ir.len() / INSTR_BYTES) as u32;
        let mut bytes = Vec::with_capacity(CR_BYTES + ir.len() + pr.len());
        bytes.extend_from_slice(&MAGIC.to_le_bytes());
        bytes.extend_from_slice(&CMD_START.to_le_bytes());
        bytes.extend_from_slice(&instr_count.to_le_bytes());
        bytes.extend_from_slice(&((CR_BYTES + ir.len()) as u32).to_le_bytes()); // PR offset
        bytes.extend_from_slice(&ir);
        bytes.extend_from_slice(&pr);
        Ok(Self { bytes })
    }

    /// The raw byte image (what gets copied into the command space).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Total size of the descriptor image.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Number of IR instructions.
    pub fn instr_count(&self) -> u32 {
        le32(&self.bytes, 8)
    }

    /// Decodes the instruction region, validating the whole image.
    ///
    /// # Errors
    ///
    /// Returns [`DescriptorError::Malformed`] if [`check`] finds an error.
    pub fn decode(&self) -> Result<Vec<DecodedInstr>, DescriptorError> {
        Self::decode_bytes(&self.bytes)
    }

    /// Decodes a raw descriptor image (e.g. read back from the command
    /// space by the Configuration Unit's fetch unit). It refuses exactly
    /// the images [`check`] reports an error on, so every `Accel`
    /// parameter reference of a decoded image lies inside the PR.
    ///
    /// # Errors
    ///
    /// Returns [`DescriptorError::Malformed`] with [`check`]'s report if
    /// the image is malformed.
    pub fn decode_bytes(bytes: &[u8]) -> Result<Vec<DecodedInstr>, DescriptorError> {
        let (instrs, report) = walk(bytes);
        if report.has_errors() {
            Err(DescriptorError::Malformed(report))
        } else {
            Ok(instrs)
        }
    }

    /// Reads a parameter blob back out of the PR.
    ///
    /// # Panics
    ///
    /// Panics if the `(addr, size)` pair points outside the PR.
    pub fn param_blob(&self, param_addr: u64, param_size: u32) -> &[u8] {
        let pr_offset = le32(&self.bytes, 12) as usize;
        let start = usize::try_from(param_addr)
            .ok()
            .and_then(|addr| pr_offset.checked_add(addr));
        let end = start.and_then(|start| start.checked_add(param_size as usize));
        match (start, end) {
            (Some(start), Some(end)) if end <= self.bytes.len() => &self.bytes[start..end],
            _ => panic!("parameter reference outside PR"),
        }
    }
}

/// Checks a raw descriptor image as the Configuration Unit would see it
/// in the command space (`MEA010`–`MEA019`). [`Descriptor::decode_bytes`]
/// fails exactly when this report has an error.
pub fn check(bytes: &[u8]) -> Report {
    walk(bytes).1
}

fn le32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("caller checked bounds"))
}

fn le64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("caller checked bounds"))
}

/// The one reader of the image: walks the whole Control/Instruction/
/// Parameter layout, keeps going after each finding, and anchors every
/// diagnostic to a byte span so a corrupted image can be repaired in one
/// round trip. The instructions are meaningful only when the report has
/// no error.
fn walk(bytes: &[u8]) -> (Vec<DecodedInstr>, Report) {
    let mut report = Report::new();
    let mut instrs = Vec::new();

    if bytes.len() < CR_BYTES {
        report.push(
            Diagnostic::error(
                ErrorCode::DescTruncated,
                format!(
                    "image is {} bytes, shorter than the {CR_BYTES}-byte control region",
                    bytes.len()
                ),
            )
            .at_bytes(0, bytes.len()),
        );
        return (instrs, report);
    }

    let magic = le32(bytes, 0);
    if magic != MAGIC {
        report.push(
            Diagnostic::error(
                ErrorCode::DescBadMagic,
                format!("control-region magic is {magic:#010x}, expected {MAGIC:#010x} (\"MEAL\")"),
            )
            .at_bytes(0, 4),
        );
    }
    let cmd = le32(bytes, 4);
    if cmd != CMD_START {
        report.push(
            Diagnostic::error(
                ErrorCode::DescBadCommand,
                format!(
                    "control command is {cmd}, the only defined command is START ({CMD_START})"
                ),
            )
            .at_bytes(4, 4),
        );
    }

    let instr_count = le32(bytes, 8) as usize;
    let pr_offset = le32(bytes, 12) as usize;
    let ir_end = CR_BYTES + instr_count * INSTR_BYTES;

    if bytes.len() < ir_end {
        report.push(
            Diagnostic::error(
                ErrorCode::DescTruncated,
                format!(
                    "control region claims {instr_count} instructions ({ir_end} bytes) \
                     but the image is only {} bytes",
                    bytes.len()
                ),
            )
            .at_bytes(8, 4),
        );
        // Nothing past the CR can be trusted.
        return (instrs, report);
    }
    if bytes.len() < pr_offset {
        report.push(
            Diagnostic::error(
                ErrorCode::DescTruncated,
                format!(
                    "parameter region starts at byte {pr_offset} but the image ends at {}",
                    bytes.len()
                ),
            )
            .at_bytes(12, 4),
        );
        return (instrs, report);
    }

    // The three regions must tile the image: PR begins exactly where the
    // IR ends, otherwise instructions and parameters overlap (the fetch
    // unit would execute parameter bytes) or leave an unaddressable gap.
    let pr_trustworthy = pr_offset == ir_end;
    if !pr_trustworthy {
        report.push(
            Diagnostic::error(
                ErrorCode::DescRegionOverlap,
                format!(
                    "parameter region offset {pr_offset} does not match the end of the \
                     instruction region ({ir_end}); regions {}",
                    if pr_offset < ir_end {
                        "overlap"
                    } else {
                        "leave a gap"
                    }
                ),
            )
            .at_bytes(12, 4),
        );
    }
    if !pr_offset.is_multiple_of(INSTR_BYTES) {
        report.push(
            Diagnostic::error(
                ErrorCode::DescMisalignedPr,
                format!("parameter region offset {pr_offset} is not {INSTR_BYTES}-byte aligned"),
            )
            .at_bytes(12, 4),
        );
    }

    let pr_size = bytes.len() - pr_offset.min(bytes.len());
    let mut pass_depth = 0i32;
    let mut loop_depth = 0i32;
    instrs.reserve(instr_count);
    for i in 0..instr_count {
        let base = CR_BYTES + i * INSTR_BYTES;
        let opcode = bytes[base];
        let a = le32(bytes, base + 4);
        let b = le64(bytes, base + 8);
        let at = |d: Diagnostic| d.at_bytes(base, INSTR_BYTES);
        match opcode {
            OP_PASS_BEGIN => {
                pass_depth += 1;
                if pass_depth > 1 {
                    report.push(at(Diagnostic::error(
                        ErrorCode::DescUnbalancedBlocks,
                        format!("instruction {i}: PASS_BEGIN inside an open pass"),
                    )));
                    pass_depth = 1;
                }
                instrs.push(DecodedInstr::PassBegin {
                    comps: a,
                    input_addr: b,
                });
            }
            OP_PASS_END => {
                pass_depth -= 1;
                if pass_depth < 0 {
                    report.push(at(Diagnostic::error(
                        ErrorCode::DescUnbalancedBlocks,
                        format!("instruction {i}: PASS_END without a matching PASS_BEGIN"),
                    )));
                    pass_depth = 0;
                }
                instrs.push(DecodedInstr::PassEnd { output_addr: b });
            }
            OP_LOOP_BEGIN => {
                loop_depth += 1;
                if loop_depth > 1 || pass_depth != 0 {
                    report.push(at(Diagnostic::error(
                        ErrorCode::DescUnbalancedBlocks,
                        format!(
                            "instruction {i}: LOOP_BEGIN {}",
                            if pass_depth != 0 {
                                "inside a pass"
                            } else {
                                "inside another loop"
                            }
                        ),
                    )));
                    loop_depth = loop_depth.min(1);
                }
                if b == 0 {
                    report.push(at(Diagnostic::error(
                        ErrorCode::DescZeroLoopCount,
                        format!("instruction {i}: LOOP_BEGIN with a zero iteration count"),
                    )));
                }
                instrs.push(DecodedInstr::LoopBegin { count: b });
            }
            OP_LOOP_END => {
                loop_depth -= 1;
                if loop_depth < 0 || pass_depth != 0 {
                    report.push(at(Diagnostic::error(
                        ErrorCode::DescUnbalancedBlocks,
                        format!(
                            "instruction {i}: LOOP_END {}",
                            if pass_depth != 0 {
                                "inside a pass"
                            } else {
                                "without a matching LOOP_BEGIN"
                            }
                        ),
                    )));
                    loop_depth = loop_depth.max(0);
                }
                instrs.push(DecodedInstr::LoopEnd);
            }
            op => match AcceleratorKind::from_opcode(op) {
                None => {
                    report.push(at(Diagnostic::error(
                        ErrorCode::DescUnknownOpcode,
                        format!("instruction {i}: opcode {op:#04x} is outside the ISA"),
                    )));
                }
                Some(kind) => {
                    if pass_depth != 1 {
                        report.push(at(Diagnostic::error(
                            ErrorCode::DescUnbalancedBlocks,
                            format!("instruction {i}: {kind} invocation outside any pass"),
                        )));
                    }
                    // Param references only make sense against a PR whose
                    // placement decoded consistently.
                    if pr_trustworthy {
                        let end = b.saturating_add(a as u64);
                        if end > pr_size as u64 {
                            report.push(at(Diagnostic::error(
                                ErrorCode::DescParamOutOfRange,
                                format!(
                                    "instruction {i}: {kind} parameters at PR offset {b} \
                                     span {a} bytes, beyond the {pr_size}-byte region"
                                ),
                            )));
                        }
                        if !b.is_multiple_of(PARAM_ALIGN as u64) {
                            report.push(at(Diagnostic::error(
                                ErrorCode::DescParamMisaligned,
                                format!(
                                    "instruction {i}: {kind} parameter offset {b} is not \
                                     {PARAM_ALIGN}-byte aligned"
                                ),
                            )));
                        }
                    }
                    instrs.push(DecodedInstr::Accel {
                        kind,
                        param_size: a,
                        param_addr: b,
                    });
                }
            },
        }
    }
    if pass_depth != 0 || loop_depth != 0 {
        report.push(
            Diagnostic::error(
                ErrorCode::DescUnbalancedBlocks,
                format!(
                    "image ends with {pass_depth} unclosed pass(es) and \
                     {loop_depth} unclosed loop(s)"
                ),
            )
            .at_bytes(CR_BYTES, instr_count * INSTR_BYTES),
        );
    }

    (instrs, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn fixtures() -> (TdlProgram, ParamBag, BTreeMap<String, u64>) {
        let program = parse(
            r#"
            PASS in=datacube out=doppler {
                COMP RESHP params="reshape.para"
                COMP FFT params="fft.para"
            }
            LOOP 128 {
                PASS in=weights out=prods {
                    COMP DOT params="dot.para"
                }
            }
            "#,
        )
        .unwrap();
        let mut params = ParamBag::new();
        params.insert("reshape.para".into(), vec![1, 2, 3, 4, 5]);
        params.insert("fft.para".into(), vec![9; 16]);
        params.insert("dot.para".into(), vec![7; 12]);
        let buffers: BTreeMap<String, u64> = [
            ("datacube".to_string(), 0x1000u64),
            ("doppler".to_string(), 0x2000),
            ("weights".to_string(), 0x3000),
            ("prods".to_string(), 0x4000),
        ]
        .into_iter()
        .collect();
        (program, params, buffers)
    }

    #[test]
    fn encode_decode_round_trip() {
        let (program, params, buffers) = fixtures();
        let d = Descriptor::encode(&program, &params, &buffers).unwrap();
        let instrs = d.decode().unwrap();
        assert_eq!(
            instrs,
            vec![
                DecodedInstr::PassBegin {
                    comps: 2,
                    input_addr: 0x1000
                },
                DecodedInstr::Accel {
                    kind: AcceleratorKind::Reshp,
                    param_size: 5,
                    param_addr: 0
                },
                DecodedInstr::Accel {
                    kind: AcceleratorKind::Fft,
                    param_size: 16,
                    param_addr: 8
                },
                DecodedInstr::PassEnd {
                    output_addr: 0x2000
                },
                DecodedInstr::LoopBegin { count: 128 },
                DecodedInstr::PassBegin {
                    comps: 1,
                    input_addr: 0x3000
                },
                DecodedInstr::Accel {
                    kind: AcceleratorKind::Dot,
                    param_size: 12,
                    param_addr: 24
                },
                DecodedInstr::PassEnd {
                    output_addr: 0x4000
                },
                DecodedInstr::LoopEnd,
            ]
        );
    }

    #[test]
    fn param_blobs_survive_encoding() {
        let (program, params, buffers) = fixtures();
        let d = Descriptor::encode(&program, &params, &buffers).unwrap();
        assert_eq!(d.param_blob(0, 5), &[1, 2, 3, 4, 5]);
        assert_eq!(d.param_blob(8, 16), &[9; 16]);
        assert_eq!(d.param_blob(24, 12), &[7; 12]);
    }

    #[test]
    #[should_panic(expected = "parameter reference outside PR")]
    fn param_blob_address_past_usize_panics() {
        let (program, params, buffers) = fixtures();
        let d = Descriptor::encode(&program, &params, &buffers).unwrap();
        let pr_offset = u64::from(u32::from_le_bytes(d.as_bytes()[12..16].try_into().unwrap()));
        // `pr_offset + addr` is exactly 2^64: wrapping would read the CR.
        let _ = d.param_blob(u64::MAX - pr_offset + 1, 4);
    }

    #[test]
    fn invocation_count_multiplies_loops() {
        let (program, params, buffers) = fixtures();
        let d = Descriptor::encode(&program, &params, &buffers).unwrap();
        assert_eq!(program.total_invocations(), Some(2 + 128));
        assert_eq!(d.instr_count(), 9);
    }

    #[test]
    fn missing_param_file_is_an_error() {
        let (program, mut params, buffers) = fixtures();
        params.remove("fft.para");
        let err = Descriptor::encode(&program, &params, &buffers).unwrap_err();
        assert_eq!(
            err,
            DescriptorError::MissingParamFile {
                name: "fft.para".into()
            }
        );
    }

    #[test]
    fn missing_buffer_is_an_error() {
        let (program, params, mut buffers) = fixtures();
        buffers.remove("prods");
        let err = Descriptor::encode(&program, &params, &buffers).unwrap_err();
        assert_eq!(
            err,
            DescriptorError::UnresolvedBuffer {
                name: "prods".into()
            }
        );
    }

    /// The encoded fixture image: 9 instructions, then a 40-byte PR.
    fn good_image() -> Vec<u8> {
        let (program, params, buffers) = fixtures();
        Descriptor::encode(&program, &params, &buffers)
            .unwrap()
            .as_bytes()
            .to_vec()
    }

    /// Asserts the decoder refuses `bytes` with exactly [`check`]'s
    /// report, and returns that report.
    fn malformed(bytes: &[u8]) -> Report {
        let report = check(bytes);
        assert_eq!(
            Descriptor::decode_bytes(bytes),
            Err(DescriptorError::Malformed(report.clone()))
        );
        report
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut bytes = good_image();
        bytes[0] ^= 0xff;
        assert!(malformed(&bytes).has_code(ErrorCode::DescBadMagic));
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = &good_image()[..CR_BYTES + 3];
        assert!(malformed(bytes).has_code(ErrorCode::DescTruncated));
        assert!(malformed(&[1, 2]).has_code(ErrorCode::DescTruncated));
    }

    #[test]
    fn decode_rejects_unknown_opcode() {
        let mut bytes = good_image();
        bytes[CR_BYTES] = 0x7f; // clobber first instruction's opcode
        assert!(malformed(&bytes).has_code(ErrorCode::DescUnknownOpcode));
    }

    #[test]
    fn decode_rejects_unbalanced_blocks() {
        let mut bytes = good_image();
        // Turn the final LOOP_END into a PASS_END: now blocks are unbalanced.
        let last = CR_BYTES + 8 * INSTR_BYTES;
        bytes[last] = OP_PASS_END;
        assert!(malformed(&bytes).has_code(ErrorCode::DescUnbalancedBlocks));
    }

    #[test]
    fn empty_program_encodes_to_bare_control_region() {
        let d =
            Descriptor::encode(&TdlProgram::default(), &ParamBag::new(), &BTreeMap::new()).unwrap();
        assert_eq!(d.size_bytes(), CR_BYTES);
        assert_eq!(d.decode().unwrap(), vec![]);
        assert!(check(d.as_bytes()).is_clean());
    }

    #[test]
    fn pristine_image_is_clean() {
        let r = check(&good_image());
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn short_image_reports_truncation_only() {
        let r = malformed(&[0x4C, 0x41]);
        assert!(r.has_code(ErrorCode::DescTruncated));
        assert_eq!(r.error_count(), 1);
    }

    #[test]
    fn bad_magic_does_not_stop_the_walk() {
        let mut img = good_image();
        img[0] ^= 0xff;
        let r = malformed(&img);
        assert!(r.has_code(ErrorCode::DescBadMagic));
        // The rest of the image is still intact — no other findings.
        assert_eq!(r.error_count(), 1, "{r}");
        assert!(r.render().contains("bytes 0..4"), "{r}");
    }

    #[test]
    fn bad_command_flagged() {
        let mut img = good_image();
        img[4] = 9;
        assert!(malformed(&img).has_code(ErrorCode::DescBadCommand));
    }

    #[test]
    fn inflated_count_is_truncation() {
        let mut img = good_image();
        img[8..12].copy_from_slice(&1000u32.to_le_bytes());
        assert!(malformed(&img).has_code(ErrorCode::DescTruncated));
    }

    #[test]
    fn shifted_pr_offset_is_region_overlap() {
        let mut img = good_image();
        let pr = u32::from_le_bytes(img[12..16].try_into().unwrap());
        img[12..16].copy_from_slice(&(pr - 16).to_le_bytes());
        let r = malformed(&img);
        assert!(r.has_code(ErrorCode::DescRegionOverlap), "{r}");
    }

    #[test]
    fn misaligned_pr_offset_flagged() {
        let mut img = good_image();
        let pr = u32::from_le_bytes(img[12..16].try_into().unwrap());
        img[12..16].copy_from_slice(&(pr + 4).to_le_bytes());
        img.extend_from_slice(&[0; 4]); // keep the image long enough
        let r = malformed(&img);
        assert!(r.has_code(ErrorCode::DescMisalignedPr));
        assert!(r.has_code(ErrorCode::DescRegionOverlap));
    }

    #[test]
    fn unknown_opcode_and_walk_continues() {
        let mut img = good_image();
        img[CR_BYTES] = 0x7f; // clobber PASS_BEGIN
        let r = malformed(&img);
        assert!(r.has_code(ErrorCode::DescUnknownOpcode));
        // Losing PASS_BEGIN also orphans the accels and the PASS_END.
        assert!(r.has_code(ErrorCode::DescUnbalancedBlocks));
    }

    #[test]
    fn param_bounds_and_alignment_checked() {
        let mut img = good_image();
        // First accel instruction is index 1; its param_addr is at +8.
        let base = CR_BYTES + INSTR_BYTES;
        img[base + 8..base + 16].copy_from_slice(&0xffff_u64.to_le_bytes());
        let r = malformed(&img);
        assert!(r.has_code(ErrorCode::DescParamOutOfRange), "{r}");

        let mut img2 = good_image();
        img2[base + 8..base + 16].copy_from_slice(&3u64.to_le_bytes());
        let r2 = malformed(&img2);
        assert!(r2.has_code(ErrorCode::DescParamMisaligned), "{r2}");
    }

    #[test]
    fn unclosed_pass_at_end_flagged() {
        let mut img = good_image();
        // Drop the trailing LOOP_END by shrinking the count and the image.
        let count = u32::from_le_bytes(img[8..12].try_into().unwrap());
        img[8..12].copy_from_slice(&(count - 1).to_le_bytes());
        let ir_end = CR_BYTES + (count as usize - 1) * INSTR_BYTES;
        img.truncate(ir_end); // also drops the PR
        img[12..16].copy_from_slice(&(ir_end as u32).to_le_bytes());
        let r = malformed(&img);
        assert!(r.has_code(ErrorCode::DescUnbalancedBlocks), "{r}");
    }
}
