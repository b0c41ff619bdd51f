//! Shared static-verification diagnostics.
//!
//! Every verifier pass in the workspace (`mealib-verify`, but also the
//! eager checks inside `memsim` and `runtime`) reports findings through
//! this one vocabulary: a stable [`ErrorCode`] (`MEA0xx`), a
//! [`Severity`], a [`Span`] locating the finding in TDL source text or a
//! binary image, and a human-readable message. A [`Report`] collects
//! diagnostics across passes and renders them for humans, while tests
//! and tooling match on the codes.
//!
//! Code allocation (stable; never renumber a shipped code):
//!
//! * `MEA001`–`MEA009` — TDL semantic checks
//! * `MEA010`–`MEA019` — descriptor image checks
//! * `MEA020`–`MEA029` — memory-simulator configuration checks
//! * `MEA030`–`MEA039` — physical-memory / address-space checks
//! * `MEA100`–`MEA109` — dataflow & coherence analysis (static pass in
//!   `mealib-verify::dataflow`, mirrored dynamically by the runtime's
//!   shadow-memory `Sanitizer`)
//! * `MEA200`–`MEA219` — symbolic cost & capacity certification
//!   (`mealib-verify::bounds`): interval bounds on bytes moved, DRAM
//!   commands, peak live footprint, vault skew, and modeled energy,
//!   proven sound against the cycle engine by a differential harness
//! * `MEA300`–`MEA319` — multi-tenant interference certification
//!   (`mealib-verify::interference`): compositional per-tenant
//!   bandwidth/latency/energy bounds over a session-set manifest
//!   (`TENANT`/`PARTITION`/`ARRIVAL` directives), driving the
//!   three-valued admission verdict (ADMIT / REJECT / UNKNOWN) and
//!   proven sound against the interleaved cycle engine

use core::fmt;

/// Stable error codes for every static-verification finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ErrorCode {
    // ----- TDL semantic checks (MEA001–MEA009) -----
    /// A chained `PASS` names the same buffer as input and output; a
    /// multi-comp datapath cannot stream in place.
    TdlInPlaceChain,
    /// A `PASS` chains more comps than the tile switch fans in.
    TdlChainTooLong,
    /// A `COMP` sequence is not stream-compatible (§2.3): a reducing
    /// accelerator can only terminate a chain.
    TdlIllegalChain,
    /// A `COMP` references a parameter file that is empty or absent
    /// from the supplied parameter bag.
    TdlDanglingParams,
    /// A `LOOP` trip count is zero, or the program's dynamic invocation
    /// count overflows the descriptor's sequencing range.
    TdlLoopTripCount,
    /// Buffer def-use hazard: two passes write the same buffer with no
    /// intervening read, or a pass consumes a buffer before any pass
    /// or host write could have produced it.
    TdlBufferHazard,

    // ----- Descriptor image checks (MEA010–MEA019) -----
    /// The image is shorter than its headers claim.
    DescTruncated,
    /// The control-region magic is not `MEAL`.
    DescBadMagic,
    /// The control-region command word is not a known command.
    DescBadCommand,
    /// Control/instruction/parameter regions overlap or the instruction
    /// count is inconsistent with the parameter-region offset.
    DescRegionOverlap,
    /// The parameter region does not start on a 16-byte instruction
    /// boundary.
    DescMisalignedPr,
    /// An instruction opcode is outside the ISA.
    DescUnknownOpcode,
    /// `PASS`/`LOOP` begin/end markers are not properly nested.
    DescUnbalancedBlocks,
    /// An accelerator instruction's parameter reference falls outside
    /// the parameter region.
    DescParamOutOfRange,
    /// A parameter blob does not start on the 8-byte alignment the
    /// fetch hardware requires.
    DescParamMisaligned,
    /// A `LOOP_BEGIN` instruction carries a zero iteration count.
    DescZeroLoopCount,

    // ----- Memory-simulator configuration checks (MEA020–MEA029) -----
    /// A timing parameter is zero or non-positive.
    MemZeroParameter,
    /// A DRAM timing inequality is violated (e.g. `tRAS < tRCD + tCL`
    /// or `tREFI <= tRFC`).
    MemTimingInequality,
    /// An address-mapping structural parameter is invalid.
    MemMappingParam,
    /// An energy parameter is negative or non-finite.
    MemBadEnergy,
    /// The address-interleaving map is not bijective: two physical
    /// addresses decode to the same device location, or locations are
    /// skipped (a physical bit is consumed twice or not at all).
    MemMappingNotBijective,
    /// The asymmetric-mode split point is misplaced (unaligned to the
    /// interleave granularity, so one line straddles both regions).
    MemBadAsymmetricSplit,

    // ----- Physical-memory / address-space checks (MEA030–MEA039) -----
    /// Two live allocations overlap.
    PhysOverlap,
    /// A live allocation falls outside its stack's managed region.
    PhysOutOfRegion,
    /// An allocation base or region base violates the required
    /// alignment.
    PhysMisaligned,
    /// The descriptor/command region (or a buffer) is not reachable as
    /// a single contiguous unit under the platform address mapping.
    PhysUnreachableDescriptor,
    /// The allocator's free + live accounting does not cover its
    /// region exactly.
    PhysAccounting,
    /// The virtual address map is inconsistent (overlapping virtual
    /// ranges or a broken reverse mapping).
    PhysVmapInconsistent,

    // ----- Dataflow & coherence analysis (MEA100–MEA109) -----
    /// An accelerator reads a buffer with no reaching definition: no
    /// host write and no earlier pass ever produced it (including the
    /// first iteration of a loop-carried use).
    DfUninitRead,
    /// A buffer is written by a pass but its final value is never
    /// consumed — neither by a later pass nor by a host read.
    DfDeadBuffer,
    /// Two distinct buffers with overlapping physical extents conflict:
    /// a chained pass streams over its own output bytes, or two writers
    /// touch the same bytes.
    DfOverlap,
    /// Coherence hazard across the host cache boundary: the accelerator
    /// can observe a stale DRAM image of unflushed host writes, or the
    /// host can read stale cached lines after an accelerator write.
    DfStaleRead,
    /// A `PASS` chains more stages than the Configuration Unit can
    /// buffer between them; the chain can never drain.
    DfChainOverCapacity,
    /// A loop body's buffer dependences form a cycle with no external
    /// definition feeding it; no iteration can ever make progress.
    DfCyclicDependence,

    // ----- Symbolic cost & capacity certification (MEA200–MEA219) -----
    /// The program's peak live-buffer footprint provably exceeds the
    /// modeled stack capacity; out-of-core tiling is a precondition for
    /// running it.
    BoundsCapacityOverflow,
    /// A phase's demanded throughput (byte lower bound over its time
    /// budget) provably exceeds the roofline of the memory layer it
    /// actually uses; no schedule can meet the budget.
    BoundsBandwidthInfeasible,
    /// The address mapping provably concentrates all of a phase's
    /// traffic onto a single vault/unit although several are available;
    /// the stack degenerates to one unit's bandwidth.
    BoundsVaultSkew,
    /// The modeled energy lower bound provably exceeds the declared
    /// energy budget.
    BoundsEnergyBudget,

    // ----- Multi-tenant interference certification (MEA300–MEA319) -----
    /// Two tenants' declared vault partitions overlap, or a tenant's
    /// buffer extent escapes its declared partition window; the
    /// isolation boundary the admission verdict rests on does not hold.
    InterferePartitionOverlap,
    /// The session set's summed demand provably oversubscribes the
    /// shared bus/link: the composed completion-time lower bound of the
    /// merged trace exceeds the set-level time budget.
    InterfereBusOversubscribed,
    /// Cross-tenant interference provably inflates one tenant's
    /// completion latency past that tenant's declared time budget, even
    /// under the most favorable interleaving.
    InterfereLatencyBudget,
    /// The composed Table-5 energy lower bound of the whole session set
    /// provably exceeds the aggregate energy envelope.
    InterfereEnergyEnvelope,
}

impl ErrorCode {
    /// Every code, in numeric order (drives the rendered error table).
    pub const ALL: [ErrorCode; 42] = [
        ErrorCode::TdlInPlaceChain,
        ErrorCode::TdlChainTooLong,
        ErrorCode::TdlIllegalChain,
        ErrorCode::TdlDanglingParams,
        ErrorCode::TdlLoopTripCount,
        ErrorCode::TdlBufferHazard,
        ErrorCode::DescTruncated,
        ErrorCode::DescBadMagic,
        ErrorCode::DescBadCommand,
        ErrorCode::DescRegionOverlap,
        ErrorCode::DescMisalignedPr,
        ErrorCode::DescUnknownOpcode,
        ErrorCode::DescUnbalancedBlocks,
        ErrorCode::DescParamOutOfRange,
        ErrorCode::DescParamMisaligned,
        ErrorCode::DescZeroLoopCount,
        ErrorCode::MemZeroParameter,
        ErrorCode::MemTimingInequality,
        ErrorCode::MemMappingParam,
        ErrorCode::MemBadEnergy,
        ErrorCode::MemMappingNotBijective,
        ErrorCode::MemBadAsymmetricSplit,
        ErrorCode::PhysOverlap,
        ErrorCode::PhysOutOfRegion,
        ErrorCode::PhysMisaligned,
        ErrorCode::PhysUnreachableDescriptor,
        ErrorCode::PhysAccounting,
        ErrorCode::PhysVmapInconsistent,
        ErrorCode::DfUninitRead,
        ErrorCode::DfDeadBuffer,
        ErrorCode::DfOverlap,
        ErrorCode::DfStaleRead,
        ErrorCode::DfChainOverCapacity,
        ErrorCode::DfCyclicDependence,
        ErrorCode::BoundsCapacityOverflow,
        ErrorCode::BoundsBandwidthInfeasible,
        ErrorCode::BoundsVaultSkew,
        ErrorCode::BoundsEnergyBudget,
        ErrorCode::InterferePartitionOverlap,
        ErrorCode::InterfereBusOversubscribed,
        ErrorCode::InterfereLatencyBudget,
        ErrorCode::InterfereEnergyEnvelope,
    ];

    /// The numeric part of the stable code.
    pub fn number(self) -> u16 {
        match self {
            ErrorCode::TdlInPlaceChain => 1,
            ErrorCode::TdlChainTooLong => 2,
            ErrorCode::TdlIllegalChain => 3,
            ErrorCode::TdlDanglingParams => 4,
            ErrorCode::TdlLoopTripCount => 5,
            ErrorCode::TdlBufferHazard => 6,
            ErrorCode::DescTruncated => 10,
            ErrorCode::DescBadMagic => 11,
            ErrorCode::DescBadCommand => 12,
            ErrorCode::DescRegionOverlap => 13,
            ErrorCode::DescMisalignedPr => 14,
            ErrorCode::DescUnknownOpcode => 15,
            ErrorCode::DescUnbalancedBlocks => 16,
            ErrorCode::DescParamOutOfRange => 17,
            ErrorCode::DescParamMisaligned => 18,
            ErrorCode::DescZeroLoopCount => 19,
            ErrorCode::MemZeroParameter => 20,
            ErrorCode::MemTimingInequality => 21,
            ErrorCode::MemMappingParam => 22,
            ErrorCode::MemBadEnergy => 23,
            ErrorCode::MemMappingNotBijective => 24,
            ErrorCode::MemBadAsymmetricSplit => 25,
            ErrorCode::PhysOverlap => 30,
            ErrorCode::PhysOutOfRegion => 31,
            ErrorCode::PhysMisaligned => 32,
            ErrorCode::PhysUnreachableDescriptor => 33,
            ErrorCode::PhysAccounting => 34,
            ErrorCode::PhysVmapInconsistent => 35,
            ErrorCode::DfUninitRead => 100,
            ErrorCode::DfDeadBuffer => 101,
            ErrorCode::DfOverlap => 102,
            ErrorCode::DfStaleRead => 103,
            ErrorCode::DfChainOverCapacity => 104,
            ErrorCode::DfCyclicDependence => 105,
            ErrorCode::BoundsCapacityOverflow => 200,
            ErrorCode::BoundsBandwidthInfeasible => 201,
            ErrorCode::BoundsVaultSkew => 202,
            ErrorCode::BoundsEnergyBudget => 203,
            ErrorCode::InterferePartitionOverlap => 300,
            ErrorCode::InterfereBusOversubscribed => 301,
            ErrorCode::InterfereLatencyBudget => 302,
            ErrorCode::InterfereEnergyEnvelope => 303,
        }
    }

    /// The stable rendered code, e.g. `"MEA011"`.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::TdlInPlaceChain => "MEA001",
            ErrorCode::TdlChainTooLong => "MEA002",
            ErrorCode::TdlIllegalChain => "MEA003",
            ErrorCode::TdlDanglingParams => "MEA004",
            ErrorCode::TdlLoopTripCount => "MEA005",
            ErrorCode::TdlBufferHazard => "MEA006",
            ErrorCode::DescTruncated => "MEA010",
            ErrorCode::DescBadMagic => "MEA011",
            ErrorCode::DescBadCommand => "MEA012",
            ErrorCode::DescRegionOverlap => "MEA013",
            ErrorCode::DescMisalignedPr => "MEA014",
            ErrorCode::DescUnknownOpcode => "MEA015",
            ErrorCode::DescUnbalancedBlocks => "MEA016",
            ErrorCode::DescParamOutOfRange => "MEA017",
            ErrorCode::DescParamMisaligned => "MEA018",
            ErrorCode::DescZeroLoopCount => "MEA019",
            ErrorCode::MemZeroParameter => "MEA020",
            ErrorCode::MemTimingInequality => "MEA021",
            ErrorCode::MemMappingParam => "MEA022",
            ErrorCode::MemBadEnergy => "MEA023",
            ErrorCode::MemMappingNotBijective => "MEA024",
            ErrorCode::MemBadAsymmetricSplit => "MEA025",
            ErrorCode::PhysOverlap => "MEA030",
            ErrorCode::PhysOutOfRegion => "MEA031",
            ErrorCode::PhysMisaligned => "MEA032",
            ErrorCode::PhysUnreachableDescriptor => "MEA033",
            ErrorCode::PhysAccounting => "MEA034",
            ErrorCode::PhysVmapInconsistent => "MEA035",
            ErrorCode::DfUninitRead => "MEA100",
            ErrorCode::DfDeadBuffer => "MEA101",
            ErrorCode::DfOverlap => "MEA102",
            ErrorCode::DfStaleRead => "MEA103",
            ErrorCode::DfChainOverCapacity => "MEA104",
            ErrorCode::DfCyclicDependence => "MEA105",
            ErrorCode::BoundsCapacityOverflow => "MEA200",
            ErrorCode::BoundsBandwidthInfeasible => "MEA201",
            ErrorCode::BoundsVaultSkew => "MEA202",
            ErrorCode::BoundsEnergyBudget => "MEA203",
            ErrorCode::InterferePartitionOverlap => "MEA300",
            ErrorCode::InterfereBusOversubscribed => "MEA301",
            ErrorCode::InterfereLatencyBudget => "MEA302",
            ErrorCode::InterfereEnergyEnvelope => "MEA303",
        }
    }

    /// A one-line title for the error table.
    pub fn title(self) -> &'static str {
        match self {
            ErrorCode::TdlInPlaceChain => "chained PASS streams in place",
            ErrorCode::TdlChainTooLong => "COMP chain exceeds tile switch fan-in",
            ErrorCode::TdlIllegalChain => "COMP sequence is not stream-compatible",
            ErrorCode::TdlDanglingParams => "dangling params= reference",
            ErrorCode::TdlLoopTripCount => "LOOP trip count or footprint out of range",
            ErrorCode::TdlBufferHazard => "buffer def-use hazard",
            ErrorCode::DescTruncated => "descriptor image truncated",
            ErrorCode::DescBadMagic => "control-region magic mismatch",
            ErrorCode::DescBadCommand => "unknown control command",
            ErrorCode::DescRegionOverlap => "descriptor regions overlap or are inconsistent",
            ErrorCode::DescMisalignedPr => "parameter region misaligned",
            ErrorCode::DescUnknownOpcode => "unknown instruction opcode",
            ErrorCode::DescUnbalancedBlocks => "unbalanced PASS/LOOP markers",
            ErrorCode::DescParamOutOfRange => "parameter reference outside parameter region",
            ErrorCode::DescParamMisaligned => "parameter blob misaligned",
            ErrorCode::DescZeroLoopCount => "zero loop count",
            ErrorCode::MemZeroParameter => "timing parameter is zero",
            ErrorCode::MemTimingInequality => "DRAM timing inequality violated",
            ErrorCode::MemMappingParam => "invalid address-mapping parameter",
            ErrorCode::MemBadEnergy => "invalid energy parameter",
            ErrorCode::MemMappingNotBijective => "address interleaving is not bijective",
            ErrorCode::MemBadAsymmetricSplit => "asymmetric split point misplaced",
            ErrorCode::PhysOverlap => "live allocations overlap",
            ErrorCode::PhysOutOfRegion => "allocation outside its stack region",
            ErrorCode::PhysMisaligned => "allocation violates alignment",
            ErrorCode::PhysUnreachableDescriptor => "region unreachable by accelerator addressing",
            ErrorCode::PhysAccounting => "allocator accounting mismatch",
            ErrorCode::PhysVmapInconsistent => "virtual address map inconsistent",
            ErrorCode::DfUninitRead => "read of a buffer with no reaching definition",
            ErrorCode::DfDeadBuffer => "buffer result is never consumed",
            ErrorCode::DfOverlap => "overlapping buffer extents conflict",
            ErrorCode::DfStaleRead => "stale read across the cache coherence boundary",
            ErrorCode::DfChainOverCapacity => "chain exceeds CU stream buffering",
            ErrorCode::DfCyclicDependence => "cyclic buffer dependence can never drain",
            ErrorCode::BoundsCapacityOverflow => "peak live footprint exceeds stack capacity",
            ErrorCode::BoundsBandwidthInfeasible => "demanded throughput exceeds layer roofline",
            ErrorCode::BoundsVaultSkew => "all traffic maps to a single vault",
            ErrorCode::BoundsEnergyBudget => "modeled energy exceeds declared budget",
            ErrorCode::InterferePartitionOverlap => "tenant partitions overlap or leak",
            ErrorCode::InterfereBusOversubscribed => "session set oversubscribes the shared bus",
            ErrorCode::InterfereLatencyBudget => "interference breaks a tenant's latency budget",
            ErrorCode::InterfereEnergyEnvelope => "composed energy exceeds the aggregate envelope",
        }
    }

    /// The allocation band the code belongs to, e.g. `"MEA2xx"`.
    ///
    /// Bands group codes by pass family and are the granularity at which
    /// `mealint --deny`/`--allow` escalate or demote findings: `MEA0xx`
    /// covers the artifact checks (TDL, descriptor, memory config,
    /// physical memory), `MEA1xx` the dataflow/coherence analysis,
    /// `MEA2xx` the symbolic cost & capacity certification, and
    /// `MEA3xx` the multi-tenant interference certification.
    pub fn band(self) -> &'static str {
        match self.number() {
            0..=99 => "MEA0xx",
            100..=199 => "MEA1xx",
            200..=299 => "MEA2xx",
            _ => "MEA3xx",
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but runnable; verification still passes.
    Warning,
    /// A correctness violation; verification fails.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// Where in the verified artifact a finding lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Span {
    /// No meaningful location (e.g. a whole-config property).
    #[default]
    None,
    /// A 1-based line in TDL (or config) source text.
    Line(usize),
    /// A byte range in a binary image.
    Bytes {
        /// First byte of the finding.
        offset: usize,
        /// Length of the offending field.
        len: usize,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Span::None => Ok(()),
            Span::Line(line) => write!(f, "line {line}"),
            Span::Bytes { offset, len } => write!(f, "bytes {offset}..{}", offset + len),
        }
    }
}

/// One static-verification finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: ErrorCode,
    /// Error or warning.
    pub severity: Severity,
    /// Location in the artifact.
    pub span: Span,
    /// Human-readable explanation with the concrete offending values.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic with no span.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Error,
            span: Span::None,
            message: message.into(),
        }
    }

    /// A warning-severity diagnostic with no span.
    pub fn warning(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Warning,
            span: Span::None,
            message: message.into(),
        }
    }

    /// Attaches a location.
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = span;
        self
    }

    /// Attaches a source-line location.
    pub fn at_line(self, line: usize) -> Self {
        self.with_span(Span::Line(line))
    }

    /// Attaches a byte-range location.
    pub fn at_bytes(self, offset: usize, len: usize) -> Self {
        self.with_span(Span::Bytes { offset, len })
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.message)?;
        match self.span {
            Span::None => Ok(()),
            span => write!(f, " ({span})"),
        }
    }
}

/// The accumulated findings of one or more verifier passes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one finding.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diags.push(diag);
    }

    /// Absorbs another report's findings.
    pub fn merge(&mut self, other: Report) {
        self.diags.extend(other.diags);
    }

    /// All findings, in discovery order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Returns `true` if nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Returns `true` if any finding is an error.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Returns `true` if any finding carries `code`.
    pub fn has_code(&self, code: ErrorCode) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// The distinct codes found, in first-seen order.
    pub fn codes(&self) -> Vec<ErrorCode> {
        let mut out = Vec::new();
        for d in &self.diags {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }

    /// Number of error-severity findings.
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warning_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// Converts the report into a `Result`: `Ok(())` when error-free
    /// (warnings allowed), `Err(self)` otherwise.
    ///
    /// # Errors
    ///
    /// Returns the report itself when it contains at least one error.
    pub fn into_result(self) -> Result<(), Report> {
        if self.has_errors() {
            Err(self)
        } else {
            Ok(())
        }
    }

    /// Renders every finding plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        ));
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// `Report` doubles as the error type for verification APIs.
impl std::error::Error for Report {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_stable_and_ordered() {
        let mut seen = std::collections::BTreeSet::new();
        let mut last = 0u16;
        for code in ErrorCode::ALL {
            assert!(seen.insert(code.number()), "duplicate code {code}");
            assert!(code.number() > last || last == 0, "{code} out of order");
            last = code.number();
            assert_eq!(code.as_str(), format!("MEA{:03}", code.number()));
            assert!(!code.title().is_empty());
        }
    }

    #[test]
    fn bands_partition_the_code_space() {
        for code in ErrorCode::ALL {
            let expect = match code.number() {
                n if n < 100 => "MEA0xx",
                n if n < 200 => "MEA1xx",
                n if n < 300 => "MEA2xx",
                _ => "MEA3xx",
            };
            assert_eq!(code.band(), expect, "{code}");
        }
        assert_eq!(ErrorCode::BoundsCapacityOverflow.band(), "MEA2xx");
        assert_eq!(ErrorCode::DfUninitRead.band(), "MEA1xx");
        assert_eq!(ErrorCode::TdlInPlaceChain.band(), "MEA0xx");
        assert_eq!(ErrorCode::InterferePartitionOverlap.band(), "MEA3xx");
    }

    #[test]
    fn report_counts_and_result_conversion() {
        let mut r = Report::new();
        assert!(r.is_clean());
        assert!(r.clone().into_result().is_ok());
        r.push(Diagnostic::warning(ErrorCode::TdlBufferHazard, "w"));
        assert!(!r.is_clean());
        assert!(!r.has_errors());
        assert!(r.clone().into_result().is_ok(), "warnings alone pass");
        r.push(Diagnostic::error(ErrorCode::DescBadMagic, "bad").at_bytes(0, 4));
        assert!(r.has_errors());
        assert!(r.has_code(ErrorCode::DescBadMagic));
        assert!(!r.has_code(ErrorCode::DescTruncated));
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert!(r.into_result().is_err());
    }

    #[test]
    fn rendering_includes_code_severity_and_span() {
        let d = Diagnostic::error(ErrorCode::DescBadMagic, "magic is 0xDEAD").at_bytes(0, 4);
        assert_eq!(d.to_string(), "error[MEA011] magic is 0xDEAD (bytes 0..4)");
        let d = Diagnostic::warning(ErrorCode::TdlBufferHazard, "buffer `x` rewritten").at_line(7);
        assert_eq!(
            d.to_string(),
            "warning[MEA006] buffer `x` rewritten (line 7)"
        );
        let mut r = Report::new();
        r.push(d);
        let text = r.render();
        assert!(text.contains("MEA006"));
        assert!(text.ends_with("0 error(s), 1 warning(s)"));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = Report::new();
        a.push(Diagnostic::error(ErrorCode::MemZeroParameter, "t_rcd is 0"));
        let mut b = Report::new();
        b.push(Diagnostic::warning(ErrorCode::MemBadEnergy, "negative"));
        a.merge(b);
        assert_eq!(a.diagnostics().len(), 2);
    }
}
