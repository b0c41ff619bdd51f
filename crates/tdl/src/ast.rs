//! TDL abstract syntax.

use core::fmt;

/// The accelerators of Table 1, used as TDL `COMP` opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AcceleratorKind {
    /// Vector scaling and add (`cblas_saxpy`).
    Axpy,
    /// Dot product (`cblas_sdot`, `cblas_cdotc_sub`).
    Dot,
    /// General matrix-vector multiply (`cblas_sgemv`).
    Gemv,
    /// Sparse matrix-vector multiply (`mkl_scsrgemv`).
    Spmv,
    /// Data resampling (`dfsInterpolate1D`).
    Resmp,
    /// Fast Fourier transform (`fftwf_execute`).
    Fft,
    /// Matrix transpose / data reshape (`mkl_simatcopy`); lives on the
    /// DRAM logic layer's reshape infrastructure.
    Reshp,
}

impl AcceleratorKind {
    /// All accelerator kinds, in opcode order.
    pub const ALL: [AcceleratorKind; 7] = [
        AcceleratorKind::Axpy,
        AcceleratorKind::Dot,
        AcceleratorKind::Gemv,
        AcceleratorKind::Spmv,
        AcceleratorKind::Resmp,
        AcceleratorKind::Fft,
        AcceleratorKind::Reshp,
    ];

    /// The descriptor opcode for this accelerator.
    pub fn opcode(self) -> u8 {
        match self {
            AcceleratorKind::Axpy => 0x01,
            AcceleratorKind::Dot => 0x02,
            AcceleratorKind::Gemv => 0x03,
            AcceleratorKind::Spmv => 0x04,
            AcceleratorKind::Resmp => 0x05,
            AcceleratorKind::Fft => 0x06,
            AcceleratorKind::Reshp => 0x07,
        }
    }

    /// Inverse of [`AcceleratorKind::opcode`].
    pub fn from_opcode(op: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.opcode() == op)
    }

    /// The TDL keyword for this accelerator.
    pub fn keyword(self) -> &'static str {
        match self {
            AcceleratorKind::Axpy => "AXPY",
            AcceleratorKind::Dot => "DOT",
            AcceleratorKind::Gemv => "GEMV",
            AcceleratorKind::Spmv => "SPMV",
            AcceleratorKind::Resmp => "RESMP",
            AcceleratorKind::Fft => "FFT",
            AcceleratorKind::Reshp => "RESHP",
        }
    }

    /// Parses a TDL keyword (case-sensitive, as emitted by the compiler).
    pub fn from_keyword(kw: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.keyword() == kw)
    }
}

impl fmt::Display for AcceleratorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A `COMP` block: one accelerator invocation and the parameter file
/// holding its API arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompBlock {
    /// Which accelerator to invoke.
    pub accel: AcceleratorKind,
    /// Name of the parameter file in the descriptor's parameter region.
    pub params: String,
}

impl CompBlock {
    /// Creates a `COMP` block.
    pub fn new(accel: AcceleratorKind, params: impl Into<String>) -> Self {
        Self {
            accel,
            params: params.into(),
        }
    }
}

impl fmt::Display for CompBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "COMP {} params=\"{}\"", self.accel, self.params)
    }
}

/// A `PASS` block: a chain of comps forming one hardware datapath, with
/// its own input and output buffers. Data flows from the first comp
/// (which fetches from main memory) through the chain to the last comp
/// (which stores back), §2.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassBlock {
    /// Name of the input buffer.
    pub input: String,
    /// Name of the output buffer.
    pub output: String,
    /// The chained accelerator invocations.
    pub comps: Vec<CompBlock>,
}

impl PassBlock {
    /// Creates a `PASS` block.
    ///
    /// # Panics
    ///
    /// Panics if `comps` is empty — a pass must describe at least one
    /// invocation.
    pub fn new(input: impl Into<String>, output: impl Into<String>, comps: Vec<CompBlock>) -> Self {
        assert!(!comps.is_empty(), "a PASS must contain at least one COMP");
        Self {
            input: input.into(),
            output: output.into(),
            comps,
        }
    }

    /// Number of accelerator invocations in this pass.
    pub fn invocations(&self) -> u64 {
        self.comps.len() as u64
    }

    /// Returns `true` if the pass chains more than one accelerator.
    pub fn is_chained(&self) -> bool {
        self.comps.len() > 1
    }
}

impl fmt::Display for PassBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "PASS in={} out={} {{", self.input, self.output)?;
        for c in &self.comps {
            writeln!(f, "    {c}")?;
        }
        write!(f, "}}")
    }
}

/// A `LOOP` block: its passes execute `count` times.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoopBlock {
    /// Iteration count.
    pub count: u64,
    /// Passes repeated each iteration.
    pub body: Vec<PassBlock>,
}

impl LoopBlock {
    /// Creates a `LOOP` block.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero or the body is empty.
    pub fn new(count: u64, body: Vec<PassBlock>) -> Self {
        assert!(count > 0, "a LOOP must iterate at least once");
        assert!(!body.is_empty(), "a LOOP must contain at least one PASS");
        Self { count, body }
    }
}

impl fmt::Display for LoopBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "LOOP {} {{", self.count)?;
        for p in &self.body {
            for line in p.to_string().lines() {
                writeln!(f, "    {line}")?;
            }
        }
        write!(f, "}}")
    }
}

/// A top-level TDL item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TdlItem {
    /// A pass executed once.
    Pass(PassBlock),
    /// A loop of passes.
    Loop(LoopBlock),
}

impl fmt::Display for TdlItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TdlItem::Pass(p) => p.fmt(f),
            TdlItem::Loop(l) => l.fmt(f),
        }
    }
}

/// A complete TDL program — the payload of one accelerator descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TdlProgram {
    /// Top-level items, executed in order.
    pub items: Vec<TdlItem>,
}

impl TdlProgram {
    /// Creates a program from items.
    pub fn new(items: Vec<TdlItem>) -> Self {
        Self { items }
    }

    /// Total accelerator invocations, counting loop multipliers — this is
    /// the number of library calls the descriptor compacts (the paper's
    /// "16 M calls → one descriptor"). `None` when the count does not
    /// fit in a `u64`.
    pub fn total_invocations(&self) -> Option<u64> {
        self.items.iter().try_fold(0u64, |total, item| {
            let n = match item {
                TdlItem::Pass(p) => p.invocations(),
                TdlItem::Loop(l) => l
                    .count
                    .checked_mul(l.body.iter().map(PassBlock::invocations).sum())?,
            };
            total.checked_add(n)
        })
    }

    /// Number of *static* instructions (pass/loop structure flattened,
    /// loop bodies counted once) — what the Instruction Region stores.
    pub fn static_invocations(&self) -> u64 {
        self.items
            .iter()
            .map(|item| match item {
                TdlItem::Pass(p) => p.invocations(),
                TdlItem::Loop(l) => l.body.iter().map(PassBlock::invocations).sum::<u64>(),
            })
            .sum()
    }

    /// All passes in program order, with loop bodies flattened (counted
    /// once, like [`TdlProgram::static_invocations`]).
    pub fn passes(&self) -> impl Iterator<Item = &PassBlock> {
        self.items.iter().flat_map(|item| match item {
            TdlItem::Pass(p) => std::slice::from_ref(p).iter(),
            TdlItem::Loop(l) => l.body.iter(),
        })
    }

    /// All parameter-file names referenced, in first-use order without
    /// duplicates.
    pub fn param_files(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for p in self.passes() {
            for c in &p.comps {
                if !out.contains(&c.params.as_str()) {
                    out.push(&c.params);
                }
            }
        }
        out
    }

    /// Returns `true` if the program contains no invocations.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

impl fmt::Display for TdlProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            writeln!(f, "{item}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TdlProgram {
        TdlProgram::new(vec![
            TdlItem::Pass(PassBlock::new(
                "a",
                "b",
                vec![
                    CompBlock::new(AcceleratorKind::Reshp, "reshape.para"),
                    CompBlock::new(AcceleratorKind::Fft, "fft.para"),
                ],
            )),
            TdlItem::Loop(LoopBlock::new(
                128,
                vec![PassBlock::new(
                    "w",
                    "p",
                    vec![CompBlock::new(AcceleratorKind::Dot, "dot.para")],
                )],
            )),
        ])
    }

    #[test]
    fn opcode_round_trip() {
        for k in AcceleratorKind::ALL {
            assert_eq!(AcceleratorKind::from_opcode(k.opcode()), Some(k));
            assert_eq!(AcceleratorKind::from_keyword(k.keyword()), Some(k));
        }
        assert_eq!(AcceleratorKind::from_opcode(0xff), None);
        assert_eq!(AcceleratorKind::from_keyword("NOPE"), None);
    }

    #[test]
    fn invocation_counting() {
        let p = sample();
        assert_eq!(p.total_invocations(), Some(2 + 128));
        assert_eq!(p.static_invocations(), 3);
    }

    #[test]
    fn invocation_count_past_u64_is_none() {
        let p = crate::parse(
            "LOOP 9223372036854775808 { PASS in=a out=b { COMP DOT params=\"d\" COMP DOT params=\"d\" } }",
        )
        .unwrap();
        assert_eq!(p.total_invocations(), None);
    }

    #[test]
    fn param_files_deduplicated_in_order() {
        let p = sample();
        assert_eq!(
            p.param_files(),
            vec!["reshape.para", "fft.para", "dot.para"]
        );
    }

    #[test]
    fn chaining_detection() {
        let p = sample();
        match &p.items[0] {
            TdlItem::Pass(pass) => assert!(pass.is_chained()),
            _ => panic!("expected pass"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one COMP")]
    fn empty_pass_rejected() {
        let _ = PassBlock::new("a", "b", vec![]);
    }

    #[test]
    #[should_panic(expected = "at least once")]
    fn zero_loop_rejected() {
        let _ = LoopBlock::new(
            0,
            vec![PassBlock::new(
                "a",
                "b",
                vec![CompBlock::new(AcceleratorKind::Fft, "f")],
            )],
        );
    }

    #[test]
    fn display_is_stable() {
        let text = sample().to_string();
        assert!(text.contains("PASS in=a out=b {"));
        assert!(text.contains("COMP RESHP params=\"reshape.para\""));
        assert!(text.contains("LOOP 128 {"));
    }
}
