//! The Task Description Language (TDL) and the accelerator descriptor.
//!
//! §3.4 of the paper: *"At the heart of the translation is a Task
//! Description Language, which is used to describe sequences of
//! accelerator invocations and their configurations. The TDL consists of
//! three basic blocks, i.e., `COMP`, `PASS`, and `LOOP`."*
//!
//! This crate implements:
//!
//! * the TDL abstract syntax ([`ast`]) — `COMP` (one accelerator
//!   invocation), `PASS` (a chained datapath of comps with its own
//!   input/output buffers), `LOOP` (repeated passes);
//! * a lexer and recursive-descent parser ([`parse`]) plus a
//!   pretty-printer, with guaranteed round-tripping;
//! * the binary *accelerator descriptor* ([`descriptor`]) — the
//!   physically contiguous Control/Instruction/Parameter region layout of
//!   §2.3 that the Configuration Unit's fetch/decode hardware consumes.
//!
//! # Examples
//!
//! ```
//! use mealib_tdl::{parse, TdlProgram};
//!
//! let src = r#"
//!     PASS in=datacube out=doppler {
//!         COMP RESHP params="reshape.para"
//!         COMP FFT params="fft.para"
//!     }
//!     LOOP 16777216 {
//!         PASS in=weights out=prods {
//!             COMP DOT params="dot.para"
//!         }
//!     }
//! "#;
//! let program: TdlProgram = parse(src)?;
//! assert_eq!(program.total_invocations(), Some(2 + 16_777_216));
//! # Ok::<(), mealib_tdl::ParseError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod descriptor;
pub mod lexer;
pub mod parser;

pub use ast::{AcceleratorKind, CompBlock, LoopBlock, PassBlock, TdlItem, TdlProgram};
pub use descriptor::{Descriptor, DescriptorError, ParamBag};
pub use parser::{parse, parse_with_lines, ItemLines, ParseError, PassLines, ProgramLines};
