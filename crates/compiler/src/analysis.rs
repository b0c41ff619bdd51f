//! Pass 1: library-call identification (§3.4).
//!
//! Walks the translation unit in order, recognizing the MKL/FFTW entry
//! points of Table 1, resolving the buffers behind their pointer
//! arguments, fusing chainable neighbours into one `PASS`, and compacting
//! loop nests of calls into `LOOP` blocks. The result is a set of
//! [`GeneratedTdl`] descriptors plus the bookkeeping Pass 2 needs to
//! rewrite the source.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use mealib_tdl::{AcceleratorKind, CompBlock, LoopBlock, PassBlock, TdlItem, TdlProgram};
use mealib_verify::{fusion_legal, AliasOracle, FusionStage};

use crate::ast::{Decl, Expr, ForInit, Stmt, TranslationUnit};
use crate::{CompileStats, GeneratedTdl};

/// A recognized library entry point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibApi {
    /// `cblas_saxpy(n, alpha, x, incx, y, incy)`
    Saxpy,
    /// `cblas_sdot(n, x, incx, y, incy)`
    Sdot,
    /// `cblas_cdotc_sub(n, x, incx, y, incy, result)`
    CdotcSub,
    /// `cblas_sgemv(order, trans, m, n, alpha, a, lda, x, incx, beta, y, incy)`
    Sgemv,
    /// `mkl_scsrgemv(transa, m, a, ia, ja, x, y)`
    ScsrGemv,
    /// `dfsInterpolate1D(in, n_in, out, n_out)` (simplified data-fitting API)
    Interpolate1d,
    /// `mkl_simatcopy(ordering, trans, rows, cols, alpha, ab, lda, ldb)`
    Simatcopy,
    /// `fftwf_plan_guru_dft(rank, dims, hm_rank, hm_dims, in, out, sign, flags)`
    PlanGuruDft,
    /// `fftwf_execute(plan)`
    FftwExecute,
    /// `cblas_cherk(...)` — compute-bounded, stays on the host.
    Cherk,
    /// `cblas_ctrsm(...)` — compute-bounded, stays on the host.
    Ctrsm,
}

impl LibApi {
    /// Maps a callee name to its API, if known.
    pub fn classify(callee: &str) -> Option<LibApi> {
        Some(match callee {
            "cblas_saxpy" => LibApi::Saxpy,
            "cblas_sdot" => LibApi::Sdot,
            "cblas_cdotc_sub" => LibApi::CdotcSub,
            "cblas_sgemv" => LibApi::Sgemv,
            "mkl_scsrgemv" => LibApi::ScsrGemv,
            "dfsInterpolate1D" => LibApi::Interpolate1d,
            "mkl_simatcopy" => LibApi::Simatcopy,
            "fftwf_plan_guru_dft" => LibApi::PlanGuruDft,
            "fftwf_execute" => LibApi::FftwExecute,
            "cblas_cherk" => LibApi::Cherk,
            "cblas_ctrsm" => LibApi::Ctrsm,
            _ => return None,
        })
    }

    /// The accelerator serving this API directly (`None` for
    /// compute-bounded APIs and the plan/execute indirection).
    pub fn accelerator(self) -> Option<AcceleratorKind> {
        Some(match self {
            LibApi::Saxpy => AcceleratorKind::Axpy,
            LibApi::Sdot | LibApi::CdotcSub => AcceleratorKind::Dot,
            LibApi::Sgemv => AcceleratorKind::Gemv,
            LibApi::ScsrGemv => AcceleratorKind::Spmv,
            LibApi::Interpolate1d => AcceleratorKind::Resmp,
            LibApi::Simatcopy => AcceleratorKind::Reshp,
            LibApi::PlanGuruDft | LibApi::FftwExecute | LibApi::Cherk | LibApi::Ctrsm => {
                return None
            }
        })
    }

    /// Argument positions of the (input, output) buffers for directly
    /// accelerable APIs.
    fn buffer_positions(self) -> Option<(usize, usize)> {
        Some(match self {
            LibApi::Saxpy => (2, 4),
            LibApi::Sdot => (1, 3),
            LibApi::CdotcSub => (1, 5),
            LibApi::Sgemv => (5, 10),
            LibApi::ScsrGemv => (2, 6),
            LibApi::Interpolate1d => (0, 2),
            LibApi::Simatcopy => (5, 5),
            _ => return None,
        })
    }

    /// Representative Table-2-scale parameters for this API's
    /// accelerator, used by the placement model to compute the kernel's
    /// arithmetic intensity. `None` for APIs with no accelerator.
    fn reference_params(self) -> Option<mealib_accel::AccelParams> {
        use mealib_accel::AccelParams;
        Some(match self.accelerator()? {
            AcceleratorKind::Axpy => AccelParams::Axpy {
                n: 1 << 26,
                alpha: 2.0,
                incx: 1,
                incy: 1,
            },
            AcceleratorKind::Dot => AccelParams::Dot {
                n: 1 << 26,
                incx: 1,
                incy: 1,
                complex: matches!(self, LibApi::CdotcSub),
            },
            AcceleratorKind::Gemv => AccelParams::Gemv { m: 8192, n: 8192 },
            AcceleratorKind::Spmv => AccelParams::Spmv {
                rows: 1 << 20,
                cols: 1 << 20,
                nnz: 13 << 20,
            },
            AcceleratorKind::Resmp => AccelParams::Resmp {
                blocks: 4096,
                in_per_block: 4096,
                out_per_block: 4096,
            },
            AcceleratorKind::Fft => AccelParams::Fft {
                n: 8192,
                batch: 8192,
            },
            AcceleratorKind::Reshp => AccelParams::Reshp {
                rows: 16384,
                cols: 16384,
                elem_bytes: 4,
            },
        })
    }

    /// Bounds-driven placement decision: compares the kernel's
    /// arithmetic intensity (FLOPs per byte, from the accelerator
    /// model's closed forms) against the ridge point of `host`'s
    /// roofline. A kernel below the ridge is bandwidth-starved on the
    /// host, so near-memory placement wins; a kernel at or above it is
    /// compute-bound and stays on the host cores — as do APIs with no
    /// accelerator at all.
    pub fn placement(self, host: &mealib_host::Platform) -> Placement {
        let (Some(kind), Some(params)) = (self.accelerator(), self.reference_params()) else {
            return Placement::Host;
        };
        let model = mealib_accel::AccelModel::new(kind);
        let hw = mealib_accel::AccelHwConfig::mealib_default();
        let bytes = model.access_pattern(&params, &hw).useful_bytes();
        let flops = model.flops(&params);
        // Pure data movement (RESHP) has zero intensity: always below
        // any ridge, always worth placing next to the memory.
        let intensity = flops as f64 / bytes.max(1) as f64;
        let ridge = host.peak_flops() / host.peak_bandwidth().get();
        if intensity < ridge {
            Placement::Accelerator
        } else {
            Placement::Host
        }
    }

    /// *All* pointer-argument positions (every buffer the accelerator
    /// touches must live in MEALib-managed contiguous memory, not just
    /// the pass input/output).
    fn buffer_args(self) -> &'static [usize] {
        match self {
            LibApi::Saxpy => &[2, 4],
            LibApi::Sdot => &[1, 3],
            LibApi::CdotcSub => &[1, 3, 5],
            LibApi::Sgemv => &[5, 7, 10],
            LibApi::ScsrGemv => &[2, 3, 4, 5, 6],
            LibApi::Interpolate1d => &[0, 2],
            LibApi::Simatcopy => &[5],
            LibApi::PlanGuruDft => &[4, 5],
            LibApi::FftwExecute | LibApi::Cherk | LibApi::Ctrsm => &[],
        }
    }
}

/// Where a recognized library call should execute, as decided by
/// [`LibApi::placement`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Offload to the in-stack accelerator layer.
    Accelerator,
    /// Keep on the host cores (compute-bound, or no accelerator).
    Host,
}

/// A semantic error the compiler cannot recover from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalysisError {
    /// `fftwf_execute` of a plan that was never created.
    UnknownPlan {
        /// The plan variable.
        name: String,
    },
    /// A buffer argument of an accelerable call is not a simple
    /// identifier-rooted expression.
    OpaqueBuffer {
        /// The call this happened in.
        callee: String,
    },
    /// The dynamic call count of a loop nest (or of the whole unit)
    /// does not fit in `u64`.
    TripCountOverflow {
        /// The call whose count overflowed.
        callee: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::UnknownPlan { name } => {
                write!(f, "fftwf_execute of unknown plan `{name}`")
            }
            AnalysisError::OpaqueBuffer { callee } => {
                write!(f, "cannot resolve a buffer argument of `{callee}`")
            }
            AnalysisError::TripCountOverflow { callee } => {
                write!(f, "the dynamic call count of `{callee}` overflows u64")
            }
        }
    }
}

impl std::error::Error for AnalysisError {}

/// One descriptor-replacement site in the original source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Top-level statement index where the runtime calls are emitted.
    pub anchor: usize,
    /// All top-level statement indices this descriptor replaces.
    pub consumed: BTreeSet<usize>,
    /// Name of the generated plan variable.
    pub plan_name: String,
    /// Input buffer of the first pass.
    pub input: String,
    /// Output buffer of the last pass.
    pub output: String,
}

/// Everything Pass 2 and the code generator need.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformPlan {
    /// Generated descriptors, in source order.
    pub tdl: Vec<GeneratedTdl>,
    /// Replacement sites.
    pub segments: Vec<Segment>,
    /// Buffers that must live in MEALib-managed contiguous memory.
    pub accel_buffers: BTreeSet<String>,
    /// Explicit stack placements from `#pragma mealib stack(N)`
    /// annotations on allocation statements (buffer → stack id).
    pub placements: BTreeMap<String, usize>,
    /// Statistics.
    pub stats: CompileStats,
}

/// Parses a `mealib stack(N)` pragma body, returning `N`.
fn placement_pragma(text: &str) -> Option<usize> {
    let rest = text.strip_prefix("mealib")?.trim();
    let inner = rest.strip_prefix("stack(")?.strip_suffix(')')?;
    inner.trim().parse().ok()
}

/// One accelerable invocation discovered in source order.
#[derive(Debug, Clone)]
struct Event {
    /// The library call this event replaces.
    callee: String,
    accel: AcceleratorKind,
    input: String,
    output: String,
    /// Rendered non-pointer arguments (the parameter-file payload).
    param_args: Vec<String>,
    /// Dynamic repetitions (loop-nest trip-count product).
    loop_count: u64,
    /// Top-level statements this event consumes.
    consumed: BTreeSet<usize>,
    /// Every buffer the call touches (for allocation rewriting).
    buffers: Vec<String>,
}

/// The fusion-legality view of one event: streamed input/output plus
/// every buffer argument the call touches.
fn fusion_stage(e: &Event) -> FusionStage {
    FusionStage::new(e.input.clone(), e.output.clone(), e.buffers.clone())
}

/// The already-fused chain, as stages, for `fusion_legal`.
fn fusion_stages(group: &[Event]) -> Vec<FusionStage> {
    group.iter().map(fusion_stage).collect()
}

#[derive(Debug, Clone)]
struct PlanInfo {
    kind: AcceleratorKind,
    input: String,
    output: String,
    param_args: Vec<String>,
    creation_stmt: usize,
}

/// Runs Pass 1 over a translation unit.
///
/// # Errors
///
/// Returns an [`AnalysisError`] for unresolvable plans or buffers, or
/// when a dynamic call count overflows `u64`.
pub fn analyze(unit: &TranslationUnit) -> Result<TransformPlan, AnalysisError> {
    let mut consts: BTreeMap<String, i64> = BTreeMap::new();
    let mut plans: BTreeMap<String, PlanInfo> = BTreeMap::new();
    let mut accel_buffers: BTreeSet<String> = BTreeSet::new();
    let mut placements: BTreeMap<String, usize> = BTreeMap::new();
    let mut events: Vec<Event> = Vec::new();

    for (idx, stmt) in unit.stmts.iter().enumerate() {
        // `#pragma mealib stack(N)` attached (as a comment block) to an
        // allocation assignment pins the buffer to memory stack N.
        if let Stmt::Block(parts) = stmt {
            if let [Stmt::Comment(text), Stmt::Expr(e)] = parts.as_slice() {
                if let (Some(stack), Some(target)) = (
                    text.strip_prefix("#pragma ").and_then(placement_pragma),
                    e.assign_target(),
                ) {
                    placements.insert(target.to_string(), stack);
                }
            }
        }
        match stmt {
            Stmt::Decl(Decl {
                name,
                init: Some(Expr::Int(v)),
                ..
            }) => {
                consts.insert(name.clone(), *v);
            }
            Stmt::Decl(Decl {
                name,
                init: Some(init),
                ..
            }) => {
                scan_assignment(name, init, idx, &mut plans, &mut events, &consts)?;
            }
            Stmt::Expr(e) => {
                if let (Some(target), Some(_)) = (e.assign_target(), e.as_call()) {
                    if let Expr::Assign { rhs, .. } = e {
                        scan_assignment(target, rhs, idx, &mut plans, &mut events, &consts)?;
                    }
                } else if let Expr::Call { callee, args } = e {
                    scan_call(callee, args, idx, 1, &plans, &mut events)?;
                }
            }
            // A pragma-annotated allocation parses as a comment+expr block.
            Stmt::Block(parts) => {
                if let [Stmt::Comment(_), Stmt::Expr(e)] = parts.as_slice() {
                    if let (Some(target), Some(_)) = (e.assign_target(), e.as_call()) {
                        if let Expr::Assign { rhs, .. } = e {
                            scan_assignment(target, rhs, idx, &mut plans, &mut events, &consts)?;
                        }
                    }
                }
            }
            Stmt::For { .. } => {
                if let Some((count, Expr::Call { callee, args })) = single_call_loop(stmt, &consts)?
                {
                    scan_call(callee, args, idx, count, &plans, &mut events)?;
                }
            }
            _ => {}
        }
    }

    // Record every buffer any event touches.
    for e in &events {
        accel_buffers.insert(e.input.clone());
        accel_buffers.insert(e.output.clone());
        accel_buffers.extend(e.buffers.iter().cloned());
    }

    // Group events into descriptors: a loop event stands alone; adjacent
    // single events chain when the dataflow connects AND the fusion is
    // memory-sound — a name-matching pair like `saxpy(x,y); sgemv(A,y,x)`
    // streams y but clobbers x, which the first stage still reads, so the
    // alias oracle must approve every extension.
    let oracle = AliasOracle::new();
    let mut groups: Vec<Vec<Event>> = Vec::new();
    for event in events {
        let next_stage = fusion_stage(&event);
        let chainable = event.loop_count == 1
            && groups.last().is_some_and(|g| {
                !g.is_empty()
                    && g[0].loop_count == 1
                    && g.last().expect("nonempty group").output == event.input
                    && fusion_legal(&fusion_stages(g), &next_stage, &oracle)
            });
        if chainable {
            groups.last_mut().expect("checked above").push(event);
        } else {
            groups.push(vec![event]);
        }
    }

    let mut stats = CompileStats::default();
    let mut tdl = Vec::new();
    let mut segments = Vec::new();
    for (gi, group) in groups.iter().enumerate() {
        let plan_name = format!("plan_{gi}");
        let mut param_files = Vec::new();
        let comps: Vec<CompBlock> = group
            .iter()
            .enumerate()
            .map(|(ci, e)| {
                let file = format!("{}_{gi}_{ci}.para", e.accel.keyword().to_lowercase());
                param_files.push((file.clone(), e.param_args.clone()));
                CompBlock::new(e.accel, file)
            })
            .collect();
        let input = group[0].input.clone();
        let output = group.last().expect("nonempty group").output.clone();
        let loop_count = group[0].loop_count;
        let pass = PassBlock::new(input.clone(), output.clone(), comps);
        let program = if loop_count > 1 {
            TdlProgram::new(vec![TdlItem::Loop(LoopBlock::new(loop_count, vec![pass]))])
        } else {
            TdlProgram::new(vec![TdlItem::Pass(pass)])
        };
        let calls = group.len() as u64 * loop_count;
        stats.accelerable_calls += group.len() as u64;
        stats.dynamic_calls = stats.dynamic_calls.checked_add(calls).ok_or_else(|| {
            AnalysisError::TripCountOverflow {
                callee: group[0].callee.clone(),
            }
        })?;
        stats.descriptors += 1;
        if group.len() > 1 {
            stats.chained_calls += group.len() as u64;
        }
        let consumed: BTreeSet<usize> = group
            .iter()
            .flat_map(|e| e.consumed.iter().copied())
            .collect();
        let anchor = *consumed.iter().max().expect("events consume statements");
        tdl.push(GeneratedTdl {
            plan_name: plan_name.clone(),
            text: program.to_string(),
            calls_compacted: calls,
            params: param_files
                .into_iter()
                .map(|(file, args)| crate::ParamFile { file, args })
                .collect(),
        });
        segments.push(Segment {
            anchor,
            consumed,
            plan_name,
            input,
            output,
        });
    }

    stats.allocations_rewritten = accel_buffers.len() as u64;
    Ok(TransformPlan {
        tdl,
        segments,
        accel_buffers,
        placements,
        stats,
    })
}

fn scan_assignment(
    target: &str,
    rhs: &Expr,
    idx: usize,
    plans: &mut BTreeMap<String, PlanInfo>,
    events: &mut Vec<Event>,
    _consts: &BTreeMap<String, i64>,
) -> Result<(), AnalysisError> {
    let Some((callee, args)) = rhs.as_call() else {
        return Ok(());
    };
    if LibApi::classify(callee) == Some(LibApi::PlanGuruDft) {
        let kind = match args.first() {
            Some(Expr::Int(0)) => AcceleratorKind::Reshp,
            _ => AcceleratorKind::Fft,
        };
        let input = buffer_arg(args, 4, callee)?;
        let output = buffer_arg(args, 5, callee)?;
        let param_args = args
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 4 && *i != 5)
            .map(|(_, a)| a.to_string())
            .collect();
        plans.insert(
            target.to_string(),
            PlanInfo {
                kind,
                input,
                output,
                param_args,
                creation_stmt: idx,
            },
        );
    } else {
        // An assignment whose RHS is a direct accelerable call (e.g.
        // `r = cblas_sdot(...)`).
        scan_call(callee, args, idx, 1, plans, events)?;
    }
    Ok(())
}

fn scan_call(
    callee: &str,
    args: &[Expr],
    idx: usize,
    loop_count: u64,
    plans: &BTreeMap<String, PlanInfo>,
    events: &mut Vec<Event>,
) -> Result<(), AnalysisError> {
    let Some(api) = LibApi::classify(callee) else {
        return Ok(());
    };
    if api == LibApi::FftwExecute {
        let name =
            args.first()
                .and_then(Expr::base_ident)
                .ok_or_else(|| AnalysisError::OpaqueBuffer {
                    callee: callee.to_string(),
                })?;
        let info = plans.get(name).ok_or_else(|| AnalysisError::UnknownPlan {
            name: name.to_string(),
        })?;
        let mut consumed = BTreeSet::from([idx, info.creation_stmt]);
        consumed.insert(idx);
        events.push(Event {
            callee: callee.to_string(),
            accel: info.kind,
            input: info.input.clone(),
            output: info.output.clone(),
            param_args: info.param_args.clone(),
            loop_count,
            consumed,
            buffers: vec![info.input.clone(), info.output.clone()],
        });
        return Ok(());
    }
    let Some(kind) = api.accelerator() else {
        return Ok(()); // no accelerator: stays on the host
    };
    if api.placement(&mealib_host::Platform::haswell()) == Placement::Host {
        return Ok(()); // compute-bounded on the host roofline
    }
    let (in_pos, out_pos) = api
        .buffer_positions()
        .expect("accelerable APIs have positions");
    let buffer_positions = api.buffer_args();
    let input = buffer_arg(args, in_pos, callee)?;
    let output = buffer_arg(args, out_pos, callee)?;
    let buffers = buffer_positions
        .iter()
        .filter_map(|&p| args.get(p).and_then(Expr::base_ident).map(str::to_string))
        .collect();
    let param_args = args
        .iter()
        .enumerate()
        .filter(|(i, _)| !buffer_positions.contains(i))
        .map(|(_, a)| a.to_string())
        .collect();
    events.push(Event {
        callee: callee.to_string(),
        accel: kind,
        input,
        output,
        param_args,
        loop_count,
        consumed: BTreeSet::from([idx]),
        buffers,
    });
    Ok(())
}

fn buffer_arg(args: &[Expr], pos: usize, callee: &str) -> Result<String, AnalysisError> {
    args.get(pos)
        .and_then(Expr::base_ident)
        .map(str::to_string)
        .ok_or_else(|| AnalysisError::OpaqueBuffer {
            callee: callee.to_string(),
        })
}

/// If `stmt` is a perfect loop nest whose innermost body is exactly one
/// accelerable-looking call, returns the trip-count product and the call.
///
/// # Errors
///
/// [`AnalysisError::TripCountOverflow`] when the product does not fit in
/// `u64`.
fn single_call_loop<'a>(
    stmt: &'a Stmt,
    consts: &BTreeMap<String, i64>,
) -> Result<Option<(u64, &'a Expr)>, AnalysisError> {
    match loop_nest(stmt, consts) {
        None => Ok(None),
        Some((Some(product), call)) => Ok(Some((product, call))),
        Some((None, call)) => Err(AnalysisError::TripCountOverflow {
            callee: match call {
                Expr::Call { callee, .. } => callee.clone(),
                other => other.to_string(),
            },
        }),
    }
}

/// [`single_call_loop`]'s walk: the nest's call and its trip-count
/// product, `None` where the product overflows `u64`. The whole nest
/// must be compactable before an overflow counts.
fn loop_nest<'a>(
    stmt: &'a Stmt,
    consts: &BTreeMap<String, i64>,
) -> Option<(Option<u64>, &'a Expr)> {
    let Stmt::For {
        init, cond, body, ..
    } = stmt
    else {
        return None;
    };
    let trip = trip_count(init, cond, consts)?;
    match single_stmt(body)? {
        inner @ Stmt::For { .. } => {
            let (rest, call) = loop_nest(inner, consts)?;
            Some((rest.and_then(|r| trip.checked_mul(r)), call))
        }
        Stmt::Expr(e @ Expr::Call { callee, .. })
            if LibApi::classify(callee)
                .and_then(LibApi::accelerator)
                .is_some() =>
        {
            Some((Some(trip), e))
        }
        _ => None,
    }
}

/// Unwraps single-statement blocks.
fn single_stmt(stmt: &Stmt) -> Option<&Stmt> {
    match stmt {
        Stmt::Block(stmts) if stmts.len() == 1 => single_stmt(&stmts[0]),
        Stmt::Block(_) => None,
        other => Some(other),
    }
}

/// Trip count of `for (i = lo; i < hi; ++i)` with constant or
/// symbol-table-resolved bounds. `None` when a bound is not constant or
/// the count is not positive.
fn trip_count(init: &ForInit, cond: &Expr, consts: &BTreeMap<String, i64>) -> Option<u64> {
    let lo = match init {
        ForInit::Expr(Expr::Assign { rhs, .. }) => const_eval(rhs, consts)?,
        ForInit::Decl(Decl { init: Some(e), .. }) => const_eval(e, consts)?,
        _ => return None,
    };
    let (op_le, hi) = match cond {
        Expr::Binary {
            op: crate::ast::BinOp::Lt,
            rhs,
            ..
        } => (false, const_eval(rhs, consts)?),
        Expr::Binary {
            op: crate::ast::BinOp::Le,
            rhs,
            ..
        } => (true, const_eval(rhs, consts)?),
        _ => return None,
    };
    // Exact in i128; a count beyond u64 is not a representable trip.
    let count = i128::from(hi) - i128::from(lo) + i128::from(op_le);
    (count > 0).then(|| u64::try_from(count).ok()).flatten()
}

/// Folds a constant integer expression. An operation that overflows
/// `i64` (or divides by zero) makes the expression not constant.
fn const_eval(e: &Expr, consts: &BTreeMap<String, i64>) -> Option<i64> {
    match e {
        Expr::Int(v) => Some(*v),
        Expr::Ident(name) => consts.get(name).copied(),
        Expr::Binary { op, lhs, rhs } => {
            let l = const_eval(lhs, consts)?;
            let r = const_eval(rhs, consts)?;
            match op {
                crate::ast::BinOp::Add => l.checked_add(r),
                crate::ast::BinOp::Sub => l.checked_sub(r),
                crate::ast::BinOp::Mul => l.checked_mul(r),
                crate::ast::BinOp::Div => l.checked_div(r),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;
    use crate::parser::parse;

    fn analyze_src(src: &str) -> TransformPlan {
        analyze(&parse(tokenize(src).unwrap()).unwrap()).unwrap()
    }

    #[test]
    fn recognizes_direct_blas_call() {
        let plan = analyze_src("cblas_saxpy(1024, 2.0, x, 1, y, 1);");
        assert_eq!(plan.stats.accelerable_calls, 1);
        assert_eq!(plan.stats.descriptors, 1);
        assert!(plan.tdl[0].text.contains("COMP AXPY"));
        assert!(plan.tdl[0].text.contains("in=x out=y"));
        assert_eq!(plan.accel_buffers, BTreeSet::from(["x".into(), "y".into()]));
        // Non-buffer args land in the parameter file.
        assert_eq!(plan.tdl[0].params[0].args, vec!["1024", "2.0", "1", "1"]);
    }

    #[test]
    fn fftw_plan_execute_resolves_through_plan_variable() {
        let plan = analyze_src(
            "plan_fft = fftwf_plan_guru_dft(1, dims, 2, hm, datacube, doppler, FFTW_FORWARD, FLAGS);\n\
             fftwf_execute(plan_fft);",
        );
        assert_eq!(plan.stats.descriptors, 1);
        assert!(plan.tdl[0].text.contains("COMP FFT"));
        assert!(plan.tdl[0].text.contains("in=datacube out=doppler"));
        // Both the execute and the plan creation are consumed.
        assert_eq!(plan.segments[0].consumed.len(), 2);
    }

    #[test]
    fn rank0_guru_plan_is_a_reshape() {
        let plan = analyze_src(
            "plan_ct = fftwf_plan_guru_dft(0, NULL, 3, hm, a, b, FWD, FLAGS);\n\
             fftwf_execute(plan_ct);",
        );
        assert!(plan.tdl[0].text.contains("COMP RESHP"));
    }

    #[test]
    fn chains_reshape_into_fft() {
        // Listing 1's copy + FFT pair fuses into one PASS.
        let plan = analyze_src(
            "plan_ct = fftwf_plan_guru_dft(0, NULL, 3, hm1, datacube, padded, FWD, FLAGS);\n\
             plan_fft = fftwf_plan_guru_dft(1, dims, 2, hm2, padded, doppler, FWD, FLAGS);\n\
             fftwf_execute(plan_ct);\n\
             fftwf_execute(plan_fft);",
        );
        assert_eq!(plan.stats.descriptors, 1, "chained into one descriptor");
        assert_eq!(plan.stats.chained_calls, 2);
        let text = &plan.tdl[0].text;
        assert!(text.contains("COMP RESHP"));
        assert!(text.contains("COMP FFT"));
        assert!(text.contains("in=datacube out=doppler"));
    }

    #[test]
    fn buffer_reusing_pair_is_not_fused() {
        // saxpy(x, y); saxpy(y, x): the outputs connect by name, but the
        // second call stores to x while the fused datapath still reads
        // it — fusing would change what the call sequence leaves in
        // memory, so these must stay two descriptors.
        let plan = analyze_src(
            "cblas_saxpy(1024, 2.0, x, 1, y, 1);\n\
             cblas_saxpy(1024, 2.0, y, 1, x, 1);",
        );
        assert_eq!(plan.stats.descriptors, 2, "unsound fusion rejected");
        assert_eq!(plan.stats.chained_calls, 0);
    }

    #[test]
    fn aux_operand_reuse_blocks_fusion() {
        // The sgemv's vector operand rereads `b`, an intermediate of the
        // fused saxpy pair. Inside a fused PASS that store never
        // materializes, so the sgemv would read stale memory: the saxpy
        // pair fuses, the sgemv stays its own descriptor.
        let plan = analyze_src(
            "cblas_saxpy(64, 1.0, a, 1, b, 1);\n\
             cblas_saxpy(64, 1.0, b, 1, c, 1);\n\
             cblas_sgemv(ORDER, TRANS, m, n, 1.0, c, lda, b, 1, 0.0, d, 1);",
        );
        assert_eq!(plan.stats.descriptors, 2, "aux reuse rejected");
        assert_eq!(plan.stats.chained_calls, 2, "the saxpy pair still fuses");
    }

    #[test]
    fn compacts_omp_loop_nest_into_loop_block() {
        let plan = analyze_src(
            "int N_DOP = 256;\nint N_SV = 64;\n\
             #pragma omp parallel for num_threads(4)\n\
             for (dop = 0; dop < N_DOP; ++dop)\n\
               for (sv = 0; sv < N_SV; ++sv)\n\
                 cblas_cdotc_sub(1024, &w[dop][sv][0], 1, &s[dop][0], 64, &p[dop][sv]);",
        );
        assert_eq!(plan.stats.descriptors, 1);
        assert_eq!(plan.stats.dynamic_calls, 256 * 64);
        assert!(plan.tdl[0].text.contains("LOOP 16384"));
        assert!(plan.tdl[0].text.contains("in=w out=p"));
    }

    #[test]
    fn non_constant_loop_bound_is_left_on_the_host() {
        let plan =
            analyze_src("for (i = 0; i < runtime_n; ++i)\n  cblas_saxpy(64, 1.0, x, 1, y, 1);");
        assert_eq!(
            plan.stats.descriptors, 0,
            "unknowable trip count stays untouched"
        );
    }

    #[test]
    fn compute_bound_calls_stay_on_host() {
        let plan = analyze_src("cblas_cherk(ORDER, UPLO, TRANS, n, k, 1.0, a, n, 0.0, c, n);");
        assert_eq!(plan.stats.accelerable_calls, 0);
        assert!(plan.tdl.is_empty());
    }

    #[test]
    fn execute_of_unknown_plan_is_an_error() {
        let unit = parse(tokenize("fftwf_execute(ghost);").unwrap()).unwrap();
        let err = analyze(&unit).unwrap_err();
        assert_eq!(
            err,
            AnalysisError::UnknownPlan {
                name: "ghost".into()
            }
        );
    }

    #[test]
    fn le_bounds_and_decl_inits_count_correctly() {
        let plan = analyze_src("for (int i = 2; i <= 9; ++i)\n  cblas_saxpy(64, 1.0, x, 1, y, 1);");
        assert_eq!(plan.stats.dynamic_calls, 8);
        assert!(plan.tdl[0].text.contains("LOOP 8"));
    }

    #[test]
    fn loop_with_extra_statements_is_not_compacted() {
        let plan =
            analyze_src("for (i = 0; i < 4; ++i) { helper(i); cblas_saxpy(64, 1.0, x, 1, y, 1); }");
        assert_eq!(plan.stats.descriptors, 0);
    }

    #[test]
    fn placement_pragma_is_recorded() {
        let plan = analyze_src(
            "#pragma mealib stack(2)\n             x = malloc(sizeof(float) * 64);\n             cblas_saxpy(64, 1.0, x, 1, y, 1);",
        );
        assert_eq!(plan.placements.get("x"), Some(&2));
        assert!(plan.accel_buffers.contains("x"));
    }

    #[test]
    fn malformed_placement_pragmas_are_ignored() {
        for text in [
            "mealib stack()",
            "mealib stack(a)",
            "mealib shelf(1)",
            "omp simd",
        ] {
            assert_eq!(placement_pragma(text), None, "{text}");
        }
        assert_eq!(placement_pragma("mealib stack(3)"), Some(3));
        assert_eq!(placement_pragma("mealib stack( 11 )"), Some(11));
    }

    #[test]
    fn placement_offloads_memory_bound_apis_and_keeps_compute_bound_home() {
        let host = mealib_host::Platform::haswell();
        for api in [
            LibApi::Saxpy,
            LibApi::Sdot,
            LibApi::CdotcSub,
            LibApi::Sgemv,
            LibApi::ScsrGemv,
            LibApi::Interpolate1d,
            LibApi::Simatcopy,
        ] {
            assert_eq!(
                api.placement(&host),
                Placement::Accelerator,
                "{api:?} sits below the Haswell ridge point"
            );
        }
        for api in [LibApi::Cherk, LibApi::Ctrsm, LibApi::PlanGuruDft] {
            assert_eq!(api.placement(&host), Placement::Host, "{api:?}");
        }
    }

    #[test]
    fn placement_follows_the_host_roofline() {
        // A bandwidth-rich, compute-starved host drops its ridge point
        // below every kernel's intensity: nothing is worth offloading.
        let mut host = mealib_host::Platform::haswell();
        host.flops_per_cycle = 1e-6;
        host.mem = mealib_memsim::MemoryConfig::hmc_stack();
        assert_eq!(LibApi::Saxpy.placement(&host), Placement::Host);
        assert_eq!(LibApi::Sgemv.placement(&host), Placement::Host);
        // RESHP moves data without computing: zero intensity beats any
        // positive ridge.
        assert_eq!(LibApi::Simatcopy.placement(&host), Placement::Accelerator);
    }

    #[test]
    fn const_eval_handles_arithmetic() {
        let consts = BTreeMap::from([("N".to_string(), 8i64)]);
        let e = Expr::Binary {
            op: crate::ast::BinOp::Mul,
            lhs: Box::new(Expr::Ident("N".into())),
            rhs: Box::new(Expr::Int(4)),
        };
        assert_eq!(const_eval(&e, &consts), Some(32));
        assert_eq!(const_eval(&Expr::Ident("missing".into()), &consts), None);
    }
}
