//! Canonical elaboration of a session into a memory-request trace.
//!
//! Both sides of the soundness story share this one definition of "what
//! the program does to memory": the analyzer derives its certified
//! bounds from the elaboration, and the differential harness runs the
//! *same* requests through the cycle engine. Each pass execution
//! streams its input extent (read) and its output extent (write), in
//! program order. Loops are kept, not unrolled: a `LOOP` body's
//! requests are stored once with the loop's trip count (trip counts
//! are static in TDL, which is what makes the byte and command bounds
//! exact), so elaborating and pricing a program costs its size, not its
//! iterations. [`Elaboration::unrolled_trace`] is the one place that
//! expands the loops, for the consumers that replay or interleave the
//! request stream itself.
//!
//! The elaboration also computes the peak live-buffer footprint: a
//! buffer is live from its first event (host op or pass touching it) to
//! its last, and the footprint high-water is the largest sum of live
//! declared extents at any event. Buffers with no `BUF` extent cannot
//! be priced; they are recorded so the analyzer can report a partial
//! certificate instead of guessing.

use std::collections::BTreeMap;

use mealib_memsim::bounds::{BoundsError, Segment};
use mealib_memsim::engine::Request;
use mealib_memsim::TraceBuffer;
use mealib_tdl::{AcceleratorKind, TdlItem};

use crate::dataflow::{HostOp, Session};

/// The most unrolled steps [`crate::interference::compose()`] may take:
/// it materializes every request of every tenant for the interleaver
/// and prices every accelerator invocation in the energy floor. It
/// counts both before it starts and returns
/// [`BoundsError::WorkBudget`] past this budget, so a large `LOOP`
/// count in a tenant costs a typed error, not a hang. The serving
/// catalogue stays below 2^8 steps; a 16 MiB request costs the
/// interleaved walk about 9 µs, so a set at the budget certifies in a
/// few seconds at most.
pub const UNROLL_BUDGET: u64 = 1 << 18;

/// The most accelerator invocations the energy floor of one program
/// may price. The floor adds one term per invocation in program order
/// (its float sum keeps that order, loops unrolled), about a
/// nanosecond each, so a program at the budget certifies in well under
/// a second. The budget is the scale at which the TDL pass already
/// warns about loop counts (`TdlLimits::warn_invocations`), 16 times
/// the paper's 16 M-call `LOOP`; past it [`super::summarize`] returns
/// [`BoundsError::WorkBudget`] rather than run for as long as the loop
/// counts say.
pub const FLOOR_BUDGET: u64 = 1 << 28;

/// `Ok` when `steps` fit `budget`.
///
/// # Errors
///
/// [`BoundsError::WorkBudget`] when they do not.
pub(crate) fn check_budget(steps: u64, budget: u64) -> Result<(), BoundsError> {
    if steps > budget {
        return Err(BoundsError::WorkBudget { steps, budget });
    }
    Ok(())
}

/// Traffic of one pass execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTraffic {
    /// 1-based source line of the pass header, when known.
    pub line: Option<usize>,
    /// Input buffer name.
    pub input: String,
    /// Output buffer name.
    pub output: String,
    /// Bytes this execution moves (input read + output write, saturating
    /// at `u64::MAX`); an undeclared extent adds nothing.
    pub bytes: u64,
    /// Accelerators of the chained comps, in chain order.
    pub accels: Vec<AcceleratorKind>,
}

impl PhaseTraffic {
    /// Chained comps in the pass (CU occupancy).
    pub fn chain_len(&self) -> usize {
        self.accels.len()
    }
}

/// A stretch of the program issued `repeat` times back to back: a
/// `LOOP` body with its trip count, or a run of straight-line passes
/// with `repeat == 1`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramSegment {
    /// One iteration's requests, in program order.
    pub trace: TraceBuffer,
    /// One iteration's pass executions, in program order.
    pub phases: Vec<PhaseTraffic>,
    /// Iterations (a `LOOP` count may be 0).
    pub repeat: u64,
}

/// The elaborated program: segments, footprint, missing extents.
#[derive(Debug, Clone, Default)]
pub struct Elaboration {
    /// The program in order, each loop body once with its count.
    pub segments: Vec<ProgramSegment>,
    /// Peak live-buffer footprint in bytes (exact over declared
    /// extents).
    pub peak_footprint: u64,
    /// Buffers referenced by the program but lacking a `BUF` extent —
    /// their traffic is absent from every segment's requests and bytes.
    pub missing_extents: Vec<String>,
    /// Total statically-known pass executions, loop counts multiplied
    /// in (saturating at `u64::MAX`).
    pub invocations: u64,
}

impl Elaboration {
    /// The segments as the bounds walk
    /// ([`mealib_memsim::bounds::segment_bounds`]) takes them.
    pub fn walk_segments(&self) -> Vec<Segment<'_>> {
        self.segments
            .iter()
            .map(|s| Segment {
                trace: &s.trace,
                repeat: s.repeat,
            })
            .collect()
    }

    /// The request stream with every loop unrolled: what the cycle
    /// engine replays and the tenant interleaver merges. Its length is
    /// the program's dynamic request count — expand only programs
    /// meant to be replayed.
    pub fn unrolled_trace(&self) -> TraceBuffer {
        let mut trace = TraceBuffer::new();
        for s in &self.segments {
            for _ in 0..s.repeat {
                trace.extend(&s.trace);
            }
        }
        trace
    }

    /// Length of [`Self::unrolled_trace`], computed without unrolling
    /// (saturating at `u64::MAX`).
    pub fn unrolled_requests(&self) -> u64 {
        self.segments.iter().fold(0u64, |n, s| {
            n.saturating_add(s.repeat.saturating_mul(s.trace.len() as u64))
        })
    }

    /// Accelerator invocations of the program, loop counts multiplied
    /// in (saturating at `u64::MAX`): one energy-floor term each.
    pub fn accel_invocations(&self) -> u64 {
        self.segments.iter().fold(0u64, |n, s| {
            let per_iteration: u64 = s.phases.iter().map(|p| p.accels.len() as u64).sum();
            n.saturating_add(s.repeat.saturating_mul(per_iteration))
        })
    }

    /// Each pass of the program once, in program order, with how many
    /// times it executes.
    pub fn phases(&self) -> impl Iterator<Item = (&PhaseTraffic, u64)> {
        self.segments
            .iter()
            .flat_map(|s| s.phases.iter().map(move |p| (p, s.repeat)))
    }

    /// Every pass execution in program order, loops unrolled.
    pub fn executions(&self) -> impl Iterator<Item = &PhaseTraffic> {
        self.segments
            .iter()
            .flat_map(|s| (0..s.repeat).flat_map(move |_| s.phases.iter()))
    }
}

/// Elaborates `session` into its canonical segments. Pure and total: no
/// configuration is involved, only the program text and its extents.
pub fn elaborate(session: &Session) -> Elaboration {
    let spans = crate::dataflow::ProgramSpans::new(Some(&session.lines));
    let mut out = Elaboration::default();
    let mut missing: BTreeMap<&str, ()> = BTreeMap::new();

    // Event stream for liveness: each event is a set of buffers touched
    // simultaneously (a pass touches its input and output at once).
    let mut touches: Vec<Vec<&str>> = Vec::new();
    for (_, op) in &session.host_ops {
        match op {
            HostOp::Write(b) | HostOp::Read(b) => touches.push(vec![b]),
            HostOp::Flush => {}
        }
    }

    let mut flat = 0usize;
    for item in &session.program.items {
        let (count, body) = match item {
            TdlItem::Pass(p) => (1u64, std::slice::from_ref(p)),
            TdlItem::Loop(l) => (l.count, l.body.as_slice()),
        };
        // Straight-line passes share one segment of one iteration.
        let seg = match out.segments.last_mut() {
            Some(seg) if count == 1 && seg.repeat == 1 => seg,
            _ => {
                out.segments.push(ProgramSegment {
                    repeat: count,
                    ..ProgramSegment::default()
                });
                out.segments.last_mut().expect("just pushed")
            }
        };
        for (pi, pass) in body.iter().enumerate() {
            let mut bytes = 0u64;
            for (name, write) in [(&pass.input, false), (&pass.output, true)] {
                match session.extents.get(name.as_str()) {
                    Some(ext) => {
                        bytes = bytes.saturating_add(ext.len().get());
                        let req = if write {
                            Request::write(ext.start().get(), ext.len().get())
                        } else {
                            Request::read(ext.start().get(), ext.len().get())
                        };
                        seg.trace.push(req);
                    }
                    None => {
                        missing.entry(name).or_insert(());
                    }
                }
            }
            seg.phases.push(PhaseTraffic {
                line: spans.pass_header(flat + pi),
                input: pass.input.clone(),
                output: pass.output.clone(),
                bytes,
                accels: pass.comps.iter().map(|c| c.accel).collect(),
            });
        }
        out.invocations = out
            .invocations
            .saturating_add(count.saturating_mul(body.len() as u64));
        // Liveness needs two iterations, not all of them: every body
        // buffer is live at the end of the first (its last touch is in
        // the second), which is the live set of every middle iteration
        // of the unrolled loop, and the second ends as the last does.
        // One would not do — a buffer used only early in the body would
        // die before one first used late in it.
        for _ in 0..count.min(2) {
            for pass in body {
                touches.push(vec![&pass.input, &pass.output]);
            }
        }
        flat += body.len();
    }

    out.missing_extents = missing.keys().map(|s| (*s).to_string()).collect();
    out.peak_footprint = peak_live_footprint(session, &touches);
    out
}

/// First-touch-to-last-touch liveness over the event stream: the peak
/// is the largest sum of declared extents simultaneously live,
/// saturating at `u64::MAX` (extents are summed in `u128`, so a sum
/// past it never wraps to a small footprint).
fn peak_live_footprint(session: &Session, touches: &[Vec<&str>]) -> u64 {
    let mut first: BTreeMap<&str, usize> = BTreeMap::new();
    let mut last: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, event) in touches.iter().enumerate() {
        for name in event {
            first.entry(name).or_insert(i);
            last.insert(name, i);
        }
    }
    let mut peak = 0u128;
    let mut live = 0u128;
    for (i, event) in touches.iter().enumerate() {
        // Dedupe within the event so `in=a out=a` counts `a` once.
        let names: std::collections::BTreeSet<&str> = event.iter().copied().collect();
        for name in &names {
            if first.get(name) == Some(&i) {
                if let Some(ext) = session.extents.get(*name) {
                    live += u128::from(ext.len().get());
                }
            }
        }
        peak = peak.max(live);
        for name in &names {
            if last.get(name) == Some(&i) {
                if let Some(ext) = session.extents.get(*name) {
                    live -= u128::from(ext.len().get());
                }
            }
        }
    }
    u64::try_from(peak).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::parse_session;

    #[test]
    fn straight_line_program_elaborates_in_order() {
        let src = "BUF a 0x1000 256\nBUF b 0x2000 256\nPASS in=a out=b {\n  COMP FFT \
                   params=\"f\"\n}\n";
        let e = elaborate(&parse_session(src).unwrap());
        let trace = e.unrolled_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.addrs()[0], 0x1000);
        assert_eq!(trace.addrs()[1], 0x2000);
        assert_eq!(e.invocations, 1);
        assert_eq!(e.segments[0].phases[0].bytes, 512);
        assert!(e.missing_extents.is_empty());
        // Both buffers are live across the single pass.
        assert_eq!(e.peak_footprint, 512);
    }

    #[test]
    fn loops_are_kept_with_their_count() {
        let src = "BUF x 0x1000 128\nBUF y 0x2000 128\nLOOP 5 {\n  PASS in=x out=y {\n    COMP \
                   AXPY params=\"a\"\n  }\n}\n";
        let e = elaborate(&parse_session(src).unwrap());
        assert_eq!(e.invocations, 5);
        assert_eq!(e.segments.len(), 1);
        assert_eq!((e.segments[0].trace.len(), e.segments[0].repeat), (2, 5));
        assert_eq!(
            e.unrolled_trace().len(),
            10,
            "5 iterations x (read + write)"
        );
        let total: u64 = e.executions().map(|p| p.bytes).sum();
        assert_eq!(total, 5 * 256);
        assert_eq!(e.phases().map(|(p, n)| p.bytes * n).sum::<u64>(), total);
        // Footprint is iteration-independent.
        assert_eq!(e.peak_footprint, 256);
    }

    #[test]
    fn straight_line_passes_share_a_segment_between_loops() {
        let src = "BUF a 0 64\nBUF b 0x100 64\nPASS in=a out=b {\n  COMP FFT params=\"f\"\n}\n\
                   PASS in=b out=a {\n  COMP FFT params=\"f\"\n}\nLOOP 3 {\n  PASS in=a out=b \
                   {\n    COMP FFT params=\"f\"\n  }\n}\nPASS in=b out=a {\n  COMP FFT \
                   params=\"f\"\n}\n";
        let e = elaborate(&parse_session(src).unwrap());
        let shape: Vec<(usize, u64)> = e
            .segments
            .iter()
            .map(|s| (s.phases.len(), s.repeat))
            .collect();
        assert_eq!(shape, [(2, 1), (1, 3), (1, 1)]);
        assert_eq!(e.invocations, 6);
        let lines: Vec<Option<usize>> = e.executions().map(|p| p.line).collect();
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[2], lines[4], "iterations share their header line");
    }

    #[test]
    fn missing_extents_are_reported_not_guessed() {
        let src = "BUF a 0x1000 64\nPASS in=a out=b {\n  COMP DOT params=\"d\"\n}\n";
        let e = elaborate(&parse_session(src).unwrap());
        assert_eq!(e.missing_extents, vec!["b".to_string()]);
        assert_eq!(
            e.unrolled_trace().len(),
            1,
            "only the declared side is priced"
        );
    }

    #[test]
    fn dead_buffers_release_footprint() {
        // a feeds b, then c feeds d: a/b die before c/d go live.
        let src = "BUF a 0 1024\nBUF b 0x1000 1024\nBUF c 0x2000 4096\nBUF d 0x4000 \
                   4096\nPASS in=a out=b {\n  COMP FFT params=\"f\"\n}\nPASS in=c out=d {\n  COMP \
                   FFT params=\"f\"\n}\n";
        let e = elaborate(&parse_session(src).unwrap());
        assert_eq!(e.peak_footprint, 8192, "disjoint lifetimes do not stack");
    }

    #[test]
    fn footprints_past_u64_saturate() {
        let src = "BUF a 0 0x8000000000000000\nBUF b 0 0x8000000000000000\nPASS in=a out=b {\n  \
                   COMP FFT params=\"f\"\n}\n";
        let e = elaborate(&parse_session(src).unwrap());
        assert_eq!(e.peak_footprint, u64::MAX);
        assert_eq!(e.segments[0].phases[0].bytes, u64::MAX);
    }

    /// The peak footprint over the fully unrolled event stream: the
    /// liveness walk `elaborate` ran before it stopped at two
    /// iterations.
    fn unrolled_peak(session: &Session) -> u64 {
        let mut touches: Vec<Vec<&str>> = Vec::new();
        for (_, op) in &session.host_ops {
            if let HostOp::Write(b) | HostOp::Read(b) = op {
                touches.push(vec![b]);
            }
        }
        for item in &session.program.items {
            let (count, body) = match item {
                TdlItem::Pass(p) => (1u64, std::slice::from_ref(p)),
                TdlItem::Loop(l) => (l.count, l.body.as_slice()),
            };
            for _ in 0..count {
                for pass in body {
                    touches.push(vec![&pass.input, &pass.output]);
                }
            }
        }
        peak_live_footprint(session, &touches)
    }

    #[test]
    fn two_iterations_give_the_unrolled_footprint() {
        // A two-pass body: `early` is touched only by the first pass,
        // `late` first by the second. Unrolled, both are live together
        // in every middle iteration; one iteration would let `early`
        // die before `late` goes live.
        let src = "BUF early 0 0x1000\nBUF mid 0x1000 0x1000\nBUF late 0x2000 0x4000\nLOOP 4 {\n  \
                   PASS in=early out=mid {\n    COMP FFT params=\"f\"\n  }\n  PASS in=mid \
                   out=late {\n    COMP FFT params=\"f\"\n  }\n}\n";
        let session = parse_session(src).unwrap();
        assert_eq!(elaborate(&session).peak_footprint, 0x6000);
        assert_eq!(unrolled_peak(&session), 0x6000);

        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut checked = 0;
        for dir in ["corpus/bad", "corpus/clean", "../../examples/tdl"] {
            for entry in std::fs::read_dir(root.join(dir)).expect("corpus dir reads") {
                let path = entry.expect("dir entry").path();
                if path.extension().is_none_or(|e| e != "tdl") {
                    continue;
                }
                let src = std::fs::read_to_string(&path).expect("corpus file reads");
                let session = parse_session(&src).expect("corpus programs parse");
                assert_eq!(
                    elaborate(&session).peak_footprint,
                    unrolled_peak(&session),
                    "{}",
                    path.display()
                );
                checked += 1;
            }
        }
        assert!(checked >= 34, "expected the full corpus, got {checked}");
    }
}
