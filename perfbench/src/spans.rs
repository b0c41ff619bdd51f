//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call it
//! makes into a layer of the program: name, start, end, the enclosing
//! span, and one id (session, stream or file). Nothing is written until
//! the run ends, when [`Recorder::chrome_trace`] renders the spans as a
//! Chrome trace-event document. A disabled recorder keeps no state, so
//! the same instrumented code can run untraced to measure the tracing
//! overhead.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

use mealib_obs::json::{array, Object};

/// One closed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, `module.operation`.
    pub name: &'static str,
    /// The session, stream or file the span worked on.
    pub id: String,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span; `None` when the recorder is off.
#[must_use]
pub struct Open(Option<usize>);

/// Span recorder; see the module docs.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans when `on`, and does nothing otherwise.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: impl Display) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            id: id.to_string(),
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span, and returns
    /// its wall seconds (0 when the recorder is off).
    pub fn end(&mut self, open: Open) -> f64 {
        let Some(idx) = open.0 else {
            return 0.0;
        };
        assert_eq!(self.stack.pop(), Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = self.now_ns();
        self.spans[idx].secs()
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total wall seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Wall seconds of each span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self seconds per layer name: each span's duration minus the time
    /// its children cover. Spans on one thread never overlap their
    /// siblings, so the children's durations add up to that coverage.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// The spans as a Chrome trace-event document. Times are whole
    /// microseconds truncated from nanoseconds, so a child never ends
    /// after its parent in the rendered document either.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let ts = s.start_ns / 1000;
                let mut args = Object::new();
                args.int("span", i as u64).str("id", &s.id);
                if let Some(p) = s.parent {
                    args.int("parent", p as u64);
                }
                let mut o = Object::new();
                o.str("name", s.name)
                    .str("cat", s.name.split('.').next().unwrap_or(s.name))
                    .str("ph", "X")
                    .int("ts", ts)
                    .int("dur", s.end_ns / 1000 - ts)
                    .int("pid", 1)
                    .int("tid", 1)
                    .raw("args", args.render());
                o.render()
            })
            .collect();
        let mut doc = Object::new();
        doc.raw("traceEvents", array(&events));
        doc.str("displayTimeUnit", "ns");
        doc.render()
    }
}
