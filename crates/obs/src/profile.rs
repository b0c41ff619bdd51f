//! Time-resolved run profiles and the Chrome trace-event exporter.
//!
//! A [`Profile`] is the union of two time-resolved views of one modeled
//! run:
//!
//! * **phase intervals** ([`IntervalEvent`]) — `accel`/`runtime`/`host`
//!   phases (plan, flush, DMA, compute, drain) with start/end in
//!   modeled seconds, grouped into named tracks;
//! * **counter timelines** ([`TimelineTrack`]) — cycle-windowed
//!   [`Timeline`]s from the DRAM engine and the NoC, anchored to modeled
//!   time by a clock period and an origin.
//!
//! [`Profile::to_chrome_trace`] renders both as Chrome trace-event JSON
//! (the `{"traceEvents": [...]}` dialect Perfetto and `chrome://tracing`
//! load directly): intervals become `"X"` complete events, timeline
//! windows become `"C"` counter series, and each track gets a
//! `thread_name` metadata record. [`validate_chrome_trace`] is the
//! round-trip checker: it re-parses an emitted document with
//! [`crate::json`] and verifies that spans nest without partial overlap
//! on every track.

use std::collections::HashMap;
use std::fmt::Write as _;

use mealib_types::Seconds;

use crate::json::{parse, write_escaped, write_f64, Value};
use crate::timeline::Timeline;
use crate::Phase;

/// One phase occupancy interval on a named track, in modeled time.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalEvent {
    /// Track (rendered as a Perfetto thread) the interval belongs to.
    pub track: String,
    /// Phase taxonomy bucket (becomes the event category).
    pub phase: Phase,
    /// Human-readable label (becomes the event name).
    pub label: String,
    /// Start of the interval in modeled time.
    pub start: Seconds,
    /// End of the interval in modeled time (`end >= start`).
    pub end: Seconds,
}

impl IntervalEvent {
    /// Interval duration.
    pub fn duration(&self) -> Seconds {
        Seconds::new((self.end.get() - self.start.get()).max(0.0))
    }
}

/// A cycle-windowed [`Timeline`] anchored to modeled time.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineTrack {
    /// Track name, e.g. `"dram:fftw"`.
    pub name: String,
    /// The windowed counters.
    pub timeline: Timeline,
    /// Duration of one producer cycle (the engine's `t_ck`).
    pub cycle_time: Seconds,
    /// Modeled time of the producer's cycle 0.
    pub origin: Seconds,
}

impl TimelineTrack {
    /// Modeled start time of window `w`.
    pub fn window_start(&self, w: u64) -> Seconds {
        let cycles = w as f64 * self.timeline.window_cycles() as f64;
        Seconds::new(self.origin.get() + cycles * self.cycle_time.get())
    }

    /// Modeled duration of one window.
    pub fn window_duration(&self) -> Seconds {
        Seconds::new(self.timeline.window_cycles() as f64 * self.cycle_time.get())
    }

    /// Modeled end time of the last populated window.
    pub fn end_time(&self) -> Seconds {
        self.window_start(self.timeline.num_windows())
    }
}

/// A complete time-resolved profile of one modeled run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Profile {
    /// Phase intervals, any track order.
    pub intervals: Vec<IntervalEvent>,
    /// Counter timelines, any order.
    pub timelines: Vec<TimelineTrack>,
}

impl Profile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one interval; returns the new cursor (`end`), so callers
    /// can lay out sequential phases without bookkeeping.
    pub fn interval(
        &mut self,
        track: &str,
        phase: Phase,
        label: &str,
        start: Seconds,
        duration: Seconds,
    ) -> Seconds {
        let end = Seconds::new(start.get() + duration.get().max(0.0));
        if duration.get() > 0.0 {
            self.intervals.push(IntervalEvent {
                track: track.to_string(),
                phase,
                label: label.to_string(),
                start,
                end,
            });
        }
        end
    }

    /// Appends a timeline track.
    pub fn push_timeline(
        &mut self,
        name: &str,
        timeline: Timeline,
        cycle_time: Seconds,
        origin: Seconds,
    ) {
        self.timelines.push(TimelineTrack {
            name: name.to_string(),
            timeline,
            cycle_time,
            origin,
        });
    }

    /// Builds a single-track profile from an end-of-run [`crate::Breakdown`]:
    /// one interval per nonzero phase, laid out sequentially in taxonomy
    /// order. This is the coarse fallback every harness can afford; rich
    /// profiles add real interval structure on top.
    pub fn from_breakdown(bd: &crate::Breakdown, track: &str) -> Self {
        let mut p = Profile::new();
        let mut cursor = Seconds::new(0.0);
        for phase in Phase::ALL {
            let cost = bd.phase(phase);
            if cost.time.get() > 0.0 {
                cursor = p.interval(track, phase, phase.name(), cursor, cost.time);
            }
        }
        p
    }

    /// Merges another profile's events into this one.
    pub fn merge(&mut self, other: Profile) {
        self.intervals.extend(other.intervals);
        self.timelines.extend(other.timelines);
    }

    /// The latest modeled time covered by any interval or timeline
    /// window (zero for an empty profile).
    pub fn end_time(&self) -> Seconds {
        let mut end: f64 = 0.0;
        for iv in &self.intervals {
            end = end.max(iv.end.get());
        }
        for tl in &self.timelines {
            end = end.max(tl.end_time().get());
        }
        Seconds::new(end)
    }

    /// Track names in first-appearance order: interval tracks first,
    /// then timeline tracks.
    pub fn track_names(&self) -> Vec<String> {
        self.track_ids().0.into_iter().map(str::to_string).collect()
    }

    /// Track names in first-appearance order, and each track's
    /// Chrome-trace `tid` (its position in that order, plus one).
    fn track_ids(&self) -> (Vec<&str>, HashMap<&str, u64>) {
        let mut names = Vec::new();
        let mut tids = HashMap::new();
        let all = self.intervals.iter().map(|iv| iv.track.as_str());
        for name in all.chain(self.timelines.iter().map(|tl| tl.name.as_str())) {
            tids.entry(name).or_insert_with(|| {
                names.push(name);
                names.len() as u64
            });
        }
        (names, tids)
    }

    /// Renders the profile as a Chrome trace-event JSON document.
    ///
    /// Layout: one process (`pid` 1), one thread per track with a
    /// `thread_name` metadata event; intervals are `"X"` complete events
    /// (`ts`/`dur` in microseconds of modeled time, category = phase);
    /// timeline windows are `"C"` counter events carrying the full
    /// [`crate::timeline::WindowCounters`] key set, summed across lanes.
    ///
    /// Events are written straight into one buffer, and each track's
    /// `tid` is resolved once.
    pub fn to_chrome_trace(&self) -> String {
        let (tracks, tids) = self.track_ids();
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut open = |out: &mut String, name: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            write_escaped(out, name);
            out.push('"');
        };

        for (i, name) in tracks.iter().enumerate() {
            open(&mut out, "thread_name");
            let _ = write!(
                out,
                ",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"",
                i + 1
            );
            write_escaped(&mut out, name);
            out.push_str("\"}}");
        }

        for iv in &self.intervals {
            open(&mut out, &iv.label);
            out.push_str(",\"cat\":\"");
            write_escaped(&mut out, iv.phase.name());
            let _ = write!(
                out,
                "\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":",
                tids[iv.track.as_str()]
            );
            write_f64(&mut out, iv.start.as_micros());
            out.push_str(",\"dur\":");
            write_f64(&mut out, iv.duration().as_micros());
            out.push('}');
        }

        for tl in &self.timelines {
            let tid = tids[tl.name.as_str()];
            for w in 0..tl.timeline.num_windows() {
                open(&mut out, &tl.name);
                let _ = write!(
                    out,
                    ",\"cat\":\"timeline\",\"ph\":\"C\",\"pid\":1,\"tid\":{tid},\"ts\":"
                );
                write_f64(&mut out, tl.window_start(w).as_micros());
                out.push_str(",\"args\":");
                out.push_str(&tl.timeline.window_total(w).to_json());
                out.push('}');
            }
        }

        out.push_str("],\"displayTimeUnit\":\"ns\"}");
        out
    }
}

/// Summary returned by a successful [`validate_chrome_trace`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Total events in the document.
    pub events: usize,
    /// `"X"` complete (span) events.
    pub spans: usize,
    /// `"C"` counter events.
    pub counters: usize,
    /// Distinct `(pid, tid)` tracks observed.
    pub tracks: usize,
}

/// Round-trip checker for an emitted Chrome trace-event document.
///
/// Verifies that the document parses with the dependency-free
/// [`crate::json`] parser, that `traceEvents` is an array of objects with
/// the required fields per phase type, and that on every `(pid, tid)`
/// track the `"X"` spans nest properly — a span may contain another, but
/// partial overlap is a violation.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(doc: &str) -> Result<ChromeTraceSummary, String> {
    let v = parse(doc)?;
    let obj = v.as_object().ok_or("trace document is not an object")?;
    let events = obj
        .get("traceEvents")
        .ok_or("missing traceEvents")?
        .as_array()
        .ok_or("traceEvents is not an array")?;

    // (pid, tid) -> list of (ts, dur) spans.
    let mut spans_by_track: std::collections::BTreeMap<(u64, u64), Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    let mut spans = 0usize;
    let mut counters = 0usize;
    let mut tracks = std::collections::BTreeSet::new();

    for (i, ev) in events.iter().enumerate() {
        let ev = ev
            .as_object()
            .ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i} missing ph"))?;
        if ev.get("name").and_then(Value::as_str).is_none() {
            return Err(format!("event {i} missing name"));
        }
        let num = |key: &str| ev.get(key).and_then(Value::as_f64);
        let track = (
            num("pid").unwrap_or(0.0) as u64,
            num("tid").unwrap_or(0.0) as u64,
        );
        match ph {
            "X" => {
                let ts = num("ts").ok_or_else(|| format!("event {i} missing ts"))?;
                let dur = num("dur").ok_or_else(|| format!("event {i} missing dur"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i} has negative ts or dur"));
                }
                spans_by_track.entry(track).or_default().push((ts, dur));
                tracks.insert(track);
                spans += 1;
            }
            "C" => {
                let ts = num("ts").ok_or_else(|| format!("event {i} missing ts"))?;
                if ts < 0.0 {
                    return Err(format!("event {i} has negative ts"));
                }
                if ev.get("args").and_then(Value::as_object).is_none() {
                    return Err(format!("counter event {i} missing args object"));
                }
                tracks.insert(track);
                counters += 1;
            }
            "M" => {}
            other => return Err(format!("event {i} has unsupported ph {other:?}")),
        }
    }

    // Per-track nesting: sort by (ts asc, dur desc) and sweep with a
    // stack of open span ends. A span starting before the innermost open
    // span ends must also finish by then.
    const EPS: f64 = 1e-9;
    for ((pid, tid), mut track_spans) in spans_by_track {
        track_spans.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal))
        });
        let mut open: Vec<f64> = Vec::new();
        for (ts, dur) in track_spans {
            while open.last().is_some_and(|&end| end <= ts + EPS) {
                open.pop();
            }
            let end = ts + dur;
            if let Some(&enclosing) = open.last() {
                if end > enclosing + EPS {
                    return Err(format!(
                        "track ({pid},{tid}): span [{ts}, {end}) partially overlaps \
                         enclosing span ending at {enclosing}"
                    ));
                }
            }
            open.push(end);
        }
    }

    Ok(ChromeTraceSummary {
        events: events.len(),
        spans,
        counters,
        tracks: tracks.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::WindowCounters;

    fn s(x: f64) -> Seconds {
        Seconds::new(x)
    }

    #[test]
    fn sequential_intervals_export_and_validate() {
        let mut p = Profile::new();
        let c = p.interval("cu", Phase::Dma, "fetch", s(0.0), s(1e-6));
        let c = p.interval("cu", Phase::Plan, "decode", c, s(2e-6));
        p.interval("cu", Phase::Compute, "pass0", c, s(5e-6));
        let doc = p.to_chrome_trace();
        let summary = validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(summary.spans, 3);
        assert_eq!(summary.tracks, 1);
        assert!((p.end_time().get() - 8e-6).abs() < 1e-18);
    }

    #[test]
    fn zero_length_intervals_are_dropped() {
        let mut p = Profile::new();
        p.interval("cu", Phase::Dma, "empty", s(0.0), s(0.0));
        assert!(p.intervals.is_empty());
    }

    #[test]
    fn timeline_windows_become_counter_events() {
        let mut tl = Timeline::new(100);
        tl.record(
            50,
            0,
            &WindowCounters {
                bytes_read: 640,
                ..WindowCounters::default()
            },
        );
        tl.record(
            150,
            1,
            &WindowCounters {
                bytes_written: 320,
                ..WindowCounters::default()
            },
        );
        let mut p = Profile::new();
        p.push_timeline("dram", tl, Seconds::from_nanos(1.0), s(0.0));
        let doc = p.to_chrome_trace();
        let summary = validate_chrome_trace(&doc).expect("valid trace");
        assert_eq!(summary.counters, 2);
    }

    #[test]
    fn nested_spans_validate_but_partial_overlap_fails() {
        let mut p = Profile::new();
        p.intervals.push(IntervalEvent {
            track: "t".into(),
            phase: Phase::Compute,
            label: "outer".into(),
            start: s(0.0),
            end: s(10e-6),
        });
        p.intervals.push(IntervalEvent {
            track: "t".into(),
            phase: Phase::Dma,
            label: "inner".into(),
            start: s(2e-6),
            end: s(4e-6),
        });
        validate_chrome_trace(&p.to_chrome_trace()).expect("nesting is legal");

        p.intervals.push(IntervalEvent {
            track: "t".into(),
            phase: Phase::Dma,
            label: "straddler".into(),
            start: s(8e-6),
            end: s(12e-6),
        });
        let err = validate_chrome_trace(&p.to_chrome_trace()).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    /// The Object-per-event rendering the buffer writer replaced, kept
    /// as the byte oracle.
    fn reference_chrome_trace(p: &Profile) -> String {
        use crate::json::{array, Object};
        let tracks = p.track_names();
        let tid_of = |name: &str| tracks.iter().position(|t| t == name).unwrap() as u64 + 1;
        let mut events = Vec::new();
        for name in &tracks {
            let mut args = Object::new();
            args.str("name", name);
            let mut o = Object::new();
            o.str("name", "thread_name");
            o.str("ph", "M");
            o.int("pid", 1);
            o.int("tid", tid_of(name));
            o.raw("args", args.render());
            events.push(o.render());
        }
        for iv in &p.intervals {
            let mut o = Object::new();
            o.str("name", &iv.label);
            o.str("cat", iv.phase.name());
            o.str("ph", "X");
            o.int("pid", 1);
            o.int("tid", tid_of(&iv.track));
            o.num("ts", iv.start.as_micros());
            o.num("dur", iv.duration().as_micros());
            events.push(o.render());
        }
        for tl in &p.timelines {
            for w in 0..tl.timeline.num_windows() {
                let mut o = Object::new();
                o.str("name", &tl.name);
                o.str("cat", "timeline");
                o.str("ph", "C");
                o.int("pid", 1);
                o.int("tid", tid_of(&tl.name));
                o.num("ts", tl.window_start(w).as_micros());
                o.raw("args", tl.timeline.window_total(w).to_json());
                events.push(o.render());
            }
        }
        let mut doc = Object::new();
        doc.raw("traceEvents", array(&events));
        doc.str("displayTimeUnit", "ns");
        doc.render()
    }

    #[test]
    fn writer_matches_the_object_rendering_byte_for_byte() {
        let empty = Profile::new();
        assert_eq!(empty.to_chrome_trace(), reference_chrome_trace(&empty));

        let mut p = Profile::new();
        let c = p.interval("cu \"0\"", Phase::Dma, "fetch\\n", s(0.0), s(1e-6));
        p.interval("host", Phase::Plan, "tab\tline\nctl\u{1}", s(3e-7), s(2.5));
        p.interval("cu \"0\"", Phase::Compute, "pass0", c, s(5e-6 / 3.0));
        let mut tl = Timeline::new(100);
        for (cycle, lane) in [(50, 0), (150, 1), (450, 0)] {
            let counters = WindowCounters {
                bytes_read: 64 * cycle,
                row_misses: cycle / 7,
                ..WindowCounters::default()
            };
            tl.record(cycle, lane, &counters);
        }
        p.push_timeline("host", tl.clone(), Seconds::from_nanos(1.25), s(1e-3));
        p.push_timeline("dram", tl, Seconds::from_nanos(1.0), s(0.0));
        let doc = p.to_chrome_trace();
        assert_eq!(doc, reference_chrome_trace(&p));
        validate_chrome_trace(&doc).expect("valid trace");
    }

    #[test]
    fn garbage_documents_are_rejected() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": 3}"#).is_err());
        assert!(validate_chrome_trace(r#"{"traceEvents": [{"ph": "X", "name": "x"}]}"#).is_err());
    }

    #[test]
    fn from_breakdown_lays_phases_out_sequentially() {
        let mut bd = crate::Breakdown::new();
        bd.add_phase(
            Phase::Dma,
            Seconds::from_micros(3.0),
            mealib_types::Joules::new(1e-6),
        );
        bd.add_phase(
            Phase::Compute,
            Seconds::from_micros(7.0),
            mealib_types::Joules::new(2e-6),
        );
        let p = Profile::from_breakdown(&bd, "run");
        assert_eq!(p.intervals.len(), 2);
        assert!((p.end_time().as_micros() - 10.0).abs() < 1e-9);
        validate_chrome_trace(&p.to_chrome_trace()).expect("valid");
    }
}
