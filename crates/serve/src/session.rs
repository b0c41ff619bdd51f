//! Session requests, their terminal dispositions, and the class
//! catalogue the traffic generator draws from.
//!
//! A *class* is one of the evaluation pipelines
//! ([`mealib_workloads::sessions::pipeline_sessions`]) expressed as a
//! canonical analysis session; a *session request* is one arriving
//! instance of a class with a tenant-visible time budget. The
//! catalogue parses each class body once ([`ClassBody`]) and caches
//! its geometry: the byte span a slot must cover and the exact trace
//! bytes the class emits (the conservation tests reconcile scheduler
//! output against the latter). The admission gate rebases the parsed
//! session into whatever partition slot a candidate is offered
//! ([`Session::rebase`]), so no class body is parsed or rendered again
//! while serving.

use std::collections::BTreeMap;
use std::sync::Arc;

use mealib_tdl::ParseError;
use mealib_types::{AddrRange, Bytes, ErrorCode, PhysAddr};
use mealib_verify::dataflow::{parse_session, Session};
use mealib_verify::BoundsEnv;
use mealib_workloads::sessions::pipeline_sessions;

use crate::admission::{AdmissionGate, Resident};

/// Smallest partition slot ever offered: keeps a generous guard band
/// between tenants regardless of session size (same convention as the
/// `tenant_mix` harness).
pub const MIN_SLOT: u64 = 1 << 22;

/// A class body parsed once. Manifests render its text, the admission
/// gate rebases its session into each resident's slot, and every
/// resident of a catalogue class shares one `ClassBody` — the identity
/// the gate's certification memo keys on.
#[derive(Debug)]
pub struct ClassBody {
    text: String,
    session: Session,
    lines: usize,
}

impl ClassBody {
    /// Parses `text` as one tenant's section of a session-set manifest:
    /// a session without a `MEM` directive (the layer is the set's).
    ///
    /// # Errors
    ///
    /// Returns the [`ParseError`] of [`parse_session`], or one naming
    /// the line of a `MEM` directive.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let session = parse_session(text)?;
        if let Some((line, _)) = session.mem_layer {
            return Err(ParseError::Unexpected {
                expected: "MEM in the manifest header (the layer is shared)".into(),
                found: "a tenant-level MEM directive".into(),
                line,
            });
        }
        Ok(Self {
            text: text.to_string(),
            session,
            lines: text.lines().count(),
        })
    }

    /// The canonical body text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The canonical body, parsed.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The highest extent end: the byte span a partition slot must
    /// cover to contain the body.
    pub fn span(&self) -> u64 {
        let ends = self.session.extents.values().map(|e| e.end().get());
        ends.max().unwrap_or(0)
    }

    /// The sum of extent lengths: the resident working set, as opposed
    /// to [`span`](Self::span), which also counts alignment holes.
    pub fn working_set(&self) -> u64 {
        let lens = self.session.extents.values().map(|e| e.len().get());
        lens.fold(0, u64::saturating_add)
    }

    /// The body moved up by `offset` bytes, as text. Each `BUF` line is
    /// rendered from [`Session::rebase`]'s extent as
    /// `BUF name 0x{start:x} 0x{len:x}`; every other line is kept as it
    /// is, so the line count is unchanged. Returns `None` when a moved
    /// extent would pass the top of the address space.
    pub fn text_at(&self, offset: u64) -> Option<String> {
        let session = self.session.rebase(offset)?;
        let mut out = String::with_capacity(self.text.len());
        for line in self.text.lines() {
            let mut toks = line.split_whitespace();
            if toks.next() == Some("BUF") {
                // A parsed body's `BUF` lines have exactly four tokens.
                let name = toks.next()?;
                let ext = session.extents.get(name)?;
                let (start, len) = (ext.start().get(), ext.len().get());
                out.push_str(&format!("BUF {name} 0x{start:x} 0x{len:x}\n"));
            } else {
                out.push_str(line);
                out.push('\n');
            }
        }
        Some(out)
    }

    /// Manifest lines the body takes, at any slot: rebasing rewrites
    /// `BUF` lines in place.
    pub(crate) fn lines(&self) -> usize {
        self.lines
    }
}

/// One class of the serving catalogue: a canonical session body plus
/// the geometry the scheduler needs to place and account for it.
#[derive(Debug, Clone)]
pub struct SessionClass {
    /// Class name (the pipeline session's name).
    pub name: String,
    /// Canonical session body (buffers laid out from the exporter's
    /// small base).
    pub body: String,
    /// `body`, parsed once and shared by every resident of the class.
    pub parsed: Arc<ClassBody>,
    /// Power-of-two slot size a partition must provide.
    pub slot: u64,
    /// Exact trace bytes one instance moves (read + write, over
    /// declared extents).
    pub trace_bytes: u64,
    /// Certified solo elapsed interval `[lo, hi]` in seconds: the
    /// class run alone in its slot under the default environment. The
    /// traffic generator prices budgets off these endpoints.
    pub solo_elapsed: (f64, f64),
}

/// The class catalogue: every pipeline session, keyed by name, with
/// cached geometry and solo bounds.
#[derive(Debug, Clone)]
pub struct Catalogue {
    classes: BTreeMap<String, SessionClass>,
}

impl Catalogue {
    /// Builds the catalogue from the evaluation pipelines under `env`.
    ///
    /// # Panics
    ///
    /// Panics if a pipeline session fails to parse or certify — the
    /// exporters and the environment presets are both in-tree, so
    /// that is a bug, not an input condition.
    pub fn standard(env: &BoundsEnv) -> Self {
        let mut gate = AdmissionGate::new(env.clone());
        let mut classes = BTreeMap::new();
        for (name, body) in pipeline_sessions() {
            let parsed = Arc::new(ClassBody::parse(&body).expect("catalogue sessions parse"));
            let slot = parsed.span().next_power_of_two().max(MIN_SLOT);
            // Solo bounds: the class as a single-tenant set in a slot
            // at base 0 (the canonical layout already fits it).
            let solo = Resident {
                request: SessionRequest {
                    id: 0,
                    class: name.clone(),
                    arrival_epoch: 0,
                    time_budget_s: None,
                },
                partition: AddrRange::new(PhysAddr::new(0), Bytes::new(slot)),
                arrival_slot: 0,
                body: Arc::clone(&parsed),
            };
            let t = &gate.certify(&[solo]).1.tenants[0];
            // Composed traffic is exact, so the solo tenant's bytes are
            // the class's trace bytes.
            let trace_bytes = (t.bytes_read.lo + t.bytes_written.lo) as u64;
            classes.insert(
                name.clone(),
                SessionClass {
                    name,
                    body,
                    parsed,
                    slot,
                    trace_bytes,
                    solo_elapsed: (t.elapsed.lo, t.elapsed.hi),
                },
            );
        }
        Self { classes }
    }

    /// The class named `name`.
    pub fn get(&self, name: &str) -> Option<&SessionClass> {
        self.classes.get(name)
    }

    /// All classes in name order.
    pub fn classes(&self) -> impl Iterator<Item = &SessionClass> {
        self.classes.values()
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` when the catalogue is empty (never for
    /// [`Catalogue::standard`]).
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// One arriving session: an instance of a class with a declared
/// per-tenant time budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Unique id, assigned by the traffic generator in arrival order.
    pub id: u64,
    /// Catalogue class this session runs.
    pub class: String,
    /// Scheduling epoch the session arrives in.
    pub arrival_epoch: u64,
    /// Declared per-tenant time budget in seconds (`None` = best
    /// effort; always admitted-if-isolated, never latency-certified).
    pub time_budget_s: Option<f64>,
}

/// Why a session was shed instead of completed or rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The wait queue was at capacity when the session arrived
    /// (tail-drop: the *incoming* session is shed, residents keep
    /// their place).
    QueueFull,
    /// The session exhausted its retry budget without the certifier
    /// ever proving a violation (UNKNOWN verdicts or no partition
    /// space under the retry policy).
    RetriesExhausted,
    /// The configured [`UnknownPolicy`](crate::UnknownPolicy) sheds
    /// undecidable candidates immediately, or the session can never be
    /// placed at all (its slot exceeds the partition table).
    Undecidable,
    /// The run hit its drain deadline (`max_epochs`) with the session
    /// still queued.
    DrainDeadline,
}

impl ShedReason {
    /// Stable lowercase label for logs and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::RetriesExhausted => "retries_exhausted",
            ShedReason::Undecidable => "undecidable",
            ShedReason::DrainDeadline => "drain_deadline",
        }
    }
}

/// A session that ran to completion, with its exact attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedSession {
    /// The request's id.
    pub id: u64,
    /// The request's class.
    pub class: String,
    /// Epoch the session was admitted (and ran) in.
    pub admitted_epoch: u64,
    /// Modeled queueing delay: clock at admission minus clock at
    /// arrival.
    pub queue_delay_s: f64,
    /// Modeled service time: the tenant's attributed completion in its
    /// epoch replay.
    pub service_s: f64,
    /// Bytes the tenant's own requests moved (exact, from the tagged
    /// engine).
    pub bytes: u64,
    /// DRAM energy attributed to the tenant, in joules.
    pub energy_j: f64,
    /// The partition slot the session ran in.
    pub partition: AddrRange,
    /// The certified elapsed floor the admission proved
    /// (`certified_elapsed_lo <= service_s` always — the telemetry's
    /// certified-bounds monitor checks both ends of the interval).
    pub certified_elapsed_lo: f64,
    /// The certified elapsed ceiling the admission proved
    /// (`service_s <= certified_elapsed_hi` always).
    pub certified_elapsed_hi: f64,
    /// Admission attempts before this one succeeded.
    pub retries: u32,
}

impl CompletedSession {
    /// End-to-end modeled latency: queueing delay plus service.
    pub fn latency_s(&self) -> f64 {
        self.queue_delay_s + self.service_s
    }

    /// Attributed bandwidth over the service interval, bytes/second.
    pub fn bandwidth(&self) -> f64 {
        if self.service_s > 0.0 {
            self.bytes as f64 / self.service_s
        } else {
            0.0
        }
    }
}

/// A session the certifier *proved* could not be admitted.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectedSession {
    /// The request's id.
    pub id: u64,
    /// The request's class.
    pub class: String,
    /// Epoch of the final (terminal) rejection.
    pub epoch: u64,
    /// The MEA3xx codes `certify_set` proved on the last attempt —
    /// never empty: a REJECT verdict always carries its proof.
    pub codes: Vec<ErrorCode>,
    /// Admission attempts made (including the terminal one).
    pub retries: u32,
}

/// A session dropped by policy rather than proof.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedSession {
    /// The request's id.
    pub id: u64,
    /// The request's class.
    pub class: String,
    /// Epoch the shed happened in.
    pub epoch: u64,
    /// Which policy shed it.
    pub reason: ShedReason,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_body_rejects_a_tenant_level_mem_directive() {
        let err = ClassBody::parse("BUF a 0x1000 0x10\nMEM XOR\n").unwrap_err();
        assert!(
            matches!(err, ParseError::Unexpected { line: 2, .. }),
            "{err:?}"
        );
        let ok = ClassBody::parse("BUF a 0x1000 0x10\nBUF b 0x2000 0x10\n").unwrap();
        assert_eq!(ok.lines(), 2);
        assert_eq!(ok.session().extents.len(), 2);
    }

    #[test]
    fn catalogue_covers_every_pipeline_with_sane_geometry() {
        let cat = Catalogue::standard(&BoundsEnv::default());
        assert_eq!(cat.len(), pipeline_sessions().len());
        assert!(!cat.is_empty());
        for class in cat.classes() {
            assert!(class.slot.is_power_of_two());
            assert!(class.slot >= MIN_SLOT);
            assert!(class.slot >= class.parsed.span());
            // The exported extents are disjoint, at least two, and
            // their working set fits inside the span (holes only add).
            let extents: Vec<&AddrRange> = class.parsed.session().extents.values().collect();
            assert!(extents.len() >= 2, "{}: expected buffers", class.name);
            for (i, a) in extents.iter().enumerate() {
                for b in &extents[i + 1..] {
                    assert!(!a.overlaps(b), "{}: {a:?} overlaps {b:?}", class.name);
                }
            }
            let ws = class.parsed.working_set();
            assert!(0 < ws && ws <= class.parsed.span(), "{}", class.name);
            assert!(class.trace_bytes > 0, "{}", class.name);
            assert_eq!(class.parsed.text(), class.body);
            // The composed solo bytes stand in for the elaborated trace.
            let e = mealib_verify::bounds::elaborate(class.parsed.session());
            assert_eq!(
                class.trace_bytes,
                e.unrolled_trace().total_bytes(),
                "{}",
                class.name
            );
            let (lo, hi) = class.solo_elapsed;
            assert!(0.0 < lo && lo <= hi, "{}: [{lo}, {hi}]", class.name);
        }
        assert!(cat.get("stap-tiny").is_some());
        assert!(cat.get("no-such-class").is_none());
    }

    #[test]
    fn text_at_parses_to_the_rebased_session() {
        for (name, body) in pipeline_sessions() {
            let parsed = ClassBody::parse(&body).unwrap();
            assert_eq!(
                parsed.text_at(0).as_deref(),
                Some(body.as_str()),
                "{name}: zero shift is identity"
            );
            let off = 1u64 << 24;
            let moved = parsed.text_at(off).unwrap();
            assert_eq!(moved.lines().count(), parsed.lines(), "{name}");
            let reparsed = ClassBody::parse(&moved).unwrap();
            let rebased = parsed.session().rebase(off).unwrap();
            assert_eq!(reparsed.session().extents, rebased.extents, "{name}");
            assert_eq!(reparsed.span(), parsed.span() + off, "{name}");
            assert_eq!(reparsed.working_set(), parsed.working_set(), "{name}");
            assert_eq!(parsed.text_at(u64::MAX), None, "{name}");
        }
        // Decimal operands are read as decimal and rendered in hex.
        let body = ClassBody::parse("BUF a 4096 16\nBUF b 0x2000 0x10\n").unwrap();
        assert_eq!(body.span(), 0x2010);
        assert_eq!(body.working_set(), 32);
        assert_eq!(
            body.text_at(0x10).as_deref(),
            Some("BUF a 0x1010 0x10\nBUF b 0x2010 0x10\n")
        );
    }

    #[test]
    fn completed_session_derives_latency_and_bandwidth() {
        let done = CompletedSession {
            id: 1,
            class: "stap-tiny".into(),
            admitted_epoch: 3,
            queue_delay_s: 0.5,
            service_s: 0.25,
            bytes: 1 << 20,
            energy_j: 0.1,
            partition: AddrRange::new(PhysAddr::new(0), Bytes::new(MIN_SLOT)),
            certified_elapsed_lo: 0.1,
            certified_elapsed_hi: 0.3,
            retries: 0,
        };
        assert!((done.latency_s() - 0.75).abs() < 1e-12);
        assert!((done.bandwidth() - (1u64 << 20) as f64 / 0.25).abs() < 1e-6);
    }

    #[test]
    fn shed_reason_labels_are_stable() {
        assert_eq!(ShedReason::QueueFull.label(), "queue_full");
        assert_eq!(ShedReason::DrainDeadline.label(), "drain_deadline");
    }
}
