//! Typed scheduler decisions.
//!
//! [`DecisionEvent`] replaces the report's old free-form
//! `Vec<String>` decision log with one variant per decision site in
//! the epoch loop. The `Display` impl reproduces the legacy log lines
//! byte for byte — `ServeReport::fingerprint` and every text consumer
//! see exactly the strings they always did — while
//! [`DecisionEvent::to_json`] gives the telemetry layer a structured
//! serialization through `mealib-obs::json` (REJECT events carry
//! their proved MEA3xx codes as a real array, not a substring).

use std::fmt;

use mealib_obs::json::{array, Object};
use mealib_types::ErrorCode;

use crate::session::ShedReason;

/// One scheduler decision, in epoch-loop order.
#[derive(Debug, Clone, PartialEq)]
pub enum DecisionEvent {
    /// The certifier proved the batch and the session was placed.
    Admit {
        /// Epoch of the decision.
        epoch: u64,
        /// Session id.
        id: u64,
        /// Session class.
        class: String,
        /// Partition slot base address.
        part_start: u64,
        /// Partition slot length, bytes.
        part_len: u64,
        /// 1-based admission attempt that succeeded.
        attempt: u32,
    },
    /// Terminal REJECT carrying the MEA3xx proof.
    Reject {
        /// Epoch of the decision.
        epoch: u64,
        /// Session id.
        id: u64,
        /// The proof: every violated-bound code the certifier emitted.
        codes: Vec<ErrorCode>,
        /// Total admission attempts spent.
        attempts: u32,
    },
    /// Non-terminal REJECT: parked with exponential backoff.
    Backoff {
        /// Epoch of the decision.
        epoch: u64,
        /// Session id.
        id: u64,
        /// Epoch the session becomes eligible again.
        until_epoch: u64,
        /// 1-based attempt that failed.
        attempt: u32,
    },
    /// UNKNOWN verdict under the retry policy: parked for a smaller
    /// batch later.
    UnknownRetry {
        /// Epoch of the decision.
        epoch: u64,
        /// Session id.
        id: u64,
        /// Epoch the session becomes eligible again.
        retry_epoch: u64,
        /// 1-based attempt that was undecidable.
        attempt: u32,
    },
    /// Policy shed after one or more admission attempts
    /// (undecidable under the shed policy, or retries exhausted).
    ShedPolicy {
        /// Epoch of the decision.
        epoch: u64,
        /// Session id.
        id: u64,
        /// Why the session was shed.
        reason: ShedReason,
        /// Total admission attempts spent.
        attempts: u32,
    },
    /// Arrival shed: the class slot exceeds device capacity, so the
    /// session can never be placed.
    ShedSlot {
        /// Epoch of the decision.
        epoch: u64,
        /// Session id.
        id: u64,
    },
    /// Arrival shed: the wait queue was full (tail drop).
    ShedQueueFull {
        /// Epoch of the decision.
        epoch: u64,
        /// Session id.
        id: u64,
    },
    /// Drain-deadline shed: the run hit `max_epochs` with the session
    /// still unserved.
    ShedDrain {
        /// Epoch of the decision.
        epoch: u64,
        /// Session id.
        id: u64,
    },
}

impl DecisionEvent {
    /// The epoch the decision was made in.
    pub fn epoch(&self) -> u64 {
        match *self {
            DecisionEvent::Admit { epoch, .. }
            | DecisionEvent::Reject { epoch, .. }
            | DecisionEvent::Backoff { epoch, .. }
            | DecisionEvent::UnknownRetry { epoch, .. }
            | DecisionEvent::ShedPolicy { epoch, .. }
            | DecisionEvent::ShedSlot { epoch, .. }
            | DecisionEvent::ShedQueueFull { epoch, .. }
            | DecisionEvent::ShedDrain { epoch, .. } => epoch,
        }
    }

    /// The session the decision concerns.
    pub fn id(&self) -> u64 {
        match *self {
            DecisionEvent::Admit { id, .. }
            | DecisionEvent::Reject { id, .. }
            | DecisionEvent::Backoff { id, .. }
            | DecisionEvent::UnknownRetry { id, .. }
            | DecisionEvent::ShedPolicy { id, .. }
            | DecisionEvent::ShedSlot { id, .. }
            | DecisionEvent::ShedQueueFull { id, .. }
            | DecisionEvent::ShedDrain { id, .. } => id,
        }
    }

    /// Stable snake_case kind tag used in JSON.
    pub fn kind(&self) -> &'static str {
        match self {
            DecisionEvent::Admit { .. } => "admit",
            DecisionEvent::Reject { .. } => "reject",
            DecisionEvent::Backoff { .. } => "backoff",
            DecisionEvent::UnknownRetry { .. } => "unknown_retry",
            DecisionEvent::ShedPolicy { .. } => "shed_policy",
            DecisionEvent::ShedSlot { .. } => "shed_slot",
            DecisionEvent::ShedQueueFull { .. } => "shed_queue_full",
            DecisionEvent::ShedDrain { .. } => "shed_drain",
        }
    }

    /// Why the decision shed its session: `Some` for the four shed
    /// variants, `None` for admissions, rejections, and parked
    /// retries. The one place the event-to-[`ShedReason`] mapping
    /// lives — the report's `ShedSession`s and the telemetry's
    /// `serve_shed_total{reason}` labels both derive from it.
    pub fn shed_reason(&self) -> Option<ShedReason> {
        match *self {
            DecisionEvent::ShedPolicy { reason, .. } => Some(reason),
            DecisionEvent::ShedSlot { .. } => Some(ShedReason::Undecidable),
            DecisionEvent::ShedQueueFull { .. } => Some(ShedReason::QueueFull),
            DecisionEvent::ShedDrain { .. } => Some(ShedReason::DrainDeadline),
            DecisionEvent::Admit { .. }
            | DecisionEvent::Reject { .. }
            | DecisionEvent::Backoff { .. }
            | DecisionEvent::UnknownRetry { .. } => None,
        }
    }

    /// Renders the decision as one JSON object via `mealib-obs::json`.
    pub fn to_json(&self) -> String {
        let mut o = Object::new();
        o.str("event", self.kind());
        o.int("epoch", self.epoch());
        o.int("id", self.id());
        match self {
            DecisionEvent::Admit {
                class,
                part_start,
                part_len,
                attempt,
                ..
            } => {
                o.str("class", class);
                o.str("part_start", &format!("0x{part_start:x}"));
                o.str("part_len", &format!("0x{part_len:x}"));
                o.int("attempt", u64::from(*attempt));
            }
            DecisionEvent::Reject {
                codes, attempts, ..
            } => {
                // `json::array` takes pre-rendered JSON values; code
                // names are plain identifiers, so quoting suffices.
                let rendered: Vec<String> = codes.iter().map(|c| format!("\"{c:?}\"")).collect();
                o.raw("codes", array(&rendered));
                o.int("attempts", u64::from(*attempts));
            }
            DecisionEvent::Backoff {
                until_epoch,
                attempt,
                ..
            } => {
                o.int("until_epoch", *until_epoch);
                o.int("attempt", u64::from(*attempt));
            }
            DecisionEvent::UnknownRetry {
                retry_epoch,
                attempt,
                ..
            } => {
                o.int("retry_epoch", *retry_epoch);
                o.int("attempt", u64::from(*attempt));
            }
            DecisionEvent::ShedPolicy {
                reason, attempts, ..
            } => {
                o.str("reason", reason.label());
                o.int("attempts", u64::from(*attempts));
            }
            DecisionEvent::ShedSlot { .. } => {
                o.str("reason", "undecidable_slot");
            }
            DecisionEvent::ShedQueueFull { .. } => {
                o.str("reason", "queue_full");
            }
            DecisionEvent::ShedDrain { .. } => {
                o.str("reason", "drain_deadline");
            }
        }
        o.render()
    }
}

impl fmt::Display for DecisionEvent {
    /// The legacy decision-log line, byte for byte.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecisionEvent::Admit {
                epoch,
                id,
                class,
                part_start,
                part_len,
                attempt,
            } => write!(
                f,
                "e{epoch} admit s{id} class={class} part=0x{part_start:x}+0x{part_len:x} \
                 attempt={attempt}"
            ),
            DecisionEvent::Reject {
                epoch,
                id,
                codes,
                attempts,
            } => {
                let rendered: Vec<String> = codes.iter().map(|c| format!("{c:?}")).collect();
                write!(
                    f,
                    "e{epoch} reject s{id} codes=[{}] attempts={attempts}",
                    rendered.join(",")
                )
            }
            DecisionEvent::Backoff {
                epoch,
                id,
                until_epoch,
                attempt,
            } => write!(
                f,
                "e{epoch} backoff s{id} until e{until_epoch} attempt={attempt}"
            ),
            DecisionEvent::UnknownRetry {
                epoch,
                id,
                retry_epoch,
                attempt,
            } => write!(
                f,
                "e{epoch} unknown s{id} retry at e{retry_epoch} attempt={attempt}"
            ),
            DecisionEvent::ShedPolicy {
                epoch,
                id,
                reason,
                attempts,
            } => write!(
                f,
                "e{epoch} shed s{id} reason={} attempts={attempts}",
                reason.label()
            ),
            DecisionEvent::ShedSlot { epoch, id } => {
                write!(f, "e{epoch} shed s{id} reason=undecidable (slot)")
            }
            DecisionEvent::ShedQueueFull { epoch, id } => {
                write!(f, "e{epoch} shed s{id} reason=queue_full")
            }
            DecisionEvent::ShedDrain { epoch, id } => {
                write!(f, "e{epoch} shed s{id} reason=drain_deadline")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_obs::json;

    #[test]
    fn display_reproduces_the_legacy_log_lines() {
        let cases: Vec<(DecisionEvent, &str)> = vec![
            (
                DecisionEvent::Admit {
                    epoch: 3,
                    id: 17,
                    class: "stap-tiny".into(),
                    part_start: 0x400000,
                    part_len: 0x400000,
                    attempt: 2,
                },
                "e3 admit s17 class=stap-tiny part=0x400000+0x400000 attempt=2",
            ),
            (
                DecisionEvent::Reject {
                    epoch: 5,
                    id: 9,
                    codes: vec![ErrorCode::InterfereLatencyBudget],
                    attempts: 4,
                },
                "e5 reject s9 codes=[InterfereLatencyBudget] attempts=4",
            ),
            (
                DecisionEvent::Backoff {
                    epoch: 1,
                    id: 2,
                    until_epoch: 4,
                    attempt: 1,
                },
                "e1 backoff s2 until e4 attempt=1",
            ),
            (
                DecisionEvent::UnknownRetry {
                    epoch: 2,
                    id: 8,
                    retry_epoch: 5,
                    attempt: 1,
                },
                "e2 unknown s8 retry at e5 attempt=1",
            ),
            (
                DecisionEvent::ShedPolicy {
                    epoch: 7,
                    id: 3,
                    reason: ShedReason::RetriesExhausted,
                    attempts: 4,
                },
                "e7 shed s3 reason=retries_exhausted attempts=4",
            ),
            (
                DecisionEvent::ShedSlot { epoch: 0, id: 1 },
                "e0 shed s1 reason=undecidable (slot)",
            ),
            (
                DecisionEvent::ShedQueueFull { epoch: 4, id: 6 },
                "e4 shed s6 reason=queue_full",
            ),
            (
                DecisionEvent::ShedDrain { epoch: 9, id: 5 },
                "e9 shed s5 reason=drain_deadline",
            ),
        ];
        for (ev, expected) in cases {
            assert_eq!(ev.to_string(), expected);
        }
    }

    #[test]
    fn json_serialization_parses_and_carries_the_codes() {
        let ev = DecisionEvent::Reject {
            epoch: 5,
            id: 9,
            codes: vec![ErrorCode::InterfereLatencyBudget],
            attempts: 4,
        };
        let v = json::parse(&ev.to_json()).expect("decision json parses");
        assert_eq!(v.get("event").and_then(|x| x.as_str()), Some("reject"));
        assert_eq!(v.get("epoch").and_then(|x| x.as_f64()), Some(5.0));
        let codes = v.get("codes").and_then(|x| x.as_array()).unwrap();
        assert_eq!(codes.len(), 1);
        assert_eq!(codes[0].as_str(), Some("InterfereLatencyBudget"));
    }

    #[test]
    fn accessors_agree_with_the_variants() {
        let ev = DecisionEvent::ShedQueueFull { epoch: 4, id: 6 };
        assert_eq!(ev.epoch(), 4);
        assert_eq!(ev.id(), 6);
        assert_eq!(ev.kind(), "shed_queue_full");
        let cases = [
            (
                DecisionEvent::Admit {
                    epoch: 0,
                    id: 0,
                    class: "c".into(),
                    part_start: 0,
                    part_len: 0,
                    attempt: 1,
                },
                None,
            ),
            (
                DecisionEvent::Reject {
                    epoch: 0,
                    id: 0,
                    codes: vec![ErrorCode::InterfereLatencyBudget],
                    attempts: 4,
                },
                None,
            ),
            (
                DecisionEvent::Backoff {
                    epoch: 0,
                    id: 0,
                    until_epoch: 2,
                    attempt: 1,
                },
                None,
            ),
            (
                DecisionEvent::UnknownRetry {
                    epoch: 0,
                    id: 0,
                    retry_epoch: 2,
                    attempt: 1,
                },
                None,
            ),
            (
                DecisionEvent::ShedPolicy {
                    epoch: 0,
                    id: 0,
                    reason: ShedReason::RetriesExhausted,
                    attempts: 4,
                },
                Some(ShedReason::RetriesExhausted),
            ),
            (
                DecisionEvent::ShedSlot { epoch: 0, id: 0 },
                Some(ShedReason::Undecidable),
            ),
            (ev, Some(ShedReason::QueueFull)),
            (
                DecisionEvent::ShedDrain { epoch: 0, id: 0 },
                Some(ShedReason::DrainDeadline),
            ),
        ];
        for (ev, reason) in cases {
            assert_eq!(ev.shed_reason(), reason, "{}", ev.kind());
        }
    }
}
