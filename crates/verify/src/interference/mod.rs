//! Multi-tenant interference certification: the MEA3xx pass family.
//!
//! A session-set manifest ([`manifest`]) declares N tenant sessions
//! sharing one memory layer, each with a vault partition, an arrival
//! phase, and optional per-tenant budgets, under an optional set-level
//! time/energy envelope. This module composes the per-program PR-6
//! interval summaries into **multi-tenant bounds** ([`compose`]) and
//! judges them ([`passes`]), ending in a three-valued admission
//! verdict:
//!
//! * [`Verdict::Reject`] — at least one MEA3xx violation is *proved*:
//!   partitions overlap or leak (MEA300), the summed demand
//!   oversubscribes the shared bus against the set envelope (MEA301),
//!   interference breaks a tenant's latency budget (MEA302), or the
//!   composed energy floor exceeds an envelope (MEA303). Every REJECT
//!   is backed by a lower bound, so the interleaved cycle engine must
//!   *confirm* it — the soundness harness checks exactly that.
//! * [`Verdict::Admit`] — the opposite is proved: partitions are
//!   declared, disjoint, and contain every buffer; every tenant's
//!   traffic is fully priced; and every declared budget is met by the
//!   corresponding certified **upper** bound. No measurable budget
//!   violation is possible for an admitted set.
//! * [`Verdict::Unknown`] — neither: something is undeclared or the
//!   interval is too wide to decide. The certifier never guesses.
//!
//! Ground truth is [`mealib_memsim::simulate_tenants`]: the
//! deterministic interleaver merges the tenants' traces by arrival
//! offset, the tagged engine attributes bytes, bursts, activations,
//! completion, and energy per tenant, and the
//! `interference_soundness` differential harness asserts
//! `static lower <= measured <= static upper` per tenant on every
//! corpus manifest and random mix — and that no ADMIT-ed set
//! measurably violates a budget.

pub mod compose;
pub mod manifest;
mod passes;

pub use compose::{compose, resolved_set_config, tenant_streams, SetBounds, TenantBounds};
pub use manifest::{looks_like_session_set, parse_session_set, SessionSet, TenantDecl};

use mealib_memsim::bounds::BoundsError;
use mealib_types::Report;

use crate::bounds::BoundsEnv;

/// The admission-control verdict for a session set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Proved safe: isolated partitions, fully priced traffic, every
    /// declared budget met by the certified upper bound.
    Admit,
    /// Proved unsafe: at least one MEA3xx violation (each backed by a
    /// lower bound the simulation confirms).
    Reject,
    /// Neither provable — undeclared partitions/extents or intervals
    /// too wide to decide.
    Unknown,
}

impl Verdict {
    /// Stable lowercase label (`admit`/`reject`/`unknown`) for JSON
    /// and bench output.
    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Admit => "admit",
            Verdict::Reject => "reject",
            Verdict::Unknown => "unknown",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Verdict::Admit => "ADMIT",
            Verdict::Reject => "REJECT",
            Verdict::Unknown => "UNKNOWN",
        })
    }
}

/// A certified session set: the composed bounds, the MEA3xx findings,
/// and the admission verdict they imply.
#[derive(Debug, Clone)]
pub struct Certification {
    /// The admission-control verdict.
    pub verdict: Verdict,
    /// MEA3xx findings (empty for ADMIT and UNKNOWN).
    pub report: Report,
    /// The composed set and per-tenant bounds behind the verdict.
    pub bounds: SetBounds,
}

impl Certification {
    /// The distinct MEA3xx codes the certifier *proved* (first-seen
    /// order, deduplicated) — empty for ADMIT and UNKNOWN. Admission
    /// controllers attach these to every rejection so a shed session
    /// always names the violation the certificate established.
    pub fn codes(&self) -> Vec<mealib_types::ErrorCode> {
        let mut out = Vec::new();
        for d in self.report.diagnostics() {
            if !out.contains(&d.code) {
                out.push(d.code);
            }
        }
        out
    }
}

/// Runs the MEA3xx passes over `set` and derives the admission
/// verdict.
///
/// # Errors
///
/// Propagates a [`BoundsError`]: the shared memory configuration
/// failing validation (unreachable with [`BoundsEnv`]'s presets), or
/// the set moving more bytes than a `u64` counts.
pub fn certify_set(set: &SessionSet, env: &BoundsEnv) -> Result<Certification, BoundsError> {
    let bounds = compose(set, env)?;
    let mut report = Report::new();
    passes::check_partitions(set, &mut report);
    passes::check_bus(&bounds, &mut report);
    passes::check_latency(set, &bounds, &mut report);
    passes::check_energy_envelope(set, &bounds, &mut report);

    let verdict = if !report.is_clean() {
        Verdict::Reject
    } else if proves_admissible(set, &bounds) {
        Verdict::Admit
    } else {
        Verdict::Unknown
    };
    Ok(Certification {
        verdict,
        report,
        bounds,
    })
}

/// `true` when the *upper* bounds prove the set safe: every tenant has
/// a declared partition (the passes already proved them disjoint and
/// leak-free if we got here clean), every tenant's traffic is fully
/// priced, and every declared budget is met by the certified ceiling.
fn proves_admissible(set: &SessionSet, bounds: &SetBounds) -> bool {
    let isolated = set.tenants.iter().all(|t| t.partition.is_some());
    let complete = bounds.tenants.iter().all(|t| t.missing_extents.is_empty());
    if !isolated || !complete {
        return false;
    }
    if let Some(time_s) = bounds.budgets.time_s {
        if bounds.set.elapsed.hi > time_s {
            return false;
        }
    }
    if let Some(envelope_j) = bounds.budgets.energy_j {
        if bounds.energy_ceiling() > envelope_j {
            return false;
        }
    }
    bounds.tenants.iter().all(|t| {
        t.budgets.time_s.is_none_or(|b| t.elapsed.hi <= b)
            && t.budgets
                .energy_j
                .is_none_or(|b| t.energy.hi + t.accel_energy.hi <= b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_types::ErrorCode;

    fn certify(src: &str) -> Certification {
        let set = parse_session_set(src).unwrap();
        certify_set(&set, &BoundsEnv::default()).unwrap()
    }

    const CLEAN: &str = "\
BUDGET TIME 10.0
BUDGET ENERGY 100.0
TENANT a
PARTITION 0x0 0x1000000
BUF in 0x1000 0x40000
BUF out 0x80000 0x40000
PASS in=in out=out {
  COMP FFT params=\"f\"
}
TENANT b
PARTITION 0x1000000 0x1000000
ARRIVAL 2
BUF p 0x1001000 0x40000
BUF q 0x1080000 0x40000
PASS in=p out=q {
  COMP AXPY params=\"x\"
}
";

    #[test]
    fn disjoint_budgeted_set_admits() {
        let cert = certify(CLEAN);
        assert!(cert.report.is_clean(), "{}", cert.report.render());
        assert_eq!(cert.verdict, Verdict::Admit);
    }

    #[test]
    fn overlapping_partitions_reject_with_mea300() {
        let src = CLEAN.replace(
            "PARTITION 0x1000000 0x1000000",
            "PARTITION 0x800000 0x1000000",
        );
        let src = src
            .replace("BUF p 0x1001000", "BUF p 0x801000")
            .replace("BUF q 0x1080000", "BUF q 0x880000");
        let cert = certify(&src);
        assert_eq!(cert.verdict, Verdict::Reject);
        assert!(cert.report.has_code(ErrorCode::InterferePartitionOverlap));
    }

    #[test]
    fn buffer_leak_rejects_with_mea300() {
        let src = CLEAN.replace("BUF q 0x1080000", "BUF q 0x80000");
        let cert = certify(&src);
        assert_eq!(cert.verdict, Verdict::Reject);
        assert!(cert.report.has_code(ErrorCode::InterferePartitionOverlap));
    }

    #[test]
    fn impossible_set_envelope_rejects_with_mea301() {
        let cert = certify(&CLEAN.replace("BUDGET TIME 10.0", "BUDGET TIME 1e-9"));
        assert_eq!(cert.verdict, Verdict::Reject);
        assert!(cert.report.has_code(ErrorCode::InterfereBusOversubscribed));
    }

    #[test]
    fn impossible_tenant_latency_rejects_with_mea302() {
        let cert = certify(&CLEAN.replace(
            "PARTITION 0x1000000 0x1000000\n",
            "PARTITION 0x1000000 0x1000000\nBUDGET TIME 1e-9\n",
        ));
        assert_eq!(cert.verdict, Verdict::Reject);
        assert!(cert.report.has_code(ErrorCode::InterfereLatencyBudget));
    }

    #[test]
    fn impossible_energy_envelope_rejects_with_mea303() {
        let cert = certify(&CLEAN.replace("BUDGET ENERGY 100.0", "BUDGET ENERGY 1e-9"));
        assert_eq!(cert.verdict, Verdict::Reject);
        assert!(cert.report.has_code(ErrorCode::InterfereEnergyEnvelope));
    }

    #[test]
    fn missing_partition_is_unknown_not_admit() {
        let src = CLEAN.replace("PARTITION 0x1000000 0x1000000\n", "");
        let cert = certify(&src);
        assert!(cert.report.is_clean());
        assert_eq!(cert.verdict, Verdict::Unknown);
    }

    #[test]
    fn missing_extent_is_unknown_not_admit() {
        let src = CLEAN.replace("BUF q 0x1080000 0x40000\n", "");
        let cert = certify(&src);
        assert!(cert.report.is_clean());
        assert_eq!(cert.verdict, Verdict::Unknown);
    }

    #[test]
    fn tight_but_unprovable_budget_is_unknown() {
        // A set envelope between the certified lower and upper bounds:
        // neither a violation proof nor an admission proof exists.
        let set = parse_session_set(CLEAN).unwrap();
        let bounds = compose(&set, &BoundsEnv::default()).unwrap();
        let mid = (bounds.set.elapsed.lo + bounds.set.elapsed.hi) / 2.0;
        assert!(bounds.set.elapsed.lo < mid && mid < bounds.set.elapsed.hi);
        let cert = certify(&CLEAN.replace("BUDGET TIME 10.0", &format!("BUDGET TIME {mid:e}")));
        assert_eq!(cert.verdict, Verdict::Unknown);
    }

    #[test]
    fn rejection_codes_are_deduplicated_and_proved() {
        let cert = certify(CLEAN);
        assert!(cert.codes().is_empty(), "clean admit carries no codes");
        let src = CLEAN.replace("BUDGET TIME 10.0", "BUDGET TIME 1e-9");
        let cert = certify(&src);
        let codes = cert.codes();
        assert!(codes.contains(&ErrorCode::InterfereBusOversubscribed));
        let mut dedup = codes.clone();
        dedup.dedup();
        assert_eq!(codes, dedup);
        for code in codes {
            assert!(cert.report.has_code(code));
        }
    }

    #[test]
    fn verdict_labels_are_stable() {
        assert_eq!(Verdict::Admit.label(), "admit");
        assert_eq!(format!("{}", Verdict::Reject), "REJECT");
        assert_eq!(Verdict::Unknown.label(), "unknown");
    }
}
