//! The MEA3xx diagnostic passes over a composed session set.
//!
//! Same contract as the MEA2xx family: every diagnostic is a **proof
//! of violation** — it fires only when a certified lower bound already
//! exceeds a declared budget, or when a declared-partition relation is
//! decidably broken. Absent partitions and absent budgets disable the
//! corresponding checks; the admission verdict (not a diagnostic)
//! distinguishes "proved clean" from "could not prove".
//!
//! | code   | meaning |
//! |--------|---------|
//! | MEA300 | tenant partitions overlap, or a buffer leaks outside its tenant's partition |
//! | MEA301 | summed demand oversubscribes the shared bus against the set-level time envelope |
//! | MEA302 | composed completion floor breaks a tenant's latency budget |
//! | MEA303 | composed energy floor exceeds the aggregate (or a tenant's) energy envelope |

use mealib_types::{Diagnostic, ErrorCode, Report};

use super::compose::SetBounds;
use super::manifest::SessionSet;

/// MEA300: declared partitions must be pairwise disjoint and must
/// contain every declared buffer extent of their tenant. Both
/// relations are decidable from the manifest alone, so each finding is
/// a certain isolation violation, not a heuristic.
pub(super) fn check_partitions(set: &SessionSet, report: &mut Report) {
    for (i, a) in set.tenants.iter().enumerate() {
        let Some((_, pa)) = a.partition else { continue };
        for b in set.tenants.iter().skip(i + 1) {
            let Some((line_b, pb)) = b.partition else {
                continue;
            };
            if pa.overlaps(&pb) {
                report.push(
                    Diagnostic::error(
                        ErrorCode::InterferePartitionOverlap,
                        format!(
                            "tenant {}'s partition {pb} overlaps tenant {}'s partition {pa}",
                            b.name, a.name,
                        ),
                    )
                    .at_line(line_b),
                );
            }
        }
        for (buf, ext) in &a.session.extents {
            if !ext.is_empty() && !pa.contains_range(ext) {
                report.push(
                    Diagnostic::error(
                        ErrorCode::InterferePartitionOverlap,
                        format!(
                            "tenant {}'s buffer `{buf}` {ext} leaks outside its partition {pa}",
                            a.name,
                        ),
                    )
                    .at_line(a.partition.map_or(a.line, |(l, _)| l)),
                );
            }
        }
    }
}

/// MEA301: the set's summed demand cannot fit the shared bus inside
/// the aggregate time envelope. Fires only under a header
/// `BUDGET TIME`: the certified lower bound on the merged replay —
/// bus occupancy of the interleaved trace, or aggregate bytes over the
/// layer roofline, whichever is larger — already exceeds the envelope,
/// so no schedule of these tenants on this layer can meet it.
pub(super) fn check_bus(set: &SessionSet, bounds: &SetBounds, report: &mut Report) {
    let Some(time_s) = set.budgets.time_s else {
        return;
    };
    let bytes_lo = bounds.set.bytes_read.lo + bounds.set.bytes_written.lo;
    let t_min = bounds
        .set
        .elapsed
        .lo
        .max(bytes_lo / bounds.peak_bandwidth.get());
    if t_min > time_s {
        report.push(Diagnostic::error(
            ErrorCode::InterfereBusOversubscribed,
            format!(
                "{} tenants need at least {t_min:.3e} s of {} bus time but the set envelope is \
                 {time_s:.3e} s (summed demand {:.1} GB/s vs {:.1} GB/s roofline)",
                bounds.tenants.len(),
                bounds.config_name,
                bytes_lo / time_s * 1e-9,
                bounds.peak_bandwidth.as_gb_per_sec(),
            ),
        ));
    }
}

/// MEA302: a tenant's composed completion floor — its own bus
/// occupancy plus the interference of every co-tenant burst sequenced
/// before its last request on that unit — already exceeds the
/// tenant's own `BUDGET TIME`.
pub(super) fn check_latency(set: &SessionSet, bounds: &SetBounds, report: &mut Report) {
    for (decl, tb) in set.tenants.iter().zip(&bounds.tenants) {
        let Some(time_s) = decl.session.budgets.time_s else {
            continue;
        };
        if tb.elapsed.lo > time_s {
            report.push(
                Diagnostic::error(
                    ErrorCode::InterfereLatencyBudget,
                    format!(
                        "tenant {}'s last request cannot complete before {:.3e} s under this mix \
                         (co-tenant interference included) but its latency budget is {time_s:.3e} s",
                        decl.name, tb.elapsed.lo,
                    ),
                )
                .at_line(decl.line),
            );
        }
    }
}

/// MEA303: the composed energy floor — certified DRAM floor of the
/// merged trace plus every tenant's Table-5 datapath floor — exceeds
/// the aggregate envelope; or one tenant's attributed floor exceeds
/// its own `BUDGET ENERGY`.
pub(super) fn check_energy_envelope(set: &SessionSet, bounds: &SetBounds, report: &mut Report) {
    if let Some(envelope_j) = set.budgets.energy_j {
        let floor_j = bounds.energy_floor();
        if floor_j > envelope_j {
            report.push(Diagnostic::error(
                ErrorCode::InterfereEnergyEnvelope,
                format!(
                    "composed energy floor {floor_j:.3e} J (DRAM {:.3e} J + accelerator \
                     {:.3e} J across {} tenants) exceeds the aggregate envelope {envelope_j:.3e} J",
                    bounds.set.energy.lo,
                    floor_j - bounds.set.energy.lo,
                    bounds.tenants.len(),
                ),
            ));
        }
    }
    for (decl, tb) in set.tenants.iter().zip(&bounds.tenants) {
        let Some(budget_j) = decl.session.budgets.energy_j else {
            continue;
        };
        let floor_j = tb.energy.lo + tb.accel_energy.lo;
        if floor_j > budget_j {
            report.push(
                Diagnostic::error(
                    ErrorCode::InterfereEnergyEnvelope,
                    format!(
                        "tenant {}'s attributed energy floor {floor_j:.3e} J exceeds its declared \
                         budget {budget_j:.3e} J",
                        decl.name,
                    ),
                )
                .at_line(decl.line),
            );
        }
    }
}
