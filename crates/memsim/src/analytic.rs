//! Closed-form performance/energy estimates for regular access patterns.
//!
//! Uses the same timing and energy constants as [`crate::engine`], so the
//! two paths agree on regular traffic (cross-validated in this module's
//! tests). The analytic path exists because the accelerators stream
//! gigabytes — pricing a 1 GiB AXPY through the cycle engine would replay
//! ~33 M bursts per run of every experiment.
//!
//! Conventions shared with the engine:
//! * reported `bytes_read`/`bytes_written` are *useful* bytes (what the
//!   requester asked for); fetch-granularity waste shows up as extra
//!   cycles, not extra bytes;
//! * energy is charged on useful bytes plus activations plus background
//!   power over the busy interval.

use mealib_types::{Bytes, Cycles, Hertz};

use crate::config::MemoryConfig;
use crate::pattern::AccessPattern;
use crate::stats::TraceStats;

/// Estimates the timing, row-buffer, and energy statistics of `pattern`
/// on the device described by `config`.
///
/// # Errors
///
/// Returns the first [`mealib_types::ConfigError`] found in `config`.
pub fn try_estimate(
    config: &MemoryConfig,
    pattern: &AccessPattern,
) -> Result<TraceStats, mealib_types::ConfigError> {
    config.validate()?;
    Ok(estimate_validated(config, pattern))
}

fn estimate_validated(config: &MemoryConfig, pattern: &AccessPattern) -> TraceStats {
    match pattern {
        AccessPattern::Sequential { read, written } => {
            let mut s = estimate_stream(config, read + written);
            s.bytes_read = Bytes::new(*read);
            s.bytes_written = Bytes::new(*written);
            finish(config, s)
        }
        AccessPattern::Strided {
            stride,
            elem_bytes,
            count,
            write,
        } => {
            let s = estimate_strided(config, *stride, *elem_bytes, *count);
            let mut s = s;
            if *write {
                s.bytes_written = Bytes::new(elem_bytes * count);
                s.bytes_read = Bytes::ZERO;
            } else {
                s.bytes_read = Bytes::new(elem_bytes * count);
                s.bytes_written = Bytes::ZERO;
            }
            finish(config, s)
        }
        AccessPattern::Random {
            elem_bytes,
            count,
            region_bytes,
        } => {
            let mut s = estimate_random(config, *elem_bytes, *count, *region_bytes);
            s.bytes_read = Bytes::new(elem_bytes * count);
            finish(config, s)
        }
        // Recurse through the already-validated path: re-validating per
        // part was both wasted work and, historically, the panic route
        // `try_estimate` callers could still hit on nested patterns.
        AccessPattern::Then(parts) => parts
            .iter()
            .map(|p| estimate_validated(config, p))
            .fold(TraceStats::default(), |acc, s| acc.merge_sequential(&s)),
    }
}

/// Effective sustainable bandwidth of `pattern` on `config` — a
/// convenience wrapper many accelerator models use directly.
///
/// # Errors
///
/// Returns the first [`mealib_types::ConfigError`] found in `config`.
pub fn try_effective_bandwidth(
    config: &MemoryConfig,
    pattern: &AccessPattern,
) -> Result<mealib_types::BytesPerSec, mealib_types::ConfigError> {
    Ok(try_estimate(config, pattern)?.achieved_bandwidth())
}

fn startup_cycles(config: &MemoryConfig) -> u64 {
    let t = &config.timing;
    t.t_rcd + t.t_cl + t.t_burst
}

/// Cycles per activation when `banks` banks overlap their row cycles,
/// floored by the four-activation window (tFAW/4 per ACT).
fn cycles_per_act(t: &crate::timing::DramTiming, banks: u64) -> u64 {
    (t.t_rc() / banks).max(t.t_faw / 4).max(1)
}

fn estimate_stream(config: &MemoryConfig, total_bytes: u64) -> TraceStats {
    let t = &config.timing;
    let m = &config.mapping;
    if total_bytes == 0 {
        return TraceStats::default();
    }
    let units = m.units() as u64;
    let banks = m.banks_per_unit() as u64;
    let row_bytes = m.row_bytes();

    let bytes_per_unit = total_bytes.div_ceil(units);
    let bursts_u = bytes_per_unit.div_ceil(t.burst_bytes);
    let bus_cycles = bursts_u * t.t_burst;
    let rows_u = bytes_per_unit.div_ceil(row_bytes);
    let act_cycles = rows_u * cycles_per_act(t, banks);

    let cycles = bus_cycles.max(act_cycles) + startup_cycles(config);
    let activations = total_bytes.div_ceil(row_bytes);
    let total_bursts = total_bytes.div_ceil(t.burst_bytes);

    TraceStats {
        cycles: Cycles::new(cycles),
        activations,
        row_hits: total_bursts.saturating_sub(activations),
        row_misses: activations,
        ..TraceStats::default()
    }
}

fn estimate_strided(config: &MemoryConfig, stride: u64, elem_bytes: u64, count: u64) -> TraceStats {
    let t = &config.timing;
    let m = &config.mapping;
    if count == 0 || elem_bytes == 0 {
        return TraceStats::default();
    }
    if stride <= t.burst_bytes {
        // Dense enough that the stream consumes whole bursts: price it as
        // a sequential sweep over the touched footprint.
        return estimate_stream(config, stride * count);
    }
    let units = m.units() as u64;
    let banks = m.banks_per_unit() as u64;
    let row_bytes = m.row_bytes();
    let line = match &m {
        crate::address::AddressMapping::Interleaved { line_bytes, .. }
        | crate::address::AddressMapping::XorInterleaved { line_bytes, .. }
        | crate::address::AddressMapping::Asymmetric { line_bytes, .. } => *line_bytes,
    };

    // XOR hashing defeats the stride-aliasing orbit below.
    let hashed = matches!(&m, crate::address::AddressMapping::XorInterleaved { .. });

    // How many units does the strided walk actually visit? If the stride
    // is a multiple of the interleave line, address i*stride visits unit
    // (i * stride/line) mod units: an orbit of size units / gcd(units, s).
    let units_used = if !hashed && stride.is_multiple_of(line) {
        let s = stride / line;
        units / gcd(units, s)
    } else {
        units
    };

    let accesses_u = count.div_ceil(units_used);
    let bursts_per_access = elem_bytes.div_ceil(t.burst_bytes).max(1);
    let bus_cycles = accesses_u * bursts_per_access * t.t_burst;

    let (rows_u, misses, hits) = if stride >= row_bytes {
        // Every access lands in a fresh row.
        (accesses_u, count, count * bursts_per_access - count)
    } else {
        let accesses_per_row = (row_bytes / stride).max(1);
        let rows_u = accesses_u.div_ceil(accesses_per_row);
        let misses = rows_u * units_used;
        (
            rows_u,
            misses,
            (count * bursts_per_access).saturating_sub(misses),
        )
    };
    let act_cycles = rows_u * cycles_per_act(t, banks);

    TraceStats {
        cycles: Cycles::new(bus_cycles.max(act_cycles) + startup_cycles(config)),
        activations: misses,
        row_hits: hits,
        row_misses: misses,
        ..TraceStats::default()
    }
}

fn estimate_random(
    config: &MemoryConfig,
    elem_bytes: u64,
    count: u64,
    region_bytes: u64,
) -> TraceStats {
    let t = &config.timing;
    let m = &config.mapping;
    if count == 0 || elem_bytes == 0 {
        return TraceStats::default();
    }
    let units = m.units() as u64;
    let banks = m.banks_per_unit() as u64;
    let row_bytes = m.row_bytes();

    // Probability that a random access hits a row left open by an earlier
    // access: with `units*banks` row buffers covering a `region_bytes`
    // working set, the covered fraction is the hit rate (clamped).
    let open_coverage = (units * banks * row_bytes) as f64 / region_bytes.max(1) as f64;
    let hit_rate = open_coverage.min(0.9);
    let misses = ((count as f64) * (1.0 - hit_rate)).round() as u64;
    let hits = count - misses;

    let accesses_u = count.div_ceil(units);
    let bursts_per_access = elem_bytes.div_ceil(t.burst_bytes).max(1);
    let bus_cycles = accesses_u * bursts_per_access * t.t_burst;
    let act_cycles = misses.div_ceil(units) * cycles_per_act(t, banks);

    TraceStats {
        cycles: Cycles::new(bus_cycles.max(act_cycles) + startup_cycles(config)),
        activations: misses,
        row_hits: hits,
        row_misses: misses,
        ..TraceStats::default()
    }
}

fn finish(config: &MemoryConfig, mut s: TraceStats) -> TraceStats {
    let t = &config.timing;
    // Periodic refresh steals tRFC out of every tREFI on each unit.
    let refresh_factor = 1.0 + t.t_rfc as f64 / t.t_refi as f64;
    let cycles = (s.cycles.get() as f64 * refresh_factor).round() as u64;
    s.refreshes = cycles / t.t_refi * config.mapping.units() as u64;
    // Every opened row is eventually closed again.
    s.precharges = s.activations;
    s.cycles = Cycles::new(cycles);
    s.elapsed = s.cycles.at(Hertz::new(1.0 / t.t_ck.get()));
    s.energy = config
        .energy
        .trace_energy(s.activations, s.bytes_moved().get(), s.elapsed);
    s
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, Op};

    /// Every test config validates, so the typed error path is just
    /// unwrapped.
    fn estimate(config: &MemoryConfig, pattern: &AccessPattern) -> TraceStats {
        try_estimate(config, pattern).expect("test configs validate")
    }

    fn single_channel_config() -> MemoryConfig {
        let mut c = MemoryConfig::ddr_dual_channel();
        c.mapping = crate::address::AddressMapping::Interleaved {
            units: 1,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        c
    }

    fn ratio(a: f64, b: f64) -> f64 {
        a / b
    }

    #[test]
    fn sequential_estimate_matches_engine() {
        let c = single_channel_config();
        let bytes = 4u64 << 20;
        let est = estimate(&c, &AccessPattern::sequential_read(bytes));
        let trace = engine::sequential_trace(0, bytes, 64, Op::Read);
        let sim = engine::simulate(&c, &trace, &engine::SimOptions::dual_check())
            .unwrap()
            .stats;
        let r = ratio(est.elapsed.get(), sim.elapsed.get());
        assert!((0.8..=1.25).contains(&r), "sequential time ratio {r}");
        // The engine reopens rows after periodic refreshes, so it sees a
        // few more activations than the closed-form count.
        assert!(
            sim.activations >= est.activations
                && sim.activations <= est.activations + est.activations / 6,
            "activations: sim {} vs est {}",
            sim.activations,
            est.activations
        );
    }

    #[test]
    fn strided_estimate_matches_engine() {
        let c = single_channel_config();
        let est = estimate(
            &c,
            &AccessPattern::Strided {
                stride: 8192,
                elem_bytes: 64,
                count: 4096,
                write: false,
            },
        );
        let trace = engine::strided_trace(0, 8192, 64, 4096, Op::Read);
        let sim = engine::simulate(&c, &trace, &engine::SimOptions::dual_check())
            .unwrap()
            .stats;
        let r = ratio(est.elapsed.get(), sim.elapsed.get());
        assert!((0.5..=2.0).contains(&r), "strided time ratio {r}");
        assert_eq!(est.row_hit_rate(), Some(0.0));
        assert_eq!(sim.row_hit_rate(), Some(0.0));
    }

    #[test]
    fn hmc_sequential_estimate_matches_engine() {
        let c = MemoryConfig::hmc_stack();
        let bytes = 32u64 << 20;
        let est = estimate(&c, &AccessPattern::sequential_read(bytes));
        let trace = engine::sequential_trace(0, bytes, 256, Op::Read);
        let sim = engine::simulate(&c, &trace, &engine::SimOptions::dual_check())
            .unwrap()
            .stats;
        let r = ratio(est.elapsed.get(), sim.elapsed.get());
        assert!((0.7..=1.4).contains(&r), "hmc sequential ratio {r}");
    }

    #[test]
    fn sequential_read_hits_peak_bandwidth_at_scale() {
        let c = MemoryConfig::hmc_stack();
        let s = estimate(&c, &AccessPattern::sequential_read(1 << 30));
        let frac = s.achieved_bandwidth().get() / c.peak_bandwidth().get();
        assert!(frac > 0.95, "large stream should saturate: {frac}");
    }

    #[test]
    fn strided_walk_on_interleave_multiple_uses_one_unit() {
        // Stride = line * units keeps hitting the same channel.
        let c = MemoryConfig::ddr_dual_channel(); // 2 units, 64B lines
        let narrow = estimate(
            &c,
            &AccessPattern::Strided {
                stride: 128,
                elem_bytes: 64,
                count: 65536,
                write: false,
            },
        );
        let spread = estimate(
            &c,
            &AccessPattern::Strided {
                stride: 192,
                elem_bytes: 64,
                count: 65536,
                write: false,
            },
        );
        assert!(
            narrow.elapsed.get() > 1.5 * spread.elapsed.get(),
            "stride aliasing to one channel must be slower: {} vs {}",
            narrow.elapsed,
            spread.elapsed
        );
    }

    #[test]
    fn random_gather_is_slower_than_sequential() {
        let c = MemoryConfig::hmc_stack();
        let n = 1u64 << 22; // 4M gathers of 4B
        let gather = estimate(
            &c,
            &AccessPattern::Random {
                elem_bytes: 4,
                count: n,
                region_bytes: 1 << 30,
            },
        );
        let seq = estimate(&c, &AccessPattern::sequential_read(4 * n));
        assert!(gather.elapsed.get() > 4.0 * seq.elapsed.get());
        assert!(gather.row_hit_rate().unwrap() < 0.2);
    }

    #[test]
    fn then_composes_sequentially() {
        let c = MemoryConfig::hmc_stack();
        let a = estimate(&c, &AccessPattern::sequential_read(1 << 20));
        let b = estimate(&c, &AccessPattern::sequential_write(1 << 20));
        let both = estimate(
            &c,
            &AccessPattern::Then(vec![
                AccessPattern::sequential_read(1 << 20),
                AccessPattern::sequential_write(1 << 20),
            ]),
        );
        let sum = a.elapsed + b.elapsed;
        assert!((both.elapsed.get() - sum.get()).abs() < 1e-12);
        assert_eq!(both.bytes_read.get(), 1 << 20);
        assert_eq!(both.bytes_written.get(), 1 << 20);
    }

    #[test]
    fn empty_patterns_cost_nothing() {
        let c = MemoryConfig::hmc_stack();
        for p in [
            AccessPattern::sequential_read(0),
            AccessPattern::Strided {
                stride: 64,
                elem_bytes: 0,
                count: 0,
                write: false,
            },
            AccessPattern::Random {
                elem_bytes: 4,
                count: 0,
                region_bytes: 1 << 20,
            },
            AccessPattern::Then(vec![]),
        ] {
            let s = estimate(&c, &p);
            assert_eq!(s.bytes_moved(), Bytes::ZERO, "{p:?}");
            assert!(s.elapsed.is_zero(), "{p:?}");
        }
    }

    #[test]
    fn gcd_helper() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(0, 0), 1);
    }

    // ----- regression: degenerate configs must error, never panic -----

    #[test]
    fn zero_row_config_is_a_typed_error() {
        let mut c = MemoryConfig::ddr_dual_channel();
        c.mapping = crate::address::AddressMapping::Interleaved {
            units: 2,
            banks_per_unit: 8,
            row_bytes: 0,
            line_bytes: 64,
        };
        let err = try_estimate(&c, &AccessPattern::sequential_read(1 << 20));
        assert!(err.is_err(), "zero-row mapping must be rejected");
        // The historical panic path: a nested Then re-validated per part
        // inside the already-validated body. The typed path must reject
        // the whole pattern up front instead.
        let nested = AccessPattern::Then(vec![
            AccessPattern::sequential_read(1 << 20),
            AccessPattern::sequential_write(1 << 20),
        ]);
        assert!(try_estimate(&c, &nested).is_err());
        assert!(try_effective_bandwidth(&c, &nested).is_err());
    }

    #[test]
    fn single_vault_config_estimates_fine() {
        let mut c = MemoryConfig::hmc_stack();
        c.mapping = crate::address::AddressMapping::Interleaved {
            units: 1,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 256,
        };
        let s = try_estimate(&c, &AccessPattern::sequential_read(8 << 20)).expect("single vault");
        assert!(s.elapsed.get() > 0.0);
        assert_eq!(s.bytes_read.get(), 8 << 20);
    }

    #[test]
    fn asymmetric_split_edges_error_or_estimate_never_panic() {
        // Sweep the split across alignment edges: every outcome must be
        // a value or a typed error.
        for split in [0u64, 1, 63, 64, 4096, (1 << 30) - 1, 1 << 30] {
            let mut c = MemoryConfig::ddr_dual_channel();
            c.mapping = crate::address::AddressMapping::Asymmetric {
                low_units: 2,
                banks_per_unit: 8,
                row_bytes: 8192,
                line_bytes: 64,
                split: mealib_types::PhysAddr::new(split),
            };
            let _ = try_estimate(&c, &AccessPattern::sequential_read(1 << 20));
        }
    }

    #[test]
    fn then_with_invalid_part_shape_still_sums_validated_parts() {
        // Nested Then patterns price identically to their flattening.
        let c = MemoryConfig::hmc_stack();
        let flat = estimate(
            &c,
            &AccessPattern::Then(vec![
                AccessPattern::sequential_read(1 << 20),
                AccessPattern::sequential_write(1 << 20),
            ]),
        );
        let nested = estimate(
            &c,
            &AccessPattern::Then(vec![AccessPattern::Then(vec![
                AccessPattern::sequential_read(1 << 20),
                AccessPattern::sequential_write(1 << 20),
            ])]),
        );
        assert_eq!(flat.bytes_moved(), nested.bytes_moved());
        assert!((flat.elapsed.get() - nested.elapsed.get()).abs() < 1e-12);
    }
}
