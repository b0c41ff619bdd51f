//! Certified static bounds on what the cycle engine will measure.
//!
//! [`trace_bounds`] walks a request trace through the engine's
//! address decoding, but instead of replaying DRAM timing it derives
//! closed [`Interval`] bounds on every counter the engine reports. The
//! walk consumes the same-row runs of `crate::runs::RunDecoder` — the
//! decoder the fast engine replays, whose runs expand into exactly the
//! cycle engine's per-unit burst sequence ([`crate::engine::simulate`])
//! — so it decodes once per run, not once per burst. The guarantee —
//! for every valid config and every trace, `lo <= measured <= hi` on
//! bytes, RD/WR bursts, activations, cycles, and energy — is what
//! `mealib-verify::bounds` certifies and what the differential harness
//! and the soundness proptests check against the engine on every
//! corpus program and workload pipeline.
//!
//! [`tagged_trace_bounds`] is the same walk over a merged multi-tenant
//! trace, with the [`crate::interleave_tenants`] tag column as a
//! per-request attribution sink: alongside the unchanged set-level
//! bounds it returns each tenant's exact [`TenantCounts`]. One pass
//! over the merged runs yields everything the interference composer
//! needs — no per-tenant or per-prefix re-walk — and [`trace_bounds`]
//! is the untagged call of that one loop, so there is a single walk in
//! this module.
//!
//! Where the bounds come from (each anchored to an engine invariant):
//!
//! * **bytes, RD/WR bursts, per-unit traffic** — exact. The burst
//!   stream is a pure function of the trace and the mapping; no timing
//!   is involved.
//! * **activations** — the row-buffer automaton without refresh is
//!   deterministic, giving an exact miss count `base` (stepped once per
//!   run: every burst of a run shares its `(unit, bank, row)`, so only
//!   the first can miss, and per-unit run order is per-unit burst
//!   order, all the count depends on); refresh only
//!   *closes* rows, so it can only add activations: at most
//!   `banks` per refresh window, and never more than one per burst.
//!   Hence `base <= ACT <= min(bursts, base + refresh_hi * banks)`.
//! * **cycles** — lower: each burst occupies the unit data bus for
//!   `t_burst` and the first burst of a unit pays `t_rcd + t_cl`;
//!   consecutive activations of one bank are `t_rc` apart. Upper: a
//!   burst advances the unit's bus-free pointer by at most
//!   `max(t_rc, t_faw) + t_rcd + t_cl + t_burst`, and refresh steals
//!   `t_rfc` out of every `t_refi` — a geometric fixed point that
//!   `DramTiming::validate`'s `t_refi > t_rfc` keeps finite.
//! * **energy** — `DramEnergy::trace_energy` is monotone in
//!   activations, bytes, and elapsed time, so the interval endpoints
//!   map through it soundly.

use mealib_types::{Interval, PhysAddr, Seconds};

use crate::config::MemoryConfig;
use crate::engine::{Op, Request};
use crate::runs::RunDecoder;
use crate::stats::TraceStats;
use crate::trace::TraceBuffer;

/// Certified bounds on the engine counters of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceBounds {
    /// Bytes read (exact).
    pub bytes_read: Interval,
    /// Bytes written (exact).
    pub bytes_written: Interval,
    /// READ bursts issued (exact).
    pub read_bursts: Interval,
    /// WRITE bursts issued (exact).
    pub write_bursts: Interval,
    /// Row activations.
    pub activations: Interval,
    /// Device cycles busy.
    pub cycles: Interval,
    /// Wall-clock busy time in seconds.
    pub elapsed: Interval,
    /// Total energy in joules.
    pub energy: Interval,
    /// Exact burst count per unit (channel/vault) — the static vault
    /// traffic distribution the skew diagnostic inspects.
    pub unit_bursts: Vec<u64>,
}

impl TraceBounds {
    /// Total bursts across all units.
    pub fn total_bursts(&self) -> u64 {
        self.unit_bursts.iter().sum()
    }

    /// Units that receive any traffic at all.
    pub fn units_touched(&self) -> usize {
        self.unit_bursts.iter().filter(|&&n| n > 0).count()
    }

    /// Checks every certified counter against an engine measurement;
    /// returns the first violated counter by name. The differential
    /// harness fails on `Some`.
    pub fn check_contains(&self, measured: &TraceStats) -> Option<String> {
        let checks = [
            (
                "bytes_read",
                self.bytes_read,
                measured.bytes_read.get() as f64,
            ),
            (
                "bytes_written",
                self.bytes_written,
                measured.bytes_written.get() as f64,
            ),
            ("activations", self.activations, measured.activations as f64),
            ("cycles", self.cycles, measured.cycles.get() as f64),
            ("elapsed", self.elapsed, measured.elapsed.get()),
            ("energy", self.energy, measured.energy.get()),
        ];
        for (name, bound, value) in checks {
            if !bound.contains(value) {
                return Some(format!(
                    "{name}: measured {value} outside certified {bound}"
                ));
            }
        }
        None
    }
}

/// Exact per-tenant counts from one [`tagged_trace_bounds`] walk.
///
/// Every field equals what [`trace_bounds`] reports on the tenant's own
/// subsequence: the burst stream of a request depends only on the
/// request and the mapping, never on its neighbours in the merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantCounts {
    /// Bytes read by the tenant's requests.
    pub bytes_read: u64,
    /// Bytes written by the tenant's requests.
    pub bytes_written: u64,
    /// READ bursts of the tenant's requests.
    pub read_bursts: u64,
    /// WRITE bursts of the tenant's requests.
    pub write_bursts: u64,
    /// Bursts per unit, indexed like [`TraceBounds::unit_bursts`].
    pub unit_bursts: Vec<u64>,
    /// Bursts of the merged prefix ending at the tenant's last request
    /// (co-tenants included) on the unit holding that request's final
    /// byte — `trace_bounds(prefix).unit_bursts[u_final]`, snapshotted
    /// as the walk passes the request. `None` for a tenant without
    /// requests.
    pub final_unit_prefix_bursts: Option<u64>,
}

/// The attribution sink of a tagged walk.
struct Attribution<'a> {
    tags: &'a [u16],
    /// Merged index of each tenant's last request (`usize::MAX` when
    /// the tenant has none).
    last: Vec<usize>,
    tenants: Vec<TenantCounts>,
}

/// Per-unit accumulator for the timing-free replay.
#[derive(Debug, PartialEq)]
struct UnitBounds {
    /// Open row per bank in the refresh-free automaton.
    rows: Vec<Option<u64>>,
    /// Misses of the refresh-free automaton, per bank.
    bank_misses: Vec<u64>,
    bursts: u64,
    read_bursts: u64,
    write_bursts: u64,
}

/// Derives certified bounds for `trace` on `config`.
///
/// # Errors
///
/// Returns the first [`mealib_types::ConfigError`] found in `config` —
/// the same rejection surface as [`crate::analytic::try_estimate`] and
/// [`crate::engine::simulate`].
pub fn trace_bounds(
    config: &MemoryConfig,
    trace: &TraceBuffer,
) -> Result<TraceBounds, mealib_types::ConfigError> {
    walk(config, trace, None)
}

/// Derives the certified bounds of a merged multi-tenant `trace` and,
/// in the same walk, each of `tenants` tenants' exact
/// [`TenantCounts`]. `tags[i]` names the tenant owning request `i`, as
/// returned by [`crate::interleave_tenants`]. The set-level bounds are
/// exactly [`trace_bounds`]`(config, trace)`; a tenant without
/// requests reports all-zero counts.
///
/// # Errors
///
/// The same [`mealib_types::ConfigError`]s as [`trace_bounds`].
///
/// # Panics
///
/// Panics when `tags` and `trace` differ in length or a tag is not
/// below `tenants` — the tag column and tenant count come from the
/// interleaver, so a mismatch is a caller bug.
pub fn tagged_trace_bounds(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    tags: &[u16],
    tenants: usize,
) -> Result<(TraceBounds, Vec<TenantCounts>), mealib_types::ConfigError> {
    assert_eq!(tags.len(), trace.len(), "one tag per merged request");
    let mut sink = Attribution::new(config, tags, tenants);
    let bounds = walk(config, trace, Some(&mut sink))?;
    Ok((bounds, sink.tenants))
}

impl<'a> Attribution<'a> {
    /// An all-zero sink for `tenants` tenants tagged by `tags`.
    ///
    /// # Panics
    ///
    /// Panics when a tag is not below `tenants`.
    fn new(config: &MemoryConfig, tags: &'a [u16], tenants: usize) -> Self {
        let mut last = vec![usize::MAX; tenants];
        for (pos, &tag) in tags.iter().enumerate() {
            let slot = last
                .get_mut(tag as usize)
                .unwrap_or_else(|| panic!("tag {tag} out of range for {tenants} tenants"));
            *slot = pos;
        }
        let zero = TenantCounts {
            unit_bursts: vec![0; config.mapping.units()],
            ..TenantCounts::default()
        };
        Self {
            tags,
            last,
            tenants: vec![zero; tenants],
        }
    }
}

/// Everything the walk counts before the interval tail: per-unit
/// traffic and refresh-free misses, and the byte totals. (Tenant counts
/// go to the walk's sink.)
#[derive(Debug, PartialEq)]
struct Accum {
    per_unit: Vec<UnitBounds>,
    bytes_read: u64,
    bytes_written: u64,
}

impl Accum {
    fn new(config: &MemoryConfig) -> Self {
        let banks = config.mapping.banks_per_unit();
        Self {
            per_unit: (0..config.mapping.units())
                .map(|_| UnitBounds {
                    rows: vec![None; banks],
                    bank_misses: vec![0; banks],
                    bursts: 0,
                    read_bursts: 0,
                    write_bursts: 0,
                })
                .collect(),
            bytes_read: 0,
            bytes_written: 0,
        }
    }

    /// Closes the request at merged position `pos`, whose `bursts`
    /// bursts are already counted per unit: adds its bytes and, with a
    /// `sink`, its tenant's bytes and RD/WR bursts, snapshotting the
    /// tenant's prefix count when this is its last request.
    fn finish_request(
        &mut self,
        config: &MemoryConfig,
        sink: Option<&mut Attribution<'_>>,
        pos: usize,
        req: Request,
        bursts: u64,
    ) {
        match req.op {
            Op::Read => self.bytes_read += req.bytes,
            Op::Write => self.bytes_written += req.bytes,
        }
        let Some(s) = sink else { return };
        let tenant = s.tags[pos] as usize;
        let o = &mut s.tenants[tenant];
        match req.op {
            Op::Read => {
                o.read_bursts += bursts;
                o.bytes_read += req.bytes;
            }
            Op::Write => {
                o.write_bursts += bursts;
                o.bytes_written += req.bytes;
            }
        }
        if s.last[tenant] == pos {
            let final_byte = req.addr.get() + req.bytes.saturating_sub(1);
            let u_final = config.mapping.decode(PhysAddr::new(final_byte)).unit;
            o.final_unit_prefix_bursts = Some(self.per_unit[u_final].bursts);
        }
    }
}

/// The one walk behind [`trace_bounds`] and [`tagged_trace_bounds`]:
/// [`accumulate`], then the interval tail.
fn walk(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    sink: Option<&mut Attribution<'_>>,
) -> Result<TraceBounds, mealib_types::ConfigError> {
    config.validate()?;
    Ok(interval_bounds(config, &accumulate(config, trace, sink)))
}

/// Counts `trace`'s runs on a validated `config`. A run adds its `n`
/// bursts to its unit (and its tenant) and steps the bank's row
/// automaton once: every burst of a run shares its `(unit, bank, row)`,
/// so only the first can miss.
fn accumulate(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    mut sink: Option<&mut Attribution<'_>>,
) -> Accum {
    let decoder = RunDecoder::new(config);
    let mut acc = Accum::new(config);
    for (pos, req) in trace.iter().enumerate() {
        let mut owner = sink
            .as_deref_mut()
            .map(|s| &mut s.tenants[s.tags[pos] as usize].unit_bursts);
        let mut bursts = 0u64;
        decoder.request(
            req.addr.get(),
            req.bytes,
            #[inline(always)]
            |run| {
                let n = u64::from(run.n);
                let u = &mut acc.per_unit[run.unit];
                u.bursts += n;
                match req.op {
                    Op::Read => u.read_bursts += n,
                    Op::Write => u.write_bursts += n,
                }
                // Refresh-free row automaton: exact lower bound on misses.
                let bank = run.bank as usize;
                if u.rows[bank] != Some(run.row) {
                    u.bank_misses[bank] += 1;
                    u.rows[bank] = Some(run.row);
                }
                if let Some(o) = owner.as_deref_mut() {
                    o[run.unit] += n;
                }
                bursts += n;
            },
        );
        acc.finish_request(config, sink.as_deref_mut(), pos, req, bursts);
    }
    acc
}

/// The interval tail: certified bounds from the accumulated counts.
fn interval_bounds(config: &MemoryConfig, acc: &Accum) -> TraceBounds {
    let t = &config.timing;
    let banks = config.mapping.banks_per_unit();
    let per_unit = &acc.per_unit;
    let (bytes_read, bytes_written) = (acc.bytes_read, acc.bytes_written);

    // Worst-case bus advance of a single burst (conflict + tFAW stall).
    let delta = t.t_rc().max(t.t_faw) + t.t_rcd + t.t_cl + t.t_burst;
    // Refresh steals t_rfc per t_refi; validate() guarantees the
    // denominator is positive.
    let refresh_stretch = 1.0 / (1.0 - t.t_rfc as f64 / t.t_refi as f64);

    let mut cycles_lo = 0u64;
    let mut cycles_hi = 0u64;
    let mut act_lo = 0u64;
    let mut act_hi = 0u64;
    for u in per_unit {
        if u.bursts == 0 {
            continue;
        }
        let base_misses: u64 = u.bank_misses.iter().sum();

        // Lower bound: data-bus occupancy plus the first access's
        // ACT-to-data latency...
        let lo_bus = t.t_rcd + t.t_cl + u.bursts * t.t_burst;
        // ...and the per-bank activation spacing (t_rc between ACTs).
        let lo_bank = u
            .bank_misses
            .iter()
            .filter(|&&mis| mis > 0)
            .map(|&mis| (mis - 1) * t.t_rc() + t.t_rcd + t.t_cl + t.t_burst)
            .max()
            .unwrap_or(0);
        cycles_lo = cycles_lo.max(lo_bus.max(lo_bank));

        // Upper bound: every burst pays the full conflict path, then the
        // whole schedule is stretched by refresh; one extra t_rfc covers
        // a refresh landing after the final burst's due computation.
        let hi_u = ((u.bursts * delta) as f64 * refresh_stretch).ceil() as u64 + t.t_rfc;
        cycles_hi = cycles_hi.max(hi_u);

        // Activation interval (see module docs for the soundness
        // argument).
        act_lo += base_misses;
        let refresh_hi = hi_u / t.t_refi;
        act_hi += u
            .bursts
            .min(base_misses + refresh_hi.saturating_mul(banks as u64));
    }

    let cycles = Interval::new(cycles_lo as f64, cycles_hi as f64);
    let elapsed = cycles.scale(t.t_ck.get());
    let bytes_moved = bytes_read + bytes_written;
    // trace_energy is monotone in all three arguments, so mapping the
    // endpoints through it bounds the engine's energy.
    let energy_lo = config
        .energy
        .trace_energy(act_lo, bytes_moved, Seconds::new(elapsed.lo));
    let energy_hi = config
        .energy
        .trace_energy(act_hi, bytes_moved, Seconds::new(elapsed.hi));

    TraceBounds {
        bytes_read: Interval::exact(bytes_read as f64),
        bytes_written: Interval::exact(bytes_written as f64),
        read_bursts: Interval::exact(per_unit.iter().map(|u| u.read_bursts).sum::<u64>() as f64),
        write_bursts: Interval::exact(per_unit.iter().map(|u| u.write_bursts).sum::<u64>() as f64),
        activations: Interval::new(act_lo as f64, act_hi as f64),
        cycles,
        elapsed,
        energy: Interval::new(energy_lo.get(), energy_hi.get()),
        unit_bursts: per_unit.iter().map(|u| u.bursts).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, Op, Request, SimOptions};
    use crate::interleave_tenants;
    use crate::strategies::{mapping_config_strategy, tenant_strategy};
    use proptest::prelude::*;

    /// The per-burst loop the run walk replaced, kept as its reference:
    /// every burst of the cycle oracle's split decoded and stepped
    /// through the row automaton on its own.
    fn reference_accumulate(
        config: &MemoryConfig,
        trace: &TraceBuffer,
        mut sink: Option<&mut Attribution<'_>>,
    ) -> Accum {
        let mut acc = Accum::new(config);
        for (pos, req) in trace.iter().enumerate() {
            let mut bursts = 0u64;
            let one = TraceBuffer::from(&[req]);
            engine::for_each_burst_tagged(&config.timing, &config.mapping, &one, None, |b| {
                let loc = b.loc;
                let u = &mut acc.per_unit[loc.unit];
                u.bursts += 1;
                match req.op {
                    Op::Read => u.read_bursts += 1,
                    Op::Write => u.write_bursts += 1,
                }
                if u.rows[loc.bank] != Some(loc.row) {
                    u.bank_misses[loc.bank] += 1;
                    u.rows[loc.bank] = Some(loc.row);
                }
                if let Some(s) = sink.as_deref_mut() {
                    s.tenants[s.tags[pos] as usize].unit_bursts[loc.unit] += 1;
                }
                bursts += 1;
            });
            acc.finish_request(config, sink.as_deref_mut(), pos, req, bursts);
        }
        acc
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The run walk accumulates exactly what the per-burst walk did —
        /// per-unit bursts, RD/WR bursts, per-bank misses and open rows,
        /// bytes, and every tenant count — untagged and tagged. The
        /// interval tail is shared, so every `TraceBounds` field follows.
        #[test]
        fn run_walk_matches_the_per_burst_reference(
            cfg in mapping_config_strategy(),
            streams in proptest::collection::vec(tenant_strategy(), 1..=4),
        ) {
            let (merged, tags) = interleave_tenants(&streams);
            prop_assert_eq!(
                accumulate(&cfg, &merged, None),
                reference_accumulate(&cfg, &merged, None)
            );
            let mut runs = Attribution::new(&cfg, &tags, streams.len());
            let mut bursts = Attribution::new(&cfg, &tags, streams.len());
            prop_assert_eq!(
                accumulate(&cfg, &merged, Some(&mut runs)),
                reference_accumulate(&cfg, &merged, Some(&mut bursts))
            );
            prop_assert_eq!(runs.tenants, bursts.tenants);
        }
    }

    fn check(config: &MemoryConfig, trace: &TraceBuffer) -> TraceBounds {
        let bounds = trace_bounds(config, trace).expect("valid config");
        let measured = engine::simulate(config, trace, &SimOptions::dual_check())
            .expect("valid config")
            .stats;
        if let Some(violation) = bounds.check_contains(&measured) {
            panic!("{}: {violation}", config.name);
        }
        bounds
    }

    #[test]
    fn bounds_contain_engine_on_presets_sequential() {
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
        ] {
            let trace = engine::sequential_trace(0, 4 << 20, 256, Op::Read);
            let b = check(&config, &trace);
            assert!(b.bytes_read.is_exact());
            assert_eq!(b.bytes_read.lo, (4u64 << 20) as f64);
            assert_eq!(b.units_touched(), config.mapping.units());
        }
    }

    #[test]
    fn bounds_contain_engine_on_strided_and_mixed() {
        let config = MemoryConfig::hmc_stack();
        let mut trace = engine::strided_trace(0, 8192, 64, 4096, Op::Read);
        trace.extend(&engine::sequential_trace(1 << 26, 1 << 20, 256, Op::Write));
        let b = check(&config, &trace);
        assert!(b.read_bursts.is_exact() && b.write_bursts.is_exact());
        assert!(b.bytes_written.contains((1u64 << 20) as f64));
    }

    #[test]
    fn burst_counts_match_engine_vault_stats() {
        let config = MemoryConfig::hmc_stack();
        let trace = engine::sequential_trace(4096, 2 << 20, 256, Op::Read);
        let bounds = trace_bounds(&config, &trace).unwrap();
        let run = engine::simulate(&config, &trace, &SimOptions::cycle()).unwrap();
        let measured: Vec<u64> = run
            .vaults
            .iter()
            .map(|v| v.read_bursts + v.write_bursts)
            .collect();
        assert_eq!(bounds.unit_bursts, measured, "per-unit traffic is exact");
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let b = trace_bounds(&MemoryConfig::hmc_stack(), &TraceBuffer::new()).unwrap();
        assert_eq!(b.cycles, Interval::ZERO);
        assert_eq!(b.total_bursts(), 0);
        assert_eq!(b.energy, Interval::ZERO);
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut c = MemoryConfig::ddr_dual_channel();
        c.mapping = crate::address::AddressMapping::Interleaved {
            units: 0,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        let one = TraceBuffer::from(&[Request::read(0, 64)]);
        assert!(trace_bounds(&c, &one).is_err());
    }

    #[test]
    fn asymmetric_high_region_traffic_lands_on_one_unit() {
        let split = 1u64 << 30;
        let mut c = MemoryConfig::ddr_dual_channel();
        c.mapping = crate::address::AddressMapping::Asymmetric {
            low_units: 2,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
            split: PhysAddr::new(split),
        };
        let trace = engine::sequential_trace(split, 1 << 20, 64, Op::Read);
        let b = check(&c, &trace);
        assert_eq!(b.units_touched(), 1, "high region is single-unit");
        assert_eq!(b.unit_bursts[2], b.total_bursts());
    }
}
