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
//! needs — no per-tenant or per-prefix re-walk. [`segment_bounds`]
//! takes a program as [`Segment`]s — request sequences with a repeat
//! count, the shape of a `LOOP` body — and [`trace_bounds`] is its
//! single-segment call, so there is a single walk in this module.
//!
//! **Cost.** The walk costs O(mapping periods + loop bodies), not
//! O(bytes × iterations):
//!
//! * *Periods.* A mapping period is `units × banks × row_bytes`
//!   (1 MiB on `hmc_stack`; one per region of an asymmetric mapping).
//!   Every whole, aligned period of a request gives each unit of its
//!   region the same bursts, opens one row — the period index — in
//!   every bank, and nothing else, so the walk prices a stretch of `k`
//!   whole periods in closed form (`Accum::periods`) and decodes only
//!   the request's head and tail literally. The rule for where that
//!   algebra is exact lives in `PeriodRule::new`; everywhere else the
//!   walk is literal.
//! * *Loops.* A segment repeated `r > 2` times is walked twice; the
//!   remaining `r − 2` iterations add iteration 2's deltas. A body
//!   leaves every bank it touches on the row it touched last, whatever
//!   state it entered with, so the state entering iteration 2 is the
//!   state entering every later iteration.
//!
//! Both compressions leave every count bit-identical to the literal
//! per-burst walk (a proptest below holds them equal), and counts that
//! cannot fit `u64` are a typed [`BoundsError::Overflow`], never a
//! wrapped value.
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
//!   `DramTiming::check`'s `t_refi > t_rfc` keeps finite.
//! * **energy** — `DramEnergy::trace_energy` is monotone in
//!   activations, bytes, and elapsed time, so the interval endpoints
//!   map through it soundly.

use std::fmt;
use std::ops::Range;

use mealib_types::{ConfigError, Interval, PhysAddr, Seconds};

use crate::address::AddressMapping;
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

/// Why a walk certified nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundsError {
    /// The configuration failed validation — the same rejection surface
    /// as [`crate::analytic::try_estimate`] and
    /// [`crate::engine::simulate`].
    Config(ConfigError),
    /// The bytes the trace moves, reads and writes together and loops
    /// repeated, do not fit `u64`: no bound is certified rather than
    /// one computed from a wrapped count.
    Overflow,
    /// Certifying the program would take more unrolled loop steps than
    /// the analysis budget allows: no bound is certified rather than
    /// the walk running for as long as the loop counts say.
    WorkBudget {
        /// Steps the unrolled walk would take (saturating at
        /// `u64::MAX`).
        steps: u64,
        /// The budget it exceeds.
        budget: u64,
    },
}

impl From<ConfigError> for BoundsError {
    fn from(e: ConfigError) -> Self {
        Self::Config(e)
    }
}

impl fmt::Display for BoundsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => e.fmt(f),
            Self::Overflow => f.write_str("the trace moves more bytes than a u64 counts"),
            Self::WorkBudget { steps, budget } => write!(
                f,
                "certifying would take {steps} unrolled loop steps, over the analysis \
                 budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for BoundsError {}

/// A request sequence issued `repeat` times back to back: how a `LOOP`
/// body reaches [`segment_bounds`] without being unrolled.
#[derive(Debug, Clone, Copy)]
pub struct Segment<'a> {
    /// One iteration's requests, in order.
    pub trace: &'a TraceBuffer,
    /// Iterations; 0 issues nothing.
    pub repeat: u64,
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
    /// that moves at least one byte (co-tenants included) on the unit
    /// holding that request's final byte —
    /// `trace_bounds(prefix).unit_bursts[u_final]`, snapshotted as the
    /// walk passes the request. A zero-byte request issues no burst, so
    /// a prefix ending there would charge the tenant for co-tenant
    /// bursts its own traffic never waits behind. `None` for a tenant
    /// without such a request.
    pub final_unit_prefix_bursts: Option<u64>,
}

/// The attribution sink of a tagged walk.
struct Attribution<'a> {
    tags: &'a [u16],
    /// Merged index of each tenant's last request that moves at least
    /// one byte (`usize::MAX` when the tenant has none).
    last: Vec<usize>,
    tenants: Vec<TenantCounts>,
}

/// Per-unit accumulator for the timing-free replay.
#[derive(Debug, Clone, PartialEq)]
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
/// [`BoundsError::Config`] with the first [`ConfigError`] found in
/// `config`; [`BoundsError::Overflow`] when the trace moves more than
/// `u64::MAX` bytes.
pub fn trace_bounds(
    config: &MemoryConfig,
    trace: &TraceBuffer,
) -> Result<TraceBounds, BoundsError> {
    segment_bounds(config, &[Segment { trace, repeat: 1 }])
}

/// Derives certified bounds for the program that issues `segments` in
/// order, each segment's requests `repeat` times over: exactly
/// [`trace_bounds`] of the unrolled trace, for the walk of at most two
/// iterations per segment.
///
/// # Errors
///
/// The same [`BoundsError`]s as [`trace_bounds`] on the unrolled trace.
pub fn segment_bounds(
    config: &MemoryConfig,
    segments: &[Segment<'_>],
) -> Result<TraceBounds, BoundsError> {
    walk(config, segments, None)
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
/// The same [`BoundsError`]s as [`trace_bounds`].
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
) -> Result<(TraceBounds, Vec<TenantCounts>), BoundsError> {
    assert_eq!(tags.len(), trace.len(), "one tag per merged request");
    let mut sink = Attribution::new(config, trace, tags, tenants);
    let bounds = walk(config, &[Segment { trace, repeat: 1 }], Some(&mut sink))?;
    Ok((bounds, sink.tenants))
}

impl<'a> Attribution<'a> {
    /// An all-zero sink for `tenants` tenants owning the requests of
    /// `trace` as tagged by `tags`.
    ///
    /// # Panics
    ///
    /// Panics when a tag is not below `tenants`.
    fn new(config: &MemoryConfig, trace: &TraceBuffer, tags: &'a [u16], tenants: usize) -> Self {
        let mut last = vec![usize::MAX; tenants];
        for (pos, (&tag, &bytes)) in tags.iter().zip(trace.bytes()).enumerate() {
            let slot = last
                .get_mut(tag as usize)
                .unwrap_or_else(|| panic!("tag {tag} out of range for {tenants} tenants"));
            if bytes > 0 {
                *slot = pos;
            }
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

/// A region of the address space whose whole mapping periods the walk
/// prices in closed form.
#[derive(Debug, Clone)]
struct PeriodRegion {
    /// Where periods are counted from: 0, or the asymmetric split.
    origin: u64,
    /// First address past the region.
    limit: u64,
    /// Bytes per period: the region's units × banks × `row_bytes`.
    period: u64,
    /// The units the region maps to.
    units: Range<usize>,
    /// Bursts each unit of the region takes per period:
    /// banks × `row_bytes` / `burst_bytes`.
    unit_bursts: u64,
}

/// `k ≥ 1` whole periods of one region inside a request.
#[derive(Debug, Clone, Copy)]
struct Stretch<'r> {
    region: &'r PeriodRegion,
    /// First byte, a period boundary.
    start: u64,
    periods: u64,
}

impl Stretch<'_> {
    /// First byte past the stretch, a period boundary.
    fn end(&self) -> u64 {
        self.start + self.periods * self.region.period
    }
}

/// Where the walk may price whole periods in closed form: at most two
/// regions, in address order.
#[derive(Debug)]
struct PeriodRule {
    regions: Vec<PeriodRegion>,
}

impl PeriodRule {
    /// The compression rule. A region's whole, aligned periods are
    /// priced in closed form only where all of these hold — everywhere
    /// else the walk decodes literally:
    ///
    /// 1. `burst_bytes` divides `line_bytes` (and, above an asymmetric
    ///    split, the split): every line of a period then holds whole
    ///    bursts starting on it, period edges are burst and span edges
    ///    — so no run crosses one, and the walk may cut a request there
    ///    — and each unit of the region takes banks × `row_bytes` /
    ///    `burst_bytes` bursts per period.
    /// 2. Within a period every unit of the region sees every bank on
    ///    one row, the period index: `Interleaved` with any counts,
    ///    `XorInterleaved` with power-of-two units and banks (its unit
    ///    fold then permutes the units of a super-line and its bank
    ///    fold the banks of a row index; other counts need not be
    ///    permutations), and each side of `Asymmetric` — its
    ///    interleaved low region below the split, and its one-unit high
    ///    region counted from the split.
    /// 3. The period fits `u64`.
    ///
    /// The first period of a stretch then misses once in every bank
    /// not already holding its row, each later period once in every
    /// bank, and the banks end on the last period's row.
    fn new(config: &MemoryConfig) -> Self {
        let burst = config.timing.burst_bytes;
        let banks = config.mapping.banks_per_unit();
        let row = config.mapping.row_bytes();
        let region = |origin: u64, limit: u64, units: Range<usize>| {
            let period = (units.len() as u64)
                .checked_mul(banks as u64)?
                .checked_mul(row)?;
            Some(PeriodRegion {
                origin,
                limit,
                period,
                units,
                unit_bursts: banks as u64 * (row / burst),
            })
        };
        let regions = match config.mapping {
            AddressMapping::Interleaved {
                units, line_bytes, ..
            } if line_bytes % burst == 0 => vec![region(0, u64::MAX, 0..units)],
            AddressMapping::XorInterleaved {
                units, line_bytes, ..
            } if line_bytes % burst == 0 && units.is_power_of_two() && banks.is_power_of_two() => {
                vec![region(0, u64::MAX, 0..units)]
            }
            AddressMapping::Asymmetric {
                low_units,
                line_bytes,
                split,
                ..
            } if line_bytes % burst == 0 => {
                let split = split.get();
                let mut sides = vec![region(0, split, 0..low_units)];
                if split % burst == 0 {
                    sides.push(region(split, u64::MAX, low_units..low_units + 1));
                }
                sides
            }
            _ => Vec::new(),
        };
        Self {
            regions: regions.into_iter().flatten().collect(),
        }
    }

    /// The first stretch of whole periods inside `[addr, end)`, if any.
    fn next_stretch(&self, addr: u64, end: u64) -> Option<Stretch<'_>> {
        self.regions.iter().find_map(|r| {
            let lo = addr.max(r.origin);
            let hi = end.min(r.limit);
            if hi <= lo || hi - lo < r.period {
                return None;
            }
            let start = (lo - r.origin)
                .div_ceil(r.period)
                .checked_mul(r.period)?
                .checked_add(r.origin)?;
            let periods = hi.checked_sub(start)? / r.period;
            (periods > 0).then_some(Stretch {
                region: r,
                start,
                periods,
            })
        })
    }
}

/// Everything the walk counts before the interval tail: per-unit
/// traffic and refresh-free misses, and the byte totals. (Tenant counts
/// go to the walk's sink.)
#[derive(Debug, Clone, PartialEq)]
struct Accum {
    per_unit: Vec<UnitBounds>,
    /// With `bytes_written`, at most `u64::MAX` bytes together.
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

    /// Adds a request's bytes, unless the bytes moved would no longer
    /// fit `u64`. Every other count is bounded by the bytes moved (a
    /// burst carries at least one byte), so none can overflow after
    /// this check passes.
    fn add_bytes(&mut self, op: Op, bytes: u64) -> Result<(), BoundsError> {
        self.bytes_read
            .checked_add(self.bytes_written)
            .and_then(|moved| moved.checked_add(bytes))
            .ok_or(BoundsError::Overflow)?;
        match op {
            Op::Read => self.bytes_read += bytes,
            Op::Write => self.bytes_written += bytes,
        }
        Ok(())
    }

    /// Counts one request: whole periods in closed form, the rest run
    /// by run. Returns the bursts it issued; `owner` is its tenant's
    /// per-unit burst row.
    fn request(
        &mut self,
        decoder: &RunDecoder,
        rule: &PeriodRule,
        req: Request,
        mut owner: Option<&mut Vec<u64>>,
    ) -> u64 {
        let start = req.addr.get();
        let end = start.checked_add(req.bytes);
        let mut addr = start;
        let mut bursts = 0;
        while let Some(s) = end.and_then(|end| rule.next_stretch(addr, end)) {
            bursts += self.runs(decoder, req.op, addr, s.start - addr, owner.as_deref_mut());
            bursts += self.periods(s, req.op, owner.as_deref_mut());
            addr = s.end();
        }
        bursts + self.runs(decoder, req.op, addr, req.bytes - (addr - start), owner)
    }

    /// Counts the runs of `[addr, addr + bytes)`. A run adds its `n`
    /// bursts to its unit (and its tenant) and steps the bank's row
    /// automaton once: every burst of a run shares its
    /// `(unit, bank, row)`, so only the first can miss.
    fn runs(
        &mut self,
        decoder: &RunDecoder,
        op: Op,
        addr: u64,
        bytes: u64,
        mut owner: Option<&mut Vec<u64>>,
    ) -> u64 {
        let mut bursts = 0u64;
        decoder.request(
            addr,
            bytes,
            #[inline(always)]
            |run| {
                let n = run.n;
                let u = &mut self.per_unit[run.unit];
                u.bursts += n;
                match op {
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
        bursts
    }

    /// Counts a stretch of whole periods in closed form (see
    /// [`PeriodRule::new`] for why it is exact). Returns its bursts.
    fn periods(&mut self, s: Stretch<'_>, op: Op, mut owner: Option<&mut Vec<u64>>) -> u64 {
        let r = s.region;
        let k = s.periods;
        let row = (s.start - r.origin) / r.period;
        let n = r.unit_bursts * k;
        for unit in r.units.clone() {
            let u = &mut self.per_unit[unit];
            u.bursts += n;
            match op {
                Op::Read => u.read_bursts += n,
                Op::Write => u.write_bursts += n,
            }
            for (open, misses) in u.rows.iter_mut().zip(&mut u.bank_misses) {
                *misses += u64::from(*open != Some(row)) + (k - 1);
                *open = Some(row + k - 1);
            }
            if let Some(o) = owner.as_deref_mut() {
                o[unit] += n;
            }
        }
        n * r.units.len() as u64
    }

    /// Adds `times` more iterations of what was counted since `before`
    /// — the deltas of one loop iteration. Open rows stay as they are:
    /// the iteration after `before` left them where every later one
    /// will.
    fn repeat_since(&mut self, before: &Accum, times: u64) -> Result<(), BoundsError> {
        let grow = |now: &mut u64, then: u64| -> Result<(), BoundsError> {
            *now = (*now - then)
                .checked_mul(times)
                .and_then(|more| now.checked_add(more))
                .ok_or(BoundsError::Overflow)?;
            Ok(())
        };
        grow(&mut self.bytes_read, before.bytes_read)?;
        grow(&mut self.bytes_written, before.bytes_written)?;
        self.bytes_read
            .checked_add(self.bytes_written)
            .ok_or(BoundsError::Overflow)?;
        for (u, b) in self.per_unit.iter_mut().zip(&before.per_unit) {
            grow(&mut u.bursts, b.bursts)?;
            grow(&mut u.read_bursts, b.read_bursts)?;
            grow(&mut u.write_bursts, b.write_bursts)?;
            for (m, &then) in u.bank_misses.iter_mut().zip(&b.bank_misses) {
                grow(m, then)?;
            }
        }
        Ok(())
    }

    /// Attributes the request at merged position `pos`, whose `bursts`
    /// bursts are already counted per unit, to its tenant: its bytes
    /// and RD/WR bursts, and the tenant's prefix count when this is its
    /// last request that moves a byte.
    fn attribute(
        &self,
        config: &MemoryConfig,
        s: &mut Attribution<'_>,
        pos: usize,
        req: Request,
        bursts: u64,
    ) {
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

/// The one walk behind [`trace_bounds`], [`segment_bounds`] and
/// [`tagged_trace_bounds`]: [`accumulate`], then the interval tail.
fn walk(
    config: &MemoryConfig,
    segments: &[Segment<'_>],
    sink: Option<&mut Attribution<'_>>,
) -> Result<TraceBounds, BoundsError> {
    config.validate()?;
    Ok(interval_bounds(
        config,
        &accumulate(config, segments, sink)?,
    ))
}

/// Counts `segments` on a validated `config`: iterations 1 and 2 of a
/// segment request by request, later ones as repeats of iteration 2.
/// Merged positions, which index the sink's tags, count every request
/// walked; the tagged walk passes one segment of one iteration.
fn accumulate(
    config: &MemoryConfig,
    segments: &[Segment<'_>],
    mut sink: Option<&mut Attribution<'_>>,
) -> Result<Accum, BoundsError> {
    let decoder = RunDecoder::new(config);
    let rule = PeriodRule::new(config);
    let mut acc = Accum::new(config);
    let mut pos = 0usize;
    for seg in segments {
        let mut before = None;
        for iter in 0..seg.repeat.min(2) {
            if iter == 1 && seg.repeat > 2 {
                before = Some(acc.clone());
            }
            for req in seg.trace.iter() {
                acc.add_bytes(req.op, req.bytes)?;
                let owner = sink
                    .as_deref_mut()
                    .map(|s| &mut s.tenants[s.tags[pos] as usize].unit_bursts);
                let bursts = acc.request(&decoder, &rule, req, owner);
                if let Some(s) = sink.as_deref_mut() {
                    acc.attribute(config, s, pos, req, bursts);
                }
                pos += 1;
            }
        }
        if let Some(before) = before {
            acc.repeat_since(&before, seg.repeat - 2)?;
        }
    }
    Ok(acc)
}

/// The interval tail: certified bounds from the accumulated counts.
///
/// Products and sums are taken in `u128` — a walk of a 2⁶² B request
/// counts bursts whose cycle products pass `u64::MAX` — with the upper
/// bounds saturating, so every value the `u64` arithmetic computes
/// without overflow comes out bit-identical.
fn interval_bounds(config: &MemoryConfig, acc: &Accum) -> TraceBounds {
    let t = &config.timing;
    let wide = u128::from;
    let banks = config.mapping.banks_per_unit() as u128;
    let per_unit = &acc.per_unit;
    let (bytes_read, bytes_written) = (acc.bytes_read, acc.bytes_written);

    let t_rc = wide(t.t_ras) + wide(t.t_rp);
    let cold = wide(t.t_rcd) + wide(t.t_cl);
    // Worst-case bus advance of a single burst (conflict + tFAW stall).
    let delta = t_rc.max(wide(t.t_faw)) + cold + wide(t.t_burst);
    // Refresh steals t_rfc per t_refi; validate() guarantees the
    // denominator is positive.
    let refresh_stretch = 1.0 / (1.0 - t.t_rfc as f64 / t.t_refi as f64);

    let mut cycles_lo = 0u128;
    let mut cycles_hi = 0u128;
    let mut act_lo = 0u64;
    let mut act_hi = 0u64;
    for u in per_unit {
        if u.bursts == 0 {
            continue;
        }
        let base_misses: u64 = u.bank_misses.iter().sum();

        // Lower bound: data-bus occupancy plus the first access's
        // ACT-to-data latency...
        let lo_bus = cold + wide(u.bursts) * wide(t.t_burst);
        // ...and the per-bank activation spacing (t_rc between ACTs).
        let lo_bank = u
            .bank_misses
            .iter()
            .filter(|&&mis| mis > 0)
            .map(|&mis| wide(mis - 1) * t_rc + cold + wide(t.t_burst))
            .max()
            .unwrap_or(0);
        cycles_lo = cycles_lo.max(lo_bus.max(lo_bank));

        // Upper bound: every burst pays the full conflict path, then the
        // whole schedule is stretched by refresh; one extra t_rfc covers
        // a refresh landing after the final burst's due computation.
        let hi_u = ((wide(u.bursts) * delta) as f64 * refresh_stretch).ceil() as u128;
        let hi_u = hi_u.saturating_add(wide(t.t_rfc));
        cycles_hi = cycles_hi.max(hi_u);

        // Activation interval (see module docs for the soundness
        // argument); at most one per burst, so it fits u64.
        act_lo += base_misses;
        let refresh_hi = hi_u / wide(t.t_refi);
        let refresh_acts = wide(base_misses).saturating_add(refresh_hi.saturating_mul(banks));
        act_hi += u
            .bursts
            .min(u64::try_from(refresh_acts).unwrap_or(u64::MAX));
    }

    let cycles = Interval::new(cycles_lo as f64, cycles_hi as f64);
    let elapsed = cycles.scale(t.t_ck.get());
    // `Accum::add_bytes` keeps the bytes moved within u64.
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
    use crate::strategies::{mapping_config_strategy, period_case_strategy, tenant_strategy};
    use proptest::prelude::*;

    /// The per-burst loop the run walk replaced, kept as its reference:
    /// every burst of the cycle oracle's split decoded and stepped
    /// through the row automaton on its own, over the unrolled trace.
    fn reference_accumulate(
        config: &MemoryConfig,
        trace: &TraceBuffer,
        mut sink: Option<&mut Attribution<'_>>,
    ) -> Accum {
        let mut acc = Accum::new(config);
        for (pos, req) in trace.iter().enumerate() {
            acc.add_bytes(req.op, req.bytes)
                .expect("test traces fit u64");
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
            if let Some(s) = sink.as_deref_mut() {
                acc.attribute(config, s, pos, req, bursts);
            }
        }
        acc
    }

    /// The walk of `trace` as one segment of one iteration.
    fn walked(
        config: &MemoryConfig,
        trace: &TraceBuffer,
        sink: Option<&mut Attribution<'_>>,
    ) -> Accum {
        accumulate(config, &[Segment { trace, repeat: 1 }], sink).expect("test traces fit u64")
    }

    /// Untagged and tagged (requests dealt round-robin to `tenants`
    /// tenants), the walk must accumulate exactly what the per-burst
    /// reference does: per-unit bursts, RD/WR bursts, per-bank misses
    /// and open rows, bytes, and every tenant count.
    fn assert_walk_is_exact(cfg: &MemoryConfig, trace: &TraceBuffer, tags: &[u16], tenants: usize) {
        prop_assert_eq!(
            walked(cfg, trace, None),
            reference_accumulate(cfg, trace, None)
        );
        let mut runs = Attribution::new(cfg, trace, tags, tenants);
        let mut bursts = Attribution::new(cfg, trace, tags, tenants);
        prop_assert_eq!(
            walked(cfg, trace, Some(&mut runs)),
            reference_accumulate(cfg, trace, Some(&mut bursts))
        );
        prop_assert_eq!(runs.tenants, bursts.tenants);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The run walk accumulates exactly what the per-burst walk did.
        /// The interval tail is shared, so every `TraceBounds` field
        /// follows.
        #[test]
        fn run_walk_matches_the_per_burst_reference(
            cfg in mapping_config_strategy(),
            streams in proptest::collection::vec(tenant_strategy(), 1..=4),
        ) {
            let (merged, tags) = interleave_tenants(&streams);
            assert_walk_is_exact(&cfg, &merged, &tags, streams.len());
        }

        /// Requests of 0–8 whole periods behind a misaligned head, on
        /// all three mapping modes with small rows: the closed-form
        /// period walk, and the literal fallback where the compression
        /// rule declines, are exact.
        #[test]
        fn period_walk_matches_the_per_burst_reference((cfg, trace) in period_case_strategy()) {
            let tags: Vec<u16> = (0..trace.len()).map(|i| (i % 2) as u16).collect();
            assert_walk_is_exact(&cfg, &trace, &tags, 2);
        }

        /// A segment repeated 1, 2, 3 or 17 times between a prefix and
        /// a suffix accumulates exactly what its unrolled trace does.
        #[test]
        fn repeated_segment_matches_the_unrolled_walk(
            (cfg, trace) in period_case_strategy(),
            repeat in prop_oneof![Just(1u64), Just(2), Just(3), Just(17)],
            cut in 0usize..4,
        ) {
            let requests: Vec<Request> = trace.iter().collect();
            let cut = cut.min(requests.len());
            let prefix = TraceBuffer::from(&requests[..cut / 2]);
            let body = TraceBuffer::from(&requests[cut / 2..]);
            let suffix = TraceBuffer::from(&requests[..cut]);
            let mut unrolled = prefix.clone();
            for _ in 0..repeat {
                unrolled.extend(body.iter());
            }
            unrolled.extend(suffix.iter());
            let segments = [
                Segment { trace: &prefix, repeat: 1 },
                Segment { trace: &body, repeat },
                Segment { trace: &suffix, repeat: 1 },
            ];
            prop_assert_eq!(
                accumulate(&cfg, &segments, None).expect("test traces fit u64"),
                reference_accumulate(&cfg, &unrolled, None)
            );
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
    fn whole_periods_of_a_large_request_are_one_stretch() {
        // 16 MiB from 4 KiB on hmc_stack (1 MiB periods): the head runs
        // to 1 MiB, then 15 whole periods, then a 4 KiB tail.
        let config = MemoryConfig::hmc_stack();
        let rule = PeriodRule::new(&config);
        let s = rule.next_stretch(0x1000, 0x1000 + (16 << 20)).unwrap();
        assert_eq!((s.start, s.periods, s.end()), (1 << 20, 15, 16 << 20));
        assert!(
            rule.next_stretch(0x1000, 1 << 20).is_none(),
            "no whole period"
        );
    }

    #[test]
    fn exabyte_requests_certify_without_overflow() {
        // Walked in closed form, a 2^62 B request costs what a 2^40 B
        // one does, and its u128 interval tail neither wraps nor panics
        // (this runs in debug builds, which check every u64 operation).
        for config in [MemoryConfig::hmc_stack(), MemoryConfig::ddr_dual_channel()] {
            let one = |bytes: u64| {
                trace_bounds(&config, &TraceBuffer::from(&[Request::read(0x1000, bytes)])).unwrap()
            };
            let (huge, big) = (one(1 << 62), one(1 << 40));
            assert_eq!(huge.bytes_read.lo, (1u64 << 62) as f64);
            assert!(huge.cycles.hi >= big.cycles.hi, "{}", config.name);
            assert!(huge.energy.hi >= big.energy.hi, "{}", config.name);
        }
    }

    #[test]
    fn bytes_past_u64_are_a_typed_error() {
        let config = MemoryConfig::hmc_stack();
        let half = TraceBuffer::from(&[Request::read(0, 1 << 63), Request::write(0, 1 << 63)]);
        assert_eq!(trace_bounds(&config, &half), Err(BoundsError::Overflow));
        let body = TraceBuffer::from(&[Request::read(0, 1 << 20)]);
        let looped = [Segment {
            trace: &body,
            repeat: u64::MAX,
        }];
        assert_eq!(segment_bounds(&config, &looped), Err(BoundsError::Overflow));
        let fits = [Segment {
            trace: &body,
            repeat: 1 << 40,
        }];
        let b = segment_bounds(&config, &fits).unwrap();
        assert_eq!(b.bytes_read.lo, (1u64 << 60) as f64);
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
        assert!(matches!(
            trace_bounds(&c, &one),
            Err(BoundsError::Config(_))
        ));
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
