//! Run-granular address decode: the one decoder behind the fast engine
//! and the static bounds walk.
//!
//! Address decoding is a per-burst cost in a naive replay, and it
//! dominates once replay is batched. [`RunDecoder`] therefore splits
//! each request into **runs** — groups of one unit's consecutive
//! bursts on one `(unit, bank, row)` at consecutive columns — and
//! decodes once per run:
//!
//! * in general, a run is a contiguous address span as advertised by
//!   [`AddressMapping::contiguous_run_bytes`] (a line, or a row on a
//!   one-unit region);
//! * on the bulk path (`Interleaved` mappings whose line holds whole
//!   bursts, and `XorInterleaved` ones with power-of-two unit counts
//!   too), an aligned stretch of whole lines inside one super-line
//!   (`units × line_bytes`) shares one decode, a run per line;
//! * the **block rule**: from a super-line edge, `k ≥ 2` whole
//!   super-lines inside one row window (`row_bytes / line_bytes`
//!   super-lines) share one decode and become one run per unit of `k`
//!   lines. Every unit's line of such a super-line has the same
//!   in-unit offset, so each unit's lines of consecutive super-lines
//!   sit at consecutive columns of one row; the XOR unit fold only
//!   permutes the units of a super-line, and the XOR bank fold keys on
//!   the row.
//!
//! Burst boundaries within a run are pure arithmetic (`burst_bytes`-
//! aligned, like [`for_each_burst_tagged`]), so each unit's runs,
//! concatenated in the order they are emitted, reproduce the cycle
//! engine's per-unit burst sequence exactly: same bursts, same
//! locations, same order. Runs of different units are not ordered
//! against each other: units are independent, which vault sharding
//! rests on too, and no consumer reads across them.
//!
//! A scalar gather is a whole run, so on row-miss streams the decode
//! itself is the per-burst cost. A request that ends inside its first
//! burst (`0 < bytes <= burst_bytes - addr % burst_bytes`, each scalar
//! gather) therefore takes one step: one compiled decode, one
//! one-burst run, and neither the bulk path nor the span arithmetic. A
//! request that crosses a burst edge never takes it. The decoder also
//! compiles the mapping once, at construction, into shifts and masks:
//! `line_bytes` and `row_bytes` are validated powers of two, unit and
//! bank counts that are powers of two become masks too, and only other
//! counts keep a division. The compiled decode computes exactly
//! [`AddressMapping::decode`] and [`AddressMapping::contiguous_run_bytes`]
//! for all three mapping modes (a proptest below holds them equal on
//! any address). The cycle oracle keeps calling
//! [`AddressMapping::decode`] itself, so every `DualCheck` run checks
//! the compiled decode against the reference one.
//!
//! Two consumers read the runs. The fast engine (`fast.rs`) feeds
//! each run, as it is decoded, to its unit's open streak, which takes
//! the run's bursts whole while they are bus-limited; only its slow
//! path rematerializes individual bursts ([`Run::offset`]). The
//! bounds walk (`bounds.rs`) adds each run's bursts by `n` and steps
//! its refresh-free row automaton once per run: every burst of a run
//! shares one `(unit, bank, row)`, so only the first can miss. Both
//! therefore check the same decode — `DualCheck` against the cycle
//! oracle, the bounds proptests against the engine.
//!
//! [`AddressMapping::contiguous_run_bytes`]: crate::address::AddressMapping::contiguous_run_bytes
//! [`AddressMapping::decode`]: crate::address::AddressMapping::decode
//! [`for_each_burst_tagged`]: crate::engine::for_each_burst_tagged

use crate::address::{AddressMapping, Location};
use crate::config::MemoryConfig;

/// One same-row run of a request: `n` consecutive bursts on one
/// `(unit, bank, row)`, starting at column byte `col0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) unit: usize,
    pub(crate) bank: u32,
    pub(crate) row: u64,
    /// Column byte offset of the run's first burst.
    pub(crate) col0: u64,
    /// Bytes of the run's first burst (it may start mid-burst).
    pub(crate) head: u64,
    /// Total bytes across the run's bursts.
    pub(crate) total: u64,
    /// Number of bursts in the run.
    pub(crate) n: u64,
}

impl Run {
    /// Byte offset within the run where burst `j` starts (`burst` is
    /// `DramTiming::burst_bytes`); `j == n` yields the run's total
    /// length. Bursts after the head are `burst` bytes, the last
    /// clipped at `total`.
    pub(crate) fn offset(&self, burst: u64, j: u64) -> u64 {
        match j {
            0 => 0,
            j => self.total.min(self.head + (j - 1) * burst),
        }
    }
}

/// Division by a divisor fixed at decoder construction: a shift and a
/// mask when it is a power of two, a hardware divide otherwise.
#[derive(Debug, Clone, Copy)]
struct Divisor {
    d: u64,
    shift: u32,
    pow2: bool,
}

impl Divisor {
    fn new(d: u64) -> Self {
        Self {
            d,
            shift: d.trailing_zeros(),
            pow2: d.is_power_of_two(),
        }
    }

    /// `(x / d, x % d)`.
    #[inline(always)]
    fn div_rem(self, x: u64) -> (u64, u64) {
        if self.pow2 {
            (x >> self.shift, x & (self.d - 1))
        } else {
            (x / self.d, x % self.d)
        }
    }

    #[inline(always)]
    fn rem(self, x: u64) -> u64 {
        self.div_rem(x).1
    }

    #[inline(always)]
    fn div_ceil(self, x: u64) -> u64 {
        let (q, r) = self.div_rem(x);
        q + u64::from(r != 0)
    }
}

/// An [`AddressMapping`] compiled to shifts and masks: the same
/// function as [`AddressMapping::decode`] and
/// [`AddressMapping::contiguous_run_bytes`], without their runtime
/// divisions. `line_bytes` and `row_bytes` are validated powers of two;
/// unit and bank counts go through [`Divisor`].
#[derive(Debug, Clone, Copy)]
struct CompiledMapping {
    line_shift: u32,
    line_mask: u64,
    row_shift: u32,
    row_mask: u64,
    /// Units of the interleaved region (`low_units` when asymmetric).
    units: Divisor,
    banks: Divisor,
    /// Span mask of the interleaved region: a single unit keeps
    /// contiguous addresses in one row up to the row edge, several
    /// break the span at the next line edge.
    span_mask: u64,
    xor: bool,
    /// The asymmetric split and the dedicated unit above it.
    split: Option<(u64, usize)>,
}

impl CompiledMapping {
    fn new(mapping: &AddressMapping) -> Self {
        let (units, line_bytes, xor, split) = match *mapping {
            AddressMapping::Interleaved {
                units, line_bytes, ..
            } => (units, line_bytes, false, None),
            AddressMapping::XorInterleaved {
                units, line_bytes, ..
            } => (units, line_bytes, true, None),
            AddressMapping::Asymmetric {
                low_units,
                line_bytes,
                split,
                ..
            } => (low_units, line_bytes, false, Some((split.get(), low_units))),
        };
        let row_bytes = mapping.row_bytes();
        let span = if units == 1 { row_bytes } else { line_bytes };
        Self {
            line_shift: line_bytes.trailing_zeros(),
            line_mask: line_bytes - 1,
            row_shift: row_bytes.trailing_zeros(),
            row_mask: row_bytes - 1,
            units: Divisor::new(units as u64),
            banks: Divisor::new(mapping.banks_per_unit() as u64),
            span_mask: span - 1,
            xor,
            split,
        }
    }

    /// [`AddressMapping::decode`].
    #[inline(always)]
    fn decode(&self, addr: u64) -> Location {
        if let Some((split, unit)) = self.split {
            if addr >= split {
                // The dedicated unit: contiguous rows from the split.
                let within = addr - split;
                let (row, bank) = self.banks.div_rem(within >> self.row_shift);
                return Location {
                    unit,
                    bank: bank as usize,
                    row,
                    col_byte: within & self.row_mask,
                };
            }
        }
        let (hash, mut unit) = self.units.div_rem(addr >> self.line_shift);
        let within_unit = (hash << self.line_shift) | (addr & self.line_mask);
        let (row, mut bank) = self.banks.div_rem(within_unit >> self.row_shift);
        if self.xor {
            unit = self.units.rem(unit ^ hash);
            bank = self.banks.rem(bank ^ row);
        }
        Location {
            unit: unit as usize,
            bank: bank as usize,
            row,
            col_byte: within_unit & self.row_mask,
        }
    }

    /// [`AddressMapping::contiguous_run_bytes`].
    #[inline(always)]
    fn span(&self, addr: u64) -> u64 {
        let to_edge = |mask: u64, offset: u64| mask + 1 - (offset & mask);
        match self.split {
            Some((split, _)) if addr >= split => to_edge(self.row_mask, addr - split),
            Some((split, _)) => to_edge(self.span_mask, addr).min(split - addr),
            None => to_edge(self.span_mask, addr),
        }
    }
}

/// Splits requests into [`Run`]s for one validated configuration.
pub(crate) struct RunDecoder {
    map: CompiledMapping,
    /// `DramTiming::burst_bytes`.
    burst: Divisor,
    /// Bursts per line, when the mapping admits the bulk path.
    bulk: Option<u64>,
}

impl RunDecoder {
    /// A decoder for `config`, which must already be validated.
    pub(crate) fn new(config: &MemoryConfig) -> Self {
        let burst = config.timing.burst_bytes;
        let map = CompiledMapping::new(&config.mapping);
        // Bulk-path eligibility: within one super-line (`units *
        // line_bytes`, line-aligned), every line has the same
        // `within_unit` offset — hence the same bank, row, and column —
        // and the lines land on `units` distinct units (the XOR unit fold
        // keys on `line / units`, constant across the super-line, and is a
        // permutation for power-of-two unit counts). One decode therefore
        // covers a whole aligned stretch of lines; only the unit index
        // varies, by the same fold `decode` applies.
        let bulk = match config.mapping {
            AddressMapping::Interleaved {
                units, line_bytes, ..
            } if units > 1 && line_bytes % burst == 0 => Some(line_bytes / burst),
            AddressMapping::XorInterleaved {
                units, line_bytes, ..
            } if units > 1 && units.is_power_of_two() && line_bytes % burst == 0 => {
                Some(line_bytes / burst)
            }
            _ => None,
        };
        Self {
            map,
            burst: Divisor::new(burst),
            bulk,
        }
    }

    /// Emits the runs of the request `[addr, addr + bytes)` to `f`:
    /// each unit's runs in address order, runs of different units in
    /// no fixed order. On the bulk path, `k >= 2` whole super-lines from
    /// a super-line edge inside one row window become one run per unit
    /// of `k` lines (the block rule in the module docs); other aligned
    /// lines, one run per line; the rest, one run per span.
    // Forced inline, and each consumer forces its `f` inline too: with
    // a call per request and `f` out of line at its two call sites, the
    // fast engine's decode measured 15–40% slower on sequential and
    // gather streams (2-core x86-64 host).
    #[inline(always)]
    pub(crate) fn request(&self, mut addr: u64, mut remaining: u64, mut f: impl FnMut(Run)) {
        let map = &self.map;
        let burst = self.burst.d;
        // A request that ends inside its first burst (each scalar
        // gather) is one one-burst run: one decode, no span.
        if remaining > 0 && remaining <= burst - self.burst.rem(addr) {
            let loc = map.decode(addr);
            f(Run {
                unit: loc.unit,
                bank: loc.bank as u32,
                row: loc.row,
                col0: loc.col_byte,
                head: remaining,
                total: remaining,
                n: 1,
            });
            return;
        }
        while remaining > 0 {
            if let Some(n) = self.bulk {
                let line_bytes = map.line_mask + 1;
                if remaining >= line_bytes && addr & map.line_mask == 0 {
                    let units = map.units.d;
                    let lines = remaining >> map.line_shift;
                    let (hash, j0) = map.units.div_rem(addr >> map.line_shift);
                    // Lines per run: one, or from a super-line edge the
                    // whole super-lines left in the request, clipped at
                    // the edge of the row window `hash` lies in (the
                    // block rule).
                    let window_mask = map.row_mask >> map.line_shift;
                    let k = if j0 == 0 {
                        let whole = map.units.div_rem(lines).0;
                        whole.min(window_mask + 1 - (hash & window_mask)).max(1)
                    } else {
                        1
                    };
                    let loc = map.decode(addr);
                    let m = lines.min(units - j0);
                    for j in 0..m {
                        // The unit fold from `decode`, applied to line
                        // `j0 + j` (same hash, same super-line).
                        let unit = if map.xor {
                            map.units.rem((j0 + j) ^ hash) as usize
                        } else {
                            (j0 + j) as usize
                        };
                        f(Run {
                            unit,
                            bank: loc.bank as u32,
                            row: loc.row,
                            col0: loc.col_byte,
                            head: burst,
                            total: k << map.line_shift,
                            n: k * n,
                        });
                    }
                    addr += (m * k) << map.line_shift;
                    remaining -= (m * k) << map.line_shift;
                    continue;
                }
            }
            let loc = map.decode(addr);
            // First burst: up to the next burst-aligned boundary. It is
            // attributed wholly to `loc` even if it extends past the
            // span — exactly what the per-burst decode does, which
            // decodes each burst at its *start* address.
            let head = (burst - self.burst.rem(addr)).min(remaining);
            // Further bursts join the run while their start addresses
            // stay inside the span (and inside the request). A request
            // tail that ends inside its first burst needs no span.
            let extra = if remaining > head {
                let reach = map.span(addr).min(remaining);
                if reach > head {
                    self.burst.div_ceil(reach - head)
                } else {
                    0
                }
            } else {
                0
            };
            let total = remaining.min(head + extra * burst);
            f(Run {
                unit: loc.unit,
                bank: loc.bank as u32,
                row: loc.row,
                col0: loc.col_byte,
                head,
                total,
                n: 1 + extra,
            });
            addr += total;
            remaining -= total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::trace_bounds;
    use crate::engine::{
        for_each_burst_tagged, sequential_trace, simulate, strided_trace, Burst, Op, Request,
        SimOptions,
    };
    use crate::strategies::mapping_config_strategy;
    use crate::trace::TraceBuffer;
    use mealib_types::{Interval, PhysAddr};
    use proptest::prelude::*;

    /// Expands `run` into its bursts with the burst arithmetic every
    /// consumer relies on ([`Run::offset`]).
    fn bursts_of(run: &Run, burst: u64, op: Op) -> Vec<Burst> {
        let cum = |j: u64| run.offset(burst, j);
        (0..run.n)
            .map(|j| Burst {
                loc: crate::address::Location {
                    unit: run.unit,
                    bank: run.bank as usize,
                    row: run.row,
                    col_byte: run.col0 + cum(j),
                },
                bytes: cum(j + 1) - cum(j),
                op,
                tenant: 0,
            })
            .collect()
    }

    /// Each unit's burst sequence for `trace`, twice: from the cycle
    /// engine's per-burst decode, and from the decoder's runs expanded.
    /// Also returns the longest run's byte length.
    fn per_unit_bursts(
        config: &MemoryConfig,
        trace: &TraceBuffer,
    ) -> (Vec<Vec<Burst>>, Vec<Vec<Burst>>, u64) {
        let units = config.mapping.units();
        let mut expected: Vec<Vec<Burst>> = vec![Vec::new(); units];
        for_each_burst_tagged(&config.timing, &config.mapping, trace, None, |b| {
            expected[b.loc.unit].push(b)
        });
        let decoder = RunDecoder::new(config);
        let burst = config.timing.burst_bytes;
        let mut got: Vec<Vec<Burst>> = vec![Vec::new(); units];
        let mut longest = 0;
        for req in trace.iter() {
            decoder.request(req.addr.get(), req.bytes, |run| {
                longest = longest.max(run.total);
                got[run.unit].extend(bursts_of(&run, burst, req.op))
            });
        }
        (expected, got, longest)
    }

    /// Super-line and row-window sizes of `config`'s interleaved region.
    fn block_geometry(config: &MemoryConfig) -> (u64, u64, u64) {
        let (units, _, row_bytes, line_bytes) = config.mapping.interleave_geometry();
        let super_line = units as u64 * line_bytes;
        (
            line_bytes,
            super_line,
            super_line * (row_bytes / line_bytes),
        )
    }

    #[test]
    fn run_decode_reproduces_the_per_burst_decode() {
        // The runs of each request, expanded and concatenated per unit,
        // must be exactly the cycle engine's per-unit burst sequence:
        // same locations, same byte counts, same order.
        let mut xor_stack = MemoryConfig::hmc_stack();
        xor_stack.mapping = AddressMapping::XorInterleaved {
            units: 32,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 256,
        };
        let split = 3u64 << 20;
        let mut asymmetric = MemoryConfig::ddr_dual_channel();
        asymmetric.mapping = AddressMapping::Asymmetric {
            low_units: 2,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
            split: PhysAddr::new(split),
        };
        let mut single_unit = MemoryConfig::ddr_dual_channel();
        single_unit.mapping = AddressMapping::Interleaved {
            units: 1,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
            xor_stack,
            asymmetric,
            single_unit,
        ] {
            let (line_bytes, super_line, window) = block_geometry(&config);
            let mut trace = sequential_trace(0, 1 << 20, 256, Op::Read);
            trace.extend(strided_trace(1 << 22, 8192, 64, 512, Op::Write).iter());
            trace.push(Request::read(30, 100));
            trace.push(Request::read(5, 1));
            trace.push(Request::write(4093, 10)); // straddles a row edge
                                                  // Crosses the asymmetric split (an ordinary stretch elsewhere).
            trace.push(Request::read(split - 3000, 9000));
            // Aligned, starting mid-super-line, running past it.
            trace.push(Request::write(3 * line_bytes, 40 * line_bytes));
            trace.push(Request::read(
                (1 << 21) + 5 * line_bytes,
                70 * line_bytes + 17,
            ));
            // Three super-lines into a row window, through two more
            // windows, with a partial tail: block runs clipped at the
            // window edge on every bulk-path mapping, and a whole window
            // as one run per unit.
            trace.push(Request::write(
                (1 << 23) + 3 * super_line,
                2 * window + 5 * super_line + 77,
            ));
            let (expected, got, longest) = per_unit_bursts(&config, &trace);
            assert_eq!(got, expected, "{}", config.name);
            if RunDecoder::new(&config).bulk.is_some() {
                assert_eq!(longest, config.mapping.row_bytes(), "{}", config.name);
            }
        }
    }

    #[test]
    fn burst_counts_past_u32_do_not_wrap() {
        // One 2^37 B line of 32 B bursts is 2^32 bursts, one past
        // `u32::MAX`. Refresh is out of reach, so the fast replay takes
        // the line as one streak after its first burst.
        let mut config = MemoryConfig::hmc_stack();
        config.mapping = AddressMapping::Interleaved {
            units: 2,
            banks_per_unit: 8,
            row_bytes: 1 << 40,
            line_bytes: 1 << 37,
        };
        config.timing.t_refi = u64::MAX / 2;
        let bursts = 1u64 << 32;
        let trace = TraceBuffer::from(&[Request::read(0, 1 << 37)]);
        let run = simulate(&config, &trace, &SimOptions::fast()).unwrap();
        assert_eq!(run.stats.bytes_read.get(), 1 << 37);
        assert_eq!(run.stats.refreshes, 0);
        assert_eq!(run.vaults[0].read_bursts, bursts);
        assert_eq!(run.vaults[1].read_bursts, 0);
        let bounds = trace_bounds(&config, &trace).unwrap();
        assert_eq!(bounds.bytes_read, Interval::exact((1u64 << 37) as f64));
        assert_eq!(bounds.read_bursts, Interval::exact(bursts as f64));
        assert_eq!(bounds.unit_bursts, [bursts, 0]);
    }

    /// Raw draws of one block request: start kind (line, super-line or
    /// row-window offset), start index, whole super-lines (0–40), head
    /// and tail bytes, and direction. [`block_trace`] scales them to the
    /// drawn mapping.
    type BlockDraw = (u8, u64, u64, u64, u64, bool);

    fn block_draws() -> impl Strategy<Value = Vec<BlockDraw>> {
        let partial = || prop_oneof![Just(0u64), any::<u64>()];
        proptest::collection::vec(
            (
                0u8..3,
                0u64..512,
                0u64..=40,
                partial(),
                partial(),
                any::<bool>(),
            ),
            1..6,
        )
    }

    /// Requests of whole super-lines from a line, super-line or
    /// row-window edge, behind a partial head (up to a super-line before
    /// the edge) and before a partial tail.
    fn block_trace(config: &MemoryConfig, draws: &[BlockDraw]) -> TraceBuffer {
        let (line_bytes, super_line, window) = block_geometry(config);
        draws
            .iter()
            .map(|&(kind, index, super_lines, head, tail, write)| {
                let edge = window + index * [line_bytes, super_line, window][kind as usize];
                let head = head % super_line;
                let bytes = head + super_lines * super_line + tail % super_line;
                if write {
                    Request::write(edge - head, bytes)
                } else {
                    Request::read(edge - head, bytes)
                }
            })
            .collect()
    }

    fn assert_block_runs_expand_to_bursts(config: &MemoryConfig, draws: &[BlockDraw]) {
        let trace = block_trace(config, draws);
        let (expected, got, _) = per_unit_bursts(config, &trace);
        assert_eq!(got, expected, "{:?} on {:?}", config.mapping, draws);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Block requests decode to runs whose per-unit expansion is the
        /// per-burst decode's per-unit burst sequence, on every mapping
        /// the strategy draws.
        #[test]
        fn block_runs_expand_to_the_per_burst_decode(
            cfg in mapping_config_strategy(),
            draws in block_draws(),
        ) {
            assert_block_runs_expand_to_bursts(&cfg, &draws);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// [`block_runs_expand_to_the_per_burst_decode`] on 4,096 cases;
        /// `scripts/verify.sh` runs it in release.
        #[test]
        #[ignore = "4,096 cases; run in release with --ignored"]
        fn block_runs_expand_to_the_per_burst_decode_wide(
            cfg in mapping_config_strategy(),
            draws in block_draws(),
        ) {
            assert_block_runs_expand_to_bursts(&cfg, &draws);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Requests of 0 to `burst_bytes + 1` bytes at any offset expand
        /// to the per-burst decode's bursts, on every mapping the
        /// strategy draws: the one-step decode of a request that ends
        /// inside its first burst, and the general path one byte past
        /// that edge.
        #[test]
        fn short_requests_expand_to_the_per_burst_decode(
            cfg in mapping_config_strategy(),
            draws in proptest::collection::vec(
                (
                    prop_oneof![0u64..(1 << 24), any::<u64>()],
                    any::<u64>(),
                    any::<bool>(),
                ),
                1..64,
            ),
        ) {
            let burst = cfg.timing.burst_bytes;
            let trace: TraceBuffer = draws
                .iter()
                .map(|&(addr, bytes, write)| {
                    // Room for the request below `u64::MAX`.
                    let addr = addr.min(u64::MAX - 2 * burst);
                    let bytes = bytes % (burst + 2);
                    if write {
                        Request::write(addr, bytes)
                    } else {
                        Request::read(addr, bytes)
                    }
                })
                .collect();
            let (expected, got, _) = per_unit_bursts(&cfg, &trace);
            prop_assert_eq!(got, expected, "{:?}", cfg.mapping);
        }

        /// The compiled decode is the reference decode: same location
        /// and same contiguous span, on every mapping the strategy
        /// draws and on any address, up to `u64::MAX`.
        #[test]
        fn compiled_decode_matches_the_reference(
            cfg in mapping_config_strategy(),
            addrs in proptest::collection::vec(
                prop_oneof![
                    any::<u64>(),
                    0u64..(1 << 24),
                    (u64::MAX - (1 << 20))..=u64::MAX,
                ],
                1..64,
            ),
        ) {
            let compiled = CompiledMapping::new(&cfg.mapping);
            for addr in addrs {
                let reference = PhysAddr::new(addr);
                prop_assert_eq!(compiled.decode(addr), cfg.mapping.decode(reference));
                prop_assert_eq!(
                    compiled.span(addr),
                    cfg.mapping.contiguous_run_bytes(reference)
                );
            }
        }
    }
}
