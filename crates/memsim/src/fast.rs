//! Event-driven epoch-skipping replay (`EngineKind::Fast`).
//!
//! The fast engine exploits an invariant of the cycle engine's steady
//! state: once a unit's data bus is the binding constraint, every
//! row-hit burst completes exactly `t_burst` cycles after the previous
//! one, and the per-bank state machines advance in lockstep with the
//! bus. Formally, a burst is **bus-limited** when, at its turn,
//!
//! 1. no refresh is owed (`bus_free < (refreshes_done + 1)·t_refi`),
//! 2. its bank's open row matches (`open_row == Some(row)`), and
//! 3. the bank's column command is not the bottleneck
//!    (`cmd_ready + t_cl <= bus_free`).
//!
//! Under those conditions [`UnitEngine::burst_core`] computes
//! `done = bus_free + t_burst`, latency exactly `t_burst`, and touches
//! nothing but `bus_free`, `cmd_ready`, `issued_at`, the hit counter,
//! and the byte/burst tallies — all of which a streak of `k` such
//! bursts updates in closed form. The engine therefore grows the longest
//! streak of bus-limited bursts (capped at the next refresh epoch, the
//! next **event** that could perturb the state), applies the batch
//! update, and *skips* the `k·t_burst` dead cycles in one step.
//! Condition 3 stays decidable while the streak grows, without
//! simulating: the
//! bus pointer at streak offset `j` is exactly `bus_free + j·t_burst`,
//! and a bank serviced earlier in the streak has
//! `cmd_ready + t_cl == its last done cycle <= the current bus pointer`
//! by construction.
//!
//! Any burst that fails the conditions — a conflict, an idle bank, a
//! refresh boundary, a cold column path — is replayed through the
//! *shared* [`UnitEngine::burst`], so the slow path is the cycle
//! engine's code, not a reimplementation. That, plus the closed-form
//! algebra above, is why `EngineKind::DualCheck` and the determinism
//! proptests hold the two engines bit-for-bit equal on every statistic
//! (stats, vault counts, histogram buckets, energy, tenant slices).
//!
//! **When a streak opens.** A bus-limited burst leaves the same state
//! whether `burst_core` services it or a one-burst streak does, so which
//! path takes it is a cost choice only. A streak opens on a bus-limited
//! burst that has a successor in its run, or whose unit's previous
//! burst was bus-limited too; a lone bus-limited burst after a miss —
//! the occasional row hit of a scalar gather stream — takes the slow
//! path, since a one-burst streak would cost a flush and a re-open
//! when the next miss arrives. One-burst runs that follow each other on
//! a row (64-byte lines on DDR) still batch: from the row's second hit
//! on, each has a bus-limited predecessor. The streak's refresh cap is
//! computed when it accepts its first burst, not on every re-open, and
//! the refresh test itself is a compare; the division runs only when a
//! refresh is owed.
//!
//! The unit's sinks ride along. On tagged replays every run carries
//! its tenant (a run never spans two requests), and each streak chunk
//! of `k` bursts at streak offset `c` charges it in closed form: bytes,
//! bursts, zero activations (all row hits), completions from
//! `bus_free + (c + 1)·t_burst` to `bus_free + (c + k)·t_burst`. A
//! timeline sink charges every burst to its window, so while one is
//! present batching is off and every burst takes the slow path.
//!
//! The replay is a per-unit streak state fed run by run. Each unit
//! keeps its engine plus the open streak's cap, count, byte/write
//! tallies and per-bank first-touch/last-completion marks, and takes
//! its same-row runs straight from the shared [`RunDecoder`], which
//! emits each unit's runs in program order (the runs of different
//! units of one request may come in any order, as units are
//! independent). A whole-buffer request on a vault mapping decodes to
//! one run per unit per row window, up to `row_bytes / burst_bytes`
//! bursts, which the streak takes in one step unless the refresh cap
//! clips it. The serial path buffers no run or burst, so its working
//! state is O(units × banks). Feeding runs one at a time is exact:
//! growing a streak only reads the unit state frozen at streak start
//! plus the running count, and each unit receives its runs in program
//! order. An open streak absorbs consecutive runs itself, across
//! request and tenant boundaries alike.

use crate::config::MemoryConfig;
use crate::engine::{Burst, LatencyHistogram, Op, UnitEngine};
use crate::runs::{Run, RunDecoder};
use crate::timing::DramTiming;
use crate::trace::TraceBuffer;

/// The fast replay: serial when `jobs <= 1`, vault-sharded otherwise.
/// Returns one [`UnitEngine`] per unit, each a copy of `proto` (which
/// carries the run's sinks) that replayed the unit's runs.
///
/// The serial path feeds each run to its unit as it is decoded. The
/// sharded path mirrors the cycle engine's: it collects each unit's
/// runs first, then replays the shards on up to `jobs` workers through
/// the same [`Streak`] consumer.
///
/// Expects a pre-validated `config` and a pre-normalized `jobs`.
pub(crate) fn run_fast(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    tags: Option<&[u16]>,
    jobs: usize,
    proto: &UnitEngine,
) -> Vec<UnitEngine> {
    let t = &config.timing;
    let units = config.mapping.units();
    if jobs <= 1 {
        let mut streaks: Vec<Streak> = (0..units).map(|_| Streak::new(proto)).collect();
        for_each_run(
            config,
            trace,
            tags,
            #[inline(always)]
            |run, write, tenant| streaks[run.unit].feed(t, &run, write, tenant),
        );
        streaks.into_iter().map(|s| s.finish(t)).collect()
    } else {
        let mut shards: Vec<Vec<(Run, bool, u16)>> = vec![Vec::new(); units];
        for_each_run(config, trace, tags, |run, write, tenant| {
            shards[run.unit].push((run, write, tenant))
        });
        mealib_types::par_map(&shards, jobs, |shard| {
            let mut streak = Streak::new(proto);
            for (run, write, tenant) in shard {
                streak.feed(t, run, *write, *tenant);
            }
            streak.finish(t)
        })
    }
}

/// Emits every run of `trace` ([`RunDecoder`]) to `f`, request by
/// request and each unit's runs in program order, with its request's
/// direction (`true` = write) and tenant (`0` when `tags` is `None`).
// Forced inline like `RunDecoder::request`, so the serial path's
// `Streak::feed` inlines into the decode loop.
#[inline(always)]
fn for_each_run(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    tags: Option<&[u16]>,
    mut f: impl FnMut(Run, bool, u16),
) {
    let decoder = RunDecoder::new(config);
    let (addrs, bytes, ops) = (trace.addrs(), trace.bytes(), trace.ops());
    for i in 0..trace.len() {
        let write = ops[i] == Op::Write;
        let tenant = tags.map_or(0, |col| col[i]);
        decoder.request(
            addrs[i],
            bytes[i],
            #[inline(always)]
            |run| f(run, write, tenant),
        );
    }
}

/// One unit's replay state: its engine plus the open streak of
/// bus-limited row hits, which [`Streak::flush`] applies in closed
/// form. A streak is always open, possibly empty; its cap is fixed when
/// it accepts its first burst, from the unit state at streak start,
/// which no accepted burst changes until the flush.
struct Streak {
    u: UnitEngine,
    /// Longest streak before the refresh epoch: the burst at streak
    /// offset `c` sees the bus at `bus_free + c·t_burst`, so the refresh
    /// caps the streak at `ceil((next_refresh - bus_free) / t_burst)`
    /// bursts. Set when the streak accepts its first burst.
    k_max: u64,
    /// Bursts accepted into the open streak.
    count: u64,
    bytes_read: u64,
    bytes_written: u64,
    write_bursts: u64,
    /// Whether the unit's last burst was bus-limited, whichever path
    /// serviced it.
    last_limited: bool,
    /// `seen[bank] == generation` marks a bank touched by the open
    /// streak; the counter reuses `seen` across streaks without
    /// clearing it.
    generation: u64,
    seen: Vec<u64>,
    /// Completion cycle of each touched bank's last burst in the open
    /// streak.
    last_done: Vec<u64>,
}

impl Streak {
    fn new(proto: &UnitEngine) -> Self {
        let banks = proto.banks.len();
        Self {
            u: proto.clone(),
            k_max: 0,
            count: 0,
            bytes_read: 0,
            bytes_written: 0,
            write_bursts: 0,
            last_limited: false,
            generation: 1,
            seen: vec![0; banks],
            last_done: vec![0; banks],
        }
    }

    /// Replays one run, the unit's next in program order. The greedy
    /// rule: extend the open streak while the run's bursts are
    /// bus-limited (clipped at the refresh cap), and when the next burst
    /// is not, flush the streak and retry that burst on an empty one. An
    /// empty streak steps a burst through the shared slow path instead
    /// of opening when the burst is not bus-limited (refresh owed,
    /// conflict, idle bank, cold column path), when batching is off, or
    /// when the streak would hold that one burst alone: it is its run's
    /// last and the unit's previous burst was not bus-limited either.
    /// A bus-limited burst costs the same state either way, so the last
    /// rule only spares a scalar gather's lone row hit the round trip
    /// through a one-burst streak, while back-to-back one-burst runs
    /// (64-byte lines on DDR) still batch from their second burst on.
    // Inlined at both of `RunDecoder::request`'s emission sites on the
    // serial path (see the note there).
    #[inline(always)]
    fn feed(&mut self, t: &DramTiming, run: &Run, write: bool, tenant: u16) {
        let t_burst = t.t_burst;
        let bank = run.bank as usize;
        let mut j = 0u64;
        while j < run.n {
            let state = &self.u.banks[bank];
            let hit = state.open_row == Some(run.row);
            if self.count == 0 {
                let bus_free = self.u.bus_free;
                let next_refresh = self.u.next_refresh(t);
                let limited = hit
                    && state.cmd_ready + t.t_cl <= bus_free
                    && next_refresh.is_none_or(|next| bus_free < next);
                let batch = self.u.timeline.is_none() && (j + 1 < run.n || self.last_limited);
                if !(limited && batch) {
                    self.u.burst(t, &burst_of(t, run, j, write, tenant));
                    self.last_limited = limited;
                    j += 1;
                    continue;
                }
                self.k_max =
                    next_refresh.map_or(u64::MAX, |next| (next - bus_free).div_ceil(t_burst));
            } else if !(self.count < self.k_max
                && hit
                // First touch this streak must check the stored
                // cmd_ready. Later touches need no check: their
                // cmd_ready becomes `done - t_cl` of an earlier streak
                // burst, which trails the bus pointer by construction.
                && (self.seen[bank] == self.generation
                    || state.cmd_ready + t.t_cl <= self.u.bus_free + self.count * t_burst))
            {
                self.flush(t);
                continue;
            }
            self.seen[bank] = self.generation;
            self.last_limited = true;
            // Accept the run's remaining bursts, clipped at the refresh
            // cap; a clipped run resumes on the next streak.
            let avail = run.n - j;
            let take = avail.min(self.k_max - self.count);
            let b = if j == 0 && take == avail {
                run.total
            } else {
                let burst = t.burst_bytes;
                run.offset(burst, j + take) - run.offset(burst, j)
            };
            if write {
                self.bytes_written += b;
                self.write_bursts += take;
            } else {
                self.bytes_read += b;
            }
            let first = self.u.bus_free + (self.count + 1) * t_burst;
            self.count += take;
            let last = self.u.bus_free + self.count * t_burst;
            self.last_done[bank] = last;
            if let Some(tenants) = self.u.tenants.as_mut() {
                tenants[tenant as usize].charge(write, b, take, 0, first, last);
            }
            j += take;
        }
    }

    /// Closed-form update for the open streak's `count` bus-limited
    /// bursts — each line mirrors what `burst_core`'s hit arm would have
    /// done `count` times over. Leaves the streak empty, under a fresh
    /// generation.
    fn flush(&mut self, t: &DramTiming) {
        let u = &mut self.u;
        let count = self.count;
        u.bytes_read += self.bytes_read;
        u.bytes_written += self.bytes_written;
        u.vault.read_bursts += count - self.write_bursts;
        u.vault.write_bursts += self.write_bursts;
        u.vault.row_hits += count;
        u.latencies
            .record_n(LatencyHistogram::bucket_of(t.t_burst), count);
        u.bus_free += count * t.t_burst;
        u.issued_at = u.bus_free;
        for (bank, state) in u.banks.iter_mut().enumerate() {
            if self.seen[bank] == self.generation {
                state.cmd_ready = self.last_done[bank] - t.t_cl;
            }
        }
        self.generation += 1;
        self.count = 0;
        self.bytes_read = 0;
        self.bytes_written = 0;
        self.write_bursts = 0;
    }

    /// Flushes the streak still open at the end of the trace.
    fn finish(mut self, t: &DramTiming) -> UnitEngine {
        if self.count > 0 {
            self.flush(t);
        }
        self.u
    }
}

/// Burst `j` of `run`, exactly as [`for_each_burst_tagged`] would have
/// produced it.
///
/// [`for_each_burst_tagged`]: crate::engine::for_each_burst_tagged
fn burst_of(t: &DramTiming, run: &Run, j: u64, write: bool, tenant: u16) -> Burst {
    let start = run.offset(t.burst_bytes, j);
    Burst {
        loc: crate::address::Location {
            unit: run.unit,
            bank: run.bank as usize,
            row: run.row,
            col_byte: run.col0 + start,
        },
        bytes: run.offset(t.burst_bytes, j + 1) - start,
        op: if write { Op::Write } else { Op::Read },
        tenant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        dispatch, finish_run, sequential_trace, simulate, strided_trace, EngineKind, Request,
        SimOptions,
    };
    use crate::tenancy::{interleave_tenants, TenantStream};

    /// Fast and DualCheck replays equal the cycle oracle's through both
    /// worker paths (`jobs` 1 and 2), untagged and under a tag column
    /// that changes tenant on every request.
    fn assert_engines_agree(config: &MemoryConfig, trace: &TraceBuffer, what: &str) {
        let tags: Vec<u16> = (0..trace.len()).map(|i| (i % 3) as u16).collect();
        for jobs in [1usize, 2] {
            for tenants in [None, Some((tags.as_slice(), 3))] {
                let run = |opts: SimOptions| dispatch(config, trace, tenants, &opts.jobs(jobs));
                let cycle = run(SimOptions::cycle()).unwrap();
                let what = format!("{what} (jobs {jobs}, tagged: {})", tenants.is_some());
                assert_eq!(run(SimOptions::fast()).unwrap(), cycle, "{what}");
                // DualCheck performs the same comparison internally.
                let dual = run(SimOptions::dual_check()).unwrap();
                assert_eq!(dual, cycle, "{what} (dual)");
            }
        }
    }

    /// One unit with row-length runs (128 bursts each), so refresh
    /// epochs (every ~1,560 bursts) land inside runs.
    fn single_unit_ddr() -> MemoryConfig {
        let mut c = MemoryConfig::ddr_dual_channel();
        c.mapping = crate::address::AddressMapping::Interleaved {
            units: 1,
            banks_per_unit: 8,
            row_bytes: 8192,
            line_bytes: 64,
        };
        c
    }

    #[test]
    fn streak_clipped_by_the_refresh_cap_resumes_mid_run() {
        // Engine level: one 1 MiB request crosses ~10 refresh epochs,
        // and each cap clips a streak inside a row-length run.
        let c = single_unit_ddr();
        let mut trace = TraceBuffer::from(&[Request::read(0, 1 << 20)]);
        trace.extend(sequential_trace(1 << 21, 1 << 20, 4096, Op::Write).iter());
        let plain = simulate(&c, &trace, &SimOptions::cycle()).unwrap();
        assert!(plain.stats.refreshes >= 10, "{}", plain.stats.refreshes);
        assert_engines_agree(&c, &trace, "refresh-clipped runs");

        // Unit level: a streak opened three bursts before the refresh
        // epoch takes three of an 8-burst run; the rest pays the refresh
        // on the slow path (a miss, since refresh closes the row) and
        // resumes on a fresh streak still open at the end. The cap is
        // set when a streak accepts its first burst, so the first
        // streak's shows in its flushed hits.
        let t = &c.timing;
        let mut proto = UnitEngine::new(8, None, Some(2));
        proto.banks[0].open_row = Some(5);
        proto.banks[0].has_activated = true;
        proto.bus_free = t.t_refi - 3 * t.t_burst;
        proto.issued_at = proto.bus_free;
        let run = Run {
            unit: 0,
            bank: 0,
            row: 5,
            col0: 0,
            head: t.burst_bytes,
            total: 8 * t.burst_bytes,
            n: 8,
        };
        let mut streak = Streak::new(&proto);
        streak.feed(t, &run, false, 1);
        assert_eq!(
            streak.u.vault.row_hits, 3,
            "the first streak stops at the cap"
        );
        assert_eq!(streak.u.vault.refreshes, 1);
        assert_eq!(streak.count, 4, "bursts 4..8 ride the resumed streak");
        let epoch_left = 2 * t.t_refi - streak.u.bus_free;
        assert_eq!(streak.k_max, epoch_left.div_ceil(t.t_burst));
        let mut oracle = proto.clone();
        for j in 0..run.n {
            oracle.burst(t, &burst_of(t, &run, j, false, 1));
        }
        let fast = finish_run(&c, vec![streak.finish(t)]);
        assert_eq!(fast, finish_run(&c, vec![oracle]));
        assert_eq!(fast.stats.refreshes, 1);
        assert_eq!(fast.stats.row_hits, 7);
    }

    #[test]
    fn one_burst_runs_on_one_row_grow_an_open_streak() {
        // 64-byte lines on DDR: every run is one burst. The row's first
        // burst activates it and its second, the first bus-limited hit,
        // takes the slow path (its predecessor was not bus-limited);
        // from the third on, each run joins one open streak.
        let c = single_unit_ddr();
        let t = &c.timing;
        let proto = UnitEngine::new(8, None, None);
        let run = |j: u64| Run {
            unit: 0,
            bank: 0,
            row: 0,
            col0: j * t.burst_bytes,
            head: t.burst_bytes,
            total: t.burst_bytes,
            n: 1,
        };
        let mut streak = Streak::new(&proto);
        let mut oracle = proto.clone();
        for j in 0..16 {
            streak.feed(t, &run(j), false, 0);
            oracle.burst(t, &burst_of(t, &run(j), 0, false, 0));
        }
        assert_eq!(streak.count, 14);
        let fast = finish_run(&c, vec![streak.finish(t)]);
        assert_eq!(fast, finish_run(&c, vec![oracle]));
        assert_eq!(fast.stats.row_hits, 15);
    }

    #[test]
    fn random_gathers_match_cycle() {
        // Scalar 4-byte gathers over 4 MiB, the spmv `x` pattern: almost
        // every burst misses, and the occasional lone hit takes the slow
        // path or a streak depending on its predecessor.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut trace = TraceBuffer::new();
        for i in 0..20_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = (state % (1 << 20)) * 4;
            trace.push(if i % 5 == 0 {
                Request::write(addr, 4)
            } else {
                Request::read(addr, 4)
            });
        }
        for config in [MemoryConfig::hmc_stack(), MemoryConfig::ddr_dual_channel()] {
            assert_engines_agree(&config, &trace, &config.name);
            let profiled = |opts: SimOptions| simulate(&config, &trace, &opts.profile(4096));
            assert_eq!(
                profiled(SimOptions::fast()).unwrap(),
                profiled(SimOptions::cycle()).unwrap(),
                "{} (profiled)",
                config.name
            );
        }
    }

    #[test]
    fn same_row_streak_spans_tenant_changes() {
        // 64-byte requests keep each unit on one 8 KiB row for 128 of
        // its requests, so one streak absorbs runs of all three tenants
        // in turn; each
        // tenant's first and last completion must land where the cycle
        // engine puts them. The strided tail mixes in conflicts.
        for config in [MemoryConfig::ddr_dual_channel(), single_unit_ddr()] {
            let mut trace = sequential_trace(0, 1 << 18, 64, Op::Read);
            trace.extend(strided_trace(1 << 22, 8192, 64, 256, Op::Write).iter());
            trace.push(Request::write(4093, 10)); // straddles a row edge
            assert_engines_agree(&config, &trace, &config.name);
        }
    }

    #[test]
    fn streak_open_at_the_end_of_the_trace_is_flushed() {
        // Too short to reach a refresh epoch: the last streak on every
        // unit is still open when the trace ends.
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            single_unit_ddr(),
        ] {
            let trace = sequential_trace(0, 64 << 10, 256, Op::Read);
            let run = simulate(&config, &trace, &SimOptions::cycle()).unwrap();
            assert_eq!(run.stats.refreshes, 0, "{}", config.name);
            assert_engines_agree(&config, &trace, &config.name);
        }
    }

    #[test]
    fn fast_engine_matches_cycle_on_preset_workload_shapes() {
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
            MemoryConfig::hmc_stack_gen1(),
        ] {
            let mut trace = sequential_trace(0, 4 << 20, 64, Op::Read);
            trace.extend(strided_trace(1 << 22, 8192, 64, 2048, Op::Write).iter());
            trace.extend(strided_trace(0, 8192 * 8, 64, 1024, Op::Read).iter());
            trace.push(Request::read(30, 100));
            trace.push(Request::read(0, 0));
            assert_engines_agree(&config, &trace, &config.name);
        }
    }

    #[test]
    fn fast_engine_matches_cycle_across_refresh_epochs() {
        // A stream long enough to cross many tREFI boundaries: every
        // epoch ends a streak and forces the slow path once.
        let c = MemoryConfig::ddr_dual_channel();
        let trace = sequential_trace(0, 32 << 20, 64, Op::Read);
        assert_engines_agree(&c, &trace, "32 MiB stream");
    }

    #[test]
    fn fast_engine_matches_cycle_on_serve_shaped_traces() {
        // Three tenants each read one whole 1-4 MiB buffer and write
        // another, both 0x1000 past an 8 MiB edge, merged request by
        // request: every buffer starts mid-super-line, then decodes
        // into block runs of whole row windows, and refresh epochs clip
        // streaks inside them.
        let mut xor_stack = MemoryConfig::hmc_stack();
        xor_stack.mapping = crate::address::AddressMapping::XorInterleaved {
            units: 32,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 256,
        };
        let streams: Vec<TenantStream> = [1u64 << 20, 4 << 20, 2 << 20]
            .into_iter()
            .enumerate()
            .map(|(i, len)| {
                let slot = (2 * i as u64 + 1) << 24;
                let (input, output) = (slot + 0x1000, slot + (8 << 20) + 0x1000);
                let trace =
                    TraceBuffer::from(&[Request::read(input, len), Request::write(output, len)]);
                TenantStream::new(trace).arriving_at(i as u64)
            })
            .collect();
        let (trace, tags) = interleave_tenants(&streams);
        for config in [
            MemoryConfig::hmc_stack(),
            xor_stack,
            MemoryConfig::ddr_dual_channel(),
        ] {
            let cycle = simulate(&config, &trace, &SimOptions::cycle()).unwrap();
            let units = config.mapping.units() as u64;
            assert!(cycle.stats.refreshes > units, "{}", config.name);
            assert_engines_agree(&config, &trace, &config.name);
            let tagged = Some((tags.as_slice(), streams.len()));
            for tenants in [None, tagged] {
                let profiled =
                    |opts: SimOptions| dispatch(&config, &trace, tenants, &opts.profile(4096));
                assert_eq!(
                    profiled(SimOptions::fast()).unwrap(),
                    profiled(SimOptions::cycle()).unwrap(),
                    "{} (profiled, tagged: {})",
                    config.name,
                    tenants.is_some()
                );
            }
        }
    }

    #[test]
    fn fast_engine_handles_empty_and_degenerate_traces() {
        let c = MemoryConfig::hmc_stack();
        assert_engines_agree(&c, &TraceBuffer::new(), "empty");
        let zeros = TraceBuffer::from(&[Request::read(0, 0), Request::write(64, 0)]);
        assert_engines_agree(&c, &zeros, "zero-length requests");
        let one = TraceBuffer::from(&[Request::write(12345, 1)]);
        assert_engines_agree(&c, &one, "single byte");
    }

    #[test]
    fn fast_engine_is_jobs_invariant() {
        let c = MemoryConfig::hmc_stack();
        let trace = sequential_trace(0, 2 << 20, 256, Op::Read);
        let serial = simulate(&c, &trace, &SimOptions::fast()).unwrap();
        for jobs in [0usize, 2, 4, 8] {
            let parallel = simulate(&c, &trace, &SimOptions::fast().jobs(jobs)).unwrap();
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn fast_profiled_run_equals_cycle_profiled_run() {
        let c = MemoryConfig::ddr_dual_channel();
        let mut trace = sequential_trace(0, 1 << 20, 64, Op::Read);
        trace.extend(strided_trace(1 << 22, 8192, 64, 1024, Op::Write).iter());
        let cycle = simulate(&c, &trace, &SimOptions::cycle().profile(1024)).unwrap();
        let fast = simulate(&c, &trace, &SimOptions::fast().profile(1024)).unwrap();
        assert_eq!(fast, cycle);
        assert!(fast.timeline.is_some());
    }

    #[test]
    fn streaks_actually_batch_on_sequential_streams() {
        // White-box: on a pure sequential stream the fast path must do
        // far fewer slow steps than bursts — here via the row-hit count
        // all landing in the single t_burst latency bucket.
        let c = MemoryConfig::hmc_stack();
        let trace = sequential_trace(0, 1 << 20, 256, Op::Read);
        let run = simulate(&c, &trace, &SimOptions::fast()).unwrap();
        let bucket = LatencyHistogram::bucket_of(c.timing.t_burst);
        assert!(run.stats.row_hits > 0);
        assert!(run.latencies.buckets()[bucket] >= run.stats.row_hits);
    }

    #[test]
    fn dual_check_kind_is_the_default_validation_mode() {
        let opts = SimOptions::dual_check();
        assert_eq!(opts.engine, EngineKind::DualCheck);
        assert_eq!(SimOptions::fast().engine, EngineKind::Fast);
        assert_eq!(SimOptions::cycle().engine, EngineKind::Cycle);
        assert_eq!(SimOptions::default().engine, EngineKind::Fast);
    }
}
