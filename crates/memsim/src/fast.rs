//! Event-driven epoch-skipping replay (`EngineKind::Fast`).
//!
//! The fast engine exploits an invariant of the cycle engine's steady
//! state: once a unit's data bus is the binding constraint, every burst
//! completes exactly `t_burst` cycles after the previous one, and the
//! per-bank state machines advance in lockstep with the bus. Call `p`
//! the **bus pointer**, the cycle the unit's bus frees up at the
//! burst's turn. Formally, a burst is **bus-limited** when, at its turn,
//!
//! 1. no refresh is owed (`p < (refreshes_done + 1)·t_refi`), and
//! 2. its data can start at `p`:
//!    - a **row hit** (`open_row == Some(row)`) whose bank's column
//!      command is not the bottleneck (`cmd_ready + t_cl <= p`), or
//!    - a **row miss** whose activation, computed exactly as
//!      [`UnitEngine::burst_core`]'s conflict or idle-bank arm computes
//!      it (tRAS, tRP, tRC and the tFAW window included), satisfies
//!      `act + t_rcd + t_cl <= p`.
//!
//! Under those conditions `burst_core` computes `done = p + t_burst`,
//! latency exactly `t_burst`, and touches `bus_free`, `cmd_ready`,
//! `issued_at`, the command counters and the byte/burst tallies, all of
//! which a streak of `k` such bursts updates in closed form. A miss also
//! writes its bank's `act_at`, `has_activated` and `open_row` and the
//! unit's tFAW window; only later bursts' hit test and misses read
//! those, so a streak writes them in place as it accepts the miss. The
//! engine therefore grows the longest streak of bus-limited bursts
//! (capped at the next refresh epoch, the next **event** that could
//! perturb the state), applies the batch update, and *skips* the
//! `k·t_burst` dead cycles in one step. Condition 2 stays decidable
//! while the streak grows, without simulating: the bus pointer at
//! streak offset `j` is exactly `bus_free + j·t_burst`, and a bank
//! serviced earlier in the streak has
//! `cmd_ready + t_cl == its last done cycle <= the current bus pointer`
//! by construction, which is also the `cmd_ready` a miss on it reads.
//!
//! Any burst that fails the conditions — a bank still busy, a tFAW or
//! tRC stall, a refresh boundary, a cold column path — is replayed
//! through the *shared* [`UnitEngine::burst`], so the slow path is the
//! cycle engine's code, not a reimplementation. That, plus the
//! closed-form algebra above, is why `EngineKind::DualCheck` and the
//! determinism proptests hold the two engines bit-for-bit equal on
//! every statistic (stats, vault counts, histogram buckets, energy,
//! tenant slices).
//!
//! **When a streak opens.** A bus-limited burst leaves the same state
//! whether `burst_core` services it or a streak does, so which path
//! takes it is a cost choice only. A one-burst run on an empty streak
//! (each scalar gather of a sparse stream) takes a **straight lane** to
//! the slow path: no bus-limited test, no refresh cap, no streak
//! bookkeeping. The one exception is a run that continues the unit's
//! previous burst, a row hit on the bank that served it
//! (`cmd_ready + t_cl == issued_at`); only that run is tested, and it
//! opens a streak when the unit's previous burst was bus-limited too.
//! So one-burst runs that follow each other on a row (64-byte lines on
//! DDR) still batch from the row's second hit on, while a gather's
//! occasional row hit on another bank opens no one-burst streak, which
//! would cost a refresh cap and, at the next miss, a flush. A row miss joins or opens a streak only when its run has a
//! successor burst: the miss test is the activation arithmetic. So a
//! row-window run (up to `row_bytes / burst_bytes` bursts, opening on
//! a miss) joins the streak its predecessor left open, and back-to-back
//! row windows on rotating banks cost no slow-path burst and no flush.
//! A run with a successor that opens on a hit opens a streak when the
//! hit is bus-limited. The streak's refresh cap is computed when it
//! accepts its first burst, not on every re-open, and the slow path's
//! refresh test is one compare against the unit's cached refresh epoch
//! ([`UnitEngine::refresh_at`]).
//!
//! The unit's sinks ride along. On tagged replays every run carries
//! its tenant (a run never spans two requests), and each streak chunk
//! of `k` bursts at streak offset `c` charges it in closed form: bytes,
//! bursts, one activation when the chunk opens with a miss (a chunk is
//! one run's bursts, and the rest hit the row the miss opened), and
//! completions from `bus_free + (c + 1)·t_burst` to
//! `bus_free + (c + k)·t_burst`. A timeline sink charges every burst to
//! its window, so while one is present batching is off and every burst
//! takes the slow path.
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
//! growing a streak only reads the unit state frozen at streak start,
//! the running count and the activation state admitted misses wrote in
//! place, and each unit receives its runs in program order. An open streak absorbs consecutive runs itself, across
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
/// sharded path collects each unit's runs first, then replays the
/// shards on up to `jobs` workers through the same [`Streak`]
/// consumer. Sharding by unit is sound because a unit's state (banks,
/// bus, activation window, refresh, issue pointer) is touched by its
/// own runs only, and the merge in `finish_run` is order-independent
/// (cycles take the max over units; counts and histogram buckets are
/// `u64` sums), so every statistic, the derived `f64` time and energy
/// included, is bit-identical to the serial run.
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
/// bus-limited bursts, which [`Streak::flush`] applies in closed form.
/// A streak is always open, possibly empty; its cap is fixed when it
/// accepts its first burst, from the unit state at streak start. An
/// accepted miss writes its bank's activation state and the tFAW window
/// in place; the bus, the column timing and the counters wait for the
/// flush.
struct Streak {
    u: UnitEngine,
    /// Longest streak before the refresh epoch: the burst at streak
    /// offset `c` sees the bus at `bus_free + c·t_burst`, so the refresh
    /// caps the streak at `ceil((next_refresh - bus_free) / t_burst)`
    /// bursts. Set when the streak accepts its first burst.
    k_max: u64,
    /// Bursts accepted into the open streak.
    count: u64,
    /// Of those, the row misses, and the misses that closed another row
    /// first (the conflict arm's precharges).
    misses: u64,
    precharges: u64,
    bytes_read: u64,
    bytes_written: u64,
    write_bursts: u64,
    /// Whether the unit's last burst is known to be bus-limited: it
    /// rode a streak, or it was a bus-limited row hit tested on the slow
    /// path. The straight lane of a lone run clears it untested.
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
            misses: 0,
            precharges: 0,
            bytes_read: 0,
            bytes_written: 0,
            write_bursts: 0,
            last_limited: false,
            generation: 1,
            seen: vec![0; banks],
            last_done: vec![0; banks],
        }
    }

    /// Replays one run, the unit's next in program order. A one-burst
    /// run on an empty streak takes the straight lane, the shared slow
    /// path with no bus-limited test and no refresh cap, unless it
    /// continues the unit's previous burst: a row hit on the bank that
    /// served it (`cmd_ready + t_cl == issued_at`). A run with a
    /// successor burst that opens on a row miss first offers the miss to
    /// the streak ([`Streak::admit_miss`]). Then the greedy rule: extend
    /// the open streak while the run's bursts are bus-limited row hits
    /// (clipped at the refresh cap), and when the next burst is not,
    /// flush the streak and retry that burst on an empty one. An empty
    /// streak steps a burst through the shared slow path instead of
    /// opening when the burst is not a bus-limited hit (refresh owed,
    /// miss, cold column path), when batching is off, or when the
    /// streak would hold that one burst alone: it is its run's last and
    /// the unit's previous burst was not bus-limited either. A
    /// bus-limited burst leaves the same state on either path, so both
    /// rules for lone bursts only spare a scalar gather the tests and a
    /// one-burst streak's cap and flush, while back-to-back one-burst
    /// runs on one row (64-byte lines on DDR) still batch from the
    /// row's second hit on.
    // Inlined at both of `RunDecoder::request`'s emission sites on the
    // serial path (see the note there). The miss offer stays ahead of
    // the hit loop, not inside it: inside, it slowed the scalar gathers
    // of the spmv stream, which never reach it, by about 6% (2-core
    // x86-64 host).
    #[inline(always)]
    fn feed(&mut self, t: &DramTiming, run: &Run, write: bool, tenant: u16) {
        let t_burst = t.t_burst;
        let bank = run.bank as usize;
        let mut j = 0u64;
        if run.n == 1 {
            let state = &self.u.banks[bank];
            if self.count == 0
                && (state.open_row != Some(run.row) || state.cmd_ready + t.t_cl != self.u.issued_at)
            {
                self.u.burst(t, &burst_of(t, run, 0, write, tenant));
                self.last_limited = false;
                return;
            }
        } else if self.u.banks[bank].open_row != Some(run.row) {
            j = self.admit_miss(t, run, write, tenant);
        }
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
            j = self.accept(t, run, j, write, tenant, 0);
        }
    }

    /// Offers a run's first burst, a row miss, to the streak, and takes
    /// the whole run (clipped at the refresh cap) when the miss is
    /// bus-limited: batching is on, the streak has room below its cap
    /// (or, empty, owes no refresh), and the activation, computed as
    /// [`UnitEngine::burst_core`]'s conflict or idle-bank arm computes
    /// it, lets the data start at the bus pointer `p`. The admitted miss
    /// activates the row in place (tFAW window, `act_at`,
    /// `has_activated`, `open_row`), so the run's other bursts are hits
    /// on a bank the streak has touched. Returns how many bursts the
    /// streak took: zero when it turned the miss away, changing nothing,
    /// and the feed loop then steps the miss through the slow path.
    #[inline(always)]
    fn admit_miss(&mut self, t: &DramTiming, run: &Run, write: bool, tenant: u16) -> u64 {
        let p = self.u.bus_free + self.count * t.t_burst;
        let room = if self.count == 0 {
            self.u.timeline.is_none() && self.u.next_refresh(t).is_none_or(|next| p < next)
        } else {
            self.count < self.k_max
        };
        if !room {
            return 0;
        }
        let bank = run.bank as usize;
        let window = &mut self.u.window;
        let state = &mut self.u.banks[bank];
        let cmd_ready = if self.seen[bank] == self.generation {
            self.last_done[bank] - t.t_cl
        } else {
            state.cmd_ready
        };
        let conflict = state.open_row.is_some();
        let act = if conflict {
            // `t_rc = t_ras + t_rp`, so `pre + t_rp` already covers
            // `act_at + t_rc`.
            cmd_ready.max(state.act_at + t.t_ras) + t.t_rp
        } else if state.has_activated {
            cmd_ready.max(state.act_at + t.t_rc())
        } else {
            cmd_ready
        }
        .max(window.earliest(t.t_faw));
        if act + t.t_rcd + t.t_cl > p {
            return 0;
        }
        window.record(act);
        state.act_at = act;
        state.has_activated = true;
        state.open_row = Some(run.row);
        self.misses += 1;
        self.precharges += u64::from(conflict);
        if self.count == 0 {
            self.k_max = self
                .u
                .next_refresh(t)
                .map_or(u64::MAX, |next| (next - p).div_ceil(t.t_burst));
        }
        self.accept(t, run, 0, write, tenant, 1)
    }

    /// Accepts bursts `j..` of `run` into the open streak, clipped at
    /// the refresh cap (a clipped run resumes on the next streak), and
    /// charges them, with `activations` (one when burst `j` is an
    /// admitted miss), to the run's tenant. Returns the index of the
    /// first burst not taken.
    #[inline(always)]
    fn accept(
        &mut self,
        t: &DramTiming,
        run: &Run,
        j: u64,
        write: bool,
        tenant: u16,
        activations: u64,
    ) -> u64 {
        let t_burst = t.t_burst;
        let bank = run.bank as usize;
        self.seen[bank] = self.generation;
        self.last_limited = true;
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
            tenants[tenant as usize].charge(write, b, take, activations, first, last);
        }
        j + take
    }

    /// Closed-form update for the open streak's `count` bus-limited
    /// bursts — each line mirrors what `burst_core`'s arms would have
    /// done burst by burst: `misses` of them missed (the activation
    /// state they wrote is already in place), the rest hit, and all
    /// completed `t_burst` after their predecessor. Leaves the streak
    /// empty, under a fresh generation.
    fn flush(&mut self, t: &DramTiming) {
        let u = &mut self.u;
        let count = self.count;
        u.bytes_read += self.bytes_read;
        u.bytes_written += self.bytes_written;
        u.vault.read_bursts += count - self.write_bursts;
        u.vault.write_bursts += self.write_bursts;
        u.vault.row_hits += count - self.misses;
        u.vault.row_misses += self.misses;
        u.vault.activations += self.misses;
        u.vault.precharges += self.precharges;
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
        self.misses = 0;
        self.precharges = 0;
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
        SimOptions, VaultStats,
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

    /// A hmc_stack unit with banks 0..4 primed as if activated long
    /// ago: banks 0..3 hold row 9 open and bank 3 is idle (precharged
    /// after an earlier activation), the bus is busy until cycle 1,000,
    /// and the first refresh epoch is far off. Each row-window run of
    /// `n` bursts to row 1 of a primed bank then opens with a
    /// bus-limited miss: conflict arms on banks 0..3, the idle arm on
    /// bank 3.
    fn primed_unit(t: &DramTiming, tenants: Option<usize>) -> UnitEngine {
        let mut proto = UnitEngine::new(8, None, tenants);
        for (bank, state) in proto.banks.iter_mut().take(4).enumerate() {
            state.open_row = (bank < 3).then_some(9);
            state.has_activated = true;
        }
        proto.bus_free = 1000;
        proto.issued_at = proto.bus_free;
        assert!(proto.bus_free + 1024 * t.t_burst < t.t_refi);
        proto
    }

    fn row_window(t: &DramTiming, bank: u32, n: u64) -> Run {
        Run {
            unit: 0,
            bank,
            row: 1,
            col0: 0,
            head: t.burst_bytes,
            total: n * t.burst_bytes,
            n,
        }
    }

    #[test]
    fn row_window_runs_on_rotating_banks_ride_one_streak() {
        let c = MemoryConfig::hmc_stack();
        let t = &c.timing;
        let n = 16;
        let proto = primed_unit(t, Some(4));
        let mut streak = Streak::new(&proto);
        let mut oracle = proto.clone();
        for bank in 0..4u32 {
            let run = row_window(t, bank, n);
            streak.feed(t, &run, bank % 2 == 1, bank as u16);
            for j in 0..n {
                oracle.burst(t, &burst_of(t, &run, j, bank % 2 == 1, bank as u16));
            }
        }
        // Every miss opened or joined the streak: no slow-path burst,
        // no flush, and the activations already sit in the banks.
        assert_eq!(streak.count, 4 * n);
        assert_eq!((streak.misses, streak.precharges), (4, 3));
        assert_eq!(streak.u.vault, VaultStats::default());
        assert_eq!(streak.u.bus_free, proto.bus_free);
        assert!(streak.u.banks[..4].iter().all(|b| b.open_row == Some(1)));
        let unit = streak.finish(t);
        let acts: Vec<u64> = unit
            .tenants
            .iter()
            .flatten()
            .map(|a| a.activations)
            .collect();
        assert_eq!(acts, [1, 1, 1, 1], "each run's tenant pays its activation");
        assert_eq!(unit.vault.activations, 4);
        assert_eq!(unit.vault.precharges, 3);
        assert_eq!(unit.vault.row_hits, 4 * (n - 1));
        assert_eq!(unit.tenants, oracle.tenants);
        assert_eq!(finish_run(&c, vec![unit]), finish_run(&c, vec![oracle]));
    }

    #[test]
    fn a_lone_one_burst_miss_takes_the_slow_path() {
        let c = MemoryConfig::hmc_stack();
        let t = &c.timing;
        let proto = primed_unit(t, None);
        let mut streak = Streak::new(&proto);
        let mut oracle = proto.clone();
        // A lone miss on an empty streak: stepped, not opened.
        let lone = row_window(t, 0, 1);
        streak.feed(t, &lone, false, 0);
        oracle.burst(t, &burst_of(t, &lone, 0, false, 0));
        assert_eq!(streak.count, 0);
        assert_eq!(streak.u.vault.row_misses, 1);
        // A streak of row hits is open; a lone miss flushes it and is
        // stepped in turn.
        let hits = row_window(t, 0, 8);
        let lone = row_window(t, 1, 1);
        streak.feed(t, &hits, false, 0);
        assert_eq!(streak.count, 8);
        streak.feed(t, &lone, false, 0);
        for j in 0..hits.n {
            oracle.burst(t, &burst_of(t, &hits, j, false, 0));
        }
        oracle.burst(t, &burst_of(t, &lone, 0, false, 0));
        assert_eq!(streak.count, 0);
        assert_eq!(streak.u.vault.row_misses, 2);
        assert_eq!(streak.u.vault.row_hits, 8);
        let fast = finish_run(&c, vec![streak.finish(t)]);
        assert_eq!(fast, finish_run(&c, vec![oracle]));
    }

    /// A primed unit whose last burst closed a streak of eight
    /// bus-limited hits on bank 0, row 9, since flushed: the streak is
    /// empty and the unit's last burst was bus-limited.
    fn after_a_flushed_hit_streak(t: &DramTiming) -> (Streak, UnitEngine) {
        let proto = primed_unit(t, None);
        let mut streak = Streak::new(&proto);
        let mut oracle = proto.clone();
        let hits = Run {
            row: 9,
            ..row_window(t, 0, 8)
        };
        streak.feed(t, &hits, false, 0);
        streak.flush(t);
        for j in 0..hits.n {
            oracle.burst(t, &burst_of(t, &hits, j, false, 0));
        }
        assert!(streak.last_limited);
        (streak, oracle)
    }

    #[test]
    fn a_lone_hit_on_another_bank_takes_the_straight_lane() {
        // Bank 1 holds row 9 open with an idle column path, so the hit
        // is bus-limited; but bank 1 did not serve the unit's last
        // burst, so no one-burst streak opens.
        let c = MemoryConfig::hmc_stack();
        let t = &c.timing;
        let (mut streak, mut oracle) = after_a_flushed_hit_streak(t);
        let lone = Run {
            row: 9,
            ..row_window(t, 1, 1)
        };
        streak.feed(t, &lone, false, 0);
        oracle.burst(t, &burst_of(t, &lone, 0, false, 0));
        assert_eq!(streak.count, 0);
        assert!(!streak.last_limited);
        assert_eq!(streak.u.vault.row_hits, 9);
        let fast = finish_run(&c, vec![streak.finish(t)]);
        assert_eq!(fast, finish_run(&c, vec![oracle]));
    }

    #[test]
    fn a_lone_hit_continuing_the_last_burst_still_batches() {
        // Bank 0 served the unit's last burst (`cmd_ready + t_cl ==
        // issued_at`), so a lone hit there is tested, and it opens a
        // streak that the next lone hit on the row joins.
        let c = MemoryConfig::hmc_stack();
        let t = &c.timing;
        let (mut streak, mut oracle) = after_a_flushed_hit_streak(t);
        for k in 8..10 {
            let lone = Run {
                row: 9,
                col0: k * t.burst_bytes,
                ..row_window(t, 0, 1)
            };
            streak.feed(t, &lone, false, 0);
            oracle.burst(t, &burst_of(t, &lone, 0, false, 0));
        }
        assert_eq!(streak.count, 2);
        let fast = finish_run(&c, vec![streak.finish(t)]);
        assert_eq!(fast, finish_run(&c, vec![oracle]));
        assert_eq!(fast.stats.row_hits, 10);
    }

    #[test]
    fn a_refresh_epoch_past_u64_max_never_falls_due() {
        // One refresh done at tREFI = 2^63: the next epoch, 2^64, lies
        // past `u64::MAX`. The cached epoch saturates there, and no
        // burst on either path pays a refresh.
        let mut c = MemoryConfig::hmc_stack();
        c.timing.t_refi = 1 << 63;
        let t = &c.timing;
        let mut proto = primed_unit(t, None);
        proto.refreshes_done = 1;
        proto.bus_free = u64::MAX - (1 << 20);
        proto.issued_at = proto.bus_free;
        let mut streak = Streak::new(&proto);
        let mut oracle = proto.clone();
        let runs = [
            row_window(t, 0, 16),
            row_window(t, 4, 1),
            Run {
                row: 9,
                ..row_window(t, 1, 1)
            },
            row_window(t, 5, 8),
        ];
        for run in &runs {
            streak.feed(t, run, false, 0);
            for j in 0..run.n {
                oracle.burst(t, &burst_of(t, run, j, false, 0));
            }
        }
        let unit = streak.finish(t);
        for u in [&unit, &oracle] {
            assert_eq!(u.vault.refreshes, 0);
            assert_eq!(u.refreshes_done, 1);
            assert_eq!(u.refresh_at, u64::MAX);
        }
        assert_eq!(unit.vault, oracle.vault);
        assert_eq!(unit.latencies, oracle.latencies);
        assert_eq!(unit.bus_free, oracle.bus_free);
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
