//! Event-driven epoch-skipping replay (`EngineKind::Fast`).
//!
//! The fast engine exploits an invariant of the cycle engine's steady
//! state: once a unit's data bus is the binding constraint, every
//! row-hit burst completes exactly `t_burst` cycles after the previous
//! one, and the per-bank state machines advance in lockstep with the
//! bus. Formally, a burst is **bus-limited** when, at its turn,
//!
//! 1. no refresh is owed (`bus_free / t_refi == refreshes_done`),
//! 2. its bank's open row matches (`open_row == Some(row)`), and
//! 3. the bank's column command is not the bottleneck
//!    (`cmd_ready + t_cl <= bus_free`).
//!
//! Under those conditions [`UnitEngine::burst_core`] computes
//! `done = bus_free + t_burst`, latency exactly `t_burst`, and touches
//! nothing but `bus_free`, `cmd_ready`, `issued_at`, the hit counter,
//! and the byte/burst tallies — all of which a streak of `k` such
//! bursts updates in closed form. The engine therefore scans ahead for
//! the longest streak of bus-limited bursts (capped at the next refresh
//! epoch, the next **event** that could perturb the state), applies the
//! batch update, and *skips* the `k·t_burst` dead cycles in one step.
//! Condition 3 stays decidable during the scan without simulating: the
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
//! The unit's sinks ride along. On tagged replays every run carries
//! its tenant (a run never spans two requests), and each streak chunk
//! of `k` bursts at streak offset `c` charges it in closed form: bytes,
//! bursts, zero activations (all row hits), completions from
//! `bus_free + (c + 1)·t_burst` to `bus_free + (c + k)·t_burst`. A
//! timeline sink charges every burst to its window, so while one is
//! present batching is off and every burst takes the slow path.
//!
//! Address decoding is split into same-row runs by the shared
//! [`RunDecoder`], one decode per run, so the streak scan consumes runs
//! whole and only the slow path rematerializes individual bursts. Runs
//! coalesce only within one tenant; untagged replays keep the tenant
//! column empty.

use crate::config::MemoryConfig;
use crate::engine::{Burst, LatencyHistogram, Op, UnitEngine};
use crate::runs::{Run, RunDecoder};
use crate::timing::DramTiming;
use crate::trace::TraceBuffer;

/// One unit's pre-decoded stream of same-row runs in SoA layout. The
/// streak scan reads `bank`/`row`/`n`, the batch tally reads
/// `head`/`total`/`write`, and only the slow path reconstructs
/// individual bursts (via `col0` + burst arithmetic).
#[derive(Debug, Clone, Default)]
struct UnitStream {
    /// `DramTiming::burst_bytes`, carried so `cum`/`burst` stay
    /// self-contained for `par_map`.
    burst_bytes: u64,
    bank: Vec<u32>,
    row: Vec<u64>,
    /// Column byte offset of the run's first burst.
    col0: Vec<u64>,
    /// Bytes of the run's first burst (it may start mid-burst).
    head: Vec<u64>,
    /// Total bytes across the run's bursts.
    total: Vec<u64>,
    /// Number of bursts in the run.
    n: Vec<u32>,
    write: Vec<bool>,
    /// Owning tenant of each run on tagged replays; empty (tenant 0
    /// throughout) on untagged ones.
    tenant: Vec<u16>,
}

impl UnitStream {
    fn runs(&self) -> usize {
        self.bank.len()
    }

    fn tenant(&self, r: usize) -> u16 {
        self.tenant.get(r).copied().unwrap_or(0)
    }

    fn reserve(&mut self, runs: usize) {
        self.bank.reserve(runs);
        self.row.reserve(runs);
        self.col0.reserve(runs);
        self.head.reserve(runs);
        self.total.reserve(runs);
        self.n.reserve(runs);
        self.write.reserve(runs);
    }

    /// Byte offset (within the run) where burst `j` starts; `j == n`
    /// yields the run's total length.
    fn cum(&self, r: usize, j: u32) -> u64 {
        if j == 0 {
            0
        } else {
            self.total[r].min(self.head[r] + (u64::from(j) - 1) * self.burst_bytes)
        }
    }

    /// Reconstructs burst `j` of run `r`, exactly as [`for_each_burst_tagged`]
    /// would have produced it.
    fn burst(&self, r: usize, j: u32, unit: usize) -> Burst {
        let start = self.cum(r, j);
        Burst {
            loc: crate::address::Location {
                unit,
                bank: self.bank[r] as usize,
                row: self.row[r],
                col_byte: self.col0[r] + start,
            },
            bytes: self.cum(r, j + 1) - start,
            op: if self.write[r] { Op::Write } else { Op::Read },
            tenant: self.tenant(r),
        }
    }
}

/// The fast replay: serial when `jobs <= 1`, vault-sharded otherwise.
/// Returns one [`UnitEngine`] per unit, each a copy of `proto` (which
/// carries the run's sinks) that replayed the unit's stream.
///
/// Expects a pre-validated `config` and a pre-normalized `jobs`.
pub(crate) fn run_fast(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    tags: Option<&[u16]>,
    jobs: usize,
    proto: &UnitEngine,
) -> Vec<UnitEngine> {
    let streams = decode_streams(config, trace, tags);
    let t = &config.timing;
    if jobs <= 1 {
        streams
            .iter()
            .map(|stream| replay_unit(t, proto, stream))
            .collect()
    } else {
        mealib_types::par_map(&streams, jobs, |stream| replay_unit(t, proto, stream))
    }
}

/// Splits the trace into same-row runs ([`RunDecoder`]) and routes
/// each to its unit's stream, so per-unit burst order is preserved
/// exactly. `tags` (one tenant per request) fills each stream's tenant
/// column.
fn decode_streams(
    config: &MemoryConfig,
    trace: &TraceBuffer,
    tags: Option<&[u16]>,
) -> Vec<UnitStream> {
    let decoder = RunDecoder::new(config);
    let mut streams: Vec<UnitStream> = vec![
        UnitStream {
            burst_bytes: config.timing.burst_bytes,
            ..UnitStream::default()
        };
        config.mapping.units()
    ];
    // Upper-bound-ish run estimate: one run per decode granule of bulk
    // traffic plus one per request (scalar gathers), split across units.
    let units_n = streams.len() as u64;
    let est = (trace.total_bytes() / decoder.granule() / units_n + trace.len() as u64 / units_n + 4)
        as usize;
    for s in streams.iter_mut() {
        s.reserve(est);
        if tags.is_some() {
            s.tenant.reserve(est);
        }
    }
    let (addrs, bytes, ops) = (trace.addrs(), trace.bytes(), trace.ops());
    for i in 0..trace.len() {
        let write = ops[i] == Op::Write;
        let tenant = tags.map(|col| col[i]);
        decoder.request(
            addrs[i],
            bytes[i],
            #[inline(always)]
            |run| push_run(&mut streams[run.unit], run, write, tenant),
        );
    }
    streams
}

/// Appends a run. A bulk run coalesces with the stream's tail when the
/// result is burst-arithmetic-equivalent to keeping them separate: same
/// bank, row, op, and tenant; column-contiguous; and the tail's last
/// burst complete (a bulk run itself is whole bursts). Pure streams
/// therefore coalesce into row-length runs; scalar runs are appended
/// as decoded.
// Inlined at both of `RunDecoder::request`'s emission sites (see the
// note there).
#[inline(always)]
fn push_run(s: &mut UnitStream, run: Run, write: bool, tenant: Option<u16>) {
    if run.bulk {
        if let Some(last) = s.runs().checked_sub(1) {
            if s.bank[last] == run.bank
                && s.row[last] == run.row
                && s.write[last] == write
                && s.col0[last] + s.total[last] == run.col0
                && s.total[last] == s.head[last] + u64::from(s.n[last] - 1) * s.burst_bytes
                && s.tenant.last().copied() == tenant
            {
                s.total[last] += run.total;
                s.n[last] += run.n;
                return;
            }
        }
    }
    s.bank.push(run.bank);
    s.row.push(run.row);
    s.col0.push(run.col0);
    s.head.push(run.head);
    s.total.push(run.total);
    s.n.push(run.n);
    s.write.push(write);
    s.tenant.extend(tenant);
}

/// Replays one unit's run stream with streak batching. The cursor
/// `(r, j)` points at burst `j` of run `r`: the slow path advances it
/// one burst at a time, the streak batch whole (or partial, at a
/// refresh cap) runs at a time. Batching is off while the unit carries a
/// timeline sink, which charges every burst to its window.
fn replay_unit(t: &DramTiming, proto: &UnitEngine, stream: &UnitStream) -> UnitEngine {
    let mut u = proto.clone();
    let banks = u.banks.len();
    let batch = u.timeline.is_none();
    let runs = stream.runs();
    let t_burst = t.t_burst;
    let hit_bucket = LatencyHistogram::bucket_of(t_burst);
    // Per-bank completion cycle of the bank's last burst in the current
    // streak; `seen[bank] == generation` marks validity. Reused across
    // streaks without clearing via the generation counter.
    let mut last_done = vec![0u64; banks];
    let mut seen = vec![0u64; banks];
    let mut generation = 0u64;
    let mut r = 0usize;
    let mut j = 0u32;
    while r < runs {
        // Longest streak of bus-limited row hits before the refresh
        // epoch: the burst at streak offset `c` sees the bus at
        // `bus_free + c·t_burst`, so the refresh caps the streak at
        // `ceil((next_refresh - bus_free) / t_burst)` bursts. A refresh
        // owed now (cap 0) or a timeline sink leaves no streak, and the
        // slow path below takes the burst.
        generation += 1;
        let next_refresh = (u.refreshes_done + 1) * t.t_refi;
        let k_max = if batch {
            next_refresh.saturating_sub(u.bus_free).div_ceil(t_burst)
        } else {
            0
        };
        let mut count = 0u64;
        let (mut rr, mut jj) = (r, j);
        let mut bytes_read = 0u64;
        let mut bytes_written = 0u64;
        let mut write_bursts = 0u64;
        while count < k_max && rr < runs {
            let bank = stream.bank[rr] as usize;
            let state = &u.banks[bank];
            if state.open_row != Some(stream.row[rr]) {
                break;
            }
            if seen[bank] != generation {
                // First touch this streak: the stored cmd_ready is
                // current. (Later touches need no check — their
                // cmd_ready becomes `done - t_cl` of an earlier streak
                // burst, which trails the bus pointer by construction.)
                if state.cmd_ready + t.t_cl > u.bus_free + count * t_burst {
                    break;
                }
                seen[bank] = generation;
            }
            // Accept the run's remaining bursts, clipped at the
            // refresh cap; a clipped run leaves the cursor mid-run.
            let avail = u64::from(stream.n[rr] - jj);
            let take = avail.min(k_max - count);
            let b = if jj == 0 && take == avail {
                stream.total[rr]
            } else {
                stream.cum(rr, jj + take as u32) - stream.cum(rr, jj)
            };
            if stream.write[rr] {
                bytes_written += b;
                write_bursts += take;
            } else {
                bytes_read += b;
            }
            let first = u.bus_free + (count + 1) * t_burst;
            count += take;
            last_done[bank] = u.bus_free + count * t_burst;
            if let Some(tenants) = u.tenants.as_mut() {
                let acc = &mut tenants[stream.tenant(rr) as usize];
                acc.charge(stream.write[rr], b, take, 0, first, last_done[bank]);
            }
            if take == avail {
                rr += 1;
                jj = 0;
            } else {
                jj += take as u32;
            }
        }
        if count == 0 {
            // Not bus-limited (refresh owed, conflict, idle bank, cold
            // column path, or batching off): one exact step through the
            // shared slow path.
            u.burst(t, &stream.burst(r, j, 0));
            j += 1;
            if j == stream.n[r] {
                r += 1;
                j = 0;
            }
            continue;
        }
        // Closed-form batch update for `count` bus-limited bursts —
        // each line mirrors what burst_core's hit arm would have done
        // `count` times over.
        u.bytes_read += bytes_read;
        u.bytes_written += bytes_written;
        u.vault.read_bursts += count - write_bursts;
        u.vault.write_bursts += write_bursts;
        u.vault.row_hits += count;
        u.latencies.record_n(hit_bucket, count);
        u.bus_free += count * t_burst;
        u.issued_at = u.bus_free;
        for (bank, state) in u.banks.iter_mut().enumerate() {
            if seen[bank] == generation {
                state.cmd_ready = last_done[bank] - t.t_cl;
            }
        }
        r = rr;
        j = jj;
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{
        for_each_burst_tagged, sequential_trace, simulate, strided_trace, EngineKind, Request,
        SimOptions,
    };

    fn assert_engines_agree(config: &MemoryConfig, trace: &TraceBuffer, what: &str) {
        let cycle = simulate(config, trace, &SimOptions::cycle()).unwrap();
        let fast = simulate(config, trace, &SimOptions::fast()).unwrap();
        assert_eq!(fast, cycle, "{what}");
        // DualCheck performs the same comparison internally.
        let dual = simulate(config, trace, &SimOptions::dual_check()).unwrap();
        assert_eq!(dual, cycle, "{what} (dual)");
    }

    #[test]
    fn streams_coalesce_runs_only_within_a_tenant() {
        // `push_run` merges the decoder's bulk runs into row-length runs;
        // the streams must still expand into exactly the cycle engine's
        // per-unit burst sequence, tenants included, untagged and under
        // a tag column that changes tenant inside same-row streaks. (The
        // decoder itself is checked in `runs.rs`.)
        let mut xor_stack = MemoryConfig::hmc_stack();
        xor_stack.mapping = crate::address::AddressMapping::XorInterleaved {
            units: 32,
            banks_per_unit: 8,
            row_bytes: 4096,
            line_bytes: 256,
        };
        for config in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
            xor_stack,
        ] {
            let mut trace = sequential_trace(0, 1 << 20, 256, Op::Read);
            trace.extend(strided_trace(1 << 22, 8192, 64, 512, Op::Write).iter());
            trace.push(Request::read(30, 100));
            trace.push(Request::read(5, 1));
            trace.push(Request::write(4093, 10)); // straddles a row edge
            let tags: Vec<u16> = (0..trace.len()).map(|i| (i % 3) as u16).collect();
            for tags in [None, Some(tags.as_slice())] {
                let mut expected: Vec<Vec<Burst>> = vec![Vec::new(); config.mapping.units()];
                for_each_burst_tagged(&config.timing, &config.mapping, &trace, tags, |b| {
                    expected[b.loc.unit].push(b)
                });
                let streams = decode_streams(&config, &trace, tags);
                for (unit, stream) in streams.iter().enumerate() {
                    assert_eq!(stream.tenant.len(), tags.map_or(0, |_| stream.runs()));
                    let got: Vec<Burst> = (0..stream.runs())
                        .flat_map(|r| (0..stream.n[r]).map(move |j| stream.burst(r, j, unit)))
                        .collect();
                    let what = format!("{} (tagged: {}): unit {unit}", config.name, tags.is_some());
                    assert_eq!(got, expected[unit], "{what}");
                }
            }
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
        assert_eq!(SimOptions::default().engine, EngineKind::Cycle);
    }
}
