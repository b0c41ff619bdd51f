//! Multi-tenant trace interleaving for the interference oracle.
//!
//! A session set is N per-tenant request streams sharing one device.
//! [`interleave_tenants`] merges them into a single [`TraceBuffer`]
//! with a tenant tag per request, deterministically: tenant `i`'s
//! request `k` carries the merge key `arrival_i + k` (request slots),
//! streams drain in key order, and ties break toward the lower tenant
//! index. The arrival offset models phasing — a tenant arriving at
//! slot 1000 has its first request sequenced after the first 1000
//! slots of earlier tenants — while preserving each tenant's internal
//! program order exactly.
//!
//! [`simulate_tenants`] replays the merged trace with the tag column as a
//! per-unit attribution sink, which charges bytes, bursts, activations,
//! completion time, and energy back to each tenant. Both engines honour
//! the sink — the fast engine charges batched bus-limited streaks in closed
//! form — so [`crate::engine::EngineKind::DualCheck`] compares the two
//! on tagged replays like on any other. That per-tenant measurement is
//! the ground truth the `mealib-verify` interference certifier (MEA3xx)
//! is proven sound against.

use crate::config::MemoryConfig;
use crate::engine::{dispatch, EngineRun, SimError, SimOptions};
use crate::trace::TraceBuffer;

/// One tenant's request stream plus its arrival offset in request
/// slots (merge-key units, not cycles: the engine replays the merged
/// trace back to back, so arrival shapes *ordering*, not idle gaps).
#[derive(Debug, Clone, Default)]
pub struct TenantStream {
    /// The tenant's trace, in its own program order.
    pub trace: TraceBuffer,
    /// Merge-key offset of the tenant's first request.
    pub arrival: u64,
}

impl TenantStream {
    /// A stream arriving at slot 0.
    pub fn new(trace: TraceBuffer) -> Self {
        Self { trace, arrival: 0 }
    }

    /// Sets the arrival offset.
    pub fn arriving_at(mut self, arrival: u64) -> Self {
        self.arrival = arrival;
        self
    }
}

/// Deterministically merges tenant streams into one tagged trace.
///
/// Returns the merged trace and the parallel tag column (`tags[i]` is
/// the tenant index owning merged request `i`). Each tenant's requests
/// stay in program order; across tenants, request `k` of tenant `i`
/// sorts by the key `arrival_i.saturating_add(k)`.
///
/// **Tie-break order (part of the public contract):** when two streams'
/// current requests carry the same merge key, the stream with the
/// *lower tenant index* drains first. Saturation makes this reachable
/// even for distinct arrivals — every key at or above `u64::MAX` clamps
/// to `u64::MAX`, so `u64::MAX`-adjacent arrivals collapse onto one
/// key; once a stream's keys stop advancing the tie-break takes over
/// and the clamped streams drain whole in tenant-index order. The
/// offset arithmetic never wraps: a huge `arrival` plus a long trace
/// saturates instead of overflowing back to the front of the schedule.
///
/// The merge is a pure function of its input, so static analysis and
/// the engine can both consume the same interleaving.
///
/// # Panics
///
/// Panics when more than `u16::MAX + 1` streams are supplied (the tag
/// column is `u16`).
pub fn interleave_tenants(streams: &[TenantStream]) -> (TraceBuffer, Vec<u16>) {
    assert!(
        streams.len() <= u16::MAX as usize + 1,
        "tenant count {} exceeds the u16 tag space",
        streams.len()
    );
    let total: usize = streams.iter().map(|s| s.trace.len()).sum();
    let mut merged = TraceBuffer::with_capacity(total);
    let mut tags = Vec::with_capacity(total);
    let mut cursor = vec![0usize; streams.len()];
    for _ in 0..total {
        let mut best: Option<(u64, usize)> = None;
        for (i, s) in streams.iter().enumerate() {
            if cursor[i] < s.trace.len() {
                // Saturating: `u64::MAX`-adjacent arrivals clamp onto
                // the final merge key rather than wrapping to the front
                // of the schedule.
                let key = s.arrival.saturating_add(cursor[i] as u64);
                // Strict `<` with ascending `i`: ties keep the lower
                // tenant index.
                if best.is_none_or(|(k, _)| key < k) {
                    best = Some((key, i));
                }
            }
        }
        let (_, i) = best.expect("one stream still has requests");
        merged.push(streams[i].trace.get(cursor[i]).expect("cursor in bounds"));
        tags.push(i as u16);
        cursor[i] += 1;
    }
    (merged, tags)
}

/// Interleaves `streams` and replays the merged trace with per-tenant
/// attribution — the tagged sibling of [`crate::engine::simulate`], on
/// any engine kind and worker count. The returned
/// [`EngineRun::tenants`] always has exactly `streams.len()` entries (a
/// tenant with an empty trace reports a default
/// [`crate::engine::TenantStats`]). Everything except `tenants` is
/// bit-identical to the untagged [`crate::engine::simulate`] of the
/// merged trace.
///
/// # Errors
///
/// Everything [`crate::engine::simulate`] reports.
pub fn simulate_tenants(
    config: &MemoryConfig,
    streams: &[TenantStream],
    opts: &SimOptions,
) -> Result<EngineRun, SimError> {
    let (trace, tags) = interleave_tenants(streams);
    dispatch(config, &trace, Some((&tags, streams.len())), opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{sequential_trace, simulate, strided_trace, Op, Request, TenantStats};

    fn streams() -> Vec<TenantStream> {
        vec![
            TenantStream::new(sequential_trace(0, 1 << 16, 64, Op::Read)),
            TenantStream::new(strided_trace(1 << 22, 8192, 64, 512, Op::Write)).arriving_at(100),
            TenantStream::new(sequential_trace(1 << 24, 1 << 15, 64, Op::Read)).arriving_at(700),
        ]
    }

    #[test]
    fn interleave_is_deterministic_and_order_preserving() {
        let s = streams();
        let (a, tags_a) = interleave_tenants(&s);
        let (b, tags_b) = interleave_tenants(&s);
        assert_eq!(a, b);
        assert_eq!(tags_a, tags_b);
        assert_eq!(a.len(), s.iter().map(|t| t.trace.len()).sum::<usize>());
        // Per-tenant subsequences are each tenant's trace verbatim.
        for (i, stream) in s.iter().enumerate() {
            let mine: Vec<Request> = a
                .iter()
                .zip(&tags_a)
                .filter(|(_, &t)| t as usize == i)
                .map(|(r, _)| r)
                .collect();
            let orig: Vec<Request> = stream.trace.iter().collect();
            assert_eq!(mine, orig, "tenant {i}");
        }
        // Arrival phasing: tenant 2 arrives at slot 700, after tenant
        // 1's 512 writes have fully drained, so every tag-2 request
        // sorts after every tag-1 request.
        let first_2 = tags_a.iter().position(|&t| t == 2).unwrap();
        let last_1 = tags_a.iter().rposition(|&t| t == 1).unwrap();
        assert!(last_1 < first_2);
    }

    #[test]
    fn zero_arrival_round_robins_equal_streams() {
        let s = vec![
            TenantStream::new(sequential_trace(0, 256, 64, Op::Read)),
            TenantStream::new(sequential_trace(1 << 20, 256, 64, Op::Read)),
        ];
        let (_, tags) = interleave_tenants(&s);
        assert_eq!(tags, vec![0, 1, 0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn simulate_tenants_matches_untagged_merged_replay() {
        let c = MemoryConfig::hmc_stack();
        let s = streams();
        let (merged, _) = interleave_tenants(&s);
        let plain = simulate(&c, &merged, &SimOptions::cycle()).unwrap();
        let tenants = simulate_tenants(&c, &s, &SimOptions::dual_check()).unwrap();
        assert_eq!(tenants.stats, plain.stats);
        assert_eq!(tenants.vaults, plain.vaults);
        assert_eq!(tenants.tenants.len(), s.len());
        for (i, (t, stream)) in tenants.tenants.iter().zip(&s).enumerate() {
            let own: u64 = stream.trace.total_bytes();
            assert_eq!(
                t.bytes_read.get() + t.bytes_written.get(),
                own,
                "tenant {i}"
            );
            assert!(t.cycles.get() <= plain.stats.cycles.get(), "tenant {i}");
            assert!(t.energy.get() > 0.0, "tenant {i}");
        }
    }

    #[test]
    fn max_adjacent_arrivals_saturate_instead_of_wrapping() {
        // Regression: `arrival + pos` used to overflow for arrivals
        // near `u64::MAX` (panic in debug, wrapped merge keys — i.e. a
        // scrambled schedule — in release). Saturation clamps every
        // key at `u64::MAX` and falls back to the documented tenant-
        // index tie-break.
        let s = vec![
            TenantStream::new(sequential_trace(0, 1024, 64, Op::Read)).arriving_at(u64::MAX - 2),
            TenantStream::new(sequential_trace(1 << 20, 1024, 64, Op::Write)).arriving_at(u64::MAX),
        ];
        let (merged, tags) = interleave_tenants(&s);
        assert_eq!(merged.len(), 32);
        // Both streams clamp to u64::MAX almost immediately, so their
        // keys never advance again and the documented tie-break rules:
        // tenant 0 drains whole, then tenant 1.
        let expect: Vec<u16> = [vec![0u16; 16], vec![1u16; 16]].concat();
        assert_eq!(tags, expect);
        let (again, tags_again) = interleave_tenants(&s);
        assert_eq!(merged, again);
        assert_eq!(tags, tags_again);
        // Program order survives saturation for both tenants.
        for (i, stream) in s.iter().enumerate() {
            let mine: Vec<Request> = merged
                .iter()
                .zip(&tags)
                .filter(|(_, &t)| t as usize == i)
                .map(|(r, _)| r)
                .collect();
            assert_eq!(mine, stream.trace.iter().collect::<Vec<_>>(), "tenant {i}");
        }
    }

    /// The time-to-first-burst stat the serving telemetry marks: a
    /// busy tenant's first completion lands inside its busy window
    /// (`0 < first <= last`), an idle tenant reports the zero
    /// sentinel, and the min-merge across engine shards keeps the
    /// stat identical between fast and cycle replays (dual-check).
    #[test]
    fn first_burst_brackets_the_busy_window() {
        let c = MemoryConfig::hmc_stack();
        let s = streams();
        let run = simulate_tenants(&c, &s, &SimOptions::dual_check()).unwrap();
        for (i, t) in run.tenants.iter().enumerate() {
            assert!(t.first_cycles.get() > 0, "tenant {i} issued bursts");
            assert!(t.first_cycles.get() <= t.cycles.get(), "tenant {i}");
            assert!(t.first_elapsed.get() > 0.0, "tenant {i}");
            assert!(t.first_elapsed.get() <= t.elapsed.get(), "tenant {i}");
        }
        // An idle tenant never sees a first burst: the sentinel stays.
        let with_idle = vec![
            TenantStream::new(sequential_trace(0, 4096, 64, Op::Read)),
            TenantStream::new(TraceBuffer::new()),
        ];
        let run = simulate_tenants(&c, &with_idle, &SimOptions::cycle()).unwrap();
        assert_eq!(run.tenants[1].first_cycles.get(), 0);
        assert_eq!(run.tenants[1].first_elapsed.get(), 0.0);
    }

    #[test]
    fn empty_streams_report_default_slices() {
        let c = MemoryConfig::hmc_stack();
        let s = vec![
            TenantStream::new(sequential_trace(0, 4096, 64, Op::Read)),
            TenantStream::new(TraceBuffer::new()),
        ];
        let run = simulate_tenants(&c, &s, &SimOptions::cycle()).unwrap();
        assert_eq!(run.tenants.len(), 2);
        assert_eq!(run.tenants[1], TenantStats::default());
    }
}
