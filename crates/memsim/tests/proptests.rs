//! Property tests over the DRAM simulator invariants.

mod support;

use mealib_memsim::bounds::{tagged_trace_bounds, trace_bounds};
use mealib_memsim::engine::{simulate, Op, Request, SimOptions};
use mealib_memsim::{
    analytic, interleave_tenants, simulate_tenants, AccessPattern, MemoryConfig, TraceBuffer,
};
use mealib_types::PhysAddr;
use proptest::prelude::*;
use support::{mapping_config_strategy, period_case_strategy, request_strategy, tenant_strategy};

/// Replays through the unified API in dual-check mode, so every corpus
/// trace also proves fast-vs-cycle bit-exactness.
fn replay(cfg: &MemoryConfig, trace: &[Request]) -> mealib_memsim::TraceStats {
    simulate(cfg, &TraceBuffer::from(trace), &SimOptions::dual_check())
        .expect("valid config")
        .stats
}

fn config_strategy() -> impl Strategy<Value = MemoryConfig> {
    prop_oneof![
        Just(MemoryConfig::hmc_stack()),
        Just(MemoryConfig::ddr_dual_channel()),
        Just(MemoryConfig::msas_dram()),
        Just(MemoryConfig::hmc_stack_remote()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tagged walk is `trace_bounds` with an attribution sink: the
    /// set bounds equal the untagged walk of the merge, every tenant's
    /// counts equal the untagged walk of its own trace, and its prefix
    /// count equals the untagged walk of the merged prefix ending at
    /// its last request that moves a byte, read on the unit of that
    /// request's final byte.
    #[test]
    fn tagged_walk_matches_untagged_walks(
        cfg in mapping_config_strategy(),
        streams in proptest::collection::vec(tenant_strategy(), 1..=4),
    ) {
        let (merged, tags) = interleave_tenants(&streams);
        let (set, counts) = tagged_trace_bounds(&cfg, &merged, &tags, streams.len()).unwrap();
        prop_assert_eq!(&set, &trace_bounds(&cfg, &merged).unwrap());
        prop_assert_eq!(counts.len(), streams.len());
        for (i, (stream, own)) in streams.iter().zip(&counts).enumerate() {
            let solo = trace_bounds(&cfg, &stream.trace).unwrap();
            prop_assert_eq!(own.bytes_read as f64, solo.bytes_read.lo);
            prop_assert_eq!(own.bytes_written as f64, solo.bytes_written.lo);
            prop_assert_eq!(own.read_bursts as f64, solo.read_bursts.lo);
            prop_assert_eq!(own.write_bursts as f64, solo.write_bursts.lo);
            prop_assert_eq!(&own.unit_bursts, &solo.unit_bursts);
            let expected_prefix = tags
                .iter()
                .zip(merged.bytes())
                .rposition(|(&t, &bytes)| t as usize == i && bytes > 0)
                .map(|pos| {
                let last = merged.get(pos).unwrap();
                let final_byte = last.addr.get() + last.bytes.saturating_sub(1);
                let u_final = cfg.mapping.decode(PhysAddr::new(final_byte)).unit;
                let prefix: TraceBuffer = merged.iter().take(pos + 1).collect();
                trace_bounds(&cfg, &prefix).unwrap().unit_bursts[u_final]
            });
            prop_assert_eq!(own.final_unit_prefix_bursts, expected_prefix);
        }
    }

    /// Requests spanning whole mapping periods, whose bounds the walk
    /// derives in closed form, are certified soundly: the replay lands
    /// inside every interval, and the per-unit bursts are exact.
    #[test]
    fn period_compressed_bounds_contain_the_engine((cfg, trace) in period_case_strategy()) {
        let bounds = trace_bounds(&cfg, &trace).unwrap();
        let run = simulate(&cfg, &trace, &SimOptions::cycle()).unwrap();
        prop_assert_eq!(bounds.check_contains(&run.stats), None);
        let per_unit: Vec<u64> = run.vaults.iter().map(|v| v.read_bursts + v.write_bursts).collect();
        prop_assert_eq!(&bounds.unit_bursts, &per_unit);
    }

    /// Tagged replays are bit-exact across engines: the fast engine's
    /// closed-form streak charges and its slow path fill the same
    /// tenant slices as the cycle oracle, alongside every other field,
    /// serial and sharded.
    #[test]
    fn tagged_fast_matches_cycle(
        cfg in mapping_config_strategy(),
        streams in proptest::collection::vec(tenant_strategy(), 1..=4),
        jobs in 1usize..=2,
    ) {
        let cycle = simulate_tenants(&cfg, &streams, &SimOptions::cycle().jobs(jobs)).unwrap();
        let fast = simulate_tenants(&cfg, &streams, &SimOptions::fast().jobs(jobs)).unwrap();
        prop_assert_eq!(fast.tenants.len(), streams.len());
        prop_assert_eq!(&fast, &cycle);
    }

    /// Every requested byte is accounted for, reads and writes
    /// separately, on every device.
    #[test]
    fn engine_conserves_bytes(
        cfg in config_strategy(),
        trace in proptest::collection::vec(request_strategy(), 0..40),
    ) {
        let stats = replay(&cfg, &trace);
        let want_read: u64 = trace.iter().filter(|r| r.op == Op::Read).map(|r| r.bytes).sum();
        let want_written: u64 =
            trace.iter().filter(|r| r.op == Op::Write).map(|r| r.bytes).sum();
        prop_assert_eq!(stats.bytes_read.get(), want_read);
        prop_assert_eq!(stats.bytes_written.get(), want_written);
        // Every burst either hit or missed; misses equal activations.
        prop_assert_eq!(stats.row_misses, stats.activations);
    }

    /// Appending requests never makes the trace finish earlier.
    #[test]
    fn engine_time_is_monotone_in_trace_length(
        trace in proptest::collection::vec(request_strategy(), 1..30),
    ) {
        let cfg = MemoryConfig::hmc_stack();
        let full = replay(&cfg, &trace);
        let prefix = replay(&cfg, &trace[..trace.len() - 1]);
        prop_assert!(full.cycles >= prefix.cycles);
        prop_assert!(full.energy.get() >= prefix.energy.get());
    }

    /// The engine is deterministic.
    #[test]
    fn engine_is_deterministic(
        cfg in config_strategy(),
        trace in proptest::collection::vec(request_strategy(), 0..30),
    ) {
        prop_assert_eq!(replay(&cfg, &trace), replay(&cfg, &trace));
    }

    /// Analytic estimates are finite, non-negative, and conserve bytes.
    #[test]
    fn analytic_estimates_are_sane(
        cfg in config_strategy(),
        read in 0u64..(1 << 32),
        written in 0u64..(1 << 32),
    ) {
        let s = analytic::try_estimate(&cfg, &AccessPattern::sequential_rw(read, written)).unwrap();
        prop_assert_eq!(s.bytes_read.get(), read);
        prop_assert_eq!(s.bytes_written.get(), written);
        prop_assert!(s.elapsed.get().is_finite() && s.elapsed.get() >= 0.0);
        prop_assert!(s.energy.get().is_finite() && s.energy.get() >= 0.0);
        if read + written > 0 {
            // Achieved bandwidth can never exceed the device peak.
            prop_assert!(
                s.achieved_bandwidth().get() <= cfg.peak_bandwidth().get() * 1.001,
                "bw {} above peak {}",
                s.achieved_bandwidth(),
                cfg.peak_bandwidth()
            );
        }
    }

    /// More data never takes less time in the analytic model.
    #[test]
    fn analytic_time_is_monotone_in_bytes(
        cfg in config_strategy(),
        a in 0u64..(1 << 30),
        b in 0u64..(1 << 30),
    ) {
        let (small, large) = (a.min(b), a.max(b));
        let ts = analytic::try_estimate(&cfg, &AccessPattern::sequential_read(small)).unwrap().elapsed;
        let tl = analytic::try_estimate(&cfg, &AccessPattern::sequential_read(large)).unwrap().elapsed;
        prop_assert!(tl >= ts);
    }

    /// Strided accesses never beat the sequential stream over the same
    /// number of useful bytes.
    #[test]
    fn strided_never_beats_sequential(
        stride in 64u64..65536,
        count in 1u64..4096,
    ) {
        let cfg = MemoryConfig::ddr_dual_channel();
        let strided = analytic::try_estimate(
            &cfg,
            &AccessPattern::Strided { stride, elem_bytes: 4, count, write: false },
        )
        .unwrap();
        let seq = analytic::try_estimate(&cfg, &AccessPattern::sequential_read(4 * count)).unwrap();
        prop_assert!(
            strided.elapsed.get() >= seq.elapsed.get() * 0.99,
            "strided {} beat sequential {}",
            strided.elapsed,
            seq.elapsed
        );
    }
}
