//! Determinism suite for the dual-engine core.
//!
//! Two families of bit-exactness properties, both over random traces ×
//! random valid configs:
//!
//! 1. **parallel ≡ serial** — the vault-sharded replay must equal the
//!    serial replay bit for bit, for either engine. The merge is
//!    designed so that per-unit integer totals combine commutatively
//!    and the derived `f64` fields (`elapsed`, `energy`) are computed
//!    once from the merged totals, never accumulated across threads.
//! 2. **fast ≡ cycle** — the event-driven epoch-skipping engine must
//!    equal the cycle-accurate oracle bit for bit on every statistic
//!    (stats, vault counts, histogram buckets, energy), across engine
//!    kinds × jobs ∈ {1, 2, 4, 8} × mapping geometries, including
//!    adversarial traces: row-conflict storms, single-vault hotspots,
//!    zero-length and max-burst requests. Two properties also draw the
//!    device timing itself, so the activation constraints the fast
//!    engine's bus-limited miss test reads (tRAS, tRC, tFAW) bind on
//!    some draws and not on others: one over multi-row streams, one
//!    over scalar gathers, which also checks each burst's refresh
//!    against the refresh rule (a wrong refresh epoch in the shared
//!    slow path would pass fast ≡ cycle).
//!
//! These properties are what make `SimOptions::jobs` and `EngineKind::Fast`
//! shippable: the parallel run and the fast run are not "close", they
//! are the same run.

use mealib_memsim::address::AddressMapping;
use mealib_memsim::engine::{
    sequential_trace, simulate, strided_trace, EngineKind, EngineRun, Op, Request, SimError,
    SimOptions,
};
use mealib_memsim::tenancy::{interleave_tenants, simulate_tenants, TenantStream};
use mealib_memsim::timing::DramTiming;
use mealib_memsim::trace::TraceBuffer;
use mealib_memsim::MemoryConfig;
use mealib_obs::timeline::WindowCounters;
use mealib_types::PhysAddr;
use mealib_types::Report;
use proptest::prelude::*;

/// Addresses stay below 2^24 so the asymmetric split (drawn from the same
/// range) actually lands inside the sampled traffic.
fn request_strategy() -> impl Strategy<Value = Request> {
    (0u64..(1 << 24), 0u64..4096, any::<bool>()).prop_map(|(addr, bytes, write)| {
        if write {
            Request::write(addr, bytes)
        } else {
            Request::read(addr, bytes)
        }
    })
}

/// Adversarial traces aimed at the fast engine's streak batching:
/// every shape is built to break streaks as often as possible or to
/// stretch them to their caps.
fn adversarial_trace_strategy() -> impl Strategy<Value = TraceBuffer> {
    prop_oneof![
        // Row-conflict storm: large power-of-two strides alias onto the
        // same bank under small mappings, so every access precharges.
        (12u32..=18, 1u64..256, any::<bool>()).prop_map(|(shift, count, write)| {
            (0..count)
                .map(|i| {
                    let addr = i * (1u64 << shift);
                    if write {
                        Request::write(addr, 64)
                    } else {
                        Request::read(addr, 64)
                    }
                })
                .collect()
        }),
        // Single-vault hotspot: all traffic inside one line's reach, so
        // one unit absorbs the entire stream (maximal streaks, maximal
        // shard imbalance).
        (0u64..64, 1u64..512).prop_map(|(base, count)| {
            (0..count)
                .map(|i| Request::read(base + (i % 4) * 8, 32))
                .collect()
        }),
        // Zero-length requests interleaved with real ones: must be
        // no-ops on every counter in both engines.
        proptest::collection::vec((0u64..(1 << 20), any::<bool>()), 1..64).prop_map(|specs| {
            specs
                .iter()
                .enumerate()
                .map(|(i, &(addr, zero))| Request::read(addr, if zero { 0 } else { i as u64 }))
                .collect()
        }),
        // Max-burst requests: each one spans many rows and banks, so a
        // single request alternates hit streaks with activations.
        proptest::collection::vec(0u64..(1 << 22), 1..24)
            .prop_map(|addrs| { addrs.iter().map(|&a| Request::write(a, 4096)).collect() }),
    ]
}

/// Random *valid* mappings covering all three interleaving modes:
/// plain interleaved, XOR-hashed, and the asymmetric §4.2 split.
fn mapping_strategy() -> impl Strategy<Value = AddressMapping> {
    // row_bytes = 2^row_shift, line_bytes = 2^line_shift <= row_bytes.
    fn shifts() -> impl Strategy<Value = (u32, u32)> {
        (8u32..=13, 5u32..=13).prop_map(|(row, line)| (row, line.min(row)))
    }
    prop_oneof![
        (1usize..=8, 1usize..=8, shifts()).prop_map(|(units, banks_per_unit, (row, line))| {
            AddressMapping::Interleaved {
                units,
                banks_per_unit,
                row_bytes: 1 << row,
                line_bytes: 1 << line,
            }
        }),
        (1usize..=8, 1usize..=8, shifts()).prop_map(|(units, banks_per_unit, (row, line))| {
            AddressMapping::XorInterleaved {
                units,
                banks_per_unit,
                row_bytes: 1 << row,
                line_bytes: 1 << line,
            }
        }),
        (1usize..=8, 1usize..=8, shifts(), 0u64..(1 << 24)).prop_map(
            |(low_units, banks_per_unit, (row, line), split)| AddressMapping::Asymmetric {
                low_units,
                banks_per_unit,
                row_bytes: 1 << row,
                line_bytes: 1 << line,
                split: PhysAddr::new(split),
            }
        ),
    ]
}

/// Random valid configs: preset device timing/energy × random mapping.
fn config_strategy() -> impl Strategy<Value = MemoryConfig> {
    let device = prop_oneof![
        Just(MemoryConfig::hmc_stack()),
        Just(MemoryConfig::ddr_dual_channel()),
        Just(MemoryConfig::msas_dram()),
    ];
    (device, mapping_strategy()).prop_map(|(mut cfg, mapping)| {
        cfg.mapping = mapping;
        cfg
    })
}

/// Device timings that pass [`DramTiming::check`] without an error,
/// drawn so the activation constraints bind on some draws: tRAS runs up
/// to 192 cycles past `t_rcd + t_cl` (so tRC can outlast several row
/// windows of a 1–8 cycle burst) and tFAW up to 256 cycles (past four
/// row cycles, a warning only, on some draws). tREFI stays under 4,200
/// cycles, so refresh epochs fall inside the longer streams' streaks.
fn timing_strategy() -> impl Strategy<Value = DramTiming> {
    (
        (1u64..=16, 1u64..=16, 1u64..=16),
        (0u64..=192, 1u64..=256),
        (1u64..=8, prop_oneof![Just(16u64), Just(32), Just(64)]),
        (1u64..=128, 1u64..=4000),
    )
        .prop_map(
            |(
                (t_rcd, t_cl, t_rp),
                (ras_slack, t_faw),
                (t_burst, burst_bytes),
                (t_rfc, refi_slack),
            )| {
                DramTiming {
                    t_rcd,
                    t_cl,
                    t_rp,
                    t_ras: t_rcd + t_cl + ras_slack,
                    t_burst,
                    burst_bytes,
                    t_faw,
                    t_rfc,
                    t_refi: t_rfc + refi_slack,
                    ..DramTiming::hmc_vault()
                }
            },
        )
}

/// One tenant's stream: one to three multi-row shapes back to back,
/// each a sequential sweep (whole, or in 64 B to 4 KiB requests) or a
/// strided walk, so row-window runs on rotating banks meet conflicts on
/// banks activated a few windows earlier.
fn multi_row_stream_strategy() -> impl Strategy<Value = TenantStream> {
    let shape = prop_oneof![
        (
            0u64..(1 << 22),
            1u64..=(64 << 10),
            prop_oneof![Just(64u64), Just(256), Just(4096), Just(u64::MAX)],
            any::<bool>(),
        )
            .prop_map(|(base, bytes, chunk, write)| {
                let op = if write { Op::Write } else { Op::Read };
                sequential_trace(base, bytes, chunk.min(bytes), op)
            }),
        (
            0u64..(1 << 22),
            prop_oneof![(8u32..=16).prop_map(|s| 1u64 << s), 1u64..=(1 << 16)],
            4u64..=1024,
            1u64..=128,
            any::<bool>(),
        )
            .prop_map(|(base, stride, elem, count, write)| {
                let op = if write { Op::Write } else { Op::Read };
                strided_trace(base, stride, elem, count, op)
            }),
    ];
    (proptest::collection::vec(shape, 1..=3), 0u64..16).prop_map(|(shapes, arrival)| {
        let mut trace = TraceBuffer::new();
        for shape in &shapes {
            trace.extend(shape.iter());
        }
        TenantStream::new(trace).arriving_at(arrival)
    })
}

/// One tenant's draws for [`gather_stream`]: per request a kind (0–2 a
/// scalar gather, 3 a one-row sweep), two sizing draws and a direction.
type GatherDraw = (u8, u64, u64, bool);

/// One to three tenants of 1–47 gather draws each.
fn gather_draws_strategy() -> impl Strategy<Value = Vec<Vec<GatherDraw>>> {
    let draw = (0u8..4, any::<u64>(), any::<u64>(), any::<bool>());
    proptest::collection::vec(proptest::collection::vec(draw, 1..48), 1..=3)
}

/// One tenant's scalar-gather stream on `cfg`: gathers of 1 to
/// `2·burst_bytes` bytes at any offset of a region four rows per bank
/// wide, so about a quarter of them hit an open row and many cross a
/// burst edge, among sweeps of 2–32 one-burst requests from a
/// burst-aligned offset, which reach each unit as back-to-back
/// one-burst runs on one row.
fn gather_stream(cfg: &MemoryConfig, draws: &[GatherDraw]) -> TenantStream {
    let burst = cfg.timing.burst_bytes;
    let (units, banks, row_bytes, _) = cfg.mapping.interleave_geometry();
    let region = (units * banks) as u64 * row_bytes * 4;
    let mut trace = TraceBuffer::new();
    let mut push = |addr, bytes, write| {
        trace.push(if write {
            Request::write(addr, bytes)
        } else {
            Request::read(addr, bytes)
        })
    };
    for &(kind, a, b, write) in draws {
        if kind < 3 {
            push(a % region, 1 + b % (2 * burst), write);
        } else {
            let start = a % region / burst * burst;
            for k in 0..2 + b % 31 {
                push(start + k * burst, burst, write);
            }
        }
    }
    TenantStream::new(trace)
}

/// Cases of the timing-randomized fast ≡ cycle property: 64, or
/// `PROPTEST_CASES` when set (the release verification run widens the
/// draw this way).
fn timing_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(64)
}

/// Asserts bit-exact equality on every field, including the `f64`s by
/// their raw bit patterns (`PartialEq` on `EngineRun` already compares
/// them exactly; the `to_bits` checks make NaN-safety and signed-zero
/// agreement explicit).
fn assert_bit_exact(got: &EngineRun, want: &EngineRun, ctx: &str) {
    assert_eq!(got, want, "{ctx}: runs differ");
    assert_eq!(
        got.stats.elapsed.get().to_bits(),
        want.stats.elapsed.get().to_bits(),
        "{ctx}: elapsed bits differ"
    );
    assert_eq!(
        got.stats.energy.get().to_bits(),
        want.stats.energy.get().to_bits(),
        "{ctx}: energy bits differ"
    );
    assert_eq!(
        got.latencies.buckets(),
        want.latencies.buckets(),
        "{ctx}: histogram buckets differ"
    );
    assert_eq!(got.vaults, want.vaults, "{ctx}: vault stats differ");
}

fn cycle_serial(cfg: &MemoryConfig, trace: &TraceBuffer) -> EngineRun {
    simulate(cfg, trace, &SimOptions::cycle()).expect("valid config")
}

/// Fast ≡ cycle on `streams` under `cfg`: untagged (the merged trace)
/// and tagged (per-tenant slices), through the serial and the sharded
/// replay.
fn assert_fast_matches_cycle(cfg: &MemoryConfig, streams: &[TenantStream]) {
    let (merged, _) = interleave_tenants(streams);
    let oracle = cycle_serial(cfg, &merged);
    let tagged_oracle = simulate_tenants(cfg, streams, &SimOptions::cycle()).expect("valid config");
    for jobs in [1usize, 2] {
        let ctx = format!("{:?} {:?} jobs={jobs}", cfg.timing, cfg.mapping);
        let fast = simulate(cfg, &merged, &SimOptions::fast().jobs(jobs)).expect("valid config");
        assert_bit_exact(&fast, &oracle, &format!("{ctx} untagged"));
        let tagged =
            simulate_tenants(cfg, streams, &SimOptions::fast().jobs(jobs)).expect("valid config");
        assert_bit_exact(&tagged, &tagged_oracle, &format!("{ctx} tagged"));
    }
}

/// Checks the refresh rule burst by burst on each unit of a profiled
/// replay with one-cycle windows, where each burst has a cell of its
/// own at window `done - 1` and carries the refreshes it paid. A burst
/// whose unit stood at cycle `c` (its predecessor's completion) with
/// `r` refreshes done owes `c / t_refi - r` of them when
/// `c >= (r + 1)·t_refi`, and none otherwise. Both engines pay
/// refresh in the shared slow path, so fast ≡ cycle cannot see a wrong
/// refresh epoch; this recurrence can.
fn assert_refreshes_fall_due_on_time(cfg: &MemoryConfig, trace: &TraceBuffer) {
    let run = simulate(cfg, trace, &SimOptions::fast().profile(1)).expect("valid config");
    let timeline = run.timeline.expect("profile requested");
    let t_refi = cfg.timing.t_refi;
    for (unit, vault) in run.vaults.iter().enumerate() {
        let (mut at, mut paid) = (0u64, 0u64);
        for (window, _, cell) in timeline.iter().filter(|&(_, l, _)| l == unit as u16) {
            let owed = if at >= (paid + 1) * t_refi {
                at / t_refi - paid
            } else {
                0
            };
            assert_eq!(
                cell.refreshes,
                owed,
                "unit {unit}, burst done at {}: {:?}",
                window + 1,
                cfg.timing
            );
            paid += owed;
            at = window + 1;
        }
        assert_eq!(vault.refreshes, paid, "unit {unit}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: every engine kind × every worker count is
    /// bit-for-bit the serial cycle oracle, across random traces ×
    /// random valid configs × jobs ∈ {1, 2, 4, 8}.
    #[test]
    fn engines_and_jobs_equal_the_cycle_oracle_bit_exactly(
        cfg in config_strategy(),
        trace in proptest::collection::vec(request_strategy(), 0..40),
    ) {
        prop_assert!(cfg.validate().is_ok());
        let trace = TraceBuffer::from(trace);
        let oracle = cycle_serial(&cfg, &trace);
        for engine in [EngineKind::Cycle, EngineKind::Fast] {
            for jobs in [1usize, 2, 4, 8] {
                let opts = SimOptions { engine, jobs, ..SimOptions::default() };
                let run = simulate(&cfg, &trace, &opts).expect("valid config");
                assert_bit_exact(
                    &run,
                    &oracle,
                    &format!("{} {engine:?} jobs={jobs}", cfg.name),
                );
            }
        }
    }

    /// The fast engine survives adversarial trace shapes (conflict
    /// storms, hotspots, zero-length, max-burst) on every preset device
    /// and random mapping, and `DualCheck` never reports divergence.
    #[test]
    fn fast_engine_survives_adversarial_traces(
        cfg in config_strategy(),
        trace in adversarial_trace_strategy(),
    ) {
        prop_assert!(cfg.validate().is_ok());
        let oracle = cycle_serial(&cfg, &trace);
        for jobs in [1usize, 2, 4, 8] {
            let fast = simulate(&cfg, &trace, &SimOptions::fast().jobs(jobs))
                .expect("valid config");
            assert_bit_exact(&fast, &oracle, &format!("{} fast jobs={jobs}", cfg.name));
            match simulate(&cfg, &trace, &SimOptions::dual_check().jobs(jobs)) {
                Ok(dual) => assert_bit_exact(
                    &dual,
                    &oracle,
                    &format!("{} dual jobs={jobs}", cfg.name),
                ),
                Err(SimError::EngineDivergence(what)) => {
                    prop_assert!(false, "{}: dual-check divergence: {what}", cfg.name);
                }
                Err(e) => prop_assert!(false, "{}: unexpected error: {e}", cfg.name),
            }
        }
    }

    /// Repeated parallel runs of the same input are identical — catches
    /// merges that depend on thread completion order.
    #[test]
    fn repeated_parallel_runs_are_identical(
        cfg in config_strategy(),
        trace in proptest::collection::vec(request_strategy(), 1..30),
    ) {
        prop_assert!(cfg.validate().is_ok());
        let trace = TraceBuffer::from(trace);
        for engine in [EngineKind::Cycle, EngineKind::Fast] {
            let opts = SimOptions { engine, jobs: 4, ..SimOptions::default() };
            let first = simulate(&cfg, &trace, &opts).expect("valid config");
            for run in 0..5 {
                let again = simulate(&cfg, &trace, &opts).expect("valid config");
                assert_bit_exact(&again, &first, &format!("{} {engine:?} run={run}", cfg.name));
            }
        }
    }

    /// `jobs: 0` (auto) and `jobs: 1` (exact serial path) produce the
    /// same bits as any explicit worker count — the normalized `jobs`
    /// semantics regression property.
    #[test]
    fn jobs_zero_and_one_match_explicit_counts(
        cfg in config_strategy(),
        trace in proptest::collection::vec(request_strategy(), 0..30),
    ) {
        prop_assert!(cfg.validate().is_ok());
        let trace = TraceBuffer::from(trace);
        let serial = cycle_serial(&cfg, &trace);
        for engine in [EngineKind::Cycle, EngineKind::Fast] {
            for jobs in [0usize, 1] {
                let opts = SimOptions { engine, jobs, ..SimOptions::default() };
                let run = simulate(&cfg, &trace, &opts).expect("valid config");
                assert_bit_exact(&run, &serial, &format!("{} {engine:?} jobs={jobs}", cfg.name));
            }
        }
    }

    /// Timeline conservation: profiling must not perturb the model, and
    /// summing every `(window, lane)` cell must reproduce the aggregate
    /// `TraceStats` counters with exact integer equality — each burst's
    /// contribution is charged to exactly one window.
    #[test]
    fn profiled_timeline_conserves_aggregate_counters(
        cfg in config_strategy(),
        trace in proptest::collection::vec(request_strategy(), 0..40),
        window_cycles in 1u64..5000,
    ) {
        prop_assert!(cfg.validate().is_ok());
        let trace = TraceBuffer::from(trace);
        let plain = cycle_serial(&cfg, &trace);
        let mut profiled =
            simulate(&cfg, &trace, &SimOptions::cycle().profile(window_cycles))
                .expect("valid config");
        let timeline = profiled.timeline.take().expect("profile requested");
        prop_assert_eq!(&profiled, &plain, "profiling perturbed the run");
        let agg = timeline.aggregate();
        prop_assert_eq!(agg.bytes_read, plain.stats.bytes_read.get());
        prop_assert_eq!(agg.bytes_written, plain.stats.bytes_written.get());
        prop_assert_eq!(agg.activations, plain.stats.activations);
        prop_assert_eq!(agg.precharges, plain.stats.precharges);
        prop_assert_eq!(agg.row_hits, plain.stats.row_hits);
        prop_assert_eq!(agg.row_misses, plain.stats.row_misses);
        prop_assert_eq!(agg.refreshes, plain.stats.refreshes);
        // One data-bus slot per burst, and the FCFS queue waits
        // telescope per unit, so both derived counters are also exact.
        let bursts = plain.stats.row_hits + plain.stats.row_misses;
        prop_assert_eq!(agg.bus_busy_cycles, bursts * cfg.timing.t_burst);
        // Per-lane sums must equal the per-vault command counts.
        for (unit, v) in profiled.vaults.iter().enumerate() {
            let mut lane = WindowCounters::default();
            for (_, l, c) in timeline.iter() {
                if l == unit as u16 {
                    lane.merge(c);
                }
            }
            prop_assert_eq!(lane.activations, v.activations);
            prop_assert_eq!(lane.row_hits, v.row_hits);
            prop_assert_eq!(lane.row_misses, v.row_misses);
            prop_assert_eq!(lane.read_bursts_like(), v.read_bursts + v.write_bursts);
        }
    }

    /// Profiled runs are bit-identical across engine kinds and worker
    /// counts: same cells, same counters, same window width — the
    /// windowed reduction inherits the aggregate merge's determinism.
    #[test]
    fn profiled_runs_are_bit_identical_across_engines_and_jobs(
        cfg in config_strategy(),
        trace in proptest::collection::vec(request_strategy(), 0..40),
        window_cycles in 1u64..5000,
    ) {
        prop_assert!(cfg.validate().is_ok());
        let trace = TraceBuffer::from(trace);
        let serial = simulate(&cfg, &trace, &SimOptions::cycle().profile(window_cycles))
            .expect("valid config");
        for engine in [EngineKind::Cycle, EngineKind::Fast] {
            for jobs in [2usize, 4, 8] {
                let opts = SimOptions {
                    engine,
                    jobs,
                    profile: Some(window_cycles),
                };
                let parallel = simulate(&cfg, &trace, &opts).expect("valid config");
                prop_assert_eq!(&parallel, &serial, "{} {:?} jobs={}", cfg.name, engine, jobs);
                assert_bit_exact(&parallel, &serial, &format!("{} {engine:?} jobs={jobs}", cfg.name));
            }
        }
    }
}

/// Row hits + misses per lane equal serviced bursts per lane; expressed
/// as a helper so the property above reads as the invariant it checks.
trait BurstCount {
    fn read_bursts_like(&self) -> u64;
}

impl BurstCount for WindowCounters {
    fn read_bursts_like(&self) -> u64 {
        self.row_hits + self.row_misses
    }
}

/// Fixed-config smoke tests, one per interleaving mode, with dense
/// same-row traffic that exercises row hits, conflicts, and refreshes —
/// for both engines and every worker count.
#[test]
fn fixed_configs_cover_every_mode() {
    let mut trace = TraceBuffer::new();
    for i in 0..2000u64 {
        trace.push(Request::read(i * 64 % (1 << 20), 64));
        if i % 3 == 0 {
            trace.push(Request::write(i * 8192, 256));
        }
    }
    let mappings = [
        AddressMapping::Interleaved {
            units: 4,
            banks_per_unit: 4,
            row_bytes: 2048,
            line_bytes: 64,
        },
        AddressMapping::XorInterleaved {
            units: 4,
            banks_per_unit: 4,
            row_bytes: 2048,
            line_bytes: 64,
        },
        AddressMapping::Asymmetric {
            low_units: 2,
            banks_per_unit: 4,
            row_bytes: 2048,
            line_bytes: 64,
            split: PhysAddr::new(1 << 19),
        },
    ];
    for mapping in mappings {
        let mut cfg = MemoryConfig::ddr_dual_channel();
        cfg.mapping = mapping;
        cfg.validate().expect("fixed config is valid");
        let serial = cycle_serial(&cfg, &trace);
        // The trace is long enough to produce real activity in each mode.
        assert!(serial.stats.row_hits > 0, "{:?}", cfg.mapping);
        assert!(serial.stats.row_misses > 0, "{:?}", cfg.mapping);
        for engine in [EngineKind::Cycle, EngineKind::Fast, EngineKind::DualCheck] {
            for jobs in [2usize, 4, 8] {
                let opts = SimOptions {
                    engine,
                    jobs,
                    ..SimOptions::default()
                };
                let run = simulate(&cfg, &trace, &opts).expect("valid config");
                assert_bit_exact(
                    &run,
                    &serial,
                    &format!("{:?} {engine:?} jobs={jobs}", cfg.mapping),
                );
            }
        }
    }
}

/// Per-vault counts must still sum to the aggregates after a parallel
/// merge (mirrors the serial-engine invariant test in `engine.rs`).
#[test]
fn parallel_vault_counts_sum_to_aggregates() {
    let cfg = MemoryConfig::hmc_stack();
    let trace: TraceBuffer = (0..4096u64).map(|i| Request::read(i * 256, 256)).collect();
    for engine in [EngineKind::Cycle, EngineKind::Fast] {
        let opts = SimOptions {
            engine,
            jobs: 8,
            ..SimOptions::default()
        };
        let run = simulate(&cfg, &trace, &opts).expect("valid config");
        assert_eq!(run.vaults.len(), cfg.mapping.units());
        let (mut reads, mut writes, mut acts, mut hits) = (0u64, 0u64, 0u64, 0u64);
        for v in &run.vaults {
            reads += v.read_bursts;
            writes += v.write_bursts;
            acts += v.activations;
            hits += v.row_hits;
        }
        assert_eq!(run.stats.row_hits + run.stats.row_misses, reads + writes);
        assert_eq!(run.stats.activations, acts);
        assert_eq!(run.stats.row_hits, hits);
        assert_eq!(run.latencies.count(), reads + writes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(timing_cases()))]

    /// Fast ≡ cycle under random device timing: random valid timings ×
    /// random mappings × 1–4 tenants of multi-row streams, untagged (the
    /// merged trace) and tagged (per-tenant slices), through the serial
    /// and the sharded replay. The preset-timing tests let some wrong
    /// miss tests through (one that drops tRC from the idle-bank arm
    /// fails none of them); these draws make tRC and tFAW bind often.
    #[test]
    fn fast_engine_matches_cycle_under_random_timing(
        timing in timing_strategy(),
        mapping in mapping_strategy(),
        ddr in any::<bool>(),
        streams in proptest::collection::vec(multi_row_stream_strategy(), 1..=4),
    ) {
        let mut cfg = if ddr { MemoryConfig::ddr_dual_channel() } else { MemoryConfig::hmc_stack() };
        let mut report = Report::new();
        timing.check(&mut report);
        prop_assert_eq!(report.error_count(), 0, "{}", report);
        cfg.timing = timing;
        cfg.mapping = mapping;
        prop_assert!(cfg.validate().is_ok());
        assert_fast_matches_cycle(&cfg, &streams);
    }

    /// Fast ≡ cycle on scalar gathers under random device timing: the
    /// one-step decode of a request that ends inside its first burst
    /// (and not of one that crosses a burst edge), the straight lane of
    /// a lone one-burst run, and the batching of one-burst runs that
    /// continue each other on a row, untagged and tagged, at jobs 1
    /// and 2. The refresh recurrence checks the cached refresh epoch
    /// on the merged trace.
    #[test]
    fn fast_engine_matches_cycle_on_scalar_gathers(
        timing in timing_strategy(),
        mapping in mapping_strategy(),
        ddr in any::<bool>(),
        draws in gather_draws_strategy(),
    ) {
        let mut cfg = if ddr { MemoryConfig::ddr_dual_channel() } else { MemoryConfig::hmc_stack() };
        cfg.timing = timing;
        cfg.mapping = mapping;
        prop_assert!(cfg.validate().is_ok());
        let streams: Vec<TenantStream> = draws.iter().map(|d| gather_stream(&cfg, d)).collect();
        assert_fast_matches_cycle(&cfg, &streams);
        assert_refreshes_fall_due_on_time(&cfg, &interleave_tenants(&streams).0);
    }
}
