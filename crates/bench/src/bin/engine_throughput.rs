//! Engine throughput — the dual-engine win, measured.
//!
//! Replays the Figure 9 (Table 1/2 operations) and Figure 13 (STAP
//! phase) DRAM request streams at a reduced footprint through both
//! memsim engines and prints burst throughput for the cycle-accurate
//! oracle and the event-driven epoch-skipping engine.
//!
//! The bin enforces its own floor: the **geometric mean** of the
//! per-stream cycle/fast wall ratios must stay at or above
//! [`MIN_FAST_OVER_CYCLE`], or it exits nonzero. The geomean weighs
//! every stream equally: a wall-time sum would let spmv's random scalar
//! gathers mask the win on every other stream. No analytic batching
//! skips a gather's row miss; the fast engine replays them only about
//! 2.5x faster than the oracle, through a one-step decode and a
//! straight lane past the streak to the shared slow path, against
//! 10-30x on the streaming workloads.
//! The rates are host wall time, so they are printed, never written to
//! the JSON summary, which carries only the stream count.
//!
//! Streams smaller than the footprint target are tiled (repeated at
//! disjoint address offsets) so short fig13 phases measure replay
//! throughput, not setup overhead. Every stream is first replayed in
//! `DualCheck` mode, so the numbers are only ever reported for a fast
//! engine that is bit-exact against the oracle on the exact traces
//! being timed.

use std::process::ExitCode;
use std::time::Instant;

use mealib_accel::trace_exec::generate_trace;
use mealib_accel::AcceleratorLayer;
use mealib_bench::{banner, section, HarnessOpts, JsonSummary};
use mealib_memsim::engine::{simulate, SimOptions};
use mealib_memsim::TraceBuffer;
use mealib_sim::TextTable;
use mealib_workloads::stap::{self, StapConfig};
use mealib_workloads::{datasets, sar};

/// Required geomean speedup of the fast engine over the cycle oracle.
const MIN_FAST_OVER_CYCLE: f64 = 5.0;

/// One replayed request stream.
struct Stream {
    name: String,
    trace: TraceBuffer,
}

/// Tiles `trace` out to at least `min_bytes` by repeating it at
/// disjoint address offsets, so tiny phase traces (fig13's cdotc is a
/// few dozen bursts) measure steady-state replay, not per-call setup.
fn tiled(trace: TraceBuffer, min_bytes: u64) -> TraceBuffer {
    let total = trace.total_bytes();
    if total == 0 || total >= min_bytes {
        return trace;
    }
    // Far enough apart that tiles never share a row with each other or
    // with the buffer-gap offsets the generators use.
    const TILE_STRIDE: u64 = 1 << 33;
    let reps = min_bytes.div_ceil(total);
    let mut out = TraceBuffer::with_capacity(trace.len() * reps as usize);
    for rep in 0..reps {
        let off = rep * TILE_STRIDE;
        for r in trace.iter() {
            out.push(mealib_memsim::Request {
                addr: mealib_types::PhysAddr::new(r.addr.get() + off),
                ..r
            });
        }
    }
    out
}

/// The fig09 operation streams plus the fig13 STAP phase streams, all
/// scaled to `max_bytes` per stream.
fn streams(max_bytes: u64) -> Vec<Stream> {
    let layer = AcceleratorLayer::mealib_default();
    let mut out = Vec::new();
    for row in datasets::table2() {
        let (trace, _) = generate_trace(&row.params, layer.hw(), max_bytes);
        out.push(Stream {
            name: format!("fig09:{}", row.params.kind().keyword().to_lowercase()),
            trace: tiled(trace, max_bytes / 2),
        });
    }
    let cfg = StapConfig::small();
    for phase in ["fftw (chain)", "cdotc", "saxpy"] {
        let params = stap::accel_phase_params(&cfg, phase);
        let (trace, _) = generate_trace(&params, layer.hw(), max_bytes);
        out.push(Stream {
            name: format!("fig13:{phase}"),
            trace: tiled(trace, max_bytes / 2),
        });
    }
    for (i, params) in sar::sar_stages(256).iter().enumerate() {
        let (trace, _) = generate_trace(params, layer.hw(), max_bytes);
        out.push(Stream {
            name: format!("sar:stage{i}"),
            trace: tiled(trace, max_bytes / 2),
        });
    }
    out
}

/// Bursts replayed by `run` (each burst is exactly one row hit or miss).
fn bursts(run: &mealib_memsim::EngineRun) -> u64 {
    run.vaults
        .iter()
        .map(|v| v.read_bursts + v.write_bursts)
        .sum()
}

/// Best-of-`reps` replay wall time in seconds, plus the burst count.
fn time_engine(
    cfg: &mealib_memsim::MemoryConfig,
    trace: &TraceBuffer,
    opts: &SimOptions,
    reps: u32,
) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut bursts_done = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let run = simulate(cfg, trace, opts).expect("preset config validates");
        best = best.min(t0.elapsed().as_secs_f64());
        bursts_done = bursts(&run);
    }
    (best, bursts_done)
}

fn main() -> ExitCode {
    let opts = HarnessOpts::from_env();
    banner(
        "engine throughput — event-driven fast engine vs cycle oracle",
        "epoch skipping batches bus-limited streaks; bit-exactness is re-checked before timing",
    );
    let max_bytes: u64 = if opts.small { 2 << 20 } else { 8 << 20 };
    let reps: u32 = if opts.small { 2 } else { 3 };
    let layer = AcceleratorLayer::mealib_default();
    let mem = layer.mem();

    let mut summary = JsonSummary::new("engine_throughput");
    section(&format!(
        "replays at {} MiB/stream, best of {reps}",
        max_bytes >> 20
    ));
    let mut t = TextTable::new(vec![
        "stream",
        "bursts",
        "cycle Mbursts/s",
        "fast Mbursts/s",
        "fast/cycle",
    ]);
    let mut cycle_wall = 0.0f64;
    let mut fast_wall = 0.0f64;
    let mut ln_ratio_sum = 0.0f64;
    let mut total_bursts = 0u64;
    let mut n_streams = 0u64;
    for s in streams(max_bytes) {
        n_streams += 1;
        // Bit-exactness first: the throughput numbers are meaningless
        // if the engines disagree on the very traces being timed.
        simulate(mem, &s.trace, &SimOptions::dual_check())
            .expect("fast engine must stay bit-exact with the cycle oracle");

        let (cw, n) = time_engine(mem, &s.trace, &SimOptions::cycle(), reps);
        let (fw, fn_) = time_engine(mem, &s.trace, &SimOptions::fast(), reps);
        assert_eq!(
            n, fn_,
            "{}: engines replayed different burst counts",
            s.name
        );
        cycle_wall += cw;
        fast_wall += fw;
        ln_ratio_sum += (cw / fw).ln();
        total_bursts += n;
        t.push_row(vec![
            s.name.clone(),
            n.to_string(),
            format!("{:.2}", n as f64 / cw / 1e6),
            format!("{:.2}", n as f64 / fw / 1e6),
            format!("{:.1}x", cw / fw),
        ]);
    }
    print!("{t}");

    let cycle_rate = total_bursts as f64 / cycle_wall;
    let fast_rate = total_bursts as f64 / fast_wall;
    // Geomean, not wall-sum: each stream votes equally, so spmv's
    // unbatchable scalar gathers (about 2x) cannot mask the win on the
    // streaming workloads.
    let ratio = (ln_ratio_sum / n_streams as f64).exp();
    println!();
    println!(
        "aggregate: {total_bursts} bursts; cycle {:.2} Mbursts/s, fast {:.2} Mbursts/s; geomean speedup {ratio:.1}x",
        cycle_rate / 1e6,
        fast_rate / 1e6
    );
    summary.metric("streams", n_streams as f64);
    summary.emit(&opts);

    if ratio < MIN_FAST_OVER_CYCLE {
        eprintln!(
            "engine_throughput: geomean fast/cycle speedup {ratio:.2}x is below the \
             required {MIN_FAST_OVER_CYCLE}x"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
