//! The Configuration Unit (Figure 5): fetch, decode, and sequencing of
//! accelerator descriptors.
//!
//! The CU's Fetch Unit copies the descriptor from the command space into
//! its Instruction Memory; the Decode Unit walks the Instruction Region
//! pass by pass, configures the tile switches over the NoC, triggers the
//! accelerator-initialization parameter fetch, and monitors pass
//! completion. A `LOOP` block re-runs its passes without re-fetching or
//! re-decoding — the hardware-loop advantage of §5.4.

use core::fmt;

use mealib_memsim::{analytic, AccessPattern};
use mealib_tdl::descriptor::{DecodedInstr, Descriptor, DescriptorError};
use mealib_types::{Hertz, Joules, Seconds};

use crate::chain::execute_chained;
use crate::layer::AcceleratorLayer;
use crate::model::{AccelModel, ExecReport, CONFIG_LATENCY};
use crate::params::{AccelParams, ParamsError};
use crate::power::profile_at;

/// Per-iteration trigger latency of a hardware `LOOP`: the switches are
/// already configured, the Decode Unit only re-fires the pass.
pub const LOOP_ITER_LATENCY: Seconds = Seconds::new(50e-9);

/// Cost parameters of the CU front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct CuCostModel {
    /// Decode-unit cycles per IR instruction.
    pub decode_cycles_per_instr: u64,
    /// CU clock.
    pub clock: Hertz,
    /// Configuration bytes broadcast to each tile per pass.
    pub config_bytes_per_tile: u64,
}

impl Default for CuCostModel {
    fn default() -> Self {
        Self {
            decode_cycles_per_instr: 8,
            clock: Hertz::from_ghz(1.0),
            config_bytes_per_tile: 64,
        }
    }
}

/// Errors from running a descriptor.
#[derive(Debug, Clone, PartialEq)]
pub enum CuError {
    /// The descriptor image failed to decode.
    Descriptor(DescriptorError),
    /// A parameter blob failed to parse.
    Params(ParamsError),
    /// An accelerator instruction's opcode disagreed with its parameter
    /// blob's tag.
    KindMismatch,
    /// The loop-expanded invocation or hardware-loop iteration total
    /// does not fit in `u64`.
    InvocationOverflow,
    /// A chained or loop-expanded cycle, byte, command or FLOP count of
    /// the run does not fit in `u64`.
    ExecutionOverflow,
}

impl fmt::Display for CuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CuError::Descriptor(e) => write!(f, "descriptor error: {e}"),
            CuError::Params(e) => write!(f, "parameter error: {e}"),
            CuError::KindMismatch => f.write_str("instruction opcode disagrees with parameters"),
            CuError::InvocationOverflow => {
                f.write_str("loop-expanded invocation count overflows u64")
            }
            CuError::ExecutionOverflow => {
                f.write_str("chained or loop-expanded traffic, cycle or FLOP count overflows u64")
            }
        }
    }
}

impl std::error::Error for CuError {}

impl From<DescriptorError> for CuError {
    fn from(e: DescriptorError) -> Self {
        CuError::Descriptor(e)
    }
}

impl From<ParamsError> for CuError {
    fn from(e: ParamsError) -> Self {
        CuError::Params(e)
    }
}

/// One executed (static) pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PassRun {
    /// Parameters of each chained stage.
    pub stages: Vec<AccelParams>,
    /// The modeled execution of one iteration of this pass.
    pub report: ExecReport,
    /// Loop multiplier applied to this pass (1 outside loops).
    pub iterations: u64,
    /// `report` repeated `iterations` times: the whole pass, loop
    /// expanded.
    pub expanded: ExecReport,
}

/// Itemized CU front-end work: the same total as
/// [`DescriptorRun::setup_time`] / `setup_energy`, split by phase for
/// attribution (descriptor fetch, instruction decode, configuration
/// broadcast, completion gather) plus the event counts the
/// observability layer reports.
#[derive(Debug, Clone, PartialEq)]
pub struct CuFrontEnd {
    /// Time streaming the descriptor image out of DRAM.
    pub fetch_time: Seconds,
    /// Energy of the descriptor fetch.
    pub fetch_energy: Joules,
    /// Descriptor image size fetched.
    pub fetch_bytes: u64,
    /// Decode Unit time over the Instruction Region.
    pub decode_time: Seconds,
    /// Instructions decoded.
    pub decoded_instrs: u64,
    /// Switch-configuration broadcast time (plus the one-time loop
    /// configuration charge).
    pub config_time: Seconds,
    /// Energy of the configuration broadcasts.
    pub config_energy: Joules,
    /// Pass-completion gather time.
    pub drain_time: Seconds,
    /// Energy of the completion gathers.
    pub drain_energy: Joules,
    /// NoC flits injected by broadcasts and gathers.
    pub noc_flits: u64,
    /// NoC flit-hops traversed by broadcasts and gathers.
    pub noc_flit_hops: u64,
    /// Hardware-loop iterations re-triggered without host involvement
    /// (iterations of looped passes).
    pub loop_iterations: u64,
}

impl Default for CuFrontEnd {
    fn default() -> Self {
        Self {
            fetch_time: Seconds::ZERO,
            fetch_energy: Joules::ZERO,
            fetch_bytes: 0,
            decode_time: Seconds::ZERO,
            decoded_instrs: 0,
            config_time: Seconds::ZERO,
            config_energy: Joules::ZERO,
            drain_time: Seconds::ZERO,
            drain_energy: Joules::ZERO,
            noc_flits: 0,
            noc_flit_hops: 0,
            loop_iterations: 0,
        }
    }
}

/// The result of running one descriptor through the CU.
#[derive(Debug, Clone, PartialEq)]
pub struct DescriptorRun {
    /// One-time front-end cost: descriptor fetch + decode + per-pass
    /// configuration broadcasts.
    pub setup_time: Seconds,
    /// Energy of the front-end work.
    pub setup_energy: Joules,
    /// The front-end cost itemized by phase (sums to `setup_time` /
    /// `setup_energy`).
    pub front_end: CuFrontEnd,
    /// Static passes with their per-iteration reports and multipliers.
    pub passes: Vec<PassRun>,
    invocations: u64,
    execution: Option<ExecReport>,
}

impl DescriptorRun {
    /// Aggregate accelerator execution (loops expanded), excluding setup;
    /// `None` when the descriptor has no passes.
    pub fn execution(&self) -> Option<&ExecReport> {
        self.execution.as_ref()
    }

    /// Total time including the front-end.
    pub fn total_time(&self) -> Seconds {
        self.setup_time + self.execution().map_or(Seconds::ZERO, |e| e.time)
    }

    /// Total energy including the front-end.
    pub fn total_energy(&self) -> Joules {
        self.setup_energy + self.execution().map_or(Joules::ZERO, |e| e.energy)
    }

    /// Dynamic accelerator invocations this run performed.
    pub fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Partitions this run's total time and energy by phase: the CU
    /// front-end splits into `plan` (decode), `dma` (fetch + config)
    /// and `drain` (completion gather); each pass splits its modeled
    /// interval into `compute` (PE arithmetic) and `dma` (memory
    /// streaming + per-pass trigger overhead). The phase sums equal
    /// [`DescriptorRun::total_time`] / `total_energy` exactly, which is
    /// what lets the observability layer reconcile traces against
    /// report totals.
    pub fn breakdown(&self) -> mealib_obs::Breakdown {
        use mealib_obs::Phase;
        let fe = &self.front_end;
        let mut bd = mealib_obs::Breakdown::new();
        bd.add_phase(Phase::Plan, fe.decode_time, Joules::ZERO);
        bd.add_phase(
            Phase::Dma,
            fe.fetch_time + fe.config_time,
            fe.fetch_energy + fe.config_energy,
        );
        bd.add_phase(Phase::Drain, fe.drain_time, fe.drain_energy);
        for p in &self.passes {
            let r = &p.expanded;
            bd.add_phase(Phase::Compute, r.compute_time, r.energy - r.mem_energy);
            bd.add_phase(Phase::Dma, r.time - r.compute_time, r.mem_energy);
        }
        bd
    }

    /// Lays this run out as phase intervals in modeled time on `track`,
    /// starting at `origin`: descriptor fetch, decode, configuration
    /// broadcast, one memory-streaming + compute interval pair per pass
    /// (loops expanded), then the completion gather. Intervals are
    /// sequential and their durations use exactly the same accounting as
    /// [`DescriptorRun::breakdown`], so the per-phase interval sums equal
    /// the breakdown's phase totals and the final interval ends at
    /// `origin + total_time()`.
    pub fn intervals(
        &self,
        track: &str,
        origin: Seconds,
    ) -> Vec<mealib_obs::profile::IntervalEvent> {
        use mealib_obs::Phase;
        let fe = &self.front_end;
        let mut profile = mealib_obs::Profile::new();
        let mut cursor = origin;
        cursor = profile.interval(track, Phase::Dma, "descriptor fetch", cursor, fe.fetch_time);
        cursor = profile.interval(track, Phase::Plan, "decode", cursor, fe.decode_time);
        cursor = profile.interval(
            track,
            Phase::Dma,
            "config broadcast",
            cursor,
            fe.config_time,
        );
        for (i, p) in self.passes.iter().enumerate() {
            let r = &p.expanded;
            let label = format!("pass{i} {}", p.report.kind.keyword());
            cursor = profile.interval(
                track,
                Phase::Dma,
                &format!("{label} stream"),
                cursor,
                r.time - r.compute_time,
            );
            cursor = profile.interval(track, Phase::Compute, &label, cursor, r.compute_time);
        }
        profile.interval(
            track,
            Phase::Drain,
            "completion gather",
            cursor,
            fe.drain_time,
        );
        profile.intervals
    }

    /// Adds this run's CU, NoC and DRAM event counters to `bd`.
    pub fn add_counters(&self, bd: &mut mealib_obs::Breakdown) {
        use mealib_obs::{Counter, CounterKey};
        let fe = &self.front_end;
        for (counter, value) in [
            (Counter::CuFetchBytes, fe.fetch_bytes),
            (Counter::CuDecodedInstrs, fe.decoded_instrs),
            (Counter::CuPasses, self.invocations()),
            (Counter::CuLoopIters, fe.loop_iterations),
            (Counter::NocFlits, fe.noc_flits),
            (Counter::NocFlitHops, fe.noc_flit_hops),
            (Counter::NocCredits, fe.noc_flit_hops),
        ] {
            bd.add_count(CounterKey::total(counter), value);
        }
        if let Some(exec) = &self.execution {
            exec.mem.add_counters(bd);
        }
    }
}

/// Runs a descriptor on the layer, returning the modeled costs.
///
/// # Errors
///
/// Returns a [`CuError`] if the descriptor or its parameter blobs are
/// malformed, or if a chained or loop-expanded count (invocations, or
/// the traffic, cycles and FLOPs of a pass or of the whole run)
/// overflows `u64`.
pub fn run_descriptor(
    desc: &Descriptor,
    layer: &AcceleratorLayer,
    cost: &CuCostModel,
) -> Result<DescriptorRun, CuError> {
    let instrs = desc.decode()?;

    // Front-end: fetch the descriptor image from DRAM, decode every
    // instruction once.
    let fetch = analytic::try_estimate(
        layer.mem(),
        &AccessPattern::sequential_read(desc.size_bytes() as u64),
    )
    .expect("validated memory config");
    let decode_time =
        Seconds::new(instrs.len() as f64 * cost.decode_cycles_per_instr as f64 / cost.clock.get());
    let mut setup_time = fetch.elapsed + decode_time;
    let mut setup_energy = fetch.energy;
    let mut front_end = CuFrontEnd {
        fetch_time: fetch.elapsed,
        fetch_energy: fetch.energy,
        fetch_bytes: desc.size_bytes() as u64,
        decode_time,
        decoded_instrs: instrs.len() as u64,
        ..CuFrontEnd::default()
    };

    let mut passes: Vec<PassRun> = Vec::new();
    let mut pending: Vec<AccelParams> = Vec::new();
    let mut multiplier = 1u64;
    let mut invocations = 0u64;
    let mut execution: Option<ExecReport> = None;
    for instr in &instrs {
        match instr {
            DecodedInstr::LoopBegin { count } => multiplier = *count,
            DecodedInstr::LoopEnd => multiplier = 1,
            DecodedInstr::PassBegin { .. } => pending.clear(),
            DecodedInstr::Accel {
                kind,
                param_size,
                param_addr,
            } => {
                let blob = desc.param_blob(*param_addr, *param_size);
                let params = AccelParams::from_bytes(blob)?;
                if params.kind() != *kind {
                    return Err(CuError::KindMismatch);
                }
                pending.push(params);
            }
            DecodedInstr::PassEnd { .. } => {
                let stages = std::mem::take(&mut pending);
                invocations = (stages.len() as u64)
                    .checked_mul(multiplier)
                    .and_then(|n| invocations.checked_add(n))
                    .ok_or(CuError::InvocationOverflow)?;
                // Per-pass switch configuration broadcast (paid once even
                // for looped passes — that is the hardware-loop win), plus
                // the Decode Unit's completion gather at pass end.
                let bcast = layer.config_broadcast(cost.config_bytes_per_tile);
                let gather = layer.mesh().gather(mealib_noc::TileId::new(0, 0), 16);
                setup_time += bcast.elapsed + gather.elapsed;
                setup_energy += bcast.energy + gather.energy;
                front_end.config_time += bcast.elapsed;
                front_end.config_energy += bcast.energy;
                front_end.drain_time += gather.elapsed;
                front_end.drain_energy += gather.energy;
                front_end.noc_flits += bcast.flits + gather.flits;
                front_end.noc_flit_hops += bcast.flit_hops + gather.flit_hops;
                let mut report = execute_chained(&stages, layer.hw(), layer.mem())
                    .ok_or(CuError::ExecutionOverflow)?;
                if multiplier > 1 {
                    front_end.loop_iterations = front_end
                        .loop_iterations
                        .checked_add(multiplier)
                        .ok_or(CuError::InvocationOverflow)?;
                    // Looped passes pay CONFIG_LATENCY once (in setup).
                    // Iterations then *pipeline*: the Decode Unit keeps
                    // the next iteration's fetch in flight while the
                    // current one drains, so memory streams across
                    // iterations instead of paying the DRAM latency each
                    // time, and per-iteration triggers overlap across
                    // tiles when the working set fits a Local Memory.
                    setup_time += CONFIG_LATENCY;
                    front_end.config_time += CONFIG_LATENCY;
                    let eff = stages
                        .iter()
                        .map(|p| AccelModel::new(p.kind()).bandwidth_efficiency())
                        .fold(1.0_f64, f64::min);
                    let stream_bw = layer.mem().peak_bandwidth().get() * eff;
                    let stream_mem =
                        Seconds::new(report.mem.bytes_moved().get() as f64 / stream_bw);
                    let trigger = if report.mem.bytes_moved().get() <= layer.hw().local_mem_bytes {
                        LOOP_ITER_LATENCY / layer.tiles().len() as f64
                    } else {
                        LOOP_ITER_LATENCY
                    };
                    report.mem_time = stream_mem;
                    report.time = stream_mem.max(report.compute_time).max(trigger);
                    // Re-price the per-iteration energy over the
                    // pipelined interval: work terms (activations,
                    // bytes, FLOPs) are unchanged, but background power
                    // and leakage accrue over the streamed time, not the
                    // standalone latency.
                    let bytes = report.mem.bytes_moved().get();
                    let mem_energy =
                        layer
                            .mem()
                            .energy
                            .trace_energy(report.mem.activations, bytes, report.time);
                    let mut core = mealib_types::Joules::ZERO;
                    for p in &stages {
                        let prof = profile_at(p.kind(), layer.hw().frequency);
                        core += prof.e_byte_datapath * bytes as f64
                            + prof.e_flop * report.flops as f64
                            + prof.p_leakage.for_duration(report.time);
                    }
                    report.mem.energy = mem_energy;
                    report.mem_energy = mem_energy;
                    report.energy = mem_energy + core;
                }
                let expanded = report
                    .checked_repeat(multiplier)
                    .ok_or(CuError::ExecutionOverflow)?;
                execution = Some(match execution {
                    None => expanded.clone(),
                    Some(acc) => acc
                        .checked_then(&expanded)
                        .ok_or(CuError::ExecutionOverflow)?,
                });
                passes.push(PassRun {
                    stages,
                    report,
                    iterations: multiplier,
                    expanded,
                });
            }
        }
    }

    Ok(DescriptorRun {
        setup_time,
        setup_energy,
        front_end,
        passes,
        invocations,
        execution,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_tdl::{parse, ParamBag};
    use std::collections::BTreeMap;

    fn make_descriptor(loop_count: u64) -> Descriptor {
        let src = format!(
            r#"
            LOOP {loop_count} {{
                PASS in=x out=y {{
                    COMP FFT params="fft.para"
                }}
            }}
            "#
        );
        let program = parse(&src).unwrap();
        let mut params = ParamBag::new();
        params.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 256, batch: 256 }.to_bytes(),
        );
        let buffers: BTreeMap<String, u64> =
            [("x".to_string(), 0x1000u64), ("y".to_string(), 0x100000)]
                .into_iter()
                .collect();
        Descriptor::encode(&program, &params, &buffers).unwrap()
    }

    #[test]
    fn hardware_loop_pays_setup_once() {
        let layer = AcceleratorLayer::mealib_default();
        let cost = CuCostModel::default();
        let once = run_descriptor(&make_descriptor(1), &layer, &cost).unwrap();
        let many = run_descriptor(&make_descriptor(128), &layer, &cost).unwrap();
        assert_eq!(many.invocations(), 128);
        assert_eq!(once.invocations(), 1);
        // Setup differs only by the one-time configuration charge.
        assert!(
            (many.setup_time.get() - once.setup_time.get()).abs() < 1e-6,
            "setup {} vs {}",
            many.setup_time,
            once.setup_time
        );
        // Execution scales with the count but is cheaper than 128 naive
        // repetitions: configuration amortizes and iterations pipeline.
        let exec_ratio = many.execution().unwrap().time / once.execution().unwrap().time;
        assert!((30.0..128.5).contains(&exec_ratio), "ratio {exec_ratio}");
    }

    #[test]
    fn intervals_reconcile_with_breakdown_and_totals() {
        use mealib_obs::Phase;
        let layer = AcceleratorLayer::mealib_default();
        let cost = CuCostModel::default();
        let run = run_descriptor(&make_descriptor(8), &layer, &cost).unwrap();
        let origin = Seconds::from_micros(5.0);
        let ivs = run.intervals("cu", origin);
        assert!(!ivs.is_empty());
        // Sequential layout: each interval starts where the previous one
        // ended, the first at `origin`.
        let mut cursor = origin;
        for iv in &ivs {
            assert!(
                (iv.start.get() - cursor.get()).abs() < 1e-15,
                "{}",
                iv.label
            );
            cursor = iv.end;
        }
        // The end of the last interval is origin + total_time.
        let end = ivs.last().unwrap().end.get();
        assert!((end - (origin + run.total_time()).get()).abs() < 1e-12);
        // Per-phase interval sums equal the breakdown's phase totals.
        let bd = run.breakdown();
        for phase in [Phase::Plan, Phase::Dma, Phase::Compute, Phase::Drain] {
            let sum: f64 = ivs
                .iter()
                .filter(|iv| iv.phase == phase)
                .map(|iv| iv.duration().get())
                .sum();
            assert!(
                (sum - bd.phase(phase).time.get()).abs() < 1e-12,
                "{phase}: {sum} vs {}",
                bd.phase(phase).time
            );
        }
        // And they export as a valid Perfetto trace.
        let mut profile = mealib_obs::Profile::new();
        profile.intervals = ivs;
        mealib_obs::validate_chrome_trace(&profile.to_chrome_trace()).expect("valid trace");
    }

    #[test]
    fn chained_pass_prices_as_chain() {
        let src = r#"
            PASS in=a out=b {
                COMP RESMP params="r.para"
                COMP FFT params="f.para"
            }
        "#;
        let program = parse(src).unwrap();
        let mut bag = ParamBag::new();
        let resmp = AccelParams::Resmp {
            blocks: 256,
            in_per_block: 256,
            out_per_block: 256,
        };
        let fft = AccelParams::Fft { n: 256, batch: 256 };
        bag.insert("r.para".into(), resmp.to_bytes());
        bag.insert("f.para".into(), fft.to_bytes());
        let buffers: BTreeMap<String, u64> = [("a".to_string(), 0u64), ("b".to_string(), 1 << 20)]
            .into_iter()
            .collect();
        let desc = Descriptor::encode(&program, &bag, &buffers).unwrap();
        let layer = AcceleratorLayer::mealib_default();
        let run = run_descriptor(&desc, &layer, &CuCostModel::default()).unwrap();
        assert_eq!(run.passes.len(), 1);
        assert_eq!(run.passes[0].stages, vec![resmp, fft]);
        let direct = execute_chained(&[resmp, fft], layer.hw(), layer.mem()).unwrap();
        assert_eq!(run.passes[0].report, direct);
    }

    #[test]
    fn corrupt_param_blob_is_an_error() {
        let desc = make_descriptor(1);
        let mut bytes = desc.as_bytes().to_vec();
        // Trash the parameter blob's tag: locate the PR offset from the CR.
        let pr_off = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        bytes[pr_off] = 0x7f; // invalid tag
        let corrupted = Descriptor::decode_bytes(&bytes).map(|_| ());
        assert!(corrupted.is_ok(), "IR still decodes");
        // Re-wrap: Descriptor has no public from-bytes constructor, so
        // exercise the error through AccelParams directly.
        assert!(matches!(
            AccelParams::from_bytes(&bytes[pr_off..]),
            Err(ParamsError::BadTag(0x7f))
        ));
    }

    #[test]
    fn total_time_includes_setup_and_execution() {
        let layer = AcceleratorLayer::mealib_default();
        let run = run_descriptor(&make_descriptor(4), &layer, &CuCostModel::default()).unwrap();
        let exec = run.execution().unwrap();
        assert!(run.total_time() > exec.time);
        assert!(run.total_energy() > exec.energy);
        assert!(run.setup_time.get() > 0.0);
    }

    #[test]
    fn front_end_itemization_sums_to_setup() {
        let layer = AcceleratorLayer::mealib_default();
        for loops in [1, 128] {
            let run =
                run_descriptor(&make_descriptor(loops), &layer, &CuCostModel::default()).unwrap();
            let fe = &run.front_end;
            let t = fe.fetch_time + fe.decode_time + fe.config_time + fe.drain_time;
            let e = fe.fetch_energy + fe.config_energy + fe.drain_energy;
            assert!(
                (t.get() - run.setup_time.get()).abs() <= 1e-12 * run.setup_time.get().max(1.0),
                "time {} vs setup {}",
                t,
                run.setup_time
            );
            assert!(
                (e.get() - run.setup_energy.get()).abs() <= 1e-12 * run.setup_energy.get().max(1.0),
                "energy {} vs setup {}",
                e,
                run.setup_energy
            );
            assert!(fe.fetch_bytes > 0);
            assert!(fe.decoded_instrs > 0);
            assert!(fe.noc_flits > 0);
        }
    }

    #[test]
    fn breakdown_reconciles_with_totals() {
        let layer = AcceleratorLayer::mealib_default();
        let run = run_descriptor(&make_descriptor(128), &layer, &CuCostModel::default()).unwrap();
        let bd = run.breakdown();
        let dt = (bd.total_time().get() - run.total_time().get()).abs();
        let de = (bd.total_energy().get() - run.total_energy().get()).abs();
        assert!(
            dt <= 1e-9 * run.total_time().get(),
            "breakdown time {} vs total {}",
            bd.total_time(),
            run.total_time()
        );
        assert!(
            de <= 1e-9 * run.total_energy().get(),
            "breakdown energy {} vs total {}",
            bd.total_energy(),
            run.total_energy()
        );
        assert_eq!(run.front_end.loop_iterations, 128);
    }

    #[test]
    fn descriptor_run_records_counters() {
        use mealib_obs::{Breakdown, Counter};
        let layer = AcceleratorLayer::mealib_default();
        let run = run_descriptor(&make_descriptor(4), &layer, &CuCostModel::default()).unwrap();
        let mut bd = Breakdown::new();
        run.add_counters(&mut bd);
        assert_eq!(bd.counter(Counter::CuPasses), 4);
        assert_eq!(bd.counter(Counter::CuLoopIters), 4);
        assert_eq!(
            bd.counter(Counter::CuDecodedInstrs),
            run.front_end.decoded_instrs
        );
        assert!(bd.counter(Counter::DramAct) > 0);
    }

    #[test]
    fn invocation_count_that_wraps_is_refused() {
        let axpy = AccelParams::Axpy {
            n: 1024,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        };
        let mut params = ParamBag::new();
        params.insert("a.para".into(), axpy.to_bytes());
        let buffers: BTreeMap<String, u64> =
            [("x".to_string(), 0x1000u64), ("y".to_string(), 0x100000)]
                .into_iter()
                .collect();
        let layer = AcceleratorLayer::mealib_default();
        let run = |count: u64| {
            let src = format!(
                "LOOP {count} {{ PASS in=x out=y {{ COMP AXPY params=\"a.para\" \
                 COMP AXPY params=\"a.para\" }} }}"
            );
            let desc = Descriptor::encode(&parse(&src).unwrap(), &params, &buffers).unwrap();
            run_descriptor(&desc, &layer, &CuCostModel::default())
        };
        // 2^63 iterations of a two-stage pass are 2^64 invocations.
        assert!(matches!(run(1 << 63), Err(CuError::InvocationOverflow)));
        // 2^62 iterations fit the invocation count (2^63), but their
        // bytes, cycles and FLOPs do not.
        for count in [1 << 62, (1 << 63) - 1] {
            assert!(
                matches!(run(count), Err(CuError::ExecutionOverflow)),
                "{count}"
            );
        }
        let fits = run(1 << 20).unwrap();
        assert_eq!(fits.invocations(), 1 << 21);
        assert_eq!(
            fits.execution().unwrap().flops,
            fits.passes[0].report.flops << 20
        );
    }

    #[test]
    fn sizes_at_the_overflow_edge_run_or_are_refused() {
        // One growing size per kind (plus strided AXPY/DOT): find the
        // largest value `validate` accepts, then run it and the next
        // value through the CU, and the largest as a two-stage chain.
        // None may panic; past the edge the CU refuses the blob before
        // running anything.
        type Family = (&'static str, fn(u64) -> AccelParams);
        let families: [Family; 10] = [
            ("axpy", |n| AccelParams::Axpy {
                n,
                alpha: 2.0,
                incx: 1,
                incy: 1,
            }),
            ("strided axpy", |n| AccelParams::Axpy {
                n,
                alpha: 2.0,
                incx: 3,
                incy: 1 << 20,
            }),
            ("dot", |n| AccelParams::Dot {
                n,
                incx: 1,
                incy: 1,
                complex: true,
            }),
            ("strided dot", |n| AccelParams::Dot {
                n,
                incx: 2,
                incy: 7,
                complex: false,
            }),
            ("gemv", |m| AccelParams::Gemv { m, n: 1 << 20 }),
            ("spmv", |nnz| AccelParams::Spmv {
                rows: 1 << 32,
                cols: 1 << 32,
                nnz,
            }),
            ("wide spmv", |nnz| AccelParams::Spmv {
                rows: 4,
                cols: 1 << 61,
                nnz,
            }),
            ("resmp", |blocks| AccelParams::Resmp {
                blocks,
                in_per_block: 1024,
                out_per_block: 4096,
            }),
            ("fft", |batch| AccelParams::Fft { n: 1 << 20, batch }),
            ("reshp", |rows| AccelParams::Reshp {
                rows,
                cols: 1 << 16,
                elem_bytes: 8,
            }),
        ];
        let layer = AcceleratorLayer::mealib_default();
        let buffers: BTreeMap<String, u64> = [("x".to_string(), 0u64), ("y".to_string(), 1 << 20)]
            .into_iter()
            .collect();
        // One pass of `stages` copies of `params`.
        let run = |params: &AccelParams, stages: usize| {
            let comp = format!("COMP {} params=\"p.para\" ", params.kind().keyword());
            let src = format!("PASS in=x out=y {{ {}}}", comp.repeat(stages));
            let mut bag = ParamBag::new();
            bag.insert("p.para".into(), params.to_bytes());
            let desc = Descriptor::encode(&parse(&src).unwrap(), &bag, &buffers).unwrap();
            run_descriptor(&desc, &layer, &CuCostModel::default())
        };
        for (name, family) in families {
            let (mut ok, mut refused) = (1u64, u64::MAX);
            assert!(family(ok).validate().is_ok() && family(refused).validate().is_err());
            while refused - ok > 1 {
                let mid = ok + (refused - ok) / 2;
                if family(mid).validate().is_ok() {
                    ok = mid;
                } else {
                    refused = mid;
                }
            }
            for size in [ok, refused] {
                let params = family(size);
                assert_eq!(
                    AccelParams::from_bytes(&params.to_bytes()).is_ok(),
                    size == ok,
                    "{name}"
                );
                let single = run(&params, 1);
                if size == refused {
                    assert!(matches!(single, Err(CuError::Params(_))), "{name} {size}");
                }
            }
            // Two accepted stages chained: their summed FLOPs or boundary
            // bytes may pass u64, which the CU refuses without panicking.
            // Two FFTs at the edge do.
            let chained = run(&family(ok), 2);
            assert!(
                chained.is_ok() || matches!(chained, Err(CuError::ExecutionOverflow)),
                "{name} chained"
            );
            if name == "fft" {
                assert!(matches!(chained, Err(CuError::ExecutionOverflow)));
            }
        }
    }

    #[test]
    fn empty_descriptor_runs_with_no_passes() {
        let program = parse("").unwrap();
        let desc = Descriptor::encode(&program, &ParamBag::new(), &BTreeMap::new()).unwrap();
        let layer = AcceleratorLayer::mealib_default();
        let run = run_descriptor(&desc, &layer, &CuCostModel::default()).unwrap();
        assert!(run.passes.is_empty());
        assert!(run.execution().is_none());
        assert_eq!(run.invocations(), 0);
        assert_eq!(run.total_time(), run.setup_time);
    }
}
