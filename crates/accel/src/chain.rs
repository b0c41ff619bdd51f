//! Hardware accelerator chaining (§2.2, §5.4).
//!
//! A `PASS` with several `COMP`s configures the tile switches so data
//! streams from the first accelerator (which fetches from DRAM) through
//! the chain to the last (which stores back); intermediate results stay
//! in the tiles' Local Memories. Software chaining — separate passes per
//! accelerator — round-trips every intermediate through DRAM instead.

use mealib_memsim::{analytic, AccessPattern, MemoryConfig};
use mealib_types::{Joules, Seconds};

use crate::hw::AccelHwConfig;
use crate::model::{AccelModel, ExecReport, CONFIG_LATENCY};
use crate::params::AccelParams;
use crate::power::profile_at;

/// Prices a chained pass: the stages pipeline, only the first stage's
/// input and the last stage's output touch DRAM. Returns `None` when a
/// chained sum (the boundary bytes, or the stages' FLOPs) passes `u64`,
/// which stages that each pass [`AccelParams::validate`] can still do.
///
/// # Panics
///
/// Panics if `comps` is empty or any parameter set fails validation.
pub fn execute_chained(
    comps: &[AccelParams],
    hw: &AccelHwConfig,
    mem: &MemoryConfig,
) -> Option<ExecReport> {
    assert!(!comps.is_empty(), "a chained pass needs at least one stage");
    if comps.len() == 1 {
        return Some(AccelModel::new(comps[0].kind()).execute(&comps[0], hw, mem));
    }
    let stages: Vec<ExecReport> = comps
        .iter()
        .map(|p| AccelModel::new(p.kind()).execute(p, hw, mem))
        .collect();

    // Boundary DRAM traffic: the first stage's reads and the last
    // stage's writes.
    let first = &stages[0];
    let last = stages.last().expect("nonempty");
    let (read, written) = (first.mem.bytes_read.get(), last.mem.bytes_written.get());
    read.checked_add(written)?;
    let boundary = AccessPattern::sequential_rw(read, written);
    let mut mem_stats = analytic::try_estimate(mem, &boundary).expect("validated memory config");
    let eff = comps
        .iter()
        .map(|p| AccelModel::new(p.kind()).bandwidth_efficiency())
        .fold(1.0_f64, f64::min);
    mem_stats.elapsed = mem_stats.elapsed / eff;

    // The pipeline runs at the rate of its slowest stage; stages overlap.
    let slowest_compute = stages
        .iter()
        .map(|s| s.compute_time)
        .fold(Seconds::ZERO, Seconds::max);
    let busy = mem_stats.elapsed.max(slowest_compute);
    // One pipeline fill of the chain (one stage's latency per link).
    let fill = CONFIG_LATENCY * (comps.len() - 1) as f64;
    let time = busy + CONFIG_LATENCY + fill;

    let mem_energy =
        mem.energy
            .trace_energy(mem_stats.activations, mem_stats.bytes_moved().get(), busy);
    mem_stats.energy = mem_energy;

    // Every stage's datapath still processes the full stream, and all
    // FLOPs still execute — chaining saves DRAM traffic, not core work.
    let mut core_energy = Joules::ZERO;
    let mut flops = 0u64;
    for (p, s) in comps.iter().zip(&stages) {
        let prof = profile_at(p.kind(), hw.frequency);
        core_energy += prof.e_byte_datapath * s.mem.bytes_moved().get() as f64
            + prof.e_flop * s.flops as f64
            + prof.p_leakage.for_duration(time);
        flops = flops.checked_add(s.flops)?;
    }

    Some(ExecReport {
        kind: last.kind,
        time,
        mem_time: mem_stats.elapsed,
        compute_time: slowest_compute,
        energy: mem_energy + core_energy,
        mem_energy,
        flops,
        mem: mem_stats,
    })
}

/// Prices the same comps as *separate* passes (software chaining): each
/// stage round-trips through DRAM, and each stage pays `per_pass_overhead`
/// (descriptor handling, cache flushing — supplied by the runtime layer).
///
/// # Panics
///
/// Panics if `comps` is empty.
pub fn execute_unchained(
    comps: &[AccelParams],
    hw: &AccelHwConfig,
    mem: &MemoryConfig,
    per_pass_overhead: Seconds,
) -> ExecReport {
    assert!(
        !comps.is_empty(),
        "a pass sequence needs at least one stage"
    );
    let mut total: Option<ExecReport> = None;
    for p in comps {
        let mut stage = AccelModel::new(p.kind()).execute(p, hw, mem);
        stage.time += per_pass_overhead;
        total = Some(match total {
            None => stage,
            Some(acc) => acc.then(&stage),
        });
    }
    total.expect("nonempty")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sar_stages(pixels: u64) -> Vec<AccelParams> {
        vec![
            AccelParams::Resmp {
                blocks: pixels.isqrt(),
                in_per_block: pixels.isqrt(),
                out_per_block: pixels.isqrt(),
            },
            AccelParams::Fft {
                n: pixels.isqrt().next_power_of_two(),
                batch: pixels.isqrt(),
            },
        ]
    }

    fn ctx() -> (AccelHwConfig, MemoryConfig) {
        (AccelHwConfig::mealib_default(), MemoryConfig::hmc_stack())
    }

    #[test]
    fn chaining_beats_software_chaining() {
        let (hw, mem) = ctx();
        let stages = sar_stages(256 * 256);
        let hw_chain = execute_chained(&stages, &hw, &mem).unwrap();
        let sw_chain = execute_unchained(&stages, &hw, &mem, Seconds::from_micros(20.0));
        assert!(
            sw_chain.time.get() > 1.5 * hw_chain.time.get(),
            "sw {} vs hw {}",
            sw_chain.time,
            hw_chain.time
        );
    }

    #[test]
    fn chaining_gain_shrinks_with_problem_size() {
        let (hw, mem) = ctx();
        let gain = |pixels: u64| {
            let stages = sar_stages(pixels);
            let h = execute_chained(&stages, &hw, &mem).unwrap();
            let s = execute_unchained(&stages, &hw, &mem, Seconds::from_micros(20.0));
            s.time / h.time
        };
        let small = gain(256 * 256);
        let large = gain(8192 * 8192);
        assert!(
            small > large,
            "Fig 12a shape: gain must shrink with size ({small:.2} vs {large:.2})"
        );
        assert!(large >= 1.0, "chaining never loses");
    }

    #[test]
    fn chained_moves_less_dram_traffic() {
        let (hw, mem) = ctx();
        let stages = sar_stages(1024 * 1024);
        let h = execute_chained(&stages, &hw, &mem).unwrap();
        let s = execute_unchained(&stages, &hw, &mem, Seconds::ZERO);
        assert!(h.mem.bytes_moved() < s.mem.bytes_moved());
    }

    #[test]
    fn chained_keeps_all_flops() {
        let (hw, mem) = ctx();
        let stages = sar_stages(512 * 512);
        let h = execute_chained(&stages, &hw, &mem).unwrap();
        let s = execute_unchained(&stages, &hw, &mem, Seconds::ZERO);
        assert_eq!(h.flops, s.flops, "chaining must not drop work");
    }

    #[test]
    fn single_stage_chain_is_plain_execution() {
        let (hw, mem) = ctx();
        let p = AccelParams::Fft { n: 4096, batch: 64 };
        let chained = execute_chained(std::slice::from_ref(&p), &hw, &mem).unwrap();
        let plain = AccelModel::new(p.kind()).execute(&p, &hw, &mem);
        assert_eq!(chained, plain);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_chain_panics() {
        let (hw, mem) = ctx();
        let _ = execute_chained(&[], &hw, &mem);
    }
}
