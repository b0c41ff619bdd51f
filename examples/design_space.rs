//! Architecting an accelerator under a power budget (§5.3): sweep the
//! FFT accelerator's design space and pick the Pareto-best point under a
//! given power constraint.
//!
//! Run with: `cargo run --example design_space`

use mealib_accel::design_space::{
    best_under_budget, fft_reference_workload, pareto_frontier, sweep, SweepGrid,
};
use mealib_memsim::MemoryConfig;
use mealib_tdl::AcceleratorKind;

fn main() {
    let grid = SweepGrid::default();
    let points = sweep(
        AcceleratorKind::Fft,
        &fft_reference_workload(),
        &grid,
        &MemoryConfig::hmc_stack(),
        0,
    );
    println!("explored {} FFT design points (Fig 11a axes)", points.len());

    println!("\nPareto frontier (performance per power):");
    for p in &pareto_frontier(&points) {
        println!(
            "  {:4.1} GHz, {:2} cores, block {:4}, row {:4}B -> {:7.1} GFLOPS @ {:5.1} W ({:.1} GFLOPS/W)",
            p.frequency.as_ghz(),
            p.cores,
            p.block_elems,
            p.row_bytes,
            p.gflops,
            p.power_w,
            p.gflops_per_watt()
        );
    }

    for budget in [15.0, 25.0, 40.0] {
        match best_under_budget(&points, budget) {
            Some(p) => println!(
                "\nbest under {budget:.0} W: {:.1} GFLOPS at {:.1} W ({:.1} GHz, {} cores)",
                p.gflops,
                p.power_w,
                p.frequency.as_ghz(),
                p.cores
            ),
            None => println!("\nno design fits under {budget:.0} W"),
        }
    }
}
