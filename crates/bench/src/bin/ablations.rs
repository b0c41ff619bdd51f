//! Ablation studies over the design choices DESIGN.md calls out:
//! local-memory capacity (FFT pass structure), DRAM row-buffer size,
//! DMA efficiency, the hardware-loop trigger, and the area budget.

use mealib_accel::power::fit_accelerators;
use mealib_accel::{AccelHwConfig, AccelModel, AccelParams};
use mealib_bench::{banner, section, write_profile, HarnessOpts, JsonSummary};
use mealib_memsim::{AddressMapping, MemoryConfig};
use mealib_obs::{Phase, Profile};
use mealib_sim::TextTable;
use mealib_tdl::AcceleratorKind;
use mealib_types::Seconds;

fn main() {
    let opts = HarnessOpts::from_env();
    banner(
        "Ablations — MEALib design-choice sensitivity",
        "each section removes or resizes one mechanism and reports the cost",
    );

    let mem = MemoryConfig::hmc_stack();
    let hw = AccelHwConfig::mealib_default();

    section("local-memory capacity: FFT single-pass vs two-pass crossover");
    let mut t = TextTable::new(vec!["LM per tile", "8192-pt FFT traffic", "time"]);
    let fft = AccelParams::Fft {
        n: 8192,
        batch: 8192,
    };
    for lm_kib in [16u64, 64, 256, 1024] {
        let hw_lm = AccelHwConfig {
            local_mem_bytes: lm_kib * 1024,
            ..hw.clone()
        };
        let r = AccelModel::new(AcceleratorKind::Fft).execute(&fft, &hw_lm, &mem);
        t.push_row(vec![
            format!("{lm_kib} KiB"),
            format!("{:.2} GiB", r.mem.bytes_moved().as_gib()),
            format!("{:.2} ms", r.time.as_millis()),
        ]);
    }
    print!("{t}");
    println!("(a transform that no longer fits the LM pays a second DRAM pass)");

    section("DRAM row-buffer size: streaming vs gather operations");
    let mut t = TextTable::new(vec!["row bytes", "GEMV time", "SPMV time"]);
    let gemv = AccelParams::Gemv { m: 16384, n: 16384 };
    let spmv = AccelParams::Spmv {
        rows: 1 << 20,
        cols: 1 << 20,
        nnz: 13 << 20,
    };
    for row in [1024u64, 2048, 4096, 8192] {
        let mut m = mem.clone();
        if let AddressMapping::Interleaved {
            ref mut row_bytes, ..
        } = m.mapping
        {
            *row_bytes = row;
        }
        let g = AccelModel::new(AcceleratorKind::Gemv).execute(&gemv, &hw, &m);
        let s = AccelModel::new(AcceleratorKind::Spmv).execute(&spmv, &hw, &m);
        t.push_row(vec![
            row.to_string(),
            format!("{:.2} ms", g.time.as_millis()),
            format!("{:.2} ms", s.time.as_millis()),
        ]);
    }
    print!("{t}");
    println!("(bigger rows help gathers hit open rows; streams barely notice)");

    section("DMA efficiency: what the per-kind derates cost");
    let mut t = TextTable::new(vec!["op", "modeled eff", "time", "time at 0.95"]);
    let mut profile = Profile::new();
    let mut cursor = Seconds::ZERO;
    for op in [
        AccelParams::Axpy {
            n: 256 << 20,
            alpha: 1.0,
            incx: 1,
            incy: 1,
        },
        AccelParams::Dot {
            n: 256 << 20,
            incx: 1,
            incy: 1,
            complex: false,
        },
        fft,
    ] {
        let model = AccelModel::new(op.kind());
        let real = model.execute(&op, &hw, &mem);
        let ideal = model.execute_scaled(&op, &hw, &mem, 10.0); // capped at 0.95
        cursor = profile.interval(
            "accel",
            Phase::Dma,
            &op.kind().to_string(),
            cursor,
            real.time,
        );
        t.push_row(vec![
            op.kind().to_string(),
            format!("{:.2}", model.bandwidth_efficiency()),
            format!("{:.2} ms", real.time.as_millis()),
            format!("{:.2} ms", ideal.time.as_millis()),
        ]);
    }
    print!("{t}");

    section("stack bandwidth: the gain's primary dependence (§5.3)");
    let mut t = TextTable::new(vec!["stack", "peak BW", "GEMV time", "FFT time"]);
    let fft_wl = AccelParams::Fft {
        n: 8192,
        batch: 8192,
    };
    let stacks = [
        MemoryConfig::hmc_stack_remote(),
        MemoryConfig::hmc_stack_gen1(),
        MemoryConfig::hmc_stack(),
    ];
    for m in &stacks {
        let g = AccelModel::new(AcceleratorKind::Gemv).execute(
            &AccelParams::Gemv { m: 16384, n: 16384 },
            &hw,
            m,
        );
        let f = AccelModel::new(AcceleratorKind::Fft).execute(&fft_wl, &hw, m);
        t.push_row(vec![
            m.name.clone(),
            format!("{:.0} GB/s", m.peak_bandwidth().as_gb_per_sec()),
            format!("{:.2} ms", g.time.as_millis()),
            format!("{:.2} ms", f.time.as_millis()),
        ]);
    }
    print!("{t}");

    section("area budget: how many libraries fit the layer");
    let mut summary = JsonSummary::new("ablations");
    let mut t = TextTable::new(vec!["budget", "accelerators", "which"]);
    for budget in [5.0, 10.0, 15.0, 25.0, 45.0, 68.0] {
        let (chosen, used) = fit_accelerators(budget);
        let names: Vec<String> = chosen.iter().map(|k| k.to_string()).collect();
        summary.metric(&format!("accels_at_{budget:.0}mm2"), chosen.len() as f64);
        t.push_row(vec![
            format!("{budget:.0} mm2"),
            format!("{} ({used:.1} mm2 used)", chosen.len()),
            names.join(" "),
        ]);
    }
    print!("{t}");
    println!(
        "(\"more domain-specific, memory-bounded libraries can be accelerated\n with more area budget\" — §5.2)"
    );
    // Modeled DMA-section execution times, back to back on one track.
    write_profile(&opts, &profile);
    summary.emit(&opts);
}
