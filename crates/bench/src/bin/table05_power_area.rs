//! Table 5: estimated power and area (32 nm) for the components of the
//! accelerator layer.
//!
//! Power is *computed* by running each accelerator on its Table 2
//! dataset (per the paper, the per-accelerator figure includes the 3D
//! DRAM power); area comes from the synthesis-profile constants.

use mealib_accel::power::{
    profile, total_layer_area, LAYER_AREA_BUDGET_MM2, NOC_AREA_MM2, TSV_AREA_MM2,
};
use mealib_accel::AcceleratorLayer;
use mealib_bench::{banner, section, write_profile, HarnessOpts, JsonSummary};
use mealib_noc::{Mesh, Packet, TileId};
use mealib_obs::{Phase, Profile};
use mealib_sim::TextTable;
use mealib_types::Seconds;
use mealib_workloads::datasets;

fn main() {
    let opts = HarnessOpts::from_env();
    banner(
        "Table 5 — power and area of the accelerator layer (32 nm)",
        "total 23.85 W / 41.77 mm² = 61.43% of the 68 mm² layer",
    );

    let layer = AcceleratorLayer::mealib_default();
    let paper_power = [
        ("AXPY", 23.56),
        ("DOT", 23.49),
        ("GEMV", 23.75),
        ("SPMV", 15.44),
        ("RESMP", 8.19),
        ("FFT", 18.89),
        ("RESHP", 22.70),
    ];
    let paper_area = [1.38, 1.81, 2.45, 14.17, 2.64, 16.13, f64::NAN];

    section("per-component estimates (accelerator + 3D DRAM power)");
    let mut t = TextTable::new(vec![
        "component",
        "power (model)",
        "power (paper)",
        "area (model)",
        "area (paper)",
    ]);
    let mut max_power: f64 = 0.0;
    let mut gantt = Profile::new();
    let mut cursor = Seconds::ZERO;
    for (i, row) in datasets::table2().iter().enumerate() {
        let r = layer.execute(&row.params);
        let power = r.power().get();
        cursor = gantt.interval(
            "layer",
            Phase::Compute,
            &row.params.kind().to_string(),
            cursor,
            r.time,
        );
        max_power = max_power.max(power);
        let area = profile(row.params.kind()).area_mm2;
        t.push_row(vec![
            row.params.kind().to_string(),
            format!("{power:.2} W"),
            format!("{:.2} W", paper_power[i].1),
            if area > 0.0 {
                format!("{area:.2} mm2")
            } else {
                "- (logic layer)".into()
            },
            if paper_area[i].is_nan() {
                "-".into()
            } else {
                format!("{:.2} mm2", paper_area[i])
            },
        ]);
    }

    // NoC under a saturating configuration broadcast.
    let mesh = Mesh::mealib_layer();
    let packets: Vec<Packet> = (0..64)
        .map(|_| Packet::new(TileId::new(0, 0), TileId::new(3, 7), 4096))
        .collect();
    let noc_stats = mesh.simulate(&packets);
    let noc_power = mesh.average_power(&noc_stats).get();
    t.push_row(vec![
        "NoC (router + link)".to_string(),
        format!("{noc_power:.3} W"),
        "0.095 W".to_string(),
        format!("{NOC_AREA_MM2:.2} mm2"),
        "1.44 mm2".to_string(),
    ]);
    t.push_row(vec![
        "TSVs".to_string(),
        "-".to_string(),
        "-".to_string(),
        format!("{TSV_AREA_MM2:.2} mm2"),
        "1.75 mm2".to_string(),
    ]);
    print!("{t}");

    section("totals");
    // Accelerators never run simultaneously (they share the 510 GB/s),
    // so the layer budget is the most power-hungry accelerator + NoC.
    let total_power = max_power + noc_power;
    let total_area = total_layer_area(NOC_AREA_MM2);
    println!("total power: {total_power:.2} W   (paper: 23.85 W — max accelerator + NoC)");
    println!(
        "total area:  {total_area:.2} mm2 = {:.1}% of the {LAYER_AREA_BUDGET_MM2:.0} mm2 layer   (paper: 41.77 mm2 = 61.43%)",
        100.0 * total_area / LAYER_AREA_BUDGET_MM2
    );
    let mut summary = JsonSummary::new("table05_power_area");
    summary.metric("total_power_w", total_power);
    summary.metric("total_area_mm2", total_area);
    summary.metric("noc_power_w", noc_power);
    // Modeled Table 2 execution time per accelerator, back to back.
    write_profile(&opts, &gantt);
    summary.emit(&opts);
}
