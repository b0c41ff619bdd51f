//! Cross-crate integration invariants: the subsystem simulators agree
//! with each other where their domains overlap.

use std::collections::BTreeMap;

use mealib_accel::cu::{run_descriptor, CuCostModel};
use mealib_accel::{AccelModel, AccelParams, AcceleratorLayer};
use mealib_memsim::engine::{self, Op};
use mealib_memsim::{analytic, AccessPattern, MemoryConfig};
use mealib_tdl::{parse, AcceleratorKind, Descriptor, ParamBag};

/// The analytic DRAM model and the cycle engine agree on a mixed
/// read/write stream (they share timing constants).
#[test]
fn dram_paths_agree_on_mixed_stream() {
    let cfg = MemoryConfig::hmc_stack();
    let bytes = 16u64 << 20;
    let mut trace = engine::sequential_trace(0, bytes, 256, Op::Read);
    trace.extend(engine::sequential_trace(1 << 30, bytes, 256, Op::Write).iter());
    let sim = engine::simulate(&cfg, &trace, &engine::SimOptions::dual_check())
        .expect("preset config validates")
        .stats;
    let est = analytic::try_estimate(&cfg, &AccessPattern::sequential_rw(bytes, bytes)).unwrap();
    let ratio = est.elapsed.get() / sim.elapsed.get();
    assert!((0.6..1.6).contains(&ratio), "time ratio {ratio}");
    assert_eq!(est.bytes_moved(), sim.bytes_moved());
}

/// A descriptor run through the Configuration Unit prices each pass
/// exactly like direct model execution plus front-end costs.
#[test]
fn cu_run_matches_direct_model_execution() {
    let layer = AcceleratorLayer::mealib_default();
    let op = AccelParams::Gemv { m: 4096, n: 4096 };
    let direct = AccelModel::new(AcceleratorKind::Gemv).execute(&op, layer.hw(), layer.mem());

    let program = parse("PASS in=a out=b { COMP GEMV params=\"g.para\" }").unwrap();
    let mut bag = ParamBag::new();
    bag.insert("g.para".into(), op.to_bytes());
    let buffers: BTreeMap<String, u64> =
        [("a".to_string(), 0x1000u64), ("b".to_string(), 0x2000_0000)]
            .into_iter()
            .collect();
    let desc = Descriptor::encode(&program, &bag, &buffers).unwrap();
    let run = run_descriptor(&desc, &layer, &CuCostModel::default()).unwrap();

    let exec = run.execution().unwrap();
    assert_eq!(
        exec, &direct,
        "single un-looped pass equals direct execution"
    );
    assert!(run.total_time() > direct.time, "plus nonzero setup");
}

/// Accelerator access patterns priced through the analytic model carry
/// exactly the operation's useful traffic.
#[test]
fn accelerator_traffic_matches_operation_footprint() {
    let hw = mealib_accel::AccelHwConfig::mealib_default();
    let cases: Vec<(AccelParams, u64)> = vec![
        // (op, expected useful bytes)
        (
            AccelParams::Axpy {
                n: 1 << 20,
                alpha: 1.0,
                incx: 1,
                incy: 1,
            },
            12 << 20,
        ),
        (
            AccelParams::Dot {
                n: 1 << 20,
                incx: 1,
                incy: 1,
                complex: false,
            },
            8 << 20,
        ),
        (
            AccelParams::Reshp {
                rows: 1024,
                cols: 1024,
                elem_bytes: 4,
            },
            8 << 20,
        ),
    ];
    for (op, want) in cases {
        let model = AccelModel::new(op.kind());
        let pattern = model.access_pattern(&op, &hw);
        assert_eq!(pattern.useful_bytes(), want, "{:?}", op.kind());
    }
}

/// TDL emitted by the compiler encodes and decodes through the binary
/// descriptor format without loss of structure.
#[test]
fn compiler_tdl_flows_through_descriptor_encoding() {
    let out =
        mealib_compiler::compile("for (i = 0; i < 100; ++i) cblas_sdot(256, x, 1, y, 1);").unwrap();
    let program = parse(&out.tdl[0].text).unwrap();
    let mut bag = ParamBag::new();
    for f in &out.tdl[0].params {
        bag.insert(
            f.file.clone(),
            AccelParams::Dot {
                n: 256,
                incx: 1,
                incy: 1,
                complex: false,
            }
            .to_bytes(),
        );
    }
    let buffers: BTreeMap<String, u64> = [("x".to_string(), 0x1000u64), ("y".to_string(), 0x2000)]
        .into_iter()
        .collect();
    let desc = Descriptor::encode(&program, &bag, &buffers).unwrap();
    assert_eq!(program.total_invocations(), Some(100));
    let layer = AcceleratorLayer::mealib_default();
    let run = run_descriptor(&desc, &layer, &CuCostModel::default()).unwrap();
    assert_eq!(run.invocations(), 100);
}

/// The memory hierarchy ladder: the same operation gets faster as the
/// substrate's bandwidth grows (DDR dual channel → 8-channel → stack).
#[test]
fn substrate_ladder_speeds_up_the_same_op() {
    let hw = mealib_accel::AccelHwConfig::mealib_default();
    let op = AccelParams::Gemv { m: 8192, n: 8192 };
    let model = AccelModel::new(AcceleratorKind::Gemv);
    let ddr = model
        .execute(&op, &hw, &MemoryConfig::ddr_dual_channel())
        .time;
    let msas = model.execute(&op, &hw, &MemoryConfig::msas_dram()).time;
    let stack = model.execute(&op, &hw, &MemoryConfig::hmc_stack()).time;
    assert!(ddr > msas && msas > stack, "{ddr} > {msas} > {stack}");
    // Ratios roughly track the bandwidth ratios (4x and 5x).
    let r1 = ddr / msas;
    let r2 = msas / stack;
    assert!((2.0..8.0).contains(&r1), "ddr/msas {r1:.1}");
    assert!((2.0..10.0).contains(&r2), "msas/stack {r2:.1}");
}
