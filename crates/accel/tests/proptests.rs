//! Property tests over accelerator parameters and the execution model.

use mealib_accel::model::{AccelModel, CONFIG_LATENCY};
use mealib_accel::{AccelHwConfig, AccelParams};
use mealib_memsim::MemoryConfig;
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = AccelParams> {
    prop_oneof![
        (1u64..(1 << 28), -8i32..8, 1u32..8, 1u32..8).prop_map(|(n, a, ix, iy)| {
            AccelParams::Axpy {
                n,
                alpha: a as f32 / 2.0,
                incx: ix,
                incy: iy,
            }
        }),
        (1u64..(1 << 28), 1u32..8, 1u32..8, any::<bool>()).prop_map(|(n, ix, iy, c)| {
            AccelParams::Dot {
                n,
                incx: ix,
                incy: iy,
                complex: c,
            }
        }),
        (1u64..16384, 1u64..16384).prop_map(|(m, n)| AccelParams::Gemv { m, n }),
        (1u64..(1 << 20), 1u64..(1 << 20), 1u64..(1 << 22)).prop_filter_map(
            "nnz fits matrix",
            |(r, c, nnz)| (nnz <= r * c).then_some(AccelParams::Spmv {
                rows: r,
                cols: c,
                nnz
            }),
        ),
        (1u64..4096, 1u64..4096, 1u64..4096).prop_map(|(b, i, o)| AccelParams::Resmp {
            blocks: b,
            in_per_block: i,
            out_per_block: o,
        }),
        (1u32..16, 1u64..4096).prop_map(|(log_n, batch)| AccelParams::Fft {
            n: 1 << log_n,
            batch
        }),
        (
            1u64..16384,
            1u64..16384,
            prop_oneof![Just(4u32), Just(8u32)]
        )
            .prop_map(|(r, c, e)| AccelParams::Reshp {
                rows: r,
                cols: c,
                elem_bytes: e
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The .para wire format round-trips every valid parameter set.
    #[test]
    fn params_round_trip(p in params_strategy()) {
        let bytes = p.to_bytes();
        let back = AccelParams::from_bytes(&bytes).expect("round trip");
        prop_assert_eq!(p, back);
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn params_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = AccelParams::from_bytes(&bytes);
    }

    /// Every modeled execution is finite, positive, and floored by the
    /// configuration latency; energy splits are consistent.
    #[test]
    fn execution_costs_are_sane(p in params_strategy()) {
        let hw = AccelHwConfig::mealib_default();
        let mem = MemoryConfig::hmc_stack();
        let r = AccelModel::new(p.kind()).execute(&p, &hw, &mem);
        prop_assert!(r.time >= CONFIG_LATENCY);
        prop_assert!(r.time.get().is_finite());
        prop_assert!(r.energy.get() > 0.0 && r.energy.get().is_finite());
        prop_assert!(r.mem_energy.get() <= r.energy.get());
        prop_assert!(r.time.get() + 1e-12 >= r.mem_time.get().min(r.compute_time.get()));
    }

    /// Report algebra: `repeat(a+b) == repeat(a).then(repeat(b))` in time,
    /// energy, and work.
    #[test]
    fn repeat_is_additive(p in params_strategy(), a in 1u64..50, b in 1u64..50) {
        let hw = AccelHwConfig::mealib_default();
        let mem = MemoryConfig::hmc_stack();
        let r = AccelModel::new(p.kind()).execute(&p, &hw, &mem);
        let whole = r.checked_repeat(a + b).unwrap();
        let split = r
            .checked_repeat(a)
            .unwrap()
            .checked_then(&r.checked_repeat(b).unwrap())
            .unwrap();
        prop_assert!((whole.time.get() - split.time.get()).abs() <= whole.time.get() * 1e-9);
        prop_assert!((whole.energy.get() - split.energy.get()).abs() <= whole.energy.get() * 1e-9);
        prop_assert_eq!(whole.flops, split.flops);
        prop_assert_eq!(whole.mem.bytes_moved(), split.mem.bytes_moved());
    }

    /// A faster memory substrate never slows an operation down.
    #[test]
    fn stack_never_loses_to_dimms(p in params_strategy()) {
        let hw = AccelHwConfig::mealib_default();
        let model = AccelModel::new(p.kind());
        let stack = model.execute(&p, &hw, &MemoryConfig::hmc_stack());
        let dimms = model.execute(&p, &hw, &MemoryConfig::ddr_dual_channel());
        prop_assert!(
            stack.time.get() <= dimms.time.get() * 1.001,
            "stack {} vs dimms {}",
            stack.time,
            dimms.time
        );
    }
}
