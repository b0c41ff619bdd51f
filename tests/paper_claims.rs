//! The paper's headline claims, asserted as executable shape checks.
//! Absolute numbers are not expected to match the authors' testbed; the
//! orderings, rough factors, and trends are.

use mealib_accel::AccelParams;
use mealib_obs::Obs;
use mealib_sim::{run_experiment, OpComparison};
use mealib_types::stats::geometric_mean;
use mealib_workloads::{datasets, fig1, sar, stap};

/// Unrecorded experiment, unwrapped to the five-platform rows.
fn compare(op: &AccelParams) -> OpComparison {
    run_experiment(op, &Obs::off())
        .expect("preflight clean")
        .comparison
}

/// §5.1 / Fig. 9: "MEALib achieves the best performance on all the
/// evaluated operations, and the improvements range from 11x (SPMV) to
/// 88x (RESHP). On average, MEALib achieves 38x."
#[test]
fn fig9_mealib_wins_everywhere_with_the_right_spread() {
    let mut gains = Vec::new();
    for row in datasets::table2() {
        let cmp = compare(&row.params);
        let mealib = cmp.mealib_speedup();
        for (name, s) in cmp.speedups() {
            assert!(
                mealib >= s,
                "{}: {name} at {s:.1}x beats MEALib",
                row.function
            );
        }
        gains.push((row.params.kind(), mealib));
    }
    let spmv = gains
        .iter()
        .find(|(k, _)| k == &mealib_tdl::AcceleratorKind::Spmv)
        .unwrap()
        .1;
    let reshp = gains
        .iter()
        .find(|(k, _)| k == &mealib_tdl::AcceleratorKind::Reshp)
        .unwrap()
        .1;
    assert!(
        gains.iter().all(|&(_, g)| g >= spmv * 0.95),
        "SPMV is the smallest gain"
    );
    assert!(
        gains.iter().all(|&(_, g)| g <= reshp * 1.01),
        "RESHP is the largest gain"
    );
    assert!(reshp / spmv > 4.0, "an order of spread between extremes");
    // Paper: 11x (SPMV) to 88x (RESHP).
    assert!((4.0..30.0).contains(&spmv), "SPMV gain {spmv:.1}x");
    assert!((40.0..160.0).contains(&reshp), "RESHP gain {reshp:.1}x");
    let avg = geometric_mean(&gains.iter().map(|&(_, g)| g).collect::<Vec<_>>()).unwrap();
    assert!(
        (15.0..80.0).contains(&avg),
        "average {avg:.1}x vs paper 38x"
    );
}

/// §5.1 / Fig. 10: "the energy efficiency gains of MEALib are much
/// larger than the performance gains" — 75x average vs 38x.
#[test]
fn fig10_energy_gains_exceed_performance_gains() {
    let mut perf = Vec::new();
    let mut eff = Vec::new();
    for row in datasets::table2() {
        let cmp = compare(&row.params);
        perf.push(cmp.mealib_speedup());
        eff.push(cmp.mealib_efficiency_gain());
    }
    let avg_perf = geometric_mean(&perf).unwrap();
    let avg_eff = geometric_mean(&eff).unwrap();
    assert!(
        avg_eff > 1.3 * avg_perf,
        "{avg_eff:.1}x EE vs {avg_perf:.1}x perf"
    );
    assert!(
        (30.0..160.0).contains(&avg_eff),
        "average EE gain {avg_eff:.1}x vs paper 75x"
    );
}

/// Figs. 9/10 normalize every platform to Haswell: its row reads 1x on
/// both axes, and the rows come in the figures' platform order.
#[test]
fn baselines_normalize_to_one() {
    for row in datasets::table2() {
        let cmp = compare(&row.params);
        let s = cmp.speedups();
        let e = cmp.efficiency_gains();
        assert!((s[0].1 - 1.0).abs() < 1e-12, "{}", row.function);
        assert!((e[0].1 - 1.0).abs() < 1e-12, "{}", row.function);
        assert_eq!(s.len(), 5);
        assert!(s[0].0.contains("Haswell"));
        assert_eq!(s[4].0, "MEALib");
    }
}

/// Footnote 3: RESHP has no FLOPs, so its throughput is GB/s.
#[test]
fn throughput_metric_switches_for_flop_free_ops() {
    let reshp = datasets::for_kind(mealib_tdl::AcceleratorKind::Reshp);
    for row in &compare(&reshp.params).rows {
        assert_eq!(row.flops, 0, "{}: transpose has no FLOPs", row.name);
        assert!(
            row.throughput() > 0.0,
            "{}: GB/s metric must be used",
            row.name
        );
    }
}

/// Table 3 ordering: Haswell < PSAS < MSAS < MEALib on average.
#[test]
fn platform_ladder_is_ordered() {
    let mut psas = Vec::new();
    let mut msas = Vec::new();
    let mut mealib = Vec::new();
    for row in datasets::table2() {
        let cmp = compare(&row.params);
        let s = cmp.speedups();
        psas.push(s[2].1);
        msas.push(s[3].1);
        mealib.push(s[4].1);
    }
    let psas = geometric_mean(&psas).unwrap();
    let msas = geometric_mean(&msas).unwrap();
    let mealib = geometric_mean(&mealib).unwrap();
    // Paper averages: PSAS 2.51x, MSAS 10.32x, MEALib 38x.
    assert!(psas > 1.0, "PSAS average {psas:.2}x");
    assert!(msas > 2.0 * psas, "MSAS {msas:.2}x vs PSAS {psas:.2}x");
    assert!(
        mealib > 2.0 * msas,
        "MEALib {mealib:.2}x vs MSAS {msas:.2}x"
    );
}

/// Fig. 1: libraries buy 5x-42x on commodity hardware, with PERFECT
/// holding the flagship.
#[test]
fn fig1_library_gains() {
    let points = fig1::speedups();
    let max = points.iter().map(|p| p.multi_thread).fold(0.0f64, f64::max);
    assert!((15.0..80.0).contains(&max), "max {max:.1}x vs paper 42x");
    for p in &points {
        assert!(
            p.multi_thread > 1.5,
            "{} gains {:.1}x",
            p.benchmark.name,
            p.multi_thread
        );
    }
}

/// Fig. 12: hardware chaining ~2.5x and hardware loop ~9.5x at 256²,
/// both shrinking with problem size, loop > chain.
#[test]
fn fig12_configuration_efficiency_shapes() {
    let chain = sar::chaining_sweep();
    let lp = sar::loop_sweep(128);
    assert!(
        (1.5..4.5).contains(&chain[0].gain()),
        "chain {:.2}x",
        chain[0].gain()
    );
    assert!(
        (4.0..25.0).contains(&lp[0].gain()),
        "loop {:.2}x",
        lp[0].gain()
    );
    assert!(lp[0].gain() > chain[0].gain());
    assert!(chain.last().unwrap().gain() < chain[0].gain());
    assert!(lp.last().unwrap().gain() < lp[0].gain());
}

/// Fig. 13: STAP gains grow with dataset size; EDP gains exceed
/// performance gains (2.0/2.3/3.2x and 4.5/9.0/10.2x in the paper).
#[test]
fn fig13_stap_gains() {
    let (p_small, e_small) = stap::gains(&stap::StapConfig::small());
    let (p_large, e_large) = stap::gains(&stap::StapConfig::large());
    assert!(p_small < p_large, "{p_small:.2} -> {p_large:.2}");
    assert!(e_small < e_large, "{e_small:.2} -> {e_large:.2}");
    assert!((1.3..6.0).contains(&p_large));
    assert!((3.0..20.0).contains(&e_large));
    assert!(e_large > p_large, "EDP gain dominates perf gain");
}

/// §3.4: Listing 1's 16M+ library calls compact into 3 descriptors.
#[test]
fn compiler_compaction_claim() {
    let src = r#"
        int N_DOP = 256; int N_BLOCKS = 64; int N_STEERING = 16; int TBS = 64;
        plan_ct = fftwf_plan_guru_dft(0, NULL, 3, hm1, datacube, padded, FWD, FLAGS);
        plan_fft = fftwf_plan_guru_dft(1, dims, 2, hm2, padded, doppler, FWD, FLAGS);
        fftwf_execute(plan_ct);
        fftwf_execute(plan_fft);
        #pragma omp parallel for num_threads(4)
        for (dop = 0; dop < N_DOP; ++dop)
            for (block = 0; block < N_BLOCKS; ++block)
                for (sv = 0; sv < N_STEERING; ++sv)
                    for (cell = 0; cell < TBS; ++cell)
                        cblas_cdotc_sub(12, &w[dop][block][sv][0], 1, &s[dop][block][cell], TBS, &p[dop][block][sv][cell]);
        for (dop = 0; dop < N_DOP; ++dop)
            cblas_saxpy(4096, 1.0, p, 1, doppler, 1);
    "#;
    let out = mealib_compiler::compile(src).unwrap();
    assert_eq!(out.stats.descriptors, 3);
    assert!(out.stats.dynamic_calls > 16_000_000);
}

/// Table 5: the accelerator layer fits comfortably in the 68 mm² die.
#[test]
fn table5_area_budget() {
    let total = mealib_accel::power::total_layer_area(mealib_accel::power::NOC_AREA_MM2);
    let share = total / mealib_accel::power::LAYER_AREA_BUDGET_MM2;
    assert!(
        (0.55..0.70).contains(&share),
        "share {share:.3} vs paper 61.43%"
    );
}
