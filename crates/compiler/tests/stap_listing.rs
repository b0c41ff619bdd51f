//! End-to-end compilation of the paper's Listing 1 (the STAP fragment):
//! data allocation, FFTW guru data copy + batched FFT, and the OpenMP
//! loop nest of 16M `cblas_cdotc_sub` calls.

use mealib_compiler::compile;

const STAP_SOURCE: &str = r#"
    // dataset geometry (PERFECT STAP "small"-like constants)
    int N_DOP = 256;
    int N_BLOCKS = 64;
    int N_STEERING = 16;
    int TBS = 64;
    int TDOF = 3;
    int N_CHAN = 4;

    complex *datacube;
    complex *datacube_pulse_major_padded;
    complex *datacube_doppler_major;
    complex *adaptive_weights;
    complex *snapshots;
    complex *prods;

    // data allocation
    datacube = malloc(sizeof(complex) * num_datacube_elements);
    datacube_pulse_major_padded = malloc(sizeof(complex) * num_padded_elements);
    datacube_doppler_major = malloc(sizeof(complex) * num_datacube_elements);
    adaptive_weights = malloc(sizeof(complex) * num_weight_elements);
    snapshots = malloc(sizeof(complex) * num_snapshot_elements);
    prods = malloc(sizeof(complex) * num_prod_elements);

    // data copy (rank-0 guru plan = layout transform)
    plan_ct = fftwf_plan_guru_dft(0, NULL, 3, howmany_dims_ct,
        datacube, datacube_pulse_major_padded, FFTW_FORWARD, FFTW_WISDOM_ONLY);

    // FFT operation
    plan_fft = fftwf_plan_guru_dft(1, dims, 2, howmany_dims,
        datacube_pulse_major_padded, datacube_doppler_major,
        FFTW_FORWARD, FFTW_WISDOM_ONLY);

    fftwf_execute(plan_ct);
    fftwf_execute(plan_fft);

    // multiple parallel inner products
    #pragma omp parallel for num_threads(4)
    for (dop = 0; dop < N_DOP; ++dop)
        for (block = 0; block < N_BLOCKS; ++block)
            for (sv = 0; sv < N_STEERING; ++sv)
                for (cell = 0; cell < TBS; ++cell)
                    cblas_cdotc_sub(TDOF * N_CHAN,
                        &adaptive_weights[dop][block][sv][0], 1,
                        &snapshots[dop][block][cell], TBS,
                        &prods[dop][block][sv][cell]);

    // weight application
    for (dop = 0; dop < N_DOP; ++dop)
        cblas_saxpy(4096, 1.0, prods, 1, datacube_doppler_major, 1);

    free(datacube);
    free(datacube_pulse_major_padded);
    free(datacube_doppler_major);
    free(adaptive_weights);
    free(snapshots);
    free(prods);
"#;

#[test]
fn compiles_listing1_into_three_descriptors() {
    let out = compile(STAP_SOURCE).expect("Listing 1 must compile");
    // Chained RESHP+FFT, the cdotc loop, and the saxpy loop.
    assert_eq!(out.stats.descriptors, 3, "{:#?}", out.stats);
    assert_eq!(out.stats.chained_calls, 2);
    // 2 (chain) + 256*64*16*64 cdotc + 256 saxpy.
    assert_eq!(out.stats.dynamic_calls, 2 + 256 * 64 * 16 * 64 + 256);
}

#[test]
fn listing1_loop_compaction_matches_paper_claim() {
    // "more than 16M function calls of cblas_cdotc_sub are finally
    // translated into only one accelerator invocation" (§3.4).
    let out = compile(STAP_SOURCE).unwrap();
    let cdotc = out
        .tdl
        .iter()
        .find(|t| t.text.contains("COMP DOT"))
        .expect("cdotc descriptor present");
    assert_eq!(cdotc.calls_compacted, 256 * 64 * 16 * 64);
    assert!(cdotc.text.contains(&format!("LOOP {}", 256 * 64 * 16 * 64)));
}

#[test]
fn listing1_generated_tdl_all_parses() {
    let out = compile(STAP_SOURCE).unwrap();
    for gen in &out.tdl {
        let program = mealib_tdl::parse(&gen.text)
            .unwrap_or_else(|e| panic!("TDL for {} must parse: {e}", gen.plan_name));
        assert_eq!(program.total_invocations(), Some(gen.calls_compacted));
    }
}

#[test]
fn listing1_allocations_are_rewritten() {
    let out = compile(STAP_SOURCE).unwrap();
    // Buffers used by accelerators move to MEALib memory...
    for buf in [
        "datacube",
        "datacube_pulse_major_padded",
        "datacube_doppler_major",
        "adaptive_weights",
        "snapshots",
        "prods",
    ] {
        assert!(
            out.source.contains(&format!("{buf} = mealib_mem_alloc(")),
            "{buf} must be rewritten\n{}",
            out.source
        );
        assert!(out.source.contains(&format!("mealib_mem_free({buf});")));
    }
    assert!(!out.source.contains(" = malloc("));
    assert!(!out.source.contains("fftwf_execute"));
}

#[test]
fn listing1_emits_runtime_calls_in_order() {
    let out = compile(STAP_SOURCE).unwrap();
    let p0 = out.source.find("mealib_acc_plan(tdl_0").expect("plan 0");
    let p1 = out.source.find("mealib_acc_plan(tdl_1").expect("plan 1");
    let p2 = out.source.find("mealib_acc_plan(tdl_2").expect("plan 2");
    assert!(p0 < p1 && p1 < p2, "descriptors emitted in source order");
    assert_eq!(out.source.matches("mealib_acc_execute(").count(), 3);
    assert_eq!(out.source.matches("mealib_acc_destroy(").count(), 3);
}

#[test]
fn output_is_stable_under_recompilation() {
    let a = compile(STAP_SOURCE).unwrap();
    let b = compile(STAP_SOURCE).unwrap();
    assert_eq!(a, b);
}
