//! §3.4 demonstration: the source-to-source compiler on the paper's
//! Listing 1 (the STAP fragment) — 16M+ library calls compacted into
//! three accelerator descriptors.

use mealib_bench::{banner, section, HarnessOpts, JsonSummary};

const LISTING1: &str = r#"
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

    datacube = malloc(sizeof(complex) * num_datacube_elements);
    datacube_pulse_major_padded = malloc(sizeof(complex) * num_padded_elements);
    datacube_doppler_major = malloc(sizeof(complex) * num_datacube_elements);
    adaptive_weights = malloc(sizeof(complex) * num_weight_elements);
    snapshots = malloc(sizeof(complex) * num_snapshot_elements);
    prods = malloc(sizeof(complex) * num_prod_elements);

    plan_ct = fftwf_plan_guru_dft(0, NULL, 3, howmany_dims_ct,
        datacube, datacube_pulse_major_padded, FFTW_FORWARD, FFTW_WISDOM_ONLY);
    plan_fft = fftwf_plan_guru_dft(1, dims, 2, howmany_dims,
        datacube_pulse_major_padded, datacube_doppler_major,
        FFTW_FORWARD, FFTW_WISDOM_ONLY);
    fftwf_execute(plan_ct);
    fftwf_execute(plan_fft);

    #pragma omp parallel for num_threads(4)
    for (dop = 0; dop < N_DOP; ++dop)
        for (block = 0; block < N_BLOCKS; ++block)
            for (sv = 0; sv < N_STEERING; ++sv)
                for (cell = 0; cell < TBS; ++cell)
                    cblas_cdotc_sub(TDOF * N_CHAN,
                        &adaptive_weights[dop][block][sv][0], 1,
                        &snapshots[dop][block][cell], TBS,
                        &prods[dop][block][sv][cell]);

    for (dop = 0; dop < N_DOP; ++dop)
        cblas_saxpy(4096, 1.0, prods, 1, datacube_doppler_major, 1);

    free(datacube);
    free(datacube_pulse_major_padded);
    free(datacube_doppler_major);
    free(adaptive_weights);
    free(snapshots);
    free(prods);
"#;

fn main() {
    let opts = HarnessOpts::from_env();
    banner(
        "§3.4 — source-to-source compilation of Listing 1",
        "more than 16M cblas_cdotc_sub calls translate to one accelerator invocation",
    );

    let out = mealib_compiler::compile(LISTING1).expect("Listing 1 compiles");

    section("statistics");
    println!("accelerable call sites:    {}", out.stats.accelerable_calls);
    println!("dynamic library calls:     {}", out.stats.dynamic_calls);
    println!("descriptors generated:     {}", out.stats.descriptors);
    println!("calls fused by chaining:   {}", out.stats.chained_calls);
    println!(
        "buffers moved to MEALib:   {}",
        out.stats.allocations_rewritten
    );

    section("generated TDL");
    for gen in &out.tdl {
        println!(
            "// {} — compacts {} call(s)",
            gen.plan_name, gen.calls_compacted
        );
        println!("{}", gen.text);
    }

    section("transformed source");
    println!("{}", out.source);

    let mut summary = JsonSummary::new("compiler_stap");
    summary.metric("accelerable_calls", out.stats.accelerable_calls as f64);
    summary.metric("dynamic_calls", out.stats.dynamic_calls as f64);
    summary.metric("descriptors", out.stats.descriptors as f64);
    summary.metric("chained_calls", out.stats.chained_calls as f64);
    summary.emit(&opts);
}
