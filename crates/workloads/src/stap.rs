//! Space-Time Adaptive Processing (STAP), the paper's real-world
//! application (§3.1, §5.5, Table 4, Figures 13-14).
//!
//! STAP processes a radar datacube (channels × pulses × range cells):
//! Doppler processing (data copy + batched FFT), covariance estimation
//! (`cherk`), weight solving (`ctrsm` after a Cholesky factorization),
//! adaptive-weight application (millions of small `cdotc` inner
//! products), and a final `saxpy` accumulation.
//!
//! Two faces:
//!
//! * [`run_functional`] — a real, numerically verified pipeline running
//!   on the [`mealib::Mealib`] API at a scaled-down size;
//! * [`run_on_haswell`] / [`run_on_mealib`] — the modeled end-to-end
//!   comparison at the paper's dataset sizes, with per-phase time and
//!   energy (the Figure 13 gains and Figure 14 breakdowns).

use std::collections::BTreeMap;

use mealib::{Complex32, Mealib, MealibError};
use mealib_accel::cu::{run_descriptor, CuCostModel, DescriptorRun};
use mealib_accel::trace_exec::generate_trace;
use mealib_accel::{AccelParams, AcceleratorLayer};
use mealib_host::{run_custom, run_op, CodeFlavor, Platform};
use mealib_kernels::blas3::{self, Side, Triangle};
use mealib_kernels::fft::Direction;
use mealib_memsim::engine::{simulate, SimOptions};
use mealib_obs::{Attribution, Breakdown, Obs, Phase, Profile, TraceRecorder};
use mealib_runtime::CacheModel;
use mealib_tdl::{AcceleratorKind, Descriptor, ParamBag};
use mealib_types::{Joules, Seconds};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// STAP dataset geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StapConfig {
    /// Dataset label ("small"/"medium"/"large").
    pub name: &'static str,
    /// Antenna channels.
    pub n_chan: usize,
    /// Temporal degrees of freedom.
    pub tdof: usize,
    /// Doppler bins (pulses), a power of two.
    pub n_dop: usize,
    /// Training blocks.
    pub n_blocks: usize,
    /// Steering vectors.
    pub n_steering: usize,
    /// Training block size (range cells per block).
    pub tbs: usize,
}

impl StapConfig {
    /// The small dataset (PERFECT-like geometry: 16 channels, 5
    /// temporal taps, 80 space-time degrees of freedom).
    pub fn small() -> Self {
        Self {
            name: "small",
            n_chan: 16,
            tdof: 5,
            n_dop: 128,
            n_blocks: 32,
            n_steering: 8,
            tbs: 32,
        }
    }

    /// The medium dataset.
    pub fn medium() -> Self {
        Self {
            name: "medium",
            n_dop: 256,
            n_blocks: 48,
            n_steering: 12,
            tbs: 48,
            ..Self::small()
        }
    }

    /// The large dataset.
    pub fn large() -> Self {
        Self {
            name: "large",
            n_dop: 512,
            n_blocks: 64,
            n_steering: 16,
            tbs: 64,
            ..Self::small()
        }
    }

    /// A tiny configuration for functional verification.
    pub fn tiny() -> Self {
        Self {
            name: "tiny",
            n_chan: 2,
            tdof: 2,
            n_dop: 8,
            n_blocks: 2,
            n_steering: 2,
            tbs: 8,
        }
    }

    /// Space-time degrees of freedom (`TDOF * N_CHAN`).
    pub fn dof(&self) -> usize {
        self.tdof * self.n_chan
    }

    /// Range cells.
    pub fn ranges(&self) -> usize {
        self.n_blocks * self.tbs
    }

    /// Complex elements in the datacube.
    pub fn datacube_elems(&self) -> usize {
        self.n_chan * self.n_dop * self.ranges()
    }

    /// Dynamic `cblas_cdotc_sub` calls in the weight-application nest.
    pub fn cdotc_calls(&self) -> u64 {
        (self.n_dop * self.n_blocks * self.n_steering * self.tbs) as u64
    }

    /// Dynamic `cblas_saxpy` calls in the accumulation loop.
    pub fn saxpy_calls(&self) -> u64 {
        self.n_dop as u64
    }
}

/// Who executed a phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Executor {
    /// The host multicore.
    Host,
    /// A memory-side accelerator (tagged with its kind).
    Accelerator(AcceleratorKind),
    /// Host-side invocation overhead (cache flush, descriptor copy).
    Invocation,
}

/// Modeled cost of one pipeline phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseCost {
    /// Phase name (Table 4 function).
    pub name: &'static str,
    /// Who ran it.
    pub executor: Executor,
    /// Modeled time.
    pub time: Seconds,
    /// Modeled energy.
    pub energy: Joules,
}

/// A full modeled STAP run.
#[derive(Debug, Clone, PartialEq)]
pub struct StapRun {
    /// Platform label.
    pub platform: String,
    /// Per-phase costs, pipeline order.
    pub phases: Vec<PhaseCost>,
}

impl StapRun {
    /// Total time.
    pub fn total_time(&self) -> Seconds {
        self.phases.iter().map(|p| p.time).sum()
    }

    /// Total energy.
    pub fn total_energy(&self) -> Joules {
        self.phases.iter().map(|p| p.energy).sum()
    }

    /// Energy-delay product (the paper's efficiency metric, its ref. \[37\]).
    pub fn edp(&self) -> f64 {
        self.total_energy().get() * self.total_time().get()
    }

    /// Fraction of total time spent in phases matching `pred`.
    pub fn time_fraction(&self, pred: impl Fn(&PhaseCost) -> bool) -> f64 {
        let t: Seconds = self.phases.iter().filter(|p| pred(p)).map(|p| p.time).sum();
        t / self.total_time()
    }

    /// Fraction of total energy spent in phases matching `pred`.
    pub fn energy_fraction(&self, pred: impl Fn(&PhaseCost) -> bool) -> f64 {
        let e: Joules = self
            .phases
            .iter()
            .filter(|p| pred(p))
            .map(|p| p.energy)
            .sum();
        e.get() / self.total_energy().get()
    }
}

/// Table 4: the library functions STAP uses and their classification.
pub fn table4() -> Vec<(&'static str, &'static str, bool)> {
    // (function, purpose, memory_bounded)
    vec![
        ("fftwf_execute()", "data copy, FFT", true),
        ("cblas_cherk()", "rank-k matrix update", false),
        ("cblas_ctrsm()", "triangular matrix solver", false),
        ("cblas_cdotc_sub()", "inner production", true),
        ("cblas_saxpy()", "vector scaling", true),
    ]
}

/// Per-call host overhead of a fine-grained BLAS call (dispatch, argument
/// checking, loop bookkeeping).
const HOST_CALL_OVERHEAD: Seconds = Seconds::new(60e-9);

fn host_compute_phases(cfg: &StapConfig, platform: &Platform) -> Vec<PhaseCost> {
    let count = (cfg.n_dop * cfg.n_blocks) as u64;
    let dof = cfg.dof();
    // cherk: C (dof x dof) += A (dof x tbs) · Aᴴ, per (dop, block).
    let cherk_flops = count * blas3::cherk_flops(dof, cfg.tbs);
    let cherk_bytes = count * (dof * cfg.tbs * 8 + dof * dof * 8) as u64;
    let cherk = run_custom(
        platform,
        cherk_flops,
        cherk_bytes,
        0.55,
        0.8,
        count,
        HOST_CALL_OVERHEAD,
    );
    // ctrsm: two triangular solves per (dop, block) with n_steering RHS.
    let ctrsm_flops = 2 * count * blas3::ctrsm_flops(dof, cfg.n_steering);
    let ctrsm_bytes = count * (dof * dof * 8 + 2 * dof * cfg.n_steering * 8) as u64;
    let ctrsm = run_custom(
        platform,
        ctrsm_flops,
        ctrsm_bytes,
        0.35,
        0.8,
        2 * count,
        HOST_CALL_OVERHEAD,
    );
    vec![
        PhaseCost {
            name: "cherk",
            executor: Executor::Host,
            time: cherk.time,
            energy: cherk.energy,
        },
        PhaseCost {
            name: "ctrsm",
            executor: Executor::Host,
            time: ctrsm.time,
            energy: ctrsm.energy,
        },
    ]
}

/// Models the fully host-resident STAP (optimized MKL + OpenMP baseline).
pub fn run_on_haswell(cfg: &StapConfig) -> StapRun {
    let platform = Platform::haswell();
    let mut phases = Vec::new();

    // Doppler processing: data copy (reshape) + batched FFT.
    let reshp = run_op(
        &platform,
        &AccelParams::Reshp {
            rows: cfg.n_dop as u64,
            cols: (cfg.n_chan * cfg.ranges()) as u64,
            elem_bytes: 8,
        },
        CodeFlavor::Library,
    );
    phases.push(PhaseCost {
        name: "fftw (copy)",
        executor: Executor::Host,
        time: reshp.time,
        energy: reshp.energy,
    });
    let fft = run_op(
        &platform,
        &AccelParams::Fft {
            n: cfg.n_dop as u64,
            batch: (cfg.n_chan * cfg.ranges()) as u64,
        },
        CodeFlavor::Library,
    );
    phases.push(PhaseCost {
        name: "fftw (fft)",
        executor: Executor::Host,
        time: fft.time,
        energy: fft.energy,
    });

    phases.extend(host_compute_phases(cfg, &platform));

    // Millions of tiny cdotc calls: bandwidth plus call overheads (the
    // OpenMP nest spreads dispatch over the cores).
    let calls = cfg.cdotc_calls();
    let dof = cfg.dof() as u64;
    let threads = platform.cores as f64 * platform.thread_efficiency;
    let cdotc = run_custom(
        &platform,
        calls * 8 * dof,
        calls * (2 * dof * 8 + 8),
        0.5,
        0.85,
        calls,
        HOST_CALL_OVERHEAD / threads,
    );
    phases.push(PhaseCost {
        name: "cdotc",
        executor: Executor::Host,
        time: cdotc.time,
        energy: cdotc.energy,
    });

    // Final accumulation saxpy over doppler-major data.
    let saxpy_elems = 2 * cfg.ranges() as u64; // complex as two floats
    let saxpy = run_custom(
        &platform,
        cfg.saxpy_calls() * 2 * saxpy_elems,
        cfg.saxpy_calls() * 12 * saxpy_elems,
        0.85,
        0.88,
        cfg.saxpy_calls(),
        HOST_CALL_OVERHEAD,
    );
    phases.push(PhaseCost {
        name: "saxpy",
        executor: Executor::Host,
        time: saxpy.time,
        energy: saxpy.energy,
    });

    StapRun {
        platform: platform.name,
        phases,
    }
}

/// Builds, encodes, and runs one descriptor on the layer, returning the
/// full CU run (setup itemization, per-pass costs) — host invocation
/// overhead is not included.
fn run_tdl(layer: &AcceleratorLayer, tdl: &str, stages: &[(&str, AccelParams)]) -> DescriptorRun {
    let program = mealib_tdl::parse(tdl).expect("workload TDL is well-formed");
    let mut bag = ParamBag::new();
    for (file, p) in stages {
        bag.insert((*file).to_string(), p.to_bytes());
    }
    // Modeled run: buffer addresses are placeholders (the CU model only
    // prices traffic from the parameters).
    let mut buffers = BTreeMap::new();
    let mut next = 0x1000_0000u64;
    for name in ["a", "b", "c", "d", "w", "s", "p"] {
        buffers.insert(name.to_string(), next);
        next += 0x1000_0000;
    }
    let desc = Descriptor::encode(&program, &bag, &buffers).expect("encodable");
    run_descriptor(&desc, layer, &CuCostModel::default()).expect("runnable")
}

/// Models STAP on MEALib: memory-bounded phases on the accelerator layer
/// (three descriptors, as the compiler produces), compute-bounded phases
/// on the host, invocation overheads charged per descriptor (Fig. 14).
pub fn run_on_mealib(cfg: &StapConfig) -> StapRun {
    run_mealib_pipeline(cfg, None).0
}

/// Engine-cycle width of the DRAM timeline windows in
/// [`profile_on_mealib`].
pub const STAP_DRAM_WINDOW_CYCLES: u64 = 4096;

/// Footprint cap of each profiled DRAM replay: large enough to cover
/// thousands of bursts, small enough that profiling three descriptors
/// stays interactive.
const STAP_DRAM_TRACE_BYTES: u64 = 4 << 20;

/// Number of attribution windows the run's modeled time is split into.
const STAP_ATTRIBUTION_WINDOWS: f64 = 64.0;

/// A fully time-resolved STAP-on-MEALib run.
#[derive(Debug, Clone, PartialEq)]
pub struct StapProfile {
    /// The modeled phase costs ([`run_on_mealib`]'s view).
    pub run: StapRun,
    /// Phase/counter itemization; reconciles with `run`'s totals.
    pub breakdown: Breakdown,
    /// Time-resolved intervals (tracks `stap` and `cu`) plus
    /// cycle-windowed DRAM timelines (`dram:<phase>` tracks).
    pub profile: Profile,
    /// Roofline attribution against the Haswell host platform.
    pub attribution: Attribution,
}

/// The dominant accelerator traffic of a named offloaded phase
/// (`"fftw (chain)"`, `"cdotc"`, or `"saxpy"`), used to drive the
/// profiled DRAM replay. Must stay in sync with the descriptors
/// `run_mealib_pipeline` builds.
///
/// # Panics
///
/// Panics on any other phase name.
pub fn accel_phase_params(cfg: &StapConfig, name: &str) -> AccelParams {
    match name {
        "fftw (chain)" => AccelParams::Fft {
            n: cfg.n_dop as u64,
            batch: (cfg.n_chan * cfg.ranges()) as u64,
        },
        "cdotc" => AccelParams::Dot {
            n: cfg.dof() as u64,
            incx: 1,
            incy: 1,
            complex: true,
        },
        "saxpy" => AccelParams::Axpy {
            n: 2 * cfg.ranges() as u64,
            alpha: 1.0,
            incx: 1,
            incy: 1,
        },
        other => unreachable!("no accelerator phase named {other}"),
    }
}

/// Models STAP on MEALib and builds the full time-resolved profile:
///
/// * a `stap` track with the host compute and invocation phases;
/// * a `cu` track with each descriptor's exact
///   fetch/decode/config/stream/compute/drain layout, anchored at the
///   phase's start (the gaps on `stap` are where the host idles while
///   the accelerators run);
/// * one `dram:<phase>` timeline per descriptor — the phase's dominant
///   traffic replayed through the profiled cycle engine in
///   [`STAP_DRAM_WINDOW_CYCLES`]-cycle windows;
/// * a windowed roofline [`Attribution`] against the Haswell host.
///
/// The profile's end time equals the run's total time, and the
/// attribution's windows cover 100% of it.
pub fn profile_on_mealib(cfg: &StapConfig) -> StapProfile {
    let rec = TraceRecorder::shared();
    let obs = Obs::new(rec);
    let (run, breakdown, runs) = run_mealib_pipeline(cfg, Some(&obs));
    let breakdown = breakdown.expect("breakdown collected when tracing");

    let layer = AcceleratorLayer::mealib_default();
    let t_ck = layer.mem().timing.t_ck;

    let mut profile = Profile::new();
    let mut cursor = Seconds::ZERO;
    let mut next_run = 0usize;
    for p in &run.phases {
        match p.executor {
            Executor::Host => {
                cursor = profile.interval("stap", Phase::Compute, p.name, cursor, p.time);
            }
            Executor::Invocation => {
                cursor = profile.interval("stap", Phase::Flush, p.name, cursor, p.time);
            }
            Executor::Accelerator(_) => {
                let start = cursor;
                cursor = Seconds::new(cursor.get() + p.time.get());
                let dr = &runs[next_run];
                next_run += 1;
                profile.intervals.extend(dr.intervals("cu", start));
                let params = accel_phase_params(cfg, p.name);
                let (trace, _scale) = generate_trace(&params, layer.hw(), STAP_DRAM_TRACE_BYTES);
                let opts = SimOptions::fast().profile(STAP_DRAM_WINDOW_CYCLES);
                let timeline = simulate(layer.mem(), &trace, &opts)
                    .expect("preset memory configuration validates")
                    .timeline
                    .expect("profiled run carries a timeline");
                profile.push_timeline(&format!("dram:{}", p.name), timeline, t_ck, start);
            }
        }
    }

    let total = profile.end_time();
    let window = Seconds::new(total.get() / STAP_ATTRIBUTION_WINDOWS);
    let attribution = Attribution::classify(&profile, &Platform::haswell().roofline(), window);
    StapProfile {
        run,
        breakdown,
        profile,
        attribution,
    }
}

/// Like [`run_on_mealib`], but additionally itemizes the run into a
/// [`Breakdown`] (phase taxonomy + DRAM/NoC/CU counters) and streams
/// every phase and counter into `obs`.
///
/// The breakdown's time and energy totals equal the returned
/// [`StapRun`]'s `total_time`/`total_energy` exactly: host phases map to
/// [`Phase::Compute`], invocation overhead to [`Phase::Flush`], and each
/// descriptor contributes its own plan/DMA/compute/drain split, with the
/// host's idle-while-accelerated energy folded into [`Phase::Dma`].
pub fn run_on_mealib_traced(cfg: &StapConfig, obs: &Obs) -> (StapRun, Breakdown) {
    let (run, breakdown, _) = run_mealib_pipeline(cfg, Some(obs));
    (run, breakdown.expect("breakdown collected when tracing"))
}

/// The shared pipeline model. With `obs == None` (the [`run_on_mealib`]
/// fast path) no [`Breakdown`] is assembled, no counters are replayed,
/// and no [`DescriptorRun`]s are retained, so the untraced run stays as
/// cheap as before instrumentation existed.
fn run_mealib_pipeline(
    cfg: &StapConfig,
    obs: Option<&Obs>,
) -> (StapRun, Option<Breakdown>, Vec<DescriptorRun>) {
    let platform = Platform::haswell();
    let layer = AcceleratorLayer::mealib_default();
    let cache = CacheModel::haswell();
    let mut phases = Vec::new();
    let mut breakdown = obs.map(|_| Breakdown::new());
    let mut runs: Vec<DescriptorRun> = Vec::new();

    // Descriptor 1: chained RESHP + FFT.
    let reshp = AccelParams::Reshp {
        rows: cfg.n_dop as u64,
        cols: (cfg.n_chan * cfg.ranges()) as u64,
        elem_bytes: 8,
    };
    let fft = AccelParams::Fft {
        n: cfg.n_dop as u64,
        batch: (cfg.n_chan * cfg.ranges()) as u64,
    };
    let run = run_tdl(
        &layer,
        "PASS in=a out=b { COMP RESHP params=\"r.para\" COMP FFT params=\"f.para\" }",
        &[("r.para", reshp), ("f.para", fft)],
    );
    let (t, e) = (run.total_time(), run.total_energy());
    if let Some(bd) = breakdown.as_mut() {
        bd.merge(&run.breakdown());
        runs.push(run);
    }
    phases.push(PhaseCost {
        name: "fftw (chain)",
        executor: Executor::Accelerator(AcceleratorKind::Fft),
        time: t,
        energy: e,
    });

    phases.extend(host_compute_phases(cfg, &platform));

    // Descriptor 2: the compacted cdotc loop.
    let dot = AccelParams::Dot {
        n: cfg.dof() as u64,
        incx: 1,
        incy: 1,
        complex: true,
    };
    let run = run_tdl(
        &layer,
        &format!(
            "LOOP {} {{ PASS in=w out=p {{ COMP DOT params=\"d.para\" }} }}",
            cfg.cdotc_calls()
        ),
        &[("d.para", dot)],
    );
    let (t, e) = (run.total_time(), run.total_energy());
    if let Some(bd) = breakdown.as_mut() {
        bd.merge(&run.breakdown());
        runs.push(run);
    }
    phases.push(PhaseCost {
        name: "cdotc",
        executor: Executor::Accelerator(AcceleratorKind::Dot),
        time: t,
        energy: e,
    });

    // Descriptor 3: the compacted saxpy loop.
    let axpy = AccelParams::Axpy {
        n: 2 * cfg.ranges() as u64,
        alpha: 1.0,
        incx: 1,
        incy: 1,
    };
    let run = run_tdl(
        &layer,
        &format!(
            "LOOP {} {{ PASS in=c out=d {{ COMP AXPY params=\"x.para\" }} }}",
            cfg.saxpy_calls()
        ),
        &[("x.para", axpy)],
    );
    let (t, e) = (run.total_time(), run.total_energy());
    if let Some(bd) = breakdown.as_mut() {
        bd.merge(&run.breakdown());
        runs.push(run);
    }
    phases.push(PhaseCost {
        name: "saxpy",
        executor: Executor::Accelerator(AcceleratorKind::Axpy),
        time: t,
        energy: e,
    });

    // Host-side invocation overhead: one wbinvd + driver round trip +
    // descriptor copy per descriptor (three descriptors total, §5.5).
    let flush = cache.flush_time() + cache.driver_latency();
    let copy = cache.descriptor_copy_time(4096);
    let inv_time = (flush + copy) * 3.0;
    let inv_energy = cache.flush_energy(inv_time);
    phases.push(PhaseCost {
        name: "invocation",
        executor: Executor::Invocation,
        time: inv_time,
        energy: inv_energy,
    });

    // The host idles (but stays powered) while the accelerators run; the
    // extra energy is charged to the DMA phase (zero extra time) so the
    // breakdown keeps reconciling with the run totals.
    for p in phases.iter_mut() {
        if matches!(p.executor, Executor::Accelerator(_)) {
            let idle = platform.package.idle.for_duration(p.time);
            p.energy += idle;
            if let Some(bd) = breakdown.as_mut() {
                bd.add_phase(Phase::Dma, Seconds::ZERO, idle);
            }
        }
    }
    if let (Some(bd), Some(obs)) = (breakdown.as_mut(), obs) {
        for p in &phases {
            match p.executor {
                Executor::Host => bd.add_phase(Phase::Compute, p.time, p.energy),
                Executor::Invocation => bd.add_phase(Phase::Flush, p.time, p.energy),
                Executor::Accelerator(_) => {}
            }
        }

        // DRAM/NoC/CU counters from the three descriptor runs.
        let rec = TraceRecorder::shared();
        let counter_obs = Obs::new(rec.clone());
        for run in &runs {
            run.record_into(&counter_obs);
        }
        bd.merge(&rec.breakdown());
        obs.record_breakdown(bd, cfg.name);
    }

    (
        StapRun {
            platform: "MEALib".into(),
            phases,
        },
        breakdown,
        runs,
    )
}

/// Figure 13 gains of MEALib over the optimized Haswell baseline.
pub fn gains(cfg: &StapConfig) -> (f64, f64) {
    let haswell = run_on_haswell(cfg);
    let mealib = run_on_mealib(cfg);
    let perf = haswell.total_time() / mealib.total_time();
    let edp = haswell.edp() / mealib.edp();
    (perf, edp)
}

/// Functional STAP outputs (scaled-down run).
#[derive(Debug, Clone, PartialEq)]
pub struct StapFunctional {
    /// Energy of the Doppler-processed datacube.
    pub doppler_energy: f32,
    /// Norm of the adaptive products.
    pub products_norm: f32,
    /// Modeled time of the accelerated calls.
    pub modeled_time: Seconds,
}

/// Runs a real (numerical) STAP pipeline on the MEALib API at the given
/// configuration. Keep the configuration tiny — the datacube is computed
/// element by element.
///
/// # Errors
///
/// Returns API errors (allocation, shape).
pub fn run_functional(cfg: &StapConfig, ml: &mut Mealib) -> Result<StapFunctional, MealibError> {
    let mut rng = StdRng::seed_from_u64(0x57A9_2015);
    let dof = cfg.dof();
    let batch = cfg.n_chan * cfg.ranges();
    let elems = cfg.datacube_elems();

    // Datacube: pulse-major complex samples.
    let datacube: Vec<Complex32> = (0..elems)
        .map(|_| Complex32::new(rng.gen::<f32>() - 0.5, rng.gen::<f32>() - 0.5))
        .collect();
    ml.alloc_c32("datacube", elems)?;
    ml.alloc_c32("doppler", elems)?;
    ml.write_c32("datacube", &datacube)?;

    // Doppler processing: batched FFT along pulses.
    let fft_report = ml.fft("datacube", "doppler", cfg.n_dop, batch, Direction::Forward)?;
    let doppler = ml.read_c32("doppler")?;
    let doppler_energy: f32 = doppler.iter().map(|z| z.norm_sqr()).sum();

    // Covariance + weights per (dop, block) on the host (compute-bound).
    let mut modeled_time = fft_report.time();
    let mut products_norm = 0.0f32;
    ml.alloc_c32("w", dof)?;
    ml.alloc_c32("s", dof)?;
    for dop in 0..cfg.n_dop.min(4) {
        for block in 0..cfg.n_blocks {
            // Snapshot matrix A: dof x tbs drawn from the doppler data.
            let a: Vec<Complex32> = (0..dof * cfg.tbs)
                .map(|i| doppler[(dop * cfg.tbs * dof + i) % doppler.len()])
                .collect();
            let mut cov = vec![Complex32::ZERO; dof * dof];
            blas3::cherk(dof, cfg.tbs, 1.0, &a, 0.0, &mut cov);
            for d in 0..dof {
                cov[d * dof + d] += Complex32::new(cfg.tbs as f32, 0.0);
            }
            let l = blas3::cpotrf(dof, &cov);
            for sv in 0..cfg.n_steering {
                // Steering vector.
                let mut v: Vec<Complex32> = (0..dof)
                    .map(|k| Complex32::from_polar_unit(0.37 * (k * (sv + 1)) as f32))
                    .collect();
                // Solve R w = v via L (forward) then Lᴴ (backward).
                blas3::ctrsm(
                    Side::Left,
                    Triangle::Lower,
                    dof,
                    Complex32::ONE,
                    &l,
                    &mut v,
                    1,
                );
                let mut lh = vec![Complex32::ZERO; dof * dof];
                for i in 0..dof {
                    for j in 0..dof {
                        lh[i * dof + j] = l[j * dof + i].conj();
                    }
                }
                blas3::ctrsm(
                    Side::Left,
                    Triangle::Upper,
                    dof,
                    Complex32::ONE,
                    &lh,
                    &mut v,
                    1,
                );
                // Adaptive product through the accelerated cdotc.
                ml.write_c32("w", &v)?;
                ml.write_c32("s", &a[..dof])?;
                let (prod, report) = ml.cdotc("w", "s")?;
                products_norm += prod.norm_sqr();
                modeled_time += report.time();
            }
            let _ = block;
        }
    }
    for name in ["datacube", "doppler", "w", "s"] {
        ml.free(name)?;
    }
    Ok(StapFunctional {
        doppler_energy,
        products_norm,
        modeled_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_geometry_scales() {
        let s = StapConfig::small();
        let m = StapConfig::medium();
        let l = StapConfig::large();
        assert!(s.datacube_elems() < m.datacube_elems());
        assert!(m.datacube_elems() < l.datacube_elems());
        assert_eq!(s.dof(), 80);
        assert!(
            l.cdotc_calls() > 1_000_000,
            "large STAP has millions of cdotc calls"
        );
    }

    #[test]
    fn fig13_gains_grow_with_dataset_size() {
        let (p_s, e_s) = gains(&StapConfig::small());
        let (p_m, e_m) = gains(&StapConfig::medium());
        let (p_l, e_l) = gains(&StapConfig::large());
        assert!(
            p_s < p_m && p_m < p_l,
            "perf gains {p_s:.2} {p_m:.2} {p_l:.2}"
        );
        assert!(
            e_s < e_m && e_m < e_l,
            "EDP gains {e_s:.2} {e_m:.2} {e_l:.2}"
        );
        // Paper: 2.0x/2.3x/3.2x perf; 4.5x/9.0x/10.2x EDP.
        assert!((1.2..6.0).contains(&p_l), "large perf gain {p_l:.2}");
        assert!((3.0..25.0).contains(&e_l), "large EDP gain {e_l:.2}");
        assert!(e_l > p_l, "EDP gain exceeds perf gain");
    }

    #[test]
    fn fig14_host_dominates_time_and_energy() {
        let run = run_on_mealib(&StapConfig::large());
        let host_time = run.time_fraction(|p| p.executor == Executor::Host);
        let host_energy = run.energy_fraction(|p| p.executor == Executor::Host);
        // Paper: host ≈ 75% of time, ≈ 90% of energy.
        assert!(
            (0.4..0.95).contains(&host_time),
            "host time share {host_time:.2}"
        );
        assert!(
            host_energy > host_time,
            "energy share {host_energy:.2} vs {host_time:.2}"
        );
    }

    #[test]
    fn fig14_dot_dominates_the_accelerator_share() {
        let run = run_on_mealib(&StapConfig::large());
        let accel_time: Seconds = run
            .phases
            .iter()
            .filter(|p| matches!(p.executor, Executor::Accelerator(_)))
            .map(|p| p.time)
            .sum();
        let dot_time: Seconds = run
            .phases
            .iter()
            .filter(|p| p.executor == Executor::Accelerator(AcceleratorKind::Dot))
            .map(|p| p.time)
            .sum();
        let share = dot_time / accel_time;
        // Paper: DOT ≈ 60% of accelerator time.
        assert!((0.3..0.999).contains(&share), "DOT share {share:.2}");
    }

    #[test]
    fn fig14_invocation_overhead_is_small() {
        let run = run_on_mealib(&StapConfig::large());
        let inv = run.time_fraction(|p| p.executor == Executor::Invocation);
        // Paper: 3.3% of accelerator time; certainly < 10% of total.
        assert!(inv < 0.10, "invocation share {inv:.3}");
    }

    #[test]
    fn traced_breakdown_reconciles_with_run_totals() {
        let obs_rec = TraceRecorder::shared();
        let (run, bd) = run_on_mealib_traced(&StapConfig::small(), &Obs::new(obs_rec.clone()));
        let dt = (bd.total_time().get() - run.total_time().get()).abs();
        let de = (bd.total_energy().get() - run.total_energy().get()).abs();
        assert!(dt <= 1e-9 * run.total_time().get(), "time drift {dt}");
        assert!(de <= 1e-9 * run.total_energy().get(), "energy drift {de}");
        assert!(bd.counter(mealib_obs::Counter::DramAct) > 0);
        assert!(bd.counter(mealib_obs::Counter::CuPasses) > 0);
        // The recorder saw the same story.
        let seen = obs_rec.breakdown();
        assert!((seen.total_time().get() - run.total_time().get()).abs() <= 1e-9);
    }

    #[test]
    fn stap_profile_reconciles_exports_and_attributes_all_time() {
        let sp = profile_on_mealib(&StapConfig::small());
        let total = sp.run.total_time();
        // The profile spans exactly the run's modeled time.
        assert!(
            (sp.profile.end_time().get() - total.get()).abs() <= 1e-9 * total.get(),
            "profile end {} vs run total {}",
            sp.profile.end_time(),
            total
        );
        // Attribution covers 100% of it with contiguous windows.
        assert_eq!(sp.attribution.coverage(), 1.0);
        assert!((sp.attribution.total.get() - total.get()).abs() <= 1e-9 * total.get());
        for pair in sp.attribution.windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        // Tracks: stap (host phases), cu (descriptor layout), and one
        // DRAM timeline per descriptor.
        let tracks = sp.profile.track_names();
        assert!(tracks.contains(&"stap".to_string()), "{tracks:?}");
        assert!(tracks.contains(&"cu".to_string()), "{tracks:?}");
        let dram = tracks.iter().filter(|t| t.starts_with("dram:")).count();
        assert_eq!(dram, 3, "{tracks:?}");
        // The export is Perfetto-loadable and passes the round-trip
        // checker, with counter samples from the DRAM timelines.
        let doc = sp.profile.to_chrome_trace();
        let summary = mealib_obs::validate_chrome_trace(&doc).expect("valid trace");
        assert!(summary.spans >= sp.profile.intervals.len());
        assert!(summary.counters > 0, "DRAM timelines must emit counters");
        // Fig 14: the host dominates STAP time, and the attribution's
        // time-resolved view agrees in aggregate.
        assert!(
            sp.attribution.share(mealib_obs::Bound::Compute) > 0.3,
            "compute share {:.3}",
            sp.attribution.share(mealib_obs::Bound::Compute)
        );
        // Breakdown still reconciles.
        let dt = (sp.breakdown.total_time().get() - total.get()).abs();
        assert!(dt <= 1e-9 * total.get(), "breakdown drift {dt}");
    }

    #[test]
    fn table4_lists_five_functions() {
        let t = table4();
        assert_eq!(t.len(), 5);
        assert_eq!(t.iter().filter(|(_, _, mem)| *mem).count(), 3);
    }

    #[test]
    fn functional_stap_produces_finite_results() {
        let mut ml = Mealib::builder().build();
        let out = run_functional(&StapConfig::tiny(), &mut ml).unwrap();
        assert!(out.doppler_energy.is_finite() && out.doppler_energy > 0.0);
        assert!(out.products_norm.is_finite() && out.products_norm > 0.0);
        assert!(out.modeled_time.get() > 0.0);
    }
}
