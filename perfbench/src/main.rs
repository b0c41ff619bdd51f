//! `mealib-perfbench`: the repository benchmark.
//!
//! ```text
//! mealib-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace 0|1] [--bless]
//! ```
//!
//! Each run builds one workload's inputs from the seed (timed as set-up),
//! measures it for `--seconds` of host time with tracing off and
//! `jobs = 1`, and checks every output against the program's contracts
//! and, on the default seed, against the modeled outputs pinned under
//! `perfbench/pins/`. `--trace 1` instead runs the traced breakdown:
//! spans around every layer call, per-layer metrics, a `jobs = 2`
//! comparison, and a Chrome trace written next to the executable.
//! `--bless` rewrites the pin file from this run (default seed only).
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! Any failed operation makes the exit status 1; bad usage makes it 2.
//! See `perfbench/README.md` for the workloads and the layer map.

mod lint;
mod replay;
mod serving;
mod spans;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mealib_obs::json::Object;

/// The seed whose modeled outputs are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Every workload, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["serve_light", "serve_heavy", "trace_replay", "lint_corpus"];

/// Set-up repeats until it has run this many times and for
/// [`SETUP_MIN_S`], and an even number of times; `setup_s` is the median.
const SETUP_REPS: usize = 4;

/// Least total set-up seconds per run, so that a set-up of well under a
/// millisecond is still timed over many repetitions.
const SETUP_MIN_S: f64 = 0.5;

/// Fewest timed iterations of a run, even past `--seconds`.
const MIN_ITERS: usize = 3;

/// One run's parameters.
pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub bless: bool,
}

/// Counts operations and the ones that failed, explaining the first few
/// failures on standard error.
#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// Records `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records `n` failed operations, explained by `why`.
    pub fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        if n == 0 {
            return;
        }
        if self.failed < 20 {
            eprintln!("FAILED: {}", why());
        }
        self.failed += n;
    }

    /// Fails one operation unless `ok`.
    pub fn ensure(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(1, why);
        }
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// Median of `xs` (the mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `xs`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when there is nothing to divide.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`], and returns the median wall seconds with the last
/// result. The count is even, so half the repetitions ran on a fresh
/// thread (see [`alternating`]) and the kept result always comes from
/// one: which allocator arena holds it moved the peak resident set by
/// 10% between runs.
pub fn timed_setup<T: Send>(setup: impl Fn() -> T + Sync) -> (f64, T) {
    let mut walls: Vec<f64> = Vec::new();
    loop {
        let (wall, out) = alternating(walls.len(), || timed(|| std::hint::black_box(setup())));
        walls.push(wall);
        if walls.len() >= SETUP_REPS
            && walls.len().is_multiple_of(2)
            && walls.iter().sum::<f64>() >= SETUP_MIN_S
        {
            return (median(&walls), out);
        }
    }
}

/// Runs repetition `k` of a measurement: on this thread when `k` is
/// even, on a fresh thread when it is odd. The scheduler puts a thread
/// spawned while this one runs on another core, so the repetitions of a
/// run are spread over the host's cores. On a 2-core host shared with
/// other machines, one core ran the lint set-up 20% slower than the other
/// for minutes at a time, and a process that stayed on the core it
/// started on carried that into every number it reported.
fn alternating<T: Send>(k: usize, f: impl FnOnce() -> T + Send) -> T {
    if k.is_multiple_of(2) {
        f()
    } else {
        std::thread::scope(|s| {
            s.spawn(f)
                .join()
                .expect("a measured repetition does not panic")
        })
    }
}

/// Runs `iter` until it has measured `seconds` and at least
/// [`MIN_ITERS`] iterations are done, spreading them over the host's
/// cores (see [`alternating`]). `iter` gets the iteration index, does
/// one iteration of the workload with its checks, and returns the
/// seconds of the work alone. Returns each iteration's seconds and the
/// peak resident set after the first iteration: the footprint of set-up
/// plus one run of the workload, which later iterations only repeat.
pub fn timed_iters(
    seconds: f64,
    mut iter: impl FnMut(usize) -> f64 + Send,
) -> Result<(Vec<f64>, f64), String> {
    let mut walls: Vec<f64> = vec![iter(0)];
    let rss_mb = peak_rss_mb()?;
    while walls.len() < MIN_ITERS || walls.iter().sum::<f64>() < seconds {
        let k = walls.len();
        walls.push(alternating(k, || iter(k)));
    }
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("iteration walls (s): {}", shown.join(" "));
    Ok((walls, rss_mb))
}

/// Operations per second of the fastest iteration, printed as `label`
/// beside the rate of the median iteration. Other work on a shared host
/// only adds time to an iteration, so the fastest one is the steadiest
/// estimate of the code's own cost: on a 2-core host, the fastest of a
/// run's replay passes repeated across runs within 2% where the median
/// pass moved by 14%.
pub fn throughput(label: &str, ops: usize, walls: &[f64]) -> f64 {
    let best = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let rate = ops as f64 / best;
    println!(
        "{label} = {rate} 1/s (fastest of {} iterations of {ops} operations; median iteration {} 1/s)",
        walls.len(),
        ops as f64 / median(walls)
    );
    rate
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

/// A small deterministic generator (SplitMix64) for seeded orderings.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// 64-bit FNV-1a digest, for pinning long outputs compactly.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn pin_path(workload: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("pins")
        .join(format!("{workload}.pin"))
}

/// Compares `got` (key → pinned text) with the workload's pin file,
/// failing one operation per differing key, or rewrites the file under
/// `--bless`.
pub fn check_pins(
    cfg: &RunCfg,
    got: &BTreeMap<String, String>,
    check: &mut Checker,
) -> Result<(), String> {
    let path = pin_path(&cfg.workload);
    if cfg.bless {
        let body: String = got.iter().map(|(k, v)| format!("{k}\t{v}\n")).collect();
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("blessed {} keys into {}", got.len(), path.display());
        return Ok(());
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut want = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        let (k, v) = line
            .split_once('\t')
            .ok_or_else(|| format!("{}: malformed pin line {line:?}", path.display()))?;
        want.insert(k.to_string(), v.to_string());
    }
    let mut differing = 0u64;
    for key in want
        .keys()
        .chain(got.keys().filter(|k| !want.contains_key(*k)))
    {
        let (w, g) = (want.get(key), got.get(key));
        if w != g {
            if differing < 5 {
                eprintln!("pin {key}:\n  want {w:?}\n  got  {g:?}");
            }
            differing += 1;
        }
    }
    check.fail(differing, || {
        format!(
            "{differing} of {} pinned outputs differ from {}",
            want.len(),
            path.display()
        )
    });
    Ok(())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Where the traced run writes its Chrome trace: beside the executable,
/// inside the build directory.
fn artifact_path(cfg: &RunCfg) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("trace_{}_seed{}.json", cfg.workload, cfg.seed))
}

/// Validates the recorder's Chrome trace, writes it to
/// [`artifact_path`], and prints self time per layer.
pub fn finish_trace(
    cfg: &RunCfg,
    rec: &spans::Recorder,
    check: &mut Checker,
) -> Result<(), String> {
    let doc = rec.chrome_trace();
    check.attempt(1);
    match mealib_obs::validate_chrome_trace(&doc) {
        Ok(s) => check.ensure(s.spans == rec.spans().len(), || {
            format!(
                "chrome trace holds {} of {} spans",
                s.spans,
                rec.spans().len()
            )
        }),
        Err(e) => check.fail(1, || format!("chrome trace does not validate: {e}")),
    }
    let path = artifact_path(cfg);
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace: {} spans -> {}", rec.spans().len(), path.display());
    println!("self time per layer:");
    for (name, s) in rec.self_times() {
        println!("  {name:<24} {s:.6} s");
    }
    Ok(())
}

/// Every end-to-end metric with its unit, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them.
/// A traced run reports each one; a layer its workload never calls reads 0.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = [
        ("serve.catalogue_s", "s"),
        ("serve.traffic_s", "s"),
        ("serve.loop_s", "s"),
        ("serve.manifest_s", "s"),
        ("serve.unattributed_s", "s"),
        ("serve.attributed_share", "ratio"),
        ("verify.parse_s", "s"),
        ("verify.compose_s", "s"),
        ("verify.passes_s", "s"),
        ("verify.certify_calls", "count"),
        ("verify.certify_p50_ms", "ms"),
        ("verify.certify_p99_ms", "ms"),
        ("verify.admit_ratio", "ratio"),
        ("verify.elaborate_s", "s"),
        ("verify.tdl_s", "s"),
        ("verify.dataflow_s", "s"),
        ("verify.bounds_s", "s"),
        ("verify.lint_p50_ms", "ms"),
        ("verify.lint_p90_ms", "ms"),
        ("runtime.plan_s", "s"),
        ("runtime.plan_hit_ratio", "ratio"),
        ("memsim.interleave_s", "s"),
        ("memsim.replay_s", "s"),
        ("memsim.replay_bursts_per_s", "1/s"),
        ("memsim.replay_jobs2_speedup", "ratio"),
        ("memsim.fast.jobs2_speedup", "ratio"),
        ("telemetry.overhead_s", "s"),
        ("telemetry.export_s", "s"),
        ("accel.generate_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for s in replay::stream_names() {
        all.push((format!("memsim.fast.{s}.bursts_per_s"), "1/s"));
        all.push((format!("memsim.fast_over_cycle.{s}"), "ratio"));
    }
    all
}

/// Checks the workload reported only listed metrics with their listed
/// units, and fills every listed metric it did not report with 0.
fn complete(metrics: &mut Metrics, listed: &[(String, &'static str)]) -> Result<(), String> {
    for (name, _, unit) in &metrics.0 {
        if !listed.iter().any(|(n, u)| n == name && u == unit) {
            return Err(format!("metric {name} [{unit}] is not in the metric list"));
        }
    }
    for (name, unit) in listed {
        if !metrics.0.iter().any(|(n, _, _)| n == name) {
            metrics.put(name.clone(), 0.0, unit);
        }
    }
    Ok(())
}

fn parse_args() -> Result<RunCfg, String> {
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--bless" {
            cfg.bless = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            cfg.workload
        ));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if cfg.bless && (cfg.seed != DEFAULT_SEED || cfg.trace) {
        return Err(format!(
            "--bless pins the untraced default seed {DEFAULT_SEED}"
        ));
    }
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: mealib-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--bless]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload={} seed={} seconds={} trace={} jobs=1 cores={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut check = Checker::default();
    let mut metrics = Metrics::default();
    let run = match cfg.workload.as_str() {
        "serve_light" | "serve_heavy" => serving::run(&cfg, &mut check, &mut metrics),
        "trace_replay" => replay::run(&cfg, &mut check, &mut metrics),
        _ => lint::run(&cfg, &mut check, &mut metrics),
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    let listed = if cfg.trace {
        per_layer()
    } else {
        END_TO_END.map(|(n, u)| (n.to_string(), u)).to_vec()
    };
    if let Err(e) = complete(&mut metrics, &listed) {
        eprintln!("perfbench: {e}");
        return ExitCode::from(2);
    }
    println!(
        "error_rate = {} ({} failed of {} attempted)",
        ratio(check.failed as f64, check.attempted as f64),
        check.failed,
        check.attempted
    );
    let mut m = Object::new();
    for (name, value, unit) in &metrics.0 {
        println!("{name} = {value} {unit}");
        let mut v = Object::new();
        v.num("value", *value).str("unit", unit);
        m.raw(name, v.render());
    }
    let correct = check.failed == 0 && check.attempted > 0;
    let mut out = Object::new();
    out.bool("correct", correct)
        .int("attempted", check.attempted.max(1))
        .int("failed", check.failed)
        .raw("metrics", m.render());
    println!("{}", out.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
