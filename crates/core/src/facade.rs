//! The [`Mealib`] handle: buffer management + descriptor invocation.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use mealib_accel::AccelParams;
use mealib_obs::{Breakdown, Obs, TraceRecorder};
use mealib_runtime::{AccPlan, RunReport, Runtime, RuntimeError, Sanitizer, StackId, VerifyMode};
use mealib_tdl::ParamBag;
use mealib_types::{Bytes, Complex32, Gflops, Joules, Seconds, Watts};

use crate::buffers;

/// Errors surfaced by the MEALib public API.
#[derive(Debug)]
#[non_exhaustive]
pub enum MealibError {
    /// Underlying runtime failure (allocation, TDL, descriptor, CU).
    Runtime(RuntimeError),
    /// A named buffer does not exist.
    UnknownBuffer {
        /// The missing name.
        name: String,
    },
    /// Data does not fit the named buffer.
    SizeMismatch {
        /// The buffer.
        name: String,
        /// Bytes required.
        needed: u64,
        /// Bytes available.
        have: u64,
    },
}

impl fmt::Display for MealibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MealibError::Runtime(e) => e.fmt(f),
            MealibError::UnknownBuffer { name } => write!(f, "no buffer named `{name}`"),
            MealibError::SizeMismatch { name, needed, have } => {
                write!(
                    f,
                    "buffer `{name}` holds {have} bytes but {needed} are required"
                )
            }
        }
    }
}

impl std::error::Error for MealibError {}

impl From<RuntimeError> for MealibError {
    fn from(e: RuntimeError) -> Self {
        MealibError::Runtime(e)
    }
}

/// The modeled cost of one library operation.
#[derive(Debug, Clone, PartialEq)]
pub struct OpReport {
    run: RunReport,
}

impl OpReport {
    pub(crate) fn new(run: RunReport) -> Self {
        Self { run }
    }

    /// End-to-end modeled time (invocation overhead + CU + accelerators).
    pub fn time(&self) -> Seconds {
        self.run.total_time()
    }

    /// End-to-end modeled energy.
    pub fn energy(&self) -> Joules {
        self.run.total_energy()
    }

    /// Average power.
    pub fn power(&self) -> Watts {
        self.energy().over(self.time())
    }

    /// Achieved throughput over the accelerated work.
    pub fn gflops(&self) -> Gflops {
        let flops = self.run.run.execution().map_or(0, |e| e.flops);
        Gflops::from_flops(flops as f64, self.time())
    }

    /// Phase/counter itemization of the invocation. The breakdown's
    /// time and energy totals equal [`OpReport::time`] /
    /// [`OpReport::energy`] exactly.
    pub fn breakdown(&self) -> &Breakdown {
        &self.run.breakdown
    }

    /// Windowed roofline attribution of the invocation: which resource
    /// (bandwidth, compute, overhead, idle) bound each slice of modeled
    /// time. Windows cover 100% of [`OpReport::time`].
    pub fn attribution(&self) -> &mealib_obs::Attribution {
        &self.run.attribution
    }

    /// The time-resolved phase-interval profile of the invocation
    /// (exportable via [`mealib_obs::Profile::to_chrome_trace`]).
    pub fn profile(&self) -> mealib_obs::Profile {
        self.run.profile()
    }

    /// The underlying runtime report (breakdowns, invocation overheads).
    pub fn run(&self) -> &RunReport {
        &self.run
    }
}

/// Configures and builds a [`Mealib`] handle.
///
/// Obtained from [`Mealib::builder`]; every knob is optional and
/// defaults match the paper's shipping configuration (one 32-vault
/// stack, [`VerifyMode::Enforce`], instrumentation off, plan cache of
/// [`mealib_runtime::DEFAULT_PLAN_CACHE_CAPACITY`] entries).
///
/// ```
/// use mealib::Mealib;
///
/// let ml = Mealib::builder().stacks(2).build();
/// assert_eq!(ml.runtime().driver().stack_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct MealibBuilder {
    runtime: Option<Runtime>,
    stacks: Option<usize>,
    verify: Option<VerifyMode>,
    obs: Option<Obs>,
    sanitizer: Option<Sanitizer>,
}

impl MealibBuilder {
    /// Uses an explicit, pre-configured runtime. Takes precedence over
    /// [`MealibBuilder::stacks`]; the other knobs still apply on top.
    pub fn runtime(mut self, rt: Runtime) -> Self {
        self.runtime = Some(rt);
        self
    }

    /// Number of memory stacks (stack 0 is the accelerators' LMS).
    pub fn stacks(mut self, stacks: usize) -> Self {
        self.stacks = Some(stacks);
        self
    }

    /// Static-verification policy for `acc_plan`.
    pub fn verify(mut self, mode: VerifyMode) -> Self {
        self.verify = Some(mode);
        self
    }

    /// Instrumentation sink for spans and counters.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Installs a recorder (shorthand for `obs(Obs::new(recorder))`).
    pub fn recorder(self, recorder: Arc<TraceRecorder>) -> Self {
        self.obs(Obs::new(recorder))
    }

    /// Installs a shadow-memory sanitizer ([`Sanitizer::active`]) that
    /// records every host access, flush, and descriptor execution and
    /// raises the MEA1xx dataflow diagnostics dynamically. Keep a clone
    /// of the handle to query [`Sanitizer::report`] afterwards.
    pub fn sanitizer(mut self, san: Sanitizer) -> Self {
        self.sanitizer = Some(san);
        self
    }

    /// Builds the handle.
    pub fn build(self) -> Mealib {
        let mut rt = match (self.runtime, self.stacks) {
            (Some(rt), _) => rt,
            (None, Some(stacks)) => Runtime::with_stack_count(stacks),
            (None, None) => Runtime::new(),
        };
        if let Some(mode) = self.verify {
            rt.set_verify_mode(mode);
        }
        if let Some(obs) = self.obs {
            rt.set_obs(obs);
        }
        if let Some(san) = self.sanitizer {
            rt.set_sanitizer(san);
        }
        Mealib {
            rt,
            logical: BTreeMap::new(),
            next_param: 0,
        }
    }
}

/// The MEALib library handle.
///
/// See the crate-level documentation for the usage flow.
#[derive(Debug, Clone)]
pub struct Mealib {
    rt: Runtime,
    /// Requested (logical) byte length of each buffer; allocations are
    /// page-rounded underneath.
    logical: BTreeMap<String, u64>,
    next_param: u64,
}

impl Mealib {
    /// Starts configuring a handle. `Mealib::builder().build()` yields
    /// the default configuration (32-vault stack, Haswell-class host).
    pub fn builder() -> MealibBuilder {
        MealibBuilder::default()
    }

    /// The underlying runtime (counters, driver, layer).
    pub fn runtime(&self) -> &Runtime {
        &self.rt
    }

    /// Allocates a named buffer of `len` `f32` elements.
    ///
    /// # Errors
    ///
    /// Returns a [`MealibError::Runtime`] on allocation failure.
    pub fn alloc_f32(&mut self, name: &str, len: usize) -> Result<(), MealibError> {
        self.alloc_bytes(name, len as u64 * 4)
    }

    /// Allocates a named buffer of `len` complex elements.
    ///
    /// # Errors
    ///
    /// Returns a [`MealibError::Runtime`] on allocation failure.
    pub fn alloc_c32(&mut self, name: &str, len: usize) -> Result<(), MealibError> {
        self.alloc_bytes(name, len as u64 * 8)
    }

    /// Allocates a named raw buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`MealibError::Runtime`] on allocation failure.
    pub fn alloc_bytes(&mut self, name: &str, bytes: u64) -> Result<(), MealibError> {
        self.rt.mem_alloc(name, Bytes::new(bytes))?;
        self.logical.insert(name.to_string(), bytes);
        Ok(())
    }

    /// Allocates a named `f32` buffer on an explicit memory stack
    /// (stack 0 is the accelerators' LMS; remote placements execute over
    /// the inter-stack links at reduced bandwidth, §3.3).
    ///
    /// # Errors
    ///
    /// Returns a [`MealibError::Runtime`] for unknown stacks or
    /// allocation failure.
    pub fn alloc_f32_on(
        &mut self,
        name: &str,
        len: usize,
        stack: StackId,
    ) -> Result<(), MealibError> {
        let bytes = len as u64 * 4;
        self.rt.mem_alloc_on(name, Bytes::new(bytes), stack)?;
        self.logical.insert(name.to_string(), bytes);
        Ok(())
    }

    /// Frees a named buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`MealibError::Runtime`] for unknown buffers.
    pub fn free(&mut self, name: &str) -> Result<(), MealibError> {
        self.rt.mem_free(name)?;
        self.logical.remove(name);
        Ok(())
    }

    /// Writes `f32` data into a buffer from offset zero.
    ///
    /// # Errors
    ///
    /// Returns [`MealibError::SizeMismatch`] if the data does not fit.
    pub fn write_f32(&mut self, name: &str, data: &[f32]) -> Result<(), MealibError> {
        self.write_raw(name, &buffers::f32_to_bytes(data))
    }

    /// Writes complex data into a buffer from offset zero.
    ///
    /// # Errors
    ///
    /// Returns [`MealibError::SizeMismatch`] if the data does not fit.
    pub fn write_c32(&mut self, name: &str, data: &[Complex32]) -> Result<(), MealibError> {
        self.write_raw(name, &buffers::c32_to_bytes(data))
    }

    /// Reads the whole logical extent of a buffer as `f32`s.
    ///
    /// # Errors
    ///
    /// Returns [`MealibError::UnknownBuffer`] for unknown names.
    pub fn read_f32(&self, name: &str) -> Result<Vec<f32>, MealibError> {
        Ok(buffers::bytes_to_f32(&self.read_raw(name)?))
    }

    /// Reads the whole logical extent of a buffer as complex values.
    ///
    /// # Errors
    ///
    /// Returns [`MealibError::UnknownBuffer`] for unknown names.
    pub fn read_c32(&self, name: &str) -> Result<Vec<Complex32>, MealibError> {
        Ok(buffers::bytes_to_c32(&self.read_raw(name)?))
    }

    /// Logical element count of a buffer, in `f32` units.
    ///
    /// # Errors
    ///
    /// Returns [`MealibError::UnknownBuffer`] for unknown names.
    pub fn len_f32(&self, name: &str) -> Result<usize, MealibError> {
        Ok(self.logical_bytes(name)? as usize / 4)
    }

    /// Logical element count of a buffer, in complex units.
    ///
    /// # Errors
    ///
    /// Returns [`MealibError::UnknownBuffer`] for unknown names.
    pub fn len_c32(&self, name: &str) -> Result<usize, MealibError> {
        Ok(self.logical_bytes(name)? as usize / 8)
    }

    /// Builds a plan from raw TDL and a parameter bag — the
    /// `mealib_acc_plan` entry point for compiler-generated code.
    ///
    /// # Errors
    ///
    /// Returns runtime errors for malformed TDL or unresolved buffers.
    pub fn plan(&mut self, tdl: &str, params: &ParamBag) -> Result<AccPlan, MealibError> {
        Ok(self.rt.acc_plan(tdl, params)?)
    }

    /// Like [`Mealib::plan`] but reuses a cached plan for identical
    /// (TDL, parameters) pairs — the descriptor-reuse pattern of
    /// Listing 2.
    ///
    /// # Errors
    ///
    /// Returns runtime errors for malformed TDL or unresolved buffers.
    pub fn plan_cached(&mut self, tdl: &str, params: &ParamBag) -> Result<AccPlan, MealibError> {
        Ok(self.rt.acc_plan_cached(tdl, params)?)
    }

    /// Writes back and invalidates the host cache (`wbinvd`), making
    /// accelerator stores visible to subsequent host reads. Returns the
    /// modeled flush time. Required between an operation and a host
    /// read-back for the access sequence to be coherence-clean under an
    /// installed [`Sanitizer`].
    pub fn sync(&mut self) -> Seconds {
        self.rt.cache_sync()
    }

    /// Executes a previously built plan (`mealib_acc_execute`), returning
    /// only the modeled cost — functional semantics for raw plans are the
    /// caller's business.
    ///
    /// # Errors
    ///
    /// Returns runtime errors (destroyed plan, CU failures).
    pub fn execute(&mut self, plan: &AccPlan) -> Result<RunReport, MealibError> {
        Ok(self.rt.acc_execute(plan)?)
    }

    pub(crate) fn write_raw(&mut self, name: &str, bytes: &[u8]) -> Result<(), MealibError> {
        let have = self.logical_bytes(name)?;
        if bytes.len() as u64 > have {
            return Err(MealibError::SizeMismatch {
                name: name.to_string(),
                needed: bytes.len() as u64,
                have,
            });
        }
        self.rt
            .driver_mut()
            .write(name, 0, bytes)
            .map_err(|e| MealibError::Runtime(RuntimeError::Driver(e)))
    }

    pub(crate) fn read_raw(&self, name: &str) -> Result<Vec<u8>, MealibError> {
        let len = self.logical_bytes(name)?;
        self.rt
            .driver()
            .read(name, 0, len)
            .map(<[u8]>::to_vec)
            .map_err(|e| MealibError::Runtime(RuntimeError::Driver(e)))
    }

    pub(crate) fn logical_bytes(&self, name: &str) -> Result<u64, MealibError> {
        self.logical
            .get(name)
            .copied()
            .ok_or_else(|| MealibError::UnknownBuffer {
                name: name.to_string(),
            })
    }

    /// Builds and executes a single-pass descriptor for one accelerator
    /// invocation, returning its modeled cost.
    ///
    /// This is the raw pricing entry point: unlike the typed operations
    /// ([`Mealib::saxpy`], [`Mealib::fft`], …) it does *not* compute
    /// functional results on the buffer contents — use it to cost
    /// hypothetical invocations or placements.
    ///
    /// # Errors
    ///
    /// Returns runtime errors (unknown buffers, malformed parameters).
    pub fn invoke(
        &mut self,
        params: AccelParams,
        input: &str,
        output: &str,
    ) -> Result<OpReport, MealibError> {
        self.invoke_chain(&[params], input, output)
    }

    /// Builds and executes one pass chaining several accelerators
    /// (modeled cost only; see [`Mealib::invoke`]).
    ///
    /// # Errors
    ///
    /// Returns runtime errors (unknown buffers, malformed parameters).
    pub fn invoke_chain(
        &mut self,
        stages: &[AccelParams],
        input: &str,
        output: &str,
    ) -> Result<OpReport, MealibError> {
        let mut bag = ParamBag::new();
        let mut comps = String::new();
        for (i, p) in stages.iter().enumerate() {
            let file = format!("p{}_{i}.para", self.next_param);
            comps.push_str(&format!(" COMP {} params=\"{file}\"", p.kind().keyword()));
            bag.insert(file, p.to_bytes());
        }
        self.next_param += 1;
        let tdl = format!("PASS in={input} out={output} {{{comps} }}");
        let plan = self.rt.acc_plan(&tdl, &bag)?;
        let run = self.rt.acc_execute(&plan)?;
        Ok(OpReport::new(run))
    }
}

impl Default for Mealib {
    fn default() -> Self {
        Self::builder().build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_write_read_round_trip() {
        let mut ml = Mealib::builder().build();
        ml.alloc_f32("x", 100).unwrap();
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        ml.write_f32("x", &data).unwrap();
        assert_eq!(ml.read_f32("x").unwrap(), data);
        assert_eq!(ml.len_f32("x").unwrap(), 100);
        ml.free("x").unwrap();
        assert!(matches!(
            ml.read_f32("x"),
            Err(MealibError::UnknownBuffer { .. })
        ));
    }

    #[test]
    fn complex_buffers_round_trip() {
        let mut ml = Mealib::builder().build();
        ml.alloc_c32("z", 8).unwrap();
        let data: Vec<Complex32> = (0..8).map(|i| Complex32::new(i as f32, -1.0)).collect();
        ml.write_c32("z", &data).unwrap();
        assert_eq!(ml.read_c32("z").unwrap(), data);
        assert_eq!(ml.len_c32("z").unwrap(), 8);
    }

    #[test]
    fn oversized_write_is_rejected() {
        let mut ml = Mealib::builder().build();
        ml.alloc_f32("x", 4).unwrap();
        let err = ml.write_f32("x", &[0.0; 5]).unwrap_err();
        assert!(matches!(
            err,
            MealibError::SizeMismatch {
                needed: 20,
                have: 16,
                ..
            }
        ));
    }

    #[test]
    fn remote_placement_is_visible_and_slower() {
        let mut ml = Mealib::builder().stacks(2).build();
        ml.alloc_f32("x", 1 << 22).unwrap();
        ml.alloc_f32_on("xr", 1 << 22, StackId(1)).unwrap();
        ml.alloc_f32("y", 1 << 22).unwrap();
        ml.alloc_f32_on("yr", 1 << 22, StackId(1)).unwrap();
        let op = AccelParams::Axpy {
            n: 1 << 22,
            alpha: 1.0,
            incx: 1,
            incy: 1,
        };
        let local = ml.invoke(op, "x", "y").unwrap();
        let remote = ml.invoke(op, "xr", "yr").unwrap();
        assert!(
            remote.time().get() > local.time().get(),
            "remote {} vs local {}",
            remote.time(),
            local.time()
        );
    }

    #[test]
    fn invoke_produces_nonzero_cost() {
        let mut ml = Mealib::builder().build();
        ml.alloc_f32("x", 1 << 16).unwrap();
        ml.alloc_f32("y", 1 << 16).unwrap();
        let report = ml
            .invoke(
                AccelParams::Axpy {
                    n: 1 << 16,
                    alpha: 1.0,
                    incx: 1,
                    incy: 1,
                },
                "x",
                "y",
            )
            .unwrap();
        assert!(report.time().get() > 0.0);
        assert!(report.energy().get() > 0.0);
        assert!(report.power().get() > 0.0);
        assert_eq!(ml.runtime().counters().executions, 1);
        // Time-resolved views ride along on every report.
        assert_eq!(report.attribution().coverage(), 1.0);
        let p = report.profile();
        assert!((p.end_time().get() - report.time().get()).abs() <= 1e-9 * report.time().get());
        mealib_obs::validate_chrome_trace(&p.to_chrome_trace()).expect("exportable");
    }

    #[test]
    fn builder_knobs_reach_the_runtime() {
        let rec = mealib_obs::TraceRecorder::shared();
        let mut ml = Mealib::builder()
            .verify(VerifyMode::Off)
            .recorder(rec.clone())
            .build();
        assert_eq!(ml.runtime().verify_mode(), VerifyMode::Off);
        assert!(ml.runtime().obs().enabled());

        ml.alloc_f32("x", 1 << 12).unwrap();
        ml.alloc_f32("y", 1 << 12).unwrap();
        let report = ml
            .invoke(
                AccelParams::Axpy {
                    n: 1 << 12,
                    alpha: 1.0,
                    incx: 1,
                    incy: 1,
                },
                "x",
                "y",
            )
            .unwrap();

        // The invocation's breakdown reconciles with the report totals
        // and reaches the installed recorder.
        let bd = report.breakdown();
        assert!((bd.total_time().get() - report.time().get()).abs() <= 1e-12);
        assert!((bd.total_energy().get() - report.energy().get()).abs() <= 1e-9);
        let seen = rec.breakdown();
        assert!(seen.counter(mealib_obs::Counter::AllocBytes) >= 2 * (4 << 12));
        assert!(seen.counter(mealib_obs::Counter::CacheFlushes) >= 1);
    }

    #[test]
    fn sanitizer_knob_shadows_the_whole_flow() {
        let san = Sanitizer::active();
        let mut ml = Mealib::builder().sanitizer(san.clone()).build();
        ml.alloc_f32("x", 256).unwrap();
        ml.alloc_f32("y", 256).unwrap();
        ml.write_f32("x", &vec![1.0; 256]).unwrap();
        ml.write_f32("y", &vec![10.0; 256]).unwrap();
        ml.saxpy(2.0, "x", "y").unwrap();
        // Device wrote `y`; syncing before the read-back keeps the host
        // out of its stale cached lines.
        ml.sync();
        assert!(ml.read_f32("y").unwrap().iter().all(|&v| v == 12.0));
        let report = san.final_report();
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn sanitizer_flags_unsynced_read_back() {
        let san = Sanitizer::active();
        let mut ml = Mealib::builder().sanitizer(san.clone()).build();
        ml.alloc_f32("x", 64).unwrap();
        ml.alloc_f32("y", 64).unwrap();
        ml.write_f32("x", &vec![1.0; 64]).unwrap();
        ml.write_f32("y", &vec![0.0; 64]).unwrap();
        ml.saxpy(1.0, "x", "y").unwrap();
        // No sync: the host may observe pre-accelerator bytes.
        let _ = ml.read_f32("y").unwrap();
        assert!(san.report().has_code(mealib_types::ErrorCode::DfStaleRead));
    }

    #[test]
    fn raw_plan_interface_works() {
        let mut ml = Mealib::builder().build();
        ml.alloc_c32("a", 4096).unwrap();
        ml.alloc_c32("b", 4096).unwrap();
        let mut bag = ParamBag::new();
        bag.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 1024, batch: 4 }.to_bytes(),
        );
        let plan = ml
            .plan("PASS in=a out=b { COMP FFT params=\"fft.para\" }", &bag)
            .unwrap();
        let run = ml.execute(&plan).unwrap();
        assert!(run.total_time().get() > 0.0);
    }
}
