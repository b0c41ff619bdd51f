//! Accelerator control runtime routines (Listing 2).
//!
//! ```c
//! acc_plan mealib_acc_plan(const char *tdl, ...);
//! void     mealib_acc_execute(acc_plan p);
//! void     mealib_acc_destroy(acc_plan p);
//! ```
//!
//! [`Runtime::acc_plan`] parses the TDL string, resolves buffer names
//! against the driver's allocation table, and encodes the binary
//! descriptor. [`Runtime::acc_execute`] charges the invocation overhead
//! (cache write-back + descriptor copy), then hands the descriptor to
//! the Configuration Unit model. Plans are reusable, matching the
//! paper's "the accelerator descriptor can be reused to invoke the same
//! accelerator(s) … multiple times".

use std::fmt;

use mealib_accel::cu::{run_descriptor, CuCostModel, CuError, DescriptorRun};
use mealib_accel::AcceleratorLayer;
use mealib_obs::{Attribution, Breakdown, Counter, CounterKey, Obs, Phase, Profile};
use mealib_tdl::{parse_with_lines, Descriptor, DescriptorError, ParamBag, ParseError, TdlProgram};
use mealib_types::{Bytes, Joules, Report, Seconds};
use mealib_verify::TdlLimits;

use mealib_memsim::MemoryConfig;
use mealib_tdl::TdlItem;

use crate::cache::CacheModel;
use crate::driver::{DriverError, MealibDriver, StackId};
use crate::sanitizer::Sanitizer;

/// How strictly [`Runtime::acc_plan`] applies the `mealib-verify`
/// static passes to each plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyMode {
    /// Run the passes; coded errors fail the plan (the default).
    #[default]
    Enforce,
    /// Skip verification entirely (escape hatch for deliberately
    /// malformed inputs, e.g. fault-injection studies).
    Off,
}

/// Errors from the control runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// TDL parse failure.
    Parse(ParseError),
    /// Static verification found coded errors (`MEA0xx`).
    Verify(Report),
    /// Descriptor encoding failure (missing params/buffers).
    Descriptor(DescriptorError),
    /// Driver failure (allocation, bounds, command space).
    Driver(DriverError),
    /// Configuration Unit failure while executing.
    Cu(CuError),
    /// The plan was already destroyed.
    PlanDestroyed,
    /// The running total of dynamic invocations
    /// ([`RuntimeCounters::invocations`]) would overflow `u64`.
    InvocationOverflow,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Parse(e) => write!(f, "TDL parse error: {e}"),
            RuntimeError::Verify(r) => write!(f, "static verification failed:\n{r}"),
            RuntimeError::Descriptor(e) => write!(f, "descriptor error: {e}"),
            RuntimeError::Driver(e) => write!(f, "driver error: {e}"),
            RuntimeError::Cu(e) => write!(f, "configuration unit error: {e}"),
            RuntimeError::PlanDestroyed => f.write_str("accelerator plan already destroyed"),
            RuntimeError::InvocationOverflow => {
                f.write_str("running invocation count would overflow u64")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<ParseError> for RuntimeError {
    fn from(e: ParseError) -> Self {
        RuntimeError::Parse(e)
    }
}

impl From<DescriptorError> for RuntimeError {
    fn from(e: DescriptorError) -> Self {
        RuntimeError::Descriptor(e)
    }
}

impl From<DriverError> for RuntimeError {
    fn from(e: DriverError) -> Self {
        RuntimeError::Driver(e)
    }
}

impl From<CuError> for RuntimeError {
    fn from(e: CuError) -> Self {
        RuntimeError::Cu(e)
    }
}

/// A prepared accelerator plan (the `acc_plan` of Listing 2).
#[derive(Debug, Clone)]
pub struct AccPlan {
    id: u64,
    program: TdlProgram,
    descriptor: Descriptor,
    destroyed: bool,
}

impl AccPlan {
    /// The TDL program behind this plan.
    pub fn program(&self) -> &TdlProgram {
        &self.program
    }

    /// The encoded descriptor image.
    pub fn descriptor(&self) -> &Descriptor {
        &self.descriptor
    }

    /// Plan identity (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// The modeled cost of one `mealib_acc_execute`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Host-side invocation overhead: `wbinvd` + descriptor copy.
    pub invocation_time: Seconds,
    /// Energy of the host-side overhead.
    pub invocation_energy: Joules,
    /// The Configuration Unit's run (setup + accelerator execution).
    pub run: DescriptorRun,
    /// Per-phase attribution of this invocation; its phase sums equal
    /// [`RunReport::total_time`] / `total_energy` exactly.
    pub breakdown: Breakdown,
    /// Windowed roofline attribution of the invocation against the
    /// layer it actually ran on; its windows tile
    /// `[0, total_time())` with 100% coverage.
    pub attribution: Attribution,
}

/// Number of attribution windows an invocation's modeled time is split
/// into.
const ATTRIBUTION_WINDOWS: f64 = 64.0;

/// The time-resolved interval layout of one invocation: the host-side
/// flush + descriptor copy on a `runtime` track, then the CU run's exact
/// fetch/decode/config/stream/compute/drain layout on a `cu` track.
fn invocation_profile(invocation_time: Seconds, run: &DescriptorRun) -> Profile {
    let mut p = Profile::new();
    p.interval(
        "runtime",
        Phase::Flush,
        "invocation",
        Seconds::ZERO,
        invocation_time,
    );
    p.intervals.extend(run.intervals("cu", invocation_time));
    p
}

impl RunReport {
    /// End-to-end time of the invocation.
    pub fn total_time(&self) -> Seconds {
        self.invocation_time + self.run.total_time()
    }

    /// The time-resolved phase-interval profile of this invocation
    /// (tracks `runtime` and `cu`); its end time equals
    /// [`RunReport::total_time`].
    pub fn profile(&self) -> Profile {
        invocation_profile(self.invocation_time, &self.run)
    }

    /// End-to-end energy of the invocation.
    pub fn total_energy(&self) -> Joules {
        self.invocation_energy + self.run.total_energy()
    }

    /// Overhead (host + CU setup) as a fraction of total time.
    pub fn overhead_time_fraction(&self) -> f64 {
        (self.invocation_time + self.run.setup_time).get() / self.total_time().get()
    }
}

/// Cumulative runtime statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RuntimeCounters {
    /// Plans created.
    pub plans_created: u64,
    /// Plans destroyed.
    pub plans_destroyed: u64,
    /// `acc_execute` calls.
    pub executions: u64,
    /// Dynamic accelerator invocations performed.
    pub invocations: u64,
    /// Plan-cache hits ([`Runtime::acc_plan_cached`]).
    pub plan_cache_hits: u64,
}

impl RuntimeCounters {
    /// Exports every counter into a metrics registry under the
    /// `runtime_` prefix (absolute values — these are cumulative
    /// already).
    pub fn export_into(&self, reg: &mut mealib_obs::MetricsRegistry) {
        let pairs: [(&str, &str, u64); 5] = [
            (
                "runtime_plans_created_total",
                "Plans created",
                self.plans_created,
            ),
            (
                "runtime_plans_destroyed_total",
                "Plans destroyed",
                self.plans_destroyed,
            ),
            (
                "runtime_executions_total",
                "acc_execute calls",
                self.executions,
            ),
            (
                "runtime_invocations_total",
                "Dynamic accelerator invocations",
                self.invocations,
            ),
            (
                "runtime_plan_cache_hits_total",
                "Plan-cache hits",
                self.plan_cache_hits,
            ),
        ];
        for (name, help, value) in pairs {
            reg.describe(name, help);
            reg.store(name, &[], value);
        }
    }
}

/// Capacity of the plan cache (entries).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

/// FIFO plan cache of at most [`DEFAULT_PLAN_CACHE_CAPACITY`] entries.
#[derive(Debug, Clone, Default)]
struct PlanCache {
    plans: std::collections::BTreeMap<String, AccPlan>,
    /// Insertion order of `plans` keys (FIFO eviction).
    order: std::collections::VecDeque<String>,
}

impl PlanCache {
    fn get(&self, key: &str) -> Option<AccPlan> {
        self.plans.get(key).cloned()
    }

    fn insert(&mut self, key: String, plan: AccPlan) {
        if self.plans.len() >= DEFAULT_PLAN_CACHE_CAPACITY {
            if let Some(oldest) = self.order.pop_front() {
                self.plans.remove(&oldest);
            }
        }
        self.plans.insert(key.clone(), plan);
        self.order.push_back(key);
    }

    fn clear(&mut self) {
        self.plans.clear();
        self.order.clear();
    }

    fn len(&self) -> usize {
        self.plans.len()
    }
}

/// The MEALib runtime: driver + cache model + CU cost model + layer.
#[derive(Debug, Clone)]
pub struct Runtime {
    driver: MealibDriver,
    cache: CacheModel,
    cu_cost: CuCostModel,
    layer: AcceleratorLayer,
    counters: RuntimeCounters,
    next_plan_id: u64,
    plan_cache: PlanCache,
    verify_mode: VerifyMode,
    verify_limits: TdlLimits,
    last_verify: Option<Report>,
    obs: Obs,
    sanitizer: Sanitizer,
}

impl Runtime {
    /// Creates a runtime over the default stack and layer.
    pub fn new() -> Self {
        Self::with_parts(
            MealibDriver::with_default_stack(),
            CacheModel::haswell(),
            CuCostModel::default(),
            AcceleratorLayer::mealib_default(),
        )
    }

    /// Creates a runtime over `stacks` memory stacks of 2 GiB each
    /// (stack 0 is the accelerators' LMS).
    ///
    /// # Panics
    ///
    /// Panics if `stacks` is zero.
    pub fn with_stack_count(stacks: usize) -> Self {
        assert!(stacks > 0, "at least one memory stack required");
        let regions = (0..stacks)
            .map(|i| {
                mealib_types::AddrRange::new(
                    mealib_types::PhysAddr::new((8 + 2 * i as u64) << 30),
                    Bytes::from_gib(2),
                )
            })
            .collect();
        Self::with_parts(
            MealibDriver::with_stacks(regions, Bytes::from_mib(1)),
            CacheModel::haswell(),
            CuCostModel::default(),
            AcceleratorLayer::mealib_default(),
        )
    }

    /// Creates a runtime from explicit parts.
    pub fn with_parts(
        driver: MealibDriver,
        cache: CacheModel,
        cu_cost: CuCostModel,
        layer: AcceleratorLayer,
    ) -> Self {
        Self {
            driver,
            cache,
            cu_cost,
            layer,
            counters: RuntimeCounters::default(),
            next_plan_id: 1,
            plan_cache: PlanCache::default(),
            verify_mode: VerifyMode::default(),
            verify_limits: TdlLimits::default(),
            last_verify: None,
            obs: Obs::off(),
            sanitizer: Sanitizer::off(),
        }
    }

    /// Installs (or clears) the shadow-memory sanitizer. The same
    /// handle is pushed into the driver so host `write`/`read` accesses
    /// are recorded, and it is seeded with the live allocation table so
    /// the overlap pass sees real extents.
    pub fn set_sanitizer(&mut self, san: Sanitizer) {
        san.set_extents(self.driver.extent_table());
        self.driver.set_sanitizer(san.clone());
        self.sanitizer = san;
    }

    /// The current sanitizer handle.
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// Installs (or clears) the observability handle events are
    /// recorded through.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The current observability handle.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Live entries in the plan cache — together with
    /// [`RuntimeCounters::plan_cache_hits`] this is the descriptor-reuse
    /// telemetry the serving layer reports per run.
    pub fn plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Sets how strictly plans are statically verified (default:
    /// [`VerifyMode::Enforce`]).
    pub fn set_verify_mode(&mut self, mode: VerifyMode) {
        self.verify_mode = mode;
    }

    /// The current verification mode.
    pub fn verify_mode(&self) -> VerifyMode {
        self.verify_mode
    }

    /// The verification report of the most recent [`Runtime::acc_plan`]
    /// (including warnings that did not fail the plan). `None` before
    /// the first plan or when verification is [`VerifyMode::Off`].
    pub fn last_verify_report(&self) -> Option<&Report> {
        self.last_verify.as_ref()
    }

    /// The driver (buffer allocation and host access).
    pub fn driver(&self) -> &MealibDriver {
        &self.driver
    }

    /// Mutable driver access.
    pub fn driver_mut(&mut self) -> &mut MealibDriver {
        &mut self.driver
    }

    /// The accelerator layer.
    pub fn layer(&self) -> &AcceleratorLayer {
        &self.layer
    }

    /// Cumulative counters.
    pub fn counters(&self) -> &RuntimeCounters {
        &self.counters
    }

    /// `mealib_mem_alloc`: allocates a named, physically contiguous,
    /// host-mapped buffer.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError::Driver`] on allocation failure.
    pub fn mem_alloc(&mut self, name: &str, bytes: Bytes) -> Result<(), RuntimeError> {
        self.driver.alloc(name, bytes)?;
        self.obs.count(Counter::AllocBytes, bytes.get());
        self.obs.count(Counter::DriverCalls, 1);
        Ok(())
    }

    /// `mealib_mem_alloc` with an explicit stack: "The memory stack used
    /// for allocation can also be explicitly specified during memory
    /// allocation" (§3.5).
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError::Driver`] for unknown stacks or
    /// allocation failure.
    pub fn mem_alloc_on(
        &mut self,
        name: &str,
        bytes: Bytes,
        stack: StackId,
    ) -> Result<(), RuntimeError> {
        self.driver.alloc_on(name, bytes, stack)?;
        self.obs.count(Counter::AllocBytes, bytes.get());
        self.obs.count(Counter::DriverCalls, 1);
        Ok(())
    }

    /// `mealib_mem_free`.
    ///
    /// # Errors
    ///
    /// Returns a [`RuntimeError::Driver`] if the buffer is unknown.
    pub fn mem_free(&mut self, name: &str) -> Result<(), RuntimeError> {
        self.driver.release(name)?;
        // Cached plans may hold stale physical addresses for this name.
        self.plan_cache.clear();
        self.obs.count(Counter::BufferFrees, 1);
        self.obs.count(Counter::DriverCalls, 1);
        Ok(())
    }

    /// `mealib_acc_plan`: parses TDL, statically verifies it (per the
    /// [`VerifyMode`]), resolves buffers, encodes the descriptor, and
    /// verifies the encoded image before it can reach the command space.
    ///
    /// # Errors
    ///
    /// Returns parse, verification, descriptor, or driver errors.
    pub fn acc_plan(&mut self, tdl: &str, params: &ParamBag) -> Result<AccPlan, RuntimeError> {
        let (program, lines) = parse_with_lines(tdl)?;
        let mut report = Report::new();
        let verify = self.verify_mode == VerifyMode::Enforce;
        if verify {
            report = mealib_verify::tdl::verify_program(
                &program,
                Some(&lines),
                Some(params),
                &self.verify_limits,
            );
            // Dataflow pass in implicit mode, against the driver's real
            // allocation extents: overlap and chain-capacity defects
            // surface before the descriptor is even encoded.
            let env = mealib_verify::DataflowEnv {
                extents: self.driver.extent_table(),
                ..Default::default()
            };
            report.merge(mealib_verify::dataflow::verify_program(
                &program,
                Some(&lines),
                &env,
            ));
            if report.has_errors() {
                self.last_verify = Some(report.clone());
                return Err(RuntimeError::Verify(report));
            }
        }
        let buffers = self.driver.buffer_table();
        let descriptor = Descriptor::encode(&program, params, &buffers)?;
        if verify {
            report.merge(mealib_tdl::descriptor::check(descriptor.as_bytes()));
            self.last_verify = Some(report.clone());
            if report.has_errors() {
                return Err(RuntimeError::Verify(report));
            }
        }
        let id = self.next_plan_id;
        self.next_plan_id += 1;
        self.counters.plans_created += 1;
        Ok(AccPlan {
            id,
            program,
            descriptor,
            destroyed: false,
        })
    }

    /// Like [`Runtime::acc_plan`], but reuses a previously built plan
    /// for the identical (TDL, parameters) pair — the paper's
    /// "the accelerator descriptor can be reused to invoke the same
    /// accelerator(s) with the same configuration multiple times".
    ///
    /// The cache key includes the parameter bytes, so changed parameters
    /// build a fresh plan. Buffers are resolved at first build; freeing
    /// and reallocating a referenced buffer invalidates the cache (the
    /// whole cache is cleared on any `mem_free`).
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Runtime::acc_plan`].
    pub fn acc_plan_cached(
        &mut self,
        tdl: &str,
        params: &ParamBag,
    ) -> Result<AccPlan, RuntimeError> {
        let key = plan_cache_key(tdl, params);
        if let Some(plan) = self.plan_cache.get(&key) {
            self.counters.plan_cache_hits += 1;
            return Ok(plan);
        }
        let plan = self.acc_plan(tdl, params)?;
        self.plan_cache.insert(key, plan.clone());
        Ok(plan)
    }

    /// `mealib_acc_execute`: flushes the cache, copies the descriptor to
    /// the command space, and runs it through the Configuration Unit.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::PlanDestroyed`], driver, or CU errors, or
    /// [`RuntimeError::InvocationOverflow`] (with no counter changed)
    /// when the run would wrap the running invocation count.
    pub fn acc_execute(&mut self, plan: &AccPlan) -> Result<RunReport, RuntimeError> {
        self.execute_impl(plan, true)
    }

    /// Like [`Runtime::acc_execute`] but *without* the implicit cache
    /// write-back: only the descriptor copy is charged, and the
    /// sanitizer sees no flush. This is the decomposed invocation used
    /// by harnesses that manage coherence explicitly via
    /// [`Runtime::cache_sync`] — exactly the split the coherence
    /// analysis reasons about.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Runtime::acc_execute`].
    pub fn acc_execute_unsynced(&mut self, plan: &AccPlan) -> Result<RunReport, RuntimeError> {
        self.execute_impl(plan, false)
    }

    /// A standalone `wbinvd`: writes back every dirty host line and
    /// invalidates the cache, making host and accelerator views
    /// coherent. Returns the modeled cost.
    pub fn cache_sync(&mut self) -> Seconds {
        self.sanitizer.flush();
        let flush = self.cache.flush_time_for(self.driver.allocated_bytes());
        if self.obs.enabled() {
            self.obs
                .span(Phase::Flush, flush, self.cache.flush_energy(flush));
            self.obs.count(Counter::CacheFlushes, 1);
        }
        flush
    }

    fn execute_impl(&mut self, plan: &AccPlan, sync: bool) -> Result<RunReport, RuntimeError> {
        if plan.destroyed {
            return Err(RuntimeError::PlanDestroyed);
        }
        let image = plan.descriptor.as_bytes();
        self.driver.write_descriptor(image)?;

        if sync {
            self.sanitizer.flush();
        }
        self.sanitizer.observe_program(&plan.program);

        let copy = self.cache.descriptor_copy_time(image.len());
        let invocation_time = if sync {
            self.cache.flush_time_for(self.driver.allocated_bytes()) + copy
        } else {
            copy
        };
        let invocation_energy = self.cache.flush_energy(invocation_time);

        // §3.3: data should reside in the accelerator's Local Memory
        // Stack. If any referenced buffer lives on a remote stack, every
        // access crosses the inter-stack links — run against the remote
        // memory view.
        let buffer_names: Vec<&str> = plan
            .program
            .items
            .iter()
            .flat_map(|item| match item {
                TdlItem::Pass(p) => vec![p.input.as_str(), p.output.as_str()],
                TdlItem::Loop(l) => l
                    .body
                    .iter()
                    .flat_map(|p| [p.input.as_str(), p.output.as_str()])
                    .collect(),
            })
            .collect();
        let layer = if self.driver.all_local(buffer_names) {
            self.layer.clone()
        } else {
            self.layer.with_mem(MemoryConfig::hmc_stack_remote())
        };
        let run = run_descriptor(&plan.descriptor, &layer, &self.cu_cost)?;
        self.counters.invocations = self
            .counters
            .invocations
            .checked_add(run.invocations())
            .ok_or(RuntimeError::InvocationOverflow)?;
        self.counters.executions += 1;

        // Per-phase attribution: the host-side flush + descriptor copy
        // is its own phase, everything else comes from the CU run's
        // exact partition. Building this is a handful of additions, so
        // it is carried unconditionally on every report.
        let mut breakdown = run.breakdown();
        breakdown.add_phase(Phase::Flush, invocation_time, invocation_energy);

        // Roofline attribution against the layer the run actually used
        // (remote placement classifies against the remote-stack peak).
        let profile = invocation_profile(invocation_time, &run);
        let window = Seconds::new(profile.end_time().get() / ATTRIBUTION_WINDOWS);
        let attribution = Attribution::classify(&profile, &layer.roofline(), window);
        if self.obs.enabled() {
            let mut recorded = breakdown.clone();
            run.add_counters(&mut recorded);
            if sync {
                recorded.add_count(CounterKey::total(Counter::CacheFlushes), 1);
            }
            recorded.add_count(CounterKey::total(Counter::DriverCalls), 1);
            self.obs.record_breakdown(&recorded);
        }
        Ok(RunReport {
            invocation_time,
            invocation_energy,
            run,
            breakdown,
            attribution,
        })
    }

    /// `mealib_acc_destroy`.
    pub fn acc_destroy(&mut self, plan: &mut AccPlan) {
        if !plan.destroyed {
            plan.destroyed = true;
            self.counters.plans_destroyed += 1;
        }
    }
}

impl Default for Runtime {
    fn default() -> Self {
        Self::new()
    }
}

/// The plan-cache key of a (TDL, parameters) pair: the TDL, then per
/// parameter a unit separator, its name, `=` and its bytes as lowercase
/// hex, in the bag's (sorted) order.
fn plan_cache_key(tdl: &str, params: &ParamBag) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let blob_bytes: usize = params.iter().map(|(n, b)| n.len() + 2 + 2 * b.len()).sum();
    let mut key = String::with_capacity(tdl.len() + blob_bytes);
    key.push_str(tdl);
    for (name, blob) in params {
        key.push('\u{1f}');
        key.push_str(name);
        key.push('=');
        for &b in blob {
            key.push(char::from(HEX[usize::from(b >> 4)]));
            key.push(char::from(HEX[usize::from(b & 0xf)]));
        }
    }
    key
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_accel::AccelParams;

    fn fft_runtime_and_plan(loop_count: u64) -> (Runtime, AccPlan) {
        let mut rt = Runtime::new();
        rt.mem_alloc("x", Bytes::from_mib(4)).unwrap();
        rt.mem_alloc("y", Bytes::from_mib(4)).unwrap();
        let mut params = ParamBag::new();
        params.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 256, batch: 256 }.to_bytes(),
        );
        let tdl =
            format!("LOOP {loop_count} {{ PASS in=x out=y {{ COMP FFT params=\"fft.para\" }} }}");
        let plan = rt.acc_plan(&tdl, &params).unwrap();
        (rt, plan)
    }

    #[test]
    fn plan_execute_destroy_lifecycle() {
        let (mut rt, mut plan) = fft_runtime_and_plan(2);
        let report = rt.acc_execute(&plan).unwrap();
        assert!(report.total_time().get() > 0.0);
        assert_eq!(rt.counters().executions, 1);
        assert_eq!(rt.counters().invocations, 2);
        rt.acc_destroy(&mut plan);
        assert!(matches!(
            rt.acc_execute(&plan),
            Err(RuntimeError::PlanDestroyed)
        ));
        assert_eq!(rt.counters().plans_destroyed, 1);
    }

    #[test]
    fn plans_are_reusable() {
        let (mut rt, plan) = fft_runtime_and_plan(1);
        let a = rt.acc_execute(&plan).unwrap();
        let b = rt.acc_execute(&plan).unwrap();
        assert_eq!(a.run, b.run, "same plan, same modeled cost");
        assert_eq!(rt.counters().executions, 2);
    }

    #[test]
    fn hardware_loop_amortizes_invocation_overhead() {
        // One descriptor with LOOP 128 vs 128 separate executions.
        let (mut rt_hw, plan_hw) = fft_runtime_and_plan(128);
        let hw = rt_hw.acc_execute(&plan_hw).unwrap();

        let (mut rt_sw, plan_sw) = fft_runtime_and_plan(1);
        let one = rt_sw.acc_execute(&plan_sw).unwrap();
        let sw_total = one.total_time() * 128.0;

        assert!(
            sw_total.get() > 3.0 * hw.total_time().get(),
            "Fig 12b shape: software loop {} vs hardware loop {}",
            sw_total,
            hw.total_time()
        );
    }

    #[test]
    fn unknown_buffer_fails_at_plan_time() {
        let mut rt = Runtime::new();
        let mut params = ParamBag::new();
        params.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 256, batch: 1 }.to_bytes(),
        );
        let err = rt
            .acc_plan(
                "PASS in=ghost out=ghost2 { COMP FFT params=\"fft.para\" }",
                &params,
            )
            .unwrap_err();
        assert!(matches!(err, RuntimeError::Descriptor(_)), "{err}");
    }

    #[test]
    fn malformed_tdl_fails_at_plan_time() {
        let mut rt = Runtime::new();
        let err = rt.acc_plan("PASS oops", &ParamBag::new()).unwrap_err();
        assert!(matches!(err, RuntimeError::Parse(_)), "{err}");
    }

    #[test]
    fn semantically_bad_tdl_fails_with_coded_diagnostics() {
        let mut rt = Runtime::new();
        rt.mem_alloc("x", Bytes::from_mib(1)).unwrap();
        let mut params = ParamBag::new();
        params.insert("r.para".into(), vec![0; 8]);
        params.insert("f.para".into(), vec![0; 8]);
        // Chained pass streaming in place: parseable, unrunnable.
        let tdl = "PASS in=x out=x { COMP RESHP params=\"r.para\" COMP FFT params=\"f.para\" }";
        let err = rt.acc_plan(tdl, &params).unwrap_err();
        match err {
            RuntimeError::Verify(report) => {
                assert!(
                    report.has_code(mealib_types::ErrorCode::TdlInPlaceChain),
                    "{report}"
                );
            }
            other => panic!("expected Verify, got {other}"),
        }
        assert!(rt.last_verify_report().unwrap().has_errors());
    }

    #[test]
    fn verify_off_restores_the_old_behavior() {
        let mut rt = Runtime::new();
        rt.mem_alloc("x", Bytes::from_mib(1)).unwrap();
        rt.set_verify_mode(VerifyMode::Off);
        let mut params = ParamBag::new();
        params.insert("r.para".into(), vec![0; 8]);
        params.insert("f.para".into(), vec![0; 8]);
        let tdl = "PASS in=x out=x { COMP RESHP params=\"r.para\" COMP FFT params=\"f.para\" }";
        assert!(rt.acc_plan(tdl, &params).is_ok());
        assert!(rt.last_verify_report().is_none());
    }

    /// An unverified runtime holding `x`/`y` and a two-`COMP` AXPY pass
    /// looped `count` times.
    fn looped_axpy_plan(count: u64) -> (Runtime, AccPlan) {
        let mut rt = Runtime::new();
        rt.set_verify_mode(VerifyMode::Off);
        rt.mem_alloc("x", Bytes::from_mib(1)).unwrap();
        rt.mem_alloc("y", Bytes::from_mib(1)).unwrap();
        let mut params = ParamBag::new();
        let axpy = AccelParams::Axpy {
            n: 1024,
            alpha: 2.0,
            incx: 1,
            incy: 1,
        };
        params.insert("a.para".into(), axpy.to_bytes());
        let tdl = format!(
            "LOOP {count} {{ PASS in=x out=y {{ COMP AXPY params=\"a.para\" \
             COMP AXPY params=\"a.para\" }} }}"
        );
        let plan = rt.acc_plan(&tdl, &params).unwrap();
        (rt, plan)
    }

    #[test]
    fn invocation_count_that_wraps_is_refused() {
        // 2^63 iterations of a two-stage pass wrap the invocation count;
        // 2^62 fit it, but their bytes do not. The CU refuses both runs.
        for (count, want) in [
            (1 << 63, CuError::InvocationOverflow),
            (1 << 62, CuError::ExecutionOverflow),
        ] {
            let (mut rt, plan) = looped_axpy_plan(count);
            let err = rt.acc_execute(&plan).unwrap_err();
            assert!(matches!(&err, RuntimeError::Cu(e) if *e == want), "{err}");
            assert_eq!(rt.counters().executions, 0);
            assert_eq!(rt.counters().invocations, 0);
        }
    }

    #[test]
    fn running_invocation_sum_that_wraps_is_refused() {
        let (mut rt, plan) = looped_axpy_plan(1);
        rt.counters.invocations = u64::MAX - 1;
        let before = rt.counters().clone();
        let err = rt.acc_execute(&plan).unwrap_err();
        assert!(matches!(err, RuntimeError::InvocationOverflow), "{err}");
        assert_eq!(rt.counters(), &before);
    }

    #[test]
    fn missing_param_file_reported_before_encoding() {
        let mut rt = Runtime::new();
        rt.mem_alloc("x", Bytes::from_mib(1)).unwrap();
        rt.mem_alloc("y", Bytes::from_mib(1)).unwrap();
        let err = rt
            .acc_plan(
                "PASS in=x out=y { COMP FFT params=\"nope.para\" }",
                &ParamBag::new(),
            )
            .unwrap_err();
        match err {
            RuntimeError::Verify(report) => {
                assert!(
                    report.has_code(mealib_types::ErrorCode::TdlDanglingParams),
                    "{report}"
                );
            }
            other => panic!("expected Verify, got {other}"),
        }
    }

    #[test]
    fn healthy_plans_verify_clean_and_snapshot_is_consistent() {
        let (mut rt, _) = fft_runtime_and_plan(4);
        let report = rt.last_verify_report().unwrap();
        assert!(report.is_clean(), "{report}");
        let snap = rt.driver().snapshot();
        let audit = mealib_verify::physmem::verify_snapshot(&snap, None);
        assert!(audit.is_clean(), "{audit}");
        // Freeing a buffer keeps the bookkeeping consistent.
        rt.mem_free("x").unwrap();
        let audit = mealib_verify::physmem::verify_snapshot(&rt.driver().snapshot(), None);
        assert!(audit.is_clean(), "{audit}");
    }

    #[test]
    fn overhead_fraction_is_small_for_large_work() {
        let (mut rt, plan) = fft_runtime_and_plan(512);
        let report = rt.acc_execute(&plan).unwrap();
        // Fig 14: invocation overheads are a few percent when work is
        // compacted into few descriptors.
        assert!(
            report.overhead_time_fraction() < 0.25,
            "overhead fraction {:.3}",
            report.overhead_time_fraction()
        );
    }

    #[test]
    fn remote_stack_buffers_slow_execution_down() {
        let mut params = ParamBag::new();
        params.insert(
            "fft.para".into(),
            AccelParams::Fft {
                n: 1024,
                batch: 16384,
            }
            .to_bytes(),
        );
        let tdl = "PASS in=x out=y { COMP FFT params=\"fft.para\" }";

        // Local placement.
        let mut local = Runtime::with_stack_count(2);
        local.mem_alloc("x", Bytes::from_mib(16)).unwrap();
        local.mem_alloc("y", Bytes::from_mib(16)).unwrap();
        let plan = local.acc_plan(tdl, &params).unwrap();
        let fast = local.acc_execute(&plan).unwrap();

        // Same data on the remote stack.
        let mut remote = Runtime::with_stack_count(2);
        remote
            .mem_alloc_on("x", Bytes::from_mib(16), StackId(1))
            .unwrap();
        remote
            .mem_alloc_on("y", Bytes::from_mib(16), StackId(1))
            .unwrap();
        let plan = remote.acc_plan(tdl, &params).unwrap();
        let slow = remote.acc_execute(&plan).unwrap();

        assert!(
            slow.total_time().get() > 2.0 * fast.total_time().get(),
            "remote {} vs local {}",
            slow.total_time(),
            fast.total_time()
        );
        assert!(slow.total_energy().get() > fast.total_energy().get());
    }

    #[test]
    fn unknown_stack_is_rejected() {
        let mut rt = Runtime::with_stack_count(2);
        let err = rt
            .mem_alloc_on("x", Bytes::from_kib(4), StackId(5))
            .unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Driver(DriverError::NoSuchStack { .. })
        ));
    }

    #[test]
    fn stacks_allocate_independently() {
        let mut rt = Runtime::with_stack_count(3);
        rt.mem_alloc_on("a", Bytes::from_gib(1), StackId(0))
            .unwrap();
        rt.mem_alloc_on("b", Bytes::from_gib(1), StackId(1))
            .unwrap();
        rt.mem_alloc_on("c", Bytes::from_gib(1), StackId(2))
            .unwrap();
        assert_eq!(rt.driver().stack_of("b"), Some(StackId(1)));
        assert!(rt.driver().all_local(["a"]));
        assert!(!rt.driver().all_local(["a", "b"]));
    }

    #[test]
    fn plan_cache_reuses_identical_requests() {
        let (mut rt, _) = fft_runtime_and_plan(1);
        let mut params = ParamBag::new();
        params.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 256, batch: 256 }.to_bytes(),
        );
        let tdl = "PASS in=x out=y { COMP FFT params=\"fft.para\" }";
        assert_eq!(rt.plan_cache_len(), 0);
        let a = rt.acc_plan_cached(tdl, &params).unwrap();
        let b = rt.acc_plan_cached(tdl, &params).unwrap();
        assert_eq!(a.id(), b.id(), "second request served from the cache");
        assert_eq!(rt.counters().plan_cache_hits, 1);
        assert_eq!(rt.plan_cache_len(), 1);
        // Different parameters build a fresh plan.
        params.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 512, batch: 256 }.to_bytes(),
        );
        let c = rt.acc_plan_cached(tdl, &params).unwrap();
        assert_ne!(a.id(), c.id());
        assert_eq!(rt.counters().plan_cache_hits, 1);
    }

    #[test]
    fn plan_cache_key_pins_its_text() {
        let mut params = ParamBag::new();
        params.insert("b.para".into(), vec![0x00, 0x0f, 0xa0, 0xff]);
        params.insert("a.para".into(), vec![0x12]);
        params.insert("empty".into(), Vec::new());
        assert_eq!(
            plan_cache_key("PASS", &params),
            "PASS\u{1f}a.para=12\u{1f}b.para=000fa0ff\u{1f}empty="
        );
        assert_eq!(plan_cache_key("T", &ParamBag::new()), "T");
    }

    #[test]
    fn plan_cache_invalidates_on_free() {
        let (mut rt, _) = fft_runtime_and_plan(1);
        let mut params = ParamBag::new();
        params.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 256, batch: 256 }.to_bytes(),
        );
        let tdl = "PASS in=x out=y { COMP FFT params=\"fft.para\" }";
        let a = rt.acc_plan_cached(tdl, &params).unwrap();
        rt.mem_free("x").unwrap();
        rt.mem_alloc("x", Bytes::from_mib(4)).unwrap();
        let b = rt.acc_plan_cached(tdl, &params).unwrap();
        assert_ne!(a.id(), b.id(), "free must invalidate cached plans");
    }

    #[test]
    fn run_report_breakdown_reconciles_with_totals() {
        for loops in [1, 128] {
            let (mut rt, plan) = fft_runtime_and_plan(loops);
            let report = rt.acc_execute(&plan).unwrap();
            let bd = &report.breakdown;
            let dt = (bd.total_time().get() - report.total_time().get()).abs();
            let de = (bd.total_energy().get() - report.total_energy().get()).abs();
            assert!(
                dt <= 1e-9 * report.total_time().get(),
                "time {} vs {}",
                bd.total_time(),
                report.total_time()
            );
            assert!(
                de <= 1e-9 * report.total_energy().get(),
                "energy {} vs {}",
                bd.total_energy(),
                report.total_energy()
            );
            assert!(bd.phase(Phase::Flush).time.get() > 0.0);
            assert!(bd.phase(Phase::Compute).time.get() > 0.0);
        }
    }

    #[test]
    fn attribution_covers_all_modeled_time() {
        for loops in [1, 64] {
            let (mut rt, plan) = fft_runtime_and_plan(loops);
            let report = rt.acc_execute(&plan).unwrap();
            let a = &report.attribution;
            assert_eq!(a.coverage(), 1.0, "loops={loops}");
            assert!(
                (a.total.get() - report.total_time().get()).abs()
                    <= 1e-9 * report.total_time().get(),
                "loops={loops}: attribution total {} vs report {}",
                a.total,
                report.total_time()
            );
            for pair in a.windows.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "windows must tile");
            }
            // An FFT invocation spends real time in every bucket's
            // source phases; none of the shares can be everything.
            let share_sum: f64 = mealib_obs::Bound::ALL.into_iter().map(|b| a.share(b)).sum();
            assert!((share_sum - 1.0).abs() < 1e-9, "shares sum to 1");
        }
    }

    #[test]
    fn report_profile_reconciles_with_totals() {
        let (mut rt, plan) = fft_runtime_and_plan(8);
        let report = rt.acc_execute(&plan).unwrap();
        let p = report.profile();
        assert!(
            (p.end_time().get() - report.total_time().get()).abs()
                <= 1e-9 * report.total_time().get(),
            "profile end {} vs total {}",
            p.end_time(),
            report.total_time()
        );
        let tracks = p.track_names();
        assert!(tracks.contains(&"runtime".to_string()), "{tracks:?}");
        assert!(tracks.contains(&"cu".to_string()), "{tracks:?}");
        mealib_obs::validate_chrome_trace(&p.to_chrome_trace()).expect("exportable");
    }

    #[test]
    fn recorder_sees_spans_and_counters() {
        use mealib_obs::TraceRecorder;
        let rec = TraceRecorder::shared();
        let mut rt = Runtime::new();
        rt.set_obs(Obs::new(rec.clone()));
        rt.mem_alloc("x", Bytes::from_mib(4)).unwrap();
        rt.mem_alloc("y", Bytes::from_mib(4)).unwrap();
        let mut params = ParamBag::new();
        params.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 256, batch: 256 }.to_bytes(),
        );
        let plan = rt
            .acc_plan("PASS in=x out=y { COMP FFT params=\"fft.para\" }", &params)
            .unwrap();
        let report = rt.acc_execute(&plan).unwrap();
        let bd = rec.breakdown();
        // `acc_plan` records no span: `Plan` holds only the CU's modeled
        // descriptor decode, and `Verify` (serve-time markers) is empty.
        assert!(bd.phase(Phase::Plan).time.get() > 0.0, "CU decode");
        assert_eq!(bd.phase(Phase::Verify), Default::default());
        // Modeled device phases reconcile with the report.
        let modeled = bd.total_time();
        assert!(
            (modeled.get() - report.total_time().get()).abs() <= 1e-9 * modeled.get(),
            "recorded {} vs report {}",
            modeled,
            report.total_time()
        );
        assert_eq!(
            bd.counter(Counter::AllocBytes),
            2 * Bytes::from_mib(4).get()
        );
        assert_eq!(bd.counter(Counter::CacheFlushes), 1);
        assert!(bd.counter(Counter::CuPasses) > 0);
        assert!(bd.counter(Counter::DramAct) > 0);
    }

    #[test]
    fn plan_cache_capacity_evicts_fifo() {
        let (mut rt, _) = fft_runtime_and_plan(1);
        let mut params = ParamBag::new();
        let tdls: Vec<String> = (0..=DEFAULT_PLAN_CACHE_CAPACITY)
            .map(|i| {
                format!(
                    "LOOP {} {{ PASS in=x out=y {{ COMP FFT params=\"fft.para\" }} }}",
                    i + 2
                )
            })
            .collect();
        params.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 256, batch: 256 }.to_bytes(),
        );
        let plans: Vec<AccPlan> = tdls
            .iter()
            .map(|tdl| rt.acc_plan_cached(tdl, &params).unwrap())
            .collect(); // the last insert evicts the first
        assert_eq!(rt.plan_cache_len(), DEFAULT_PLAN_CACHE_CAPACITY);
        let first = rt.acc_plan_cached(&tdls[0], &params).unwrap();
        assert_ne!(
            plans[0].id(),
            first.id(),
            "oldest entry must have been evicted"
        );
        assert_eq!(rt.counters().plan_cache_hits, 0);
        // The youngest is still cached.
        let last = rt
            .acc_plan_cached(&tdls[DEFAULT_PLAN_CACHE_CAPACITY], &params)
            .unwrap();
        assert_eq!(plans[DEFAULT_PLAN_CACHE_CAPACITY].id(), last.id());
        assert_eq!(rt.counters().plan_cache_hits, 1);
        assert_eq!(rt.plan_cache_len(), DEFAULT_PLAN_CACHE_CAPACITY);
    }

    #[test]
    fn mem_alloc_free_round_trip() {
        let mut rt = Runtime::new();
        rt.mem_alloc("a", Bytes::from_mib(1)).unwrap();
        assert!(rt.driver().buffer("a").is_some());
        rt.mem_free("a").unwrap();
        assert!(rt.driver().buffer("a").is_none());
        assert!(matches!(rt.mem_free("a"), Err(RuntimeError::Driver(_))));
    }

    /// The parallel sweep moves `Runtime`s (inside experiment closures)
    /// across worker threads; a field that is not `Send + Sync` would
    /// silently serialize the whole sim layer.
    #[test]
    fn runtime_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Runtime>();
        assert_send_sync::<PlanCache>();
    }

    #[test]
    fn plan_cache_clone_is_independent() {
        let (mut rt, _) = fft_runtime_and_plan(1);
        let mut params = ParamBag::new();
        params.insert(
            "fft.para".into(),
            AccelParams::Fft { n: 256, batch: 256 }.to_bytes(),
        );
        let tdl = "PASS in=x out=y { COMP FFT params=\"fft.para\" }";
        let a = rt.acc_plan_cached(tdl, &params).unwrap();
        // The clone carries the cached plan...
        let mut clone = rt.clone();
        let b = clone.acc_plan_cached(tdl, &params).unwrap();
        assert_eq!(a.id(), b.id());
        assert_eq!(clone.counters().plan_cache_hits, 1);
        // ...but its cache is an independent copy: clearing the
        // original does not evict the clone's entry.
        rt.mem_free("x").unwrap();
        let c = clone.acc_plan_cached(tdl, &params).unwrap();
        assert_eq!(a.id(), c.id());
        assert_eq!(clone.counters().plan_cache_hits, 2);
    }
}
