//! Compositional per-tenant bounds over the interleaved request stream.
//!
//! The certified kernel here is [`mealib_memsim::bounds::trace_bounds`];
//! composition adds nothing to it at the *set* level — the merged trace
//! produced by [`interleave_tenants`] is an ordinary trace, and the
//! engine replays it identically with or without tenant tags, so the
//! set-level intervals are the kernel's own guarantee. What composition
//! has to derive fresh are the **per-tenant** intervals, and those must
//! stay sound under interference:
//!
//! * **bytes and bursts** — exact. The engine attributes each burst to
//!   the tenant whose request produced it, and the burst stream of a
//!   tenant's subsequence is a pure function of its own trace and the
//!   mapping; co-tenants cannot change it.
//! * **activations** — `[0, own bursts]`. A tenant's *isolated*
//!   activation count is **not** a sound lower bound under composition:
//!   a co-tenant can open the very row a tenant needs (the engine
//!   charges the activation to whoever triggered it), so a tenant's
//!   attributed count can drop below its isolated count. Zero is the
//!   only sound floor; one per own burst is the engine's ceiling.
//! * **completion (cycles/elapsed)** — the lower bound is bus
//!   occupancy, the one resource interference cannot give back. Every
//!   burst advances its unit's bus-free pointer by at least `t_burst`,
//!   so the tenant's last burst on unit `u` completes no earlier than
//!   `own_bursts[u] * t_burst`. The *interference-aware* refinement:
//!   the final burst of the tenant's last merged request that moves a
//!   byte is issued after every other burst of the merged prefix
//!   ending there (a zero-byte request issues no burst), so on
//!   its unit it also waits for **all prefix bursts on that unit**,
//!   co-tenants included, plus the cold-start activation
//!   (`t_rcd + t_cl`) the prefix's first burst on that unit must pay.
//!   The upper bound is the set-level ceiling: no burst completes after
//!   the whole merged replay goes idle.
//! * **energy** — the engine prices a tenant at
//!   `trace_energy(own_acts, own_bytes, own_elapsed)` and
//!   `trace_energy` is monotone in all three arguments, so mapping the
//!   interval endpoints through it is sound.
//!
//! **Cost.** [`compose`] elaborates each tenant once, unrolls its loops
//! into the stream the interleaver merges (loop compression across
//! interleaved tenants is not attempted: a co-tenant's requests can
//! land between any two iterations), interleaves once, and makes one
//! pass over the merged trace, whole mapping periods of each request
//! in closed form:
//! [`tagged_trace_bounds`] walks the merged trace with the tag column
//! as an attribution sink and returns the set-level bounds together
//! with every tenant's own traffic and its merged-prefix burst count
//! on its final unit. Nothing re-walks a tenant's own trace or a
//! prefix copy of the merge, so a k-tenant set costs one walk, not
//! 2 + k.
//!
//! The `interference_soundness` differential harness replays every
//! corpus manifest and random mix through
//! [`mealib_memsim::simulate_tenants`] and asserts
//! `lo <= measured <= hi` per tenant on every one of these counters.
//!
//! [`interleave_tenants`]: mealib_memsim::interleave_tenants

use mealib_memsim::bounds::{tagged_trace_bounds, BoundsError, TraceBounds};
use mealib_memsim::{interleave_tenants, MemoryConfig, TenantStream};
use mealib_types::{BytesPerSec, Interval, Seconds};

use super::manifest::SessionSet;
use crate::bounds::elaborate;
use crate::bounds::elaborate::check_budget;
use crate::bounds::summary::accel_energy;
use crate::bounds::BoundsEnv;
use crate::bounds::UNROLL_BUDGET;
use crate::dataflow::MemLayer;

/// Certified composed bounds for one tenant of a session set.
#[derive(Debug, Clone)]
pub struct TenantBounds {
    /// Bytes read by the tenant's own requests (exact).
    pub bytes_read: Interval,
    /// Bytes written by the tenant's own requests (exact).
    pub bytes_written: Interval,
    /// READ bursts of the tenant's subsequence (exact).
    pub read_bursts: Interval,
    /// WRITE bursts of the tenant's subsequence (exact).
    pub write_bursts: Interval,
    /// Row activations attributed to the tenant.
    pub activations: Interval,
    /// Completion cycle of the tenant's last burst under composition.
    pub cycles: Interval,
    /// `cycles` in wall-clock seconds.
    pub elapsed: Interval,
    /// DRAM energy attributed to the tenant.
    pub energy: Interval,
    /// Modeled accelerator energy (Table-5 datapath floor to
    /// datapath + leakage over the set-level elapsed ceiling).
    pub accel_energy: Interval,
    /// Buffers in the tenant's session without a declared extent —
    /// their traffic is absent from every interval above.
    pub missing_extents: Vec<String>,
}

impl TenantBounds {
    /// Total own bursts (exact).
    pub fn total_bursts(&self) -> f64 {
        self.read_bursts.lo + self.write_bursts.lo
    }
}

/// Composed bounds for the whole session set.
#[derive(Debug, Clone)]
pub struct SetBounds {
    /// Name of the resolved shared memory configuration.
    pub config_name: String,
    /// Roofline of the shared layer.
    pub peak_bandwidth: BytesPerSec,
    /// Certified kernel bounds over the merged interleaved trace.
    pub set: TraceBounds,
    /// Per-tenant composed bounds, in manifest order.
    pub tenants: Vec<TenantBounds>,
}

impl SetBounds {
    /// Lower bound on the composed modeled energy: the certified DRAM
    /// floor of the merged trace plus every tenant's accelerator
    /// datapath floor.
    pub fn energy_floor(&self) -> f64 {
        self.set.energy.lo + self.tenants.iter().map(|t| t.accel_energy.lo).sum::<f64>()
    }

    /// Upper bound on the composed modeled energy.
    pub fn energy_ceiling(&self) -> f64 {
        self.set.energy.hi + self.tenants.iter().map(|t| t.accel_energy.hi).sum::<f64>()
    }
}

/// The memory configuration the set's header `MEM` directive resolves
/// to under `env` (interleaved stack when absent). This is the exact
/// configuration the soundness harness replays against.
pub fn resolved_set_config(set: &SessionSet, env: &BoundsEnv) -> MemoryConfig {
    let layer = set
        .mem_layer
        .map(|(_, l)| l)
        .unwrap_or(MemLayer::Interleaved);
    crate::bounds::summary::resolve_layer(layer, &env.stack, &env.host)
}

/// Elaborates every tenant session into the [`TenantStream`]s the
/// interleaver and the engine consume — the shared ground-truth input
/// for both the static bounds and the differential harness.
pub fn tenant_streams(set: &SessionSet) -> Vec<TenantStream> {
    set.tenants
        .iter()
        .map(|t| TenantStream {
            trace: elaborate(&t.session).unrolled_trace(),
            arrival: t.arrival,
        })
        .collect()
}

/// Derives the composed set and per-tenant bounds for `set` under
/// `env`.
///
/// # Errors
///
/// Propagates a [`BoundsError`]: the resolved shared configuration
/// failing validation (unreachable with [`BoundsEnv`]'s presets), the
/// set moving more bytes than a `u64` counts, or its tenants' unrolled
/// requests and accelerator invocations together exceeding
/// [`UNROLL_BUDGET`].
pub fn compose(set: &SessionSet, env: &BoundsEnv) -> Result<SetBounds, BoundsError> {
    let cfg = resolved_set_config(set, env);
    // Elaborate each tenant once: the unrolled trace feeds the
    // interleaver, the phases and missing extents the per-tenant record.
    // Both unroll the tenant loops, so their steps are counted first.
    let programs: Vec<_> = set.tenants.iter().map(|t| elaborate(&t.session)).collect();
    let steps = programs.iter().fold(0u64, |n, e| {
        n.saturating_add(e.unrolled_requests())
            .saturating_add(e.accel_invocations())
    });
    check_budget(steps, UNROLL_BUDGET)?;
    let streams: Vec<_> = set
        .tenants
        .iter()
        .zip(&programs)
        .map(|(t, e)| TenantStream {
            trace: e.unrolled_trace(),
            arrival: t.arrival,
        })
        .collect();
    let (merged, tags) = interleave_tenants(&streams);
    let (set_tb, counts) = tagged_trace_bounds(&cfg, &merged, &tags, streams.len())?;
    let t_ck = cfg.timing.t_ck.get();
    let t_burst = cfg.timing.t_burst as f64;
    let cold = (cfg.timing.t_rcd + cfg.timing.t_cl) as f64;

    let mut tenants = Vec::with_capacity(set.tenants.len());
    for (own, program) in counts.iter().zip(programs) {
        let own_bursts = own.read_bursts as f64 + own.write_bursts as f64;

        // Bus-occupancy floor from the tenant's own traffic: its last
        // burst on the busiest unit waits for all its own bursts there.
        let own_occ = own.unit_bursts.iter().copied().max().unwrap_or(0) as f64 * t_burst;

        // Interference-aware refinement: the final burst of the
        // tenant's last merged request that moves a byte is issued
        // after every burst of the merged prefix ending at that
        // request, so it serializes
        // behind every prefix burst on its own unit — and the first
        // burst on that unit pays the cold activation.
        let prefix_occ = own
            .final_unit_prefix_bursts
            .map_or(0.0, |n| cold + n as f64 * t_burst);

        let cycles = if own_bursts == 0.0 {
            Interval::ZERO
        } else {
            Interval::new(own_occ.max(prefix_occ), set_tb.cycles.hi)
        };
        let elapsed = Interval::new(cycles.lo * t_ck, set_tb.elapsed.hi.min(cycles.hi * t_ck));
        let own_bytes = own.bytes_read + own.bytes_written;
        let energy = if own_bursts == 0.0 {
            Interval::ZERO
        } else {
            Interval::new(
                cfg.energy
                    .trace_energy(0, own_bytes, Seconds::new(elapsed.lo))
                    .get(),
                cfg.energy
                    .trace_energy(own_bursts as u64, own_bytes, Seconds::new(elapsed.hi))
                    .get(),
            )
        };

        tenants.push(TenantBounds {
            bytes_read: Interval::exact(own.bytes_read as f64),
            bytes_written: Interval::exact(own.bytes_written as f64),
            read_bursts: Interval::exact(own.read_bursts as f64),
            write_bursts: Interval::exact(own.write_bursts as f64),
            activations: Interval::new(0.0, own_bursts),
            cycles,
            elapsed,
            energy,
            // Leakage accrues for at most the set-level elapsed ceiling.
            accel_energy: accel_energy(&program, set_tb.elapsed.hi),
            missing_extents: program.missing_extents,
        });
    }

    Ok(SetBounds {
        config_name: cfg.name.clone(),
        peak_bandwidth: cfg.peak_bandwidth(),
        set: set_tb,
        tenants,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interference::manifest::parse_session_set;
    use mealib_memsim::bounds::trace_bounds;
    use mealib_memsim::{simulate_tenants, SimOptions};

    fn two_tenant_set() -> SessionSet {
        parse_session_set(
            "BUDGET TIME 1.0\n\
             TENANT a\n\
             PARTITION 0x0 0x1000000\n\
             BUF in 0x1000 0x40000\n\
             BUF out 0x80000 0x40000\n\
             PASS in=in out=out {\n  COMP FFT params=\"f\"\n}\n\
             TENANT b\n\
             PARTITION 0x1000000 0x1000000\n\
             ARRIVAL 1\n\
             BUF p 0x1001000 0x40000\n\
             BUF q 0x1080000 0x40000\n\
             LOOP 2 {\n  PASS in=p out=q {\n    COMP AXPY params=\"x\"\n  }\n}\n",
        )
        .unwrap()
    }

    /// One tenant looping `n` times over one pass between two 16 MiB
    /// buffers: 2n requests and n executions to unroll.
    fn looped_set(n: u64) -> SessionSet {
        parse_session_set(&format!(
            "TENANT solo\nBUF s 0x1000 0x1000000\nBUF t 0x2000000 0x1000000\n\
             LOOP {n} {{\n  PASS in=s out=t {{\n    COMP AXPY params=\"a.para\"\n  }}\n}}\n"
        ))
        .unwrap()
    }

    #[test]
    fn unrolled_steps_past_the_budget_are_a_typed_error() {
        let env = BoundsEnv::default();
        assert!(compose(&looped_set(2), &env).is_ok());
        for n in [UNROLL_BUDGET / 3 + 1, 1 << 20] {
            let err = compose(&looped_set(n), &env).unwrap_err();
            assert_eq!(
                err,
                BoundsError::WorkBudget {
                    steps: 3 * n,
                    budget: UNROLL_BUDGET
                }
            );
        }
    }

    #[test]
    fn composed_bounds_contain_the_interleaved_measurement() {
        let set = two_tenant_set();
        let env = BoundsEnv::default();
        let bounds = compose(&set, &env).unwrap();
        let cfg = resolved_set_config(&set, &env);
        let run = simulate_tenants(&cfg, &tenant_streams(&set), &SimOptions::dual_check()).unwrap();
        assert!(bounds.set.check_contains(&run.stats).is_none());
        for ((decl, tb), m) in set.tenants.iter().zip(&bounds.tenants).zip(&run.tenants) {
            assert!(
                tb.bytes_read.is_exact() && tb.read_bursts.is_exact(),
                "{}",
                decl.name
            );
            assert!(
                tb.bytes_read.contains(m.bytes_read.get() as f64),
                "{}",
                decl.name
            );
            assert!(
                tb.bytes_written.contains(m.bytes_written.get() as f64),
                "{}",
                decl.name
            );
            assert!(
                tb.read_bursts.contains(m.read_bursts as f64),
                "{}",
                decl.name
            );
            assert!(
                tb.write_bursts.contains(m.write_bursts as f64),
                "{}",
                decl.name
            );
            assert!(
                tb.activations.contains(m.activations as f64),
                "{}",
                decl.name
            );
            assert!(tb.cycles.contains(m.cycles.get() as f64), "{}", decl.name);
            assert!(tb.elapsed.contains(m.elapsed.get()), "{}", decl.name);
            assert!(tb.energy.contains(m.energy.get()), "{}", decl.name);
        }
    }

    #[test]
    fn later_tenant_lower_bound_sees_interference() {
        // Tenant b arrives after a's burst of traffic; its composed
        // completion floor must exceed its isolated occupancy alone.
        let set = two_tenant_set();
        let bounds = compose(&set, &BoundsEnv::default()).unwrap();
        let a = &bounds.tenants[0];
        let b = &bounds.tenants[1];
        // b's floor includes prefix bursts from a on its final unit,
        // so it is strictly above b's own per-unit occupancy.
        let cfg = resolved_set_config(&set, &BoundsEnv::default());
        let own = trace_bounds(&cfg, &tenant_streams(&set)[1].trace).unwrap();
        let own_occ =
            own.unit_bursts.iter().copied().max().unwrap() as f64 * cfg.timing.t_burst as f64;
        assert!(b.cycles.lo > own_occ, "{} <= {own_occ}", b.cycles.lo);
        assert!(a.cycles.lo > 0.0);
    }

    #[test]
    fn empty_tenant_composes_to_zero() {
        let set = parse_session_set(
            "TENANT a\nBUF in 0x1000 0x10000\nBUF out 0x20000 0x10000\nPASS in=in out=out {\n  \
             COMP FFT params=\"f\"\n}\nTENANT idle\n",
        )
        .unwrap();
        let bounds = compose(&set, &BoundsEnv::default()).unwrap();
        let idle = &bounds.tenants[1];
        assert_eq!(idle.cycles, Interval::ZERO);
        assert_eq!(idle.energy, Interval::ZERO);
        assert_eq!(idle.total_bursts(), 0.0);
    }
}
