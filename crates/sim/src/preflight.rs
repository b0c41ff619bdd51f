//! Experiment preflight: the `mealint` passes run against the live setup.
//!
//! Before the Figure 9/10 comparison touches any model, the same
//! static-verification passes that back the `mealint` CLI are run over
//! the *actual* objects the experiment is about to use:
//!
//! 1. **TDL semantics** and 2. **descriptor image** — a representative
//!    chained program is planned through a real [`mealib_runtime::Runtime`]
//!    (which verifies under its default [`VerifyMode::Enforce`]), so the
//!    encode path the accelerated platforms depend on is exercised
//!    end-to-end;
//! 3. **memory-config validation** — every accelerated platform's
//!    [`MemoryConfig`] is checked, including the bijectivity proof of its
//!    address interleaving;
//! 4. **physical-memory consistency** — the runtime driver's allocator
//!    and address-space map are audited against the §4.2 asymmetric DIMM
//!    mapping that places the command space on the near DIMM;
//! 5. **dataflow & coherence** — a representative explicit session
//!    following the canonical host protocol (initialize, flush, run,
//!    flush, read back) is run through the MEA1xx dataflow analysis;
//! 6. **static cost & capacity bounds** — the same session, with its
//!    buffer extents and the experiment's time/energy envelope
//!    declared, is certified by the MEA2xx bounds analyzer: peak
//!    footprint vs. stack capacity, demanded throughput vs. the layer
//!    roofline, vault skew, and the modeled energy floor;
//! 7. **multi-tenant interference certification** — a two-tenant
//!    session-set manifest with disjoint vault partitions and declared
//!    budgets is composed by the MEA3xx certifier, which must come
//!    back a clean ADMIT: the sharing configuration the runtime models
//!    is itself admissible.
//!
//! The verdict is computed once per process and cached; every later
//! [`crate::experiment::run_experiment`] call pays a single atomic load.
//!
//! [`VerifyMode::Enforce`]: mealib_runtime::VerifyMode::Enforce
//! [`MemoryConfig`]: mealib_memsim::MemoryConfig

use std::sync::OnceLock;

use mealib_accel::AccelParams;
use mealib_memsim::address;
use mealib_runtime::{Runtime, RuntimeError};
use mealib_tdl::ParamBag;
use mealib_types::{Bytes, PhysAddr, Report};

use crate::platforms::AcceleratedPlatform;

/// Runs all seven verification passes over the experiment setup and
/// returns the combined report (errors *and* warnings).
pub fn preflight() -> Report {
    let mut report = Report::new();

    // Pass 3: every accelerated platform's memory substrate.
    for platform in [
        AcceleratedPlatform::psas(),
        AcceleratedPlatform::msas(),
        AcceleratedPlatform::mealib(),
    ] {
        report.merge(mealib_verify::memsim::verify_memconfig(
            platform.layer.mem(),
        ));
    }

    // Passes 1 + 2: plan a representative chained program through the
    // runtime. `acc_plan` verifies TDL semantics and the encoded
    // descriptor image under the default Enforce mode.
    let mut rt = Runtime::new();
    rt.mem_alloc("pre.x", Bytes::from_mib(4))
        .expect("preflight buffer fits the default stack");
    rt.mem_alloc("pre.y", Bytes::from_mib(4))
        .expect("preflight buffer fits the default stack");
    let mut params = ParamBag::new();
    params.insert(
        "fft.para".into(),
        AccelParams::Fft { n: 256, batch: 4 }.to_bytes(),
    );
    params.insert(
        "reshp.para".into(),
        AccelParams::Reshp {
            rows: 64,
            cols: 64,
            elem_bytes: 4,
        }
        .to_bytes(),
    );
    let tdl = "LOOP 2 { \
         PASS in=pre.x out=pre.y { \
           COMP FFT params=\"fft.para\" \
           COMP RESHP params=\"reshp.para\" \
         } }";
    match rt.acc_plan(tdl, &params) {
        Ok(_) => {
            if let Some(r) = rt.last_verify_report() {
                report.merge(r.clone());
            }
        }
        Err(RuntimeError::Verify(r)) => report.merge(r),
        Err(other) => panic!("preflight fixture failed outside verification: {other}"),
    }

    // Pass 4: audit the driver's allocator and vmap against the §4.2
    // asymmetric layout (near DIMM below the 8 GiB stack base).
    let mapping = address::asymmetric_dimms(PhysAddr::new(8 << 30));
    report.merge(mealib_verify::physmem::verify_snapshot(
        &rt.driver().snapshot(),
        Some(&mapping),
    ));

    // Pass 5: the dataflow & coherence analysis over the same chained
    // program, wrapped in the canonical host protocol.
    let session = "\
HOST WRITE pre.x
FLUSH
LOOP 2 {
  PASS in=pre.x out=pre.y {
    COMP FFT params=\"fft.para\"
    COMP RESHP params=\"reshp.para\"
  }
}
FLUSH
HOST READ pre.y
";
    match mealib_verify::dataflow::verify_source(session, &mealib_verify::DataflowEnv::default()) {
        Ok(r) => report.merge(r),
        Err(e) => panic!("preflight session fixture failed to parse: {e}"),
    }

    // Pass 6: the MEA2xx static cost & capacity certification over the
    // same session, with the buffer extents the runtime allocated and a
    // generous-but-finite time/energy envelope declared so every bounds
    // pass actually certifies something.
    let bounded = format!(
        "BUF pre.x 0x1000 0x400000\n\
         BUF pre.y 0x401000 0x400000\n\
         BUDGET TIME 1.0\n\
         BUDGET ENERGY 10.0\n\
         {session}"
    );
    match mealib_verify::dataflow::parse_session(&bounded) {
        Ok(s) => report.merge(mealib_verify::bounds::verify_session_bounds(
            &s,
            &mealib_verify::bounds::BoundsEnv::default(),
        )),
        Err(e) => panic!("preflight bounds fixture failed to parse: {e}"),
    }

    // Pass 7: the MEA3xx multi-tenant interference certification over
    // a two-tenant session set sharing the stack — disjoint vault
    // partitions, phased arrivals, per-tenant and aggregate budgets.
    // The shipped fixture must not just avoid findings: it must prove
    // ADMIT, or the admission story the runtime advertises is hollow.
    let set = match mealib_verify::interference::parse_session_set(TENANT_FIXTURE) {
        Ok(s) => s,
        Err(e) => panic!("preflight session-set fixture failed to parse: {e}"),
    };
    let cert = mealib_verify::interference::certify_set(&set, &mealib_verify::BoundsEnv::default())
        .expect("preset environment validates");
    if cert.verdict != mealib_verify::Verdict::Admit {
        report.push(mealib_types::Diagnostic::error(
            mealib_types::ErrorCode::InterfereBusOversubscribed,
            format!(
                "preflight session-set fixture failed admission: verdict {}",
                cert.verdict
            ),
        ));
    }
    report.merge(cert.report);

    report
}

/// The pass-7 fixture: two phased tenants in disjoint vault
/// partitions, with budgets generous enough that the certified upper
/// bounds prove admission outright.
const TENANT_FIXTURE: &str = "\
BUDGET TIME 10.0
BUDGET ENERGY 100.0
TENANT fft
PARTITION 0x0 0x800000
ARRIVAL 0
BUDGET TIME 10.0
BUF t0.x 0x1000 0x200000
BUF t0.y 0x201000 0x200000
LOOP 2 {
  PASS in=t0.x out=t0.y {
    COMP FFT params=\"fft.para\"
  }
}
TENANT axpy
PARTITION 0x800000 0x800000
ARRIVAL 128
BUDGET TIME 10.0
BUF t1.x 0x801000 0x200000
BUF t1.y 0xa01000 0x200000
PASS in=t1.x out=t1.y {
  COMP AXPY params=\"axpy.para\"
}
";

static VERDICT: OnceLock<Result<(), Report>> = OnceLock::new();

/// The cached preflight verdict: `Ok(())` if no pass reported an error,
/// otherwise the full report. Runs [`preflight`] on first call only.
pub fn preflight_checked() -> Result<(), Report> {
    VERDICT
        .get_or_init(|| {
            let report = preflight();
            if report.has_errors() {
                Err(report)
            } else {
                Ok(())
            }
        })
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_configuration_passes_preflight() {
        let report = preflight();
        assert!(!report.has_errors(), "{report}");
    }

    #[test]
    fn verdict_is_cached_and_clean() {
        assert!(preflight_checked().is_ok());
        // Second call hits the cache; still clean.
        assert!(preflight_checked().is_ok());
    }

    #[test]
    fn bounds_pass_rejects_a_budget_breaking_session() {
        // Pass-6 plumbing: the same fixture shape, but with an energy
        // budget the modeled floor provably exceeds, must draw MEA203.
        let src = "BUF pre.x 0x1000 0x400000\n\
                   BUF pre.y 0x401000 0x400000\n\
                   BUDGET ENERGY 1e-9\n\
                   HOST WRITE pre.x\n\
                   FLUSH\n\
                   LOOP 2 {\n  PASS in=pre.x out=pre.y {\n    COMP FFT params=\"fft.para\"\n  }\n}\n\
                   FLUSH\n\
                   HOST READ pre.y\n";
        let s = mealib_verify::dataflow::parse_session(src).expect("fixture parses");
        let report = mealib_verify::bounds::verify_session_bounds(
            &s,
            &mealib_verify::bounds::BoundsEnv::default(),
        );
        assert!(
            report.has_code(mealib_types::ErrorCode::BoundsEnergyBudget),
            "{report}"
        );
    }

    #[test]
    fn tenant_fixture_is_admitted_outright() {
        // Pass-7 plumbing: the shipped two-tenant fixture must prove
        // ADMIT (not merely avoid findings), and breaking its
        // isolation must flip the verdict to a REJECT with MEA300.
        let set = mealib_verify::interference::parse_session_set(TENANT_FIXTURE).unwrap();
        let cert =
            mealib_verify::interference::certify_set(&set, &mealib_verify::BoundsEnv::default())
                .unwrap();
        assert_eq!(
            cert.verdict,
            mealib_verify::Verdict::Admit,
            "{}",
            cert.report
        );

        let overlapped =
            TENANT_FIXTURE.replace("PARTITION 0x800000 0x800000", "PARTITION 0x400000 0x800000");
        let set = mealib_verify::interference::parse_session_set(&overlapped).unwrap();
        let cert =
            mealib_verify::interference::certify_set(&set, &mealib_verify::BoundsEnv::default())
                .unwrap();
        assert_eq!(cert.verdict, mealib_verify::Verdict::Reject);
        assert!(cert
            .report
            .has_code(mealib_types::ErrorCode::InterferePartitionOverlap));
    }

    #[test]
    fn preflight_catches_a_broken_memory_config() {
        // Not wired through the cache: verify the pass itself rejects a
        // corrupted platform config the way the preflight would.
        let mut platform = AcceleratedPlatform::mealib();
        let mut mem = platform.layer.mem().clone();
        mem.timing.t_rcd = 0;
        platform.layer = mealib_accel::AcceleratorLayer::with_parts(
            platform.layer.mesh().clone(),
            platform.layer.tiles().to_vec(),
            platform.layer.hw().clone(),
            mem,
        );
        let report = mealib_verify::memsim::verify_memconfig(platform.layer.mem());
        assert!(
            report.has_code(mealib_types::ErrorCode::MemZeroParameter),
            "{report}"
        );
    }
}
