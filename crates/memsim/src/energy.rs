//! DRAM energy parameters (CACTI-3DD-flavoured constants).
//!
//! The model charges energy per row activation, per byte moved on the
//! data path, per byte crossing the TSVs (3D) or the off-package link
//! (host access), plus a background power for the whole device. Constants
//! are representative of 3x-nm DRAM and HMC gen-2 publications; the
//! reproduction cares that the stacked device moves bytes ~5-8x cheaper
//! than a DIMM behind a processor pin interface.

use mealib_types::{Diagnostic, ErrorCode, Joules, Report, Seconds, Watts};

/// Per-event and background energy parameters of one memory device.
#[derive(Debug, Clone, PartialEq)]
pub struct DramEnergy {
    /// Energy of one row activation + precharge pair.
    pub e_act: Joules,
    /// Core array energy per byte read or written.
    pub e_byte_core: Joules,
    /// Transport energy per byte: TSV crossing for a stacked device,
    /// channel I/O (pins + PHY) for a DIMM.
    pub e_byte_transport: Joules,
    /// Additional per-byte energy for data leaving the package toward the
    /// host (SerDes links on HMC, zero extra for a DIMM whose channel I/O
    /// is already counted).
    pub e_byte_link: Joules,
    /// Background (standby + refresh + PLL) power for the whole device.
    pub p_background: Watts,
}

impl DramEnergy {
    /// DDR3 DIMM: large 8 KiB rows (expensive activations) and expensive
    /// pin/PHY I/O; all traffic leaves the package.
    pub fn ddr3_dimm() -> Self {
        Self {
            e_act: Joules::from_nanos(15.0),
            e_byte_core: Joules::from_picos(4.0),
            e_byte_transport: Joules::from_picos(40.0),
            e_byte_link: Joules::ZERO,
            p_background: Watts::new(1.5),
        }
    }

    /// HMC-like stack accessed *internally* by on-stack accelerators:
    /// small rows (cheap activations), traffic crosses TSVs only, never
    /// the SerDes links.
    pub fn hmc_internal() -> Self {
        Self {
            e_act: Joules::from_nanos(2.0),
            e_byte_core: Joules::from_picos(8.0),
            e_byte_transport: Joules::from_picos(2.0),
            e_byte_link: Joules::ZERO,
            p_background: Watts::new(3.0),
        }
    }

    /// HMC-like stack accessed by the *host* over the high-speed links:
    /// every byte additionally pays SerDes energy in both directions.
    pub fn hmc_external() -> Self {
        Self {
            e_byte_link: Joules::from_picos(30.0),
            ..Self::hmc_internal()
        }
    }

    /// Pushes a `MEA023` error onto `report` for every parameter that
    /// is not finite and non-negative: a negative or NaN charge would
    /// break the monotonicity of [`trace_energy`](Self::trace_energy)
    /// that the bounds walk maps its intervals through.
    pub fn check(&self, report: &mut Report) {
        for (name, v) in [
            ("e_act", self.e_act.get()),
            ("e_byte_core", self.e_byte_core.get()),
            ("e_byte_transport", self.e_byte_transport.get()),
            ("e_byte_link", self.e_byte_link.get()),
            ("p_background", self.p_background.get()),
        ] {
            if !v.is_finite() || v < 0.0 {
                report.push(Diagnostic::error(
                    ErrorCode::MemBadEnergy,
                    format!("{name} is {v}; energy parameters must be finite and non-negative"),
                ));
            }
        }
    }

    /// Total energy of a trace with the given event counts.
    pub fn trace_energy(&self, activations: u64, bytes_moved: u64, elapsed: Seconds) -> Joules {
        self.e_act * activations as f64
            + (self.e_byte_core + self.e_byte_transport + self.e_byte_link) * bytes_moved as f64
            + self.p_background.for_duration(elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn internal_access_is_cheaper_per_byte_than_dimm() {
        let dimm = DramEnergy::ddr3_dimm();
        let stack = DramEnergy::hmc_internal();
        let dimm_byte = dimm.e_byte_core + dimm.e_byte_transport + dimm.e_byte_link;
        let stack_byte = stack.e_byte_core + stack.e_byte_transport + stack.e_byte_link;
        assert!(
            dimm_byte.get() / stack_byte.get() > 3.0,
            "stacked access should be much cheaper per byte"
        );
    }

    #[test]
    fn external_stack_access_costs_more_than_internal() {
        let int = DramEnergy::hmc_internal();
        let ext = DramEnergy::hmc_external();
        let e_int = int.trace_energy(0, 1 << 20, Seconds::ZERO);
        let e_ext = ext.trace_energy(0, 1 << 20, Seconds::ZERO);
        assert!(e_ext.get() > e_int.get() * 2.0);
    }

    #[test]
    fn trace_energy_sums_components() {
        let e = DramEnergy {
            e_act: Joules::new(2.0),
            e_byte_core: Joules::new(1.0),
            e_byte_transport: Joules::new(0.5),
            e_byte_link: Joules::new(0.5),
            p_background: Watts::new(10.0),
        };
        let total = e.trace_energy(3, 4, Seconds::new(2.0));
        // 3*2 + 4*(1+0.5+0.5) + 10*2 = 6 + 8 + 20
        assert_eq!(total, Joules::new(34.0));
    }
}
