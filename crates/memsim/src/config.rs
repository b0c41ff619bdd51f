//! Complete memory-device configurations (timing + energy + mapping).

use mealib_types::{BytesPerSec, ConfigError, Report, Severity};

use crate::address::{self, AddressMapping};
use crate::energy::DramEnergy;
use crate::timing::DramTiming;

/// A fully specified memory device: per-unit timing, energy model, and
/// the address mapping that distributes traffic over units and banks.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryConfig {
    /// Human-readable device name for reports.
    pub name: String,
    /// Per-channel/vault timing.
    pub timing: DramTiming,
    /// Energy parameters.
    pub energy: DramEnergy,
    /// Address decoding.
    pub mapping: AddressMapping,
}

impl MemoryConfig {
    /// The 32-vault HMC-like stack as seen by *on-stack accelerators*
    /// (TSV-only transport): 510 GB/s class aggregate bandwidth.
    pub fn hmc_stack() -> Self {
        Self {
            name: "hmc-stack-internal".into(),
            timing: DramTiming::hmc_vault(),
            energy: DramEnergy::hmc_internal(),
            mapping: address::hmc_vaults(),
        }
    }

    /// The same stack as seen by the *host* over SerDes links.
    pub fn hmc_stack_external() -> Self {
        Self {
            name: "hmc-stack-external".into(),
            energy: DramEnergy::hmc_external(),
            ..Self::hmc_stack()
        }
    }

    /// A first-generation 16-vault stack (half the vaults, ~256 GB/s):
    /// the smaller sibling for bandwidth-scaling studies.
    pub fn hmc_stack_gen1() -> Self {
        Self {
            name: "hmc-stack-gen1".into(),
            timing: DramTiming::hmc_vault(),
            energy: DramEnergy::hmc_internal(),
            mapping: AddressMapping::Interleaved {
                units: 16,
                banks_per_unit: 8,
                row_bytes: 4096,
                line_bytes: 256,
            },
        }
    }

    /// A *remote* memory stack as seen by an accelerator on another
    /// stack (§3.3's RMS): every access crosses the inter-stack SerDes
    /// links, which serialize the wide TSV bursts (~128 GB/s aggregate)
    /// and charge link energy per byte.
    pub fn hmc_stack_remote() -> Self {
        let mut timing = DramTiming::hmc_vault();
        // The link, not the vault, paces data: 32 B per 8 cycles.
        timing.t_burst = 8;
        Self {
            name: "hmc-stack-remote".into(),
            timing,
            energy: DramEnergy::hmc_external(),
            mapping: address::hmc_vaults(),
        }
    }

    /// Dual-channel DDR3-1600 DIMM system (25.6 GB/s, the Haswell
    /// baseline of Table 3).
    pub fn ddr_dual_channel() -> Self {
        let mut energy = DramEnergy::ddr3_dimm();
        // Two DIMMs' worth of standby/refresh power.
        energy.p_background = mealib_types::Watts::new(3.0);
        Self {
            name: "ddr3-dual-channel".into(),
            timing: DramTiming::ddr3_1600(),
            energy,
            mapping: address::dual_channel_dimms(),
        }
    }

    /// Eight-channel planar DRAM (102.4 GB/s): the MSAS substrate, where
    /// accelerators sit atop conventional DRAM devices (NDA-style).
    pub fn msas_dram() -> Self {
        let mut energy = DramEnergy::ddr3_dimm();
        // Eight channels of devices idle together.
        energy.p_background = mealib_types::Watts::new(12.0);
        Self {
            name: "msas-8ch-ddr3".into(),
            timing: DramTiming::ddr3_1600(),
            energy,
            mapping: AddressMapping::Interleaved {
                units: 8,
                banks_per_unit: 8,
                row_bytes: 8192,
                line_bytes: 64,
            },
        }
    }

    /// Peak aggregate bandwidth across all units.
    pub fn peak_bandwidth(&self) -> BytesPerSec {
        self.timing.peak_bandwidth() * self.mapping.units() as f64
    }

    /// Every timing, energy and mapping defect of the configuration
    /// (`MEA020`–`MEA023`): the one rule set that both
    /// [`validate`](Self::validate) and `mealint` read. A clean
    /// configuration formats nothing.
    pub fn check(&self) -> Report {
        let mut report = Report::new();
        self.timing.check(&mut report);
        self.energy.check(&mut report);
        self.mapping.check(&mut report);
        report
    }

    /// `Ok` exactly when [`check`](Self::check) finds no error;
    /// warnings pass.
    ///
    /// # Errors
    ///
    /// Returns the first error of [`check`](Self::check) as a
    /// [`ConfigError`] named by its code (`MEA020`–`MEA023`).
    pub fn validate(&self) -> Result<(), ConfigError> {
        match self
            .check()
            .diagnostics()
            .iter()
            .find(|d| d.severity == Severity::Error)
        {
            Some(d) => Err(ConfigError::new(d.code.as_str(), d.message.clone())),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for c in [
            MemoryConfig::hmc_stack(),
            MemoryConfig::hmc_stack_external(),
            MemoryConfig::hmc_stack_gen1(),
            MemoryConfig::hmc_stack_remote(),
            MemoryConfig::ddr_dual_channel(),
            MemoryConfig::msas_dram(),
        ] {
            let report = c.check();
            assert!(report.is_clean(), "{}: {report}", c.name);
            assert!(c.validate().is_ok(), "{} failed validation", c.name);
        }
    }

    #[test]
    fn peak_bandwidths_match_table_3() {
        // Table 3: Haswell 25.6 GB/s, MSAS 102.4 GB/s, MEALib 510 GB/s.
        let haswell = MemoryConfig::ddr_dual_channel().peak_bandwidth();
        assert!((haswell.as_gb_per_sec() - 25.6).abs() < 0.1, "{haswell}");
        let msas = MemoryConfig::msas_dram().peak_bandwidth();
        assert!((msas.as_gb_per_sec() - 102.4).abs() < 0.5, "{msas}");
        let mealib = MemoryConfig::hmc_stack().peak_bandwidth();
        assert!((mealib.as_gb_per_sec() - 512.0).abs() < 5.0, "{mealib}");
    }

    #[test]
    fn gen1_stack_has_half_the_bandwidth() {
        let gen1 = MemoryConfig::hmc_stack_gen1().peak_bandwidth();
        let gen2 = MemoryConfig::hmc_stack().peak_bandwidth();
        assert!((gen2.get() / gen1.get() - 2.0).abs() < 0.01);
        assert!(MemoryConfig::hmc_stack_gen1().validate().is_ok());
    }

    #[test]
    fn remote_stack_is_slower_and_hungrier_than_local() {
        let local = MemoryConfig::hmc_stack();
        let remote = MemoryConfig::hmc_stack_remote();
        assert!(remote.peak_bandwidth().get() < 0.3 * local.peak_bandwidth().get());
        assert!(remote.energy.e_byte_link.get() > local.energy.e_byte_link.get());
        assert!(remote.validate().is_ok());
    }

    #[test]
    fn external_view_same_bandwidth_higher_energy() {
        let int = MemoryConfig::hmc_stack();
        let ext = MemoryConfig::hmc_stack_external();
        assert_eq!(int.peak_bandwidth(), ext.peak_bandwidth());
        assert!(ext.energy.e_byte_link.get() > int.energy.e_byte_link.get());
    }
}
