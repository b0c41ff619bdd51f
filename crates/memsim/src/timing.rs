//! DRAM timing parameters.
//!
//! All intervals are in DRAM command-clock cycles; `t_ck` gives the cycle
//! time. The presets are deliberately round JEDEC-flavoured numbers — the
//! reproduction cares about ratios (stacked vs. planar, hit vs. miss), not
//! about matching one specific speed bin.

use mealib_types::{Diagnostic, ErrorCode, Hertz, Report, Seconds};

/// Timing parameters of one DRAM device (bank timing + data bus).
#[derive(Debug, Clone, PartialEq)]
pub struct DramTiming {
    /// Command-clock cycle time.
    pub t_ck: Seconds,
    /// ACT → internal read/write (row-to-column delay), cycles.
    pub t_rcd: u64,
    /// Read command → first data (CAS latency), cycles.
    pub t_cl: u64,
    /// PRE → ACT (row precharge), cycles.
    pub t_rp: u64,
    /// ACT → PRE minimum (row active time), cycles.
    pub t_ras: u64,
    /// Data-bus occupancy of one burst, cycles.
    pub t_burst: u64,
    /// Bytes delivered by one burst on this channel/vault's data path.
    pub burst_bytes: u64,
    /// Write recovery (last write data → PRE), cycles.
    pub t_wr: u64,
    /// Four-activation window: at most four ACTs per unit within this
    /// many cycles (current-delivery limit of the device).
    pub t_faw: u64,
    /// Average refresh interval (one per-bank refresh every `t_refi`
    /// cycles), cycles.
    pub t_refi: u64,
    /// Refresh cycle time (bank unavailable while refreshing), cycles.
    pub t_rfc: u64,
}

impl DramTiming {
    /// DDR3-1600-like DIMM channel: 64-bit bus at 1600 MT/s
    /// (12.8 GB/s peak per channel), 800 MHz command clock.
    pub fn ddr3_1600() -> Self {
        Self {
            t_ck: Hertz::from_mhz(800.0).period(),
            t_rcd: 11,
            t_cl: 11,
            t_rp: 11,
            t_ras: 28,
            t_burst: 4,      // BL8 on a DDR bus = 4 command cycles
            burst_bytes: 64, // 8 transfers x 8 bytes
            t_wr: 12,
            t_faw: 24,
            t_refi: 6240, // 7.8 us at 800 MHz
            t_rfc: 208,   // 260 ns
        }
    }

    /// HMC-like stacked-DRAM vault: a short, wide TSV data path per vault
    /// (32 B per 2 cycles at 1 GHz = 16 GB/s per vault; 32 vaults give the
    /// 510 GB/s aggregate of Table 3).
    pub fn hmc_vault() -> Self {
        Self {
            t_ck: Hertz::from_ghz(1.0).period(),
            t_rcd: 14,
            t_cl: 14,
            t_rp: 14,
            t_ras: 34,
            t_burst: 2,
            burst_bytes: 32,
            t_wr: 16,
            t_faw: 20,    // small rows draw less current per ACT
            t_refi: 7800, // 7.8 us at 1 GHz
            t_rfc: 120,   // short rows refresh quickly
        }
    }

    /// Row cycle time `tRC = tRAS + tRP` — the minimum interval between
    /// activations of different rows in the same bank.
    pub fn t_rc(&self) -> u64 {
        self.t_ras + self.t_rp
    }

    /// Peak data rate of one channel/vault data path.
    pub fn peak_bandwidth(&self) -> mealib_types::BytesPerSec {
        mealib_types::BytesPerSec::new(
            self.burst_bytes as f64 / (self.t_burst as f64 * self.t_ck.get()),
        )
    }

    /// Pushes every timing defect onto `report`: a non-finite or
    /// non-positive cycle time or a zero interval (`MEA020`), a row that
    /// would precharge before its first read completes or a bank that
    /// would do nothing but refresh (`MEA021` errors), and a
    /// four-activation window longer than four row cycles (`MEA021`
    /// warning). Sums of untrusted parameters are taken in `u128`.
    pub fn check(&self, report: &mut Report) {
        let t_ck = self.t_ck.get();
        if !t_ck.is_finite() || t_ck <= 0.0 {
            report.push(Diagnostic::error(
                ErrorCode::MemZeroParameter,
                format!("t_ck is {t_ck}; the command clock period must be positive and finite"),
            ));
        }
        for (name, v) in [
            ("t_rcd", self.t_rcd),
            ("t_cl", self.t_cl),
            ("t_rp", self.t_rp),
            ("t_ras", self.t_ras),
            ("t_burst", self.t_burst),
            ("burst_bytes", self.burst_bytes),
            ("t_wr", self.t_wr),
            ("t_faw", self.t_faw),
            ("t_refi", self.t_refi),
            ("t_rfc", self.t_rfc),
        ] {
            if v == 0 {
                report.push(Diagnostic::error(
                    ErrorCode::MemZeroParameter,
                    format!("{name} is zero; every interval must be at least one cycle"),
                ));
            }
        }
        if u128::from(self.t_ras) < u128::from(self.t_rcd) + u128::from(self.t_cl) {
            report.push(Diagnostic::error(
                ErrorCode::MemTimingInequality,
                format!(
                    "t_ras ({}) < t_rcd + t_cl ({} + {}); the row would precharge \
                     before its first read completes",
                    self.t_ras, self.t_rcd, self.t_cl
                ),
            ));
        }
        if self.t_refi <= self.t_rfc {
            report.push(Diagnostic::error(
                ErrorCode::MemTimingInequality,
                format!(
                    "t_refi ({}) <= t_rfc ({}); the bank would spend its whole life refreshing",
                    self.t_refi, self.t_rfc
                ),
            ));
        }
        // tFAW gates four activations, so a window longer than four row
        // cycles throttles even idle banks — suspicious but not fatal.
        let four_row_cycles = 4 * (u128::from(self.t_ras) + u128::from(self.t_rp));
        if self.t_faw != 0 && u128::from(self.t_faw) > four_row_cycles {
            report.push(Diagnostic::warning(
                ErrorCode::MemTimingInequality,
                format!(
                    "t_faw ({}) exceeds four row cycles ({four_row_cycles}); activations \
                     would be current-limited even when banks are idle",
                    self.t_faw,
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(t: &DramTiming) -> Report {
        let mut report = Report::new();
        t.check(&mut report);
        report
    }

    #[test]
    fn presets_validate() {
        assert!(check(&DramTiming::ddr3_1600()).is_clean());
        assert!(check(&DramTiming::hmc_vault()).is_clean());
    }

    #[test]
    fn ddr3_peak_bandwidth_is_12_8_gbps() {
        let bw = DramTiming::ddr3_1600().peak_bandwidth();
        assert!((bw.as_gb_per_sec() - 12.8).abs() < 0.01, "{bw}");
    }

    #[test]
    fn hmc_vault_peak_bandwidth_is_16_gbps() {
        let bw = DramTiming::hmc_vault().peak_bandwidth();
        assert!((bw.as_gb_per_sec() - 16.0).abs() < 0.01, "{bw}");
    }

    #[test]
    fn t_rc_is_ras_plus_rp() {
        let t = DramTiming::ddr3_1600();
        assert_eq!(t.t_rc(), 39);
    }

    #[test]
    fn refresh_overhead_is_a_few_percent() {
        // The standard sanity check: tRFC/tREFI is the fraction of time
        // a bank is unavailable to refresh — a few percent on DDR3.
        let t = DramTiming::ddr3_1600();
        let overhead = t.t_rfc as f64 / t.t_refi as f64;
        assert!(
            (0.01..0.08).contains(&overhead),
            "refresh overhead {overhead:.3}"
        );
    }

    #[test]
    fn refresh_interval_must_exceed_refresh_cycle() {
        let mut t = DramTiming::ddr3_1600();
        t.t_refi = t.t_rfc;
        let r = check(&t);
        assert_eq!(r.error_count(), 1, "{r}");
        assert!(r.has_code(ErrorCode::MemTimingInequality), "{r}");
    }

    #[test]
    fn a_clock_period_must_be_positive_and_finite() {
        for t_ck in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            let mut t = DramTiming::hmc_vault();
            t.t_ck = Seconds::new(t_ck);
            let r = check(&t);
            assert_eq!(r.error_count(), 1, "{r}");
            assert!(r.has_code(ErrorCode::MemZeroParameter), "{r}");
            let want =
                format!("t_ck is {t_ck}; the command clock period must be positive and finite");
            assert!(r.to_string().contains(&want), "{r}");
        }
    }

    #[test]
    fn validation_rejects_zero_fields() {
        let mut t = DramTiming::ddr3_1600();
        t.t_rcd = 0;
        let r = check(&t);
        assert!(r.has_code(ErrorCode::MemZeroParameter), "{r}");
        assert!(r.to_string().contains("t_rcd is zero"), "{r}");
        let mut t = DramTiming::ddr3_1600();
        t.t_ras = 5; // < t_rcd + t_cl
        let r = check(&t);
        assert_eq!(r.error_count(), 1, "{r}");
        assert!(r.has_code(ErrorCode::MemTimingInequality), "{r}");
    }
}
