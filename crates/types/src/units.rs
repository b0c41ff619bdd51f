//! Physical unit newtypes used throughout the simulators.
//!
//! All quantities are kept in explicit newtypes so that, e.g., a joule can
//! never be added to a second by accident (C-NEWTYPE). Conversions between
//! related quantities are spelled out as methods: `Joules / Seconds = Watts`,
//! `Bytes / Seconds = BytesPerSec`, `Cycles / Hertz = Seconds`, and so on.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

macro_rules! f64_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Wraps a raw `f64` value expressed in the base unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the base unit.
            #[inline]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns `true` if the value is exactly zero.
            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:.6} {}", self.0, $suffix)
            }
        }
    };
}

f64_unit!(
    /// A duration in seconds.
    Seconds,
    "s"
);
f64_unit!(
    /// An amount of energy in joules.
    Joules,
    "J"
);
f64_unit!(
    /// A power draw in watts.
    Watts,
    "W"
);
f64_unit!(
    /// A clock frequency in hertz.
    Hertz,
    "Hz"
);
f64_unit!(
    /// A data rate in bytes per second.
    BytesPerSec,
    "B/s"
);
f64_unit!(
    /// A floating-point throughput in giga floating-point operations
    /// per second.
    Gflops,
    "GFLOPS"
);

impl Seconds {
    /// Creates a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Self(ms * 1e-3)
    }

    /// Creates a duration from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Self(us * 1e-6)
    }

    /// Creates a duration from nanoseconds.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        Self(ns * 1e-9)
    }

    /// This duration expressed in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// This duration expressed in microseconds.
    #[inline]
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }
}

impl Joules {
    /// Creates an energy from millijoules.
    #[inline]
    pub fn from_millis(mj: f64) -> Self {
        Self(mj * 1e-3)
    }

    /// Creates an energy from nanojoules.
    #[inline]
    pub fn from_nanos(nj: f64) -> Self {
        Self(nj * 1e-9)
    }

    /// Creates an energy from picojoules.
    #[inline]
    pub fn from_picos(pj: f64) -> Self {
        Self(pj * 1e-12)
    }

    /// Average power over a duration.
    ///
    /// Returns [`Watts::ZERO`] when `elapsed` is zero so that idle
    /// components never produce NaN power reports.
    #[inline]
    pub fn over(self, elapsed: Seconds) -> Watts {
        if elapsed.is_zero() {
            Watts::ZERO
        } else {
            Watts(self.0 / elapsed.get())
        }
    }
}

impl Watts {
    /// Energy consumed at this power over a duration.
    #[inline]
    pub fn for_duration(self, elapsed: Seconds) -> Joules {
        Joules(self.0 * elapsed.get())
    }
}

impl Hertz {
    /// Creates a frequency from megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }

    /// Creates a frequency from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Self(ghz * 1e9)
    }

    /// This frequency expressed in gigahertz.
    #[inline]
    pub fn as_ghz(self) -> f64 {
        self.0 * 1e-9
    }

    /// The period of one cycle at this frequency.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    #[inline]
    pub fn period(self) -> Seconds {
        assert!(self.0 > 0.0, "zero frequency has no period");
        Seconds(1.0 / self.0)
    }
}

impl BytesPerSec {
    /// Creates a data rate from GB/s (10^9 bytes per second).
    #[inline]
    pub fn from_gb_per_sec(gb: f64) -> Self {
        Self(gb * 1e9)
    }

    /// This data rate expressed in GiB/s.
    #[inline]
    pub fn as_gib_per_sec(self) -> f64 {
        self.0 / (1u64 << 30) as f64
    }

    /// This data rate expressed in GB/s (10^9).
    #[inline]
    pub fn as_gb_per_sec(self) -> f64 {
        self.0 * 1e-9
    }
}

impl Gflops {
    /// Creates a throughput from a raw FLOP count over a duration.
    #[inline]
    pub fn from_flops(flops: f64, elapsed: Seconds) -> Self {
        if elapsed.is_zero() {
            Self::ZERO
        } else {
            Self(flops / elapsed.get() * 1e-9)
        }
    }

    /// Energy efficiency in GFLOPS per watt.
    #[inline]
    pub fn per_watt(self, power: Watts) -> f64 {
        if power.is_zero() {
            0.0
        } else {
            self.0 / power.get()
        }
    }
}

/// A whole number of clock cycles.
///
/// Unlike the `f64` quantities above, cycles are discrete: the DRAM and NoC
/// simulators advance in integer ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycles(u64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Self = Self(0);

    /// Wraps a raw cycle count.
    #[inline]
    pub const fn new(count: u64) -> Self {
        Self(count)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Converts to wall-clock time at a given clock frequency.
    #[inline]
    pub fn at(self, clock: Hertz) -> Seconds {
        Seconds::new(self.0 as f64 / clock.get())
    }

    /// Returns the larger of `self` and `other`.
    #[inline]
    pub fn max(self, other: Self) -> Self {
        Self(self.0.max(other.0))
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Self) -> Self {
        Self(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Mul<u64> for Cycles {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Self = Self(0);

    /// Wraps a raw byte count.
    #[inline]
    pub const fn new(count: u64) -> Self {
        Self(count)
    }

    /// Creates a byte count from KiB.
    #[inline]
    pub const fn from_kib(kib: u64) -> Self {
        Self(kib << 10)
    }

    /// Creates a byte count from MiB.
    #[inline]
    pub const fn from_mib(mib: u64) -> Self {
        Self(mib << 20)
    }

    /// Creates a byte count from GiB.
    #[inline]
    pub const fn from_gib(gib: u64) -> Self {
        Self(gib << 30)
    }

    /// Returns the raw byte count.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }

    /// This count expressed in MiB.
    #[inline]
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1u64 << 20) as f64
    }

    /// This count expressed in GiB.
    #[inline]
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1u64 << 30) as f64
    }

    /// Average data rate when this many bytes move in `elapsed`.
    #[inline]
    pub fn per(self, elapsed: Seconds) -> BytesPerSec {
        if elapsed.is_zero() {
            BytesPerSec::ZERO
        } else {
            BytesPerSec::new(self.0 as f64 / elapsed.get())
        }
    }

    /// Time to move this many bytes at a given rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is zero.
    #[inline]
    pub fn at_rate(self, rate: BytesPerSec) -> Seconds {
        assert!(rate.get() > 0.0, "cannot move data at zero bandwidth");
        Seconds::new(self.0 as f64 / rate.get())
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Self) -> Option<Self> {
        self.0.checked_add(rhs.0).map(Self)
    }

    /// Rounds up to the next multiple of `align`.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero.
    #[inline]
    pub fn align_up(self, align: u64) -> Self {
        assert!(align > 0, "alignment must be nonzero");
        Self(self.0.div_ceil(align) * align)
    }
}

impl Add for Bytes {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

impl Mul<u64> for Bytes {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: u64) -> Self {
        Self(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        Self(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        if b >= 1 << 30 {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if b >= 1 << 20 {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if b >= 1 << 10 {
            write!(f, "{:.2} KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b} B")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Watts::new(10.0).for_duration(Seconds::new(2.0));
        assert_eq!(e, Joules::new(20.0));
        assert_eq!(e.over(Seconds::new(2.0)), Watts::new(10.0));
    }

    #[test]
    fn zero_duration_power_is_zero() {
        assert_eq!(Joules::new(5.0).over(Seconds::ZERO), Watts::ZERO);
    }

    #[test]
    fn cycles_to_seconds() {
        let t = Cycles::new(2_000_000_000).at(Hertz::from_ghz(2.0));
        assert!((t.get() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bytes_constructors_and_display() {
        assert_eq!(Bytes::from_kib(1).get(), 1024);
        assert_eq!(Bytes::from_mib(1).get(), 1 << 20);
        assert_eq!(Bytes::from_gib(1).get(), 1 << 30);
        assert_eq!(format!("{}", Bytes::new(512)), "512 B");
        assert_eq!(format!("{}", Bytes::from_gib(2)), "2.00 GiB");
    }

    #[test]
    fn bandwidth_round_trip() {
        let bw = Bytes::from_gib(4).per(Seconds::new(2.0));
        assert!((bw.as_gib_per_sec() - 2.0).abs() < 1e-12);
        let t = Bytes::from_gib(4).at_rate(bw);
        assert!((t.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn align_up_rounds_to_multiple() {
        assert_eq!(Bytes::new(1).align_up(4096).get(), 4096);
        assert_eq!(Bytes::new(4096).align_up(4096).get(), 4096);
        assert_eq!(Bytes::new(4097).align_up(4096).get(), 8192);
        assert_eq!(Bytes::ZERO.align_up(64).get(), 0);
    }

    #[test]
    #[should_panic(expected = "alignment must be nonzero")]
    fn align_up_zero_alignment_panics() {
        let _ = Bytes::new(1).align_up(0);
    }

    #[test]
    fn gflops_from_flops() {
        let g = Gflops::from_flops(2e9, Seconds::new(1.0));
        assert!((g.get() - 2.0).abs() < 1e-12);
        assert!((g.per_watt(Watts::new(4.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unit_sums() {
        let total: Joules = [Joules::new(1.0), Joules::new(2.5)].into_iter().sum();
        assert_eq!(total, Joules::new(3.5));
        let total: Cycles = [Cycles::new(3), Cycles::new(4)].into_iter().sum();
        assert_eq!(total.get(), 7);
    }

    #[test]
    fn hertz_period() {
        let p = Hertz::from_mhz(100.0).period();
        assert!((p.get() - 1e-8).abs() < 1e-20);
    }

    #[test]
    fn ratio_of_like_units_is_dimensionless() {
        let speedup = Seconds::new(10.0) / Seconds::new(2.0);
        assert!((speedup - 5.0).abs() < 1e-12);
    }
}
