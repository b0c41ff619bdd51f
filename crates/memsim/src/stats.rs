//! Result statistics shared by the cycle engine and the analytic model.

use core::fmt;

use mealib_obs::{Counter, Obs};
use mealib_types::{Bytes, BytesPerSec, Cycles, Joules, Seconds};

/// Outcome of replaying (or estimating) a memory trace on one device.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceStats {
    /// Wall-clock time the device was busy.
    pub elapsed: Seconds,
    /// Device cycles the trace occupied (command clock).
    pub cycles: Cycles,
    /// Bytes read from the array.
    pub bytes_read: Bytes,
    /// Bytes written to the array.
    pub bytes_written: Bytes,
    /// Row activations issued.
    pub activations: u64,
    /// Row precharges issued (explicit PRE on conflicts plus the
    /// implicit closes performed by refresh).
    pub precharges: u64,
    /// Column accesses that hit an open row.
    pub row_hits: u64,
    /// Column accesses that required opening a row.
    pub row_misses: u64,
    /// Per-bank refresh operations performed during the trace.
    pub refreshes: u64,
    /// Total energy consumed (array + transport + background).
    pub energy: Joules,
}

impl TraceStats {
    /// Total bytes moved in either direction.
    pub fn bytes_moved(&self) -> Bytes {
        self.bytes_read + self.bytes_written
    }

    /// Achieved bandwidth over the busy interval.
    pub fn achieved_bandwidth(&self) -> BytesPerSec {
        self.bytes_moved().per(self.elapsed)
    }

    /// Fraction of column accesses that hit an open row, or `None` when
    /// no accesses were made.
    pub fn row_hit_rate(&self) -> Option<f64> {
        let total = self.row_hits + self.row_misses;
        (total > 0).then(|| self.row_hits as f64 / total as f64)
    }

    /// Average power over the busy interval.
    pub fn average_power(&self) -> mealib_types::Watts {
        self.energy.over(self.elapsed)
    }

    /// Merges the stats of two phases executed *back to back*: everything
    /// adds, including elapsed time.
    pub fn merge_sequential(&self, other: &TraceStats) -> TraceStats {
        TraceStats {
            elapsed: self.elapsed + other.elapsed,
            cycles: self.cycles + other.cycles,
            bytes_read: self.bytes_read + other.bytes_read,
            bytes_written: self.bytes_written + other.bytes_written,
            activations: self.activations + other.activations,
            precharges: self.precharges + other.precharges,
            row_hits: self.row_hits + other.row_hits,
            row_misses: self.row_misses + other.row_misses,
            refreshes: self.refreshes + other.refreshes,
            energy: self.energy + other.energy,
        }
    }

    /// Records this trace's aggregate DRAM event counts into an
    /// observability handle. A no-op when recording is off.
    pub fn record_into(&self, obs: &Obs) {
        if !obs.enabled() {
            return;
        }
        obs.count(Counter::DramAct, self.activations);
        obs.count(Counter::DramPre, self.precharges);
        obs.count(Counter::DramRdBytes, self.bytes_read.get());
        obs.count(Counter::DramWrBytes, self.bytes_written.get());
        obs.count(Counter::DramRowHit, self.row_hits);
        obs.count(Counter::DramRowMiss, self.row_misses);
        obs.count(Counter::DramRefresh, self.refreshes);
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {} ({:.2} GB/s, hit-rate {}, {})",
            self.bytes_moved(),
            self.elapsed,
            self.achieved_bandwidth().as_gb_per_sec(),
            self.row_hit_rate()
                .map_or_else(|| "n/a".to_string(), |r| format!("{:.1}%", r * 100.0)),
            self.energy,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, read: u64, hits: u64, misses: u64) -> TraceStats {
        TraceStats {
            elapsed: Seconds::new(t),
            cycles: Cycles::new((t * 1e9) as u64),
            bytes_read: Bytes::new(read),
            bytes_written: Bytes::ZERO,
            activations: misses,
            precharges: misses,
            row_hits: hits,
            row_misses: misses,
            refreshes: 0,
            energy: Joules::new(t * 2.0),
        }
    }

    #[test]
    fn bandwidth_and_hit_rate() {
        let s = sample(2.0, 4 << 30, 3, 1);
        assert!((s.achieved_bandwidth().as_gib_per_sec() - 2.0).abs() < 1e-9);
        assert_eq!(s.row_hit_rate(), Some(0.75));
        assert_eq!(s.average_power(), mealib_types::Watts::new(2.0));
    }

    #[test]
    fn empty_stats_have_no_hit_rate() {
        assert_eq!(TraceStats::default().row_hit_rate(), None);
    }

    #[test]
    fn sequential_merge_sums_time() {
        let a = sample(1.0, 100, 0, 0);
        let b = sample(3.0, 200, 0, 0);
        let m = a.merge_sequential(&b);
        assert_eq!(m.elapsed, Seconds::new(4.0));
        assert_eq!(m.bytes_moved().get(), 300);
    }
}
