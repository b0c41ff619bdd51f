//! Abstract access patterns.
//!
//! Accelerators operating on gigabyte datasets would generate tens of
//! millions of trace entries; instead they describe their traffic as an
//! [`AccessPattern`] that the [`crate::analytic`] model prices in closed
//! form using the *same* timing constants as the cycle engine. Tests in
//! this crate cross-validate the two paths on traces small enough to
//! replay.

/// A summarized memory-access pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPattern {
    /// A unit-stride stream reading and/or writing contiguous data.
    Sequential {
        /// Bytes read.
        read: u64,
        /// Bytes written.
        written: u64,
    },
    /// `count` accesses of `elem_bytes` each, `stride` bytes apart.
    Strided {
        /// Distance between consecutive accesses, bytes.
        stride: u64,
        /// Useful bytes per access.
        elem_bytes: u64,
        /// Number of accesses.
        count: u64,
        /// `true` if the accesses are writes.
        write: bool,
    },
    /// `count` accesses of `elem_bytes` each, uniformly distributed over
    /// a `region_bytes` working set (the SPMV gather pattern).
    Random {
        /// Useful bytes per access.
        elem_bytes: u64,
        /// Number of accesses.
        count: u64,
        /// Size of the region the accesses fall in.
        region_bytes: u64,
    },
    /// Patterns executed one after another (e.g. a pass over the input
    /// followed by a pass over the output).
    Then(Vec<AccessPattern>),
}

impl AccessPattern {
    /// A contiguous read of `bytes`.
    pub fn sequential_read(bytes: u64) -> Self {
        AccessPattern::Sequential {
            read: bytes,
            written: 0,
        }
    }

    /// A contiguous write of `bytes`.
    pub fn sequential_write(bytes: u64) -> Self {
        AccessPattern::Sequential {
            read: 0,
            written: bytes,
        }
    }

    /// A contiguous read of `read` bytes interleaved with a contiguous
    /// write of `written` bytes (the AXPY shape).
    pub fn sequential_rw(read: u64, written: u64) -> Self {
        AccessPattern::Sequential { read, written }
    }

    /// Useful bytes this pattern moves (reads + writes), ignoring
    /// fetch-granularity waste.
    pub fn useful_bytes(&self) -> u64 {
        match self {
            AccessPattern::Sequential { read, written } => read + written,
            AccessPattern::Strided {
                elem_bytes, count, ..
            }
            | AccessPattern::Random {
                elem_bytes, count, ..
            } => elem_bytes * count,
            AccessPattern::Then(parts) => parts.iter().map(|p| p.useful_bytes()).sum(),
        }
    }

    /// Bytes of address space the pattern walks, summed over its parts
    /// (a strided walk spans `max(stride, elem_bytes) * count`), or
    /// `None` if that passes `u64`. The analytic estimator's byte, burst
    /// and row counts for the pattern stay within it.
    pub fn checked_span(&self) -> Option<u64> {
        match self {
            AccessPattern::Sequential { read, written } => read.checked_add(*written),
            AccessPattern::Strided {
                stride,
                elem_bytes,
                count,
                ..
            } => (*stride).max(*elem_bytes).checked_mul(*count),
            AccessPattern::Random {
                elem_bytes, count, ..
            } => elem_bytes.checked_mul(*count),
            AccessPattern::Then(parts) => parts
                .iter()
                .try_fold(0u64, |sum, p| sum.checked_add(p.checked_span()?)),
        }
    }

    /// Useful bytes read (as opposed to written).
    pub fn useful_read_bytes(&self) -> u64 {
        match self {
            AccessPattern::Sequential { read, .. } => *read,
            AccessPattern::Strided {
                elem_bytes,
                count,
                write,
                ..
            } => {
                if *write {
                    0
                } else {
                    elem_bytes * count
                }
            }
            AccessPattern::Random {
                elem_bytes, count, ..
            } => elem_bytes * count,
            AccessPattern::Then(parts) => parts.iter().map(|p| p.useful_read_bytes()).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn useful_bytes_accounting() {
        assert_eq!(AccessPattern::sequential_read(100).useful_bytes(), 100);
        assert_eq!(AccessPattern::sequential_rw(60, 40).useful_bytes(), 100);
        let strided = AccessPattern::Strided {
            stride: 4096,
            elem_bytes: 4,
            count: 10,
            write: false,
        };
        assert_eq!(strided.useful_bytes(), 40);
        assert_eq!(strided.useful_read_bytes(), 40);
        assert_eq!(strided.checked_span(), Some(40960));
        let w = AccessPattern::Strided {
            stride: 64,
            elem_bytes: 8,
            count: 5,
            write: true,
        };
        assert_eq!(w.useful_read_bytes(), 0);
        let then = AccessPattern::Then(vec![
            AccessPattern::sequential_read(10),
            AccessPattern::sequential_write(20),
        ]);
        assert_eq!(then.useful_bytes(), 30);
        assert_eq!(then.useful_read_bytes(), 10);
        assert_eq!(then.checked_span(), Some(30));
        assert_eq!(
            AccessPattern::sequential_rw(u64::MAX, 1).checked_span(),
            None
        );
    }
}
