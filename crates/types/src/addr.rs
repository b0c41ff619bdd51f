//! Physical and virtual address newtypes.
//!
//! MEALib's accelerators address memory *physically* (they have no MMU,
//! §3.3 of the paper), while the host CPU uses virtual addresses that the
//! runtime's device driver maps onto reserved physically-contiguous space.
//! Keeping the two address spaces as distinct types makes it impossible to
//! hand an untranslated virtual address to an accelerator.

use core::fmt;
use core::ops::{Add, Sub};

use crate::units::Bytes;

macro_rules! addr_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(u64);

        impl $name {
            /// The null address.
            pub const NULL: Self = Self(0);

            /// Wraps a raw address.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw address value.
            #[inline]
            pub const fn get(self) -> u64 {
                self.0
            }

            /// Returns `true` if the address is aligned to `align` bytes.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two.
            #[inline]
            pub fn is_aligned(self, align: u64) -> bool {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                self.0 & (align - 1) == 0
            }

            /// Rounds this address up to the next multiple of `align`.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two.
            #[inline]
            pub fn align_up(self, align: u64) -> Self {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                Self((self.0 + align - 1) & !(align - 1))
            }

            /// Rounds this address down to the previous multiple of `align`.
            ///
            /// # Panics
            ///
            /// Panics if `align` is not a power of two.
            #[inline]
            pub fn align_down(self, align: u64) -> Self {
                assert!(align.is_power_of_two(), "alignment must be a power of two");
                Self(self.0 & !(align - 1))
            }

            /// Byte distance from `base` to `self`.
            ///
            /// # Panics
            ///
            /// Panics if `self < base`.
            #[inline]
            pub fn offset_from(self, base: Self) -> Bytes {
                assert!(self.0 >= base.0, "address precedes base");
                Bytes::new(self.0 - base.0)
            }

            /// Checked addition of a byte offset, `None` on overflow.
            #[inline]
            pub fn checked_add(self, offset: Bytes) -> Option<Self> {
                self.0.checked_add(offset.get()).map(Self)
            }
        }

        impl Add<Bytes> for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Bytes) -> Self {
                Self(self.0 + rhs.get())
            }
        }

        impl Sub<Bytes> for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Bytes) -> Self {
                Self(self.0 - rhs.get())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, ":{:#012x}"), self.0)
            }
        }

        impl fmt::LowerHex for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }
    };
}

addr_type!(
    /// A physical DRAM address, as seen by vault controllers and
    /// accelerators.
    PhysAddr,
    "pa"
);
addr_type!(
    /// A virtual address, as seen by legacy code running on the host CPU.
    VirtAddr,
    "va"
);

/// A half-open physical address range `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    start: PhysAddr,
    len: Bytes,
}

impl AddrRange {
    /// Creates a range from a base address and a length.
    ///
    /// # Panics
    ///
    /// Panics if the range wraps the 64-bit address space.
    pub fn new(start: PhysAddr, len: Bytes) -> Self {
        assert!(
            start.checked_add(len).is_some(),
            "address range overflows the address space"
        );
        Self { start, len }
    }

    /// Creates a range from a base address and a length, or `None` if
    /// the range wraps the 64-bit address space — the total form of
    /// [`AddrRange::new`] for ranges read from untrusted input.
    pub fn checked(start: PhysAddr, len: Bytes) -> Option<Self> {
        start.checked_add(len).map(|_| Self { start, len })
    }

    /// The inclusive lower bound.
    #[inline]
    pub fn start(&self) -> PhysAddr {
        self.start
    }

    /// The exclusive upper bound.
    #[inline]
    pub fn end(&self) -> PhysAddr {
        self.start + self.len
    }

    /// Number of bytes covered.
    #[inline]
    pub fn len(&self) -> Bytes {
        self.len
    }

    /// Returns `true` if the range covers no bytes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == Bytes::ZERO
    }

    /// Returns `true` if `addr` falls inside this range.
    #[inline]
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr >= self.start && addr < self.end()
    }

    /// Returns `true` if `other` is fully contained in this range.
    #[inline]
    pub fn contains_range(&self, other: &AddrRange) -> bool {
        other.is_empty() || (other.start >= self.start && other.end() <= self.end())
    }

    /// Returns `true` if the two ranges share at least one byte.
    #[inline]
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.start < other.end()
            && other.start < self.end()
    }

    /// Splits the range into aligned chunks of at most `chunk` bytes.
    ///
    /// The first chunk ends at the first `chunk`-aligned boundary, so each
    /// subsequent chunk never straddles an alignment boundary. This is how
    /// the memory simulator decomposes a transfer into row-buffer-sized
    /// bursts.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is not a power of two.
    pub fn chunks(&self, chunk: u64) -> impl Iterator<Item = AddrRange> + '_ {
        assert!(chunk.is_power_of_two(), "chunk must be a power of two");
        let mut cursor = self.start;
        let end = self.end();
        core::iter::from_fn(move || {
            if cursor >= end {
                return None;
            }
            let boundary = (cursor + Bytes::new(1)).align_up(chunk);
            let stop = boundary.min(end);
            let piece = AddrRange::new(cursor, stop.offset_from(cursor));
            cursor = stop;
            Some(piece)
        })
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_checks() {
        assert!(PhysAddr::new(0x1000).is_aligned(0x1000));
        assert!(!PhysAddr::new(0x1001).is_aligned(0x1000));
        assert_eq!(PhysAddr::new(0x1001).align_up(0x1000).get(), 0x2000);
        assert_eq!(PhysAddr::new(0x1fff).align_down(0x1000).get(), 0x1000);
    }

    #[test]
    fn range_membership() {
        let r = AddrRange::new(PhysAddr::new(0x100), Bytes::new(0x100));
        assert!(r.contains(PhysAddr::new(0x100)));
        assert!(r.contains(PhysAddr::new(0x1ff)));
        assert!(!r.contains(PhysAddr::new(0x200)));
        assert!(!r.contains(PhysAddr::new(0xff)));
    }

    #[test]
    fn checked_ranges_refuse_to_wrap() {
        let top = AddrRange::checked(PhysAddr::new(u64::MAX - 0xff), Bytes::new(0xff)).unwrap();
        assert_eq!(top.end().get(), u64::MAX);
        assert!(AddrRange::checked(PhysAddr::new(u64::MAX - 0xff), Bytes::new(0x100)).is_none());
        assert!(AddrRange::checked(PhysAddr::new(1), Bytes::new(u64::MAX)).is_none());
        assert_eq!(
            AddrRange::checked(PhysAddr::new(0x100), Bytes::new(0x100)),
            Some(AddrRange::new(PhysAddr::new(0x100), Bytes::new(0x100)))
        );
    }

    #[test]
    fn range_overlap() {
        let a = AddrRange::new(PhysAddr::new(0), Bytes::new(0x100));
        let b = AddrRange::new(PhysAddr::new(0x80), Bytes::new(0x100));
        let c = AddrRange::new(PhysAddr::new(0x100), Bytes::new(0x100));
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        let empty = AddrRange::new(PhysAddr::new(0x10), Bytes::ZERO);
        assert!(!a.overlaps(&empty));
    }

    #[test]
    fn chunking_respects_boundaries() {
        // 0x30..0x130 split at 0x40-aligned boundaries:
        // first chunk 0x30..0x40 (16B), then 0x40, 0x80, 0xc0, 0x100..0x130.
        let r = AddrRange::new(PhysAddr::new(0x30), Bytes::new(0x100));
        let chunks: Vec<_> = r.chunks(0x40).collect();
        assert_eq!(chunks.len(), 5);
        assert_eq!(chunks[0].len().get(), 0x10);
        assert_eq!(chunks[1].start().get(), 0x40);
        assert_eq!(chunks[4].len().get(), 0x30);
        let total: u64 = chunks.iter().map(|c| c.len().get()).sum();
        assert_eq!(total, 0x100);
    }

    #[test]
    fn chunk_of_aligned_range_is_whole_chunks() {
        let r = AddrRange::new(PhysAddr::new(0x400), Bytes::new(0x100));
        let chunks: Vec<_> = r.chunks(0x80).collect();
        assert_eq!(chunks.len(), 2);
        assert!(chunks.iter().all(|c| c.len().get() == 0x80));
    }

    #[test]
    fn offset_from_base() {
        let base = VirtAddr::new(0x1000);
        let p = base + Bytes::new(0x20);
        assert_eq!(p.offset_from(base).get(), 0x20);
    }

    #[test]
    #[should_panic(expected = "address precedes base")]
    fn offset_from_panics_when_below_base() {
        let _ = VirtAddr::new(0x10).offset_from(VirtAddr::new(0x20));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", PhysAddr::new(0xabc)), "pa:0x0000000abc");
        assert_eq!(format!("{}", VirtAddr::new(0x1)), "va:0x0000000001");
    }
}
