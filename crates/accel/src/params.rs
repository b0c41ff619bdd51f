//! Typed accelerator parameters and their `.para`-file wire format.
//!
//! "The opcode specifies which accelerator to use, while the other two
//! fields determine the size and starting address of accelerator
//! parameters, which are determined by the targeted library APIs" (§2.3).
//! Each variant here mirrors the parameters of the corresponding MKL API
//! (problem size, strides, batch counts); [`AccelParams::to_bytes`] /
//! [`AccelParams::from_bytes`] define the little-endian blob stored in
//! the descriptor's Parameter Region.

use core::fmt;

use mealib_tdl::AcceleratorKind;

use crate::hw::AccelHwConfig;
use crate::model::AccelModel;

/// Parameters of one accelerator invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccelParams {
    /// `cblas_saxpy(n, alpha, x, incx, y, incy)`.
    Axpy {
        /// Element count.
        n: u64,
        /// Scale factor.
        alpha: f32,
        /// Stride of `x` in elements.
        incx: u32,
        /// Stride of `y` in elements.
        incy: u32,
    },
    /// `cblas_sdot` / `cblas_cdotc_sub`.
    Dot {
        /// Element count.
        n: u64,
        /// Stride of `x` in elements.
        incx: u32,
        /// Stride of `y` in elements.
        incy: u32,
        /// `true` for the conjugated complex variant.
        complex: bool,
    },
    /// `cblas_sgemv` (no transpose, row-major).
    Gemv {
        /// Rows of the matrix.
        m: u64,
        /// Columns of the matrix.
        n: u64,
    },
    /// `mkl_scsrgemv`.
    Spmv {
        /// Matrix rows.
        rows: u64,
        /// Matrix columns.
        cols: u64,
        /// Stored non-zeros.
        nnz: u64,
    },
    /// `dfsInterpolate1D` over contiguous blocks.
    Resmp {
        /// Independent blocks.
        blocks: u64,
        /// Input samples per block.
        in_per_block: u64,
        /// Output samples per block.
        out_per_block: u64,
    },
    /// `fftwf_execute` of a batch of 1D complex transforms.
    Fft {
        /// Transform length (power of two).
        n: u64,
        /// Number of transforms in the batch.
        batch: u64,
    },
    /// `mkl_simatcopy` matrix transpose / layout reshape.
    Reshp {
        /// Matrix rows.
        rows: u64,
        /// Matrix columns.
        cols: u64,
        /// Element size in bytes.
        elem_bytes: u32,
    },
}

/// Error decoding a parameter blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamsError {
    /// The blob is shorter than the fixed layout requires.
    Truncated,
    /// The blob's leading tag byte names no accelerator.
    BadTag(u8),
    /// A field failed validation (zero size, stride, ...).
    Invalid(&'static str),
}

impl fmt::Display for ParamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamsError::Truncated => f.write_str("parameter blob truncated"),
            ParamsError::BadTag(t) => write!(f, "unknown parameter tag {t:#04x}"),
            ParamsError::Invalid(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for ParamsError {}

impl AccelParams {
    /// Which accelerator these parameters configure.
    pub fn kind(&self) -> AcceleratorKind {
        match self {
            AccelParams::Axpy { .. } => AcceleratorKind::Axpy,
            AccelParams::Dot { .. } => AcceleratorKind::Dot,
            AccelParams::Gemv { .. } => AcceleratorKind::Gemv,
            AccelParams::Spmv { .. } => AcceleratorKind::Spmv,
            AccelParams::Resmp { .. } => AcceleratorKind::Resmp,
            AccelParams::Fft { .. } => AcceleratorKind::Fft,
            AccelParams::Reshp { .. } => AcceleratorKind::Reshp,
        }
    }

    /// Serializes to the `.para` wire format: a tag byte followed by
    /// fixed little-endian fields.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = vec![self.kind().opcode()];
        let push64 = |v: u64, out: &mut Vec<u8>| out.extend_from_slice(&v.to_le_bytes());
        match *self {
            AccelParams::Axpy {
                n,
                alpha,
                incx,
                incy,
            } => {
                push64(n, &mut out);
                out.extend_from_slice(&alpha.to_le_bytes());
                out.extend_from_slice(&incx.to_le_bytes());
                out.extend_from_slice(&incy.to_le_bytes());
            }
            AccelParams::Dot {
                n,
                incx,
                incy,
                complex,
            } => {
                push64(n, &mut out);
                out.extend_from_slice(&incx.to_le_bytes());
                out.extend_from_slice(&incy.to_le_bytes());
                out.push(complex as u8);
            }
            AccelParams::Gemv { m, n } => {
                push64(m, &mut out);
                push64(n, &mut out);
            }
            AccelParams::Spmv { rows, cols, nnz } => {
                push64(rows, &mut out);
                push64(cols, &mut out);
                push64(nnz, &mut out);
            }
            AccelParams::Resmp {
                blocks,
                in_per_block,
                out_per_block,
            } => {
                push64(blocks, &mut out);
                push64(in_per_block, &mut out);
                push64(out_per_block, &mut out);
            }
            AccelParams::Fft { n, batch } => {
                push64(n, &mut out);
                push64(batch, &mut out);
            }
            AccelParams::Reshp {
                rows,
                cols,
                elem_bytes,
            } => {
                push64(rows, &mut out);
                push64(cols, &mut out);
                out.extend_from_slice(&elem_bytes.to_le_bytes());
            }
        }
        out
    }

    /// Deserializes the `.para` wire format.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamsError`] for short blobs, unknown tags, or
    /// field values that fail [`AccelParams::validate`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ParamsError> {
        let (&tag, rest) = bytes.split_first().ok_or(ParamsError::Truncated)?;
        let kind = AcceleratorKind::from_opcode(tag).ok_or(ParamsError::BadTag(tag))?;
        let mut cursor = Cursor { rest };
        let parsed = match kind {
            AcceleratorKind::Axpy => AccelParams::Axpy {
                n: cursor.u64()?,
                alpha: cursor.f32()?,
                incx: cursor.u32()?,
                incy: cursor.u32()?,
            },
            AcceleratorKind::Dot => AccelParams::Dot {
                n: cursor.u64()?,
                incx: cursor.u32()?,
                incy: cursor.u32()?,
                complex: cursor.u8()? != 0,
            },
            AcceleratorKind::Gemv => AccelParams::Gemv {
                m: cursor.u64()?,
                n: cursor.u64()?,
            },
            AcceleratorKind::Spmv => AccelParams::Spmv {
                rows: cursor.u64()?,
                cols: cursor.u64()?,
                nnz: cursor.u64()?,
            },
            AcceleratorKind::Resmp => AccelParams::Resmp {
                blocks: cursor.u64()?,
                in_per_block: cursor.u64()?,
                out_per_block: cursor.u64()?,
            },
            AcceleratorKind::Fft => AccelParams::Fft {
                n: cursor.u64()?,
                batch: cursor.u64()?,
            },
            AcceleratorKind::Reshp => AccelParams::Reshp {
                rows: cursor.u64()?,
                cols: cursor.u64()?,
                elem_bytes: cursor.u32()?,
            },
        };
        parsed.validate()?;
        Ok(parsed)
    }

    /// Validates field values.
    ///
    /// # Errors
    ///
    /// Returns [`ParamsError::Invalid`] naming the violated constraint.
    pub fn validate(&self) -> Result<(), ParamsError> {
        match *self {
            AccelParams::Axpy { n, incx, incy, .. } => {
                if n == 0 {
                    return Err(ParamsError::Invalid("axpy n must be nonzero"));
                }
                if incx == 0 || incy == 0 {
                    return Err(ParamsError::Invalid("axpy strides must be nonzero"));
                }
            }
            AccelParams::Dot { n, incx, incy, .. } => {
                if n == 0 {
                    return Err(ParamsError::Invalid("dot n must be nonzero"));
                }
                if incx == 0 || incy == 0 {
                    return Err(ParamsError::Invalid("dot strides must be nonzero"));
                }
            }
            AccelParams::Gemv { m, n } => {
                if m == 0 || n == 0 {
                    return Err(ParamsError::Invalid("gemv dimensions must be nonzero"));
                }
            }
            AccelParams::Spmv { rows, cols, nnz } => {
                if rows == 0 || cols == 0 {
                    return Err(ParamsError::Invalid("spmv dimensions must be nonzero"));
                }
                if rows.checked_mul(cols).is_some_and(|cap| nnz > cap) {
                    return Err(ParamsError::Invalid("spmv nnz exceeds matrix capacity"));
                }
            }
            AccelParams::Resmp {
                blocks,
                in_per_block,
                out_per_block,
            } => {
                if blocks == 0 || in_per_block == 0 || out_per_block == 0 {
                    return Err(ParamsError::Invalid("resmp sizes must be nonzero"));
                }
            }
            AccelParams::Fft { n, batch } => {
                if !n.is_power_of_two() || n == 0 {
                    return Err(ParamsError::Invalid("fft n must be a power of two"));
                }
                if batch == 0 {
                    return Err(ParamsError::Invalid("fft batch must be nonzero"));
                }
            }
            AccelParams::Reshp {
                rows,
                cols,
                elem_bytes,
            } => {
                if rows == 0 || cols == 0 || elem_bytes == 0 {
                    return Err(ParamsError::Invalid("reshp dimensions must be nonzero"));
                }
            }
        }
        // Every count the model derives must fit in u64: the FLOPs, and
        // the traffic of the costliest shape (with no Local Memory every
        // FFT takes two passes) at its address span.
        let model = AccelModel::new(self.kind());
        let no_lm = AccelHwConfig {
            local_mem_bytes: 0,
            ..AccelHwConfig::mealib_default()
        };
        let span = model
            .checked_access_pattern(self, &no_lm)
            .and_then(|p| p.checked_span());
        if span.is_none() || model.checked_flops(self).is_none() {
            return Err(ParamsError::Invalid(
                "sizes describe more bytes or FLOPs than u64 holds",
            ));
        }
        Ok(())
    }
}

struct Cursor<'a> {
    rest: &'a [u8],
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], ParamsError> {
        if self.rest.len() < n {
            return Err(ParamsError::Truncated);
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, ParamsError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ParamsError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ParamsError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f32(&mut self) -> Result<f32, ParamsError> {
        Ok(f32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<AccelParams> {
        vec![
            AccelParams::Axpy {
                n: 1 << 28,
                alpha: 2.5,
                incx: 1,
                incy: 1,
            },
            AccelParams::Dot {
                n: 1 << 28,
                incx: 1,
                incy: 7,
                complex: true,
            },
            AccelParams::Gemv { m: 16384, n: 16384 },
            AccelParams::Spmv {
                rows: 1 << 20,
                cols: 1 << 20,
                nnz: 12 << 20,
            },
            AccelParams::Resmp {
                blocks: 16384,
                in_per_block: 1024,
                out_per_block: 2048,
            },
            AccelParams::Fft {
                n: 8192,
                batch: 8192,
            },
            AccelParams::Reshp {
                rows: 16384,
                cols: 16384,
                elem_bytes: 4,
            },
        ]
    }

    #[test]
    fn round_trip_all_kinds() {
        for p in samples() {
            let bytes = p.to_bytes();
            let back = AccelParams::from_bytes(&bytes).unwrap();
            assert_eq!(p, back);
            assert_eq!(p.kind().opcode(), bytes[0]);
        }
    }

    #[test]
    fn truncated_blob_is_rejected() {
        for p in samples() {
            let bytes = p.to_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    AccelParams::from_bytes(&bytes[..cut]).is_err(),
                    "{p:?} truncated at {cut} must fail"
                );
            }
        }
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(
            AccelParams::from_bytes(&[0x7f, 0, 0]),
            Err(ParamsError::BadTag(0x7f))
        );
        assert_eq!(AccelParams::from_bytes(&[]), Err(ParamsError::Truncated));
    }

    #[test]
    fn validation_rules() {
        assert!(AccelParams::Axpy {
            n: 0,
            alpha: 1.0,
            incx: 1,
            incy: 1
        }
        .validate()
        .is_err());
        assert!(AccelParams::Dot {
            n: 4,
            incx: 0,
            incy: 1,
            complex: false
        }
        .validate()
        .is_err());
        assert!(AccelParams::Fft { n: 100, batch: 1 }.validate().is_err());
        assert!(AccelParams::Spmv {
            rows: 2,
            cols: 2,
            nnz: 5
        }
        .validate()
        .is_err());
        assert!(AccelParams::Reshp {
            rows: 1,
            cols: 1,
            elem_bytes: 0
        }
        .validate()
        .is_err());
        for p in samples() {
            assert!(p.validate().is_ok(), "{p:?}");
        }
    }

    #[test]
    fn decode_enforces_validation() {
        let bad = AccelParams::Fft { n: 8192, batch: 1 };
        let mut bytes = bad.to_bytes();
        // Corrupt n to a non-power-of-two.
        bytes[1..9].copy_from_slice(&100u64.to_le_bytes());
        assert!(matches!(
            AccelParams::from_bytes(&bytes),
            Err(ParamsError::Invalid(_))
        ));
    }
}
