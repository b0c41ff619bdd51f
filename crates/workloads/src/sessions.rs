//! TDL analysis-session exporters for the evaluation pipelines.
//!
//! The static-bounds certifier (`mealib-verify::bounds`) and its
//! differential soundness harness need the real pipelines expressed as
//! analysis sessions: TDL text plus `BUF` directives whose extents are
//! derived from the same dataset geometry the modeled runs use. These
//! exporters keep that geometry in one place so the analyzer certifies
//! the *same* programs the evaluation measures — not hand-approximated
//! twins.
//!
//! Buffers are laid out contiguously from a small base with
//! line-aligned starts, matching how the runtime's bump allocator
//! places device buffers.

use crate::stap::StapConfig;

/// Bytes per complex f32 sample (interleaved re/im pairs).
const COMPLEX_BYTES: u64 = 8;

/// Alignment for exported buffer extents.
const ALIGN: u64 = 4096;

fn align_up(x: u64) -> u64 {
    x.div_ceil(ALIGN) * ALIGN
}

/// Lays out `bufs` (name, byte length) contiguously and renders the
/// `BUF` directive block.
fn buf_block(bufs: &[(&str, u64)]) -> String {
    let mut out = String::new();
    let mut base = ALIGN;
    for (name, len) in bufs {
        out.push_str(&format!("BUF {name} 0x{base:x} 0x{len:x}\n"));
        base += align_up(*len);
    }
    out
}

/// The STAP front-end (reshape + Doppler FFT) as an explicit coherence
/// session, with extents sized from `cfg`'s datacube geometry.
pub fn stap_session(cfg: &StapConfig) -> String {
    let cube = cfg.datacube_elems() as u64 * COMPLEX_BYTES;
    let mut src = buf_block(&[("datacube", cube), ("padded", cube), ("doppler", cube)]);
    src.push_str(
        "HOST WRITE datacube\n\
         FLUSH\n\
         PASS in=datacube out=padded {\n\
         \x20 COMP RESHP params=\"stap.reshp.para\"\n\
         }\n\
         PASS in=padded out=doppler {\n\
         \x20 COMP FFT params=\"stap.fft.para\"\n\
         }\n\
         FLUSH\n\
         HOST READ doppler\n",
    );
    src
}

/// The SAR resample→FFT chaining scenario for an `n`-pulse image: one
/// pass with the two comps chained, extents sized to the `n x n`
/// complex working set.
pub fn sar_chaining_session(n: usize) -> String {
    let image = (n * n) as u64 * COMPLEX_BYTES;
    let mut src = buf_block(&[("raw", image), ("range", image)]);
    src.push_str(
        "PASS in=raw out=range {\n\
         \x20 COMP RESMP params=\"sar.resmp.para\"\n\
         \x20 COMP FFT params=\"sar.fft.para\"\n\
         }\n",
    );
    src
}

/// The SAR hardware-loop experiment: `iterations` round trips of a
/// range-compression FFT followed by azimuth GEMV, as a seeded loop
/// session.
pub fn sar_loop_session(n: usize, iterations: u64) -> String {
    let image = (n * n) as u64 * COMPLEX_BYTES;
    let mut src = buf_block(&[("pulse", image), ("range", image)]);
    src.push_str(&format!(
        "HOST WRITE pulse\n\
         FLUSH\n\
         LOOP {iterations} {{\n\
         \x20 PASS in=pulse out=range {{\n\
         \x20   COMP FFT params=\"sar.fft.para\"\n\
         \x20 }}\n\
         \x20 PASS in=range out=pulse {{\n\
         \x20   COMP GEMV params=\"sar.gemv.para\"\n\
         \x20 }}\n\
         }}\n\
         FLUSH\n\
         HOST READ range\n\
         HOST READ pulse\n"
    ));
    src
}

/// Every evaluation pipeline as a named session, at scales the
/// soundness harness can replay through both the analyzer and the
/// cycle engine in a debug-build test run (the exporters themselves
/// scale to the full Table 2 datasets).
pub fn pipeline_sessions() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for cfg in [
        StapConfig::tiny(),
        StapConfig::small(),
        StapConfig::medium(),
        StapConfig::large(),
    ] {
        out.push((format!("stap-{}", cfg.name), stap_session(&cfg)));
    }
    for n in [256usize, 1024] {
        out.push((format!("sar-chain-{n}"), sar_chaining_session(n)));
    }
    out.push(("sar-loop-256".into(), sar_loop_session(256, 16)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mealib_verify::dataflow::{parse_session, Session};

    /// Highest extent end of a parsed session.
    fn span(s: &Session) -> u64 {
        s.extents.values().map(|e| e.end().get()).max().unwrap_or(0)
    }

    /// Sum of a parsed session's extent lengths.
    fn buffer_bytes(s: &Session) -> u64 {
        s.extents.values().map(|e| e.len().get()).sum()
    }

    #[test]
    fn exported_extents_do_not_overlap() {
        for (name, src) in pipeline_sessions() {
            let s = parse_session(&src).unwrap();
            let extents: Vec<_> = s.extents.values().collect();
            for (i, a) in extents.iter().enumerate() {
                for b in &extents[i + 1..] {
                    assert!(!a.overlaps(b), "{name}: overlapping extents");
                }
            }
            assert!(extents.len() >= 2, "{name}: expected buffers");
        }
    }

    #[test]
    fn buffer_bytes_fit_inside_the_span_and_survive_rebase() {
        for (name, src) in pipeline_sessions() {
            let s = parse_session(&src).unwrap();
            let ws = buffer_bytes(&s);
            assert!(ws > 0, "{name}: empty working set");
            // The working set never exceeds the span (holes only add).
            assert!(ws <= span(&s), "{name}");
            // Rebasing moves extents without changing their sizes.
            assert_eq!(ws, buffer_bytes(&s.rebase(1 << 20).unwrap()), "{name}");
        }
    }

    #[test]
    fn rebase_shifts_only_buf_bases() {
        for (name, src) in pipeline_sessions() {
            let s = parse_session(&src).unwrap();
            let off = 1u64 << 24;
            let shifted = s.rebase(off).unwrap();
            assert_eq!(span(&shifted), span(&s) + off, "{name}");
            // Everything except the extents is untouched.
            assert_eq!(shifted.program, s.program, "{name}");
            assert_eq!(shifted.host_ops, s.host_ops, "{name}");
            assert_eq!(shifted.budgets, s.budgets, "{name}");
            assert_eq!(
                s.rebase(0).unwrap().extents,
                s.extents,
                "{name}: zero shift is identity"
            );
        }
    }

    #[test]
    fn rebase_is_total() {
        let src =
            "BUF a 0x1000 0x100\nBUF b 4096 16\nPASS in=a out=b {\n  COMP FFT params=\"f\"\n}\n";
        let s = parse_session(src).unwrap();
        // Decimal operands are read as decimal.
        let moved = s.rebase(0x10).unwrap();
        assert_eq!(moved.extents["a"].start().get(), 0x1010);
        assert_eq!(moved.extents["a"].len().get(), 0x100);
        assert_eq!(moved.extents["b"].start().get(), 0x1010);
        assert_eq!(moved.extents["b"].len().get(), 16);
        // A base or an extent end past the top of the address space.
        assert!(s.rebase(u64::MAX).is_none());
        assert!(s.rebase(u64::MAX - 0x1000 - 0xff).is_none());
        assert!(s.rebase(u64::MAX - 0x1000 - 0x100).is_some());
        // Malformed BUF lines are parse errors, not a panic.
        for bad in ["BUF a zz 0x10\n", "BUF a 0x10\n", "BUF a 0x10 -1\n"] {
            assert!(parse_session(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn stap_session_scales_with_the_dataset() {
        let tiny = stap_session(&StapConfig::tiny());
        let large = stap_session(&StapConfig::large());
        assert!(tiny.len() <= large.len());
        assert!(tiny.contains("COMP RESHP"));
        assert!(large.contains("HOST READ doppler"));
    }
}
