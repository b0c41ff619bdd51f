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

/// Highest address any `BUF` directive in `src` touches — the byte
/// span a partition slot must cover to contain the session.
pub fn session_span(src: &str) -> u64 {
    src.lines()
        .filter(|l| l.starts_with("BUF "))
        .map(|l| {
            let toks: Vec<&str> = l.split_whitespace().collect();
            let base = u64::from_str_radix(toks[2].trim_start_matches("0x"), 16).unwrap();
            let len = u64::from_str_radix(toks[3].trim_start_matches("0x"), 16).unwrap();
            base + len
        })
        .max()
        .unwrap_or(0)
}

/// Total bytes the session's `BUF` directives declare — the resident
/// working set, as opposed to [`session_span`]'s highest touched
/// address (which includes alignment holes). The serving telemetry
/// reports this per class so bandwidth and byte counters can be read
/// against the footprint that produced them.
pub fn session_buffer_bytes(src: &str) -> u64 {
    src.lines()
        .filter(|l| l.starts_with("BUF "))
        .map(|l| {
            let toks: Vec<&str> = l.split_whitespace().collect();
            u64::from_str_radix(toks[3].trim_start_matches("0x"), 16).unwrap()
        })
        .sum()
}

/// Rewrites every `BUF` base in `src` up by `offset`, leaving the rest
/// of the session untouched — the shift that moves a canonical session
/// into a tenant's partition slot. The elaborated trace of the shifted
/// session is the canonical trace with every address raised by
/// `offset` (requests are issued at extent starts), which is what
/// makes partition rebasing exact rather than approximate.
///
/// Bases and lengths are read as the session grammar reads them
/// (`0x`-prefixed hex or decimal). Returns `None` for a malformed
/// `BUF` line, or when a moved extent would pass the top of the
/// address space.
pub fn rebase_session(src: &str, offset: u64) -> Option<String> {
    fn number(tok: &str) -> Option<u64> {
        match tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => tok.parse().ok(),
        }
    }
    let mut out = String::with_capacity(src.len());
    for line in src.lines() {
        match line.split_whitespace().collect::<Vec<_>>().as_slice() {
            ["BUF", name, base, len] => {
                let base = number(base)?.checked_add(offset)?;
                base.checked_add(number(len)?)?;
                out.push_str(&format!("BUF {name} 0x{base:x} {len}\n"));
            }
            ["BUF", ..] => return None,
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    Some(out)
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

    #[test]
    fn exported_extents_do_not_overlap() {
        for (name, src) in pipeline_sessions() {
            let mut ranges: Vec<(u64, u64)> = Vec::new();
            for line in src.lines().filter(|l| l.starts_with("BUF ")) {
                let toks: Vec<&str> = line.split_whitespace().collect();
                let base = u64::from_str_radix(toks[2].trim_start_matches("0x"), 16).unwrap();
                let len = u64::from_str_radix(toks[3].trim_start_matches("0x"), 16).unwrap();
                for &(b, l) in &ranges {
                    assert!(
                        base >= b + l || base + len <= b,
                        "{name}: overlapping extents"
                    );
                }
                ranges.push((base, len));
            }
            assert!(ranges.len() >= 2, "{name}: expected buffers");
        }
    }

    #[test]
    fn buffer_bytes_fit_inside_the_span_and_survive_rebase() {
        for (name, src) in pipeline_sessions() {
            let ws = session_buffer_bytes(&src);
            assert!(ws > 0, "{name}: empty working set");
            // The working set never exceeds the span (holes only add).
            assert!(ws <= session_span(&src), "{name}");
            // Rebasing moves extents without changing their sizes.
            assert_eq!(
                ws,
                session_buffer_bytes(&rebase_session(&src, 1 << 20).unwrap()),
                "{name}"
            );
        }
    }

    #[test]
    fn rebase_shifts_only_buf_bases() {
        for (name, src) in pipeline_sessions() {
            let off = 1u64 << 24;
            let shifted = rebase_session(&src, off).unwrap();
            assert_eq!(session_span(&shifted), session_span(&src) + off, "{name}");
            // Everything except the BUF lines is untouched.
            let strip = |s: &str| {
                s.lines()
                    .filter(|l| !l.starts_with("BUF "))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(strip(&shifted), strip(&src), "{name}");
            assert_eq!(
                rebase_session(&src, 0).as_deref(),
                Some(src.as_str()),
                "{name}: zero shift is identity"
            );
        }
    }

    #[test]
    fn rebase_is_total() {
        let src = "BUF a 0x1000 0x100\nBUF b 4096 16\nPASS in=a out=b {\n}\n";
        // Decimal operands are read as decimal, as the session parser
        // reads them.
        let moved = rebase_session(src, 0x10).unwrap();
        assert!(moved.contains("BUF a 0x1010 0x100\n"), "{moved}");
        assert!(moved.contains("BUF b 0x1010 16\n"), "{moved}");
        // A base or an extent end past the top of the address space.
        assert_eq!(rebase_session(src, u64::MAX), None);
        assert_eq!(rebase_session(src, u64::MAX - 0x1000 - 0xff), None);
        assert!(rebase_session(src, u64::MAX - 0x1000 - 0x100).is_some());
        // Malformed BUF lines are `None`, not a panic.
        for bad in ["BUF a zz 0x10\n", "BUF a 0x10\n", "BUF a 0x10 -1\n"] {
            assert_eq!(rebase_session(bad, 1), None, "{bad:?}");
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
