//! A deterministic, mergeable, bounded-memory quantile sketch.
//!
//! [`QuantileSketch`] is a fixed-scheme log-bucket histogram in the
//! DDSketch family: for relative accuracy `alpha` it uses the base
//! `gamma = (1 + alpha) / (1 - alpha)` and maps a positive value `v`
//! to bucket `i = ceil(ln v / ln gamma)`, i.e. the bucket covering
//! `(gamma^(i-1), gamma^i]`. Reporting the bucket's midpoint-in-ratio
//! representative `2 * gamma^i / (gamma + 1)` guarantees the
//! **relative-error bound**
//!
//! ```text
//! |q_sketch - q_exact| <= alpha * q_exact
//! ```
//!
//! for every quantile of every stream (proof: a value `v` in bucket
//! `i` satisfies `gamma^(i-1) < v <= gamma^i`, and the representative
//! `r_i = 2 gamma^i / (gamma + 1)` satisfies `r_i / gamma^i =
//! 2 / (gamma + 1) = 1 - alpha` and `r_i / gamma^(i-1) =
//! 2 gamma / (gamma + 1) = 1 + alpha`), up to a few ulps of float
//! rounding in `ln`/`exp` at bucket boundaries. Values at or below
//! [`QuantileSketch::MIN_VALUE`] land in a dedicated zero bucket and
//! are reported as exactly `0.0`.
//!
//! Determinism and mergeability, the properties the serving telemetry
//! leans on:
//!
//! * the bucket scheme is *fixed* by `alpha` alone — no collapsing, no
//!   re-scaling — so the bucket a value lands in never depends on what
//!   was recorded before it;
//! * [`QuantileSketch::merge`] adds `u64` bucket counts and combines
//!   `sum`/`min`/`max` with commutative float ops, so
//!   `merge(a, b) == merge(b, a)` **bit-exactly** and parallel epochs
//!   can be folded in any order;
//! * memory is `O(buckets)`: at most
//!   `ln(max/min) / ln(gamma) + 2` occupied buckets regardless of how
//!   many values stream through (the `BTreeMap` is sparse), with a
//!   hard index clamp as a safety valve for pathological dynamic
//!   ranges.
//!
//! The quantile query is *nearest-rank* over bucket representatives
//! (rank `ceil(q * n)`, clamped to at least 1), matching
//! [`crate::quantiles::nearest_rank`] so sketch and exact answers are
//! directly comparable. An empty sketch returns `None` — "no data" is
//! never conflated with "zero latency".

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;

/// A mergeable log-bucket quantile sketch with relative accuracy
/// `alpha` (see the module docs for the bound and its proof).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    alpha: f64,
    /// `ln(gamma)` for `gamma = (1 + alpha) / (1 - alpha)`.
    ln_gamma: f64,
    /// Sparse bucket counts keyed by log index.
    buckets: BTreeMap<i32, u64>,
    /// Count of values at or below [`Self::MIN_VALUE`].
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl QuantileSketch {
    /// Values at or below this land in the zero bucket and are
    /// reported as exactly `0.0`.
    pub const MIN_VALUE: f64 = 1e-12;

    /// Safety clamp on bucket indices: values whose log index falls
    /// outside `±MAX_INDEX` saturate into the edge bucket (and may
    /// then exceed the relative-error bound). For the default
    /// `alpha = 0.01` the clamp only engages beyond `~e±83886`, far
    /// outside f64 range, so in practice it never fires.
    pub const MAX_INDEX: i32 = 1 << 22;

    /// The default relative accuracy: 1%.
    pub const DEFAULT_ALPHA: f64 = 0.01;

    /// A sketch with relative accuracy `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha < 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "sketch alpha must be in (0, 1), got {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            alpha,
            ln_gamma: gamma.ln(),
            buckets: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative accuracy.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Records one value.
    ///
    /// # Panics
    ///
    /// Panics on NaN, infinite, or negative values: the telemetry
    /// streams modeled times/bytes, which are always finite and
    /// non-negative, so anything else is a caller bug.
    pub fn record(&mut self, value: f64) {
        assert!(
            value.is_finite() && value >= 0.0,
            "sketch values must be finite and non-negative, got {value}"
        );
        if value <= Self::MIN_VALUE {
            self.zero_count += 1;
        } else {
            let idx = (value.ln() / self.ln_gamma).ceil() as i64;
            let idx = idx.clamp(-(Self::MAX_INDEX as i64), Self::MAX_INDEX as i64) as i32;
            *self.buckets.entry(idx).or_insert(0) += 1;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values (accumulated in record order).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Occupied buckets (including the zero bucket when populated):
    /// the sketch's memory footprint, which the soak test pins to
    /// O(value dynamic range), not O(samples).
    pub fn buckets_used(&self) -> usize {
        self.buckets.len() + usize::from(self.zero_count > 0)
    }

    /// The representative value reported for bucket `idx`.
    fn representative(&self, idx: i32) -> f64 {
        // 2 gamma^i / (gamma + 1), computed via exp for the full index
        // range.
        let gamma = (1.0 + self.alpha) / (1.0 - self.alpha);
        2.0 * (self.ln_gamma * f64::from(idx)).exp() / (gamma + 1.0)
    }

    /// The nearest-rank `q`-quantile over bucket representatives, or
    /// `None` when the sketch is empty.
    ///
    /// The returned value is within `alpha` relative error of the
    /// exact nearest-rank quantile of the recorded stream (module docs
    /// give the proof; boundary values may add a few ulps).
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= q <= 1`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        self.quantiles([q]).map(|[v]| v)
    }

    /// The (p50, p95, p99) triple, or `None` when empty. One bucket
    /// walk finds all three ranks, and each is bit-equal to its own
    /// [`Self::quantile`] call.
    pub fn p50_p95_p99(&self) -> Option<(f64, f64, f64)> {
        let [p50, p95, p99] = self.quantiles([0.50, 0.95, 0.99])?;
        Some((p50, p95, p99))
    }

    /// Nearest-rank quantiles for `qs`, which must be non-decreasing,
    /// found in one walk over the buckets (rank `ceil(q * n)`, clamped
    /// to at least 1). `None` when the sketch is empty.
    fn quantiles<const N: usize>(&self, qs: [f64; N]) -> Option<[f64; N]> {
        if self.count == 0 {
            return None;
        }
        let ranks = qs.map(|q| ((q * self.count as f64).ceil() as u64).max(1));
        let mut out = [0.0; N];
        // Ranks inside the zero bucket report exactly 0.0.
        let mut next = ranks.iter().take_while(|&&r| r <= self.zero_count).count();
        let mut seen = self.zero_count;
        for (&idx, &n) in &self.buckets {
            if next == N {
                break;
            }
            seen += n;
            if seen >= ranks[next] {
                let rep = self.representative(idx);
                while next < N && seen >= ranks[next] {
                    out[next] = rep;
                    next += 1;
                }
            }
        }
        if next < N {
            // Unreachable: bucket counts sum to `count` and every rank
            // is at most `count`.
            let rep = self.representative(*self.buckets.keys().last()?);
            out[next..].fill(rep);
        }
        Some(out)
    }

    /// Folds `other` into `self`. Commutative bit-exactly: bucket
    /// counts add in `u64`, `sum` is a single float addition (IEEE
    /// addition of two finite operands is commutative), and `min`/
    /// `max` are order-free.
    ///
    /// # Panics
    ///
    /// Panics if the sketches were built with different `alpha`
    /// (their bucket schemes are incompatible).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.alpha.to_bits() == other.alpha.to_bits(),
            "cannot merge sketches with different alpha ({} vs {})",
            self.alpha,
            other.alpha
        );
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Renders the sketch as one JSON object: scheme, exact moments,
    /// and the standard quantile triple. [`Self::write_json`] into a
    /// fresh `String`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends [`Self::to_json`]'s text to `out`:
    /// `{"alpha":..,"count":..,"sum":..,"min":..,"max":..,"p50":..,
    /// "p95":..,"p99":..,"buckets":..}`, the five order statistics
    /// only when the sketch is non-empty.
    pub fn write_json(&self, out: &mut String) {
        out.push_str("{\"alpha\":");
        json::write_f64(out, self.alpha);
        let _ = write!(out, ",\"count\":{},\"sum\":", self.count);
        json::write_f64(out, self.sum);
        if let Some((p50, p95, p99)) = self.p50_p95_p99() {
            let fields = [
                ("min", self.min),
                ("max", self.max),
                ("p50", p50),
                ("p95", p95),
                ("p99", p99),
            ];
            for (key, value) in fields {
                let _ = write!(out, ",\"{key}\":");
                json::write_f64(out, value);
            }
        }
        let _ = write!(out, ",\"buckets\":{}}}", self.buckets_used());
    }
}

impl Default for QuantileSketch {
    /// The default sketch: `alpha = 0.01` (1% relative error).
    fn default() -> Self {
        Self::new(Self::DEFAULT_ALPHA)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantiles::nearest_rank;

    /// Slack over the documented bound for float rounding at bucket
    /// boundaries (`ln`/`exp` are correctly rounded to within an ulp,
    /// so boundary values can land one bucket off).
    fn within_bound(sketch: f64, exact: f64, alpha: f64) -> bool {
        if exact <= QuantileSketch::MIN_VALUE {
            return sketch == 0.0;
        }
        (sketch - exact).abs() <= alpha * exact * (1.0 + 1e-9) + 1e-12
    }

    #[test]
    fn empty_sketch_reports_no_data() {
        let s = QuantileSketch::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.p50_p95_p99(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.buckets_used(), 0);
    }

    #[test]
    fn quantiles_stay_within_the_documented_bound() {
        let mut s = QuantileSketch::default();
        let mut values: Vec<f64> = Vec::new();
        // A deliberately wide dynamic range: microseconds to kiloseconds.
        for i in 0..5000u64 {
            let v = 1e-6 * (1.0 + i as f64).powf(2.3);
            s.record(v);
            values.push(v);
        }
        values.sort_by(f64::total_cmp);
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = nearest_rank(&values, q).unwrap();
            let approx = s.quantile(q).unwrap();
            assert!(
                within_bound(approx, exact, s.alpha()),
                "q={q}: sketch {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn zero_bucket_values_report_exactly_zero() {
        let mut s = QuantileSketch::default();
        for _ in 0..10 {
            s.record(0.0);
        }
        s.record(1.0);
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert!(s.quantile(1.0).unwrap() > 0.9);
        assert_eq!(s.min(), Some(0.0));
    }

    #[test]
    fn ranks_sharing_a_bucket_match_single_quantiles() {
        let mut s = QuantileSketch::default();
        // Ranks 50 and 95 of 100 fall in the bucket of 1.0, rank 99 in
        // the bucket of 2.0.
        for v in [1.0; 95].into_iter().chain([2.0; 5]) {
            s.record(v);
        }
        let (p50, p95, p99) = s.p50_p95_p99().unwrap();
        assert_eq!(p50.to_bits(), s.quantile(0.50).unwrap().to_bits());
        assert_eq!(p95.to_bits(), p50.to_bits());
        assert_eq!(p99.to_bits(), s.quantile(0.99).unwrap().to_bits());
        assert!(p99 > p95);
    }

    #[test]
    fn merge_is_commutative_bit_exactly() {
        let mut a = QuantileSketch::default();
        let mut b = QuantileSketch::default();
        for i in 0..100u64 {
            a.record(1e-3 * (i + 1) as f64);
            b.record(2.7e-5 * (i + 1) as f64 * (i + 1) as f64);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.sum().to_bits(), ba.sum().to_bits());
        assert_eq!(ab.count(), a.count() + b.count());
        assert_eq!(
            ab.quantile(0.99).unwrap().to_bits(),
            ba.quantile(0.99).unwrap().to_bits()
        );
    }

    #[test]
    fn memory_is_bounded_by_dynamic_range_not_samples() {
        let mut s = QuantileSketch::default();
        // 100k samples across three decades.
        for i in 0..100_000u64 {
            s.record(1e-4 + (i % 1000) as f64 * 1e-4);
        }
        // ln(1e3) / ln(gamma) ≈ 345 buckets for alpha = 1%.
        assert!(s.buckets_used() <= 400, "{} buckets", s.buckets_used());
        assert_eq!(s.count(), 100_000);
    }

    #[test]
    #[should_panic(expected = "different alpha")]
    fn merging_mismatched_alphas_panics() {
        let mut a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.02);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_values_panic() {
        QuantileSketch::default().record(-1.0);
    }

    #[test]
    fn json_rendering_parses_and_carries_the_triple() {
        let mut s = QuantileSketch::default();
        for i in 1..=100u64 {
            s.record(i as f64 * 1e-3);
        }
        let v = crate::json::parse(&s.to_json()).expect("sketch json parses");
        assert_eq!(v.get("count").and_then(|x| x.as_f64()), Some(100.0));
        let p50 = v.get("p50").and_then(|x| x.as_f64()).unwrap();
        assert!(within_bound(p50, 0.050, s.alpha()), "p50 {p50}");
    }
}
