//! Property tests for the telemetry quantile sketch: the documented
//! relative-error bound holds for arbitrary streams, merge is
//! commutative bit-exactly, sharded folds reproduce the sequential
//! quantiles, registry merges are order-insensitive, and the one-walk
//! quantile triple and the appending JSON writer match their references,
//! and a captured summary renders the sketch as it was when captured.

use mealib_obs::json::Object;
use mealib_obs::quantiles::nearest_rank;
use mealib_obs::{MetricsRegistry, QuantileSketch};
use proptest::prelude::*;

/// Positive values spanning nanoseconds to kiloseconds — the dynamic
/// range the serving telemetry actually streams — plus exact zeros
/// (one draw in nine). Exponents are sampled in millibels because the
/// vendored proptest only strategizes integer ranges.
fn value_strategy() -> impl Strategy<Value = f64> {
    (0u64..9, -9000i64..3000).prop_map(|(zero, millibels)| {
        if zero == 0 {
            0.0
        } else {
            10f64.powf(millibels as f64 / 1000.0)
        }
    })
}

fn stream_strategy() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(value_strategy(), 1..300)
}

/// Quantiles on a 1/1000 grid over [0, 1].
fn q_strategy() -> impl Strategy<Value = f64> {
    (0u64..=1000).prop_map(|n| n as f64 / 1000.0)
}

/// The documented bound with a few-ulp slack for `ln`/`exp` rounding
/// at bucket boundaries (mirrors the sketch's own unit tests).
fn within_bound(sketch: f64, exact: f64, alpha: f64) -> bool {
    if exact <= QuantileSketch::MIN_VALUE {
        return sketch == 0.0;
    }
    (sketch - exact).abs() <= alpha * exact * (1.0 + 1e-9) + 1e-12
}

/// Values for the renderer oracle: exact zeros, values at and just
/// below/above [`QuantileSketch::MIN_VALUE`], a few values that repeat
/// (integral and not, so both float formats recur), and a wide dynamic
/// range (1e-15 to 1e15).
fn render_value_strategy() -> impl Strategy<Value = f64> {
    (0u64..8, -15_000i64..15_000).prop_map(|(kind, millibels)| match kind {
        0 => 0.0,
        1 => QuantileSketch::MIN_VALUE,
        2 => QuantileSketch::MIN_VALUE * 0.5,
        3 => QuantileSketch::MIN_VALUE * 1.5,
        4 => [1e-3, 2.0, 0.25][millibels.rem_euclid(3) as usize],
        _ => 10f64.powf(millibels as f64 / 1000.0),
    })
}

/// The `Object` rendering `QuantileSketch::to_json` used before the
/// direct writer, kept as the byte oracle.
fn reference_json(s: &QuantileSketch) -> String {
    let mut o = Object::new();
    o.num("alpha", s.alpha());
    o.int("count", s.count());
    o.num("sum", s.sum());
    if let Some((p50, p95, p99)) = s.p50_p95_p99() {
        o.num("min", s.min().unwrap());
        o.num("max", s.max().unwrap());
        o.num("p50", p50);
        o.num("p95", p95);
        o.num("p99", p99);
    }
    o.int("buckets", s.buckets_used() as u64);
    o.render()
}

/// Summary cases: 128, or `PROPTEST_CASES` when set (the release
/// verification run widens the draw this way).
fn summary_cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|n| n.parse().ok())
        .unwrap_or(128)
}

#[test]
fn empty_sketch_renders_without_order_statistics() {
    let s = QuantileSketch::default();
    let mut out = String::from("prefix:");
    s.write_json(&mut out);
    assert_eq!(out, format!("prefix:{}", reference_json(&s)));
    assert_eq!(
        s.to_json(),
        r#"{"alpha":1e-2,"count":0,"sum":0.0,"buckets":0}"#
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// After every `record`: the one-walk triple equals three
    /// `quantile` calls bit for bit, and `write_json` (appending to a
    /// non-empty buffer) equals the `Object` reference rendering byte for byte. Values
    /// are drawn from a small pool with geometric weights, so one
    /// bucket often holds several of the three ranks.
    #[test]
    fn one_walk_triple_and_writer_match_references(
        pool in proptest::collection::vec(render_value_strategy(), 1..12),
        picks in proptest::collection::vec(1u64..=u64::MAX, 0..300),
        alpha_pct in 1u64..20,
    ) {
        let mut sketch = QuantileSketch::new(alpha_pct as f64 / 100.0);
        let mut out = String::new();
        let values = picks.iter().map(|p| pool[p.trailing_zeros() as usize % pool.len()]);
        for (i, v) in values.enumerate() {
            sketch.record(v);
            let (p50, p95, p99) = sketch.p50_p95_p99().unwrap();
            let bits = |q: f64| sketch.quantile(q).unwrap().to_bits();
            prop_assert_eq!(p50.to_bits(), bits(0.50));
            prop_assert_eq!(p95.to_bits(), bits(0.95));
            prop_assert_eq!(p99.to_bits(), bits(0.99));

            let start = out.len();
            sketch.write_json(&mut out);
            prop_assert_eq!(&out[start..], reference_json(&sketch).as_str(), "after record {}", i);
            prop_assert_eq!(sketch.to_json(), reference_json(&sketch));
        }
    }

    /// |q_sketch - q_exact| <= alpha * q_exact for every quantile of
    /// every stream, against the exact nearest-rank reference.
    #[test]
    fn quantiles_within_documented_bound(
        values in stream_strategy(),
        q in q_strategy(),
    ) {
        let mut sketch = QuantileSketch::default();
        for &v in &values {
            sketch.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let exact = nearest_rank(&sorted, q).unwrap();
        let approx = sketch.quantile(q).unwrap();
        prop_assert!(
            within_bound(approx, exact, sketch.alpha()),
            "q={q}: sketch {approx} vs exact {exact} over {} values",
            values.len()
        );
    }

    /// merge(a, b) == merge(b, a) bit-exactly: equal bucket maps, equal
    /// sum bits, equal rendered JSON.
    #[test]
    fn merge_commutes_bit_exactly(
        xs in stream_strategy(),
        ys in stream_strategy(),
    ) {
        let mut a = QuantileSketch::default();
        for &v in &xs {
            a.record(v);
        }
        let mut b = QuantileSketch::default();
        for &v in &ys {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.sum().to_bits(), ba.sum().to_bits());
        prop_assert_eq!(ab.to_json(), ba.to_json());
    }

    /// Sharding a stream and folding the shards in either order yields
    /// the sequential sketch's quantiles bit-exactly: quantiles depend
    /// only on bucket counts, which add associatively in u64.
    #[test]
    fn sharded_folds_match_sequential_quantiles(
        values in stream_strategy(),
        shards in 1usize..5,
        q in q_strategy(),
    ) {
        let mut sequential = QuantileSketch::default();
        let mut parts = vec![QuantileSketch::default(); shards];
        for (i, &v) in values.iter().enumerate() {
            sequential.record(v);
            parts[i % shards].record(v);
        }
        let mut forward = QuantileSketch::default();
        for p in &parts {
            forward.merge(p);
        }
        let mut reverse = QuantileSketch::default();
        for p in parts.iter().rev() {
            reverse.merge(p);
        }
        let seq_q = sequential.quantile(q).unwrap();
        prop_assert_eq!(forward.quantile(q).unwrap().to_bits(), seq_q.to_bits());
        prop_assert_eq!(reverse.quantile(q).unwrap().to_bits(), seq_q.to_bits());
        prop_assert_eq!(forward.count(), sequential.count());
        prop_assert_eq!(forward.buckets_used(), sequential.buckets_used());
    }

    /// Registry merges commute on the exposition text: two registries
    /// with overlapping counter/histogram keys render identically
    /// whichever way they are folded.
    #[test]
    fn registry_merge_is_order_insensitive(
        xs in stream_strategy(),
        ys in stream_strategy(),
        n in 0u64..1000,
    ) {
        let build = |values: &[f64], count: u64| {
            let mut reg = MetricsRegistry::new();
            reg.describe("test_service_seconds", "service time");
            reg.describe("test_total", "events");
            for &v in values {
                reg.observe("test_service_seconds", &[("class", "a")], v);
            }
            reg.add("test_total", &[("class", "a")], count);
            reg
        };
        let ra = build(&xs, n);
        let rb = build(&ys, 1000 - n);
        let mut ab = ra.clone();
        ab.merge(&rb);
        let mut ba = rb.clone();
        ba.merge(&ra);
        prop_assert_eq!(ab.to_prometheus(), ba.to_prometheus());
        prop_assert_eq!(ab.counter("test_total", &[("class", "a")]), 1000);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(summary_cases()))]

    /// A summary is a value: captured after record k (or before the
    /// first) and rendered after the last record, it is `to_json()` at
    /// record k, and the `Object` reference rendering of the sketch at
    /// record k, byte for byte. Values come from a small pool with
    /// geometric weights, so ranks fall in the zero bucket and share
    /// buckets, and the pool's order moves min and max along the
    /// stream.
    #[test]
    fn a_summary_renders_the_sketch_as_captured(
        pool in proptest::collection::vec(render_value_strategy(), 1..12),
        picks in proptest::collection::vec(1u64..=u64::MAX, 1..300),
        alpha_pct in 1u64..20,
    ) {
        let mut sketch = QuantileSketch::new(alpha_pct as f64 / 100.0);
        let capture = |s: &QuantileSketch| (s.summary(), s.to_json(), reference_json(s));
        let mut captured = vec![capture(&sketch)];
        let values = picks.iter().map(|p| pool[p.trailing_zeros() as usize % pool.len()]);
        for v in values {
            sketch.record(v);
            captured.push(capture(&sketch));
        }
        for (k, (summary, json, reference)) in captured.iter().enumerate() {
            let mut out = String::from("prefix:");
            summary.write_json(&mut out);
            let rendered = &out["prefix:".len()..];
            prop_assert_eq!(rendered, json.as_str(), "captured after {} records", k);
            prop_assert_eq!(rendered, reference.as_str(), "captured after {} records", k);
        }
    }
}
