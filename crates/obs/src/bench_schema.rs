//! The versioned `BENCH_*.json` summary schema.
//!
//! Schema v1 is the perf-trajectory interchange format: one document per
//! benchmark sweep, one record per harness, scalar modeled or counted
//! metrics only:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "generated_by": "scripts/bench_smoke.sh",
//!   "benches": [
//!     {"bench": "fig09_performance",
//!      "metrics": {"avg_speedup": 23.6, ...}}
//!   ]
//! }
//! ```
//!
//! [`BenchSummary::parse`] requires `"schema_version": 1`; a document
//! without it is an error. Host wall time has no place here: it is
//! measured by the separate `perfbench` benchmark. A record-level
//! `wall_s` left in an older document is ignored on parse and never
//! rendered.

use crate::json::{array, parse, Object, Value};

/// Current schema version emitted by the tooling.
pub const BENCH_SCHEMA_VERSION: u64 = 1;

/// One harness record: name and scalar metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Harness name, e.g. `"fig09_performance"`.
    pub bench: String,
    /// Scalar metrics, rendered in this order (sorted by key when
    /// parsed).
    pub metrics: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Looks up one metric by key.
    pub fn metric(&self, key: &str) -> Option<f64> {
        self.metrics.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    /// Renders the record as one JSON object on a single line,
    /// `{"bench": <name>, "metrics": {<key>: <number>, ...}}`.
    pub fn render(&self) -> String {
        let mut metrics = Object::new();
        for (k, v) in &self.metrics {
            metrics.num(k, *v);
        }
        let mut o = Object::new();
        o.str("bench", &self.bench);
        o.raw("metrics", metrics.render());
        o.render()
    }
}

/// A parsed, schema-versioned BENCH summary document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSummary {
    /// Producer string.
    pub generated_by: String,
    /// Per-harness records, document order.
    pub benches: Vec<BenchRecord>,
}

impl BenchSummary {
    /// Starts an empty v1 summary.
    pub fn new(generated_by: &str) -> Self {
        Self {
            generated_by: generated_by.to_string(),
            benches: Vec::new(),
        }
    }

    /// Looks up a record by harness name.
    pub fn bench(&self, name: &str) -> Option<&BenchRecord> {
        self.benches.iter().find(|b| b.bench == name)
    }

    /// Looks up one metric of one harness.
    pub fn metric(&self, bench: &str, key: &str) -> Option<f64> {
        self.bench(bench).and_then(|b| b.metric(key))
    }

    /// Parses a schema-v1 BENCH document.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: invalid
    /// JSON, a missing or unsupported `schema_version`, or a malformed
    /// record.
    pub fn parse(text: &str) -> Result<BenchSummary, String> {
        let v = parse(text)?;
        let obj = v.as_object().ok_or("BENCH document is not an object")?;
        let version = obj
            .get("schema_version")
            .ok_or("missing schema_version")?
            .as_f64()
            .ok_or("schema_version is not a number")?;
        if version != BENCH_SCHEMA_VERSION as f64 {
            return Err(format!("unsupported schema_version {version}"));
        }
        let generated_by = obj
            .get("generated_by")
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_string();
        let records = obj
            .get("benches")
            .ok_or("missing benches array")?
            .as_array()
            .ok_or("benches is not an array")?;

        let mut benches = Vec::new();
        for (i, rec) in records.iter().enumerate() {
            let rec = rec
                .as_object()
                .ok_or_else(|| format!("bench record {i} is not an object"))?;
            let bench = rec
                .get("bench")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("bench record {i} missing name"))?
                .to_string();
            let metrics_obj = rec
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("bench record {i} ({bench}) missing metrics object"))?;
            // BTreeMap iteration gives sorted, deterministic key order.
            let mut metrics = Vec::new();
            for (k, v) in metrics_obj {
                let n = v
                    .as_f64()
                    .ok_or_else(|| format!("metric {bench}.{k} is not a number"))?;
                metrics.push((k.clone(), n));
            }
            benches.push(BenchRecord { bench, metrics });
        }
        Ok(BenchSummary {
            generated_by,
            benches,
        })
    }

    /// Renders the summary as a schema-v1 document.
    pub fn render(&self) -> String {
        let records: Vec<String> = self.benches.iter().map(BenchRecord::render).collect();
        let mut doc = Object::new();
        doc.int("schema_version", BENCH_SCHEMA_VERSION);
        doc.str("generated_by", &self.generated_by);
        doc.raw("benches", array(&records));
        doc.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v1_documents_round_trip_exactly() {
        let mut s = BenchSummary::new("test");
        s.benches.push(BenchRecord {
            bench: "fig13_stap".into(),
            metrics: vec![("ee_gain".into(), 8.5), ("speedup".into(), 3.2)],
        });
        let doc = s.render();
        let round = BenchSummary::parse(&doc).expect("parses");
        assert_eq!(round, s);
    }

    #[test]
    fn future_versions_and_malformed_docs_are_rejected() {
        assert!(BenchSummary::parse("[]").is_err());
        assert!(BenchSummary::parse(r#"{"schema_version": 2, "benches": []}"#).is_err());
        assert!(BenchSummary::parse(r#"{"schema_version": 1}"#).is_err());
        assert!(BenchSummary::parse(r#"{"benches": []}"#).is_err());
        assert!(BenchSummary::parse(
            r#"{"schema_version": 1, "benches": [{"bench": "x", "metrics": {"m": "oops"}}]}"#
        )
        .is_err());
    }
}
