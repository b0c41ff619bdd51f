//! A labeled metrics registry with Prometheus-style text exposition
//! and JSON snapshots.
//!
//! [`MetricsRegistry`] holds three metric kinds, all keyed by
//! `(name, sorted label pairs)`:
//!
//! * **counters** — cumulative `u64` event counts (merge adds);
//! * **gauges** — point-in-time `f64` values (merge takes the other
//!   side's value, last-write-wins);
//! * **histograms** — [`QuantileSketch`]es (merge folds bucket
//!   counts; see [`crate::sketch`] for the bit-exact commutativity
//!   argument).
//!
//! **One storage, two ways in.** Values live in one dense `Vec` per
//! kind; a single `BTreeMap<MetricKey, (kind, index)>` maps each key to
//! its slot and gives the export order. A caller on a hot path resolves
//! a metric once — [`MetricsRegistry::counter_handle`],
//! [`MetricsRegistry::gauge_handle`],
//! [`MetricsRegistry::histogram_handle`] — and then writes through the
//! `Copy` handle by index ([`MetricsRegistry::add_at`],
//! [`MetricsRegistry::set_at`], [`MetricsRegistry::record_at`]): no
//! key is built, no string compared. The string-keyed calls (`add`,
//! `inc`, `store`, `set_gauge`, `observe`) are resolve-then-apply over
//! the same slots, so both ways in produce identical registries.
//! Resolving creates the metric, exactly as its first string-keyed
//! write would; a name keeps one kind on either path.
//!
//! Export walks the key map, so the exporter emits byte-identical text
//! for equal contents whatever order the metrics were created in — the
//! property the serving telemetry's determinism harness pins down.
//! [`MetricsRegistry::to_prometheus`] writes the text exposition format
//! (`# HELP` / `# TYPE` comments, then `name{labels} value` samples;
//! histograms render as Prometheus *summaries* with `quantile`-labeled
//! samples plus `_sum`/`_count`).
//!
//! [`validate_exposition`] is the round-trip checker the bench
//! harness runs over emitted exposition text.

use std::collections::BTreeMap;

use crate::sketch::QuantileSketch;

/// A metric identity: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (`[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the label pairs.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or label key (exposition
    /// syntax restricts both to `[a-zA-Z_][a-zA-Z0-9_]*`).
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(valid_name(k), "invalid label key {k:?}");
                ((*k).to_string(), (*v).to_string())
            })
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders the label block (`{k="v",...}`), empty for no labels;
    /// `extra` appends one more pair (used for `quantile` labels).
    fn label_block(&self, extra: Option<(&str, &str)>) -> String {
        let mut pairs: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
            .collect();
        if let Some((k, v)) = extra {
            pairs.push(format!("{k}=\"{}\"", escape_label(v)));
        }
        if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        }
    }

    /// The flat `name{k="v",...}` form used as a JSON snapshot key.
    pub fn flat(&self) -> String {
        format!("{}{}", self.name, self.label_block(None))
    }
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Formats a sample value: integers exactly, floats via the shortest
/// round-trip form.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v}")
    } else {
        format!("{v:e}")
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Summary,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Summary => "summary",
        }
    }
}

/// A resolved counter of one [`MetricsRegistry`]: write it with
/// [`MetricsRegistry::add_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// A resolved gauge of one [`MetricsRegistry`]: write it with
/// [`MetricsRegistry::set_at`], read it with
/// [`MetricsRegistry::gauge_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeHandle(usize);

/// A resolved histogram of one [`MetricsRegistry`]: write it with
/// [`MetricsRegistry::record_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

impl CounterHandle {
    /// The counter's dense index (handles of one registry number its
    /// counters `0..` in creation order), for caller-side side tables.
    pub fn index(self) -> usize {
        self.0
    }
}

impl HistogramHandle {
    /// The histogram's dense index, as [`CounterHandle::index`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// The labeled metrics registry (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// `# HELP` text per metric name.
    help: BTreeMap<String, String>,
    /// Metric kind per name — one name, one kind.
    kinds: BTreeMap<String, Kind>,
    /// Every metric's key, with its kind and index into that kind's
    /// storage. Key order is export order.
    index: BTreeMap<MetricKey, (Kind, usize)>,
    counters: Vec<u64>,
    gauges: Vec<f64>,
    histograms: Vec<QuantileSketch>,
    /// Relative accuracy for histograms created through [`Self::observe`].
    alpha: f64,
}

impl MetricsRegistry {
    /// An empty registry with the default sketch accuracy (1%).
    pub fn new() -> Self {
        Self::with_alpha(QuantileSketch::DEFAULT_ALPHA)
    }

    /// An empty registry whose histograms use relative accuracy
    /// `alpha`.
    pub fn with_alpha(alpha: f64) -> Self {
        Self {
            alpha,
            ..Self::default()
        }
    }

    /// The histogram sketch accuracy.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Sets the `# HELP` text for a metric name.
    pub fn describe(&mut self, name: &str, help: &str) {
        self.help.insert(name.to_string(), help.to_string());
    }

    /// Records `name` as a metric of `kind`; allocates only the first
    /// time it sees the name.
    fn claim(&mut self, name: &str, kind: Kind) {
        let prev = match self.kinds.get(name) {
            Some(&prev) => prev,
            None => {
                self.kinds.insert(name.to_string(), kind);
                kind
            }
        };
        assert!(
            prev == kind,
            "metric {name} already registered as {} (now used as {})",
            prev.label(),
            kind.label()
        );
    }

    /// Claims `name` as `kind` and returns the storage index of
    /// `(name, labels)`, creating the metric on first use.
    fn resolve(&mut self, name: &str, labels: &[(&str, &str)], kind: Kind) -> usize {
        self.claim(name, kind);
        self.slot(MetricKey::new(name, labels), kind, self.alpha)
    }

    /// The storage index of `key`, which must be of `kind`: a new
    /// counter starts at zero, a new gauge at zero, a new histogram as
    /// an empty sketch of accuracy `alpha`.
    fn slot(&mut self, key: MetricKey, kind: Kind, alpha: f64) -> usize {
        if let Some(&(_, i)) = self.index.get(&key) {
            return i;
        }
        let i = match kind {
            Kind::Counter => push(&mut self.counters, 0),
            Kind::Gauge => push(&mut self.gauges, 0.0),
            Kind::Summary => push(&mut self.histograms, QuantileSketch::new(alpha)),
        };
        self.index.insert(key, (kind, i));
        i
    }

    /// The entries of `kind` in key order, with their storage indices.
    fn entries(&self, kind: Kind) -> impl Iterator<Item = (&MetricKey, usize)> {
        self.index
            .iter()
            .filter(move |(_, &(k, _))| k == kind)
            .map(|(key, &(_, i))| (key, i))
    }

    /// The storage index of an existing `(name, labels)` of `kind`.
    fn find(&self, name: &str, labels: &[(&str, &str)], kind: Kind) -> Option<usize> {
        match self.index.get(&MetricKey::new(name, labels)) {
            Some(&(k, i)) if k == kind => Some(i),
            _ => None,
        }
    }

    /// Resolves a counter, creating it at zero on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already another kind of metric, or on an
    /// invalid name or label key.
    pub fn counter_handle(&mut self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        CounterHandle(self.resolve(name, labels, Kind::Counter))
    }

    /// Resolves a gauge, creating it at zero on first use (it exports
    /// from then on).
    ///
    /// # Panics
    ///
    /// As [`Self::counter_handle`].
    pub fn gauge_handle(&mut self, name: &str, labels: &[(&str, &str)]) -> GaugeHandle {
        GaugeHandle(self.resolve(name, labels, Kind::Gauge))
    }

    /// Resolves a histogram, creating an empty sketch with the
    /// registry's `alpha` on first use.
    ///
    /// # Panics
    ///
    /// As [`Self::counter_handle`].
    pub fn histogram_handle(&mut self, name: &str, labels: &[(&str, &str)]) -> HistogramHandle {
        HistogramHandle(self.resolve(name, labels, Kind::Summary))
    }

    /// Adds `delta` to a resolved counter.
    pub fn add_at(&mut self, h: CounterHandle, delta: u64) {
        self.counters[h.0] += delta;
    }

    /// Sets a resolved gauge.
    pub fn set_at(&mut self, h: GaugeHandle, value: f64) {
        self.gauges[h.0] = value;
    }

    /// Records one observation into a resolved histogram.
    pub fn record_at(&mut self, h: HistogramHandle, value: f64) {
        self.histograms[h.0].record(value);
    }

    /// Reads a resolved gauge.
    pub fn gauge_at(&self, h: GaugeHandle) -> f64 {
        self.gauges[h.0]
    }

    /// Adds `delta` to a counter (creating it at zero).
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], delta: u64) {
        let h = self.counter_handle(name, labels);
        self.add_at(h, delta);
    }

    /// Adds 1 to a counter.
    pub fn inc(&mut self, name: &str, labels: &[(&str, &str)]) {
        self.add(name, labels, 1);
    }

    /// Overwrites a counter with an absolute cumulative value (for
    /// exporting externally-maintained counters, e.g. runtime plan
    /// statistics).
    pub fn store(&mut self, name: &str, labels: &[(&str, &str)], value: u64) {
        let h = self.counter_handle(name, labels);
        self.counters[h.0] = value;
    }

    /// Reads a counter (zero if never touched).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.find(name, labels, Kind::Counter)
            .map_or(0, |i| self.counters[i])
    }

    /// Sets a gauge.
    pub fn set_gauge(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let h = self.gauge_handle(name, labels);
        self.set_at(h, value);
    }

    /// Reads a gauge, `None` if never set.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(name, labels, Kind::Gauge).map(|i| self.gauges[i])
    }

    /// Records one observation into a histogram (creating its sketch
    /// with the registry's `alpha` on first use).
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        let h = self.histogram_handle(name, labels);
        self.record_at(h, value);
    }

    /// The sketch behind a histogram, if populated.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&QuantileSketch> {
        self.find(name, labels, Kind::Summary)
            .map(|i| &self.histograms[i])
    }

    /// Iterates all histogram entries in key order.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricKey, &QuantileSketch)> {
        self.indexed_histograms().map(|(_, k, s)| (k, s))
    }

    /// Iterates all counter entries in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.indexed_counters().map(|(_, k, v)| (k, v))
    }

    /// Iterates all counters in key order, with their handles.
    pub fn indexed_counters(&self) -> impl Iterator<Item = (CounterHandle, &MetricKey, u64)> {
        self.entries(Kind::Counter)
            .map(|(k, i)| (CounterHandle(i), k, self.counters[i]))
    }

    /// Iterates all histograms in key order, with their handles.
    pub fn indexed_histograms(
        &self,
    ) -> impl Iterator<Item = (HistogramHandle, &MetricKey, &QuantileSketch)> {
        self.entries(Kind::Summary)
            .map(|(k, i)| (HistogramHandle(i), k, &self.histograms[i]))
    }

    /// Total occupied sketch buckets across every histogram: the
    /// registry's only sample-dependent memory, which the soak test
    /// bounds by O(classes × buckets).
    pub fn total_buckets(&self) -> usize {
        self.histograms
            .iter()
            .map(QuantileSketch::buckets_used)
            .sum()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges take `other`'s
    /// value, histograms merge sketches.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, help) in &other.help {
            self.help
                .entry(name.clone())
                .or_insert_with(|| help.clone());
        }
        for (name, kind) in &other.kinds {
            self.claim(name, *kind);
        }
        for (k, &(kind, i)) in &other.index {
            match kind {
                Kind::Counter => {
                    let j = self.slot(k.clone(), kind, self.alpha);
                    self.counters[j] += other.counters[i];
                }
                Kind::Gauge => {
                    let j = self.slot(k.clone(), kind, self.alpha);
                    self.gauges[j] = other.gauges[i];
                }
                Kind::Summary => {
                    let s = &other.histograms[i];
                    let j = self.slot(k.clone(), kind, s.alpha());
                    self.histograms[j].merge(s);
                }
            }
        }
    }

    /// Renders the registry in the Prometheus text exposition format.
    /// Deterministic: metric families appear in name order, samples in
    /// label order.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, kind) in &self.kinds {
            let first = MetricKey {
                name: name.clone(),
                labels: Vec::new(),
            };
            let mut family = String::new();
            for (k, &(_, i)) in self
                .index
                .range(first..)
                .take_while(|(k, _)| &k.name == name)
            {
                match kind {
                    Kind::Counter => {
                        let v = self.counters[i];
                        family.push_str(&format!("{}{} {v}\n", k.name, k.label_block(None)));
                    }
                    Kind::Gauge => {
                        family.push_str(&format!(
                            "{}{} {}\n",
                            k.name,
                            k.label_block(None),
                            fmt_value(self.gauges[i])
                        ));
                    }
                    Kind::Summary => {
                        let s = &self.histograms[i];
                        if let Some((p50, p95, p99)) = s.p50_p95_p99() {
                            for (q, v) in [("0.5", p50), ("0.95", p95), ("0.99", p99)] {
                                family.push_str(&format!(
                                    "{}{} {}\n",
                                    k.name,
                                    k.label_block(Some(("quantile", q))),
                                    fmt_value(v)
                                ));
                            }
                        }
                        family.push_str(&format!(
                            "{}_sum{} {}\n",
                            k.name,
                            k.label_block(None),
                            fmt_value(s.sum())
                        ));
                        family.push_str(&format!(
                            "{}_count{} {}\n",
                            k.name,
                            k.label_block(None),
                            s.count()
                        ));
                    }
                }
            }
            if family.is_empty() {
                continue;
            }
            if let Some(help) = self.help.get(name) {
                out.push_str(&format!("# HELP {name} {help}\n"));
            }
            out.push_str(&format!("# TYPE {name} {}\n", kind.label()));
            out.push_str(&family);
        }
        out
    }
}

/// Appends `value` and returns its index.
fn push<T>(storage: &mut Vec<T>, value: T) -> usize {
    storage.push(value);
    storage.len() - 1
}

/// Summary returned by a successful [`validate_exposition`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// Metric families (`# TYPE` lines).
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

/// Validates Prometheus text exposition: every sample line parses as
/// `name{labels} value`, every sample's family has a preceding
/// `# TYPE`, and every value is a finite float.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_exposition(text: &str) -> Result<ExpositionSummary, String> {
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            let kind = parts.next().ok_or(format!("line {i}: TYPE without kind"))?;
            if !matches!(
                kind,
                "counter" | "gauge" | "summary" | "histogram" | "untyped"
            ) {
                return Err(format!("line {i}: unknown metric type {kind:?}"));
            }
            types.insert(name.to_string(), kind.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // Sample: name[{labels}] value
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or(format!("line {i}: sample without value: {line:?}"))?;
        let v: f64 = value
            .parse()
            .map_err(|_| format!("line {i}: unparseable value {value:?}"))?;
        if !v.is_finite() {
            return Err(format!("line {i}: non-finite sample value {value}"));
        }
        let name = series.split('{').next().unwrap_or_default();
        if let Some(open) = series.find('{') {
            if !series.ends_with('}') {
                return Err(format!("line {i}: unterminated label block: {line:?}"));
            }
            let block = &series[open + 1..series.len() - 1];
            for pair in block.split(',') {
                let (k, val) = pair
                    .split_once('=')
                    .ok_or(format!("line {i}: malformed label {pair:?}"))?;
                if !valid_name(k) {
                    return Err(format!("line {i}: invalid label key {k:?}"));
                }
                if !(val.starts_with('"') && val.ends_with('"') && val.len() >= 2) {
                    return Err(format!("line {i}: unquoted label value {val:?}"));
                }
            }
        }
        // `_sum`/`_count` samples belong to their summary family.
        let family = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .filter(|base| types.contains_key(*base))
            .unwrap_or(name);
        if !types.contains_key(family) {
            return Err(format!("line {i}: sample {name} has no # TYPE declaration"));
        }
        samples += 1;
    }
    Ok(ExpositionSummary {
        families: types.len(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.describe("serve_admitted_total", "sessions admitted");
        reg.add("serve_admitted_total", &[("class", "stap-tiny")], 3);
        reg.inc("serve_admitted_total", &[("class", "sar-chain-256")]);
        reg.set_gauge("serve_queue_depth", &[], 7.0);
        for i in 1..=100u64 {
            reg.observe(
                "serve_service_seconds",
                &[("class", "stap-tiny")],
                i as f64 * 1e-4,
            );
        }
        reg
    }

    #[test]
    fn exposition_round_trips_through_the_validator() {
        let reg = sample_registry();
        let text = reg.to_prometheus();
        let summary = validate_exposition(&text).expect("valid exposition");
        assert_eq!(summary.families, 3);
        // 2 counter samples + 1 gauge + (3 quantiles + sum + count).
        assert_eq!(summary.samples, 8);
        assert!(text.contains("# TYPE serve_admitted_total counter"));
        assert!(text.contains("serve_admitted_total{class=\"stap-tiny\"} 3"));
        assert!(text.contains("serve_service_seconds{class=\"stap-tiny\",quantile=\"0.99\"}"));
        assert!(text.contains("serve_service_seconds_count{class=\"stap-tiny\"} 100"));
    }

    #[test]
    fn merge_adds_counters_and_folds_sketches() {
        let mut a = sample_registry();
        let b = sample_registry();
        a.merge(&b);
        assert_eq!(
            a.counter("serve_admitted_total", &[("class", "stap-tiny")]),
            6
        );
        assert_eq!(
            a.histogram("serve_service_seconds", &[("class", "stap-tiny")])
                .unwrap()
                .count(),
            200
        );
        assert_eq!(a.gauge("serve_queue_depth", &[]), Some(7.0));
    }

    #[test]
    fn equal_registries_render_byte_identically() {
        let a = sample_registry();
        let b = sample_registry();
        assert_eq!(a.to_prometheus(), b.to_prometheus());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn one_name_cannot_be_two_kinds() {
        let mut reg = MetricsRegistry::new();
        reg.inc("x_total", &[]);
        reg.set_gauge("x_total", &[], 1.0);
    }

    #[test]
    fn validator_rejects_undeclared_and_malformed_samples() {
        assert!(validate_exposition("x 1\n").is_err(), "no TYPE");
        assert!(validate_exposition("# TYPE x counter\nx nope\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx{k=\"v\" 1\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx{k=v} 1\n").is_err());
        assert!(validate_exposition("# TYPE x counter\nx 1\n").is_ok());
    }
}
