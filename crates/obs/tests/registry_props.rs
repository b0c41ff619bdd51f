//! Property tests for the metrics registry's two ways in: one random
//! sequence of counter, gauge and histogram writes applied through
//! resolved handles, through the string-keyed calls, and alternating
//! between the two renders byte-identical exposition and snapshots; and
//! a name used as two kinds panics on either path.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mealib_obs::{CounterHandle, GaugeHandle, HistogramHandle, MetricsRegistry};
use proptest::prelude::*;

const COUNTERS: [&str; 2] = ["test_events_total", "test_bytes_total"];
const GAUGES: [&str; 2] = ["test_depth", "test_clock_seconds"];
const HISTOGRAMS: [&str; 2] = ["test_service_seconds", "test_delay_seconds"];

/// Label sets, one unsorted, so both paths must sort them alike.
const LABELS: [&[(&str, &str)]; 4] = [
    &[],
    &[("class", "a")],
    &[("class", "b")],
    &[("reason", "queue_full"), ("class", "a")],
];

/// One registry write: `(kind, name, labels, amount)`.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    name: usize,
    labels: usize,
    amount: u64,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 0usize..2, 0usize..LABELS.len(), 0u64..1_000_000).prop_map(
        |(kind, name, labels, amount)| Op {
            kind,
            name,
            labels,
            amount,
        },
    )
}

/// A sample value spanning microseconds to tens of seconds.
fn value(amount: u64) -> f64 {
    amount as f64 * 2.5e-5
}

/// Handles resolved on first use, as a hot-path caller keeps them.
#[derive(Default)]
struct Handles {
    counters: BTreeMap<(usize, usize), CounterHandle>,
    gauges: BTreeMap<(usize, usize), GaugeHandle>,
    histograms: BTreeMap<(usize, usize), HistogramHandle>,
}

impl Handles {
    fn apply(&mut self, reg: &mut MetricsRegistry, op: Op) {
        let key = (op.name, op.labels);
        let labels = LABELS[op.labels];
        match op.kind {
            0 => {
                let name = COUNTERS[op.name];
                let h = *self
                    .counters
                    .entry(key)
                    .or_insert_with(|| reg.counter_handle(name, labels));
                reg.add_at(h, op.amount);
            }
            1 => {
                let name = GAUGES[op.name];
                let h = *self
                    .gauges
                    .entry(key)
                    .or_insert_with(|| reg.gauge_handle(name, labels));
                reg.set_at(h, value(op.amount));
            }
            _ => {
                let name = HISTOGRAMS[op.name];
                let h = *self
                    .histograms
                    .entry(key)
                    .or_insert_with(|| reg.histogram_handle(name, labels));
                reg.record_at(h, value(op.amount));
            }
        }
    }
}

fn apply_by_name(reg: &mut MetricsRegistry, op: Op) {
    let labels = LABELS[op.labels];
    match op.kind {
        0 if op.amount == 1 => reg.inc(COUNTERS[op.name], labels),
        0 => reg.add(COUNTERS[op.name], labels, op.amount),
        1 => reg.set_gauge(GAUGES[op.name], labels, value(op.amount)),
        _ => reg.observe(HISTOGRAMS[op.name], labels, value(op.amount)),
    }
}

fn described() -> MetricsRegistry {
    let mut reg = MetricsRegistry::with_alpha(0.02);
    reg.describe(COUNTERS[0], "events");
    reg.describe(HISTOGRAMS[1], "queueing delay");
    reg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Handles and names write the same slots: the three registries
    /// render byte-identically, and a handle reads what a name reads.
    #[test]
    fn handles_and_names_render_identically(
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let mut by_handle = described();
        let mut handles = Handles::default();
        let mut by_name = described();
        let mut mixed = described();
        let mut mixed_handles = Handles::default();
        for (i, &op) in ops.iter().enumerate() {
            handles.apply(&mut by_handle, op);
            apply_by_name(&mut by_name, op);
            if i % 2 == 0 {
                mixed_handles.apply(&mut mixed, op);
            } else {
                apply_by_name(&mut mixed, op);
            }
        }
        let prom = by_name.to_prometheus();
        prop_assert_eq!(&by_handle.to_prometheus(), &prom);
        prop_assert_eq!(&mixed.to_prometheus(), &prom);
        for (&(name, labels), &h) in &handles.gauges {
            prop_assert_eq!(
                Some(by_handle.gauge_at(h)),
                by_name.gauge(GAUGES[name], LABELS[labels])
            );
        }
    }

    /// A name keeps its first kind on both paths: using it as another
    /// kind panics whether either use went through a handle or a name.
    #[test]
    fn a_kind_clash_panics_on_both_paths(
        first in 0u8..3,
        shift in 1u8..3,
        paths in 0u8..4,
        labels in 0usize..LABELS.len(),
    ) {
        let second = (first + shift) % 3;
        let write = |reg: &mut MetricsRegistry, kind: u8, by_handle: bool| {
            let name = "test_clash";
            let labels = LABELS[labels];
            match (kind, by_handle) {
                (0, true) => {
                    let h = reg.counter_handle(name, labels);
                    reg.add_at(h, 1);
                }
                (0, false) => reg.inc(name, labels),
                (1, true) => {
                    let h = reg.gauge_handle(name, labels);
                    reg.set_at(h, 1.0);
                }
                (1, false) => reg.set_gauge(name, labels, 1.0),
                (_, true) => {
                    let h = reg.histogram_handle(name, labels);
                    reg.record_at(h, 1.0);
                }
                (_, false) => reg.observe(name, labels, 1.0),
            }
        };
        let mut reg = MetricsRegistry::new();
        write(&mut reg, first, paths & 1 == 1);
        let clash = catch_unwind(AssertUnwindSafe(|| {
            write(&mut reg, second, paths & 2 == 2);
        }));
        prop_assert!(clash.is_err(), "kind {first} then {second} did not panic");
    }
}
