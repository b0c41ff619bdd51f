#!/usr/bin/env bash
# Bench smoke: run every mealib-bench harness at reduced sizes with
# --json, validate that each summary parses, and collect the records
# into a schema-v1 BENCH file (first argument, default
# target/bench_smoke/BENCH.json, which git ignores) — the
# perf-trajectory data point for a change. Records carry modeled and
# counted metrics only; host wall time is measured by perfbench/. To
# record a new baseline, pass its path: scripts/bench_smoke.sh
# BENCH_pr<N>.json.
#
# Also exercises:
#   * the fig14 and fig13 --profile paths (each Chrome trace-event
#     profile passes `meaperf --check-trace`'s round-trip validation);
#   * the traced sweep: two identical fig09 --small --profile runs
#     must write byte-identical profiles (each run's breakdown is
#     folded into the recorder in input order), and each passes
#     `meaperf --check-trace`;
#   * the perf gate: when a baseline BENCH file exists (BASE env var,
#     default: the highest-numbered BENCH_pr<N>.json tracked by git,
#     other than OUT), `meaperf BASE OUT` must pass — every metric
#     gates hard;
#   * the dual-engine floor: engine_throughput exits nonzero unless the
#     fast engine's geomean speedup over the cycle oracle stays >= 5x,
#     so the harness loop below stops on it, baseline or not;
#   * the admission-control floor: tenant_mix's verdict_correctness
#     must stay exactly 1 — every ADMIT/REJECT/UNKNOWN verdict the
#     MEA3xx certifier hands out is confirmed against the interleaved
#     simulation, baseline or not. tenant_mix replays each mix under
#     DualCheck, so a tagged fast/cycle divergence (per tenant) also
#     leaves its mix unconfirmed and fails this floor;
#   * the serving-soundness floor: serve_traffic's admission_soundness
#     must stay exactly 1 — every session the certified-admission
#     scheduler completes lands inside the elapsed ceiling its
#     admission proved, baseline or not;
#   * the telemetry path: serve_traffic runs with --telemetry, the
#     Prometheus exposition + JSONL snapshots + lifecycle trace are
#     validated on disk by `meatop --check` (exact counter
#     reconciliation included) and the trace additionally by
#     `meaperf --check-trace`;
#   * the telemetry floors: serve_traffic's slo_conformance and
#     certified_bounds_conformance must both stay exactly 1 — no SLO
#     burned its error budget and no windowed observation escaped its
#     MEA3xx certified interval, baseline or not.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-target/bench_smoke/BENCH.json}"
mkdir -p "$(dirname "$OUT")"
if [[ -z "${BASE:-}" ]]; then
  BASE="$(git ls-files 'BENCH_pr*.json' | grep -vxF "$OUT" \
    | sort -V | tail -n 1 || true)"
fi
JQ="$(command -v jq || true)"

echo "==> cargo build --release -p mealib-bench --bins"
cargo build --release -p mealib-bench --bins

BINS=(
  fig01_library_speedup
  fig09_performance
  fig10_energy
  fig11_design_space
  fig12_chaining_loop
  fig13_stap
  fig14_breakdown
  table05_power_area
  ablations
  compiler_stap
  methodology_validation
  engine_throughput
  tenant_mix
  serve_traffic
)

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

records="$tmpdir/records.jsonl"
: > "$records"

tel_prefix="$tmpdir/serve_tel"

for bin in "${BINS[@]}"; do
  # serve_traffic runs telemetered so the BENCH record carries the
  # sketch percentiles and both conformance metrics.
  extra=()
  [[ "$bin" == "serve_traffic" ]] && extra=(--telemetry "$tel_prefix")
  echo "==> $bin --small --json ${extra[*]}"
  line="$(./target/release/$bin --small --json "${extra[@]}" | tail -n 1)" \
    || { echo "error: $bin failed" >&2; exit 1; }
  if [[ -n "$JQ" ]]; then
    echo "$line" | "$JQ" -e '.bench and (.metrics | type == "object")' > /dev/null \
      || { echo "error: $bin summary failed validation: $line" >&2; exit 1; }
  fi
  echo "$line" >> "$records"
done

echo "==> fig14_breakdown --small --profile (Perfetto trace validation)"
profile="$tmpdir/fig14_breakdown.trace.json"
./target/release/fig14_breakdown --small --profile "$profile" > /dev/null
[[ -s "$profile" ]] || { echo "error: profile file is empty" >&2; exit 1; }
./target/release/meaperf --check-trace "$profile" \
  || { echo "error: fig14 profile failed trace validation" >&2; exit 1; }

echo "==> meatop --check (telemetry artifact validation + exact reconciliation)"
for f in "$tel_prefix.prom" "$tel_prefix.snapshots.jsonl" "$tel_prefix.trace.json" "$tel_prefix.alerts.jsonl"; do
  [[ -f "$f" ]] || { echo "error: serve_traffic --telemetry did not write $f" >&2; exit 1; }
done
./target/release/meatop --check "$tel_prefix" \
  || { echo "error: telemetry artifacts failed meatop --check" >&2; exit 1; }
./target/release/meaperf --check-trace "$tel_prefix.trace.json" \
  || { echo "error: lifecycle trace failed meaperf --check-trace" >&2; exit 1; }

echo "==> fig13_stap --small --profile (Perfetto trace validation)"
profile="$tmpdir/fig13_stap.trace.json"
./target/release/fig13_stap --small --profile "$profile" > /dev/null
[[ -s "$profile" ]] || { echo "error: profile file is empty" >&2; exit 1; }
./target/release/meaperf --check-trace "$profile" \
  || { echo "error: fig13 profile failed trace validation" >&2; exit 1; }

# A traced sweep folds the same per-run breakdowns in the same order
# every time, so two identical runs must write the same profile bytes.
echo "==> fig09_performance --small --profile, twice (traced determinism)"
for run in 1 2; do
  profile="$tmpdir/fig09.$run.trace.json"
  ./target/release/fig09_performance --small --profile "$profile" > /dev/null
  ./target/release/meaperf --check-trace "$profile" \
    || { echo "error: fig09 profile failed trace validation" >&2; exit 1; }
done
cmp -s "$tmpdir/fig09.1.trace.json" "$tmpdir/fig09.2.trace.json" \
  || { echo "error: two identical fig09 runs wrote different profiles" >&2; exit 1; }
echo "fig09 profile OK: byte-identical across two runs"

if [[ -n "$JQ" ]]; then
  "$JQ" -s '{schema_version: 1, generated_by: "scripts/bench_smoke.sh", benches: .}' "$records" > "$OUT"
else
  {
    echo '{"schema_version": 1, "generated_by": "scripts/bench_smoke.sh", "benches": ['
    paste -sd, "$records"
    echo ']}'
  } > "$OUT"
fi

# Absolute floors, not trajectory comparisons, so they gate even
# without a baseline (self-compare).
MIN_FLOORS=(--min "tenant_mix.verdict_correctness=1"
            --min "serve_traffic.admission_soundness=1"
            --min "serve_traffic.slo_conformance=1"
            --min "serve_traffic.certified_bounds_conformance=1")
if [[ -f "$BASE" && "$BASE" != "$OUT" ]]; then
  echo "==> meaperf $BASE $OUT (every metric gates hard; floors)"
  ./target/release/meaperf "${MIN_FLOORS[@]}" "$BASE" "$OUT" \
    || { echo "error: perf gate failed against $BASE" >&2; exit 1; }
else
  echo "note: no baseline $BASE — checking the absolute floors only"
  ./target/release/meaperf "${MIN_FLOORS[@]}" "$OUT" "$OUT" \
    || { echo "error: absolute metric floor failed" >&2; exit 1; }
fi

echo "bench_smoke: OK — wrote $OUT"
