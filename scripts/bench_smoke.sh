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
#   * the fig11 --jobs path: the design-space sweep runs at full size
#     with --jobs 1 and --jobs 4, and the two JSON summaries must be
#     byte-identical (parallelism may change wall time, never modeled
#     outputs);
#   * the traced --jobs path: fig09 --small --profile at --jobs 1 and
#     --jobs 4 must write byte-identical profiles (the sweep folds each
#     run's breakdown into the recorder in input order at any worker
#     count);
#   * the fig11 --prune path: the MEA2xx static-bounds pruner must skip
#     at least 30% of the grid simulations while every Pareto-frontier
#     metric stays exactly equal to the full sweep's;
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

# Full-size fig11 at --jobs 1 vs --jobs 4: modeled outputs must not
# depend on the worker count.
echo "==> fig11_design_space --json --jobs 1 vs --jobs 4 (determinism)"
jobs1="$(./target/release/fig11_design_space --json --jobs 1 | tail -n 1)"
jobs4="$(./target/release/fig11_design_space --json --jobs 4 | tail -n 1)"
if [[ "$jobs1" != "$jobs4" ]]; then
  echo "error: fig11 summary differs between --jobs 1 and --jobs 4" >&2
  echo "  jobs1: $jobs1" >&2
  echo "  jobs4: $jobs4" >&2
  exit 1
fi
echo "fig11 jobs OK: identical summaries under --jobs 1 and --jobs 4"

# A traced sweep folds the same per-run breakdowns in the same order at
# any worker count, so the profile it writes must not change with
# --jobs either.
echo "==> fig09_performance --small --profile --jobs 1 vs --jobs 4 (traced determinism)"
for j in 1 4; do
  ./target/release/fig09_performance --small --profile "$tmpdir/fig09.j$j.trace.json" \
    --jobs "$j" > /dev/null
done
cmp -s "$tmpdir/fig09.j1.trace.json" "$tmpdir/fig09.j4.trace.json" \
  || { echo "error: fig09 profile differs between --jobs 1 and --jobs 4" >&2; exit 1; }
echo "fig09 profile OK: byte-identical under --jobs 1 and --jobs 4"

# Full-size fig11 with the MEA2xx static-bounds pruner: the frontier
# metrics must match the full sweep's exactly, and at least 30% of the
# grid must be provably dominated (skipped without simulation).
echo "==> fig11_design_space --json --prune (frontier identity + prune floor)"
pruned="$(./target/release/fig11_design_space --json --prune | tail -n 1)"

# Pull "key":value out of a one-line JSON summary without requiring jq.
metric() { grep -o "\"$2\":[^,}]*" <<<"$1" | head -n 1 | cut -d: -f2; }

for key in fft_frontier_points fft_frontier_gflops_sum fft_frontier_power_sum \
           fft_frontier_engine_sum spmv_frontier_points spmv_frontier_gflops_sum \
           spmv_frontier_power_sum spmv_frontier_engine_sum; do
  full_v="$(metric "$jobs1" "$key")"
  prune_v="$(metric "$pruned" "$key")"
  if [[ -z "$full_v" || -z "$prune_v" || "$full_v" != "$prune_v" ]]; then
    echo "error: fig11 frontier metric $key differs under --prune" >&2
    echo "  full:  ${full_v:-missing}" >&2
    echo "  prune: ${prune_v:-missing}" >&2
    exit 1
  fi
done

# Counts are serialized as floats ("46.0"); truncate for bash arithmetic.
grid="$(metric "$pruned" "grid_points")"; grid="${grid%%.*}"
fft_pruned="$(metric "$pruned" "fft_pruned")"
spmv_pruned="$(metric "$pruned" "spmv_pruned")"
pruned_total=$(( ${fft_pruned%%.*} + ${spmv_pruned%%.*} ))
if (( pruned_total * 10 < 3 * grid * 2 )); then
  echo "error: pruner skipped only $pruned_total of $((grid * 2)) simulations (<30%)" >&2
  exit 1
fi
echo "fig11 prune OK: frontier identical; $pruned_total/$((grid * 2)) simulations pruned"
echo "$pruned" >> "$records"

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
