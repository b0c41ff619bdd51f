#!/usr/bin/env bash
# Tier-1 verification flow: build, test, lint, format.
#
# Everything here must pass before a change lands. CI and local
# development run the same script so there is exactly one definition of
# "green".
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (default-members: root, crates/*, vendor/* = the workspace)"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

MEALINT=(cargo run -q --release -p mealib-verify --bin mealint --)

echo "==> mealint: examples and clean corpus must be clean"
out=$("${MEALINT[@]}" examples/tdl/*.tdl crates/verify/corpus/clean/*.tdl 2>&1) || {
    echo "$out" >&2
    exit 1
}
if grep -qE "\[MEA[0-9]+\]" <<<"$out"; then
    echo "mealint flagged a file that must be clean:" >&2
    echo "$out" >&2
    exit 1
fi

echo "==> mealint: bad corpus must report the code its name promises"
for f in crates/verify/corpus/bad/*.tdl; do
    name=$(basename "$f" .tdl)        # mea103_missing_flush -> MEA103
    code="MEA${name:3:3}"
    out=$("${MEALINT[@]}" "$f" 2>&1) || true   # warnings exit 0, errors 1
    if ! grep -q "\[$code\]" <<<"$out"; then
        echo "mealint missed $code in $f:" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "==> mealint: clean session-set manifests must be admitted"
out=$("${MEALINT[@]}" crates/verify/corpus/clean/*.set 2>&1) || {
    echo "$out" >&2
    exit 1
}
if grep -qE "\[MEA[0-9]+\]" <<<"$out"; then
    echo "mealint flagged a session set that must be clean:" >&2
    echo "$out" >&2
    exit 1
fi
if grep -qv "verdict ADMIT" <<<"$out"; then
    echo "a clean session set was not admitted:" >&2
    echo "$out" >&2
    exit 1
fi

echo "==> mealint: bad session sets must report the MEA3xx code their name promises"
for f in crates/verify/corpus/bad/*.set; do
    name=$(basename "$f" .set)        # mea301_oversubscribed -> MEA301
    code="MEA${name:3:3}"
    out=$("${MEALINT[@]}" "$f" 2>&1) || true   # warnings exit 0, errors 1
    if ! grep -q "\[$code\]" <<<"$out"; then
        echo "mealint missed $code in $f:" >&2
        echo "$out" >&2
        exit 1
    fi
    if ! grep -q "verdict REJECT" <<<"$out"; then
        echo "bad session set $f was not rejected:" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "==> mealint: adversarial memconfigs must exit 0/1/2 with the diagnostic they promise"
# Parameters at the edges of u64. Written to a temporary directory, not
# the corpus: the corpus is a benchmark input. Each file is named
# <code>_<what>.memcfg after the code its report must carry.
adv=$(mktemp -d)
trap 'rm -rf "$adv"' EXIT
geometry="units = 1099511627776
banks_per_unit = 1048576
row_bytes = 1048576
line_bytes = 256"
printf 'base = hmc_stack\n%s\n' "$geometry" >"$adv/mea024_window_interleaved.memcfg"
printf 'base = hmc_stack\nmapping = xor\n%s\n' "$geometry" >"$adv/mea024_window_xor.memcfg"
printf 'base = hmc_stack\nmapping = asymmetric\nsplit = 18446744073709551360\n%s\n' \
    "$geometry" >"$adv/mea024_window_asymmetric.memcfg"
printf 'base = hmc_stack\nt_rcd = 9223372036854775808\nt_cl = 9223372036854775808\n' \
    >"$adv/mea021_timing_sum.memcfg"
for f in "$adv"/*.memcfg; do
    name=$(basename "$f" .memcfg)
    code="MEA${name:3:3}"
    status=0
    out=$("${MEALINT[@]}" "$f" 2>&1) || status=$?
    if (( status > 2 )); then
        echo "mealint exited $status on $name:" >&2
        echo "$out" >&2
        exit 1
    fi
    if ! grep -q "\[$code\]" <<<"$out"; then
        echo "mealint missed $code in $name:" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "==> interference corpus coverage: every MEA3xx code needs >=2 bad manifests + clean twins"
for code in 300 301 302 303; do
    bad=$(ls crates/verify/corpus/bad/mea${code}_*.set 2>/dev/null | wc -l)
    if (( bad < 2 )); then
        echo "interference corpus too thin: MEA$code has $bad bad manifests (need >=2)" >&2
        exit 1
    fi
    for f in crates/verify/corpus/bad/mea${code}_*.set; do
        twin="crates/verify/corpus/clean/$(basename "$f")"
        if [[ ! -f "$twin" ]]; then
            echo "interference corpus: $f has no clean twin at $twin" >&2
            exit 1
        fi
    done
done

echo "==> every workspace crate forbids unsafe code"
for f in src/lib.rs crates/*/src/lib.rs; do
    if ! grep -q '^#!\[forbid(unsafe_code)\]' "$f"; then
        echo "crate root $f does not carry #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

echo "==> bounds corpus coverage: every MEA2xx code needs >=2 bad programs + clean twins"
for code in 200 201 202 203; do
    bad=$(ls crates/verify/corpus/bad/mea${code}_*.tdl 2>/dev/null | wc -l)
    if (( bad < 2 )); then
        echo "bounds corpus too thin: MEA$code has $bad bad programs (need >=2)" >&2
        exit 1
    fi
    for f in crates/verify/corpus/bad/mea${code}_*.tdl; do
        twin="crates/verify/corpus/clean/$(basename "$f")"
        if [[ ! -f "$twin" ]]; then
            echo "bounds corpus: $f has no clean twin at $twin" >&2
            exit 1
        fi
    done
done

echo "verify: OK"
