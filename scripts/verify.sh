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

echo "==> run decoder: the block-rule proptest on 4,096 cases (release)"
# The default suite draws 64 cases; `with_cases` pins that count, so the
# wide run is a second, ignored proptest over the same property.
cargo test -q --release -p mealib-memsim --lib -- --ignored --exact \
    runs::tests::block_runs_expand_to_the_per_burst_decode_wide

echo "==> admission oracle: memoized certify against the text oracle on 512 cases (release)"
# The default suite draws 48 gate-level cases; the environment
# override widens the proptest without a second copy of it.
PROPTEST_CASES=512 cargo test -q --release -p mealib-serve --test admission_oracle

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc: rustdoc warnings are errors"
# The root package and every crate under crates/*. The vendored
# rand/proptest/criterion stand-ins implement API subsets for tests
# and are not documented crates, so they are left out.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace \
    --exclude proptest --exclude rand --exclude criterion

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
# A positive clock whose period overflows to infinity.
printf 'base = hmc_stack\nt_ck_mhz = 5e-324\n' >"$adv/mea020_infinite_clock.memcfg"
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

echo "==> mealint: adversarial sizes must lint within 5 s and exit 0/1/2"
# Buffers of 2^62 and 2^63 bytes, an extent whose base + length wraps,
# and the mea201 loop at 2^20 iterations. The bounds walk prices whole
# mapping periods in closed form and keeps loops rolled, so none of
# these may hang, run out of memory, or panic. Written to the temporary
# directory above, not the corpus.
pass='PASS in=a out=b {
  COMP AXPY params="a.para"
}'
for spec in "buf62 0x1000 0x4000000000000000" "buf63 0x1000 0x8000000000000000" \
    "wrap 0xffffffffffffff00 0x200"; do
    read -r name base len <<<"$spec"
    printf 'BUF a %s %s\nBUF b 0x1000 0x1000\n%s\n' "$base" "$len" "$pass" >"$adv/$name.tdl"
done
sed 's/^LOOP 8 {$/LOOP 1048576 {/' crates/verify/corpus/bad/mea201_loop_traffic.tdl \
    >"$adv/loop1048576.tdl"
grep -q '^LOOP 1048576 {$' "$adv/loop1048576.tdl"
for f in "$adv"/*.tdl; do
    status=0
    out=$(timeout 5 "${MEALINT[@]}" "$f" 2>&1) || status=$?
    if (( status > 2 )); then
        echo "mealint exited $status on $(basename "$f") (124 = timed out):" >&2
        echo "$out" >&2
        exit 1
    fi
    if [[ $f == */loop1048576.tdl ]] && ! grep -q '\[MEA201\]' <<<"$out"; then
        echo "mealint missed MEA201 in the mea201 loop at 2^20 iterations:" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "==> mealint: loops past the analysis budget are an MEA005 error within 5 s, not a hang"
# LOOP 2^40 over 1 KiB buffers: the accelerator energy floor prices
# each invocation (budget 2^28). A one-tenant set looping 2^20 times
# over 16 MiB buffers: compose unrolls tenant loops for the interleaver
# (budget 2^18). Both must stop at their budget with an MEA005 error
# naming it (exit 1). Written to the temporary directory, not the
# corpus.
printf 'BUF x 0x1000 0x400\nBUF y 0x2000 0x400\nLOOP 1099511627776 { %s }\n' \
    'PASS in=x out=y { COMP AXPY params="a.para" }' >"$adv/budget_loop40.tdl"
printf 'TENANT solo\nBUF a 0x1000 0x1000000\nBUF b 0x2000000 0x1000000\nLOOP 1048576 {\n%s\n}\n' \
    "$pass" >"$adv/budget_loop20.set"
for f in "$adv"/budget_*; do
    status=0
    out=$(timeout 5 "${MEALINT[@]}" "$f" 2>&1) || status=$?
    if (( status != 1 )) || ! grep -q "\[MEA005\].*analysis budget" <<<"$out"; then
        echo "mealint exited $status on $(basename "$f"), want 1 with an MEA005 error" \
            "naming the analysis budget (124 = timed out):" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "==> mealint: a duplicate BUF is a parse error (exit 2) naming both lines"
# A second declaration of one buffer name must not replace the first
# extent. Written to the temporary directory, not the corpus.
printf 'BUF a 0x1000 0x1000\nBUF a 0x100000 0x1000\nBUF b 0x2000 0x1000\n%s\n' "$pass" \
    >"$adv/dup_buf.tdl"
status=0
out=$("${MEALINT[@]}" "$adv/dup_buf.tdl" 2>&1) || status=$?
if (( status != 2 )) || ! grep -q "first is on line 1), found BUF a .* on line 2" <<<"$out"; then
    echo "mealint exited $status on a duplicate BUF, want 2 naming lines 1 and 2:" >&2
    echo "$out" >&2
    exit 1
fi

echo "==> mealint: a tenant whose last request moves no byte proves no false MEA302"
# The clean partition twin with dsp's output buffer emptied and a dsp
# latency budget of 8e-7 s, which the measured replay (5.6e-7 s) meets.
# The empty buffer's request comes after the co-tenant's traffic, so a
# latency floor that counted it charged dsp for bursts it never waits
# behind. Written to the temporary directory, not the corpus.
sed -e 's/^BUF b 0x80000 0x40000$/BUF b 0x80000 0/' \
    -e 's/^TENANT dsp$/&\nBUDGET TIME 0.0000008/' \
    crates/verify/corpus/clean/mea300_partition_overlap.set >"$adv/empty_last_request.set"
grep -q '^BUF b 0x80000 0$' "$adv/empty_last_request.set"
grep -q '^BUDGET TIME 0.0000008$' "$adv/empty_last_request.set"
status=0
out=$("${MEALINT[@]}" "$adv/empty_last_request.set" 2>&1) || status=$?
if (( status > 1 )) || grep -q '\[MEA302\]' <<<"$out"; then
    echo "mealint exited $status on the empty-last-request set, want 0 or 1 without MEA302:" >&2
    echo "$out" >&2
    exit 1
fi

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

echo "==> perfbench: builds, and every workload passes once on the pinned seed"
# perfbench is a package of its own, so the workspace build above never
# compiles it, yet it calls the serve, verify and memsim crates' public
# functions. Exit 0 means every contract and pin check passed.
PERFBENCH=(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml --)
cargo build --release --offline --manifest-path perfbench/Cargo.toml
for w in serve_light serve_heavy trace_replay lint_corpus; do
    status=0
    out=$("${PERFBENCH[@]}" --workload "$w" --seed 1 --seconds 1 --trace 0 2>&1) || status=$?
    if (( status != 0 )); then
        echo "perfbench $w exited $status:" >&2
        echo "$out" >&2
        exit 1
    fi
done

echo "verify: OK"
