#!/usr/bin/env bash
# lint-ir CI job.
#
# Gates the tree on the static verifier: `clop-lint` must pass over every
# module in the examples/ir corpus and its golden layout orders, the full
# static analysis pass pipeline must reproduce the committed JSON
# diagnostic goldens byte-for-byte (examples/ir/golden/; regenerate with
# CLOP_BLESS=1 ci/lint_ir.sh after an intentional change), `clop-lint`
# must *reject* the intentionally broken corpus, the trace-free static
# ranking must hold its Spearman gate on the reduced golden, and the
# pipeline-verification + conflict cross-validation suite must pass, and
# `clop-trace info` must read what the writers emit and refuse a
# version-1 container.
#
# Usage: ci/lint_ir.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building clop-lint (release) =="
cargo build --release --bin clop-lint
LINT=target/release/clop-lint

echo "== linting examples/ir and golden layouts =="
fail=0
for f in examples/ir/*.clop; do
    stem="${f%.clop}"
    args=("$f")
    # Golden layouts: `.order` is a whole-program block order, `.fnorder`
    # a function order; lint whichever the example ships.
    if [[ -f "$stem.order" ]]; then
        args+=(--layout "$stem.order")
    elif [[ -f "$stem.fnorder" ]]; then
        args+=(--layout "$stem.fnorder")
    fi
    echo "lint ${args[*]}"
    "$LINT" "${args[@]}" || fail=1
done
if [[ "$fail" -ne 0 ]]; then
    echo "FAIL: diagnostics in examples/ir" >&2
    exit 1
fi

echo "== pass pipeline vs JSON diagnostic goldens =="
mkdir -p examples/ir/golden
for f in examples/ir/*.clop; do
    stem="${f%.clop}"
    args=("$f")
    if [[ -f "$stem.order" ]]; then
        args+=(--layout "$stem.order")
    elif [[ -f "$stem.fnorder" ]]; then
        args+=(--layout "$stem.fnorder")
    fi
    golden="examples/ir/golden/$(basename "$stem").passes.json"
    got="$(mktemp)"
    "$LINT" "${args[@]}" --passes --json > "$got"
    if [[ "${CLOP_BLESS:-0}" = "1" ]]; then
        cp "$got" "$golden"
        echo "blessed $golden"
    elif ! diff -u "$golden" "$got"; then
        echo "FAIL: pass report for $f differs from $golden" >&2
        echo "      (rebless with CLOP_BLESS=1 ci/lint_ir.sh)" >&2
        rm -f "$got"
        exit 1
    else
        echo "golden ok: $golden"
    fi
    rm -f "$got"
done

echo "== negative check: the hostile corpus must be rejected =="
for f in examples/ir/bad/*.clop; do
    if "$LINT" "$f" >/dev/null 2>&1; then
        echo "FAIL: $f linted clean but is intentionally broken" >&2
        exit 1
    fi
    echo "rejected $f (as intended)"
done

echo "== static ranking vs simulation (Spearman gate, reduced golden) =="
cargo test --release -p clop-bench --test golden reduced_static_rank

echo "== pipeline verification + conflict cross-validation suite =="
cargo test --release -p clop-bench --test verify_pipelines

echo "== trace codec fuzz: corruption storms over CLTC v2 containers =="
cargo test --release -p clop-trace --test fault_injection
cargo test --release -p clop-trace columnar

echo "== clop-trace info: reads what the writers emit, refuses version 1 =="
cargo build --release -p clop-trace -p clop-serve --bins
tmp="$(mktemp -d)"
target/release/clop-serve gen "$tmp/t.cltc" 9000 257 1
info="$(target/release/clop-trace info "$tmp/t.cltc")"
echo "$info"
if [[ "$info" != *"container version 2, 9000 events"* ]]; then
    echo "FAIL: clop-trace info did not report a 9000-event version-2 container" >&2
    exit 1
fi
# The 21 bytes of a version-1 container holding [5, 5, 9, 0, 1000000, 3].
printf 'CLTC\001\013T#\a\331\006\n\000\b\021\200\211z\371\210z' > "$tmp/v1.cltc"
status=0
msg="$(target/release/clop-trace info "$tmp/v1.cltc" 2>&1)" || status=$?
echo "$msg"
rm -rf "$tmp"
if [[ "$status" -ne 1 || "$msg" != *"version 1"* ]]; then
    echo "FAIL: clop-trace info must exit 1 naming version 1 (exit $status)" >&2
    exit 1
fi

echo "PASS: lint-ir"
