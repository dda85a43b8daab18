#!/usr/bin/env bash
# Full-size golden and checkpoint/resume smoke test for `exp all`.
#
# First, an uninterrupted reference run of the whole suite must reproduce
# the committed `results/`: every `results/*.json` byte for byte, and its
# stdout must equal `results/all_experiments.txt`.
#
# Then a full experiment batch is SIGKILLed mid-run and re-launched with
# CLOP_RESUME=1. The resumed batch must (a) skip every experiment the
# checkpoint marks complete, (b) finish successfully, and (c) leave a
# results directory byte-identical to the reference run — the checkpoint
# protocol (artifact first, then `.done` record, both written atomically)
# makes this hold for a kill at *any* instant.
#
# Usage: ci/resume_smoke.sh [path-to-exp]
set -euo pipefail
cd "$(dirname "$0")/.."

EXP=${1:-target/release/exp}
if [[ ! -x "$EXP" ]]; then
    echo "building exp (release)..."
    cargo build --release -p clop-bench --bin exp
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/clop-resume-smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
REF="$WORK/ref"
RES="$WORK/resumed"

echo "== reference run (uninterrupted) =="
CLOP_RESULTS_DIR="$REF" "$EXP" all --jobs 2 >"$WORK/ref.out" 2>"$WORK/ref.err"

echo "== comparing the reference run with the committed results/ =="
if ! diff -r --exclude=.checkpoint --exclude=all_experiments.txt results "$REF" ||
    ! cmp "$WORK/ref.out" results/all_experiments.txt; then
    echo "FAIL: the reference run differs from the committed results/." >&2
    echo "If the change is intended, regenerate them with:" >&2
    echo "  cargo build --release -p clop-bench --bin exp &&" \
         "./target/release/exp all --jobs 2 > results/all_experiments.txt" >&2
    exit 1
fi

echo "== interrupted run (SIGKILL after the first checkpoints land) =="
CLOP_RESULTS_DIR="$RES" "$EXP" all --jobs 2 >"$WORK/int.out" 2>"$WORK/int.err" &
PID=$!
# Wait until at least two experiments have checkpointed, then kill -9.
for _ in $(seq 1 600); do
    if [[ $(ls "$RES/.checkpoint/"*.done 2>/dev/null | wc -l) -ge 2 ]]; then
        break
    fi
    if ! kill -0 "$PID" 2>/dev/null; then
        echo "FAIL: exp all exited before it could be interrupted" >&2
        exit 1
    fi
    sleep 0.1
done
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true
DONE_AT_KILL=$(ls "$RES/.checkpoint/"*.done 2>/dev/null | wc -l)
echo "killed with $DONE_AT_KILL experiments checkpointed"
if [[ "$DONE_AT_KILL" -lt 1 ]]; then
    echo "FAIL: nothing checkpointed before the kill; smoke is vacuous" >&2
    exit 1
fi

echo "== resumed run (CLOP_RESUME=1) =="
CLOP_RESULTS_DIR="$RES" CLOP_RESUME=1 "$EXP" all --jobs 2 \
    >"$WORK/res.out" 2>"$WORK/res.err"

SKIPPED=$(grep -c "skipped via CLOP_RESUME" "$WORK/res.out" || true)
echo "resumed run skipped $SKIPPED completed experiments"
if [[ "$SKIPPED" -lt 1 ]]; then
    echo "FAIL: resume re-ran everything; checkpoints were not honored" >&2
    exit 1
fi

echo "== comparing results directories =="
if ! diff -r --exclude=.checkpoint "$REF" "$RES"; then
    echo "FAIL: resumed results differ from the uninterrupted reference" >&2
    exit 1
fi

echo "PASS: the reference run matches results/, and resume after SIGKILL" \
     "reproduced it byte-for-byte" \
     "($DONE_AT_KILL checkpointed before kill, $SKIPPED skipped on resume)"
