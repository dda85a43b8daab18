#!/usr/bin/env bash
# End-to-end smoke test for the clop-serve daemon.
#
# Phase 1 — crash/resume correctness: generate a trace, split it into
# CLSH shards, and compute batch layout goldens offline. Start the daemon
# with per-fold checkpointing, deliver half the shards through the
# watch-dir path, and SIGKILL it once at least one checkpoint marker has
# landed. Restart on the same checkpoint directory and re-stream *all*
# shards over the socket, as a post-crash producer would: the resumed
# fold must dedup what survived the crash, absorb the rest, and answer
# every layout query byte-identically to the batch goldens. A shard with
# a corrupted header must be rejected and counted, without disturbing
# the served state.
#
# Phase 2 — backpressure: a 1-slot admission queue, a single worker, and
# an artificial per-fold delay force `-RETRY` responses; the client-side
# retry loop must still land every shard exactly once. A second round runs
# the same queue with durable acks and three concurrent clients on three
# versions: durable SHARDs share the bounded queue, so they too must meet
# `-RETRY`, and every acked shard must be folded.
#
# Usage: ci/serve_smoke.sh [path-to-clop-serve]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${1:-target/release/clop-serve}
if [[ ! -x "$BIN" ]]; then
    echo "building clop-serve (release)..."
    cargo build --release -p clop-serve --bin clop-serve
fi

WORK=$(mktemp -d "${TMPDIR:-/tmp}/clop-serve-smoke.XXXXXX")
PID=""
SEND_PIDS=()
cleanup() {
    for p in "$PID" "${SEND_PIDS[@]}"; do
        [[ -n "$p" ]] && kill -9 "$p" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

start_daemon() {
    local log=$1
    rm -f "$WORK/port"
    "$BIN" serve >"$WORK/$log.out" 2>"$WORK/$log.err" &
    PID=$!
    for _ in $(seq 1 200); do
        [[ -s "$WORK/port" ]] && return 0
        if ! kill -0 "$PID" 2>/dev/null; then
            echo "FAIL: daemon exited during startup; see $WORK/$log.err" >&2
            cat "$WORK/$log.err" >&2
            exit 1
        fi
        sleep 0.1
    done
    echo "FAIL: daemon never wrote its port file" >&2
    exit 1
}

stat_value() {
    "$BIN" stats "$WORK/port" | awk -v k="$1" '$1 == k { print $2 }'
}

echo "== offline artifacts: trace, shards, batch goldens =="
"$BIN" gen "$WORK/trace.cltc" 60000 400 7
CLOP_SERVE_SPLIT_PIECES=6 "$BIN" split "$WORK/trace.cltc" "$WORK/shards"
SHARDS=("$WORK"/shards/shard-*.clsh)
NSHARDS=${#SHARDS[@]}
for p in function-affinity function-trg; do
    "$BIN" batch-order "$WORK/trace.cltc" "$p" >"$WORK/golden-$p.txt"
done

export CLOP_SERVE_LISTEN=127.0.0.1:0
export CLOP_SERVE_PORT_FILE="$WORK/port"

echo "== phase 1: watch-dir ingest, SIGKILL, resume, socket re-stream =="
export CLOP_SERVE_WATCH_DIR="$WORK/watch"
export CLOP_SERVE_WATCH_POLL_MS=50
export CLOP_SERVE_CHECKPOINT_DIR="$WORK/ckpt"
export CLOP_SERVE_CHECKPOINT_EVERY=1
export CLOP_SERVE_WORKERS=2
start_daemon phase1a

# Half the shards arrive through the watch directory: staged outside the
# version directory, then renamed into place (the watcher's atomicity
# contract).
mkdir -p "$WORK/watch/v1"
for f in "${SHARDS[@]:0:3}"; do
    cp "$f" "$WORK/watch/.stage"
    mv "$WORK/watch/.stage" "$WORK/watch/v1/$(basename "$f")"
done

for _ in $(seq 1 200); do
    [[ -f "$WORK/ckpt/v1.done" ]] && break
    sleep 0.1
done
if [[ ! -f "$WORK/ckpt/v1.done" ]]; then
    echo "FAIL: no checkpoint marker landed; kill would be vacuous" >&2
    exit 1
fi
kill -9 "$PID" 2>/dev/null
wait "$PID" 2>/dev/null || true
PID=""
echo "killed daemon with checkpoint marker present"

start_daemon phase1b
# A post-crash producer re-streams everything; the resumed fold dedups.
"$BIN" send "$WORK/port" v1 "${SHARDS[@]}" 2>/dev/null
"$BIN" sync "$WORK/port" >/dev/null

EPOCH_LINE=$("$BIN" epoch "$WORK/port" v1)
ABSORBED=$(echo "$EPOCH_LINE" | awk '{ print $3 }')
if [[ "$ABSORBED" -ne "$NSHARDS" ]]; then
    echo "FAIL: resumed fold holds $ABSORBED shards, expected $NSHARDS" >&2
    exit 1
fi

for p in function-affinity function-trg; do
    "$BIN" query "$WORK/port" v1 "$p" >"$WORK/served-$p.txt"
    if ! diff -q "$WORK/golden-$p.txt" "$WORK/served-$p.txt" >/dev/null; then
        echo "FAIL: served $p layout differs from the batch golden" >&2
        diff "$WORK/golden-$p.txt" "$WORK/served-$p.txt" | head -20 >&2
        exit 1
    fi
done
echo "resumed daemon serves batch-identical layouts for $NSHARDS shards"

# A shard with a clobbered header must be rejected, counted, and leave
# the served state untouched.
{ printf 'XXXX'; tail -c +5 "${SHARDS[0]}"; } >"$WORK/corrupt.clsh"
if "$BIN" send "$WORK/port" v1 "$WORK/corrupt.clsh" 2>/dev/null; then
    echo "FAIL: corrupted shard was accepted" >&2
    exit 1
fi
REJECTED=$(stat_value rejected_decode)
if [[ "$REJECTED" -lt 1 ]]; then
    echo "FAIL: rejection not reflected in stats (rejected_decode=$REJECTED)" >&2
    exit 1
fi
"$BIN" query "$WORK/port" v1 function-affinity >"$WORK/after-reject.txt"
diff -q "$WORK/golden-function-affinity.txt" "$WORK/after-reject.txt" >/dev/null
echo "corrupted shard rejected (rejected_decode=$REJECTED), state undisturbed"

"$BIN" stop "$WORK/port" >/dev/null
wait "$PID" 2>/dev/null || true
PID=""

echo "== phase 2: bounded queue answers -RETRY, client retry converges =="
unset CLOP_SERVE_WATCH_DIR CLOP_SERVE_CHECKPOINT_DIR CLOP_SERVE_CHECKPOINT_EVERY
export CLOP_SERVE_QUEUE_CAP=1
export CLOP_SERVE_BATCH_MAX=1
export CLOP_SERVE_WORKERS=1
export CLOP_SERVE_FOLD_DELAY_MS=40
export CLOP_SERVE_RETRY_MS=5
start_daemon phase2

"$BIN" send "$WORK/port" v2 "${SHARDS[@]}" 2>/dev/null
"$BIN" sync "$WORK/port" >/dev/null
RETRIES=$(stat_value retry_busy)
FOLDED=$(stat_value folded)
if [[ "$RETRIES" -lt 1 ]]; then
    echo "FAIL: 1-slot queue with slow folds never answered -RETRY" >&2
    exit 1
fi
if [[ "$FOLDED" -ne "$NSHARDS" ]]; then
    echo "FAIL: folded $FOLDED shards under backpressure, expected $NSHARDS" >&2
    exit 1
fi
"$BIN" stop "$WORK/port" >/dev/null
wait "$PID" 2>/dev/null || true
PID=""

echo "== phase 2, durable round: durable acks share the bounded queue =="
export CLOP_SERVE_DURABLE_ACK=1
export CLOP_SERVE_CHECKPOINT_DIR="$WORK/ckpt-durable"
start_daemon phase2-durable
DURABLE_VERSIONS=(d1 d2 d3)
for v in "${DURABLE_VERSIONS[@]}"; do
    "$BIN" send "$WORK/port" "$v" "${SHARDS[@]}" 2>"$WORK/send-$v.err" &
    SEND_PIDS+=($!)
done
for p in "${SEND_PIDS[@]}"; do
    if ! wait "$p"; then
        echo "FAIL: a durable send client failed" >&2
        cat "$WORK"/send-d*.err >&2
        exit 1
    fi
done
SEND_PIDS=()
DURABLE_RETRIES=$(stat_value retry_busy)
FOLDED=$(stat_value folded)
SENT=$((${#DURABLE_VERSIONS[@]} * NSHARDS))
if [[ "$DURABLE_RETRIES" -lt 1 ]]; then
    echo "FAIL: durable SHARDs never met the 1-slot queue (retry_busy=0)" >&2
    exit 1
fi
if [[ "$FOLDED" -ne "$SENT" ]]; then
    echo "FAIL: folded $FOLDED durable shards, expected $SENT" >&2
    exit 1
fi
for v in "${DURABLE_VERSIONS[@]}"; do
    ABSORBED=$("$BIN" epoch "$WORK/port" "$v" | awk '{ print $3 }')
    if [[ "$ABSORBED" -ne "$NSHARDS" ]]; then
        echo "FAIL: version $v holds $ABSORBED shards, expected $NSHARDS" >&2
        exit 1
    fi
done
"$BIN" stop "$WORK/port" >/dev/null
wait "$PID" 2>/dev/null || true
PID=""

echo "PASS: serve smoke — resume after SIGKILL matches batch goldens," \
     "corruption rejected, backpressure answered $RETRIES retries with" \
     "all $NSHARDS shards folded, and $DURABLE_RETRIES with durable acks" \
     "from three clients"
