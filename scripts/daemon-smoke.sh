#!/usr/bin/env bash
# daemon-smoke: end-to-end crash-safety check of cashd with real
# processes and a real kill -9 — the in-process soak's guarantees,
# demonstrated at the OS boundary.
#
#   1. start cashd, submit a tenant through the retrying client
#   2. kill -9 the daemon mid-run
#   3. restart it on the same journal
#   4. assert the submit survived (idempotent resubmit acks as a
#      replay), every cell lands exactly once, and spend reconciles
#   5. drain gracefully and require a clean exit
#
# The journal is left in $WORKDIR for CI to upload as failure evidence.
set -euo pipefail

WORKDIR="${1:-$(mktemp -d /tmp/cashd-smoke-XXXXXX)}"
mkdir -p "$WORKDIR"
SOCK="$WORKDIR/cashd.sock"
JOURNAL="$WORKDIR/journal.jsonl"
CASHD="$WORKDIR/cashd"
CASHSIM="$WORKDIR/cashsim"
CELLS=8

echo "daemon-smoke: working in $WORKDIR"
go build -o "$CASHD" ./cmd/cashd
go build -o "$CASHSIM" ./cmd/cashsim

cleanup() {
    [ -n "${DPID:-}" ] && kill -9 "$DPID" 2>/dev/null || true
}
trap cleanup EXIT

"$CASHD" -socket "$SOCK" -journal "$JOURNAL" -epoch 10ms -v 2>"$WORKDIR/cashd-1.log" &
DPID=$!

# The client retries while the daemon finishes binding the socket.
"$CASHSIM" daemon-submit -socket "$SOCK" -tenant smoke -cells $CELLS -tenant-seed 7 -idem smoke-key

echo "daemon-smoke: kill -9 $DPID"
kill -9 "$DPID"
wait "$DPID" 2>/dev/null || true
DPID=

"$CASHD" -socket "$SOCK" -journal "$JOURNAL" -epoch 10ms -v 2>"$WORKDIR/cashd-2.log" &
DPID=$!

# The resubmit under the same key must come back as a replay of the
# original ack: the journal, not process memory, carried it across the
# kill.
ACK=$("$CASHSIM" daemon-submit -socket "$SOCK" -tenant smoke -cells $CELLS -tenant-seed 7 -idem smoke-key)
echo "$ACK"
echo "$ACK" | grep -q '"resubmitted": true' || {
    echo "daemon-smoke: FAIL: restart lost the journaled submit" >&2
    exit 1
}

# Wait for every cell to land exactly once.
for i in $(seq 1 100); do
    HEALTH=$("$CASHSIM" daemon-health -socket "$SOCK")
    if echo "$HEALTH" | grep -q "\"cells_landed\": $CELLS"; then
        break
    fi
    sleep 0.1
done
echo "$HEALTH"
echo "$HEALTH" | grep -q "\"cells_landed\": $CELLS" || {
    echo "daemon-smoke: FAIL: cells did not land after restart" >&2
    exit 1
}
echo "$HEALTH" | grep -q '"tenants": 1' || {
    echo "daemon-smoke: FAIL: duplicate tenant admission" >&2
    exit 1
}

# Books must balance: nothing outstanding after completion.
SPEND=$("$CASHSIM" daemon-spend -socket "$SOCK")
echo "$SPEND"
echo "$SPEND" | grep -q '"root_outstanding": 0' || {
    echo "daemon-smoke: FAIL: outstanding nanodollars after completion" >&2
    exit 1
}

"$CASHSIM" daemon-drain -socket "$SOCK"
if wait "$DPID"; then RC=0; else RC=$?; fi
DPID=
[ "$RC" -eq 0 ] || {
    echo "daemon-smoke: FAIL: drain exited $RC" >&2
    exit 1
}
echo "daemon-smoke: OK (exactly-once across kill -9, spend reconciled, clean drain)"
