#!/bin/sh
# End-to-end CLI smokes over one build, run by the CI main, sanitizer
# and coverage jobs (from the repository root):
#
#   sh tools/ci_smokes.sh BUILD_DIR TMP [STALL_S]
#
# TMP must be absent or empty; every cache, queue, CSV and log goes
# under it. STALL_S is the dispatcher's --stall-timeout-s (default
# 120; instrumented builds pass a larger one). Under a sanitizer,
# source tools/sanitize/env.sh first. Exits non-zero on the first
# failed check.
#
#   1. a cached sweep, twice: the first pass narrates at --log-level
#      debug, the second simulates nothing and matches byte for byte;
#   2. a cached mixed-agent scenario sweep, twice, likewise;
#   3. a streamed distributed sweep inspected with sweep_queue
#      status/ls, drained by two sweep_worker processes, whose CSV
#      equals a serial run over the same cache;
#   4. a sliced distributed sweep (checkpoint chains) drained by two
#      sweep_worker processes;
#   5. a sliced sweep on the dispatcher's spawned worker threads.

set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: sh tools/ci_smokes.sh BUILD_DIR TMP [STALL_S]" >&2
    exit 2
fi
B=$1
T=$2
STALL=${3:-120}
if [ -n "$(ls -A "$T" 2>/dev/null)" ]; then
    echo "ci_smokes: $T is not empty" >&2
    exit 2
fi
mkdir -p "$T"
# A failed check must not leave dispatchers or workers running.
PIDS=
trap 'kill $PIDS 2>/dev/null || true' EXIT

# Wait until the dispatcher logging to $1 has filled its queue:
# 'enqueued N cell(s)' prints after phase 1 completes, so --drain
# workers cannot see a not-yet-filled queue, conclude it is drained
# and exit early.
wait_enqueued() {
    for i in $(seq 1 300); do
        grep -q 'enqueued' "$1" && return 0
        sleep 0.2
    done
    grep -q 'enqueued' "$1"
}

echo "== 1. cached sweep"
# Two passes over one cache dir: the second must simulate nothing
# (asserted on the --cache-stats line — determinism alone would make
# cmp pass even with a dead cache) and be byte-identical to the first.
"$B"/sweep_grid --workloads micro \
    --governors fixed,sysscale --window-ms 300 \
    --warmup-ms 50 --quiet --cache-dir "$T"/sweep-cache \
    --cache-stats --log-level debug --csv "$T"/smoke.csv \
    --stats-csv "$T"/smoke-stats.csv --json "$T"/smoke.json \
    2> "$T"/pass1.log
grep -q '^debug: ' "$T"/pass1.log
"$B"/sweep_grid --workloads micro \
    --governors fixed,sysscale --window-ms 300 \
    --warmup-ms 50 --quiet --cache-dir "$T"/sweep-cache \
    --cache-stats --csv "$T"/smoke2.csv \
    --stats-csv "$T"/smoke2-stats.csv --json "$T"/smoke2.json \
    2> "$T"/pass2.log
cat "$T"/pass2.log
grep -q '6 hit(s), 0 miss(es), 0 store(s)' "$T"/pass2.log
grep -q '6 cells (0 simulated, 6 from cache)' "$T"/pass2.log
cmp "$T"/smoke.csv "$T"/smoke2.csv
# The warm pass's stats and JSON come from the record decoder: they
# must match the simulated pass byte for byte.
cmp "$T"/smoke-stats.csv "$T"/smoke2-stats.csv
cmp "$T"/smoke.json "$T"/smoke2.json
head -2 "$T"/smoke.csv

echo "== 2. cached scenario sweep"
# Camera + overlay layer + mid-run TDP stepping through sweep_grid,
# cached; the second sweep simulates zero cells.
for pass in 1 2; do
    "$B"/sweep_grid --workloads spec:400.perlbench \
        --governors fixed,sysscale --scenarios videoconf \
        --window-ms 600 --warmup-ms 100 --quiet \
        --cache-dir "$T"/scenario-cache --cache-stats \
        --csv "$T"/scenario$pass.csv 2> "$T"/scenario$pass.log
done
cat "$T"/scenario2.log
grep -q '2 cells (0 simulated, 2 from cache)' "$T"/scenario2.log
cmp "$T"/scenario1.csv "$T"/scenario2.csv

echo "== 3. distributed sweep (streamed, inspected)"
# The dispatcher enqueues a grid (with the scenario axis) and
# streams rows into the CSV as cells resolve; two sweep_worker
# processes (one capacity-2, one capacity-1) drain it through the
# shared queue + cache. The streamed CSV must equal a non-streamed
# single-process run over the same cache, which must itself simulate
# nothing (every cell was simulated exactly once, by the workers).
"$B"/sweep_grid --workloads spec:400.perlbench \
    --governors fixed,sysscale --scenarios none,app-switch \
    --window-ms 300 --warmup-ms 50 \
    --cache-dir "$T"/dist-cache --distributed "$T"/dist-queue \
    --stall-timeout-s "$STALL" \
    --stream-csv --csv "$T"/dist.csv 2> "$T"/dispatch.log &
DISPATCH=$!
PIDS="$PIDS $DISPATCH"
wait_enqueued "$T"/dispatch.log
# Inspect the live campaign: all four cells are on the queue (no
# worker is serving yet), decodable, and the streamed CSV already
# holds its header line.
"$B"/sweep_queue status --queue "$T"/dist-queue | tee "$T"/status.log
grep -q '4 pending' "$T"/status.log
"$B"/sweep_queue ls --queue "$T"/dist-queue | tee "$T"/ls.log
test "$(grep -c 'pending' "$T"/ls.log)" = 4
grep -q '400.perlbench/fixed' "$T"/ls.log
head -1 "$T"/dist.csv | grep -q '^id,governor'
"$B"/sweep_worker --queue "$T"/dist-queue \
    --cache-dir "$T"/dist-cache --drain --poll-ms 100 --capacity 2 &
W1=$!
PIDS="$PIDS $W1"
"$B"/sweep_worker --queue "$T"/dist-queue \
    --cache-dir "$T"/dist-cache --drain --poll-ms 100 &
W2=$!
PIDS="$PIDS $W2"
# status stays safe to run while the fleet drains.
"$B"/sweep_queue status --queue "$T"/dist-queue
wait $W1
wait $W2
wait $DISPATCH
cat "$T"/dispatch.log
"$B"/sweep_queue status --json --queue "$T"/dist-queue \
    | python3 -m json.tool
"$B"/sweep_grid --workloads spec:400.perlbench \
    --governors fixed,sysscale --scenarios none,app-switch \
    --window-ms 300 --warmup-ms 50 --quiet \
    --cache-dir "$T"/dist-cache --cache-stats \
    --csv "$T"/dist-serial.csv 2> "$T"/dist-serial.log
cat "$T"/dist-serial.log
grep -q '4 cells (0 simulated, 4 from cache)' "$T"/dist-serial.log
cmp "$T"/dist.csv "$T"/dist-serial.csv
test -z "$(find "$T"/dist-queue/pending "$T"/dist-queue/claimed \
    "$T"/dist-queue/failed -type f)"
# Unsliced cells are one-link chains: no chain snapshot is
# published, and a healthy drain quarantines nothing.
test -z "$(find "$T"/dist-queue/snaps "$T"/dist-queue/corrupt -type f)"

echo "== 4. sliced distributed sweep (checkpoint chains)"
# The same fleet shape drains the grid as chains of 100ms-of-
# simulated-time slices handing state through snapshots under
# <queue>/snaps/, across separate worker processes. The workers'
# logs must prove slices rode the queue and the drain must leave it
# empty. That sliced output matches a serial run is the distributed
# mode of tests/test_contracts.cc. adaptive carries the largest
# governor state (its learned thresholds), so its chains hand that
# state across every slice boundary.
"$B"/sweep_grid --workloads web-browsing,video-playback \
    --governors fixed,sysscale,adaptive \
    --window-ms 300 --warmup-ms 50 \
    --cache-dir "$T"/slice-cache \
    --distributed "$T"/slice-queue --slice-s 0.1 \
    --stall-timeout-s "$STALL" \
    --csv "$T"/sliced.csv 2> "$T"/slice-dispatch.log &
DISPATCH=$!
PIDS="$PIDS $DISPATCH"
wait_enqueued "$T"/slice-dispatch.log
"$B"/sweep_worker --queue "$T"/slice-queue \
    --cache-dir "$T"/slice-cache --drain --poll-ms 100 \
    > "$T"/slice-w1.log 2>&1 &
W1=$!
PIDS="$PIDS $W1"
"$B"/sweep_worker --queue "$T"/slice-queue \
    --cache-dir "$T"/slice-cache --drain --poll-ms 100 \
    > "$T"/slice-w2.log 2>&1 &
W2=$!
PIDS="$PIDS $W2"
wait $W1
wait $W2
wait $DISPATCH
cat "$T"/slice-dispatch.log
grep -qhE ' slice [0-9]+ ok \(' "$T"/slice-w1.log "$T"/slice-w2.log
test -n "$(find "$T"/slice-queue/snaps -name '*.snap')"
test -z "$(find "$T"/slice-queue/pending "$T"/slice-queue/claimed \
    "$T"/slice-queue/failed "$T"/slice-queue/corrupt -type f)"

echo "== 5. spawned-workers sweep (sliced)"
# The dispatcher's in-process worker threads share CellBudget and
# stop-flag state with the dispatch watch loop (prime race-detector
# territory); slicing runs the snapshot publish/enqueue/release
# ordering on them too.
"$B"/sweep_grid --workloads micro \
    --governors fixed,sysscale \
    --window-ms 300 --warmup-ms 50 --quiet \
    --cache-dir "$T"/spawn-cache \
    --distributed "$T"/spawn-queue --spawn-workers 2 \
    --slice-s 0.1 \
    --stall-timeout-s "$STALL" --csv "$T"/spawned.csv
test "$(tail -n +2 "$T"/spawned.csv | wc -l)" = 6

echo "ci_smokes: OK"
