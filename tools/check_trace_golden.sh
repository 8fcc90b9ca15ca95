#!/bin/sh
# Golden trace check, run as the trace_summary ctest:
#
#   tools/check_trace_golden.sh SWEEP_GRID PYTHON
#
# Re-simulates the golden trace cell (web-browsing base workload +
# the videoconf scenario, sysscale governor, warmup 50 ms, window
# 200 ms) with tracing on, byte-compares the trace with the committed
# fixture tests/data/videoconf.trace.json, then checks that the
# fixture still summarizes to tests/data/videoconf.summary.txt
# (tools/trace_summary.py --check). A moved, added or dropped trace
# site fails the first step; docs/OBSERVABILITY.md has the re-bake
# recipe for an intended change.

set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 SWEEP_GRID PYTHON" >&2
    exit 2
fi
sweep_grid=$1
python=$2
repo_root=$(cd "$(dirname "$0")/.." && pwd) || exit 2
data=$repo_root/tests/data

tmp=$(mktemp -d) || exit 2
trap 'rm -rf "$tmp"' EXIT

"$sweep_grid" --workloads web-browsing --governors sysscale \
    --scenarios videoconf --window-ms 200 --warmup-ms 50 \
    --no-cache --quiet --trace-dir "$tmp" > /dev/null || exit 1

set -- "$tmp"/*.trace.json
if [ $# -ne 1 ] || [ ! -f "$1" ]; then
    echo "check_trace_golden: expected one trace file" >&2
    exit 1
fi
if ! cmp "$1" "$data/videoconf.trace.json"; then
    echo "check_trace_golden: the golden cell's trace differs from" \
         "tests/data/videoconf.trace.json" >&2
    exit 1
fi

exec "$python" "$repo_root/tools/trace_summary.py" \
    "$data/videoconf.trace.json" \
    --check "$data/videoconf.summary.txt"
