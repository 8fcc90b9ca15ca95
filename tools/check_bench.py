#!/usr/bin/env python3
"""Perf-ledger comparator (docs/ANALYSIS.md, ROADMAP hot-loop item).

Compares two google-benchmark JSON dumps — the committed ledger
baseline (bench/BENCH_pr<N>.json) against a fresh run::

    ./build/bench_micro --benchmark_format=json > /tmp/bench.json
    python3 tools/check_bench.py bench/BENCH_pr38.json /tmp/bench.json

Benchmarks are matched by name and compared on per-iteration cpu_time
(normalized across time units).  A benchmark slower than baseline by
more than --tolerance percent is a REGRESSION, faster by more is an
improvement worth re-baselining.

Warn-only by default for ad-hoc use; CI's "Perf ledger (strict)"
step passes --strict (regressions exit 1) with a widened --tolerance
to absorb shared-runner noise.  See docs/ANALYSIS.md for the
re-baselining recipe.
"""

import argparse
import json
import sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        # Aggregate reruns (_mean/_median/...) would double-count;
        # keep plain iterations plus an explicit _median if present —
        # the median wins when both exist.  Dispersion aggregates
        # (_stddev/_cv) are not timings and are skipped outright, so
        # a repetitions-recorded baseline compares cleanly against a
        # single-run CI dump.
        name = b.get("name", "")
        agg = b.get("aggregate_name", "")
        if not agg:
            for suffix in ("_median", "_mean", "_stddev", "_cv"):
                if name.endswith(suffix):
                    agg = suffix[1:]
                    break
        if agg not in ("", "mean", "median"):
            continue
        base = name.split("_mean")[0].split("_median")[0]
        unit = UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        cpu_ns = float(b.get("cpu_time", 0.0)) * unit
        if agg == "median" or base not in out:
            out[base] = cpu_ns
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare google-benchmark JSON against the "
                    "committed perf-ledger baseline")
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("current", help="fresh bench_micro JSON dump")
    parser.add_argument("--tolerance", type=float, default=10.0,
                        help="allowed slowdown in percent "
                             "(default 10)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on regression (default: "
                             "warn-only)")
    args = parser.parse_args(argv)

    base = load(args.baseline)
    cur = load(args.current)

    regressions = []
    width = max((len(n) for n in cur), default=10)
    for name in sorted(cur):
        if name not in base:
            print("%-*s  %10.1f ns  (new, no baseline)" %
                  (width, name, cur[name]))
            continue
        if base[name] <= 0:
            continue
        delta = (cur[name] - base[name]) / base[name] * 100.0
        marker = ""
        if delta > args.tolerance:
            marker = "  REGRESSION"
            regressions.append((name, delta))
        elif delta < -args.tolerance:
            marker = "  improved (consider re-baselining)"
        print("%-*s  %10.1f ns  vs %10.1f ns  %+6.1f%%%s" %
              (width, name, cur[name], base[name], delta, marker))
    for name in sorted(set(base) - set(cur)):
        print("%-*s  dropped from the current run" % (width, name))

    if regressions:
        print("check_bench: %d regression(s) beyond %.1f%% tolerance"
              % (len(regressions), args.tolerance))
        if args.strict:
            return 1
        print("check_bench: warn-only mode — not failing "
              "(pass --strict to gate)")
        return 0
    print("check_bench: OK (%d benchmark(s) within %.1f%%)" %
          (len(cur), args.tolerance))
    return 0


if __name__ == "__main__":
    sys.exit(main())
