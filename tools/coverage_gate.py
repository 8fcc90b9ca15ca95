#!/usr/bin/env python3
"""Coverage gate: every function in src/ runs, or is allowlisted.

Usage:
    python3 tools/coverage_gate.py BUILD_DIR

BUILD_DIR is a build configured with `--coverage` (docs/ANALYSIS.md)
whose binaries have already run, so every object has its .gcda
counts. The gate runs `gcov --json-format --stdout` over all of them
and sums execution counts by (source file, demangled function). The
sum spans every object: a header-inline function is compiled into
many objects, so a zero in one of them says nothing.

It fails (exit 1) when a src/ function never ran and is missing from
tools/coverage_allowlist.txt. Allowlist lines read

    src/sim/logging.cc sysscale::panicImpl(char const*, int, ...)  # abort path

that is the source path, one space, the demangled name exactly as
this tool prints it, and a `#` reason, which is required. Entries
whose function now runs (or is gone) are reported as stale, so the
list can shrink; they do not fail the gate.
"""

import argparse
import collections
import json
import os
import subprocess
import sys

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
ALLOWLIST = os.path.join(REPO, "tools", "coverage_allowlist.txt")


def gcov_records(build_dir):
    """Yield one gcov JSON document per .gcda file under build_dir."""
    gcdas = []
    for dirpath, _, filenames in os.walk(build_dir):
        gcdas += [os.path.join(dirpath, f) for f in filenames
                  if f.endswith(".gcda")]
    if not gcdas:
        sys.exit("coverage_gate: no .gcda files under %s (build with "
                 "--coverage and run the binaries first)" % build_dir)
    gcdas.sort()
    for i in range(0, len(gcdas), 64):
        out = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + gcdas[i:i + 64],
            cwd=build_dir, check=True, capture_output=True, text=True,
        ).stdout
        for line in out.splitlines():
            if line.strip():
                yield json.loads(line)


def function_counts(build_dir):
    """{(repo-relative src path, demangled name): summed count}."""
    counts = collections.Counter()
    for doc in gcov_records(build_dir):
        for f in doc["files"]:
            path = os.path.relpath(os.path.realpath(f["file"]), REPO)
            if not path.startswith("src" + os.sep):
                continue
            for fn in f["functions"]:
                counts[(path, fn["demangled_name"])] += (
                    fn["execution_count"])
    return counts


def read_allowlist(path):
    """{(path, function): reason}; exits on a malformed line."""
    allowed = {}
    with open(path) as fh:
        for n, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            entry, sep, reason = line.partition(" # ")
            src, _, func = entry.strip().partition(" ")
            if not sep or not reason.strip() or not func:
                sys.exit("coverage_gate: %s:%d: want 'PATH FUNCTION "
                         "# reason'" % (path, n))
            allowed[(src, func.strip())] = reason.strip()
    return allowed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("build_dir")
    args = ap.parse_args()

    counts = function_counts(os.path.abspath(args.build_dir))
    allowed = read_allowlist(ALLOWLIST)
    never = sorted(k for k, c in counts.items() if c == 0)
    missing = [k for k in never if k not in allowed]
    stale = sorted(k for k in allowed if counts.get(k, 1) != 0)

    print("coverage_gate: %d src/ functions, %d never ran, %d "
          "allowlisted" % (len(counts), len(never), len(allowed)))
    for path, func in stale:
        print("  stale allowlist entry (ran or gone): %s %s"
              % (path, func))
    for path, func in missing:
        print("  never ran, not allowlisted: %s %s" % (path, func))
    if missing:
        print("coverage_gate: FAIL — delete each function, make it "
              "run, or allowlist it with a reason")
        return 1
    print("coverage_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
