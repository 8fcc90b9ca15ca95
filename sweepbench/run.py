#!/usr/bin/env python3
"""Build and run the sweep benchmark from the root of a checkout.

    python3 sweepbench/run.py --workload spec-sweep --seed 1 \
        --seconds 30 --trace 0

Builds sweepbench/ (the simulator library plus main.cc) into
.bench_build/sweepbench with CMake, then runs the binary, whose last
stdout line is the JSON result. Scratch files (caches, queues,
snapshots) live under .bench_build/ and are removed when the run ends;
with --trace 1 the spans are written to
.bench_build/spans-<workload>-<seed>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["spec-sweep", "battery-scenarios"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isdir(os.path.join(root, "src")):
        sys.exit("sweepbench: no simulator sources next to the benchmark")

    out = os.path.join(root, ".bench_build")
    build = os.path.join(out, "sweepbench")
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = [
        ["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j4", "--target", "sweepbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, env=env)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit("sweepbench: build failed")

    work = os.path.join(out, "work-%d" % os.getpid())
    cmd = [os.path.join(build, "sweepbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    if args.trace:
        cmd += ["--spans", os.path.join(
            out, "spans-%s-%d.json" % (args.workload, args.seed))]
    try:
        code = subprocess.run(cmd, env=env).returncode
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
